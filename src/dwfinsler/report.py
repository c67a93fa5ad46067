"""The diagnostics report: its records, its JSON document and its two renderings.

:func:`write_text` renders a report as a table for people to read, and
:func:`write_json` is the one writer of a report's JSON text.  It writes
``json.dumps(report_document(report), sort_keys=True, indent=2)`` byte for
byte, straight from the records: the keys of each object in their sorted
order, which the schema fixes, and each value spelled as :mod:`json` spells
it.  Entries of one run that share a witness sample share its point list
(``suites.run_suites``), and the writer renders each such list once per call.
A stored report is read back by ``cli.report_from_document``, which only the
``report`` command needs, so that no run compiles it at import.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

from .coords import MAX_ORDER


class SuiteEntry:
    """One residual check; a ``tolerance`` of None marks an informational entry,
    and ``point`` is the witness of the worst residual."""

    __slots__ = ("suite", "name", "residual", "tolerance", "passed", "point", "note")

    def __init__(self, suite: str, name: str, residual: float, tolerance: float | None,
                 passed: bool, point: list | None = None, note: str = ""):
        self.suite, self.name, self.residual, self.tolerance = suite, name, residual, tolerance
        self.passed, self.point, self.note = passed, point, note


class SuiteResult:
    __slots__ = ("name", "passed", "expected_failure", "as_expected", "max_residual", "entries")

    def __init__(self, name: str, passed: bool, expected_failure: bool, as_expected: bool,
                 max_residual: float, entries: tuple[SuiteEntry, ...]):
        self.name, self.passed, self.expected_failure = name, passed, expected_failure
        self.as_expected, self.max_residual, self.entries = as_expected, max_residual, entries


class DiagnosticsReport:
    __slots__ = ("label", "seed", "count", "suites")

    def __init__(self, label: str, seed: int, count: int, suites: tuple[SuiteResult, ...]):
        self.label, self.seed, self.count, self.suites = label, seed, count, suites

    @property
    def ok(self) -> bool:
        return all(s.as_expected for s in self.suites)

    @property
    def pass_count(self) -> int:
        return sum(1 for s in self.suites for e in s.entries if e.passed)

    @property
    def fail_count(self) -> int:
        return sum(1 for s in self.suites for e in s.entries if not e.passed)


def report_document(report: DiagnosticsReport) -> dict:
    """The deterministic (diffable) document for a report."""
    return {
        "config": report.label,
        "engine": {"seed": report.seed, "points": report.count,
                   "max_jet_order": MAX_ORDER},
        "suites": [
            {
                "name": s.name,
                "passed": s.passed,
                "expected_failure": s.expected_failure,
                "as_expected": s.as_expected,
                "max_residual": s.max_residual,
                "entries": [
                    {"name": e.name, "residual": e.residual, "tolerance": e.tolerance,
                     "passed": e.passed, "point": e.point, "note": e.note}
                    for e in s.entries
                ],
            }
            for s in report.suites
        ],
        "summary": {
            "ok": report.ok,
            "entries_passed": report.pass_count,
            "entries_failed": report.fail_count,
            "unexpected": [s.name for s in report.suites if not s.as_expected],
        },
    }


def write_text(report: DiagnosticsReport) -> str:
    """The report as a text table: one line per suite with its worst residual
    and verdict, one per failing entry, and the result."""
    lines = [f"configuration {report.label}  (seed {report.seed}, {report.count} points)"]
    lines.append(f"{'suite':<24}{'worst residual':>16}  verdict")
    for s in report.suites:
        verdict = "pass" if s.passed else "FAIL"
        if s.expected_failure:
            verdict += " (expected)" if not s.passed else " (UNEXPECTED PASS)"
        lines.append(f"{s.name:<24}{s.max_residual:>16.3e}  {verdict}")
        for e in s.entries:
            if not e.passed:
                where = f" at point {e.point}" if e.point else ""
                note = f" [{e.note}]" if e.note else ""
                lines.append(f"    {e.name}: residual {e.residual:.3e} "
                             f"> tol {e.tolerance}{where}{note}")
    status = "OK" if report.ok else "UNEXPECTED VERDICTS"
    lines.append(f"result: {status} ({report.pass_count} checks passed, "
                 f"{report.fail_count} failed)")
    return "\n".join(lines)


#: The layout of ``json.dumps(report_document(report), sort_keys=True,
#: indent=2)``: each object's keys in sorted order, two spaces a level.
_REPORT_JSON = """{
  "config": %s,
  "engine": {
    "max_jet_order": %s,
    "points": %s,
    "seed": %s
  },
  "suites": %s,
  "summary": {
    "entries_failed": %s,
    "entries_passed": %s,
    "ok": %s,
    "unexpected": %s
  }
}"""
_SUITE_JSON = """{
      "as_expected": %s,
      "entries": %s,
      "expected_failure": %s,
      "max_residual": %s,
      "name": %s,
      "passed": %s
    }"""
_ENTRY_JSON = """{
          "name": %s,
          "note": %s,
          "passed": %s,
          "point": %s,
          "residual": %s,
          "tolerance": %s
        }"""

#: json's spelling of the floats that ``float.__repr__`` spells otherwise.
_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar(value) -> str:
    """``value`` as :mod:`json` spells a string, null, a boolean or a number."""
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_NAMES.get(text, text)
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _items(texts: list[str], indent: str) -> str:
    """The array of the written ``texts`` on a line indented by ``indent``."""
    if not texts:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + indent + "]"


def _value(value, indent: str) -> str:
    """``value``, a scalar or nested lists of them, as ``json.dumps(..., indent=2)``
    writes it on a line indented by ``indent``."""
    if isinstance(value, (list, tuple)):
        return _items([_value(v, indent + "  ") for v in value], indent)
    return _scalar(value)


def write_json(report: DiagnosticsReport) -> str:
    """``json.dumps(report_document(report), sort_keys=True, indent=2)``, byte
    for byte, written from the records.

    Each point list is rendered once per call.  The memo keys a point by its
    identity, never by value: ``(0.0,) == (-0.0,)``, and the two print
    differently.  The report holds every point it keys for the whole call.
    """
    points: dict[int, str] = {}
    suites = []
    for s in report.suites:
        entries = []
        for e in s.entries:
            point = points.get(id(e.point))
            if point is None:
                point = points[id(e.point)] = _value(e.point, "          ")
            entries.append(_ENTRY_JSON % (_scalar(e.name), _scalar(e.note), _scalar(e.passed),
                                          point, _scalar(e.residual), _scalar(e.tolerance)))
        suites.append(_SUITE_JSON % (_scalar(s.as_expected), _items(entries, "      "),
                                     _scalar(s.expected_failure), _scalar(s.max_residual),
                                     _scalar(s.name), _scalar(s.passed)))
    unexpected = [s.name for s in report.suites if not s.as_expected]
    return _REPORT_JSON % (_scalar(report.label), _scalar(MAX_ORDER), _scalar(report.count),
                           _scalar(report.seed), _items(suites, "  "),
                           _scalar(report.fail_count), _scalar(report.pass_count),
                           _scalar(report.ok), _value(unexpected, "    "))
