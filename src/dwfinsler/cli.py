"""Command-line interface: evaluate tensors, run suites, render reports.

Exit codes: 0 when all verdicts are as expected (declared expected failures
included), 1 on an unexpected verdict, 2 on specification or usage errors (a
malformed spec or stored-report file among them), with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .core import TENSORS, tensor
from .errors import DomainError, DwfError, SchemaError
from .metrics import TangentSample
from .runspec import (ALL_SUITES, FIXTURES, RunSpec, fixture_document, parse_spec,
                      sample_points)
from .report import DiagnosticsReport, SuiteEntry, SuiteResult
from .suites import emit_report, run_suites


def _load_runspec(args) -> RunSpec:
    if bool(args.spec) == bool(args.fixture):
        raise SchemaError("exactly one of --spec or --fixture is required")
    tolerances = {}
    for item in getattr(args, "tol", None) or ():
        if "=" not in item:
            raise SchemaError(f"--tol expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        try:
            tolerances[name] = float(value)
        except ValueError:
            raise SchemaError(f"--tol {name}: expected a number, got {value!r}") from None
    doc = Path(args.spec).read_bytes() if args.spec else fixture_document(args.fixture)
    return parse_spec(doc, seed=args.seed, count=args.points,
                      suites=getattr(args, "suite", None), tolerances=tolerances)


def _parse_point(text: str) -> TangentSample:
    groups: dict[str, tuple[float, ...]] = {}
    for chunk in text.split(";"):
        name, _, values = chunk.partition("=")
        name = name.strip()
        if name not in ("x", "u", "y", "v") or not values:
            raise SchemaError(f"--point expects 'x=..;u=..;y=..;v=..', got {text!r}")
        try:
            groups[name] = tuple(float(t) for t in values.split(","))
        except ValueError:
            raise SchemaError(f"--point {name}: expected numbers, got {values!r}") from None
        if not all(map(math.isfinite, groups[name])):
            raise SchemaError(f"--point {name}: coordinates must be finite, got {values!r}")
    missing = {"x", "u", "y", "v"} - set(groups)
    if missing:
        raise SchemaError(f"--point is missing groups: {', '.join(sorted(missing))}")
    return TangentSample(groups["x"], groups["u"], groups["y"], groups["v"])


def _printable(cfg, name: str, p: TangentSample):
    """Tensor ``name`` of the table at ``p`` as JSON: nested lists, and a dict
    for the bracket pair.  JSON has no number for inf or NaN, so such an
    entry fails, as does an evaluation that leaves the floats on the way
    (a DomainError: an exp or a warp square that overflows)."""
    where = ";".join(f"{k}={','.join(map(repr, getattr(p, k)))}" for k in "xuyv")
    try:
        value = tensor(cfg, p, name)
    except DomainError as exc:
        raise DomainError(f"--tensor {name} is not finite at {where}: {exc}") from None
    arrays = [t.array for t in (value if isinstance(value, tuple) else (value,))]
    if not all(math.isfinite(v) for a in arrays for v in a.flat):
        raise DomainError(f"--tensor {name} is not finite at {where}")
    if len(arrays) == 2:
        return {"curvature": arrays[0].tolist(), "connection": arrays[1].tolist()}
    return arrays[0].tolist()


def _cmd_eval(args) -> int:
    spec = _load_runspec(args)
    cfg = spec.config
    if args.point:
        points = [_parse_point(t) for t in args.point]
    else:
        points = sample_points(spec)[:max(1, args.points or 1)]
    names = args.tensor or ["g", "spray"]
    # A point where F^2 overflows gives inf and NaN entries, which _printable
    # rejects with a DomainError; numpy's own warnings about them are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        doc = [{"point": {"x": list(p.x), "u": list(p.u), "y": list(p.y), "v": list(p.v)},
                "tensors": {name: _printable(cfg, name, p) for name in names}}
               for p in points]
    print(json.dumps({"config": spec.label, "evaluations": doc},
                     sort_keys=True, indent=2))
    return 0


def _cmd_verify(args) -> int:
    spec = _load_runspec(args)
    report = run_suites(spec)
    if args.json:
        # The file is json.dumps({"meta": ..., "report": ...}, sort_keys=True,
        # indent=2) and a newline, composed of its two sections one level in;
        # the report's text is the writer's, as every report's is.
        meta = {"tool": "dwfinsler", "version": __version__,
                "generated_at": datetime.now(timezone.utc).isoformat()}
        sections = (json.dumps(meta, sort_keys=True, indent=2), emit_report(report, "json"))
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write('{\n  "meta": %s,\n  "report": %s\n}\n'
                     % tuple(t.replace("\n", "\n  ") for t in sections))
    print(emit_report(report, "text"))
    return 0 if report.ok else 1


def _cmd_fixtures(_args) -> int:
    descriptions = {
        "FIX-1D": "1D Euclidean factors, quadratic warps on both sides",
        "FIX-E": "2D Euclidean factors, quadratic warps in the first coordinates",
        "FIX-P": "plain product: 2D Euclidean factors, constant warps",
        "FIX-R": "2D Euclidean x 2D Randers (b = (0.3, 0)), quadratic warps",
    }
    for name in sorted(FIXTURES):
        cfg = FIXTURES[name]
        print(f"{name:8s} n1={cfg.n1} n2={cfg.n2} {cfg.classification():14s} "
              f"{descriptions.get(name, '')}")
    return 0


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{path}: expected a string")
    return value


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{path}: expected true or false")
    return value


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: expected an integer")
    return value


def _number(value, path: str) -> float:
    """A JSON number, NaN and the infinities included, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{path}: expected a number within the floats") from None


def _optional(read):
    """A reader of null or of what ``read`` reads."""
    return lambda value, path: None if value is None else read(value, path)


def _array(read):
    """A reader of an array, to the list of its items as ``read`` reads them."""
    def array(value, path: str) -> list:
        if not isinstance(value, list):
            raise SchemaError(f"{path}: expected an array")
        return [read(item, f"{path}[{i}]") for i, item in enumerate(value)]
    return array


def _object(fields):
    """A reader of an object, to the list of its ``fields``, (key, reader) pairs."""
    def read(node, path: str) -> list:
        if not isinstance(node, dict):
            raise SchemaError(f"{path}: expected an object")
        out = []
        for key, read_field in fields:
            if key not in node:
                raise SchemaError(f"{path}.{key}: required key missing")
            out.append(read_field(node[key], f"{path}.{key}"))
        return out
    return read


_groups = _array(_array(_number))


def _point(value, path: str) -> list | None:
    """null, or the x, u, y and v of a witness: 4 arrays of numbers."""
    if value is None:
        return None
    if not isinstance(value, list) or len(value) != 4:
        raise SchemaError(f"{path}: expected null or 4 arrays of numbers")
    return _groups(value, path)


#: The fields of a report that :func:`report_from_document` reads, in the
#: order of the records' arguments.
_read_entry = _object((("name", _string), ("residual", _number),
                       ("tolerance", _optional(_number)), ("passed", _boolean),
                       ("point", _point), ("note", _string)))
_read_suite = _object((("name", _string), ("passed", _boolean),
                       ("expected_failure", _boolean), ("as_expected", _boolean),
                       ("max_residual", _number), ("entries", _array(_read_entry))))
_read_report = _object((("config", _string),
                        ("engine", _object((("seed", _integer), ("points", _integer)))),
                        ("suites", _array(_read_suite))))


def report_from_document(doc) -> DiagnosticsReport:
    """The report of a parsed JSON report document, or of the file that
    ``dwfinsler verify --json`` writes, which holds one under ``"report"``.

    Each field read must have its JSON type: strings for the label, names and
    notes; true or false for the verdicts; integers for the seed and the
    point count; numbers for the residuals, tolerances and suite maxima (read
    as floats; a tolerance may be null); and for a witness, null or 4 arrays
    of numbers (read as floats).  A missing or wrongly typed field is a
    :class:`SchemaError` naming its path.  The ``summary`` and the jet order
    are not read: they are recomputed when the report is written.

    The verdicts are not trusted but checked (:func:`_check_verdicts`), so
    an edited verdict is a :class:`SchemaError` too.
    """
    path = "$"
    if isinstance(doc, dict) and "report" in doc:
        doc, path = doc["report"], "$.report"
    label, (seed, count), suites = _read_report(doc, path)
    _check_verdicts(suites, f"{path}.suites")
    return DiagnosticsReport(label, seed, count, tuple(
        SuiteResult(*fields, tuple(SuiteEntry(fields[0], *entry) for entry in entries))
        for *fields, entries in suites))


def _check_verdicts(suites: list, path: str) -> None:
    """Each verdict of the read ``suites`` as the report's writer derives it:
    an entry passes iff it has no tolerance or its residual is at most its
    tolerance (a lower bound and a skipped suite's entry included), a suite
    passes iff all its entries pass, it is as expected iff its verdict
    differs from its declared expected failure, and its maximum residual is
    ``np.max`` of its entries' (0.0 for none, NaN when one is NaN)."""
    for i, (_, passed, expected_failure, as_expected, worst, entries) in enumerate(suites):
        at = f"{path}[{i}]"
        for k, (_, residual, tolerance, entry_passed, _, _) in enumerate(entries):
            if entry_passed != (tolerance is None or residual <= tolerance):
                raise SchemaError(f"{at}.entries[{k}].passed: {str(entry_passed).lower()} "
                                  f"contradicts residual {residual!r} and tolerance "
                                  f"{'null' if tolerance is None else repr(tolerance)}")
        if passed != all(entry[3] for entry in entries):
            raise SchemaError(f"{at}.passed: {str(passed).lower()} contradicts its entries")
        if as_expected != (passed != expected_failure):
            raise SchemaError(f"{at}.as_expected: {str(as_expected).lower()} contradicts "
                              f"passed and expected_failure")
        want = float(np.max([entry[1] for entry in entries])) if entries else 0.0
        if want != worst and not (math.isnan(want) and math.isnan(worst)):
            raise SchemaError(f"{at}.max_residual: {worst!r} is not the entries' maximum {want!r}")


def _cmd_report(args) -> int:
    try:
        report = report_from_document(json.loads(Path(args.json).read_bytes()))
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{args.json} is not a report: {type(exc).__name__}: {exc}") from None
    except SchemaError as exc:
        raise SchemaError(f"{args.json} is not a report: {exc}") from None
    text = emit_report(report, args.format)
    print(text)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwfinsler",
        description="Doubly warped product Finsler geometry engine and verifier")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flags(sp, with_suites: bool):
        sp.add_argument("--spec", help="path to a JSON run document")
        sp.add_argument("--fixture", help="name of a built-in fixture")
        sp.add_argument("--seed", type=int, help="override the sampling seed")
        sp.add_argument("--points", type=int, help="override the sample count")
        if with_suites:
            sp.add_argument("--suite", action="append", choices=ALL_SUITES,
                            help="run only this suite (repeatable)")
            sp.add_argument("--tol", action="append", metavar="NAME=VALUE",
                            help="override a tolerance (repeatable)")

    sp = sub.add_parser("eval", help="print tensors at given or sampled points")
    add_spec_flags(sp, with_suites=False)
    sp.add_argument("--point", action="append",
                    help="semicolon-separated groups, e.g. 'x=0,0;u=1,0;y=1,0.3;v=0.2,1'")
    sp.add_argument("--tensor", action="append", choices=TENSORS,
                    help="tensor to print (repeatable; default: g and spray)")
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("verify", help="run verification suites")
    add_spec_flags(sp, with_suites=True)
    sp.add_argument("--json", help="also write the full JSON report to this path")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("fixtures", help="list built-in fixtures")
    sp.set_defaults(func=_cmd_fixtures)

    sp = sub.add_parser("report", help="re-render a stored JSON report")
    sp.add_argument("--json", required=True, help="path to a stored report")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DwfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
