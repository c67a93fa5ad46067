"""The report's one JSON writer writes what ``json.dumps`` of the report's
document writes, byte for byte, and a stored report is read back field by
field against its JSON types."""

import json
import math

import pytest

from dwfinsler.cli import report_from_document
from dwfinsler.errors import SchemaError
from dwfinsler.report import DiagnosticsReport, SuiteEntry, SuiteResult, report_document
from dwfinsler.runspec import fixture_runspec, parse_spec
from dwfinsler.suites import emit_report, run_suites

from conftest import ALL_FIXTURES
from test_asymmetric import ASYM_1x3, ASYM_3x2
from test_lifted import CURVED_2x2
from test_report_bytes import CUBIC_2x2, SEEDED_DIGESTS


def _dumped(report) -> str:
    return json.dumps(report_document(report), sort_keys=True, indent=2)


def _assert_written_as_json_dumps(report) -> None:
    assert emit_report(report, "json") == _dumped(report)


def _point(*coords):
    return [[c] for c in coords]


@pytest.mark.parametrize("count", [1, 7, 40])
@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_the_writer_writes_json_dumps_on_every_fixture(name, count):
    _assert_written_as_json_dumps(run_suites(fixture_runspec(name, count=count)))


def test_the_writer_writes_json_dumps_on_the_pinned_reports(reports):
    for report in reports.values():
        _assert_written_as_json_dumps(report)
    for name, seed, count in SEEDED_DIGESTS:
        _assert_written_as_json_dumps(run_suites(fixture_runspec(name, seed=seed, count=count)))
    for doc in (ASYM_1x3, ASYM_3x2, CUBIC_2x2, CURVED_2x2):
        _assert_written_as_json_dumps(run_suites(parse_spec(doc)))


def _report(label="L", suites=()):
    return DiagnosticsReport(label, 3, 2, tuple(suites))


def _suite(name, entries, expected_failure=False):
    return SuiteResult(name, expected_failure, tuple(entries))


@pytest.mark.parametrize("residual", [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                                      1.7976931348623157e308, 1e16, 0.1])
def test_the_writer_spells_every_float_as_json(residual):
    # The entry sits at its own tolerance, so it passes unless it is NaN, and
    # it is its suite's maximum; that suite is declared an expected failure.
    entry = SuiteEntry("e", residual, residual, _point(residual, 1.0, 1.0, 1.0))
    report = _report(suites=[_suite("s", [entry], expected_failure=True),
                             _suite("t", [SuiteEntry("f", 1.0, 0.0)])])
    assert entry.passed is not math.isnan(residual)
    assert float.hex(report.suites[0].max_residual) == float.hex(residual)
    _assert_written_as_json_dumps(report)


def test_the_writer_writes_informational_skipped_and_unexpected_suites():
    skipped = run_suites(fixture_runspec("FIX-1D", count=2, suites=("scalar-flag", "con1")))
    assert skipped.suites[0].entries[0].tolerance is None
    _assert_written_as_json_dumps(skipped)
    informational = SuiteEntry("info", 0.0, None, None, "")
    failing = SuiteEntry("check", 2.0, 1.0, _point(0.5, 1.0, 1.0, 1.0), "note")
    report = _report(suites=[_suite("s", [informational]),
                             _suite("t", [failing]),
                             _suite("u", [], expected_failure=True),
                             _suite("v", [failing], expected_failure=True)])
    assert [(s.passed, s.as_expected) for s in report.suites] == [
        (True, True), (False, False), (True, False), (False, True)]
    assert "  pass (UNEXPECTED PASS)" in emit_report(report)
    _assert_written_as_json_dumps(report)
    _assert_written_as_json_dumps(_report())
    _assert_written_as_json_dumps(run_suites(fixture_runspec("FIX-P", count=1, suites=())))


def test_the_writer_escapes_strings_as_json():
    text = 'q"uote b\\ack\nline\ttab \x00\x1f\x7f é ☃ 𝄞'
    entry = SuiteEntry(text, 0.0, 1.0, _point(0.0, 1.0, 1.0, 1.0), text)
    _assert_written_as_json_dumps(_report(text, [_suite(text, [entry])]))


def test_the_writer_keys_a_point_by_identity_not_by_value():
    # (0.0,) == (-0.0,) and the two hash alike: a memo keyed by value would
    # print the first point's 0.0 where the second has -0.0.
    plus, minus = _point(0.0, 1.0, 1.0, 1.0), _point(-0.0, 1.0, 1.0, 1.0)
    assert [tuple(g) for g in plus] == [tuple(g) for g in minus]
    entries = [SuiteEntry(f"e{k}", 0.0, 1.0, p)
               for k, p in enumerate((plus, minus, plus, minus))]
    report = _report(suites=[_suite("s", entries)])
    _assert_written_as_json_dumps(report)
    written = json.loads(emit_report(report, "json"))["suites"][0]["entries"]
    assert [math.copysign(1.0, e["point"][0][0]) for e in written] == [1.0, -1.0, 1.0, -1.0]


def test_a_run_gives_the_entries_of_one_witness_one_point_list():
    report = run_suites(fixture_runspec("FIX-R", count=25))
    points = [e.point for s in report.suites for e in s.entries if e.point is not None]
    by_value = {json.dumps(p) for p in points}
    assert len({id(p) for p in points}) == len(by_value) < len(points)


def test_the_writer_does_not_run_the_json_encoder(monkeypatch):
    report = run_suites(fixture_runspec("FIX-R", count=3))
    expected = _dumped(report)

    def refuse(*args, **kwargs):
        raise AssertionError("the report went through json's encoder")

    monkeypatch.setattr(json.encoder.JSONEncoder, "iterencode", refuse)
    assert emit_report(report, "json") == expected


def _stored():
    doc = report_document(run_suites(fixture_runspec("FIX-P", count=1, suites=("yF=G",))))
    return json.loads(json.dumps({"meta": {"tool": "dwfinsler"}, "report": doc}))


@pytest.mark.parametrize("where, key, value, message", [
    ("entry", "passed", "yes", "$.report.suites[0].entries[0].passed: expected true or false"),
    ("entry", "residual", "abc", "$.report.suites[0].entries[0].residual: expected a number"),
    ("entry", "residual", 10 ** 400,
     "$.report.suites[0].entries[0].residual: expected a number within the floats"),
    ("entry", "tolerance", True, "$.report.suites[0].entries[0].tolerance: expected a number"),
    ("entry", "point", {"a": 1},
     "$.report.suites[0].entries[0].point: expected null or 4 arrays of numbers"),
    ("entry", "point", [[0.0], [1.0], [1.0]],
     "$.report.suites[0].entries[0].point: expected null or 4 arrays of numbers"),
    ("entry", "point", [[0.0], [1.0], [1.0], ["1"]],
     "$.report.suites[0].entries[0].point[3][0]: expected a number"),
    ("entry", "point", [[0.0], [1.0], [1.0], 1.0],
     "$.report.suites[0].entries[0].point[3]: expected an array"),
    ("entry", "note", 5, "$.report.suites[0].entries[0].note: expected a string"),
    ("entry", "name", None, "$.report.suites[0].entries[0].name: expected a string"),
    ("suite", "max_residual", None, "$.report.suites[0].max_residual: expected a number"),
    ("suite", "entries", {}, "$.report.suites[0].entries: expected an array"),
    ("suite", "as_expected", 1, "$.report.suites[0].as_expected: expected true or false"),
    ("engine", "points", "many", "$.report.engine.points: expected an integer"),
    ("engine", "seed", 3.0, "$.report.engine.seed: expected an integer"),
    ("report", "config", 7, "$.report.config: expected a string"),
    ("report", "suites", None, "$.report.suites: expected an array"),
    ("report", "engine", [], "$.report.engine: expected an object"),
    # Well typed, but a stored verdict that the record's fields contradict.
    ("entry", "residual", 1.0, "$.report.suites[0].entries[0].passed: true contradicts "
     "the report's fields, which give false"),
    ("entry", "passed", False, "$.report.suites[0].entries[0].passed: false contradicts "
     "the report's fields, which give true"),
    ("suite", "passed", False,
     "$.report.suites[0].passed: false contradicts the report's fields, which give true"),
    ("suite", "as_expected", False,
     "$.report.suites[0].as_expected: false contradicts the report's fields, which give true"),
    ("suite", "max_residual", math.nan,
     "$.report.suites[0].max_residual: NaN contradicts the report's fields, which give 0.0"),
])
def test_a_mistyped_field_of_a_stored_report_is_named(where, key, value, message):
    doc = _stored()
    node = {"report": doc["report"], "engine": doc["report"]["engine"],
            "suite": doc["report"]["suites"][0],
            "entry": doc["report"]["suites"][0]["entries"][0]}[where]
    node[key] = value
    with pytest.raises(SchemaError) as caught:
        report_from_document(doc)
    assert str(caught.value) == message
    del node[key]
    with pytest.raises(SchemaError, match=r"required key missing"):
        report_from_document(doc)


def test_the_records_derive_their_verdicts():
    nan = SuiteEntry("n", math.nan, 1.0)
    lower = SuiteEntry("w", 0.5, 0.0, None, "lower bound")
    informational = SuiteEntry("i", math.inf, None)
    assert (nan.passed, lower.passed, informational.passed) == (False, False, True)
    result = SuiteResult("s", True, (SuiteEntry("ok", 0.25, 1.0), nan))
    assert (result.passed, result.as_expected) == (False, True)
    assert math.isnan(result.max_residual)
    result = SuiteResult("s", False, ())
    assert (result.passed, result.as_expected, result.max_residual) == (True, True, 0.0)
    for record in (result, SuiteResult("s", False, (lower,))):
        assert {type(v) for v in (record.passed, record.as_expected)} == {bool}
        assert type(record.max_residual) is float


def test_a_stored_report_reads_back_as_floats():
    doc = _stored()
    suite = doc["report"]["suites"][0]
    suite["max_residual"] = 1
    suite["entries"][0].update(residual=1, tolerance=None, point=[[0], [1], [1], [1]])
    report = report_from_document(doc["report"])
    (read,) = report.suites[0].entries
    assert (read.residual, read.tolerance, read.point) == (1.0, None, _point(0.0, 1.0, 1.0, 1.0))
    assert type(read.residual) is float and type(read.point[0][0]) is float
    assert type(report.suites[0].max_residual) is float
    _assert_written_as_json_dumps(report)
