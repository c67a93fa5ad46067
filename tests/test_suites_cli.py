import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dwfinsler import closed_forms, fixture, suites
from dwfinsler.blocks import max_abs
from dwfinsler.cli import main, report_from_document
from dwfinsler.engine import LIFT_ORDER, EnginePoint, workspace
from dwfinsler.errors import UnknownSuiteError
from dwfinsler.runspec import (MAX_POINTS, fixture_document, fixture_runspec,
                               sample_points)
from dwfinsler.report import report_document
from dwfinsler.suites import _entry, _Entries, _point_doc, _Tracker, emit_report, run_suites


@pytest.fixture(scope="module")
def small_p_report():
    return run_suites(fixture_runspec("FIX-P", seed=3, count=4))


def test_all_suites_pass_on_product(small_p_report):
    rep = small_p_report
    assert rep.ok
    for s in rep.suites:
        assert s.as_expected, s.name
        for e in s.entries:
            if e.tolerance is not None:
                assert e.residual <= e.tolerance, (s.name, e.name)


def test_suite_independence():
    together = run_suites(fixture_runspec("FIX-E", seed=5, count=3,
                                          suites=("lemma41", "yF=G")))
    alone = run_suites(fixture_runspec("FIX-E", seed=5, count=3,
                                       suites=("lemma41",)))
    combined = {(s.name, e.name): e.residual
                for s in together.suites for e in s.entries}
    for s in alone.suites:
        for e in s.entries:
            assert combined[(s.name, e.name)] == e.residual


def test_expected_failure_is_success():
    spec = fixture_runspec("FIX-R", seed=9, count=4)
    assert "reinhart" in spec.expected_failures
    rep = run_suites(spec)
    assert rep.ok
    reinhart = next(s for s in rep.suites if s.name == "reinhart")
    assert not reinhart.passed and reinhart.expected_failure and reinhart.as_expected
    witness = next(e for e in reinhart.entries if not e.passed)
    assert witness.point is not None
    assert "vertical" in witness.note


def test_unexpected_pass_flags_failure():
    spec = fixture_runspec("FIX-P", seed=3, count=2, suites=("lemma41",))
    spec = type(spec)(spec.label, spec.config, spec.sampling, spec.suites,
                      ("lemma41",), spec.tolerances)
    rep = run_suites(spec)
    assert not rep.ok  # the declared failure did not happen


def test_empty_suite_list_passes():
    rep = run_suites(fixture_runspec("FIX-P", seed=3, count=1, suites=()))
    assert rep.ok
    assert rep.suites == ()


def test_unknown_suite_errors_before_computation():
    spec = fixture_runspec("FIX-P", seed=3, count=1)
    bad = type(spec)(spec.label, spec.config, spec.sampling,
                     ("homogeneity", "nope"), (), {})
    with pytest.raises(UnknownSuiteError):
        run_suites(bad)


def test_report_json_round_trip(small_p_report):
    doc = report_document(small_p_report)
    clone = report_from_document(json.loads(json.dumps(doc, sort_keys=True)))
    assert report_document(clone) == doc
    emitted = emit_report(small_p_report, "json")
    assert report_document(report_from_document(json.loads(emitted))) == doc
    with pytest.raises(ValueError):
        emit_report(small_p_report, "html")


def test_report_text_shape(small_p_report):
    text = emit_report(small_p_report, "text")
    lines = text.splitlines()
    for s in small_p_report.suites:
        assert sum(line.startswith(s.name) for line in lines) == 1
    assert "result: OK" in text


def test_report_text_carries_witness():
    rep = run_suites(fixture_runspec("FIX-R", seed=9, count=4,
                                     suites=("reinhart",)))
    text = emit_report(rep, "text")
    assert "transversal-parallelism" in text
    assert "at point" in text


def test_verify_json_writes_json_dumps_of_its_document(tmp_path):
    # The file is composed of json.dumps of its meta section and the report's
    # writer; it reads as json.dumps(doc, sort_keys=True, indent=2) would write it.
    spec = fixture_runspec("FIX-R", seed=9, count=4)
    path = tmp_path / "report.json"
    assert main(["verify", "--fixture", "FIX-R", "--seed", "9", "--points", "4",
                 "--json", str(path)]) == 0
    text = path.read_text(encoding="utf-8")
    doc = {"meta": json.loads(text)["meta"], "report": report_document(run_suites(spec))}
    assert sorted(doc["meta"]) == ["generated_at", "tool", "version"]
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_end_to_end_determinism(tmp_path):
    docs = []
    for i in (1, 2):
        path = tmp_path / f"report{i}.json"
        code = main(["verify", "--fixture", "FIX-1D", "--seed", "42",
                     "--points", "4", "--json", str(path)])
        assert code == 0
        docs.append(json.load(open(path)))
    assert json.dumps(docs[0]["report"], sort_keys=True) == \
        json.dumps(docs[1]["report"], sort_keys=True)


def test_cli_eval_and_fixtures(capsys):
    assert main(["fixtures"]) == 0
    out = capsys.readouterr().out
    assert "FIX-R" in out and "doubly-warped" in out
    code = main(["eval", "--fixture", "FIX-1D",
                 "--point", "x=0;u=1;y=1;v=1", "--tensor", "spray",
                 "--tensor", "F2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    ev = doc["evaluations"][0]["tensors"]
    assert ev["spray"] == [0.5, -0.5]
    assert ev["F2"] == 3.0


def test_cli_report_rerender(tmp_path, capsys):
    path = tmp_path / "rep.json"
    assert main(["verify", "--fixture", "FIX-P", "--points", "2",
                 "--suite", "yF=G", "--json", str(path)]) == 0
    capsys.readouterr()
    assert main(["report", "--json", str(path)]) == 0
    assert "yF=G" in capsys.readouterr().out


def test_cli_tolerance_override_can_fail(capsys):
    code = main(["verify", "--fixture", "FIX-E", "--points", "2",
                 "--suite", "lemma41", "--tol", "lemma41=1e-30"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_custom_spec_document(tmp_path, capsys):
    # quadratic first factor (entries 1 + x0^2/2 and 1), exponential warp
    one = [[1.0, [0, 0]]]
    bumped = [[1.0, [0, 0]], [0.5, [2, 0]]]
    doc = {
        "label": "quad-exp",
        "factors": [
            {"kind": "riemannian_quadratic", "dim": 2,
             "parameters": {"entries": [[bumped, []], [[], one]]}},
            {"kind": "euclidean", "dim": 2},
        ],
        "warps": {
            "f1": {"kind": "constant", "parameters": {"value": 1.5}},
            "f2": {"kind": "exponential", "parameters": {"rate": 0.25}},
        },
        "sampling": {"seed": 11, "count": 4},
        "suites": ["homogeneity", "block-structure", "yF=G", "lemma41",
                   "vaisman-axioms", "con1"],
    }
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--spec", str(path)]) == 0
    out = capsys.readouterr().out
    assert "quad-exp" in out and "result: OK" in out


def test_cli_usage_errors(capsys, tmp_path):
    assert main(["verify"]) == 2  # neither --spec nor --fixture
    assert main(["verify", "--fixture", "NOPE"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"factors": []}))
    assert main(["verify", "--spec", str(bad)]) == 2
    doc = fixture_document("FIX-P")
    doc["sampling"]["seed"] = "not-an-int"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "--spec", str(bad)]) == 2
    assert main(["eval", "--fixture", "FIX-1D", "--point", "x=0;u=1;y=1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("point, message", [
    ("x=a,0;u=0,0;y=1,0;v=0,1", "--point x: expected numbers"),
    ("x=0,0;u=0,0;y=1,0;v=nan,1", "--point v: coordinates must be finite"),
    ("x=0,0;u=inf,0;y=1,0;v=0,1", "--point u: coordinates must be finite"),
])
def test_cli_rejects_a_point_that_is_not_finite_numbers(point, message, capsys):
    assert main(["eval", "--fixture", "FIX-R", "--point", point]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out


@pytest.mark.parametrize("fixture_name, point, name", [
    ("FIX-R", "x=1e200,0;u=0,0;y=1,0;v=0,1", "F2"),  # the warp 1 + x0^2 overflows
    ("FIX-1D", "x=1e160;u=0;y=1;v=1", "g"),
])
def test_cli_eval_rejects_a_tensor_that_is_not_finite(fixture_name, point, name, capsys):
    # JSON has no number for inf or NaN: eval fails with exit 2 instead of
    # printing a bare Infinity, and names the tensor and the point.  The
    # error line is all it prints: numpy warns of no overflow on the way.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["eval", "--fixture", fixture_name, "--point", point,
                     "--tensor", name]) == 2
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert not captured.out
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: --tensor {name} is not finite at x=1e+")


def test_tracker_fails_closed_on_nan():
    spec = fixture_runspec("FIX-P", seed=3, count=1)
    for bad in (float("nan"), float("inf")):
        tr = _Tracker()
        tr.feed(bad, None, "bad")
        tr.feed(1e-30, None, "fine")
        entry = _entry(spec, "lemma41", "fiber-contraction", tr)
        assert entry.passed is False
        assert entry.note == "bad"


def test_an_entry_keeps_the_tolerance_and_bound_of_its_first_feed():
    spec = fixture_runspec("FIX-R", seed=3, count=1)
    entries = _Entries(spec, "matsumoto-contraction")
    entries.feed("total-fiber-contraction", [1e-11], [None], "matsumoto-contraction.total")
    entries.feed("witness-nonzero", [0.5], [None], "matsumoto-contraction.witness",
                 lower="lower bound")
    entries.feed("witness-nonzero", [0.25], [None], "matsumoto-contraction.witness",
                 lower="lower bound")
    for tol, lower in ((None, None), ("matsumoto-contraction.witness", None),
                       ("matsumoto-contraction", "lower bound"),
                       ("matsumoto-contraction.witness", "another bound")):
        with pytest.raises(ValueError, match="witness-nonzero"):
            entries.feed("witness-nonzero", [1.0], [None], tol, lower=lower)
    with pytest.raises(ValueError, match="total-fiber-contraction"):
        entries.feed("total-fiber-contraction", [1e-11], [None])
    total, witness = entries.entries()
    assert (total.name, total.residual, total.tolerance, total.passed) == (
        "total-fiber-contraction", 1e-11, 1e-10, True)
    # A lower bound reports the margin below its threshold, which is met.
    assert (witness.name, witness.residual, witness.tolerance, witness.passed, witness.note) == (
        "witness-nonzero", 1e-4 - 0.5, 0.0, True, "lower bound")


_TRACKED = st.sampled_from([0.0, -0.0, 1e-300, 1.0, -1.0, 2.0, -2.0, math.inf, -math.inf,
                            math.nan])


@settings(max_examples=300, deadline=None)
@given(prior=st.lists(_TRACKED, max_size=3),
       values=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=4),
                         elements=_TRACKED),
       described=st.booleans())
def test_feed_all_equals_sequential_feed(prior, values, described):
    # The array feed keeps the worst value and witness that feeding every
    # entry in C order would: the last of a tie, the first NaN, and inf.
    # Without ``describe`` the witness sample alone tells the entries apart.
    points = [f"sample {k}" for k in range(values.shape[0])]
    one, many = _Tracker(), _Tracker()
    for tr in (one, many):
        for v in prior:
            tr.feed(v, "before", "before")
    for index in np.ndindex(values.shape):
        one.feed(values[index], points[index[0]], str(index) if described else "")
    many.feed_all(values, points, (lambda *index: str(index)) if described else None)
    assert (one.point, one.note) == (many.point, many.note)
    assert one.value == many.value or (math.isnan(one.value) and math.isnan(many.value))


@settings(max_examples=300, deadline=None)
@given(prior=st.lists(_TRACKED, max_size=3), samples=st.integers(1, 4),
       tails=st.lists(hnp.array_shapes(min_dims=0, max_dims=2, max_side=3), min_size=1,
                      max_size=3),
       data=st.data())
def test_a_tuple_feeds_as_the_largest_of_its_per_sample_maxima(prior, samples, tails, data):
    # Tensors fed as a tuple are joined sample by sample: the entry keeps the
    # value bits and the witness of feeding np.maximum of their per-sample
    # maxima, with NaN at any position, infinities, signed zeros and ties.
    parts = tuple(data.draw(hnp.arrays(np.float64, (samples,) + tail, elements=_TRACKED))
                  for tail in tails)
    points = [f"sample {k}" for k in range(samples)]
    spec = fixture_runspec("FIX-P", seed=3, count=1)
    joined, reduced = _Entries(spec, "lemma41"), _Entries(spec, "lemma41")
    for out in (joined, reduced):
        for v in prior:
            out.feed("pair-antisymmetry", [v], ["before"])
    joined.feed("pair-antisymmetry", parts, points)
    maxima = [max_abs(part, (samples,)) for part in parts]
    reduced.feed("pair-antisymmetry", np.maximum.reduce(maxima), points)
    ((one, _, _),), ((other, _, _),) = joined._fed.values(), reduced._fed.values()
    assert one.point == other.point
    assert np.float64(one.value).tobytes() == np.float64(other.value).tobytes()


def test_every_tracked_entry_names_a_sampled_witness(reports):
    # Only skipped entries have no sample to name.
    for name, report in reports.items():
        sampled = [_point_doc(p) for p in sample_points(fixture_runspec(name))]
        for s in report.suites:
            for e in s.entries:
                if e.tolerance is None:
                    continue
                assert e.point in sampled, (name, s.name, e.name, e.point)


def test_a_suite_named_twice_is_reported_twice(monkeypatch):
    # Two samples per strip, so fd-crosscheck's three samples span two strips.
    import dwfinsler.engine as engine
    monkeypatch.setattr(engine, "STRIP_COEFFICIENTS", 1000)
    spec = fixture_runspec("FIX-R", count=4,
                           suites=("fd-crosscheck", "kahler", "fd-crosscheck", "kahler"))
    doc = report_document(run_suites(spec))
    assert [s["name"] for s in doc["suites"]] == list(spec.suites)
    assert doc["suites"][:2] == doc["suites"][2:]


def test_nan_residual_reaches_max_residual(monkeypatch):
    def stand_in(out, wp):
        out.feed("fine", [1e-12], [None])
        out.feed("contraction", [float("nan")], wp.samples[:1])

    monkeypatch.setitem(suites.SUITES, "yF=G", stand_in)
    rep = run_suites(fixture_runspec("FIX-1D", seed=3, count=1, suites=("yF=G",)))
    (result,) = rep.suites
    assert math.isnan(result.max_residual)
    assert not result.passed and not result.as_expected and not rep.ok


@pytest.mark.parametrize("suite, accessor", [
    ("kahler", "bracket_curvature_values"),
    ("totally-geodesic", "cartan"),
    ("hermitian", "nonlinear_connection_values"),
    ("vaisman-axioms", "cartan"),
    ("yF=G", "horizontal_values"),
    ("lemma41", "hh_curvature"),
    ("berwald-blocks", "berwald"),
    ("block-structure", "angular"),
    ("con1", "hh_curvature"),
    ("closed-form-blocks", "spray_values"),
])
def test_nan_at_one_sample_fails_the_suite(suite, accessor, monkeypatch):
    # A product tensor of the battery's strip that is NaN at its second sample
    # only: a NaN that is not the first value of a maximum must still reach
    # the verdict.
    spec = fixture_runspec("FIX-E", count=20, suites=(suite,))
    real = getattr(EnginePoint, accessor)
    ws = workspace(fixture("FIX-E"))

    def poisoned(self):
        out = real(self)
        if self.engine is ws.product and self.order == LIFT_ORDER and self.lead:
            out = out.copy()
            out[1] = np.nan
        return out

    ws.clear()
    monkeypatch.setattr(EnginePoint, accessor, poisoned)
    try:
        rep = run_suites(spec)
        (strip,) = ws.strips(sample_points(spec))
    finally:
        ws.clear()  # drop every value built on the poisoned accessor
    assert strip.samples == tuple(sample_points(spec))
    (result,) = rep.suites
    assert not result.passed and not rep.ok


def test_a_nan_in_the_matsumoto_closed_form_fails_the_witness(monkeypatch):
    # The witness-nonzero entry takes the smaller of max|lhs| and max|rhs| at
    # each sample; a NaN on the closed-form side must fail it, not be dropped
    # as Python's min(1.0, nan) == 1.0 would.
    real = closed_forms.matsumoto_contraction_rhs

    def poisoned(wp):
        out = real(wp).copy()
        out[1] = np.nan  # the second sample of the strip
        return out

    monkeypatch.setattr(closed_forms, "matsumoto_contraction_rhs", poisoned)
    rep = run_suites(fixture_runspec("FIX-R", count=4, suites=("matsumoto-contraction",)))
    (result,) = rep.suites
    witness = next(e for e in result.entries if e.name == "witness-nonzero")
    assert not witness.passed and math.isnan(witness.residual)
    assert not rep.ok


def test_cli_rejects_malformed_tolerances_and_warps(tmp_path, capsys):
    assert main(["verify", "--fixture", "FIX-1D", "--tol", "lemma4l=1e-3"]) == 2
    assert main(["verify", "--fixture", "FIX-1D", "--tol", "lemma41=abc"]) == 2
    doc = fixture_document("FIX-E")
    doc["warps"]["f1"] = {"kind": "exponential", "parameters": {"rate": 0.5, "axis": 2}}
    bad = tmp_path / "axis.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "--spec", str(bad)]) == 2
    assert "$.warps.f1.parameters.axis" in capsys.readouterr().err


def _fixture_with(key, value):
    doc = fixture_document("FIX-P")
    doc[key] = value
    return json.dumps(doc).encode()


def _report_with(where, key, value, **also):
    """A stored FIX-P report, as ``verify --json`` writes it, with one field
    replaced, and the fields ``also`` of the same object."""
    doc = report_document(run_suites(fixture_runspec("FIX-P", count=1, suites=("yF=G",))))
    suite = doc["suites"][0]
    node = {"engine": doc["engine"], "suite": suite, "entry": suite["entries"][0]}[where]
    node[key] = value
    node.update(also)
    return json.dumps({"meta": {"tool": "dwfinsler"}, "report": doc}).encode()


_MISTYPED_REPORTS = {
    "passed-yes": _report_with("entry", "passed", "yes"),
    "residual-abc": _report_with("entry", "residual", "abc"),
    "point-object": _report_with("entry", "point", {"a": 1}),
    "points-many": _report_with("engine", "points", "many"),
    "note-5": _report_with("entry", "note", 5),
    "max-residual-null": _report_with("suite", "max_residual", None),
    # Well typed, but a verdict that its own fields contradict.
    "residual-over-tolerance": _report_with("entry", "residual", 1.0),
    "entry-failed-within-tolerance": _report_with("entry", "passed", False),
    "informational-entry-failed": _report_with("entry", "tolerance", None, passed=False),
    "lower-bound-passed-above-zero": _report_with("entry", "tolerance", 0.0, residual=0.5),
    "suite-failed-with-passing-entries": _report_with("suite", "passed", False),
    "suite-not-as-expected": _report_with("suite", "as_expected", False),
    "max-residual-not-the-maximum": _report_with("suite", "max_residual", 1.0),
    "max-residual-nan": _report_with("suite", "max_residual", math.nan),
}


@pytest.mark.parametrize("command, content, flags", [
    ("verify", b"{not json", []),
    ("verify", b'{"label": "\xff"}', []),
    ("verify", b"[" * 100000, []),
    ("verify", b"[]", ["--seed", "3"]),
    ("verify", _fixture_with("sampling", []), ["--seed", "3"]),
    ("verify", _fixture_with("tolerances", []), ["--tol", "lemma41=1e-3"]),
    ("verify", _fixture_with("sampling", {"seed": 3, "count": MAX_POINTS + 1}), []),
    ("verify", _fixture_with("sampling", {"seed": 3}), ["--points", str(2 ** 62)]),
    ("verify", _fixture_with("label", None), []),
    ("verify", _fixture_with("label", {"a": 1}), []),
    ("report", b"{not json", []),
    ("report", b'{"config": "\xff"}', []),
    ("report", b"[" * 100000, []),
    ("report", b'{"suites": []}', []),
    *(("report", content, ["--format", fmt])
      for content in _MISTYPED_REPORTS.values() for fmt in ("text", "json")),
], ids=["spec-not-json", "spec-not-utf8", "spec-too-deep", "spec-array-with-seed",
        "spec-sampling-array-with-seed", "spec-tolerances-array-with-tol",
        "spec-count-over-cap", "spec-points-2-62", "spec-null-label", "spec-object-label",
        "report-not-json", "report-not-utf8", "report-too-deep", "report-without-engine",
        *(f"report-{name}-{fmt}" for name in _MISTYPED_REPORTS for fmt in ("text", "json"))])
def test_cli_rejects_a_malformed_file_with_one_error_line(command, content, flags,
                                                          tmp_path, capsys):
    path = tmp_path / "file.json"
    path.write_bytes(content)
    option = "--spec" if command == "verify" else "--json"
    assert main([command, option, str(path)] + flags) == 2
    captured = capsys.readouterr()
    assert not captured.out
    (line,) = captured.err.splitlines()
    assert line.startswith("error:")


def test_a_stored_report_with_a_nan_residual_reads_back():
    # A NaN residual fails its entry and its suite, and is the suite's
    # maximum: the verdicts the writer derives, so the reader accepts them.
    doc = json.loads(_report_with("entry", "residual", math.nan, passed=False))["report"]
    doc["suites"][0].update(passed=False, as_expected=False, max_residual=math.nan)
    report = report_from_document(doc)
    assert not report.ok and math.isnan(report.suites[0].max_residual)


def test_cli_rejects_a_factor_dim_over_the_cap(tmp_path, capsys):
    doc = fixture_document("FIX-P")
    doc["factors"][1]["dim"] = 7
    bad = tmp_path / "dim.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "--spec", str(bad)]) == 2
    assert "$.factors[1].dim" in capsys.readouterr().err


def test_cli_quadratic_overflow_is_a_definition_error(tmp_path, capsys):
    # x0^100000 overflows a float anywhere in the box [1.5, 2.0].
    one = [[1.0, [0, 0]]]
    huge = [[1.0, [100000, 0]]]
    doc = {
        "label": "quad-overflow",
        "factors": [
            {"kind": "riemannian_quadratic", "dim": 2,
             "parameters": {"entries": [[huge, []], [[], one]]}},
            {"kind": "euclidean", "dim": 2},
        ],
        "warps": {
            "f1": {"kind": "constant", "parameters": {"value": 1.0}},
            "f2": {"kind": "constant", "parameters": {"value": 1.0}},
        },
        "sampling": {"seed": 3, "count": 2, "box": [1.5, 2.0]},
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--spec", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_exponential_overflow_is_a_domain_error(tmp_path, capsys):
    # exp(2000 x0) overflows a float for x0 > 0.355, inside the default box.
    doc = {
        "label": "exp-overflow",
        "factors": [{"kind": "euclidean", "dim": 1}, {"kind": "euclidean", "dim": 1}],
        "warps": {
            "f1": {"kind": "exponential", "parameters": {"rate": 1000.0}},
            "f2": {"kind": "constant", "parameters": {"value": 1.0}},
        },
        "sampling": {"seed": 1, "count": 3},
    }
    path = tmp_path / "exp-overflow.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exp overflows" in err
    assert err.count("\n") == 1 and "Traceback" not in err


_EUCLID1 = {"kind": "euclidean", "dim": 1}
_WIDE = {"seed": 1, "count": 3, "box": [-1e200, 1e200]}


@pytest.mark.parametrize("doc, message", [
    # (1e200)^2 overflows a float: f1^2 = 1 + x0^2 at a sampled point ...
    ({"factors": [_EUCLID1, _EUCLID1],
      "warps": {"f1": {"kind": "poly_quadratic", "parameters": {"coeffs": [1.0]}},
                "f2": {"kind": "constant"}},
      "sampling": _WIDE}, "poly-quadratic warp f^2 overflows"),
    # ... or the square of a constant warp, whatever the point.
    ({"factors": [_EUCLID1, _EUCLID1],
      "warps": {"f1": {"kind": "constant", "parameters": {"value": 1e200}},
                "f2": {"kind": "constant"}},
      "sampling": {"seed": 1, "count": 3}}, "$.warps.f1: constant warp"),
    ({"factors": fixture_document("FIX-R")["factors"],
      "warps": fixture_document("FIX-R")["warps"],
      "sampling": _WIDE}, "poly-quadratic warp f^2 overflows"),
], ids=["poly-quadratic", "constant", "FIX-R"])
def test_cli_warp_overflow_is_one_error_line(tmp_path, capsys, doc, message):
    path = tmp_path / "warp-overflow.json"
    path.write_text(json.dumps({"label": "warp-overflow", **doc}))
    assert main(["verify", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
