import functools
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dwfinsler
from dwfinsler import PolyQuadraticWarp, fixture
from dwfinsler.errors import SchemaError, SlitConditionError
from dwfinsler.metrics import TangentSample
from dwfinsler.runspec import (ALL_SUITES, DEFAULT_TOLERANCES, FIXTURES, MAX_POINTS, RunSpec,
                               fixture_document, fixture_runspec, parse_spec, sample_points)
from dwfinsler.suites import run_suites

from conftest import fresh_python


def test_fixture_document_round_trips():
    spec = parse_spec(json.dumps(fixture_document("FIX-1D")))
    cfg = spec.config
    assert cfg.n1 == cfg.n2 == 1
    assert isinstance(cfg.warp1, PolyQuadraticWarp)
    assert isinstance(cfg.warp2, PolyQuadraticWarp)
    assert cfg == fixture("FIX-1D")
    assert spec.suites == ALL_SUITES


def test_randers_norm_rule_rejected():
    doc = fixture_document("FIX-R")
    doc["factors"][1]["parameters"]["b"] = [1.2, 0.0]
    with pytest.raises(SchemaError, match="norm < 1"):
        parse_spec(doc)


def test_seed_is_mandatory():
    doc = fixture_document("FIX-P")
    del doc["sampling"]["seed"]
    with pytest.raises(SchemaError, match="seed"):
        parse_spec(doc)


def test_unknown_keys_rejected_with_path():
    doc = fixture_document("FIX-P")
    doc["sampling"]["extra"] = 1
    with pytest.raises(SchemaError, match=r"\$\.sampling\.extra"):
        parse_spec(doc)
    doc = fixture_document("FIX-P")
    doc["bogus"] = True
    with pytest.raises(SchemaError, match="bogus"):
        parse_spec(doc)


def test_sampling_bounds_validated():
    doc = fixture_document("FIX-P")
    doc["sampling"]["count"] = 0
    with pytest.raises(SchemaError, match="count"):
        parse_spec(doc)
    doc = fixture_document("FIX-P")
    doc["sampling"]["radii"] = [1e-9, 2.0]
    with pytest.raises(SchemaError, match="radii"):
        parse_spec(doc)
    doc = fixture_document("FIX-P")
    doc["sampling"]["box"] = [1.0, -1.0]
    with pytest.raises(SchemaError, match="box"):
        parse_spec(doc)


def test_per_coordinate_box():
    doc = fixture_document("FIX-P")
    doc["sampling"]["box"] = [[-1, 1], [-2, 2], [0, 1], [0.5, 0.5]]
    spec = parse_spec(doc)
    pts = sample_points(spec)
    for p in pts:
        assert -1 <= p.x[0] <= 1 and -2 <= p.x[1] <= 2
        assert 0 <= p.u[0] <= 1 and p.u[1] == pytest.approx(0.5)


def test_unknown_suite_rejected():
    doc = fixture_document("FIX-P")
    doc["suites"] = ["homogeneity", "definitely-not-a-suite"]
    with pytest.raises(SchemaError, match="unknown suite"):
        parse_spec(doc)
    doc = fixture_document("FIX-P")
    doc["expected_failures"] = ["nope"]
    with pytest.raises(SchemaError, match="unknown suite"):
        parse_spec(doc)


def test_sampling_is_deterministic_and_slit_safe():
    a = sample_points(fixture_runspec("FIX-R", seed=42, count=100))
    b = sample_points(fixture_runspec("FIX-R", seed=42, count=100))
    assert a == b  # bit-identical points
    assert len(a) == 100
    for p in a:
        assert np.linalg.norm(p.y) >= 1e-6
        assert np.linalg.norm(p.v) >= 1e-6
        assert 0.5 - 1e-12 <= np.linalg.norm(p.y) <= 2.0 + 1e-12
    c = sample_points(fixture_runspec("FIX-R", seed=43, count=100))
    assert a != c


def _per_point_samples(spec):
    """The sample as drawn point by point on Python floats, through the
    standard library's generator: the reference the array form of
    ``sample_points`` must match bit for bit."""
    cfg = spec.config
    rng = random.Random(spec.sampling.seed)
    r0, r1 = spec.sampling.radii
    out = []
    for _ in range(spec.sampling.count):
        base = [lo + (hi - lo) * rng.random() for lo, hi in spec.sampling.box]

        def fiber(dim):
            while True:
                direction = [rng.normalvariate(0.0, 1.0) for _ in range(dim)]
                norm = math.sqrt(functools.reduce(lambda s, t: s + t * t, direction, 0.0))
                if norm >= 1e-12:
                    break
            radius = r0 + (r1 - r0) * rng.random()
            return tuple(radius * t / norm for t in direction)

        y = fiber(cfg.n1)
        v = fiber(cfg.n2)
        out.append((tuple(base[:cfg.n1]), tuple(base[cfg.n1:]), y, v))
    return out


@pytest.mark.parametrize("n1", range(1, 7))
def test_sample_points_draws_as_the_per_point_loop(n1):
    for n2 in range(1, 7):
        n = n1 + n2
        boxes = ([-1.0, 1.0], [-1e3, 7.3],
                 [[-1e3 * (i + 1) / n, 7.3 * i] for i in range(n - 1)] + [[0.5, 0.5]])
        for seed, box, radii in [(0, boxes[0], [0.5, 2.0]), (7, boxes[1], [1e-6, 1e6]),
                                 (2 ** 64 - 1, boxes[2], [1e-6, 1e6]),
                                 (2024, boxes[2], [1.0, 1.0])]:
            doc = {"factors": [{"kind": "euclidean", "dim": n1},
                               {"kind": "euclidean", "dim": n2}],
                   "warps": {"f1": {"kind": "constant"}, "f2": {"kind": "constant"}},
                   "sampling": {"seed": seed, "count": 6, "box": box, "radii": radii}}
            spec = parse_spec(doc)
            got = [[[t.hex() for t in g] for g in (p.x, p.u, p.y, p.v)]
                   for p in sample_points(spec)]
            want = [[[float(t).hex() for t in g] for g in p] for p in _per_point_samples(spec)]
            assert got == want, (n1, n2, seed)


def test_no_run_imports_numpy_random():
    # The sample and the fd-crosscheck probes are drawn with the standard
    # library's generator, which numpy has already loaded: importing
    # numpy.random would cost a run some 16 modules and about 1.8 MB.
    code = ("import sys, dwfinsler\n"
            "from dwfinsler import cli\n"
            "dwfinsler.run_suites(dwfinsler.fixture_runspec('FIX-R', count=3))\n"
            "cli.main(['eval', '--fixture', 'FIX-1D', '--points', '1'])\n"
            "print('numpy.random' in sys.modules)\n")
    assert fresh_python(code).splitlines()[-1] == "False"


def test_no_module_names_numpy_random():
    # A lazy import inside a suite would only move the import's cost into the
    # battery's run time.
    for path in Path(dwfinsler.__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "np.random" not in text and "numpy.random" not in text, path.name


@pytest.mark.parametrize("name", ["FIX-R", "FIX-1D"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_samples_from_rows_equal_the_checked_constructor(name, seed):
    # sample_points builds its samples from float rows without the per-entry
    # conversion; each must be the sample the public constructor makes.
    for p in sample_points(fixture_runspec(name, seed=seed)):
        want = TangentSample(p.x, p.u, p.y, p.v)
        assert p == want and hash(p) == hash(want)
        for got, ref in zip((p.x, p.u, p.y, p.v), (want.x, want.u, want.y, want.v)):
            assert type(got) is tuple and [t.hex() for t in got] == [t.hex() for t in ref]


def test_samples_from_rows_keep_the_slit_check():
    # Rows are x, u, y, v with n1 = n2 = 2.  A fiber whose entries are all
    # below SLIT_FLOOR is checked by its norm: 8.5e-13 fails, 1.13e-12 passes.
    ok = [0.1, 0.2, 0.3, 0.4, 1.0, 0.5, -0.5, 2.0]
    assert len(TangentSample._of_rows(np.array([ok, ok[:4] + [8e-13, 8e-13, 1.0, 0.0]]),
                                      2, 2)) == 2
    for bad in (ok[:4] + [6e-13, 6e-13, 1.0, 0.0], ok[:4] + [1.0, 0.0, -0.0, 1e-13]):
        with pytest.raises(SlitConditionError):
            TangentSample._of_rows(np.array([ok, bad]), 2, 2)
        with pytest.raises(SlitConditionError):
            TangentSample(bad[:2], bad[2:4], bad[4:6], bad[6:])


def test_tolerance_overrides():
    spec = fixture_runspec("FIX-P", tolerances={"lemma41": 1e-3})
    assert spec.tolerance("lemma41") == 1e-3
    assert spec.tolerance("con1") == 1e-6


def test_every_default_tolerance_is_read_by_the_battery(monkeypatch):
    # A registry key that no entry reads is dead: the full battery on FIX-R
    # and FIX-1D reads every key, and no name outside the registry.
    read = set()
    real = RunSpec.tolerance

    def recording(self, name):
        read.add(name)
        return real(self, name)

    monkeypatch.setattr(RunSpec, "tolerance", recording)
    for name in ("FIX-R", "FIX-1D"):
        run_suites(fixture_runspec(name))
    assert read == set(DEFAULT_TOLERANCES)


def _bad_tolerance(value, name="lemma41"):
    doc = fixture_document("FIX-P")
    doc["tolerances"] = {name: value}
    return doc


def _bad_factor_dim(dim):
    doc = fixture_document("FIX-P")
    doc["factors"][1]["dim"] = dim
    return doc


def _bad_warp(kind, parameters):
    doc = fixture_document("FIX-E")
    doc["warps"]["f2"] = {"kind": kind, "parameters": parameters}
    return doc


def _replace(doc, keys, value):
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return doc


def _bad_leaf(name, *keys_and_value):
    *keys, value = keys_and_value
    return _replace(fixture_document(name), keys, value)


def _quadratic(coefficient, exponent):
    return {"kind": "riemannian_quadratic", "dim": 1,
            "parameters": {"entries": [[[[coefficient, [exponent]]]]]}}


_ONE = [[1.0, [0, 0]]]


def _randers_base(base):
    """FIX-R with its Randers factor's b = (1.2, 0) over ``base``."""
    return _bad_leaf("FIX-R", "factors", 1, "parameters", {"b": [1.2, 0.0], "base": base})


def _quadratic_entries(entries):
    return {"kind": "riemannian_quadratic", "parameters": {"entries": entries}}


@pytest.mark.parametrize("doc, path", [
    (_bad_tolerance(1e-3, name="lemma4l"), r"\$\.tolerances\.lemma4l"),
    (_bad_tolerance(0.0, name="hermitian.complex-square"),
     r"\$\.tolerances\.hermitian\.complex-square: unknown tolerance name"),
    (_bad_tolerance(float("nan")), r"\$\.tolerances\.lemma41"),
    (_bad_tolerance("nan"), r"\$\.tolerances\.lemma41"),
    (_bad_tolerance(-1), r"\$\.tolerances\.lemma41"),
    (_bad_factor_dim(2.5), r"\$\.factors\[1\]\.dim"),
    (_bad_factor_dim("x"), r"\$\.factors\[1\]\.dim"),
    (_bad_factor_dim(7), r"\$\.factors\[1\]\.dim"),
    (_bad_warp("exponential", {"rate": 0.5, "axis": 2}), r"\$\.warps\.f2\.parameters\.axis"),
    (_bad_warp("exponential", {"rate": 0.5, "axis": -1}), r"\$\.warps\.f2\.parameters\.axis"),
    (_bad_warp("poly_quadratic", {"coeffs": [1.0]}), r"\$\.warps\.f2\.parameters\.coeffs"),
    (_bad_warp("poly_quadratic", {"coeffs": [1.0, 0.0, 2.0]}),
     r"\$\.warps\.f2\.parameters\.coeffs"),
    (_bad_leaf("FIX-P", "sampling", "count", "x"), r"\$\.sampling\.count"),
    (_bad_leaf("FIX-P", "sampling", "count", None), r"\$\.sampling\.count"),
    (_bad_leaf("FIX-P", "sampling", "count", 2.7), r"\$\.sampling\.count"),
    (_bad_leaf("FIX-P", "sampling", "count", True), r"\$\.sampling\.count"),
    (_bad_leaf("FIX-P", "sampling", "count", MAX_POINTS + 1), r"\$\.sampling\.count"),
    (_bad_leaf("FIX-P", "sampling", "count", 2 ** 62), r"\$\.sampling\.count"),
    (_bad_leaf("FIX-P", "sampling", "count", 2 ** 70), r"\$\.sampling\.count"),
    (_bad_leaf("FIX-P", "sampling", "radii", ["a", 2.0]), r"\$\.sampling\.radii"),
    (_bad_leaf("FIX-1D", "sampling", "box", [-1.0, "b"]), r"\$\.sampling\.box"),
    (_bad_leaf("FIX-1D", "sampling", "box", [[-1, 1], [0, None]]), r"\$\.sampling\.box"),
    (_bad_leaf("FIX-1D", "sampling", "box", [-1.7e308, 1.7e308]), r"\$\.sampling\.box"),
    (_bad_leaf("FIX-P", "suites", None), r"\$\.suites"),
    (_bad_leaf("FIX-P", "suites", [1]), r"\$\.suites"),
    (_bad_leaf("FIX-P", "expected_failures", 5), r"\$\.expected_failures"),
    (_bad_leaf("FIX-P", "label", None), r"\$\.label: expected a string"),
    (_bad_leaf("FIX-P", "label", {"a": 1}), r"\$\.label: expected a string"),
    (_bad_leaf("FIX-1D", "factors", 0, _quadratic("c", 0)),
     r"\$\.factors\[0\]\.parameters\.entries\[0\]\[0\]"),
    (_bad_leaf("FIX-1D", "factors", 0, _quadratic(1.0, "e")),
     r"\$\.factors\[0\]\.parameters\.entries\[0\]\[0\]"),
    (_bad_leaf("FIX-R", "factors", 1, "parameters", "b", ["x", 0.0]),
     r"\$\.factors\[1\]\.parameters\.b"),
    (_bad_leaf("FIX-E", "factors", 0,
               {"dim": 2, **_quadratic_entries([[_ONE, [[0.5, [0, 0]]]], [[], _ONE]])}),
     r"\$\.factors\[0\]: entry matrix must be symmetric"),
    (_randers_base(_quadratic_entries([[_ONE, []], [[], _ONE]])),
     r"\$\.factors\[1\]: .*norm < 1"),
    (_randers_base(_quadratic_entries([[[[1.0, [2, 0]]], []], [[], _ONE]])),
     r"\$\.factors\[1\]: singular"),
    (_randers_base({"kind": "randers", "parameters": {"b": [0.1, 0.0]}}),
     r"\$\.factors\[1\]: Randers base must be Riemannian"),
    (b'{"label": "\xff"}', "not valid JSON"),
    (_bad_warp("constant", {"value": -1.0}), r"\$\.warps\.f2: constant warp must be positive"),
    (_bad_warp("poly_quadratic", {"coeffs": [1.0, -0.5]}),
     r"\$\.warps\.f2: poly-quadratic warp coefficients must be finite and >= 0"),
], ids=["unknown-tolerance", "deleted-tolerance", "nan-tolerance", "string-tolerance", "negative-tolerance",
        "fractional-dim", "string-dim", "dim-over-cap", "axis-out-of-range", "negative-axis",
        "short-coeffs", "long-coeffs", "string-count", "null-count", "fractional-count",
        "bool-count", "count-over-cap", "count-2-62", "count-2-70", "string-radius",
        "string-box-bound", "null-box-pair-bound", "overflowing-box-width",
        "null-suites", "non-string-suite", "number-expected-failures", "null-label",
        "object-label",
        "string-quadratic-coefficient", "string-quadratic-exponent", "string-randers-b",
        "asymmetric-quadratic", "randers-norm-over-quadratic-base",
        "randers-over-singular-base", "randers-over-randers-base", "undecodable-bytes",
        "negative-constant-warp", "negative-coefficient"])
def test_malformed_documents_rejected_with_path(doc, path):
    with pytest.raises(SchemaError, match=path):
        parse_spec(doc)


def _paths(node, path=()):
    """Every position below the root of a JSON tree, as key paths."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=8), kids,
                                                              max_size=3),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(FIXTURES)), pick=st.integers(min_value=0),
       value=_JSON)
def test_any_replaced_value_parses_or_raises_a_package_error(name, pick, value):
    paths = list(_paths(fixture_document(name)))
    doc = _replace(fixture_document(name), paths[pick % len(paths)], value)
    try:
        parse_spec(doc)
    except SchemaError:
        pass


def test_overrides_apply_to_a_copy_of_the_document():
    doc = fixture_document("FIX-P")
    doc["tolerances"] = {"con1": 1e-5}
    before = json.dumps(doc, sort_keys=True)
    spec = parse_spec(doc, seed=5, count=3, suites=["yF=G"], tolerances={"lemma41": 1e-3})
    assert json.dumps(doc, sort_keys=True) == before
    assert (spec.sampling.seed, spec.sampling.count, spec.suites) == (5, 3, ("yF=G",))
    assert spec.tolerances == {"con1": 1e-5, "lemma41": 1e-3}  # merged by name
    del doc["sampling"]
    assert parse_spec(doc, seed=5).sampling.seed == 5  # sampling made where absent
    assert "sampling" not in doc
    with pytest.raises(SchemaError, match=r"\$\.sampling\.seed"):
        parse_spec(fixture_document("FIX-P"), seed=-1)
    with pytest.raises(SchemaError, match=r"\$\.sampling\.count"):
        parse_spec(fixture_document("FIX-P"), count=MAX_POINTS + 1)
    assert parse_spec(fixture_document("FIX-P"), count=MAX_POINTS).sampling.count == MAX_POINTS


@pytest.mark.parametrize("doc, overrides, path", [
    ([], {"seed": 3}, r"\$: expected an object"),
    (_bad_leaf("FIX-P", "sampling", []), {"seed": 3}, r"\$\.sampling: expected an object"),
    (_bad_leaf("FIX-P", "tolerances", []), {"tolerances": {"lemma41": 1e-3}},
     r"\$\.tolerances: expected an object"),
], ids=["array-document", "array-sampling", "array-tolerances"])
def test_an_override_leaves_a_node_that_is_not_an_object_to_validation(doc, overrides, path):
    with pytest.raises(SchemaError, match=path):
        parse_spec(doc, **overrides)


def test_an_unknown_fixture_is_a_schema_error():
    for read in (fixture, fixture_document, fixture_runspec):
        with pytest.raises(SchemaError, match="unknown fixture 'NOPE'"):
            read("NOPE")
