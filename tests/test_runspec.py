import json

import numpy as np
import pytest

from dwfinsler import PolyQuadraticWarp, fixture
from dwfinsler.errors import SchemaError
from dwfinsler.runspec import (ALL_SUITES, fixture_document, fixture_runspec,
                               parse_spec, sample_points)


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


def test_tolerance_overrides():
    spec = fixture_runspec("FIX-P", tolerances={"lemma41": 1e-3})
    assert spec.tolerance("lemma41") == 1e-3
    assert spec.tolerance("con1") == 1e-6


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


@pytest.mark.parametrize("doc, path", [
    (_bad_tolerance(1e-3, name="lemma4l"), r"\$\.tolerances\.lemma4l"),
    (_bad_tolerance(float("nan")), r"\$\.tolerances\.lemma41"),
    (_bad_tolerance("nan"), r"\$\.tolerances\.lemma41"),
    (_bad_tolerance(-1), r"\$\.tolerances\.lemma41"),
    (_bad_factor_dim(2.5), r"\$\.factors\[1\]\.dim"),
    (_bad_factor_dim("x"), r"\$\.factors\[1\]\.dim"),
    (_bad_warp("exponential", {"rate": 0.5, "axis": 2}), r"\$\.warps\.f2\.parameters\.axis"),
    (_bad_warp("exponential", {"rate": 0.5, "axis": -1}), r"\$\.warps\.f2\.parameters\.axis"),
    (_bad_warp("poly_quadratic", {"coeffs": [1.0]}), r"\$\.warps\.f2\.parameters\.coeffs"),
    (_bad_warp("poly_quadratic", {"coeffs": [1.0, 0.0, 2.0]}),
     r"\$\.warps\.f2\.parameters\.coeffs"),
], ids=["unknown-tolerance", "nan-tolerance", "string-tolerance", "negative-tolerance",
        "fractional-dim", "string-dim", "axis-out-of-range", "negative-axis",
        "short-coeffs", "long-coeffs"])
def test_malformed_documents_rejected_with_path(doc, path):
    with pytest.raises(SchemaError, match=path):
        parse_spec(doc)
