"""The JSON report of a given document is byte-stable: its sha256 is pinned.

A change that moves any residual, witness or note by one bit changes these
digests.  They were made before the battery ran its sample points as batches,
so they also hold the batched battery to the per-point one.
"""

import hashlib

import pytest

from dwfinsler.runspec import fixture_runspec, parse_spec, sample_points
from dwfinsler.suites import emit_report, run_suites

from conftest import ALL_FIXTURES
from test_asymmetric import ASYM_1x3, ASYM_3x2

#: The built-in fixtures at their default seed and 25 points.
FIXTURE_DIGESTS = {
    "FIX-1D": "314d4a3dff72bb5ef2cbe61bba7eec2c54373771874ae5294b90d96c6e5e8487",
    "FIX-E": "fa9adc486c11d4cabef98769fd94222274f5eb519e4a1bb99f96569c1e5b5427",
    "FIX-P": "4f8930af632a4a42427cb740f955207e1e9ef6a8768016a9f3632ab1701e0912",
    "FIX-R": "2e03f30651694f46fbd7f7014bf85058daec1210955151434d00c1f6f24ad383",
}

#: Other seeds, and FIX-1D at the 150 points of the wide benchmark battery.
SEEDED_DIGESTS = {
    ("FIX-R", 3, 25): "3aa7b509d6bbf6587cfa0577f45a6b6605d32755ab670fe46dc5b04f5c3d56eb",
    ("FIX-R", 77, 25): "d65e7dcd68352c51766002a692ffc90c220e7018937415dba5acae34bc486ec7",
    ("FIX-1D", 3, 25): "94b8caa275b6987ce0b3e543179175f133404f52dbe3e9240b2b6900a6e73fec",
    ("FIX-1D", 77, 25): "8702341ddd0feee818a767dbecd5c8e08be905075a1767370f5cb6a5f59117d9",
    ("FIX-1D", None, 150): "765fa55715820c54b805a3bd5430d68aef844038c0c003a79d168b0a6fcbae9d",
}

#: Cubic polynomial entries that dominate their metric entries, on the box
#: [1, 2]: the finite-difference oracle evaluates them on value arrays, where
#: numpy's power differs from Python's ``float ** int`` in some last bits, and
#: this seed's report moves by them.
CUBIC_2x2 = {
    "label": "cubic-2x2",
    "factors": [
        {"kind": "riemannian_quadratic", "dim": 2, "parameters": {"entries": [
            [[[1.0, [3, 0]]], [[0.1, [1, 2]]]],
            [[[0.1, [1, 2]]], [[1.0, [0, 3]], [0.5, [2, 0]]]]]}},
        {"kind": "randers", "dim": 2, "parameters": {"b": [0.2, 0.1], "base": {
            "kind": "riemannian_quadratic", "parameters": {"entries": [
                [[[0.5, [0, 0]], [1.0, [3, 0]]], []],
                [[], [[0.5, [0, 0]], [1.0, [0, 3]]]]]}}}},
    ],
    "warps": {"f1": {"kind": "poly_quadratic", "parameters": {"coeffs": [0.5, 0.0]}},
              "f2": {"kind": "exponential", "parameters": {"rate": 0.3, "axis": 1}}},
    "sampling": {"seed": 6, "count": 6, "box": [1.0, 2.0]},
    "suites": ["homogeneity", "block-structure", "yF=G", "closed-form-blocks",
               "koszul-vs-closed", "fd-crosscheck"],
}

DOCUMENT_DIGESTS = {
    "asym-1x3": "859a654f060c720a9e997e3c1cb8c8576e48381b603edd1bd9556253a23de317",
    "asym-3x2": "b5d18ef2e2cc9ec88f9a6329ce953f2f7c5d2a243d2dbf60730e31123fa7c5f2",
    # Made while the oracle still evaluated F^2 one float point at a time.
    "cubic-2x2": "336ca8fa1536e7614418df235eab9c406b9c700f3913b573d619ef18f5fbc850",
}


def _digest(report) -> str:
    return hashlib.sha256(emit_report(report, "json").encode()).hexdigest()


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_report_bytes(reports, name):
    assert _digest(reports[name]) == FIXTURE_DIGESTS[name]


@pytest.mark.parametrize("name, seed, count", SEEDED_DIGESTS)
def test_seeded_report_bytes(name, seed, count):
    report = run_suites(fixture_runspec(name, seed=seed, count=count))
    assert _digest(report) == SEEDED_DIGESTS[(name, seed, count)]


@pytest.mark.parametrize("doc", [ASYM_1x3, ASYM_3x2, CUBIC_2x2], ids=lambda d: d["label"])
def test_document_report_bytes(doc):
    assert _digest(run_suites(parse_spec(doc))) == DOCUMENT_DIGESTS[doc["label"]]


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_report_bytes_do_not_depend_on_the_strips(name, monkeypatch):
    # A small element budget splits the 25 points into strips of a few
    # samples each; the trackers carry their worst values across strips.
    import dwfinsler.engine as engine
    spec = fixture_runspec(name)
    ws = engine.workspace(spec.config)
    monkeypatch.setattr(engine, "STRIP_COEFFICIENTS", 1000)
    ws.clear()
    try:
        assert len(ws.strips(sample_points(spec))) > 3
        assert _digest(run_suites(spec)) == FIXTURE_DIGESTS[name]
    finally:
        ws.clear()
