"""The JSON report of a given document is byte-stable: its sha256 is pinned.

A change that moves any residual, witness or note by one bit changes these
digests.  They were made before the battery ran its sample points as batches,
so they also hold the batched battery to the per-point one.  The fixture and
seeded digests were re-pinned when ``hermitian``'s ``closedness`` and
``potential-match`` entries gained their witness points, and again when the
``kahler`` and ``totally-geodesic`` suites turned from yes/no verdicts into
pointwise identities; each time those suites were the only fields of the
reports that moved.  They were re-pinned once more when ``hermitian`` lost its
``complex-square`` entry and each closed-form block came to be written once
for both factors, which moved some ``berwald-blocks`` and ``koszul-vs-closed``
residuals below 1e-15 and their witnesses; the document digests of asym-1x3,
asym-3x2 and cubic-2x2 were re-pinned for that second reason alone.
"""

import hashlib

import pytest

from dwfinsler.runspec import fixture_runspec, parse_spec, sample_points
from dwfinsler.suites import emit_report, run_suites

from conftest import ALL_FIXTURES
from test_asymmetric import ASYM_1x3, ASYM_3x2
from test_lifted import CURVED_2x2

#: The built-in fixtures at their default seed and 25 points.
FIXTURE_DIGESTS = {
    "FIX-1D": "a69add3069f49836b9f477a541858000b9b655e19935ae346bc4296d7940af3a",
    "FIX-E": "ec1513ef51a3a733c1e1098293025db20bb5682bcddd3d51c297860843b1b2d2",
    "FIX-P": "4480045278699421d6c69620409343d3f10bfa1941c479f2699d81771261ec54",
    "FIX-R": "8715886a9e7dcd55cc127a5082b2d7933e1054cd2ddb659617389a14dcd04096",
}

#: Other seeds, and FIX-1D at the 150 points of the wide benchmark battery.
SEEDED_DIGESTS = {
    ("FIX-R", 3, 25): "29da5aec6a6434573890cb8125b5da60e8f52b001fe77eff8d463062c18694c1",
    ("FIX-R", 77, 25): "5dda3a8cf22b641a693e37cc0bf78f61b24aa7af7b048618d2488c00ab4e276c",
    ("FIX-1D", 3, 25): "17fa9dd36e0fd5ebc5d4247c4cdfddf0175e291d66667405abd28fc6b28cf57c",
    ("FIX-1D", 77, 25): "abc706553fb22614df193cc2f9667e088db335623409b0e6e1031ad090f4f725",
    ("FIX-1D", None, 150): "cbfb8f9bc2c5b73b5d241651508d59d5cb738bbfe16ccfa816b1b758cc8815d6",
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
    "asym-1x3": "835942953183db68e1b81da22a84cdf59794002160cc83ca9292e1d42e4c4217",
    "asym-3x2": "ff90242c10a26eebcc9fbbfab605a9fc382f888c389f3449881054a90a7e7f91",
    # Made while the oracle still evaluated F^2 one float point at a time.
    "cubic-2x2": "a24374a7e843236feb2f3d50c3563f90fb3b6347b7409e2c42f233e667499138",
    # A curved first factor with constant warps, which the yes/no
    # totally-geodesic verdict failed.
    "curved-2x2": "b1a255d302ea44fc8967fe5e43bd5ef2a48fbd312196131632d78f77da18d896",
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


@pytest.mark.parametrize("doc", [ASYM_1x3, ASYM_3x2, CUBIC_2x2, CURVED_2x2],
                         ids=lambda d: d["label"])
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
        assert len(list(ws.strips(sample_points(spec)))) > 3
        assert _digest(run_suites(spec)) == FIXTURE_DIGESTS[name]
    finally:
        ws.clear()
