"""The JSON report of a given document is byte-stable: its sha256 is pinned.

A change that moves any residual, witness or note by one bit changes these
digests.  They were made before the battery ran its sample points as batches,
so they also hold the batched battery to the per-point one.  The fixture and
seeded digests were re-pinned when ``hermitian``'s ``closedness`` and
``potential-match`` entries gained their witness points, and again when the
``kahler`` and ``totally-geodesic`` suites turned from yes/no verdicts into
pointwise identities; each time those suites were the only fields of the
reports that moved.
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
    "FIX-1D": "73e8399f7cf099b7126f3429dce2293a695bcb96e2faf3c51f9744257fab6937",
    "FIX-E": "28d6fbdcec8bbbb2342cfa3feaf073782a3257a1eb67bbf226b9e46766f7256d",
    "FIX-P": "8e2d8e02e173f5f3373a1e1e4db70ed09b9b528ca5c4e4b88bbcea5db509ed36",
    "FIX-R": "966494b94234cd83c6468488fdf5cf0db03fa0eade17b7237bcf834db98dbb12",
}

#: Other seeds, and FIX-1D at the 150 points of the wide benchmark battery.
SEEDED_DIGESTS = {
    ("FIX-R", 3, 25): "58c320fc120dea1ec9b1140efd67b668d2072e0512c9ac11d0f720e5ab1cd35a",
    ("FIX-R", 77, 25): "f9813b4d86046c2001ea114bb5e2d79cdc09bc1aef6dd96e7f6c000de2f38819",
    ("FIX-1D", 3, 25): "cc82a59fe26b317edbdad38acdae192d8362b7c988e43919ce5bc4dc9e64b0a7",
    ("FIX-1D", 77, 25): "fbc562cc408e8cf96ce3889dad01cae2463bdfc05dfd0bcac363b98fe6bf37c8",
    ("FIX-1D", None, 150): "5b9765b82436c90cdefd38719774b530800cf2d8bc1062a6a12e4c17728d66fe",
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
