"""The JSON report of a given document is byte-stable: its sha256 is pinned.

A change that moves any residual, witness or note by one bit changes these
digests.  They were made before the battery ran its sample points as batches,
so they also hold the batched battery to the per-point one.  The fixture and
seeded digests were re-pinned when ``hermitian``'s ``closedness`` and
``potential-match`` entries gained their witness points, which were the only
fields of those reports that moved.
"""

import hashlib

import pytest

from dwfinsler.runspec import fixture_runspec, parse_spec, sample_points
from dwfinsler.suites import emit_report, run_suites

from conftest import ALL_FIXTURES
from test_asymmetric import ASYM_1x3, ASYM_3x2

#: The built-in fixtures at their default seed and 25 points.
FIXTURE_DIGESTS = {
    "FIX-1D": "a7a5467ed9a2e4f0d85e10d8df2d539df37a032a594332115205e5855e9b782d",
    "FIX-E": "8c5671586a347db26c7ed53b87ef7a00620d2130632d82d0450fa6e4bf7a9872",
    "FIX-P": "f9d96f37230ca2dc8ba4aa951346c1a0db78356152882cb64fe26641aebdbe80",
    "FIX-R": "661df7f3953f8f8597d8e364a6e1a53246a1f2fee14b05e2a1a861cf50ee8ca8",
}

#: Other seeds, and FIX-1D at the 150 points of the wide benchmark battery.
SEEDED_DIGESTS = {
    ("FIX-R", 3, 25): "23b130f5cdf2065e39cbadf422ca4293b8d8eaf21ccec46b7d8b735f6d5497bd",
    ("FIX-R", 77, 25): "d69af8abe474285a37edea448a23810c42fde509c56dcf0a1f25a24ee81c0ded",
    ("FIX-1D", 3, 25): "ed705494cb119d86b4edc4535b2b0db913a80d51d8a84d2c77937ca3a7fd1675",
    ("FIX-1D", 77, 25): "861241a564cc7f50eeef58be4640308e017a0cd993d8eb26872479fdcbdf6f47",
    ("FIX-1D", None, 150): "8b68f4eac59e0411569d7bb0e1c80dc15060a7d9efcc17d105f48d509b22888e",
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
        assert len(list(ws.strips(sample_points(spec)))) > 3
        assert _digest(run_suites(spec)) == FIXTURE_DIGESTS[name]
    finally:
        ws.clear()
