"""The JSON report of a given document is byte-stable: its sha256 is pinned.

A change that moves any residual, witness or note by one bit changes these
digests.  The fixture and seeded digests were re-pinned when ``hermitian``'s
``closedness`` and ``potential-match`` entries gained their witness points,
and again when the ``kahler`` and ``totally-geodesic`` suites turned from
yes/no verdicts into pointwise identities; each time those suites were the
only fields of the reports that moved.  They were re-pinned once more when
``hermitian`` lost its ``complex-square`` entry and each closed-form block
came to be written once for both factors, which moved some ``berwald-blocks``
and ``koszul-vs-closed`` residuals below 1e-15 and their witnesses.  All
thirteen were re-pinned when ``sample_points`` and ``fd-crosscheck`` moved to
the standard library's generator, which draws other points for a seed: every
verdict, entry name, tolerance and summary field held, and only residuals,
witness points and notes moved.  The digests of the reports whose metrics
have off-diagonal entries (FIX-R and its seeds, asym-1x3, asym-3x2 and
cubic-2x2) were re-pinned when g's value matrix came to be inverted by
LAPACK's LU factorization in place of a hand-written Gauss-Jordan: its
inverse moved in the last bits, and with it some residuals (below 1.1e-14,
and fd-crosscheck's berwald, a third difference, below 1.4e-9); no verdict
moved.  The diagonal metrics of FIX-1D, FIX-E and FIX-P invert with the
same bits either way, and curved-2x2's two suites read no moved bit."""

import hashlib

import pytest

from dwfinsler.runspec import fixture_runspec, parse_spec, sample_points
from dwfinsler.suites import emit_report, run_suites

from conftest import ALL_FIXTURES, fresh_python
from test_asymmetric import ASYM_1x3, ASYM_3x2
from test_lifted import CURVED_2x2

#: The built-in fixtures at their default seed and 25 points.
FIXTURE_DIGESTS = {
    "FIX-1D": "3acf6f0266d8b639a55546199d532ffc5d8e201dd2efefe3390e0baaa28d37ff",
    "FIX-E": "6bae37f08dae793b01b833aef80591cd2314c012869320c0a49178bc4a8adc5a",
    "FIX-P": "1f235ac9eba11a32c3bb7dbd6fddd580fba406458412cc315e043e5d4d16f8fa",
    "FIX-R": "b86a54c0dee7fd711aac224e73210791cc4bfe5182de033c88f515b8aaa61fd0",
}

#: Other seeds, and FIX-1D at the 150 points of the wide benchmark battery.
SEEDED_DIGESTS = {
    ("FIX-R", 3, 25): "788882dbffe53f625714a5a2fd66ae509d6a0a0b08497af35a20dac0a23b504d",
    ("FIX-R", 77, 25): "09d535ad22c8a1447b47f488d2fd026885bd5ce9065cfead08514fb95585db9d",
    ("FIX-1D", 3, 25): "c90a8c832f6ff055961275e870f185a6a9cf1bd4d7f395a34f517251b5e81ffd",
    ("FIX-1D", 77, 25): "dd3168bc5fb4eb7231e6847eec84241884f72f541b4303cd4d26a72b4824e475",
    ("FIX-1D", None, 150): "56087f9448706ebfc3b8fb82e934f4a5ddbf5a2a0d5f0a9a7e1272fc3680a342",
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
    "asym-1x3": "017a33bcd20adf6bb8d59a0b17f6cb5fa4798119911b177114baa4e1a3d283ba",
    "asym-3x2": "f36cfe43452543a182ca3e4ebf8ab278e48ecb6e86ee651f75dfcb1d172a1b07",
    "cubic-2x2": "a38d980848f3a72b1d40cdef9ebc6ccb03dee34b9c6376cb2c6d240db42e9f4d",
    # A curved first factor with constant warps, which the yes/no
    # totally-geodesic verdict failed.
    "curved-2x2": "9d87944dab70516a3497d8446f0ffd15cec040f8284c36f2c34b5863a77605ca",
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


def test_one_blas_thread_computes_the_pinned_bits():
    # The benchmark's worker runs with one BLAS thread and a fixed hash seed;
    # g's inverse is a LAPACK call, so the pinned FIX-R report must come out
    # of that environment too.
    code = ("import hashlib\n"
            "from dwfinsler.runspec import fixture_runspec\n"
            "from dwfinsler.suites import emit_report, run_suites\n"
            "report = run_suites(fixture_runspec('FIX-R'))\n"
            "print(hashlib.sha256(emit_report(report, 'json').encode()).hexdigest())")
    out = fresh_python(code, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                       MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    assert out.strip() == FIXTURE_DIGESTS["FIX-R"]
