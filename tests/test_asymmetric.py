"""Products with n1 != n2: guards against factor-slot transposition slips."""

import pytest

from dwfinsler.runspec import parse_spec
from dwfinsler.suites import run_suites

ASYM_1x3 = {
    "label": "asym-1x3",
    "factors": [
        {"kind": "euclidean", "dim": 1},
        {"kind": "randers", "dim": 3, "parameters": {"b": [0.2, 0.1, 0.0]}},
    ],
    "warps": {
        "f1": {"kind": "poly_quadratic", "parameters": {"coeffs": [0.7]}},
        "f2": {"kind": "exponential", "parameters": {"rate": 0.2, "axis": 1}},
    },
    "sampling": {"seed": 5, "count": 4},
    "suites": ["homogeneity", "block-structure", "yF=G", "matsumoto-contraction",
               "berwald-blocks", "closed-form-blocks", "lemma41", "koszul-vs-closed",
               "vaisman-axioms", "nijenhuis", "fd-crosscheck"],
}

# Position-coupled quadratic first factor (off-diagonal entries) x Randers.
ASYM_3x2 = {
    "label": "asym-3x2",
    "factors": [
        {"kind": "riemannian_quadratic", "dim": 3, "parameters": {"entries": [
            [[[1.0, [0, 0, 0]], [0.3, [0, 2, 0]]], [], []],
            [[], [[1.0, [0, 0, 0]]], [[0.1, [1, 0, 0]]]],
            [[], [[0.1, [1, 0, 0]]], [[1.0, [0, 0, 0]]]]]}},
        {"kind": "randers", "dim": 2, "parameters": {"b": [0.25, 0.0]}},
    ],
    "warps": {
        "f1": {"kind": "poly_quadratic", "parameters": {"coeffs": [1.0, 0.0, 0.5]}},
        "f2": {"kind": "poly_quadratic", "parameters": {"coeffs": [0.0, 1.0]}},
    },
    "sampling": {"seed": 12, "count": 3},
    "suites": ["homogeneity", "block-structure", "yF=G", "berwald-blocks",
               "closed-form-blocks", "lemma41", "con1", "koszul-vs-closed",
               "vaisman-axioms"],
}


@pytest.mark.parametrize("doc", [ASYM_1x3, ASYM_3x2], ids=lambda d: d["label"])
def test_asymmetric_products_verify(doc):
    report = run_suites(parse_spec(doc))
    assert report.ok
    for s in report.suites:
        for e in s.entries:
            if e.tolerance is not None:
                assert e.residual <= e.tolerance, (s.name, e.name, e.residual)


def test_scalar_flag_skips_on_line_factor():
    doc = dict(ASYM_1x3, suites=["scalar-flag"])
    report = run_suites(parse_spec(doc))
    assert report.ok
    entry = report.suites[0].entries[0]
    assert entry.name.startswith("skipped")
