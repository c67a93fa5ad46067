"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with `pytest -s` or in failure
reports) and asserts the criterion.  The heavy work, a full verification run
per built-in fixture at 25 sampled points, is shared through the session
fixture ``reports`` of conftest.
"""

import json

import numpy as np

from dwfinsler import TangentSample, fixture
from dwfinsler.cli import main
from dwfinsler.connection import spray
from dwfinsler.curvature import hh_curvature
from dwfinsler.engine import workspace
from dwfinsler.lifted import ComplexStructure
from dwfinsler.runspec import fixture_runspec, parse_spec
from dwfinsler.suites import _scalar_flag, run_suites
from conftest import ALL_FIXTURES, entries
from test_lifted import kahler_maxima


def check(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_block_structure(reports):
    worst = max(e.residual for name in ALL_FIXTURES
                for e in entries(reports, name, "block-structure", "metric-off-block"))
    check(1, "off-diagonal metric blocks vanish to 1e-12 on all fixtures",
          worst <= 1e-12, f"worst {worst:.2e}")


def test_criterion_02_spray_decomposition(reports):
    decomp = [e for name in ALL_FIXTURES
              for e in entries(reports, name, "closed-form-blocks", "closed-form-spray.")]
    worst = max(e.residual for e in decomp)
    p0 = TangentSample((0.0,), (1.0,), (1.0,), (1.0,))
    vals = spray(fixture("FIX-1D"), p0).values
    hand = max(abs(vals[0] - 0.5), abs(vals[1] + 0.5))
    check(2, "spray decomposition agrees to 1e-9 and reproduces the 1D hand values",
          len(decomp) == 2 * len(ALL_FIXTURES) and worst <= 1e-9 and hand <= 1e-9,
          f"decomp {worst:.2e}, hand {hand:.2e}")


def test_criterion_03_homogeneity(reports):
    worst = max(e.residual for name in ALL_FIXTURES
                for e in entries(reports, name, "homogeneity", "connection-degree"))
    check(3, "all four fiber-degree identities hold to 1e-8 at 25 points per fixture",
          worst <= 1e-8, f"worst {worst:.2e}")


def test_criterion_04_contraction_recovers_connection(reports):
    worst = max(e.residual for name in ("FIX-E", "FIX-R")
                for e in entries(reports, name, "yF=G"))
    check(4, "fiber-contracted horizontal coefficients equal the connection to 1e-8",
          worst <= 1e-8, f"worst {worst:.2e}")


def test_criterion_05_cartan_blocks(reports):
    mixed = max(e.residual for name in ALL_FIXTURES
                for e in entries(reports, name, "block-structure", "cartan-mixed"))
    scaled = max(e.residual for name in ALL_FIXTURES
                 for e in entries(reports, name, "block-structure", "cartan-warp-scaled"))
    check(5, "mixed Cartan blocks <= 1e-12, pure blocks warp-scale to 1e-9",
          mixed <= 1e-12 and scaled <= 1e-9, f"mixed {mixed:.2e}, scaled {scaled:.2e}")


def test_criterion_06_matsumoto_contraction(reports):
    ident = max(e.residual for e in entries(reports, "FIX-R", "matsumoto-contraction",
                                            "mixed-contraction-identity"))
    witness = entries(reports, "FIX-R", "matsumoto-contraction", "witness-nonzero")[0]
    check(6, "mixed torsion contraction identity to 1e-8 with a nonzero witness",
          ident <= 1e-8 and witness.passed and witness.point is not None,
          f"identity {ident:.2e}, witness margin {-witness.residual:.2e}")


def test_criterion_07_berwald_blocks(reports):
    blocks = [e for e in entries(reports, "FIX-R", "berwald-blocks", "block-")]
    worst = max(e.residual for e in blocks)
    witness = entries(reports, "FIX-R", "berwald-blocks", "witness-nonzero")[0]
    check(7, "all ten closed-form blocks match the third fiber derivative to 1e-7; "
             "nonzero witness above 1e-3",
          len(blocks) == 10 and worst <= 1e-7 and witness.passed,
          f"worst {worst:.2e}")


def test_criterion_08_fiber_contraction_of_curvature(reports):
    worst = max(e.residual for name in ALL_FIXTURES
                for e in entries(reports, name, "lemma41", "fiber-contraction"))
    check(8, "fiber-contracted hh-curvature equals the bracket curvature to 1e-7",
          worst <= 1e-7, f"worst {worst:.2e}")


def test_criterion_09_curvature_shift_identity(reports):
    worst = max(e.residual for e in entries(reports, "FIX-E", "con1"))
    p = TangentSample((0.0, 0.0), (1.0, 0.0), (1.0, 0.3), (0.2, 1.0))
    hand = hh_curvature(fixture("FIX-E"), p).array[1, 0, 0, 1]
    check(9, "warp-shift curvature identity to 1e-6 incl. the 0.5 hand value",
          worst <= 1e-6 and abs(hand - 0.5) <= 1e-6,
          f"residual {worst:.2e}, hand value {hand:.8f}")


def test_criterion_10_scalar_flag(reports):
    p = TangentSample((0.0, 0.0), (1.0, 0.0), (1.0, 0.3), (0.2, 1.0))
    lam, defect = _scalar_flag(workspace(fixture("FIX-E")).at(p))
    worst = max(e.residual for e in entries(reports, "FIX-E", "scalar-flag"))
    check(10, "isotropic fit gives -0.5 +/- 1e-6 with defect <= 1e-6",
          abs(lam + 0.5) <= 1e-6 and defect <= 1e-6 and worst <= 1e-6,
          f"lambda {lam:.8f}, defect {defect:.2e}")


def test_criterion_11_levi_civita(reports):
    worst = max(e.residual for name in ALL_FIXTURES
                for e in entries(reports, name, "koszul-vs-closed", "metric-compatibility")
                + entries(reports, name, "koszul-vs-closed", "zero-torsion"))
    closed = [e for name in ALL_FIXTURES
              for e in entries(reports, name, "koszul-vs-closed", "closed-form")]
    closed_worst = max(e.residual for e in closed)
    check(11, "Koszul residuals <= 1e-7 everywhere; closed forms <= 1e-7 on every "
              "fixture, all 16 family blocks enforced",
          worst <= 1e-7 and closed_worst <= 1e-7 and len(closed) == 16 * len(ALL_FIXTURES)
          and all(e.tolerance == 1e-7 and e.passed for e in closed),
          f"koszul {worst:.2e}, closed-form {closed_worst:.2e}")


def test_criterion_12_vaisman_axioms(reports):
    worst = max(e.residual for name in ALL_FIXTURES
                for e in entries(reports, name, "vaisman-axioms"))
    check(12, "the three defining axioms hold to 1e-8 on every fixture",
          worst <= 1e-8, f"worst {worst:.2e}")


def test_criterion_13_reinhart(reports):
    riem = max(e.residual for name in ("FIX-1D", "FIX-E", "FIX-P")
               for e in entries(reports, name, "reinhart", "transversal-parallelism"))
    ident = max(e.residual for name in ALL_FIXTURES
                for e in entries(reports, name, "reinhart", "identity-match"))
    witness = entries(reports, "FIX-R", "reinhart", "transversal-parallelism")[0]
    check(13, "transversal metric parallel to 1e-10 on Riemannian fixtures, "
              "defect above 1e-3 with witness otherwise, matching the factor "
              "Cartan identity to 1e-8",
          riem <= 1e-10 and ident <= 1e-8
          and not witness.passed and witness.residual > 1e-3
          and witness.point is not None and witness.note != "",
          f"riemannian {riem:.2e}, identity {ident:.2e}, defect {witness.residual:.2e}")


def test_criterion_14_almost_complex_structure(reports):
    # J is a constant signed permutation that squares to -I exactly.
    sq = max(np.max(np.abs(J @ J + np.eye(len(J)))) for J in (
        ComplexStructure(cfg.n1, cfg.n2).matrix() for cfg in map(fixture, ALL_FIXTURES)))
    herm = max(e.residual for name in ALL_FIXTURES
               for e in entries(reports, name, "hermitian", "metric-invariance"))
    table = max(e.residual for name in ALL_FIXTURES
                for e in entries(reports, name, "hermitian", "symplectic-frame-table"))
    dres = max(e.residual for name in ALL_FIXTURES
               for e in entries(reports, name, "hermitian", "closedness"))
    nij = max(e.residual for name in ALL_FIXTURES
              for e in entries(reports, name, "nijenhuis", "closed-vs-direct"))
    kp, ke = (run_suites(fixture_runspec(name, count=5, suites=("kahler",),
                                         tolerances={"kahler": 1e-7})).suites[0].entries[0]
              for name in ("FIX-P", "FIX-E"))
    ok = (sq == 0.0 and herm <= 1e-10 and table <= 1e-10 and dres <= 1e-10
          and nij <= 1e-7
          and kp.residual == 0.0 and kahler_maxima(kp.note) == (0.0, 0.0) and kp.passed
          and ke.residual == 0.0 and min(kahler_maxima(ke.note)) > 1e-7 and ke.passed)
    check(14, "complex structure exact, Hermitian/symplectic tables to 1e-10, "
              "d-closedness to 1e-10, integrability equivalence on both branches",
          ok, f"herm {herm:.2e}, table {table:.2e}, d {dres:.2e}, nij {nij:.2e}")


def test_criterion_15_ad_vs_fd(reports):
    worst = max(e.residual for name in ALL_FIXTURES
                for e in entries(reports, name, "fd-crosscheck"))
    check(15, "jet partials of order <= 3 match the fd oracle to 1e-5 relative",
          worst <= 1e-5, f"worst {worst:.2e}")


def test_criterion_16_determinism(tmp_path):
    docs = []
    for i in (1, 2):
        path = tmp_path / f"det{i}.json"
        code = main(["verify", "--fixture", "FIX-R", "--seed", "42",
                     "--points", "6", "--json", str(path)])
        assert code == 0
        docs.append(json.load(open(path))["report"])
    same = json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)
    check(16, "repeated runs produce byte-identical diffable report sections", same)


def test_all_reports_as_expected(reports):
    for name, rep in reports.items():
        assert rep.ok, f"{name} had unexpected verdicts"


#: Euclidean line x Randers line: a 1-D Randers metric is quadratic on each
#: half-line, so C = 0 and both factors count as Riemannian.
E1xR1 = {
    "label": "E1xR1",
    "factors": [{"kind": "euclidean", "dim": 1},
                {"kind": "randers", "dim": 1, "parameters": {"b": [0.3]}}],
    "warps": {"f1": {"kind": "poly_quadratic", "parameters": {"coeffs": [1.0]}},
              "f2": {"kind": "poly_quadratic", "parameters": {"coeffs": [1.0]}}},
    "expected_failures": [],
    "sampling": {"seed": 1, "count": 20},
}


def test_a_line_randers_factor_is_riemannian():
    spec = parse_spec(E1xR1)
    assert spec.config.both_riemannian
    report = run_suites(spec)
    assert report.ok, [s.name for s in report.suites if not s.as_expected]
    named = {(s.name, e.name) for s in report.suites for e in s.entries}
    # No rigidity witness is asked of a Riemannian product, and con1 checks
    # the Randers factor's block too.
    assert not {("matsumoto-contraction", "witness-nonzero"),
                ("berwald-blocks", "witness-nonzero")} & named
    assert ("con1", "second-factor-block") in named
