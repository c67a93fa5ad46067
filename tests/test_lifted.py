import numpy as np
import pytest

from dwfinsler import fixture
from dwfinsler import lifted as lf
from dwfinsler.engine import EnginePoint, workspace
from dwfinsler.errors import PreconditionError
from dwfinsler.runspec import fixture_runspec, sample_points
from dwfinsler.suites import run_suites
from conftest import region


def koszul_residuals(cfg, p):
    lp = lf._lifted(cfg, p)
    tab = lf.koszul_levi_civita(cfg, p).entries
    # metric compatibility: e_A m(e_B, e_Z) = m(nabla_A e_B, e_Z) + m(e_B, nabla_A e_Z)
    low = np.einsum("abk,kz->abz", tab, lp.metric)
    compat = np.max(np.abs(lp.dm - low - np.swapaxes(low, 1, 2)))
    # zero torsion: nabla_A e_B - nabla_B e_A = [e_A, e_B]
    tors = np.max(np.abs(tab - np.swapaxes(tab, 0, 1) - lp.br))
    return compat, tors


def test_lifted_metric_structure(fix1d, p1d, fixr, p4):
    lm = lf.lifted_metric(fix1d, p1d)
    assert lm.matrix[0, 0] == pytest.approx(2.0)  # warped first-factor block
    n = fixr.n
    lmr = lf.lifted_metric(fixr, p4)
    assert np.max(np.abs(lmr.matrix[:n, n:])) == 0.0  # block orthogonality
    assert np.allclose(lmr.matrix[:n, :n], lmr.matrix[n:, n:])
    assert np.all(np.linalg.eigvalsh(lmr.matrix) > 0)


def test_lifted_metric_product_reduces_to_plain_lift(fixp, p4):
    g = workspace(fixp).at(p4).product.g_values()
    lm = lf.lifted_metric(fixp, p4)
    n = fixp.n
    assert np.allclose(lm.matrix[:n, :n], g)
    assert np.allclose(lm.matrix[n:, n:], g)


@pytest.mark.parametrize("name", ["FIX-1D", "FIX-E", "FIX-P", "FIX-R"])
def test_koszul_defining_properties(name):
    cfg = fixture(name)
    for p in region(name, 3):
        compat, tors = koszul_residuals(cfg, p)
        assert compat <= 1e-7
        assert tors <= 1e-7


def test_connection_tables_are_solved_once_and_read_only(fixr, p4):
    for solve in (lf.koszul_levi_civita, lf.vaisman_connection):
        first = solve(fixr, p4).entries
        assert solve(fixr, p4).entries is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0, 0] = 1.0


def test_koszul_flat_product_vanishes(fixp, p4):
    tab = lf.koszul_levi_civita(fixp, p4).entries
    assert np.max(np.abs(tab)) == 0.0


@pytest.mark.parametrize("name", ["FIX-1D", "FIX-E", "FIX-P", "FIX-R"])
def test_closed_forms_match_koszul(name):
    cfg = fixture(name)
    for p in region(name, 3):
        kos = lf.koszul_levi_civita(cfg, p).entries
        clo = lf.levi_civita_closed_forms(cfg, p).entries
        assert np.max(np.abs(kos - clo)) <= 1e-12
        assert max(lf.levi_civita_block_residuals(cfg, p).values()) <= 1e-12


@pytest.mark.parametrize("name", ["FIX-E", "FIX-R"])
def test_closed_form_discrepancy_report(name):
    cfg = fixture(name)
    res = lf.levi_civita_block_residuals(cfg, region(name, 2)[0])
    assert set(res) == {f"{a}.{b}" for a in lf.FAMILIES for b in lf.FAMILIES}
    assert all(v >= 0.0 for v in res.values())


def test_levi_horizontal_coefficient_shared_subterm(fix1d, p1d):
    # The horizontal output of the closed-form table on horizontal pairs must
    # reproduce the warped horizontal coefficients, independently computed.
    from dwfinsler.closed_forms import horizontal_blocks
    tab = lf.levi_civita_closed_forms(fix1d, p1d).entries
    blocks = horizontal_blocks(workspace(fix1d).at(p1d))
    assert tab[0, 0, 0] == pytest.approx(blocks["1.11"][0, 0, 0], abs=1e-12)
    assert tab[0, 0, 1] == pytest.approx(blocks["2.11"][0, 0, 0], abs=1e-12)


def test_induced_vertical_connection(fixe):
    n, n1 = fixe.n, fixe.n1
    for p in region("FIX-E", 3):
        ind = lf.induced_vertical_connection(fixe, p).entries
        Fh = workspace(fixe).at(p).product.horizontal_values()
        for a in range(n):
            for b in range(n):
                assert np.max(np.abs(ind[a, n + b, n:] - Fh[:, a, b])) <= 1e-7
        # vertical inputs: mixed-factor pairs vanish
        for i in range(n1):
            for b in range(fixe.n2):
                assert np.max(np.abs(ind[n + i, n + n1 + b])) <= 1e-9
        # Riemannian factors: pure vertical-vertical rows vanish with Cartan
        for a in range(n):
            for b in range(n):
                assert np.max(np.abs(ind[n + a, n + b])) <= 1e-9


def test_vaisman_components(fixe, p4):
    n = fixe.n
    tab = lf.vaisman_connection(fixe, p4).entries
    ep = workspace(fixe).at(p4).product
    Gf = ep.connection_fiber_values()
    Fh = ep.horizontal_values()
    # vertical input on horizontal fields vanishes identically
    for a in range(n):
        for b in range(n):
            assert np.max(np.abs(tab[n + a, b])) == 0.0
            assert np.allclose(tab[a, n + b, n:], Gf[:, a, b])
            assert np.allclose(tab[a, b, :n], Fh[:, a, b])


@pytest.mark.parametrize("name", ["FIX-1D", "FIX-E", "FIX-P", "FIX-R"])
def test_vaisman_axioms(name):
    cfg = fixture(name)
    for p in region(name, 3):
        res = lf.vaisman_axiom_residuals(cfg, p)
        assert res["preservation"] == 0.0
        assert res["parallelism"] <= 1e-8
        assert res["torsion"] <= 1e-8


def test_vaisman_flat_product_vanishes(fixp, p4):
    assert np.max(np.abs(lf.vaisman_connection(fixp, p4).entries)) == 0.0


def test_same_connection_biconditional(fixp, fixr, p4):
    # Both connections restrict identically to the vertical bundle exactly
    # when the horizontal and fiber-derivative coefficients coincide.
    for cfg, expect_same in ((fixp, True), (fixr, False)):
        ep = workspace(cfg).at(p4).product
        gap_fg = float(np.max(np.abs(ep.horizontal_values()
                                     - ep.connection_fiber_values())))
        ind = lf.induced_vertical_connection(cfg, p4).entries
        vai = lf.vaisman_connection(cfg, p4).entries
        n = cfg.n
        gap_conn = float(np.max(np.abs(ind[:, n:, n:] - vai[:, n:, n:])))
        assert (gap_fg <= 1e-7) is expect_same
        assert (gap_conn <= 1e-7) is expect_same


def test_reinhart_riemannian_vanishes(fixe):
    # Every triple (vertical a, horizontal b, horizontal c) of the defect table.
    for p in region("FIX-E", 2):
        assert np.max(np.abs(lf.reinhart_tables(fixe, p)[0])) <= 1e-10


def test_reinhart_witness_on_randers(fixr, p4):
    wp = workspace(fixr).at(p4)
    n1 = fixr.n1
    # X = second-factor vertical 0, Y and Z = second-factor horizontal 0 and 1
    defect, identity = lf.reinhart_tables(fixr, p4)
    d = defect[n1, n1, n1 + 1]
    # two independent paths: covariant derivative vs the factor Cartan tensor
    expected = 2.0 * wp.warp_sq(1) * wp.factor2.cartan()[0, 0, 1]
    assert d == pytest.approx(expected, abs=1e-8)
    assert abs(d) > 1e-3
    assert d == pytest.approx(identity[n1, n1, n1 + 1], abs=1e-8)


def test_reinhart_cross_factor_triples_vanish(fixr, p4):
    # X = first-factor vertical, Y and Z = second-factor horizontal
    n1 = fixr.n1
    assert abs(lf.reinhart_tables(fixr, p4)[0][0, n1, n1 + 1]) <= 1e-10


def test_complex_structure(fixe, p4):
    J = lf.almost_complex(fixe).matrix()
    m = 2 * fixe.n
    rng = np.random.default_rng(1)
    for _ in range(20):
        X = rng.normal(size=m)
        assert np.array_equal(J @ (J @ X), -X)
    # horizontal block maps onto the vertical block
    img = J @ np.eye(m)[1]
    assert np.max(np.abs(img[:fixe.n])) == 0.0
    assert np.max(np.abs(img[fixe.n:])) == 1.0
    G = lf.lifted_metric(fixe, p4).matrix
    for _ in range(5):
        X, Y = rng.normal(size=m), rng.normal(size=m)
        assert (J @ X) @ G @ (J @ Y) == pytest.approx(X @ G @ Y, abs=1e-10)


def test_symplectic_frame_values(fix1d, p1d, fixe, p4):
    # Omega(h_0, v_0) on FIX-1D
    assert lf.symplectic_frame_table(fix1d, p1d)[0, fix1d.n] == pytest.approx(2.0)
    om = lf.symplectic_frame_table(fixe, p4)
    n = fixe.n
    g = workspace(fixe).at(p4).product.g_values()
    assert np.max(np.abs(om[:n, :n])) == 0.0  # horizontal pairs vanish
    assert np.allclose(om[:n, n:], g)
    assert np.max(np.abs(om + om.T)) <= 1e-12


def test_closedness():
    for name in ("FIX-1D", "FIX-E", "FIX-P", "FIX-R"):
        rep = lf.closedness_check(fixture(name), region(name, 3))
        assert rep.d_residual <= 1e-12, name
        assert rep.potential_residual <= 1e-10, name


@pytest.mark.parametrize("name", ["FIX-1D", "FIX-E", "FIX-R"])
def test_closedness_detects_a_scaled_connection(name, monkeypatch):
    cfg = fixture(name)
    real = EnginePoint.nonlinear_connection

    def scaled(self):
        return 1.001 * real(self)

    workspace(cfg).clear()
    monkeypatch.setattr(EnginePoint, "nonlinear_connection", scaled)
    try:
        rep = lf.closedness_check(cfg, region(name, 3))
    finally:
        workspace(cfg).clear()  # drop every value built on the scaled N
    assert rep.d_residual > 1e-4


def test_workspace_keeps_one_point_per_sample(fixr):
    ws = workspace(fixr)
    ws.clear()
    # the hermitian suite caches one strip of its samples and nothing else
    spec = fixture_runspec("FIX-R", count=5, suites=("hermitian",))
    run_suites(spec)
    (strip,) = ws._points.values()
    assert strip.samples == tuple(sample_points(spec))
    p = sample_points(spec)[0]
    wp = ws.at(p)
    assert ws.at(p) is wp
    ws.clear()
    assert not ws._points
    assert ws.at(p) is not wp
    # homogeneity evaluates its fiber-rescaled copies without caching them
    cfg = fixture("FIX-1D")
    ws1 = workspace(cfg)
    ws1.clear()
    run_suites(fixture_runspec("FIX-1D", count=5, suites=("homogeneity",)))
    assert [len(wp.samples) for wp in ws1._points.values()] == [5]
    ws1.clear()
    # so does fd-crosscheck with its finite-difference stencil points
    ws.clear()
    run_suites(fixture_runspec("FIX-R", count=5, suites=("fd-crosscheck",)))
    assert [len(wp.samples) for wp in ws._points.values()] == [5]
    ws.clear()


def test_nijenhuis_tables(fixe):
    for p in region("FIX-E", 3):
        closed, direct = lf.nijenhuis_tables(fixe, p)
        assert np.max(np.abs(closed - direct)) <= 1e-7
        assert np.max(np.abs(direct + np.swapaxes(direct, 0, 1))) <= 1e-10
        # spot-check the mixed row against the bracket curvature directly
        Rb = workspace(fixe).at(p).product.bracket_curvature_values()
        n = fixe.n
        assert np.allclose(direct[0, n + 1, :n], -Rb[:, 0, 1], atol=1e-12)


def test_kahler_branches(fixp, fixe):
    rep_true = lf.kahler_verdict(fixp, region("FIX-P", 4), tol=1e-7)
    assert rep_true.is_kahler and rep_true.equivalence_holds
    rep_false = lf.kahler_verdict(fixe, region("FIX-E", 4), tol=1e-7)
    assert not rep_false.is_kahler and rep_false.equivalence_holds
    assert rep_false.max_nijenhuis > 1e-7


def test_totally_geodesic_verdicts(fixp, fixr):
    rep = lf.totally_geodesic_verdicts(fixp, region("FIX-P", 20))
    assert rep.vertical and rep.horizontal
    assert rep.vertical_invariance_consistent and rep.horizontal_invariance_consistent
    repr_ = lf.totally_geodesic_verdicts(fixr, region("FIX-R", 20))
    assert not repr_.vertical  # Cartan terms split the two coefficient families
    assert not repr_.horizontal
    assert repr_.vertical_invariance_consistent and repr_.horizontal_invariance_consistent
    with pytest.raises(PreconditionError):
        lf.totally_geodesic_verdicts(fixp, region("FIX-P", 5))
