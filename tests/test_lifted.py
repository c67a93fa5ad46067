import gc
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

import dwfinsler as dw
from dwfinsler import CustomFactor, EuclideanFactor, ProductConfig, fixture
from dwfinsler import lifted as lf
from dwfinsler import suites
from dwfinsler.blocks import max_abs
from dwfinsler.engine import EnginePoint, workspace
from dwfinsler.runspec import fixture_runspec, parse_spec, sample_points
from dwfinsler.suites import _point_doc, run_suites
from conftest import ALL_FIXTURES, region
from test_asymmetric import ASYM_1x3, ASYM_3x2


def lifted_at(cfg, p) -> lf._LiftedPoint:
    """The lifted ingredients of one sample, as the suites read a strip's."""
    return lf.of(workspace(cfg).at(p))


def koszul_residuals(cfg, p):
    lp = lifted_at(cfg, p)
    tab = lp.koszul
    # metric compatibility: e_A m(e_B, e_Z) = m(nabla_A e_B, e_Z) + m(e_B, nabla_A e_Z)
    low = np.einsum("abk,kz->abz", tab, lp.metric)
    compat = np.max(np.abs(lp.dm - low - np.swapaxes(low, 1, 2)))
    # zero torsion: nabla_A e_B - nabla_B e_A = [e_A, e_B]
    tors = np.max(np.abs(tab - np.swapaxes(tab, 0, 1) - lp.br))
    return compat, tors


def test_lifted_metric_structure(fix1d, p1d, fixr, p4):
    lm = lifted_at(fix1d, p1d).metric
    assert lm[0, 0] == pytest.approx(2.0)  # warped first-factor block
    n = fixr.n
    lmr = lifted_at(fixr, p4).metric
    assert np.max(np.abs(lmr[:n, n:])) == 0.0  # block orthogonality
    assert np.allclose(lmr[:n, :n], lmr[n:, n:])
    assert np.all(np.linalg.eigvalsh(lmr) > 0)


def test_lifted_metric_product_reduces_to_plain_lift(fixp, p4):
    g = workspace(fixp).at(p4).product.g_values()
    lm = lifted_at(fixp, p4).metric
    n = fixp.n
    assert np.allclose(lm[:n, :n], g)
    assert np.allclose(lm[n:, n:], g)


@pytest.mark.parametrize("name", ["FIX-1D", "FIX-E", "FIX-P", "FIX-R"])
def test_koszul_defining_properties(name):
    cfg = fixture(name)
    for p in region(name, 3):
        compat, tors = koszul_residuals(cfg, p)
        assert compat <= 1e-7
        assert tors <= 1e-7


def test_connection_tables_are_solved_once_and_read_only(fixr, p4):
    for table in ("koszul", "vaisman"):
        first = getattr(lifted_at(fixr, p4), table)
        assert getattr(lifted_at(fixr, p4), table) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0, 0] = 1.0


def test_koszul_flat_product_vanishes(fixp, p4):
    assert np.max(np.abs(lifted_at(fixp, p4).koszul)) == 0.0


@pytest.mark.parametrize("name", ["FIX-1D", "FIX-E", "FIX-P", "FIX-R"])
def test_closed_forms_match_koszul(name):
    cfg = fixture(name)
    for p in region(name, 3):
        lp = lifted_at(cfg, p)
        assert np.max(np.abs(lp.koszul - lf._levi_civita_closed_table(lp))) <= 1e-12
        assert np.max([max_abs(d) for d in lp.levi_civita_block_residuals().values()]) <= 1e-12


@pytest.mark.parametrize("name", ["FIX-E", "FIX-R"])
def test_closed_form_discrepancy_report(name):
    cfg = fixture(name)
    res = lifted_at(cfg, region(name, 2)[0]).levi_civita_block_residuals()
    assert set(res) == {f"{a}.{b}" for a in lf.FAMILIES for b in lf.FAMILIES}
    # A pair's table runs over its first family, its second, and every frame component.
    size = {"h1": cfg.n1, "h2": cfg.n2, "v1": cfg.n1, "v2": cfg.n2}
    for key, d in res.items():
        a, b = key.split(".")
        assert d.shape == (size[a], size[b], 2 * cfg.n)
        assert max_abs(d) >= 0.0


def test_levi_horizontal_coefficient_shared_subterm(fix1d, p1d):
    # The horizontal output of the closed-form table on horizontal pairs must
    # reproduce the warped horizontal coefficients, independently computed.
    from dwfinsler.closed_forms import horizontal_blocks
    tab = lf._levi_civita_closed_table(lifted_at(fix1d, p1d))
    blocks = horizontal_blocks(workspace(fix1d).at(p1d))
    assert tab[0, 0, 0] == pytest.approx(blocks["1.11"][0, 0, 0], abs=1e-12)
    assert tab[0, 0, 1] == pytest.approx(blocks["2.11"][0, 0, 0], abs=1e-12)


def test_induced_vertical_connection(fixe):
    # The vertical projection of the Levi-Civita connection on vertical fields.
    n, n1 = fixe.n, fixe.n1
    for p in region("FIX-E", 3):
        ind = lifted_at(fixe, p).koszul[:, n:, n:]
        Fh = workspace(fixe).at(p).product.horizontal_values()
        for a in range(n):
            for b in range(n):
                assert np.max(np.abs(ind[a, b] - Fh[:, a, b])) <= 1e-7
        # vertical inputs: mixed-factor pairs vanish
        for i in range(n1):
            for b in range(fixe.n2):
                assert np.max(np.abs(ind[n + i, n1 + b])) <= 1e-9
        # Riemannian factors: pure vertical-vertical rows vanish with Cartan
        assert np.max(np.abs(ind[n:])) <= 1e-9


def test_vaisman_components(fixe, p4):
    n = fixe.n
    tab = lifted_at(fixe, p4).vaisman
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
        res = {key: np.max([max_abs(part) for part in parts])
               for key, parts in lifted_at(cfg, p).vaisman_axiom_residuals().items()}
        assert res["preservation"] == 0.0
        assert res["parallelism"] <= 1e-8
        assert res["torsion"] <= 1e-8


def test_vaisman_flat_product_vanishes(fixp, p4):
    assert np.max(np.abs(lifted_at(fixp, p4).vaisman)) == 0.0


def test_same_connection_biconditional(fixp, fixr, p4):
    # Both connections restrict identically to the vertical bundle exactly
    # when the horizontal and fiber-derivative coefficients coincide.
    for cfg, expect_same in ((fixp, True), (fixr, False)):
        ep = workspace(cfg).at(p4).product
        gap_fg = float(np.max(np.abs(ep.horizontal_values()
                                     - ep.connection_fiber_values())))
        lp = lifted_at(cfg, p4)
        n = cfg.n
        gap_conn = float(np.max(np.abs(lp.koszul[:, n:, n:] - lp.vaisman[:, n:, n:])))
        assert (gap_fg <= 1e-7) is expect_same
        assert (gap_conn <= 1e-7) is expect_same


def test_reinhart_riemannian_vanishes(fixe):
    # Every triple (vertical a, horizontal b, horizontal c) of the defect table.
    for p in region("FIX-E", 2):
        assert np.max(np.abs(lifted_at(fixe, p).reinhart_tables()[0])) <= 1e-10


def test_reinhart_witness_on_randers(fixr, p4):
    wp = workspace(fixr).at(p4)
    n1 = fixr.n1
    # X = second-factor vertical 0, Y and Z = second-factor horizontal 0 and 1
    defect, identity = lifted_at(fixr, p4).reinhart_tables()
    d = defect[n1, n1, n1 + 1]
    # two independent paths: covariant derivative vs the factor Cartan tensor
    expected = 2.0 * wp.warp_sq(1) * wp.factor2.cartan()[0, 0, 1]
    assert d == pytest.approx(expected, abs=1e-8)
    assert abs(d) > 1e-3
    assert d == pytest.approx(identity[n1, n1, n1 + 1], abs=1e-8)


def test_reinhart_cross_factor_triples_vanish(fixr, p4):
    # X = first-factor vertical, Y and Z = second-factor horizontal
    n1 = fixr.n1
    assert abs(lifted_at(fixr, p4).reinhart_tables()[0][0, n1, n1 + 1]) <= 1e-10


def _j_matrix(cfg):
    """J on the adapted frame, written out: [[0, I], [-I, 0]]."""
    eye = np.eye(cfg.n)
    return np.block([[np.zeros_like(eye), eye], [-eye, np.zeros_like(eye)]])


def test_complex_structure(fixe, p4):
    J = lf.ComplexStructure(fixe.n1, fixe.n2).matrix()
    assert np.array_equal(J, _j_matrix(fixe))
    m = 2 * fixe.n
    assert np.array_equal(J @ J, -np.eye(m))
    rng = np.random.default_rng(1)
    for _ in range(20):
        X = rng.normal(size=m)
        assert np.array_equal(J @ (J @ X), -X)
    # horizontal block maps onto the vertical block
    img = J @ np.eye(m)[1]
    assert np.max(np.abs(img[:fixe.n])) == 0.0
    assert np.max(np.abs(img[fixe.n:])) == 1.0
    G = lifted_at(fixe, p4).metric
    for _ in range(5):
        X, Y = rng.normal(size=m), rng.normal(size=m)
        assert (J @ X) @ G @ (J @ Y) == pytest.approx(X @ G @ Y, abs=1e-10)


def test_symplectic_frame_values(fix1d, p1d, fixe, p4):
    # Omega(h_0, v_0) on FIX-1D
    assert lifted_at(fix1d, p1d).symplectic_table()[0, fix1d.n] == pytest.approx(2.0)
    om = lifted_at(fixe, p4).symplectic_table()
    n = fixe.n
    g = workspace(fixe).at(p4).product.g_values()
    assert np.max(np.abs(om[:n, :n])) == 0.0  # horizontal pairs vanish
    assert np.allclose(om[:n, n:], g)
    assert np.max(np.abs(om + om.T)) <= 1e-12


def closedness_residuals(cfg, points) -> tuple[float, float]:
    """The worst residuals of dOmega = 0 and of the potential test over
    ``points``, read strip by strip as the hermitian suite reads them."""
    tables = [lf.of(wp).closedness() for wp in workspace(cfg).strips(points)]
    return tuple(float(np.max([max_abs(t) for t in column])) for column in zip(*tables))


def test_closedness():
    for name in ("FIX-1D", "FIX-E", "FIX-P", "FIX-R"):
        d_residual, potential_residual = closedness_residuals(fixture(name), region(name, 3))
        assert d_residual <= 1e-12, name
        assert potential_residual <= 1e-10, name


@pytest.mark.parametrize("name", ["FIX-1D", "FIX-E", "FIX-R"])
def test_closedness_detects_a_scaled_connection(name, monkeypatch):
    cfg = fixture(name)
    real = EnginePoint.nonlinear_connection

    def scaled(self):
        return 1.001 * real(self)

    workspace(cfg).clear()
    monkeypatch.setattr(EnginePoint, "nonlinear_connection", scaled)
    try:
        d_residual, _ = closedness_residuals(cfg, region(name, 3))
    finally:
        workspace(cfg).clear()  # drop every value built on the scaled N
    assert d_residual > 1e-4


def test_workspace_keeps_one_point_per_sample(fixr):
    ws = workspace(fixr)
    ws.clear()
    spec = fixture_runspec("FIX-R", count=5, suites=("hermitian",))
    points = tuple(sample_points(spec))
    # one sample is read back while it is the last one asked for
    p = points[0]
    wp = ws.at(p)
    assert ws.at(p) is wp
    assert ws._slot == (p, wp)
    # the strips are built anew on every call, and the battery that reads
    # them leaves the slot alone
    (strip,) = ws.strips(points)
    assert strip.samples == points
    assert next(ws.strips(points)) is not strip
    run_suites(spec)
    assert ws._slot == (p, wp)
    # another sample replaces the last one
    ws.at(points[1])
    assert ws.at(p) is not wp
    ws.clear()
    assert ws._slot == (None, None)
    # homogeneity evaluates its fiber-rescaled copies without keeping them,
    # and fd-crosscheck its finite-difference stencil points
    for name, suite in (("FIX-1D", "homogeneity"), ("FIX-R", "fd-crosscheck")):
        spec = fixture_runspec(name, count=5, suites=(suite,))
        workspace(spec.config).clear()
        run_suites(spec)
        assert workspace(spec.config)._slot == (None, None), suite


def _chain(cfg, p) -> None:
    """Every function of the per-point library chain at ``p``."""
    dw.fundamental_tensor(cfg, p)
    dw.spray(cfg, p)
    dw.nonlinear_connection(cfg, p)
    dw.frame_brackets(cfg, p)
    dw.horizontal_coefficients(cfg, p)
    dw.berwald_curvature(cfg, p)
    dw.hh_curvature(cfg, p)
    dw.riemann_map(cfg, p)


def test_the_engine_keeps_one_workspace_and_one_point(fixr):
    # A stream of fresh points keeps only the last one, so memory stops
    # growing with the stream (61 KB per point while every point was kept).
    points = sample_points(fixture_runspec("FIX-R", seed=17, count=200))
    tracemalloc.start()
    try:
        for i, p in enumerate(points):
            if i == 20:
                gc.collect()
                before = tracemalloc.get_traced_memory()[0]
            _chain(fixr, p)
            if i == 0:
                first = weakref.ref(workspace(fixr).at(p))
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 100_000, grown
    assert first() is None
    assert workspace(fixr)._slot[0] is points[-1]
    # Configurations whose factors compare by identity each get a workspace,
    # and each replaces the last one.
    configs = [ProductConfig(CustomFactor(2, lambda pos, fib: fib[0] ** 2 + fib[1] ** 2),
                             EuclideanFactor(2)) for _ in range(50)]
    p = points[0]
    kept = [weakref.ref(workspace(fixr))]
    for cfg in configs:
        _chain(cfg, p)
        kept.append(weakref.ref(workspace(cfg)))
    gc.collect()
    assert [ref() is not None for ref in kept] == [False] * 50 + [True]
    assert kept[-1]()._slot[0] is p


def _battery_peak(count: int) -> int:
    """The tracemalloc peak of a warm FIX-R battery over ``count`` points."""
    spec = fixture_runspec("FIX-R", count=count)
    run_suites(spec)  # the jet tables and contexts are built once per process
    workspace(spec.config).clear()
    gc.collect()
    tracemalloc.start()
    try:
        run_suites(spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_battery_holds_one_strip_at_a_time(monkeypatch):
    # Two samples per strip: the battery over ten strips needs about what it
    # needs over one (3.1 times as much while every strip was kept).
    import dwfinsler.engine as engine
    monkeypatch.setattr(engine, "STRIP_COEFFICIENTS", 1000)
    one, many = _battery_peak(2), _battery_peak(20)
    assert many <= 1.5 * one, (one, many)


def test_a_battery_frees_its_strips_by_reference_counting(monkeypatch):
    # No reference cycle keeps a work point alive: with the cyclic collector
    # off, every work point the battery builds is gone once it returns.
    import dwfinsler.engine as engine
    monkeypatch.setattr(engine, "STRIP_COEFFICIENTS", 1000)  # five strips
    built = []
    real = engine.WorkPoint.__init__

    def init(self, *args, **kwargs):
        real(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(engine.WorkPoint, "__init__", init)
    spec = fixture_runspec("FIX-R", count=10)
    workspace(spec.config).clear()
    gc.disable()
    try:
        run_suites(spec)
        alive = [ref() is not None for ref in built]
    finally:
        gc.enable()
    assert len(alive) > 5 and not any(alive)


def test_nijenhuis_tables(fixe):
    for p in region("FIX-E", 3):
        closed, direct = lifted_at(fixe, p).nijenhuis_tables
        assert np.max(np.abs(closed - direct)) <= 1e-7
        assert np.max(np.abs(direct + np.swapaxes(direct, 0, 1))) <= 1e-10
        # spot-check the mixed row against the bracket curvature directly
        Rb = workspace(fixe).at(p).product.bracket_curvature_values()
        n = fixe.n
        assert np.allclose(direct[0, n + 1, :n], -Rb[:, 0, 1], atol=1e-12)


def _nijenhuis_by_contraction(lp, cfg):
    """The direct Nijenhuis table as three contractions of br with the J
    matrix: the reference for the signed-permutation form."""
    J, br = _j_matrix(cfg), lp.br
    return (np.einsum("ca,db,...cdk->...abk", J, J, br)
            - np.einsum("kl,ca,...cbl->...abk", J, J, br)
            - np.einsum("kl,db,...adl->...abk", J, J, br)
            - br)


def _lifted_configs():
    """The four fixtures and both asymmetric documents, with a few samples each."""
    specs = [fixture_runspec(name, seed=7, count=5) for name in ALL_FIXTURES]
    specs += [parse_spec(doc) for doc in (ASYM_1x3, ASYM_3x2)]
    return [(spec.config, sample_points(spec)) for spec in specs]


@pytest.mark.parametrize("strip", [True, False], ids=["strip", "single-sample"])
def test_j_as_a_signed_permutation_matches_the_contraction(strip):
    # Every entry of a contraction with J is one product with +-1 plus zeros,
    # so the gathers give the same numbers (array_equal: a zero's sign may differ).
    for cfg, points in _lifted_configs():
        wps = workspace(cfg).strips(points) if strip else [workspace(cfg).at(points[0])]
        for wp in wps:
            lp = lf.of(wp)
            assert np.array_equal(lp.nijenhuis_tables[1], _nijenhuis_by_contraction(lp, cfg))
            assert np.array_equal(lp.symplectic_table(), lp.metric @ _j_matrix(cfg))


def _plant_nan_bracket(monkeypatch, at: tuple) -> list:
    """Make the first strip's lifted bracket array NaN at index ``at``; the
    list returned gets that strip's samples."""
    real, planted = lf._LiftedPoint.__init__, []

    def init(self, wp):
        real(self, wp)
        if self.lead and not planted:
            self.br[at] = np.nan
            planted.append(wp.samples)

    monkeypatch.setattr(lf._LiftedPoint, "__init__", init)
    return planted


def test_a_nan_bracket_is_reported_at_its_own_sample(monkeypatch):
    spec = fixture_runspec("FIX-E", seed=7, count=5, suites=("nijenhuis",))
    points = sample_points(spec)
    planted = _plant_nan_bracket(monkeypatch, (3, 0, 1, spec.config.n))
    (suite,) = run_suites(spec).suites
    assert planted == [tuple(points)]
    for entry in suite.entries:
        assert np.isnan(entry.residual) and not entry.passed
        assert entry.point == _point_doc(points[3])


def test_every_verdict_passes_through_the_tracker_funnel(monkeypatch):
    # A wrapper of _Tracker.feed, as a benchmark's residual guard installs
    # one, sees the NaN each identity suite reads off a planted bracket.
    spec = fixture_runspec("FIX-E", seed=7, count=20, suites=("kahler", "totally-geodesic"))
    running, seen = [None], set()
    feed = suites._Tracker.feed

    def guarded(tracker, value, *args, **kwargs):
        if not math.isfinite(float(value)):
            seen.add(running[0])
        return feed(tracker, value, *args, **kwargs)

    def within(name, fn):
        def suite(*args):
            running[0] = name
            try:
                return fn(*args)
            finally:
                running[0] = None
        return suite

    monkeypatch.setattr(suites._Tracker, "feed", guarded)
    for name in spec.suites:
        monkeypatch.setitem(suites.SUITES, name, within(name, suites.SUITES[name]))
    _plant_nan_bracket(monkeypatch, (0, 0, 1, spec.config.n))
    report = run_suites(spec)
    assert [(s.name, s.passed) for s in report.suites] == [
        ("kahler", False), ("totally-geodesic", False)]
    assert seen == {"kahler", "totally-geodesic"}


def suite_entries(name, suite, count):
    spec = fixture_runspec(name, seed=7, count=count, suites=(suite,),
                           tolerances={suite: 1e-7})
    (result,) = run_suites(spec).suites
    return result.entries


def kahler_maxima(note):
    """The largest |N_J| and |R| at the witness, as the Kahler entry's note gives them."""
    got = re.fullmatch(r"max integrability obstruction (\S+), max bracket curvature (\S+)",
                       note)
    return float(got.group(1)), float(got.group(2))


def test_kahler_branches():
    (kp,) = suite_entries("FIX-P", "kahler", 4)
    assert kp.name == "integrability-equivalence"
    assert kp.passed and kp.residual == 0.0 and kahler_maxima(kp.note) == (0.0, 0.0)
    (ke,) = suite_entries("FIX-E", "kahler", 4)
    assert ke.passed and ke.residual == 0.0 and min(kahler_maxima(ke.note)) > 1e-7


SECOND_FUNDAMENTAL_FORMS = ["horizontal-second-fundamental-form",
                            "vertical-second-fundamental-form"]


def test_totally_geodesic_verdicts():
    for fixture_name in ("FIX-P", "FIX-R"):
        got = suite_entries(fixture_name, "totally-geodesic", 20)
        assert [e.name for e in got] == SECOND_FUNDAMENTAL_FORMS
        for e in got:
            assert e.passed and e.residual <= 1e-15 and e.tolerance == 1e-7, fixture_name
    # Both forms vanish on the flat Riemannian product; Cartan terms and the
    # bracket curvature make both nonzero on the Randers product.
    for fixture_name, vanish in (("FIX-P", True), ("FIX-R", False)):
        cfg = fixture(fixture_name)
        n = cfg.n
        for p in region(fixture_name, 3):
            kos = lifted_at(cfg, p).koszul
            forms = (kos[:n, :n, n:], kos[n:, n:, :n])
            assert [max_abs(f) == 0.0 for f in forms] == [vanish, vanish], fixture_name
    # No minimum point count: a 5-point run reports both forms, none skipped.
    few = suite_entries("FIX-P", "totally-geodesic", 5)
    assert [e.name for e in few] == SECOND_FUNDAMENTAL_FORMS
    assert all(e.passed and e.tolerance is not None for e in few)


def _slip(monkeypatch, what):
    """Scale the Koszul table, the direct N_J table or the engine's
    horizontal coefficients by 1.001."""
    if what == "horizontal_values":
        real = EnginePoint.horizontal_values
        monkeypatch.setattr(EnginePoint, what, lambda self: 1.001 * real(self))
        return
    real = getattr(lf._LiftedPoint, what)  # a cached_property
    if what == "koszul":
        def slipped(self):
            return 1.001 * real.__get__(self)
    else:
        def slipped(self):
            closed, direct = real.__get__(self)
            return closed, 1.001 * direct
    monkeypatch.setattr(lf._LiftedPoint, what, property(slipped))


@pytest.mark.parametrize("name", ["FIX-1D", "FIX-E", "FIX-R"])
@pytest.mark.parametrize("what, suite, names", [
    ("koszul", "totally-geodesic", SECOND_FUNDAMENTAL_FORMS),
    ("nijenhuis_tables", "kahler", ["integrability-equivalence"]),
    ("horizontal_values", "totally-geodesic", ["vertical-second-fundamental-form"]),
])
def test_a_slip_fails_an_identity_entry(monkeypatch, name, what, suite, names):
    ws = workspace(fixture(name))
    ws.clear()
    _slip(monkeypatch, what)
    try:
        (result,) = run_suites(fixture_runspec(name, count=20, suites=(suite,))).suites
    finally:
        ws.clear()  # drop every value built on the slipped ingredient
    assert any(not e.passed for e in result.entries if e.name in names)


#: A curved first factor and constant warps: R vanishes on its mixed blocks
#: but not on factor 1's, where the transcribed horizontal criterion (C and
#: the mixed blocks of R) disagreed with the Koszul table.
CURVED_2x2 = {
    "label": "curved-2x2",
    "factors": [
        {"kind": "riemannian_quadratic", "dim": 2, "parameters": {"entries": [
            [[[1.0, [0, 0]], [0.5, [2, 0]]], [[0.2, [1, 1]]]],
            [[[0.2, [1, 1]]], [[1.0, [0, 0]], [0.3, [0, 2]]]]]}},
        {"kind": "euclidean", "dim": 2},
    ],
    "warps": {"f1": {"kind": "constant"}, "f2": {"kind": "constant"}},
    "sampling": {"seed": 5, "count": 20},
    "suites": ["kahler", "totally-geodesic"],
}


@pytest.mark.parametrize("count", [20, 4])
def test_a_curved_factor_with_constant_warps_passes(count):
    doc = dict(CURVED_2x2, sampling=dict(CURVED_2x2["sampling"], count=count))
    report = run_suites(parse_spec(doc))
    assert [[e.name for e in s.entries] for s in report.suites] == [
        ["integrability-equivalence"], SECOND_FUNDAMENTAL_FORMS]
    assert all(e.passed for s in report.suites for e in s.entries) and report.ok
