"""A batch of samples is one engine point with a leading sample axis: each
sample of it has the bits, and the errors, of its own evaluation."""

import numpy as np
import pytest

from dwfinsler import closed_forms, fixture, lifted
from dwfinsler.engine import (LIFT_ORDER, SPRAY_ORDER, VALUE_ORDER, EnginePoint,
                              FinslerEngine, WorkPoint, workspace)
import math
import random

from dwfinsler.coords import base1, fiber1
from dwfinsler.errors import (DomainError, MetricDefinitionError, SingularMetricError,
                              SlitConditionError)
from dwfinsler.fd import FD_STEPS, fd_partial, fd_partials
from dwfinsler.jets import CoordView, Jet, einsum, einsum_powers, exp, sqrt
from dwfinsler.linalg import invert
from dwfinsler.metrics import (CustomFactor, EuclideanFactor, ProductConfig, QuadraticFactor,
                               RandersFactor, SampleBatch, TangentSample)
from dwfinsler.report import SuiteEntry
from dwfinsler.runspec import fixture_document, fixture_runspec, parse_spec, sample_points

from conftest import ALL_FIXTURES, engine_point
from test_asymmetric import ASYM_1x3, ASYM_3x2
from test_lifted import CURVED_2x2
from test_report_bytes import CUBIC_2x2
from test_runspec import _per_point_samples


def _cases(count: int = 3):
    """(name, config, the first ``count`` points) of every fixture, both
    asymmetric documents and cubic-2x2, whose quadratic factor blocks of g
    depend on x and on both warps' coordinates."""
    out = [(name, fixture(name), sample_points(fixture_runspec(name, count=count)))
           for name in ALL_FIXTURES]
    for doc in (ASYM_1x3, ASYM_3x2, CUBIC_2x2):
        sampling = {**doc["sampling"], "count": max(count, doc["sampling"]["count"])}
        spec = parse_spec({**doc, "sampling": sampling})
        out.append((doc["label"], spec.config, sample_points(spec)[:count]))
    return out


CASES = _cases()

#: The engine tensors a batch carries, by the lowest order that gives them.
_TENSORS = {SPRAY_ORDER: ("g", "ginv", "spray"),
            VALUE_ORDER: ("g", "ginv", "spray", "nonlinear_connection", "delta_g",
                          "horizontal_coefficients"),
            LIFT_ORDER: ("g", "ginv", "spray", "nonlinear_connection",
                         "connection_fiber_derivative", "delta_g", "horizontal_coefficients")}

#: The value arrays of every engine that a suite reads at LIFT_ORDER.
_ARRAYS = ("cartan", "mean_cartan", "angular", "matsumoto", "berwald",
           "bracket_curvature_values", "hh_curvature", "riemann_map")


#: The array fields of a side, beyond its inverse-metric partials ``dginv``.
_SIDE_FIELDS = ("g", "ginv", "C", "C_up", "Fsq", "dF", "fsq", "w", "wy", "grad_norm_sq")


def _side_arrays(side) -> dict:
    """Every array field of a side, and its inverse-metric partials of order 0 to 3."""
    out = {name: np.asarray(getattr(side, name)) for name in _SIDE_FIELDS}
    out.update((f"dginv {k}", side.dginv(k)) for k in range(4))
    return out


def _suite_arrays(wp) -> dict:
    """Every array a suite reads off a LIFT_ORDER work point, beyond the engine jets."""
    out = {f"{e}.{name}": getattr(engine_point(wp, e), name)()
           for e in ("product", "factor1", "factor2") for name in _ARRAYS}
    ep = wp.product
    out["delta H"] = ep.delta(ep.horizontal_coefficients())
    for side in wp.sides:
        out.update((f"side {side.which} {name}", arr) for name, arr in _side_arrays(side).items())
    families = {"spray": closed_forms.spray_blocks(wp),
                "N": closed_forms.nonlinear_connection_blocks(wp),
                "Gf": closed_forms.connection_fiber_blocks(wp),
                "H": closed_forms.horizontal_blocks(wp),
                "B": closed_forms.berwald_blocks(wp),
                "C": closed_forms.cartan_scaled_factor_blocks(wp)}
    out.update((f"closed {f}.{key}", arr) for f, blocks in families.items()
               for key, arr in blocks.items())
    out["closed matsumoto"] = closed_forms.matsumoto_contraction_rhs(wp)
    lp = lifted.of(wp)
    out.update(dm=lp.dm, br=lp.br, koszul=lp.koszul, vaisman=lp.vaisman,
               closed_levi_civita=lifted._levi_civita_closed_table(lp))
    return out


@pytest.mark.parametrize("order", [SPRAY_ORDER, VALUE_ORDER, LIFT_ORDER])
@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_a_batch_equals_its_samples_bit_for_bit(case, order):
    _, cfg, points = case
    ws = workspace(cfg)
    batch = WorkPoint(ws, SampleBatch.of(points), order)
    arrays = _suite_arrays(batch) if order == LIFT_ORDER else {}
    for k, p in enumerate(points):
        single = WorkPoint(ws, p, order)
        for engine in ("product", "factor1", "factor2"):
            got, want = engine_point(batch, engine), engine_point(single, engine)
            for name in _TENSORS[order]:
                b, s = getattr(got, name)(), getattr(want, name)()
                assert b.ctx is s.ctx and b.shape == (len(points),) + s.shape, name
                assert b.c[k].tobytes() == s.c.tobytes(), (engine, name)
            assert got.g_condition()[k] == want.g_condition()
        if arrays:
            for name, want in _suite_arrays(single).items():
                assert arrays[name].shape == (len(points),) + want.shape, name
                assert arrays[name][k].tobytes() == want.tobytes(), name


@pytest.mark.parametrize("case", _cases(6), ids=[c[0] for c in CASES])
def test_the_sides_are_swap_equivariant_bit_for_bit(case):
    # F^2 = f2^2 F1^2 + f1^2 F2^2 is the same field when the factors trade
    # places: (F2, F1, f2, f1) at (u, x, v, y).  Side t of a strip is side o
    # of the swapped strip, field by field and in its engine's tensors.
    _, cfg, points = case
    swapped = ProductConfig(cfg.factor2, cfg.factor1, cfg.warp2, cfg.warp1)
    strip = WorkPoint(workspace(cfg), SampleBatch.of(points))
    mirror = WorkPoint(workspace(swapped),
                       SampleBatch.of([TangentSample(p.u, p.x, p.v, p.y) for p in points]))
    for got, want in zip(strip.sides, reversed(mirror.sides)):
        assert (got.which, got.n) == (3 - want.which, want.n)
        arrays = _side_arrays(want)
        for name, arr in _side_arrays(got).items():
            want_arr = arrays[name]
            assert arr.shape == want_arr.shape and arr.tobytes() == want_arr.tobytes(), name
        for name in ("spray_values", "berwald", "hh_curvature"):
            arr, want_arr = getattr(got.eng, name)(), getattr(want.eng, name)()
            assert arr.shape == want_arr.shape and arr.tobytes() == want_arr.tobytes(), name


def _leibniz_spray(ep):
    """The spray with its product by y as a Leibniz product of coordinate jets."""
    base, fib = ep.engine.base, ep.engine.fiber
    dyx = ep.lift().grad(fib).grad(base)
    y = Jet.stack([Jet.coordinate(dyx.ctx, c, ep.sample.coord(c)) for c in fib])
    rhs = einsum("...bc,...c->...b", dyx, y) - ep.lift().grad(base)
    return 0.25 * einsum("...ab,...b->...a", ep.ginv(), rhs)


@pytest.mark.parametrize("order", [SPRAY_ORDER, VALUE_ORDER, LIFT_ORDER])
@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_the_spray_multiplies_by_y_as_a_shift_and_keeps_every_bit(case, order, monkeypatch):
    import dwfinsler.engine as engine
    _, cfg, points = case
    products = []

    def recorded(subscripts, a, b):
        products.append(subscripts)
        return einsum(subscripts, a, b)

    def tensors(sample):
        wp = WorkPoint(workspace(cfg), sample, order)
        out = {}
        for which in ("product", "factor1", "factor2"):
            ep = engine_point(wp, which)
            out[which, "spray"] = ep.spray().c
            if order >= VALUE_ORDER:
                out[which, "N"] = ep.nonlinear_connection().c
            if order >= LIFT_ORDER:
                out[which, "Gf"] = ep.connection_fiber_derivative().c
                out[which, "B"] = ep.berwald()
        return out

    samples = (SampleBatch.of(points), points[0])
    monkeypatch.setattr(engine, "einsum", recorded)
    got = [tensors(sample) for sample in samples[:1]]
    # On the batch no Leibniz product contracts with y: only g^-1 with the
    # right-hand side, and the inverse series, run the table.
    assert "...bc,...c->...b" not in products
    monkeypatch.undo()
    got.append(tensors(samples[1]))
    monkeypatch.setattr(EnginePoint, "spray", engine._once(_leibniz_spray))
    want = [tensors(sample) for sample in samples]
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        for key in w:
            assert g[key].tobytes() == w[key].tobytes(), key


@pytest.mark.parametrize("name, widest", [("FIX-R", 3), ("FIX-1D", 1)])
def test_a_strip_inverts_g_block_by_block(name, widest, monkeypatch):
    # g is block diagonal and each block depends on a few seeds: {u0} and
    # {x0, v0, v1} on FIX-R, {u0} and {x0} on FIX-1D.  No Leibniz product of
    # a strip's inverse spans more seeds than its block, and the result has
    # the bits of the whole-matrix series.
    import dwfinsler.engine as engine
    spec = fixture_runspec(name)
    ep = WorkPoint(workspace(spec.config), SampleBatch.of(sample_points(spec))).product
    g = ep.g()
    spans = []

    def recorded(subscripts, a, b, count):
        spans.append(len(set(a.seeds) | set(b.seeds)))
        return einsum_powers(subscripts, a, b, count)

    monkeypatch.setattr(engine, "einsum_powers", recorded)
    got = ep.ginv()
    assert spans and max(spans) <= widest < len(g.seeds)
    want = engine._inverse_series(g, ep._value_inverse()[0])
    assert got.ctx is want.ctx and got.c.tobytes() == want.c.tobytes()


def _plan_cases():
    """(name, config, points) of :data:`CASES` and of curved-2x2, at 4 points."""
    spec = parse_spec({**CURVED_2x2, "sampling": {**CURVED_2x2["sampling"], "count": 4}})
    return _cases(4) + [(CURVED_2x2["label"], spec.config, sample_points(spec))]


@pytest.mark.parametrize("case", _plan_cases(), ids=lambda case: case[0])
def test_ginv_has_the_bits_of_the_whole_matrix_series_at_a_sample_and_on_a_strip(case):
    # Wherever the block plan runs, and wherever it does not, each sample
    # and each strip gets the bits of the whole-matrix series.
    import dwfinsler.engine as engine
    _, cfg, points = case
    ws = engine.Workspace(cfg)
    used = set()
    for sample in (SampleBatch.of(points), *points):
        wp = WorkPoint(ws, sample)
        for which in ("product", "factor1", "factor2"):
            ep = engine_point(wp, which)
            got = ep.ginv()
            want = engine._inverse_series(ep.g(), ep._value_inverse()[0])
            assert got.ctx is want.ctx and got.c.tobytes() == want.c.tobytes(), which
            used.add((which, bool(ep.lead), bool(ep._blocks())))
    assert ("product", True, True) in used


def test_a_plan_is_built_again_where_g_has_a_new_nonzero_coefficient():
    # At x0 = 0 the x0-partial of factor 2's block of g, f1^2 g2, is exactly
    # zero, so that point's plan assumes it is zero; at a generic point it
    # is not, and the plan is built again.  A point that is zero wherever
    # the new plan assumes a zero keeps it.
    import dwfinsler.engine as engine
    ws = engine.Workspace(fixture("FIX-R"))
    x0 = TangentSample((0.0, 0.3), (0.5, -0.2), (1.0, 0.3), (0.2, 1.0))
    generic = TangentSample((0.4, 0.3), (0.5, -0.2), (1.0, 0.3), (0.2, 1.0))
    plans = []
    for p in (x0, generic, x0):
        ep = WorkPoint(ws, p).product
        got = ep.ginv()
        want = engine._inverse_series(ep.g(), ep._value_inverse()[0])
        assert got.ctx is want.ctx and got.c.tobytes() == want.c.tobytes()
        assert ep._blocks()
        plans.append(ws.product.plans[ep.g().ctx])
    assert plans[0] is not plans[1] and plans[1] is plans[2]
    assert len(plans[0].zeros) > len(plans[1].zeros)
    assert [block.rows.tolist() for block in plans[0].blocks] \
        == [block.rows.tolist() for block in plans[1].blocks]


@pytest.mark.parametrize("name, pays, widest", [("FIX-R", True, 3), ("FIX-1D", False, 4)])
def test_a_single_sample_runs_blocks_where_they_cost_fewer_terms(name, pays, widest,
                                                                  monkeypatch):
    # FIX-R's two blocks, over {u0} and {x0, v0, v1}, cost fewer Leibniz
    # terms than the whole 4x4 matrix over six seeds; FIX-1D's two 1x1
    # blocks over one seed each save less than a series costs, so a
    # sample there runs the whole matrix over its four seeds.  A strip runs
    # the blocks on both.
    import dwfinsler.engine as engine
    spec = fixture_runspec(name, count=2)
    ws = engine.Workspace(spec.config)
    spans = []

    def recorded(subscripts, a, b, count):
        spans.append(len(set(a.seeds) | set(b.seeds)))
        return einsum_powers(subscripts, a, b, count)

    monkeypatch.setattr(engine, "einsum_powers", recorded)
    for p in sample_points(spec):
        ep = WorkPoint(ws, p).product
        ep.ginv()
        plan = ws.product.plans[ep.g().ctx]
        assert plan.pays is pays and len(plan.blocks) == 2
        assert bool(ep._blocks()) is pays
    assert spans and max(spans) == widest
    strip = WorkPoint(ws, SampleBatch.of(sample_points(spec))).product
    assert strip._blocks() == ws.product.plans[strip.g().ctx].blocks


def test_a_non_finite_g_at_a_sample_inverts_as_the_whole_matrix():
    # A NaN in factor 1's block of g spreads into factor 2's rows in the
    # whole-matrix series, so a sample whose g is not finite runs it, and
    # the plan built at a finite sample stays as it is.
    import dwfinsler.engine as engine
    fix = fixture("FIX-R")
    scale = [1.0]
    custom = CustomFactor(2, lambda pos, fib: scale[0] * (fib[0] ** 2 + fib[1] ** 2))
    ws = engine.Workspace(ProductConfig(custom, fix.factor2, fix.warp1, fix.warp2))
    first, second = sample_points(fixture_runspec("FIX-R", count=2))
    ep = WorkPoint(ws, first).product
    ep.ginv()
    plan = ws.product.plans[ep.g().ctx]
    assert ep._blocks() == plan.blocks
    scale[0] = math.nan
    ep = WorkPoint(ws, second).product
    g, inv0 = ep.g(), ep._value_inverse()[0]
    got = ep.ginv()
    want = engine._inverse_series(g, inv0)
    assert np.isnan(g.c[:2, :2]).any() and ep._blocks() == ()
    assert np.isnan(got.c[2:, :2]).any()
    assert got.ctx is want.ctx and np.array_equal(got.c, want.c, equal_nan=True)
    assert ws.product.plans[g.ctx] is plan


@pytest.mark.parametrize("name, order, engines", [
    ("FIX-1D", VALUE_ORDER, ("product", "factor1", "factor2")),
    ("FIX-R", VALUE_ORDER, ("product", "factor1", "factor2")),
    ("FIX-R", LIFT_ORDER, ("factor1",)),
    ("FIX-P", LIFT_ORDER, ("product", "factor1", "factor2"))])
def test_ginv_runs_no_leibniz_product_where_none_can_pay(name, order, engines, monkeypatch):
    # A g of order 1 runs the whole-matrix series, which takes no Leibniz
    # product; a block over no seeds (g constant on it: a Riemannian factor,
    # FIX-P's product) is its sub-block of g0^-1.  Both keep the bits of the
    # whole-matrix series, and no -0.0 appears.
    import dwfinsler.engine as engine
    spec = fixture_runspec(name)
    wp = WorkPoint(workspace(spec.config), SampleBatch.of(sample_points(spec)), order)
    calls = []

    def recorded(subscripts, a, b):
        calls.append(subscripts)
        return einsum(subscripts, a, b)

    def recorded_powers(subscripts, a, b, count):
        calls.append(subscripts)
        return einsum_powers(subscripts, a, b, count)

    for which in engines:
        ep = engine_point(wp, which)
        g, inv0 = ep.g(), ep._value_inverse()[0]
        if g.order > 1:
            blocks = engine._BlockPlan(g).blocks
            assert blocks and not any(block.sub.seeds for block in blocks), which
        monkeypatch.setattr(engine, "einsum", recorded)
        monkeypatch.setattr(engine, "einsum_powers", recorded_powers)
        if g.order == 1:
            monkeypatch.setattr(engine, "_diagonal_blocks", None)
        got = ep.ginv()
        monkeypatch.undo()
        assert not calls, which
        want = engine._inverse_series(g, inv0)
        assert got.ctx is want.ctx and got.c.tobytes() == want.c.tobytes(), which
        assert not np.signbit(got.c[got.c == 0.0]).any(), which


def test_a_constant_block_reads_a_negative_zero_of_the_value_inverse_as_the_series_does():
    # The series adds +0.0 terms to a constant block's value, so a -0.0 of
    # g0^-1 there becomes +0.0; its sub-block must too.  This g is one
    # constant 3x3 block whose inverse has an exact zero at (0, 2).
    import dwfinsler.engine as engine
    G = ((0.75, 0.5, 0.25), (0.5, 1.0, 0.5), (0.25, 0.5, 0.75))
    fib = (fiber1(0), fiber1(1), fiber1(2))
    constant = FinslerEngine(lambda c: sum(G[i][j] * c.y[i] * c.y[j]
                                           for i in range(3) for j in range(3)),
                             (base1(0), base1(1), base1(2)), fib)
    points = [TangentSample((0.1 * k, 0.2, 0.3), (0.5,), (1.0, 0.3 * k, 0.2), (1.0,))
              for k in range(3)]
    ep = EnginePoint(constant, SampleBatch.of(points))
    inv0, cond = ep._value_inverse()
    assert (inv0[:, 0, 2] == 0.0).all()
    inv0[:, 0, 2] = -0.0
    ep._done["_value_inverse"] = (inv0, cond)
    assert [block.sub.seeds for block in engine._BlockPlan(ep.g()).blocks] == [()]
    got = ep.ginv()
    want = engine._inverse_series(ep.g(), inv0)
    assert got.c.tobytes() == want.c.tobytes()
    assert not np.signbit(got.c[got.c == 0.0]).any()


def test_a_non_finite_g_inverts_as_the_whole_matrix():
    # One sample of factor 1's block of g is NaN.  The whole-matrix series
    # spreads it into the other block's rows; a block-by-block inverse
    # would not, so the strip runs the whole matrix.
    import dwfinsler.engine as engine
    fix = fixture("FIX-R")
    scale = np.array([1.0, math.nan, 1.0])
    custom = CustomFactor(2, lambda pos, fib: scale * (fib[0] ** 2 + fib[1] ** 2))
    cfg = ProductConfig(custom, fix.factor2, fix.warp1, fix.warp2)
    points = sample_points(fixture_runspec("FIX-R", count=3))
    ep = WorkPoint(workspace(cfg), SampleBatch.of(points)).product
    g, inv0 = ep.g(), ep._value_inverse()[0]
    nan = np.zeros(g.c.shape, dtype=bool)
    nan[1, :2, :2] = np.isnan(g.c[1, :2, :2])
    assert nan.any() and np.array_equal(np.isnan(g.c), nan)
    got = ep.ginv()
    want = engine._inverse_series(g, inv0)
    assert np.isnan(got.c[1, 2:, :2]).any()
    assert got.ctx is want.ctx and np.array_equal(got.c, want.c, equal_nan=True)


def test_a_non_finite_right_hand_side_contracts_as_the_whole_spray():
    # F^2 = (1 + x1^2) y0^2 + (1 + x0^2) y1^2 + k(x0): g is diagonal, with
    # 1x1 blocks over {x1} and {x0}, and k, zero in value with a NaN
    # x0-partial at one sample, leaves it finite but makes the x0 row of
    # the spray's right-hand side NaN there.  The whole contraction with
    # g^-1 spreads it through the zero entry into the other row; so does
    # the strip.

    def field(c):
        kink = c.x[0] - c.x[0].value
        k = kink.c.copy()
        k[1, 1] = math.nan  # sample 1's x0-partial
        return (1.0 + c.x[1] ** 2) * c.y[0] ** 2 + (1.0 + c.x[0] ** 2) * c.y[1] ** 2 \
            + Jet(kink.ctx, k)

    kinked = FinslerEngine(field, (base1(0), base1(1)), (fiber1(0), fiber1(1)))
    points = [TangentSample((0.1 * k, 0.2), (0.5,), (1.0, 0.3 * k - 0.4), (1.0,))
              for k in range(3)]
    ep = EnginePoint(kinked, SampleBatch.of(points))
    with np.errstate(invalid="ignore"):
        got = ep.spray()
        want = _leibniz_spray(ep)
    assert np.isfinite(ep.g().c).all() and len(ep._blocks()) == 2
    assert np.isnan(got.c[1]).all() and np.isfinite(got.c[[0, 2]]).all()
    assert got.ctx is want.ctx and np.array_equal(got.c, want.c, equal_nan=True)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_lift_multiplies_by_y_as_the_leibniz_product(bad):
    # inf or NaN times the zero coefficients of y spreads NaN through the
    # Leibniz product, where a shift would leave finite entries.
    import dwfinsler.engine as engine
    fix = fixture("FIX-R")
    scale = np.array([1.0, bad, 1.0])
    custom = CustomFactor(2, lambda pos, fib: scale * (1.0 + pos[0] ** 2)
                          * (fib[0] ** 2 + fib[1] ** 2))
    cfg = ProductConfig(custom, fix.factor2, fix.warp1, fix.warp2)
    points = sample_points(fixture_runspec("FIX-R", count=3))
    with np.errstate(invalid="ignore"):
        ep = EnginePoint(workspace(cfg).product, SampleBatch.of(points))
        fib = ep.engine.fiber
        dyx = ep.lift().grad(fib).grad(ep.engine.base)
        y = Jet.stack([Jet.coordinate(dyx.ctx, c, ep.sample.coord(c)) for c in fib])
        want = einsum("...bc,...c->...b", dyx, y)
        got = engine._times_fiber(dyx, ep.sample, fib)
    assert not np.isfinite(dyx.c).all()
    assert got.ctx is want.ctx and np.array_equal(got.c, want.c, equal_nan=True)


def test_g_condition_is_the_estimate_of_the_value_inverse(p4):
    cfg = fixture("FIX-R")
    ep = WorkPoint(workspace(cfg), p4).product
    assert isinstance(ep.g_condition(), float)
    assert ep.g_condition() == invert(ep.g_values())[1]
    points = sample_points(fixture_runspec("FIX-R", count=4))
    batch = WorkPoint(workspace(cfg), SampleBatch.of(points), SPRAY_ORDER).product
    assert batch.g_condition().shape == (4,)
    assert batch.g_condition().tolist() == [invert(g)[1] for g in batch.g_values()]


def test_a_batch_breaking_the_slit_condition_fails_as_its_sample_does():
    with pytest.raises(SlitConditionError):
        TangentSample((0.1,), (0.2,), (0.0,), (1.0,))
    with pytest.raises(SlitConditionError):
        SampleBatch((np.array([0.1, 0.2]),), (np.array([0.2, 0.3]),),
                    (np.array([1.0, 0.0]),), (np.array([1.0, 1.0]),))


# F^2 = y0^2 + (x0 y1)^2 + x1^2 y1^2 / 4: g = diag(1, x0^2 + x1^2 / 4),
# singular where x0 = x1 = 0.
_SINGULAR_AT_ORIGIN = FinslerEngine(
    lambda c: c.y[0] ** 2 + (c.x[0] * c.y[1]) ** 2 + 0.25 * (c.x[1] * c.y[1]) ** 2,
    (base1(0), base1(1)), (fiber1(0), fiber1(1)))
# F^2 = sqrt(x0) (y0^2 + y1^2): outside the domain where x0 < 0.
_NEEDS_POSITIVE_X0 = FinslerEngine(
    lambda c: sqrt(c.x[0]) * (c.y[0] ** 2 + c.y[1] ** 2),
    (base1(0), base1(1)), (fiber1(0), fiber1(1)))


# A Randers metric over [[1 - x0, 0.2 x1], [0.2 x1, 1]] with b = (0.5, 0.3):
# |b|^2 = 0.34 at the origin, and 0.25 / (1 - x0) + 0.09 on the axis x1 = 0,
# which reaches 1 at x0 = 0.725...; its base is positive definite for x0 < 1.
_LONG_ONE_FORM = RandersFactor(2, QuadraticFactor(2, (
    (((1.0, (0, 0)), (-1.0, (1, 0))), ((0.2, (0, 1)),)),
    (((0.2, (0, 1)),), ((1.0, (0, 0)),)))), (0.5, 0.3))
_ONE_FORM_TOO_LONG = FinslerEngine(lambda c: _LONG_ONE_FORM.f_squared(c.x, c.y),
                                   (base1(0), base1(1)), (fiber1(0), fiber1(1)))
_BASE_NOT_POSITIVE = FinslerEngine(lambda c: _LONG_ONE_FORM.base.f_squared(c.x, c.y),
                                   (base1(0), base1(1)), (fiber1(0), fiber1(1)))


@pytest.mark.parametrize("engine,bad,error", [
    (_SINGULAR_AT_ORIGIN, (0.0, 0.0), SingularMetricError),
    (_NEEDS_POSITIVE_X0, (-0.5, 0.3), DomainError),
    (_ONE_FORM_TOO_LONG, (0.8, 0.0), MetricDefinitionError),
    (_BASE_NOT_POSITIVE, (1.5, 0.0), MetricDefinitionError),
], ids=["singular g", "sqrt of a negative", "randers one-form", "quadratic base"])
def test_one_bad_sample_fails_the_batch_as_it_fails_alone(engine, bad, error):
    good = TangentSample((0.4, -0.2), (0.5,), (1.0, 0.3), (1.0,))
    worse = TangentSample(bad, (0.5,), (1.0, 0.3), (1.0,))
    assert EnginePoint(engine, good, VALUE_ORDER).horizontal_values().shape == (2, 2, 2)
    with pytest.raises(error) as alone:
        EnginePoint(engine, worse, VALUE_ORDER).spray()
    batch = SampleBatch.of([good, worse, good])
    with pytest.raises(error) as together:
        EnginePoint(engine, batch, VALUE_ORDER).spray()
    assert str(together.value) == str(alone.value)


def test_the_randers_one_form_norm_of_a_batch_has_each_samples_bits():
    x0, x1 = np.linspace(-0.9, 0.7, 9), np.linspace(-1.0, 1.0, 9)
    expected = []
    for a, c in zip(x0.tolist(), x1.tolist()):
        inv, _ = invert([[1.0 - a, 0.2 * c], [0.2 * c, 1.0]])
        expected.append(sum(inv[i, j] * _LONG_ONE_FORM.b[i] * _LONG_ONE_FORM.b[j]
                            for i in range(2) for j in range(2)))
    assert _LONG_ONE_FORM._b_norm_sq((x0, x1)).tolist() == expected


@pytest.mark.parametrize("field,bad,error", [
    (lambda pos, fib: fib[0] ** 2 + (pos[0] * fib[1]) ** 2 + 0.25 * (pos[1] * fib[1]) ** 2,
     (0.0, 0.0), SingularMetricError),
    (lambda pos, fib: sqrt(pos[0]) * (fib[0] ** 2 + fib[1] ** 2), (-0.5, 0.3), DomainError),
], ids=["singular g", "sqrt of a negative"])
def test_one_bad_sample_fails_the_battery_as_it_fails_alone(field, bad, error, monkeypatch):
    import dwfinsler.suites as suites
    cfg = ProductConfig(CustomFactor(2, field), EuclideanFactor(1))
    good = TangentSample((0.4, -0.2), (0.5,), (1.0, 0.3), (1.0,))
    worse = TangentSample(bad, (0.5,), (1.0, 0.3), (1.0,))
    assert workspace(cfg).at(good).product.hh_curvature().shape == (3, 3, 3, 3)
    with pytest.raises(error):
        workspace(cfg).at(worse).product.hh_curvature()
    spec = fixture_runspec("FIX-E", suites=("yF=G",))
    spec = type(spec)("custom", cfg, spec.sampling, spec.suites, (), spec.tolerances)
    monkeypatch.setattr(suites, "sample_points", lambda _: [good, worse, good])
    with pytest.raises(error):
        suites.run_suites(spec)


def test_a_field_constant_over_a_batch_keeps_its_sample_axis():
    batch = SampleBatch.of([TangentSample((0.1 * k,), (0.5,), (1.0,), (1.0,)) for k in range(3)])
    engine = FinslerEngine(lambda c: 2.5, (base1(0),), (fiber1(0),))
    ep = EnginePoint(engine, batch, SPRAY_ORDER)
    assert ep.lift().seeds == () and ep.g_values().shape == (3, 1, 1)
    with pytest.raises(SingularMetricError):
        ep.ginv()


def test_side_points_are_evaluated_as_batches(monkeypatch):
    # The fiber-rescaled copies of homogeneity are one batch, and the
    # fd-crosscheck stencils at most one batch per stencil; no side point is
    # evaluated on its own.  Every batch is inverted as a whole, and the F^2
    # oracle of fd-crosscheck evaluates one batch of floats.
    import dwfinsler.engine as engine
    import dwfinsler.suites as suites
    built = []
    inverted = []
    evaluated = []

    class Counted(WorkPoint):
        def __init__(self, ws, sample, order=LIFT_ORDER):
            super().__init__(ws, sample, order)
            built.append((sample, order))

    def counted_inverse(g0):
        if g0.ndim == 2:
            inverted.append(g0)
        return invert(g0)

    F2 = ProductConfig.F2

    def counted_F2(cfg, view):
        evaluated.append({type(t) for t in view.x + view.u + view.y + view.v})
        return F2(cfg, view)

    monkeypatch.setattr(suites, "WorkPoint", Counted)
    monkeypatch.setattr(engine, "WorkPoint", Counted)
    monkeypatch.setattr(engine, "invert", counted_inverse)
    monkeypatch.setattr(ProductConfig, "F2", counted_F2)
    spec = fixture_runspec("FIX-R", suites=("homogeneity",))
    workspace(spec.config).clear()
    suites.run_suites(spec)
    side = [s for s, order in built if order != LIFT_ORDER]
    assert all(isinstance(s, SampleBatch) for s in side)
    assert [len(s) for s in side] == [3 * spec.sampling.count]
    built.clear()
    evaluated.clear()
    n = spec.config.n
    suites.run_suites(fixture_runspec("FIX-R", suites=("fd-crosscheck",)))
    side = [s for s, order in built if order != LIFT_ORDER]
    # The spray: n stencils of order 1, 2 and 3 each; H: 2n of order 1.
    assert 1 <= len(side) <= 5 * n
    assert all(isinstance(s, SampleBatch) for s in side)
    assert sum(len(s) for s in side) == n * (4 + 16 + 64) + 2 * n * 4
    # F^2 on floats: one batch, and never a single point of plain floats.
    assert sum(kinds == {np.ndarray} for kinds in evaluated) == 1
    assert {float} not in evaluated
    # A whole battery evaluates its sampled points as one strip at LIFT_ORDER.
    for name, count in (("FIX-1D", 150), ("FIX-R", 25)):
        spec = fixture_runspec(name, count=count)
        ws = workspace(spec.config)
        ws.clear()
        built.clear()
        try:
            assert suites.run_suites(spec).ok
        finally:
            ws.clear()
        strips = [s for s, order in built if order == LIFT_ORDER]
        assert len(strips) == 1 and isinstance(strips[0], SampleBatch), name
        assert len(strips[0]) == count
        # No sample of a batch is inverted on its own.
        assert not inverted, name


def _fd_reference(field, point, dirs):
    """``fd_partial`` as nested central differences with Richardson
    extrapolation, evaluating the field on plain floats, one point at a time;
    the directions nest in sorted order."""
    dirs = sorted(dirs)
    step = FD_STEPS[max(len(dirs), 1)]

    def shifted(groups, coord, delta):
        out = list(groups)
        group = groups[coord.block]
        out[coord.block] = group[:coord.offset] + (group[coord.offset] + delta,) \
            + group[coord.offset + 1:]
        return out

    def differentiate(fun, coord):
        def estimate(groups):
            h = step * (1.0 + abs(groups[coord.block][coord.offset]))

            def central(hh):
                return (fun(shifted(groups, coord, hh))
                        - fun(shifted(groups, coord, -hh))) / (2.0 * hh)

            return (4.0 * central(h / 2.0) - central(h)) / 3.0

        return estimate

    def fun(groups):
        value = field(CoordView(TangentSample(*groups)))
        assert isinstance(value, float)
        return value

    for coord in reversed(dirs):
        fun = differentiate(fun, coord)
    return fun((point.x, point.u, point.y, point.v))


def _fd_cases():
    """(name, config, points): every fixture, the exponential warp of
    asym-1x3 and the cubic entries of cubic-2x2."""
    return [case for case in CASES if case[0] != "asym-3x2"]


@pytest.mark.parametrize("case", _fd_cases(), ids=lambda c: c[0])
def test_batched_fd_partials_equal_the_float_reference_bit_for_bit(case):
    _, cfg, points = case
    rng = np.random.default_rng(3)
    coords = cfg.base + cfg.fiber
    probes = [(p, tuple(coords[i] for i in rng.integers(0, len(coords), order)))
              for p in points for order in (0, 1, 1, 2, 2, 3, 3)]
    want = [_fd_reference(cfg.F2, p, dirs) for p, dirs in probes]
    # One batch over probes of every order, as fd-crosscheck evaluates them,
    # and each probe alone through the public fd_partial.
    got = fd_partials(lambda batch: cfg.F2(CoordView(batch)), probes)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    for (p, dirs), value in zip(probes, want):
        assert np.float64(fd_partial(cfg.F2, p, dirs)).tobytes() == np.float64(value).tobytes()


def _fd_crosscheck_by_probe(spec, points):
    """fd-crosscheck with each probe built alone as a ``(point, dirs)`` pair
    through ``fd_partials``: the reference for the suite's arrays."""
    from dwfinsler.suites import _point_doc, _Tracker, _relative
    cfg = spec.config
    ws = workspace(cfg)
    rng = random.Random(spec.sampling.seed + 1)
    coords = list(cfg.base) + list(cfg.fiber)
    fib, n = cfg.fiber, cfg.n
    subset = points[:min(3, len(points))]
    strips = list(ws.strips(points))
    held = [(wp, k) for wp in strips for k in range(len(wp.samples))][:len(subset)]
    g = np.array([wp.product.g_values()[k] for wp, k in held])
    at = [p for p in subset for _ in range(8)]
    # Each probe draws its order, 1 to 3, then that many coordinates.
    dirs = [tuple(coords[rng.randrange(len(coords))] for _ in range(rng.randrange(1, 4)))
            for _ in at]
    fd = fd_partials(lambda batch: cfg.F2(CoordView(batch)),
                     list(zip(at, dirs))
                     + [(p, (fib[a], fib[b])) for p in subset for a, b in np.ndindex(n, n)])
    jet = np.zeros(len(at))
    for i, d in enumerate(dirs):
        wp, k = held[i // 8]
        lift = wp.product.lift()
        if set(d) <= set(lift.seeds):
            jet[i] = lift[k].partial(d)
    f2tr = _Tracker()
    f2tr.feed_all((abs(jet - fd[:len(at)]) / (1.0 + abs(jet))).reshape(len(subset), 8), subset,
                  lambda k, j: f"dirs={dirs[8 * k + j]}")
    gtr = _Tracker()
    gtr.feed_all(_relative(g, 0.5 * np.reshape(fd[len(at):], g.shape)), subset)
    p = points[0]
    ep = strips[0].product
    N = ep.nonlinear_connection_values()[0]
    Gf = ep.connection_fiber_values()[0]
    B = ep.berwald()[0]
    pairs, triples = [], []
    for _ in range(n):
        pairs.append(tuple(rng.randrange(n) for _ in range(2)))
        triples.append(tuple(rng.randrange(n) for _ in range(3)))
    fd = np.array(fd_partials(
        lambda batch: WorkPoint(ws, batch, SPRAY_ORDER).product.spray_values(),
        [(p, (y,)) for y in fib] + [(p, tuple(fib[i] for i in t)) for t in pairs + triples]))
    diag = np.arange(n)
    conn, connfd, berw = _Tracker(), _Tracker(), _Tracker()
    conn.feed_all(_relative(N, fd[:n].T)[None], [p])
    connfd.feed_all(_relative(Gf[(diag, *np.transpose(pairs))],
                              np.diagonal(fd[n:2 * n]))[None], [p])
    berw.feed_all(_relative(B[(diag, *np.transpose(triples))],
                            np.diagonal(fd[2 * n:]))[None], [p])
    a, b, c = 0, 0, cfg.n1
    dH = ep.delta(ep.horizontal_coefficients())[0]
    fd = np.array(fd_partials(
        lambda batch: WorkPoint(ws, batch, VALUE_ORDER).product.horizontal_values()[..., a, b, c],
        [(p, (y,)) for y in fib] + [(p, (x,)) for x in cfg.base]))
    fd_fiber, fd_delta = fd[:n], fd[n:]
    for e in range(n):
        fd_delta = fd_delta - N[e] * fd_fiber[e]
    hdelta = _Tracker()
    hdelta.feed_all(_relative(dH[a, b, c], fd_delta)[None], [p])
    tol = spec.tolerance("fd-crosscheck")
    return [SuiteEntry(name, tr.value, tol, _point_doc(tr.point), tr.note) for name, tr in (
        ("squared-norm-partials", f2tr), ("fundamental-tensor", gtr),
        ("nonlinear-connection", conn), ("connection-fiber-derivative", connfd),
        ("berwald", berw), ("horizontal-delta", hdelta))]


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fd_crosscheck_on_probe_arrays_equals_it_probe_by_probe(case, seed):
    from dwfinsler.suites import run_suites
    name, cfg, _ = case
    doc = {d["label"]: d for d in (ASYM_1x3, ASYM_3x2, CUBIC_2x2)}.get(name)
    if doc is None:
        doc = fixture_document(name)
    spec = parse_spec(doc, seed=seed, count=4, suites=["fd-crosscheck"])
    (result,) = run_suites(spec).suites
    got = result.entries
    # The reference draws its own points, so it also holds the suite to the
    # sample's draw order.
    want = _fd_crosscheck_by_probe(spec, [TangentSample(*p) for p in _per_point_samples(spec)])
    assert [e.name for e in got] == [e.name for e in want]
    for g, w in zip(got, want):
        assert float.hex(g.residual) == float.hex(w.residual), g.name
        assert (g.point, g.note, g.passed) == (w.point, w.note, w.passed), g.name


def test_array_sqrt_and_exp_act_as_on_each_float():
    for values in ([4.0, 2.5], [1.0, -0.5], [0.0, 1.0], [2.0, -0.0], [math.nan, 1.0]):
        arr = np.array(values)
        alone = []
        for t in values:
            try:
                alone.append(sqrt(t))
            except DomainError:
                alone.append(None)
        if None in alone:
            with pytest.raises(DomainError):
                sqrt(arr)
        else:
            assert sqrt(arr).tobytes() == np.array(alone).tobytes()
    values = np.random.default_rng(5).uniform(-30.0, 30.0, 500)
    assert exp(values).tobytes() == np.array([math.exp(t) for t in values.tolist()]).tobytes()
    # Where math.exp overflows, exp rejects the value as sqrt rejects a
    # non-positive one.
    with pytest.raises(OverflowError):
        math.exp(1000.0)
    with pytest.raises(DomainError):
        exp(np.array([1.0, 1000.0]))


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_a_battery_builds_each_strip_once(name, monkeypatch):
    # The battery walks its strips once and every suite reads each strip in
    # turn, so each strip is built once; a suite that asked for another split
    # of the points, or for one sample, would have them rebuilt and fail here.
    import dwfinsler.engine as engine
    from dwfinsler.suites import run_suites
    built = []

    class Counted(WorkPoint):
        def __init__(self, ws, sample, order=LIFT_ORDER):
            super().__init__(ws, sample, order)
            built.append(sample)

    monkeypatch.setattr(engine, "WorkPoint", Counted)
    monkeypatch.setattr(engine, "STRIP_COEFFICIENTS", 1000)  # several strips each
    spec = fixture_runspec(name)
    ws = workspace(spec.config)
    ws.clear()
    try:
        assert run_suites(spec).ok, name
        battery = len(built)
        strips = list(ws.strips(sample_points(spec)))
    finally:
        ws.clear()
    assert len(strips) > 1, name
    assert battery == len(strips), name
