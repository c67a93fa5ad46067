"""A batch of samples is one engine point with a leading sample axis: each
sample of it has the bits, and the errors, of its own evaluation."""

import numpy as np
import pytest

from dwfinsler import closed_forms, fixture, lifted
from dwfinsler.engine import (LIFT_ORDER, SPRAY_ORDER, VALUE_ORDER, EnginePoint,
                              FinslerEngine, WorkPoint, workspace)
import math

from dwfinsler.coords import MultiIndex, base1, fiber1
from dwfinsler.errors import DomainError, SingularMetricError, SlitConditionError
from dwfinsler.jets import FD_DEFAULT_STEPS, CoordView, exp, fd_partial, fd_partials, sqrt
from dwfinsler.linalg import invert_matrix
from dwfinsler.metrics import (CustomFactor, EuclideanFactor, ProductConfig, SampleBatch,
                               TangentSample)
from dwfinsler.runspec import fixture_runspec, parse_spec, sample_points

from conftest import ALL_FIXTURES
from test_asymmetric import ASYM_1x3, ASYM_3x2
from test_report_bytes import CUBIC_2x2


def _cases():
    """(name, config, points) of every fixture and both asymmetric documents."""
    out = [(name, fixture(name), sample_points(fixture_runspec(name, count=3)))
           for name in ALL_FIXTURES]
    for doc in (ASYM_1x3, ASYM_3x2):
        spec = parse_spec(doc)
        out.append((doc["label"], spec.config, sample_points(spec)[:3]))
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


def _suite_arrays(wp) -> dict:
    """Every array a suite reads off a LIFT_ORDER work point, beyond the engine jets."""
    out = {f"{e}.{name}": getattr(getattr(wp, e), name)()
           for e in ("product", "factor1", "factor2") for name in _ARRAYS}
    ep = wp.product
    out["delta H"] = ep.delta(ep.horizontal_coefficients())
    for which in (1, 2):
        out[f"warp {which}"] = np.asarray(wp.warp_sq(which))
        out[f"warp gradient {which}"] = wp.warp_gradient(which)
        out[f"grad warp norm {which}"] = np.asarray(wp.grad_warp_norm_sq(which))
    q = closed_forms.Ingredients(wp)
    families = {"spray": closed_forms.spray_blocks(wp, q),
                "N": closed_forms.nonlinear_connection_blocks(wp, q),
                "Gf": closed_forms.connection_fiber_blocks(wp, q),
                "H": closed_forms.horizontal_blocks(wp, q),
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
            got, want = getattr(batch, engine), getattr(single, engine)
            for name in _TENSORS[order]:
                b, s = getattr(got, name)(), getattr(want, name)()
                assert b.ctx is s.ctx and b.shape == (len(points),) + s.shape, name
                assert b.c[k].tobytes() == s.c.tobytes(), (engine, name)
            assert got.g_condition()[k] == want.g_condition()
        if arrays:
            for name, want in _suite_arrays(single).items():
                assert arrays[name].shape == (len(points),) + want.shape, name
                assert arrays[name][k].tobytes() == want.tobytes(), name


def test_g_condition_is_the_estimate_of_the_value_inverse(p4):
    cfg = fixture("FIX-R")
    ep = WorkPoint(workspace(cfg), p4).product
    assert isinstance(ep.g_condition(), float)
    assert ep.g_condition() == invert_matrix(ep.g_values().tolist())[1]
    points = sample_points(fixture_runspec("FIX-R", count=4))
    batch = WorkPoint(workspace(cfg), SampleBatch.of(points), SPRAY_ORDER).product
    assert batch.g_condition().shape == (4,)
    assert batch.g_condition().tolist() == [invert_matrix(g)[1]
                                            for g in batch.g_values().tolist()]


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


@pytest.mark.parametrize("engine,bad,error", [
    (_SINGULAR_AT_ORIGIN, (0.0, 0.0), SingularMetricError),
    (_NEEDS_POSITIVE_X0, (-0.5, 0.3), DomainError),
], ids=["singular g", "sqrt of a negative"])
def test_one_bad_sample_fails_the_batch_as_it_fails_alone(engine, bad, error):
    good = TangentSample((0.4, -0.2), (0.5,), (1.0, 0.3), (1.0,))
    worse = TangentSample(bad, (0.5,), (1.0, 0.3), (1.0,))
    assert EnginePoint(engine, good, VALUE_ORDER).horizontal_values().shape == (2, 2, 2)
    with pytest.raises(error):
        EnginePoint(engine, worse, VALUE_ORDER).spray()
    batch = SampleBatch.of([good, worse, good])
    with pytest.raises(error):
        EnginePoint(engine, batch, VALUE_ORDER).spray()


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

    def counted_inverse(rows):
        inverted.append(rows)
        return invert_matrix(rows)

    F2 = ProductConfig.F2

    def counted_F2(cfg, view):
        evaluated.append({type(t) for t in view.x + view.u + view.y + view.v})
        return F2(cfg, view)

    monkeypatch.setattr(suites, "WorkPoint", Counted)
    monkeypatch.setattr(engine, "WorkPoint", Counted)
    monkeypatch.setattr(engine, "invert_matrix", counted_inverse)
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


def _fd_reference(field, point, multi):
    """``fd_partial`` as nested central differences with Richardson
    extrapolation, evaluating the field on plain floats, one point at a time."""
    multi = MultiIndex.of(multi)
    step = FD_DEFAULT_STEPS[max(multi.order, 1)]

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

    for coord in reversed(multi.directions):
        fun = differentiate(fun, coord)
    return fun((point.x, point.u, point.y, point.v))


def _fd_cases():
    """(name, config, points): every fixture, the exponential warp of
    asym-1x3 and the cubic entries of cubic-2x2."""
    out = [case for case in CASES if case[0] != "asym-3x2"]
    spec = parse_spec(CUBIC_2x2)
    return out + [(CUBIC_2x2["label"], spec.config, sample_points(spec)[:3])]


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
    with pytest.raises(OverflowError):
        math.exp(1000.0)
    with pytest.raises(OverflowError):
        exp(np.array([1.0, 1000.0]))
