"""A batch of samples is one engine point with a leading sample axis: each
sample of it has the bits, and the errors, of its own evaluation."""

import numpy as np
import pytest

from dwfinsler import fixture
from dwfinsler.engine import (SPRAY_ORDER, VALUE_ORDER, EnginePoint, FinslerEngine,
                              WorkPoint, workspace)
from dwfinsler.coords import base1, fiber1
from dwfinsler.errors import DomainError, SingularMetricError, SlitConditionError
from dwfinsler.jets import sqrt
from dwfinsler.linalg import invert_matrix
from dwfinsler.metrics import SampleBatch, TangentSample
from dwfinsler.runspec import fixture_runspec, parse_spec, sample_points

from conftest import ALL_FIXTURES
from test_asymmetric import ASYM_1x3, ASYM_3x2


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
                          "horizontal_coefficients")}


@pytest.mark.parametrize("order", [SPRAY_ORDER, VALUE_ORDER])
@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_a_batch_equals_its_samples_bit_for_bit(case, order):
    _, cfg, points = case
    ws = workspace(cfg)
    batch = WorkPoint(ws, SampleBatch.of(points), order)
    for k, p in enumerate(points):
        single = WorkPoint(ws, p, order)
        for engine in ("product", "factor1", "factor2"):
            got, want = getattr(batch, engine), getattr(single, engine)
            for name in _TENSORS[order]:
                b, s = getattr(got, name)(), getattr(want, name)()
                assert b.ctx is s.ctx and b.shape == (len(points),) + s.shape, name
                assert b.c[k].tobytes() == s.c.tobytes(), (engine, name)
            assert got.g_condition()[k] == want.g_condition()


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
    # evaluated on its own.
    import dwfinsler.suites as suites
    built = []

    class Counted(WorkPoint):
        def __init__(self, ws, sample, order):
            super().__init__(ws, sample, order)
            built.append(sample)

    monkeypatch.setattr(suites, "WorkPoint", Counted)
    spec = fixture_runspec("FIX-R", suites=("homogeneity",))
    suites.run_suites(spec)
    assert all(isinstance(s, SampleBatch) for s in built)
    assert [len(s) for s in built] == [3 * spec.sampling.count]
    built.clear()
    n = spec.config.n
    suites.run_suites(fixture_runspec("FIX-R", suites=("fd-crosscheck",)))
    # The spray: n stencils of order 1, 2 and 3 each; H: 2n of order 1.
    assert 1 <= len(built) <= 5 * n
    assert all(isinstance(s, SampleBatch) for s in built)
    assert sum(len(s) for s in built) == n * (4 + 16 + 64) + 2 * n * 4
