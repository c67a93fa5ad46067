import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwfinsler import MultiIndex, TangentSample, base1, fiber1, fiber2
from dwfinsler.errors import CapabilityError, DomainError
from dwfinsler.jets import Jet, context, fd_partial, jet_lift

P = TangentSample((3.0,), (1.0,), (1.0,), (2.0,))
X = base1(0)
Y = fiber1(0)
V = fiber2(0)


def test_polynomial_exactness_square():
    jet = jet_lift(lambda c: c.x[0] ** 2, P, (X,), 2)
    assert jet.value == 9.0
    assert jet.partial([X]) == 6.0
    assert jet.partial([X, X]) == 2.0


def test_constant_field():
    jet = jet_lift(lambda c: 5.0, P, (X, Y), 3)
    assert jet.value == 5.0
    assert all(v == 0.0 for m, v in jet.coeffs().items() if m.order > 0)


def test_mixed_partial_hand_value():
    # f(y, v) = y^2 v at (y, v) = (1, 2): d^2/dy^2 d/dv f = 2
    p = TangentSample((0.0,), (0.0,), (1.0,), (2.0,))
    jet = jet_lift(lambda c: c.y[0] ** 2 * c.v[0], p, (Y, V), 3)
    assert jet.partial([Y, Y, V]) == pytest.approx(2.0, abs=1e-14)
    assert jet.partial([Y, V]) == pytest.approx(2.0, abs=1e-14)  # 2y at y=1
    assert jet.partial([Y]) == pytest.approx(4.0, abs=1e-14)  # 2yv at (1,2)


def test_sqrt_of_square_is_identity():
    p = TangentSample((2.0,), (1.0,), (1.0,), (1.0,))
    jet = jet_lift(lambda c: c.x[0] ** 2, p, (X,), 2).sqrt()
    assert jet.value == pytest.approx(2.0)
    assert jet.partial([X]) == pytest.approx(1.0, abs=1e-14)
    assert jet.partial([X, X]) == pytest.approx(0.0, abs=1e-14)


def test_mul_identity_and_self_division():
    g = jet_lift(lambda c: c.x[0] ** 3 + 2.0 * c.x[0], P, (X,), 3)
    one = Jet.constant(g.ctx, 1.0)
    assert np.allclose((one * g).c, g.c)
    f = jet_lift(lambda c: 1.0 + c.x[0] ** 2, P, (X,), 3)
    q = f / f
    assert q.value == pytest.approx(1.0)
    assert max(abs(v) for m, v in q.coeffs().items() if m.order > 0) < 1e-14


def test_exp_matches_analytic():
    jet = jet_lift(lambda c: c.x[0], P, (X,), 4).exp()
    for k in range(5):
        assert jet.partial([X] * k if k else []) == pytest.approx(math.exp(3.0), rel=1e-13)


def test_pow_int_matches_factorials():
    jet = jet_lift(lambda c: c.x[0], P, (X,), 4) ** 5
    for k in range(5):
        expect = math.perm(5, k) * 3.0 ** (5 - k)
        assert jet.partial([X] * k if k else []) == pytest.approx(expect, rel=1e-13)


def test_capability_and_domain_errors():
    with pytest.raises(CapabilityError):
        jet_lift(lambda c: c.x[0], P, (X,), 7)
    with pytest.raises(CapabilityError):
        MultiIndex.of([X] * 7)
    neg = Jet.constant(context((X,), 2), -1.0)
    with pytest.raises(DomainError):
        neg.sqrt()
    zero = Jet.constant(context((X,), 2), 0.0)
    with pytest.raises(DomainError):
        neg / zero


def test_partial_query_beyond_seeds_rejected():
    jet = jet_lift(lambda c: c.x[0], P, (X,), 2)
    with pytest.raises(ValueError):
        jet.partial([Y])
    with pytest.raises(ValueError):
        jet.partial([X, X, X])


def test_derive_and_restrict_consistency():
    field = lambda c: c.x[0] ** 3 * c.y[0] ** 2
    full = jet_lift(field, P, (X, Y), 4)
    derived = full.derive(X)
    direct = jet_lift(lambda c: 3.0 * c.x[0] ** 2 * c.y[0] ** 2, P, (X, Y), 3)
    assert np.allclose(derived.c, direct.c)
    small = full.restrict((X,), 2)
    assert small.partial([X, X]) == pytest.approx(full.partial([X, X]))


def test_fd_examples():
    cubic = lambda c: c.x[0] ** 3
    p = TangentSample((1.0,), (1.0,), (1.0,), (1.0,))
    assert fd_partial(cubic, p, [X, X], step=1e-3) == pytest.approx(6.0, abs=1e-6)
    assert fd_partial(lambda c: 4.2, p, [X]) == pytest.approx(0.0, abs=1e-10)
    q = TangentSample((1.0,), (1.0,), (2.0,), (1.0,))
    assert fd_partial(lambda c: c.y[0] ** 2, q, [Y]) == pytest.approx(4.0, abs=1e-8)
    with pytest.raises(CapabilityError):
        fd_partial(cubic, p, [X, X, X, X])
    with pytest.raises(ValueError):
        fd_partial(cubic, p, [X], step=-1.0)


@st.composite
def _poly_coeffs(draw):
    return draw(st.lists(st.floats(-3, 3, allow_nan=False), min_size=6, max_size=6))


@given(_poly_coeffs(), st.permutations([X, X, Y]))
@settings(max_examples=40, deadline=None)
def test_mixed_partial_symmetry_bit_identical(coeffs, dirs):
    a, b, c, d, e, f = coeffs

    def field(v):
        x, y = v.x[0], v.y[0]
        return a + b * x + c * y + d * x * y + e * x ** 2 * y + f * x * y ** 2

    jet = jet_lift(field, P, (X, Y), 3)
    reference = jet.partial([X, X, Y])
    assert jet.partial(dirs) == reference  # bit-identical, canonical keying


@given(_poly_coeffs(), _poly_coeffs())
@settings(max_examples=30, deadline=None)
def test_product_chain_consistency(cf, cg):
    def poly(coeffs):
        a, b, c, d, e, f = coeffs

        def field(v):
            x, y = v.x[0], v.y[0]
            return a + b * x + c * y + d * x * y + e * x ** 2 + f * y ** 2

        return field

    f, g = poly(cf), poly(cg)
    jf = jet_lift(f, P, (X, Y), 3)
    jg = jet_lift(g, P, (X, Y), 3)
    combined = jet_lift(lambda v: f(v) * g(v), P, (X, Y), 3)
    assert np.allclose((jf * jg).c, combined.c, atol=1e-12)


def test_ad_matches_fd_for_all_metric_forms():
    # One product per declarative factor form, exponential warp included.
    from dwfinsler import (ConstantWarp, CustomFactor, EuclideanFactor,
                           ExponentialWarp, ProductConfig, QuadraticFactor,
                           RandersFactor, fixture)
    poly_one = ((1.0, (0, 0)),)
    poly_x0sq = ((1.0, (0, 0)), (0.5, (2, 0)))
    quad = QuadraticFactor(2, ((poly_x0sq, ()), ((), poly_one)))
    configs = [
        fixture("FIX-R"),
        ProductConfig(quad, EuclideanFactor(2), ConstantWarp(1.0),
                      ExponentialWarp(0.3)),
        ProductConfig(
            CustomFactor(2, lambda pos, fib: (fib[0] ** 2 + fib[1] ** 2)
                         * (1.0 + 0.1 * (pos[0] ** 2))),
            RandersFactor(2, EuclideanFactor(2), (0.1, 0.2)),
            ConstantWarp(2.0), ConstantWarp(0.5)),
    ]
    rng = np.random.default_rng(11)
    for cfg in configs:
        coords = list(cfg.base) + list(cfg.fiber)
        for _ in range(6):
            p = TangentSample(tuple(rng.uniform(-0.8, 0.8, cfg.n1)),
                              tuple(rng.uniform(-0.8, 0.8, cfg.n2)),
                              tuple(rng.uniform(0.6, 1.4, cfg.n1)),
                              tuple(rng.uniform(0.6, 1.4, cfg.n2)))
            order = int(rng.integers(1, 4))
            dirs = tuple(coords[i] for i in rng.integers(0, len(coords), order))
            multi = MultiIndex.of(dirs)
            jet = jet_lift(cfg.F2, p, multi.directions, multi.order).partial(multi)
            fd = fd_partial(cfg.F2, p, multi)
            assert abs(jet - fd) <= 1e-5 * (1.0 + abs(jet))
