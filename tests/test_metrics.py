import math
import re

import numpy as np
import pytest

from dwfinsler import (ConstantWarp, CustomFactor, EuclideanFactor, ExponentialWarp,
                       PolyQuadraticWarp, ProductConfig, QuadraticFactor, RandersFactor,
                       TangentSample, fixture)
from dwfinsler.blocks import BlockTensor, max_abs
from dwfinsler.closed_forms import block_ranges
from dwfinsler.core import fundamental_tensor, tensor
from dwfinsler.engine import workspace
from dwfinsler.errors import MetricDefinitionError, SlitConditionError
from conftest import region


def F2(cfg, p) -> float:
    return float(tensor(cfg, p, "F2").array)


def block(t: BlockTensor, pattern: str):
    return t.array[block_ranges(pattern, t.n1, t.n2)]


def test_plain_product_norm():
    cfg = ProductConfig(EuclideanFactor(1), EuclideanFactor(1))
    p = TangentSample((0.0,), (0.0,), (3.0,), (4.0,))
    assert F2(cfg, p) == pytest.approx(25.0)


def test_warped_norm_hand_value():
    # f2 = 2, f1 = 1, F1 = 3, F2 = 4  ->  4*9 + 1*16 = 52
    cfg = ProductConfig(EuclideanFactor(1), EuclideanFactor(1),
                        ConstantWarp(1.0), ConstantWarp(2.0))
    p = TangentSample((0.0,), (0.0,), (3.0,), (4.0,))
    assert F2(cfg, p) == pytest.approx(52.0)


def test_fix1d_norm(fix1d, p1d):
    assert F2(fix1d, p1d) == pytest.approx(3.0)


def test_slit_condition_enforced():
    with pytest.raises(SlitConditionError):
        TangentSample((0.0,), (0.0,), (0.0,), (1.0,))
    with pytest.raises(SlitConditionError):
        TangentSample((0.0,), (0.0,), (1.0,), (1e-13,))


def test_spec_validation_errors():
    with pytest.raises(MetricDefinitionError):
        RandersFactor(2, EuclideanFactor(2), (1.2, 0.0))
    with pytest.raises(MetricDefinitionError, match="base must be Riemannian"):
        RandersFactor(2, RandersFactor(2, EuclideanFactor(2), (0.1, 0.0)), (0.1, 0.0))
    with pytest.raises(MetricDefinitionError):
        PolyQuadraticWarp((-0.5,))
    with pytest.raises(MetricDefinitionError):
        ConstantWarp(0.0)
    asym = ((((1.0, (0, 0)),), ((1.0, (0, 0)),)),
            (((2.0, (0, 0)),), ((1.0, (0, 0)),)))
    with pytest.raises(MetricDefinitionError):
        QuadraticFactor(2, asym)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    lambda: ConstantWarp(NAN), lambda: ConstantWarp(INF), lambda: ConstantWarp(-INF),
    lambda: PolyQuadraticWarp((NAN,)), lambda: PolyQuadraticWarp((1.0, INF)),
    lambda: ExponentialWarp(NAN), lambda: ExponentialWarp(-INF),
    lambda: RandersFactor(2, EuclideanFactor(2), (NAN, 0.0)),
    lambda: RandersFactor(2, EuclideanFactor(2), (0.1, INF)),
    lambda: EuclideanFactor(2.5), lambda: EuclideanFactor(True), lambda: EuclideanFactor(0),
    lambda: QuadraticFactor(1.0, ((((1.0, (0,)),),),)),
    lambda: RandersFactor(True, EuclideanFactor(1), (0.1,)),
    lambda: CustomFactor(0, lambda pos, fib: fib[0] * fib[0]),
    lambda: ExponentialWarp(0.3, -1), lambda: ExponentialWarp(0.3, True),
    lambda: ExponentialWarp(0.3, 1.0),
], ids=["const-nan", "const-inf", "const-neg-inf", "poly-nan", "poly-inf", "exp-nan",
        "exp-neg-inf", "randers-nan", "randers-inf", "dim-float", "dim-bool", "dim-zero",
        "quadratic-dim-float", "randers-dim-bool", "custom-dim-zero", "exp-axis-negative",
        "exp-axis-bool", "exp-axis-float"])
def test_spec_constructors_fail_closed_on_non_finite_parameters(make):
    # Each guard is written so that a NaN fails it, as an out-of-range value does.
    with pytest.raises(MetricDefinitionError):
        make()


@pytest.mark.parametrize("factor1, warp1, warp2", [
    (EuclideanFactor(2), ExponentialWarp(0.3, 5), ConstantWarp()),
    (EuclideanFactor(2), ExponentialWarp(0.3, 2), ConstantWarp()),
    (EuclideanFactor(2), ConstantWarp(), ExponentialWarp(0.3, 1)),
    (EuclideanFactor(2), PolyQuadraticWarp((1.0, 2.0, 3.0)), ConstantWarp()),
    (EuclideanFactor(2), PolyQuadraticWarp((1.0,)), ConstantWarp()),
    (EuclideanFactor(2), ConstantWarp(), PolyQuadraticWarp(())),
    (EuclideanFactor(1), ConstantWarp(), PolyQuadraticWarp((1.0, 1.0))),
], ids=["exp-axis-5-of-2", "exp-axis-2-of-2", "exp-axis-1-of-1", "poly-3-of-2",
        "poly-1-of-2", "poly-0-of-1", "poly-2-of-1"])
def test_a_warp_must_match_the_dimension_of_its_factor(factor1, warp1, warp2):
    # Each warp reads the base of its own factor; a library caller that builds
    # one for another dimension is refused, as parse_spec refuses a document.
    with pytest.raises(MetricDefinitionError):
        ProductConfig(factor1, EuclideanFactor(1), warp1, warp2)


def test_warps_that_match_their_factors_are_accepted():
    cfg = ProductConfig(EuclideanFactor(2), EuclideanFactor(1),
                        ExponentialWarp(0.3, 1), PolyQuadraticWarp((0.5,)))
    p = TangentSample((0.4, -0.2), (0.5,), (1.0, 0.3), (1.0,))
    g, ginv = fundamental_tensor(cfg, p)
    assert g.array.shape == ginv.array.shape == (3, 3)


def test_quadratic_positive_definiteness_checked_lazily():
    # entries: diag(1 - x0, 1); positive definite only while x0 < 1
    one = ((1.0, (0, 0)),)
    decreasing = ((1.0, (0, 0)), (-1.0, (1, 0)))
    factor = QuadraticFactor(2, ((decreasing, ()), ((), one)))
    cfg = ProductConfig(factor, EuclideanFactor(1))
    good = TangentSample((0.0, 0.0), (0.0,), (1.0, 0.0), (1.0,))
    assert F2(cfg, good) > 0
    bad = TangentSample((2.0, 0.0), (0.0,), (1.0, 0.0), (1.0,))
    with pytest.raises(MetricDefinitionError):
        F2(cfg, bad)


def test_dimension_mismatch_rejected(fixe):
    with pytest.raises(MetricDefinitionError):
        F2(fixe, TangentSample((0.0,), (0.0,), (1.0,), (1.0,)))


def test_fundamental_tensor_warped_diagonal():
    cfg = ProductConfig(EuclideanFactor(2), EuclideanFactor(2),
                        ConstantWarp(1.0), ConstantWarp(math.sqrt(2.0)))
    p = TangentSample((0.1, 0.2), (0.3, 0.4), (1.0, 0.5), (0.5, 1.0))
    g, ginv = fundamental_tensor(cfg, p)
    assert np.allclose(g.array, np.diag([2.0, 2.0, 1.0, 1.0]))
    assert np.allclose(ginv.array, np.diag([0.5, 0.5, 1.0, 1.0]))


@pytest.mark.parametrize("name", ["FIX-1D", "FIX-E", "FIX-P", "FIX-R"])
def test_off_blocks_vanish(name):
    cfg = fixture(name)
    for p in region(name, 5):
        g, _ = fundamental_tensor(cfg, p)
        assert np.max(np.abs(block(g, "12"))) <= 1e-12
        assert np.max(np.abs(block(g, "21"))) <= 1e-12
        assert np.max(np.abs(g.array - g.array.T)) == 0.0


def test_product_case_direct_sum(fixp, p4):
    g, _ = fundamental_tensor(fixp, p4)
    wp = workspace(fixp).at(p4)
    assert np.allclose(block(g, "11"), wp.factor1.g_values())
    assert np.allclose(block(g, "22"), wp.factor2.g_values())


@pytest.mark.parametrize("lam", [0.5, 2.0, 7.0])
def test_metric_fiber_homogeneity(fixr, lam):
    for p in region("FIX-R", 4):
        g1, _ = fundamental_tensor(fixr, p)
        scaled = TangentSample(p.x, p.u, tuple(lam * t for t in p.y),
                               tuple(lam * t for t in p.v))
        g2, _ = fundamental_tensor(fixr, scaled)
        assert np.max(np.abs(g1.array - g2.array)) <= 1e-10


def test_angular_annihilates_fiber(fixr):
    for p in region("FIX-R", 4):
        h = tensor(fixr, p, "angular")
        yv = np.array(p.y + p.v)
        assert np.max(np.abs(h.array @ yv)) <= 1e-10


def test_angular_rank_one_in_1d_product():
    cfg = ProductConfig(EuclideanFactor(1), EuclideanFactor(1))
    p = TangentSample((0.0,), (0.0,), (0.8,), (0.6,))
    h = tensor(cfg, p, "angular")
    eigs = np.linalg.eigvalsh(h.array)  # independent rank oracle
    assert np.sum(np.abs(eigs) > 1e-12) == 1


def test_angular_factor_component_vanishes_along_pole():
    # A Euclidean plane as first factor: its own angular metric has h_11 = 0
    # along y = (1, 0); the product embedding with a tiny dummy fiber agrees
    # to the slit floor.
    cfg = ProductConfig(EuclideanFactor(2), EuclideanFactor(1))
    p = TangentSample((0.0, 0.0), (0.0,), (1.0, 0.0), (1e-6,))
    ep = workspace(cfg).at(p).factor1
    g = ep.g_values()
    y = np.array(p.y)
    y_low = g @ y
    h_factor = g - np.outer(y_low, y_low) / ep.F2_value()
    assert h_factor[0, 0] == pytest.approx(0.0, abs=1e-15)
    h = tensor(cfg, p, "angular")
    assert abs(h.array[0, 0]) <= 1e-10


def test_cartan_vanishes_iff_riemannian(fixe, fixr):
    for p in region("FIX-E", 4):
        assert max_abs(tensor(fixe, p, "cartan").array) <= 1e-12
    worst = max(max_abs(tensor(fixr, p, "cartan").array) for p in region("FIX-R", 4))
    assert worst > 1e-3


def test_cartan_blocks(fixr):
    for p in region("FIX-R", 4):
        C = tensor(fixr, p, "cartan")
        for pattern in ("112", "121", "211", "122", "212", "221"):
            assert np.max(np.abs(block(C, pattern))) <= 1e-12
        wp = workspace(fixr).at(p)
        f1sq, f2sq = wp.warp_sq(1), wp.warp_sq(2)
        assert np.allclose(block(C, "111"), f2sq * wp.factor1.cartan(), atol=1e-9)
        assert np.allclose(block(C, "222"), f1sq * wp.factor2.cartan(), atol=1e-9)
        yv = np.array(p.y + p.v)
        assert np.max(np.abs(np.einsum("abc,c->ab", C.array, yv))) <= 1e-10


def test_mean_cartan_matches_factor(fixr):
    for p in region("FIX-R", 4):
        I = tensor(fixr, p, "mean-cartan")
        wp = workspace(fixr).at(p)
        assert np.allclose(block(I, "2"), wp.factor2.mean_cartan(), atol=1e-9)
        assert np.allclose(block(I, "1"), wp.factor1.mean_cartan(), atol=1e-9)


def test_matsumoto_riemannian_vanishes(fixe):
    for p in region("FIX-E", 3):
        assert max_abs(tensor(fixe, p, "matsumoto").array) <= 1e-12


def test_matsumoto_contractions(fixr):
    from dwfinsler.closed_forms import matsumoto_contraction_rhs
    n1 = fixr.n1
    for p in region("FIX-R", 4):
        M = tensor(fixr, p, "matsumoto").array
        y = np.array(p.y)
        lhs = np.einsum("j,k,ajk->a", y, y, M[n1:, :n1, :n1])
        rhs = matsumoto_contraction_rhs(workspace(fixr).at(p))
        assert np.max(np.abs(lhs - rhs)) <= 1e-8
        assert np.max(np.abs(lhs)) > 1e-4
        yv = np.array(p.y + p.v)
        assert abs(np.einsum("a,b,c,abc->", yv, yv, yv, M)) <= 1e-10


def test_matsumoto_normalization_uses_product_dimension(fixr, p4):
    # Rebuild the torsion with the product dimension by hand; the library
    # value must match exactly (the mixed contraction identity only closes
    # with this normalization, which test_matsumoto_contractions pins down).
    C = tensor(fixr, p4, "cartan").array
    I = tensor(fixr, p4, "mean-cartan").array
    h = tensor(fixr, p4, "angular").array
    n = fixr.n1 + fixr.n2
    expected = C - (np.einsum("a,bc->abc", I, h) + np.einsum("b,ac->abc", I, h)
                    + np.einsum("c,ab->abc", I, h)) / (n + 1)
    assert np.array_equal(tensor(fixr, p4, "matsumoto").array, expected)


def test_block_tensor_validation():
    with pytest.raises(ValueError):
        BlockTensor(np.zeros((2, 2)), ("up",), 1, 1)
    with pytest.raises(ValueError):
        BlockTensor(np.zeros((2, 3)), ("up", "low"), 1, 1)
    with pytest.raises(ValueError):
        BlockTensor(np.zeros((2,) * 5), ("up",) * 5, 1, 1)
    assert BlockTensor(np.asarray(3.0), (), 2, 2).array.ndim == 0  # the squared norm


@pytest.mark.parametrize("shape, variance, message", [
    ((2, 2), ("up",), "variance tags must match the tensor rank"),
    ((3,), ("up", "low"), "variance tags must match the tensor rank"),
    ((2,) * 5, ("up",) * 5, "supported ranks are 0..4"),
    ((2, 2), ("up", "down"), "variance tags must be 'up' or 'low'"),
    ((2,), ("Up",), "variance tags must be 'up' or 'low'"),
    ((2, 3), ("up", "low"), "every axis must span the combined index"),
    ((3, 3, 3), ("low",) * 3, "every axis must span the combined index"),
])
def test_block_tensor_errors_keep_their_messages(shape, variance, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BlockTensor(np.zeros(shape), variance, 1, 1)


def test_classification():
    assert fixture("FIX-P").classification() == "product"
    assert fixture("FIX-R").classification() == "doubly-warped"
    half = ProductConfig(EuclideanFactor(1), EuclideanFactor(1),
                         PolyQuadraticWarp((1.0,)), ConstantWarp())
    assert half.classification() == "warped"
