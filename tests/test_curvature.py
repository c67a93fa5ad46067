import numpy as np
import pytest

from dwfinsler import (ConstantWarp, EuclideanFactor, PolyQuadraticWarp,
                       ProductConfig, RandersFactor, TangentSample, fixture)
from dwfinsler.curvature import (FlagInput, berwald_block_residuals,
                                 berwald_curvature, curvature_bundle,
                                 flag_curvature, hh_curvature, riemann_map)
from dwfinsler.suites import flat_factor_residual, scalar_flag_residual
from dwfinsler.engine import workspace
from dwfinsler.errors import PreconditionError
from conftest import region


def test_berwald_vanishes_for_fiber_quadratic_spray(fix1d):
    # Euclidean factors make the spray a fiber-quadratic polynomial.
    for p in region("FIX-1D", 4):
        assert berwald_curvature(fix1d, p).max_abs() == 0.0


def test_berwald_vanishes_on_riemannian_product(fixp, p4):
    assert berwald_curvature(fixp, p4).max_abs() == 0.0


def test_berwald_blocks_on_randers(fixr):
    for p in region("FIX-R", 5):
        res = berwald_block_residuals(fixr, p)
        assert max(res.values()) <= 1e-7, res
        B = berwald_curvature(fixr, p)
        for axes in ((0, 2, 1, 3), (0, 1, 3, 2)):
            assert np.max(np.abs(B.array - np.transpose(B.array, axes))) <= 1e-10


def test_berwald_specific_block_oracle(fixr, p4):
    # Direct transcription oracle for the second-factor pure-first-block:
    # it must equal minus the first-factor Cartan tensor contracted with the
    # fiber-inverse-metric gradient of the second warp.
    wp = workspace(fixr).at(p4)
    B = berwald_curvature(fixr, p4).block("2111")
    C1 = wp.factor1.cartan()
    g2inv = wp.factor2.ginv_values()
    w2u = wp.warp_gradient(2)
    expected = -np.einsum("ijk,g->gijk", C1, g2inv @ w2u) / wp.warp_sq(1)
    assert np.allclose(B, expected, atol=1e-7)


def test_berwald_nonzero_on_proper_nonriemannian(fixr):
    worst = max(berwald_curvature(fixr, p).max_abs() for p in region("FIX-R", 5))
    assert worst > 1e-3


def test_hh_vanishes_on_flat_product(fixp, p4):
    assert hh_curvature(fixp, p4).max_abs() == 0.0


@pytest.mark.parametrize("name", ["FIX-1D", "FIX-E", "FIX-P", "FIX-R"])
def test_fiber_contraction_identity(name):
    cfg = fixture(name)
    for p in region(name, 4):
        ep = workspace(cfg).at(p).product
        hh = ep.hh_curvature()
        lhs = np.einsum("b,bacd->acd", ep.fiber_values(), hh)
        assert np.max(np.abs(lhs - ep.bracket_curvature_values())) <= 1e-7
        assert np.max(np.abs(hh + np.transpose(hh, (0, 1, 3, 2)))) == 0.0


def test_hh_hand_value(fixe):
    # At x = 0, u = (1, 0) the first-factor block is the pure warp shift with
    # coefficient 1/2, independent of the fiber vectors.
    for fib in [((1.0, 0.3), (0.2, 1.0)), ((0.4, -1.2), (0.8, 0.1))]:
        p = TangentSample((0.0, 0.0), (1.0, 0.0), *fib)
        hh = hh_curvature(fixe, p)
        assert hh.array[1, 0, 0, 1] == pytest.approx(0.5, abs=1e-6)


def test_riemann_map_product_and_scaling(fixp, fixe, p4):
    assert riemann_map(fixp, p4).max_abs() == 0.0
    R1 = riemann_map(fixe, p4).array
    R2 = riemann_map(fixe, p4.fiber_scaled(2.0)).array
    assert np.max(np.abs(R2 - 4.0 * R1)) <= 1e-8


def test_riemann_map_consistency_with_hh(fixe):
    for p in region("FIX-E", 4):
        ep = workspace(fixe).at(p).product
        yv = ep.fiber_values()
        alt = np.einsum("d,c,dacb->ab", yv, yv, ep.hh_curvature())
        assert np.max(np.abs(ep.riemann_map() - alt)) <= 1e-6


def test_riemann_map_orthogonality(fixr):
    for p in region("FIX-R", 4):
        ep = workspace(fixr).at(p).product
        yv = ep.fiber_values()
        val = ep.g_values() @ ep.riemann_map() @ yv @ yv
        assert abs(val) <= 1e-7


def test_flag_curvature_flat_product(fixp, p4):
    for edge in [(1.0, 0.0, 0.0, 0.2), (0.1, -0.5, 0.7, 0.0)]:
        assert flag_curvature(fixp, p4, FlagInput(edge)) == pytest.approx(0.0, abs=1e-12)


def test_flag_curvature_span_invariance(fixe, p4):
    edge = (0.3, 1.0, -0.2, 0.1)
    k0 = flag_curvature(fixe, p4, FlagInput(edge))
    k_scaled = flag_curvature(fixe, p4, FlagInput(tuple(3.0 * e for e in edge)))
    pole = p4.y + p4.v
    shifted = tuple(e + 0.7 * t for e, t in zip(edge, pole))
    k_shifted = flag_curvature(fixe, p4, FlagInput(shifted))
    assert k_scaled == pytest.approx(k0, abs=1e-8)
    assert k_shifted == pytest.approx(k0, abs=1e-8)


def test_degenerate_flag_rejected(fixe, p4):
    with pytest.raises(PreconditionError):
        flag_curvature(fixe, p4, FlagInput(p4.y + p4.v))


def test_flat_factor_identity(fixe):
    for p in region("FIX-E", 5):
        rep = flat_factor_residual(fixe, p)
        assert rep.latin_residual <= 1e-6
        assert rep.greek_residual <= 1e-6


def test_flat_factor_on_product_degenerates(fixp, p4):
    rep = flat_factor_residual(fixp, p4)
    assert rep.latin_residual <= 1e-8
    assert rep.shift1 == pytest.approx(0.0)


def test_flat_factor_constant_second_warp():
    # constant f2 kills the gradient term: product and factor curvatures match
    cfg = ProductConfig(EuclideanFactor(2), EuclideanFactor(2),
                        PolyQuadraticWarp((1.0, 0.0)), ConstantWarp())
    p = TangentSample((0.4, -0.2), (0.5, 0.3), (1.0, 0.3), (0.2, 1.0))
    rep = flat_factor_residual(cfg, p)
    assert rep.shift1 == pytest.approx(0.0)
    assert rep.latin_residual <= 1e-8


def test_flat_factor_requires_riemannian_first_factor():
    cfg = ProductConfig(RandersFactor(2, EuclideanFactor(2), (0.3, 0.0)),
                        EuclideanFactor(2))
    p = TangentSample((0.1, 0.2), (0.3, 0.4), (1.0, 0.2), (0.5, 1.0))
    with pytest.raises(PreconditionError):
        flat_factor_residual(cfg, p)


def test_scalar_flag_hand_value(fixe):
    p = TangentSample((0.0, 0.0), (1.0, 0.0), (1.0, 0.3), (0.2, 1.0))
    lam, defect = scalar_flag_residual(fixe, p)
    assert lam == pytest.approx(-0.5, abs=1e-6)
    assert defect <= 1e-6


def test_scalar_flag_constant_warps(fixp, p4):
    lam, defect = scalar_flag_residual(fixp, p4)
    assert lam == pytest.approx(0.0, abs=1e-12)
    assert defect <= 1e-12


def test_scalar_flag_tracks_warp_gradient(fixe):
    for p in region("FIX-E", 5):
        lam, defect = scalar_flag_residual(fixe, p)
        u1, x1 = p.u[0], p.x[0]
        expected = -(u1 ** 2 / (1.0 + u1 ** 2)) / (1.0 + x1 ** 2)
        assert lam == pytest.approx(expected, abs=1e-6)
        assert defect <= 1e-6


def test_scalar_flag_needs_surface_factor():
    cfg = ProductConfig(EuclideanFactor(1), EuclideanFactor(1))
    p = TangentSample((0.0,), (0.0,), (1.0,), (1.0,))
    with pytest.raises(PreconditionError):
        scalar_flag_residual(cfg, p)


def test_curvature_bundle_invariants(fixr, p4):
    bundle = curvature_bundle(fixr, p4)
    R = bundle.bracket.array
    assert np.max(np.abs(R + np.transpose(R, (0, 2, 1)))) == 0.0
    B = bundle.berwald.array
    assert np.max(np.abs(B - np.transpose(B, (0, 3, 2, 1)))) <= 1e-10
    yv = np.array(p4.y + p4.v)
    contr = np.einsum("b,bacd->acd", yv, bundle.hh.array)
    assert np.max(np.abs(contr - R)) <= 1e-7
