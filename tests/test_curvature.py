import numpy as np
import pytest

from dwfinsler import (ConstantWarp, EuclideanFactor, PolyQuadraticWarp,
                       ProductConfig, TangentSample, fixture)
from dwfinsler import closed_forms
from dwfinsler.blocks import max_abs
from dwfinsler.connection import frame_brackets
from dwfinsler.curvature import berwald_curvature, hh_curvature, riemann_map
from dwfinsler.suites import _flat_factor, _scalar_flag
from dwfinsler.engine import workspace
from conftest import region


def flat_factor_residual(cfg, p):
    return _flat_factor(workspace(cfg).at(p))


def scalar_flag_residual(cfg, p):
    return _scalar_flag(workspace(cfg).at(p))


def test_berwald_vanishes_for_fiber_quadratic_spray(fix1d):
    # Euclidean factors make the spray a fiber-quadratic polynomial.
    for p in region("FIX-1D", 4):
        assert max_abs(berwald_curvature(fix1d, p).array) == 0.0


def test_berwald_vanishes_on_riemannian_product(fixp, p4):
    assert max_abs(berwald_curvature(fixp, p4).array) == 0.0


def test_berwald_blocks_on_randers(fixr):
    for p in region("FIX-R", 5):
        wp = workspace(fixr).at(p)
        res = closed_forms.compare_blocks(wp.product.berwald(), closed_forms.berwald_blocks(wp),
                                          fixr.n1, fixr.n2)
        assert np.max([max_abs(d) for d in res.values()]) <= 1e-7, res
        B = berwald_curvature(fixr, p)
        for axes in ((0, 2, 1, 3), (0, 1, 3, 2)):
            assert np.max(np.abs(B.array - np.transpose(B.array, axes))) <= 1e-10


def test_berwald_specific_block_oracle(fixr, p4):
    # Direct transcription oracle for the second-factor pure-first-block:
    # it must equal minus the first-factor Cartan tensor contracted with the
    # fiber-inverse-metric gradient of the second warp.
    wp = workspace(fixr).at(p4)
    B = berwald_curvature(fixr, p4).array[closed_forms.block_ranges("2111", fixr.n1, fixr.n2)]
    C1 = wp.factor1.cartan()
    g2inv = wp.factor2.ginv_values()
    w2u = wp.warp_gradient(2)
    expected = -np.einsum("ijk,g->gijk", C1, g2inv @ w2u) / wp.warp_sq(1)
    assert np.allclose(B, expected, atol=1e-7)


def test_berwald_nonzero_on_proper_nonriemannian(fixr):
    worst = max(max_abs(berwald_curvature(fixr, p).array) for p in region("FIX-R", 5))
    assert worst > 1e-3


def test_hh_vanishes_on_flat_product(fixp, p4):
    assert max_abs(hh_curvature(fixp, p4).array) == 0.0


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
    assert max_abs(riemann_map(fixp, p4).array) == 0.0
    R1 = riemann_map(fixe, p4).array
    scaled = TangentSample(p4.x, p4.u, tuple(2.0 * t for t in p4.y),
                           tuple(2.0 * t for t in p4.v))
    R2 = riemann_map(fixe, scaled).array
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
    # Every flag of the plain product is flat: the Riemann map kills each edge.
    R = riemann_map(fixp, p4).array
    for edge in [(1.0, 0.0, 0.0, 0.2), (0.1, -0.5, 0.7, 0.0)]:
        assert np.max(np.abs(R @ np.array(edge))) <= 1e-12


def test_flat_factor_identity(fixe):
    for p in region("FIX-E", 5):
        latin, greek = flat_factor_residual(fixe, p)
        assert max_abs(latin) <= 1e-6
        assert max_abs(greek) <= 1e-6


def test_flat_factor_on_product_degenerates(fixp, p4):
    latin, _ = flat_factor_residual(fixp, p4)
    assert max_abs(latin) <= 1e-8
    assert workspace(fixp).at(p4).grad_warp_norm_sq(2) == pytest.approx(0.0)


def test_flat_factor_constant_second_warp():
    # constant f2 kills the gradient term: product and factor curvatures match
    cfg = ProductConfig(EuclideanFactor(2), EuclideanFactor(2),
                        PolyQuadraticWarp((1.0, 0.0)), ConstantWarp())
    p = TangentSample((0.4, -0.2), (0.5, 0.3), (1.0, 0.3), (0.2, 1.0))
    latin, _ = flat_factor_residual(cfg, p)
    assert workspace(cfg).at(p).grad_warp_norm_sq(2) == pytest.approx(0.0)
    assert max_abs(latin) <= 1e-8


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


def test_curvature_bundle_invariants(fixr, p4):
    R = frame_brackets(fixr, p4)[0].array
    assert np.max(np.abs(R + np.transpose(R, (0, 2, 1)))) == 0.0
    B = berwald_curvature(fixr, p4).array
    assert np.max(np.abs(B - np.transpose(B, (0, 3, 2, 1)))) <= 1e-10
    yv = np.array(p4.y + p4.v)
    contr = np.einsum("b,bacd->acd", yv, hh_curvature(fixr, p4).array)
    assert np.max(np.abs(contr - R)) <= 1e-7
