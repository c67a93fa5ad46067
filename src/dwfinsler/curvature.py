"""Curvature objects of the doubly warped product and their diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closed_forms
from .blocks import BlockTensor
from .engine import workspace
from .errors import PreconditionError
from .metrics import ProductConfig, TangentSample


@dataclass(frozen=True, eq=False)
class CurvatureBundle:
    """All curvature tensors at one point.

    ``hh`` is stored with slots (b, a, c, d): lower b, upper a, and the
    antisymmetric pair (c, d).  ``bracket`` is R[c][a][b], ``berwald`` is
    B[a][b][c][d] (totally symmetric in b, c, d), ``riemann`` is the
    fiber-quadratic curvature endomorphism R[a][b].
    """

    bracket: BlockTensor
    berwald: BlockTensor
    hh: BlockTensor
    riemann: BlockTensor


def berwald_curvature(cfg: ProductConfig, p: TangentSample) -> BlockTensor:
    """Third fiber derivative of the spray, B[a][b][c][d]."""
    wp = workspace(cfg).at(p)
    return BlockTensor(wp.product.berwald(), ("up", "low", "low", "low"),
                       cfg.n1, cfg.n2)


def berwald_block_residuals(cfg: ProductConfig, p: TangentSample) -> dict[str, float]:
    """The ten closed-form factor/warp blocks vs. the generic tensor."""
    wp = workspace(cfg).at(p)
    return closed_forms.compare_blocks(wp.product.berwald(),
                                       closed_forms.berwald_blocks(wp),
                                       cfg.n1, cfg.n2)


def hh_curvature(cfg: ProductConfig, p: TangentSample) -> BlockTensor:
    """Horizontal curvature of the Berwald-type connection, R[b][a][c][d]."""
    wp = workspace(cfg).at(p)
    return BlockTensor(wp.product.hh_curvature(), ("low", "up", "low", "low"),
                       cfg.n1, cfg.n2)


def riemann_map(cfg: ProductConfig, p: TangentSample) -> BlockTensor:
    wp = workspace(cfg).at(p)
    return BlockTensor(wp.product.riemann_map(), ("up", "low"), cfg.n1, cfg.n2)


def curvature_bundle(cfg: ProductConfig, p: TangentSample) -> CurvatureBundle:
    wp = workspace(cfg).at(p)
    n1, n2 = cfg.n1, cfg.n2
    return CurvatureBundle(
        bracket=BlockTensor(wp.product.bracket_curvature_values(),
                            ("up", "low", "low"), n1, n2),
        berwald=BlockTensor(wp.product.berwald(), ("up", "low", "low", "low"), n1, n2),
        hh=BlockTensor(wp.product.hh_curvature(), ("low", "up", "low", "low"), n1, n2),
        riemann=BlockTensor(wp.product.riemann_map(), ("up", "low"), n1, n2),
    )


@dataclass(frozen=True)
class FlagInput:
    """A flag: the sample's fiber vector as flagpole plus a spanning edge."""

    edge: tuple[float, ...]


def flag_curvature(cfg: ProductConfig, p: TangentSample, flag: FlagInput) -> float:
    """Sectional-type curvature of span{fiber, edge} with the fiber as pole."""
    wp = workspace(cfg).at(p)
    g = wp.product.g_values()
    y = wp.product.fiber_values()
    u = np.asarray(flag.edge, dtype=float)
    denom = (y @ g @ y) * (u @ g @ u) - (y @ g @ u) ** 2
    if denom <= 1e-10:
        raise PreconditionError("degenerate flag: the edge does not span a plane with the pole")
    R = wp.product.riemann_map()
    return float(u @ g @ (R @ u)) / denom
