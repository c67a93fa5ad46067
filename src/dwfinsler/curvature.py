"""Curvature tensors of the doubly warped product, read from :data:`core.TENSORS`."""

from __future__ import annotations

from .blocks import BlockTensor
from .core import tensor
from .metrics import ProductConfig, TangentSample


def berwald_curvature(cfg: ProductConfig, p: TangentSample) -> BlockTensor:
    """Third fiber derivative of the spray, B[a][b][c][d]."""
    return tensor(cfg, p, "berwald")


def hh_curvature(cfg: ProductConfig, p: TangentSample) -> BlockTensor:
    """Horizontal curvature of the Berwald-type connection, R[b][a][c][d]."""
    return tensor(cfg, p, "hh")


def riemann_map(cfg: ProductConfig, p: TangentSample) -> BlockTensor:
    """The fiber-quadratic curvature endomorphism R[a][b] of the spray."""
    return tensor(cfg, p, "riemann-map")
