"""Sprays, the nonlinear connection, adapted frame brackets and horizontal
coefficients of the doubly warped product.

Their closed-form factor/warp blocks live in :mod:`dwfinsler.closed_forms`;
the ``closed-form-blocks`` suite holds them to these values."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockTensor
from .coords import CoordIndex
from .engine import workspace
from .errors import PreconditionError
from .jets import jet_lift
from .metrics import ProductConfig, TangentSample


@dataclass(frozen=True, eq=False)
class SprayField:
    coefficients: BlockTensor  # rank-1 upper

    @property
    def values(self) -> np.ndarray:
        return self.coefficients.array


def spray(cfg: ProductConfig, p: TangentSample) -> SprayField:
    """Spray coefficients G^a from the direct definition."""
    wp = workspace(cfg).at(p)
    return SprayField(BlockTensor(wp.product.spray_values(), ("up",), cfg.n1, cfg.n2))


@dataclass(frozen=True, eq=False)
class NonlinearConnection:
    """The fiber derivative of the spray."""

    matrix: np.ndarray  # N[a][b]


def nonlinear_connection(cfg: ProductConfig, p: TangentSample) -> NonlinearConnection:
    wp = workspace(cfg).at(p)
    return NonlinearConnection(wp.product.nonlinear_connection_values())


def adapted_derivative(cfg: ProductConfig, p: TangentSample, field,
                       direction: CoordIndex) -> float:
    """delta f / delta x^b = d f / d x^b - N^c_b d f / d fiber^c at ``p``."""
    if not direction.is_base:
        raise PreconditionError("adapted derivatives are taken along base directions")
    ep = workspace(cfg).at(p).product
    lifted = jet_lift(field, p, ep.engine.coords, 1)
    return float(ep.delta(lifted)[ep.engine.base.index(direction)])


def frame_brackets(cfg: ProductConfig, p: TangentSample) -> tuple[BlockTensor, BlockTensor]:
    """Curvature and connection coefficients of the adapted-frame Lie brackets.

    Returns (R, G): R[c][a][b] is antisymmetric in (a, b) and measures the
    non-integrability of the horizontal distribution; G[c][a][b] is the fiber
    derivative of the nonlinear connection, symmetric in (a, b).
    """
    wp = workspace(cfg).at(p)
    R = BlockTensor(wp.product.bracket_curvature_values(),
                    ("up", "low", "low"), cfg.n1, cfg.n2)
    G = BlockTensor(wp.product.connection_fiber_values(),
                    ("up", "low", "low"), cfg.n1, cfg.n2)
    return R, G


def horizontal_coefficients(cfg: ProductConfig, p: TangentSample) -> BlockTensor:
    """Berwald-type horizontal coefficients F[c][a][b], symmetric in (a, b)."""
    wp = workspace(cfg).at(p)
    return BlockTensor(wp.product.horizontal_values(),
                       ("up", "low", "low"), cfg.n1, cfg.n2)
