"""Sprays, the nonlinear connection, adapted frame brackets and horizontal
coefficients of the doubly warped product, read from :data:`core.TENSORS`.

Their closed-form factor/warp blocks live in :mod:`dwfinsler.closed_forms`;
the ``closed-form-blocks`` suite holds them to these values."""

from __future__ import annotations

import numpy as np

from .blocks import BlockTensor
from .core import tensor
from .metrics import ProductConfig, TangentSample


class SprayField:
    __slots__ = ("coefficients",)

    def __init__(self, coefficients: BlockTensor):
        self.coefficients = coefficients  # rank-1 upper

    @property
    def values(self) -> np.ndarray:
        return self.coefficients.array


def spray(cfg: ProductConfig, p: TangentSample) -> SprayField:
    """Spray coefficients G^a from the direct definition."""
    return SprayField(tensor(cfg, p, "spray"))


class NonlinearConnection:
    """The fiber derivative of the spray."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix  # N[a][b]


def nonlinear_connection(cfg: ProductConfig, p: TangentSample) -> NonlinearConnection:
    return NonlinearConnection(tensor(cfg, p, "connection").array)


def frame_brackets(cfg: ProductConfig, p: TangentSample) -> tuple[BlockTensor, BlockTensor]:
    """Curvature and connection coefficients of the adapted-frame Lie brackets.

    Returns (R, G): R[c][a][b] is antisymmetric in (a, b) and measures the
    non-integrability of the horizontal distribution; G[c][a][b] is the fiber
    derivative of the nonlinear connection, symmetric in (a, b).
    """
    return tensor(cfg, p, "brackets")


def horizontal_coefficients(cfg: ProductConfig, p: TangentSample) -> BlockTensor:
    """Berwald-type horizontal coefficients F[c][a][b], symmetric in (a, b)."""
    return tensor(cfg, p, "horizontal")
