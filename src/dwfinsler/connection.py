"""Sprays, the nonlinear connection, adapted frame brackets and horizontal
coefficients of the doubly warped product, with closed-form cross-checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closed_forms
from .blocks import BlockTensor
from .coords import CoordIndex
from .engine import workspace
from .errors import PreconditionError
from .jets import jet_lift
from .metrics import ProductConfig, TangentSample


@dataclass(frozen=True, eq=False)
class SprayField:
    coefficients: BlockTensor  # rank-1 upper
    provenance: str  # "generic" or "product-decomposed"

    @property
    def values(self) -> np.ndarray:
        return self.coefficients.array


def spray(cfg: ProductConfig, p: TangentSample, method: str = "generic") -> SprayField:
    """Spray coefficients, by the direct definition or the warped decomposition."""
    wp = workspace(cfg).at(p)
    if method == "generic":
        arr = wp.product.spray_values()
        prov = "generic"
    elif method == "product":
        blocks = closed_forms.spray_blocks(wp)
        arr = np.concatenate([blocks["1"], blocks["2"]])
        prov = "product-decomposed"
    else:
        raise ValueError(f"unknown spray method {method!r}")
    return SprayField(BlockTensor(arr, ("up",), cfg.n1, cfg.n2), prov)


@dataclass(frozen=True, eq=False)
class NonlinearConnection:
    """The fiber derivative of the spray plus its adapted-frame evaluator."""

    cfg: ProductConfig
    point: TangentSample
    matrix: np.ndarray  # N[a][b]

    def delta(self, field, direction: CoordIndex) -> float:
        """Adapted derivative of a jet-liftable scalar along a base direction."""
        return adapted_derivative(self.cfg, self.point, field, direction)

    def closed_blocks(self) -> dict[str, np.ndarray]:
        wp = workspace(self.cfg).at(self.point)
        return closed_forms.nonlinear_connection_blocks(wp)

    def closed_form_residuals(self) -> dict[str, float]:
        return closed_forms.compare_blocks(self.matrix, self.closed_blocks(),
                                           self.cfg.n1, self.cfg.n2)


def nonlinear_connection(cfg: ProductConfig, p: TangentSample) -> NonlinearConnection:
    wp = workspace(cfg).at(p)
    return NonlinearConnection(cfg, p, wp.product.nonlinear_connection_values())


def adapted_derivative(cfg: ProductConfig, p: TangentSample, field,
                       direction: CoordIndex) -> float:
    """delta f / delta x^b = d f / d x^b - N^c_b d f / d fiber^c at ``p``."""
    if not direction.is_base:
        raise PreconditionError("adapted derivatives are taken along base directions")
    ep = workspace(cfg).at(p).product
    lifted = jet_lift(field, p, ep.engine.coords, 1)
    return float(ep.delta(lifted).value[ep.engine.base.index(direction)])


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


def connection_fiber_residuals(cfg: ProductConfig, p: TangentSample) -> dict[str, float]:
    """Closed-form blocks of G[c][a][b] vs. the generic fiber derivatives."""
    wp = workspace(cfg).at(p)
    return closed_forms.compare_blocks(
        wp.product.connection_fiber_values(),
        closed_forms.connection_fiber_blocks(wp), cfg.n1, cfg.n2)


def horizontal_coefficients(cfg: ProductConfig, p: TangentSample) -> BlockTensor:
    """Berwald-type horizontal coefficients F[c][a][b], symmetric in (a, b)."""
    wp = workspace(cfg).at(p)
    return BlockTensor(wp.product.horizontal_values(),
                       ("up", "low", "low"), cfg.n1, cfg.n2)


def horizontal_residuals(cfg: ProductConfig, p: TangentSample) -> dict[str, float]:
    wp = workspace(cfg).at(p)
    return closed_forms.compare_blocks(
        wp.product.horizontal_values(),
        closed_forms.horizontal_blocks(wp), cfg.n1, cfg.n2)


def spray_decomposition_residual(cfg: ProductConfig, p: TangentSample) -> float:
    a = spray(cfg, p, "generic").values
    b = spray(cfg, p, "product").values
    return float(np.max(np.abs(a - b)))
