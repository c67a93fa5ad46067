"""Zeroth-level tensors of the doubly warped product: metric and torsions."""

from __future__ import annotations

from .blocks import BlockTensor
from .engine import workspace
from .errors import PreconditionError
from .jets import Jet
from .metrics import ProductConfig, TangentSample


def eval_F2(cfg: ProductConfig, p: TangentSample, seeds=(), order: int = 0) -> Jet:
    """The squared product norm at ``p``, with partials over ``seeds``."""
    cfg.validate_sample(p)
    from .jets import jet_lift
    return jet_lift(cfg.F2, p, tuple(seeds), order)


def fundamental_tensor(cfg: ProductConfig, p: TangentSample) -> tuple[BlockTensor, BlockTensor]:
    """Lower fundamental tensor g_ab and its inverse."""
    ep = workspace(cfg).at(p).product
    g = BlockTensor(ep.g_values(), ("low", "low"), cfg.n1, cfg.n2)
    ginv = BlockTensor(ep.ginv_values(), ("up", "up"), cfg.n1, cfg.n2)
    return g, ginv


def angular_metric(cfg: ProductConfig, p: TangentSample) -> BlockTensor:
    ep = workspace(cfg).at(p).product
    return BlockTensor(ep.angular(), ("low", "low"), cfg.n1, cfg.n2)


def cartan_tensor(cfg: ProductConfig, p: TangentSample) -> BlockTensor:
    """Fully symmetric lower Cartan torsion C_abc."""
    ep = workspace(cfg).at(p).product
    return BlockTensor(ep.cartan(), ("low", "low", "low"), cfg.n1, cfg.n2)


def mean_cartan(cfg: ProductConfig, p: TangentSample) -> BlockTensor:
    ep = workspace(cfg).at(p).product
    return BlockTensor(ep.mean_cartan(), ("low",), cfg.n1, cfg.n2)


def matsumoto_torsion(cfg: ProductConfig, p: TangentSample) -> BlockTensor:
    """C minus its angular-metric/mean-Cartan reducible part.

    The normalization uses the product dimension n = n1 + n2.
    """
    if cfg.n < 2:
        raise PreconditionError("the Matsumoto torsion needs total dimension >= 2")
    ep = workspace(cfg).at(p).product
    return BlockTensor(ep.matsumoto(), ("low", "low", "low"), cfg.n1, cfg.n2)
