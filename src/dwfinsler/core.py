"""The product's tensors at one sample, read by name from one table.

Every tensor is computed once per sample by the product's
:class:`~dwfinsler.engine.EnginePoint`; :data:`TENSORS` names the method that
computes it and its slot variances, and :func:`tensor` reads it as a
:class:`BlockTensor`.  The names are those of ``dwfinsler eval --tensor``.
The functions of the per-point chain (:func:`fundamental_tensor` here, the
connection and curvature levels in their own modules) read the same table.
"""

from __future__ import annotations

import numpy as np

from .blocks import BlockTensor
from .engine import workspace
from .metrics import ProductConfig, TangentSample

#: Tensor name -> (EnginePoint method, slot variances).  "brackets" names two
#: methods, the curvature R[c][a][b] and the connection Gf[c][a][b] of the
#: adapted-frame Lie brackets, and reads as that pair.
TENSORS = {
    "F2": ("F2_value", ()),
    "g": ("g_values", ("low", "low")),
    "ginv": ("ginv_values", ("up", "up")),
    "angular": ("angular", ("low", "low")),
    "cartan": ("cartan", ("low", "low", "low")),
    "mean-cartan": ("mean_cartan", ("low",)),
    "matsumoto": ("matsumoto", ("low", "low", "low")),
    "spray": ("spray_values", ("up",)),
    "connection": ("nonlinear_connection_values", ("up", "low")),
    "horizontal": ("horizontal_values", ("up", "low", "low")),
    "brackets": (("bracket_curvature_values", "connection_fiber_values"),
                 ("up", "low", "low")),
    "berwald": ("berwald", ("up", "low", "low", "low")),
    "hh": ("hh_curvature", ("low", "up", "low", "low")),
    "riemann-map": ("riemann_map", ("up", "low")),
}


def tensor(cfg: ProductConfig, p: TangentSample,
           name: str) -> BlockTensor | tuple[BlockTensor, ...]:
    """The product tensor ``name`` of :data:`TENSORS` at ``p``: a
    :class:`BlockTensor`, and a pair of them for "brackets"."""
    method, variance = TENSORS[name]
    ep = workspace(cfg).at(p).product

    def read(m: str) -> BlockTensor:
        return BlockTensor(np.asarray(getattr(ep, m)()), variance, cfg.n1, cfg.n2)

    return tuple(map(read, method)) if isinstance(method, tuple) else read(method)


def fundamental_tensor(cfg: ProductConfig, p: TangentSample) -> tuple[BlockTensor, BlockTensor]:
    """Lower fundamental tensor g_ab and its inverse."""
    return tensor(cfg, p, "g"), tensor(cfg, p, "ginv")
