"""Warped-product block formulas, transcribed for diffing against the engine.

Every function here evaluates the closed-form factor/warp decomposition of a
product-level tensor at one point, or at every sample of a strip at once
(its arrays then lead with the sample axis), from factor-engine quantities
and warp derivatives only.  These are the likeliest transcription-error
site, so the generic AD path in :mod:`dwfinsler.engine` is ground truth and
a suite holds every function to it, naming the offending block:
``closed-form-blocks`` (spray, N, Gf, H), ``berwald-blocks``,
``block-structure`` (the pure Cartan blocks) and ``matsumoto-contraction``.

Block keys name factor membership per slot: the character before the dot is
the upper slot, the rest are the lower slots in order ('1' = first factor,
'2' = second).  Rank-1 and rank-2 objects drop the dot.
"""

from __future__ import annotations

import numpy as np

from .blocks import matvec, max_abs, scalar_axes, vdot
from .engine import WorkPoint


def block_ranges(pattern: str, n1: int, n2: int) -> tuple[slice, ...]:
    """The index slice of each slot of a block key."""
    chars = pattern.replace(".", "")
    return tuple(slice(0, n1) if ch == "1" else slice(n1, n1 + n2) for ch in chars)


def compare_blocks(generic: np.ndarray, blocks: dict[str, np.ndarray],
                   n1: int, n2: int) -> dict[str, float | np.ndarray]:
    """Max absolute deviation of each closed-form block from the generic tensor,
    one per sample when the tensors carry a leading sample axis."""
    out = {}
    for key, closed in blocks.items():
        ranges = block_ranges(key, n1, n2)
        lead = generic.shape[:generic.ndim - len(ranges)]
        out[key] = max_abs(generic[(...,) + ranges] - closed, lead)
    return out


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., :, None] * b[..., None, :]


class Ingredients:
    """Factor-engine values and warp partials shared by all block formulas.

    One set serves every family at a point; a family builds its own when it
    is given none.  The scalars (squared norms, squared warps and the warp
    gradients along the fiber) are arrays, one value per sample of a batch.
    """

    def __init__(self, wp: WorkPoint):
        cfg = wp.cfg
        self.n1, self.n2 = cfg.n1, cfg.n2
        f1, f2 = wp.factor1, wp.factor2
        self.g1, self.g2 = f1.g_values(), f2.g_values()
        self.g1inv, self.g2inv = f1.ginv_values(), f2.ginv_values()
        self.C1, self.C2 = f1.cartan(), f2.cartan()
        self.F1sq, self.F2sq = np.asarray(f1.F2_value()), np.asarray(f2.F2_value())
        self.f1sq, self.f2sq = np.asarray(wp.warp_sq(1)), np.asarray(wp.warp_sq(2))
        self.w1x, self.w2u = wp.warp_gradient(1), wp.warp_gradient(2)
        self.dF1dy, self.dF2dv = f1.F2_fiber_gradient(), f2.F2_fiber_gradient()
        self.vsum = vdot(self.w2u, f2.fiber_values())
        self.ysum = vdot(self.w1x, f1.fiber_values())
        self._f1, self._f2 = f1, f2
        self.dginv1, self.dginv2 = self.dginv(1, 1), self.dginv(2, 1)

    def dginv(self, which: int, order: int) -> np.ndarray:
        """[..., k, h, i, j, ...] = the order-``order`` fiber partial d^order g^kh / dy^i dy^j ...
        of a factor's inverse metric."""
        f = self._f1 if which == 1 else self._f2
        jet = f.ginv()
        for _ in range(order):
            jet = jet.grad(f.engine.fiber)
        return jet.value


def spray_blocks(wp: WorkPoint, q: Ingredients | None = None) -> dict[str, np.ndarray]:
    """Product spray from factor sprays plus warp corrections."""
    q = q or Ingredients(wp)
    G1 = wp.factor1.spray_values()
    G2 = wp.factor2.spray_values()
    top = G1 + (matvec(q.g1inv, scalar_axes(q.vsum, 1) * q.dF1dy - q.w1x * scalar_axes(q.F2sq, 1))
                / scalar_axes(4.0 * q.f2sq, 1))
    bot = G2 + (matvec(q.g2inv, scalar_axes(q.ysum, 1) * q.dF2dv - q.w2u * scalar_axes(q.F1sq, 1))
                / scalar_axes(4.0 * q.f1sq, 1))
    return {"1": top, "2": bot}


def nonlinear_connection_blocks(wp: WorkPoint,
                                q: Ingredients | None = None) -> dict[str, np.ndarray]:
    """The fiber derivative of the spray: the factor connections shifted by the warps."""
    q = q or Ingredients(wp)
    n1, n2 = q.n1, q.n2
    N11 = (wp.factor1.nonlinear_connection_values()
           - np.einsum("...ihj,...h->...ij", q.dginv1, q.w1x) * scalar_axes(q.F2sq, 2)
           / scalar_axes(4.0 * q.f2sq, 2)
           + scalar_axes(q.vsum / (2.0 * q.f2sq), 2) * np.eye(n1))
    N12 = (_outer(matvec(q.g1inv, q.dF1dy), q.w2u)
           - _outer(matvec(q.g1inv, q.w1x), q.dF2dv)) / scalar_axes(4.0 * q.f2sq, 2)
    N21 = (_outer(matvec(q.g2inv, q.dF2dv), q.w1x)
           - _outer(matvec(q.g2inv, q.w2u), q.dF1dy)) / scalar_axes(4.0 * q.f1sq, 2)
    N22 = (wp.factor2.nonlinear_connection_values()
           - np.einsum("...agb,...g->...ab", q.dginv2, q.w2u) * scalar_axes(q.F1sq, 2)
           / scalar_axes(4.0 * q.f1sq, 2)
           + scalar_axes(q.ysum / (2.0 * q.f1sq), 2) * np.eye(n2))
    return {"11": N11, "12": N12, "21": N21, "22": N22}


def connection_fiber_blocks(wp: WorkPoint,
                            q: Ingredients | None = None) -> dict[str, np.ndarray]:
    """Second fiber derivatives of the spray, block by block."""
    q = q or Ingredients(wp)
    n1, n2 = q.n1, q.n2
    f1x4, f2x4 = scalar_axes(4.0 * q.f1sq, 3), scalar_axes(4.0 * q.f2sq, 3)
    f1x2, f2x2 = scalar_axes(2.0 * q.f1sq, 3), scalar_axes(2.0 * q.f2sq, 3)
    out = {}
    out["1.11"] = (wp.factor1.connection_fiber_values()
                   - np.einsum("...khji,...h->...kij", q.dginv(1, 2), q.w1x)
                   * scalar_axes(q.F2sq, 3) / f2x4)
    out["1.12"] = (-np.einsum("...khi,...h,...b->...kib", q.dginv1, q.w1x, q.dF2dv) / f2x4
                   + np.einsum("ki,...b->...kib", np.eye(n1), q.w2u) / f2x2)
    out["1.22"] = -np.einsum("...k,...ab->...kab", matvec(q.g1inv, q.w1x), q.g2) / f2x2
    out["2.11"] = -np.einsum("...g,...ij->...gij", matvec(q.g2inv, q.w2u), q.g1) / f1x2
    out["2.12"] = (-np.einsum("...agb,...a,...i->...gib", q.dginv2, q.w2u, q.dF1dy) / f1x4
                   + np.einsum("gb,...i->...gib", np.eye(n2), q.w1x) / f1x2)
    out["2.22"] = (wp.factor2.connection_fiber_values()
                   - np.einsum("...glba,...l->...gab", q.dginv(2, 2), q.w2u)
                   * scalar_axes(q.F1sq, 3) / f1x4)
    return out


def horizontal_blocks(wp: WorkPoint, q: Ingredients | None = None) -> dict[str, np.ndarray]:
    q = q or Ingredients(wp)
    nc = nonlinear_connection_blocks(wp, q)
    N12, N21 = nc["12"], nc["21"]
    # The warp-induced shifts of the factor nonlinear connections.
    m1 = nc["11"] - wp.factor1.nonlinear_connection_values()
    m2 = nc["22"] - wp.factor2.nonlinear_connection_values()
    dg1 = 2.0 * q.C1  # fiber derivative of the factor metric
    dg2 = 2.0 * q.C2
    f1sq, f2sq = scalar_axes(q.f1sq, 3), scalar_axes(q.f2sq, 3)
    out = {}
    corr1 = (np.einsum("...rj,...hir->...hij", m1, dg1)
             + np.einsum("...ri,...hjr->...hij", m1, dg1)
             - np.einsum("...rh,...ijr->...hij", m1, dg1))
    out["1.11"] = (wp.factor1.horizontal_values()
                   - 0.5 * np.einsum("...kh,...hij->...kij", q.g1inv, corr1))
    out["1.12"] = np.einsum("...kh,...hib->...kib",
                            q.g1inv,
                            np.einsum("...b,...hi->...hib", q.w2u, q.g1)
                            - f2sq * np.einsum("...rb,...hir->...hib", N12, dg1)
                            ) / scalar_axes(2.0 * q.f2sq, 3)
    out["1.22"] = -np.einsum("...kh,...hab->...kab",
                             q.g1inv,
                             np.einsum("...h,...ab->...hab", q.w1x, q.g2)
                             - f1sq * np.einsum("...lh,...abl->...hab", N21, dg2)
                             ) / scalar_axes(2.0 * q.f2sq, 3)
    out["2.11"] = -np.einsum("...gl,...lij->...gij",
                             q.g2inv,
                             np.einsum("...l,...ij->...lij", q.w2u, q.g1)
                             - f2sq * np.einsum("...rl,...ijr->...lij", N12, dg1)
                             ) / scalar_axes(2.0 * q.f1sq, 3)
    out["2.12"] = np.einsum("...gl,...lib->...gib",
                            q.g2inv,
                            np.einsum("...i,...bl->...lib", q.w1x, q.g2)
                            - f1sq * np.einsum("...ai,...bla->...lib", N21, dg2)
                            ) / scalar_axes(2.0 * q.f1sq, 3)
    corr2 = (np.einsum("...mb,...lam->...lab", m2, dg2)
             + np.einsum("...ma,...lbm->...lab", m2, dg2)
             - np.einsum("...ml,...abm->...lab", m2, dg2))
    out["2.22"] = (wp.factor2.horizontal_values()
                   - 0.5 * np.einsum("...gl,...lab->...gab", q.g2inv, corr2))
    return out


def berwald_blocks(wp: WorkPoint) -> dict[str, np.ndarray]:
    q = Ingredients(wp)
    f1x4, f2x4 = scalar_axes(4.0 * q.f1sq, 4), scalar_axes(4.0 * q.f2sq, 4)
    f1x2, f2x2 = scalar_axes(2.0 * q.f1sq, 4), scalar_axes(2.0 * q.f2sq, 4)
    out = {}
    out["1.111"] = (wp.factor1.berwald()
                    - np.einsum("...khijl,...h->...kijl", q.dginv(1, 3), q.w1x)
                    * scalar_axes(q.F2sq, 4) / f2x4)
    out["1.121"] = -np.einsum("...khli,...h,...b->...kibl",
                              q.dginv(1, 2), q.w1x, q.dF2dv) / f2x4
    out["1.221"] = -np.einsum("...ab,...khl,...h->...kabl", q.g2, q.dginv1, q.w1x) / f2x2
    out["1.222"] = (-np.einsum("...abl,...k->...kabl", q.C2, matvec(q.g1inv, q.w1x))
                    / scalar_axes(q.f2sq, 4))
    out["1.122"] = -np.einsum("...khi,...h,...bl->...kibl", q.dginv1, q.w1x, q.g2) / f2x2
    out["2.222"] = (wp.factor2.berwald()
                    - np.einsum("...gnbal,...n->...gabl", q.dginv(2, 3), q.w2u)
                    * scalar_axes(q.F1sq, 4) / f1x4)
    out["2.122"] = -np.einsum("...agbl,...a,...i->...gibl",
                              q.dginv(2, 2), q.w2u, q.dF1dy) / f1x4
    out["2.112"] = -np.einsum("...ij,...agl,...a->...gijl", q.g1, q.dginv2, q.w2u) / f1x2
    out["2.111"] = (-np.einsum("...ijk,...g->...gijk", q.C1, matvec(q.g2inv, q.w2u))
                    / scalar_axes(q.f1sq, 4))
    out["2.121"] = -np.einsum("...agb,...a,...ik->...gibk", q.dginv2, q.w2u, q.g1) / f1x2
    return out


def matsumoto_contraction_rhs(wp: WorkPoint) -> np.ndarray:
    """Expected fiber-squared contraction of the mixed Matsumoto block."""
    q = Ingredients(wp)
    n = q.n1 + q.n2
    Fsq = np.asarray(wp.product.F2_value())
    mean2 = wp.factor2.mean_cartan()
    return scalar_axes(-(q.f1sq * q.f2sq * q.F1sq * q.F2sq) / ((n + 1) * Fsq), 1) * mean2


def cartan_scaled_factor_blocks(wp: WorkPoint) -> dict[str, np.ndarray]:
    """Pure blocks of the product Cartan torsion: warp-scaled factor tensors."""
    q = Ingredients(wp)
    return {"111": scalar_axes(q.f2sq, 3) * q.C1, "222": scalar_axes(q.f1sq, 3) * q.C2}
