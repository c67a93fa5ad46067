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

F^2 = f2^2 F1^2 + f1^2 F2^2 is unchanged when the two factors trade places,
so each block is written once, as a pattern over a factor t and the other
factor o (``t.to`` is the block with upper slot and first lower slot in t and
second lower slot in o), and evaluated with t = 1 and with t = 2.  The key of
a pattern replaces t and o by the factors' numbers, except that the first two
lower slots are always listed in product order: t = 2's ``t.to`` is the
block ``2.12``, its two lower axes swapped.
"""

from __future__ import annotations

import numpy as np

from .blocks import matvec, scalar_axes, vdot
from .engine import WorkPoint


def block_ranges(pattern: str, n1: int, n2: int) -> tuple[slice, ...]:
    """The index slice of each slot of a block key."""
    chars = pattern.replace(".", "")
    return tuple(slice(0, n1) if ch == "1" else slice(n1, n1 + n2) for ch in chars)


def compare_blocks(generic: np.ndarray, blocks: dict[str, np.ndarray],
                   n1: int, n2: int) -> dict[str, np.ndarray]:
    """Each closed-form block's deviation from its block of the generic tensor."""
    return {key: generic[(...,) + block_ranges(key, n1, n2)] - closed
            for key, closed in blocks.items()}


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., :, None] * b[..., None, :]


class _Side:
    """One factor ``t`` of a work point, read as the side of a block pattern:
    its engine values, its own squared warp ``fsq`` (the one that scales the
    other factor) with that warp's base gradient ``w``, and ``wy`` = w . y.
    The scalars are arrays, one value per sample of a batch."""

    def __init__(self, wp: WorkPoint, t: int):
        eng = self.eng = wp.factor(t)
        self.which, self.n = t, eng.engine.n
        self.g, self.ginv, self.C = eng.g_values(), eng.ginv_values(), eng.cartan()
        self.Fsq, self.dF = np.asarray(eng.F2_value()), eng.F2_fiber_gradient()
        self.fsq, self.w = np.asarray(wp.warp_sq(t)), wp.warp_gradient(t)
        self.wy = vdot(self.w, eng.fiber_values())
        self._dginv = [eng.ginv()]

    def dginv(self, order: int) -> np.ndarray:
        """[..., k, h, i, j, ...] = the order-``order`` fiber partial d^order g^kh / dy^i dy^j ...
        of the factor's inverse metric, each order kept as one gradient of the last."""
        while len(self._dginv) <= order:
            self._dginv.append(self._dginv[-1].grad(self.eng.engine.fiber))
        return self._dginv[order].value


def of(wp: WorkPoint) -> tuple[_Side, _Side]:
    """The two sides of a work point (a sample or a strip), built once."""
    if wp.closed_forms is None:
        wp.closed_forms = (_Side(wp, 1), _Side(wp, 2))
    return wp.closed_forms


def _key(pattern: str, t: _Side, o: _Side) -> str:
    return pattern.replace("t", str(t.which)).replace("o", str(o.which))


def _both(wp: WorkPoint, blocks) -> dict[str, np.ndarray]:
    """The patterns of ``blocks(t, o)`` evaluated with each factor as t, by
    block key in key order.  A key whose first two lower slots come out as
    "21" lists them as "12", its two axes swapped to match."""
    s1, s2 = of(wp)
    out = {}
    for t, o in ((s1, s2), (s2, s1)):
        for pattern, value in blocks(t, o).items():
            key = _key(pattern, t, o)
            head, _, low = key.partition(".")
            if low[:2] == "21":
                key = f"{head}.12{low[2:]}"
                value = np.swapaxes(value, -len(low), 1 - len(low))
            out[key] = value
    return dict(sorted(out.items()))


def spray_blocks(wp: WorkPoint) -> dict[str, np.ndarray]:
    """Product spray from factor sprays plus warp corrections."""
    def blocks(t, o):
        shift = scalar_axes(o.wy, 1) * t.dF - t.w * scalar_axes(o.Fsq, 1)
        return {"t": t.eng.spray_values() + matvec(t.ginv, shift) / scalar_axes(4.0 * o.fsq, 1)}
    return _both(wp, blocks)


def nonlinear_connection_blocks(wp: WorkPoint) -> dict[str, np.ndarray]:
    """The fiber derivative of the spray: the factor connections shifted by the warps."""
    def blocks(t, o):
        x4 = scalar_axes(4.0 * o.fsq, 2)
        return {"tt": (t.eng.nonlinear_connection_values()
                       - np.einsum("...ihj,...h->...ij", t.dginv(1), t.w)
                       * scalar_axes(o.Fsq, 2) / x4
                       + scalar_axes(o.wy / (2.0 * o.fsq), 2) * np.eye(t.n)),
                "to": (_outer(matvec(t.ginv, t.dF), o.w)
                       - _outer(matvec(t.ginv, t.w), o.dF)) / x4}
    return _both(wp, blocks)


def connection_fiber_blocks(wp: WorkPoint) -> dict[str, np.ndarray]:
    """Second fiber derivatives of the spray, block by block."""
    def blocks(t, o):
        x4, x2 = scalar_axes(4.0 * o.fsq, 3), scalar_axes(2.0 * o.fsq, 3)
        return {"t.tt": (t.eng.connection_fiber_values()
                         - np.einsum("...khji,...h->...kij", t.dginv(2), t.w)
                         * scalar_axes(o.Fsq, 3) / x4),
                "t.to": (-np.einsum("...khi,...h,...b->...kib", t.dginv(1), t.w, o.dF) / x4
                         + np.einsum("ki,...b->...kib", np.eye(t.n), o.w) / x2),
                "t.oo": -np.einsum("...k,...ab->...kab", matvec(t.ginv, t.w), o.g) / x2}
    return _both(wp, blocks)


def horizontal_blocks(wp: WorkPoint) -> dict[str, np.ndarray]:
    nc = nonlinear_connection_blocks(wp)

    def blocks(t, o):
        N = {p: nc[_key(p, t, o)] for p in ("tt", "to", "ot")}
        # The warp-induced shift of the factor nonlinear connection, and the
        # fiber derivatives of the factor metrics.
        m = N["tt"] - t.eng.nonlinear_connection_values()
        dgt, dgo = 2.0 * t.C, 2.0 * o.C
        corr = (np.einsum("...rj,...hir->...hij", m, dgt)
                + np.einsum("...ri,...hjr->...hij", m, dgt)
                - np.einsum("...rh,...ijr->...hij", m, dgt))
        x2 = scalar_axes(2.0 * o.fsq, 3)
        return {"t.tt": (t.eng.horizontal_values()
                         - 0.5 * np.einsum("...kh,...hij->...kij", t.ginv, corr)),
                "t.to": np.einsum("...kh,...hib->...kib", t.ginv,
                                  np.einsum("...b,...hi->...hib", o.w, t.g)
                                  - scalar_axes(o.fsq, 3)
                                  * np.einsum("...rb,...hir->...hib", N["to"], dgt)) / x2,
                "t.oo": -np.einsum("...kh,...hab->...kab", t.ginv,
                                   np.einsum("...h,...ab->...hab", t.w, o.g)
                                   - scalar_axes(t.fsq, 3)
                                   * np.einsum("...lh,...abl->...hab", N["ot"], dgo)) / x2}
    return _both(wp, blocks)


def berwald_blocks(wp: WorkPoint) -> dict[str, np.ndarray]:
    def blocks(t, o):
        x4, x2 = scalar_axes(4.0 * o.fsq, 4), scalar_axes(2.0 * o.fsq, 4)
        return {"t.ttt": (t.eng.berwald()
                          - np.einsum("...khijl,...h->...kijl", t.dginv(3), t.w)
                          * scalar_axes(o.Fsq, 4) / x4),
                "t.tot": -np.einsum("...khli,...h,...b->...kibl", t.dginv(2), t.w, o.dF) / x4,
                "t.oot": -np.einsum("...ab,...khl,...h->...kabl", o.g, t.dginv(1), t.w) / x2,
                "t.ooo": (-np.einsum("...abl,...k->...kabl", o.C, matvec(t.ginv, t.w))
                          / scalar_axes(o.fsq, 4)),
                "t.too": -np.einsum("...khi,...h,...bl->...kibl", t.dginv(1), t.w, o.g) / x2}
    return _both(wp, blocks)


def matsumoto_contraction_rhs(wp: WorkPoint) -> np.ndarray:
    """Expected fiber-squared contraction of the mixed Matsumoto block."""
    s1, s2 = of(wp)
    Fsq = np.asarray(wp.product.F2_value())
    return (scalar_axes(-(s1.fsq * s2.fsq * s1.Fsq * s2.Fsq) / ((wp.cfg.n + 1) * Fsq), 1)
            * s2.eng.mean_cartan())


def cartan_scaled_factor_blocks(wp: WorkPoint) -> dict[str, np.ndarray]:
    """Pure blocks of the product Cartan torsion: warp-scaled factor tensors."""
    return _both(wp, lambda t, o: {"ttt": scalar_axes(o.fsq, 3) * t.C})
