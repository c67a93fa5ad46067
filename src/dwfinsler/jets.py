"""Higher-order forward-mode differentiation via truncated Taylor jets.

A :class:`Jet` holds the value of a scalar quantity together with all of its
mixed partial derivatives (unscaled, i.e. true derivatives rather than Taylor
coefficients) with respect to a chosen set of seed coordinates, up to a total
order.  Arithmetic on jets implements the truncated Leibniz / Faa di Bruno
rules, so any composite built from +, -, *, /, sqrt, exp and integer powers of
seeded coordinates carries exact derivatives.

Seeds are small subsets of the 2*(n1+n2) tangent-bundle coordinates; lifting
the same field at the same point over the same seeds is memoized by the
callers (see :mod:`dwfinsler.engine`), not here.
"""

from __future__ import annotations

import math
from itertools import product as _iter_product
from typing import Callable, Sequence

import numpy as np

from .coords import MAX_ORDER, CoordIndex, MultiIndex
from .errors import CapabilityError, DomainError

__all__ = [
    "Jet", "JetContext", "jet_lift", "fd_partial",
    "sqrt", "exp", "as_float",
]


def _compositions(nvars: int, total: int) -> list[tuple[int, ...]]:
    if nvars == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(total + 1):
        for rest in _compositions(nvars - 1, total - first):
            out.append((first,) + rest)
    return out


class _Tables:
    """Enumeration and product tables shared by all contexts of one shape."""

    def __init__(self, nvars: int, order: int):
        self.nvars = nvars
        self.order = order
        exps: list[tuple[int, ...]] = []
        for total in range(order + 1):
            exps.extend(_compositions(nvars, total))
        self.exps = exps
        self.index = {e: i for i, e in enumerate(exps)}
        self.size = len(exps)
        self._mul = None
        self._derive: dict[int, np.ndarray] = {}
        self._restrict: dict[tuple, np.ndarray] = {}

    @property
    def mul_table(self):
        if self._mul is None:
            ii, jj, oo, ww = [], [], [], []
            for o, e in enumerate(self.exps):
                for part in _iter_product(*(range(m + 1) for m in e)):
                    rest = tuple(m - p for m, p in zip(e, part))
                    w = 1.0
                    for m, p in zip(e, part):
                        w *= math.comb(m, p)
                    ii.append(self.index[part])
                    jj.append(self.index[rest])
                    oo.append(o)
                    ww.append(w)
            self._mul = (np.asarray(ii), np.asarray(jj), np.asarray(oo),
                         np.asarray(ww, dtype=float))
        return self._mul

    def derive_map(self, pos: int) -> np.ndarray:
        """Source indices mapping d/d(seed pos) into the order-1 lower shape."""
        got = self._derive.get(pos)
        if got is None:
            lower = _tables(self.nvars, self.order - 1)
            src = np.empty(lower.size, dtype=np.intp)
            for o, e in enumerate(lower.exps):
                bumped = e[:pos] + (e[pos] + 1,) + e[pos + 1:]
                src[o] = self.index[bumped]
            self._derive[pos] = src
            got = src
        return got

    def restrict_map(self, positions: tuple[int, ...], suborder: int) -> np.ndarray:
        key = (positions, suborder)
        got = self._restrict.get(key)
        if got is None:
            sub = _tables(len(positions), suborder)
            src = np.empty(sub.size, dtype=np.intp)
            for o, e in enumerate(sub.exps):
                full = [0] * self.nvars
                for p, m in zip(positions, e):
                    full[p] = m
                src[o] = self.index[tuple(full)]
            self._restrict[key] = src
            got = src
        return got


_TABLE_CACHE: dict[tuple[int, int], _Tables] = {}


def _tables(nvars: int, order: int) -> _Tables:
    key = (nvars, order)
    got = _TABLE_CACHE.get(key)
    if got is None:
        got = _TABLE_CACHE[key] = _Tables(nvars, order)
    return got


class JetContext:
    """An ordered seed tuple plus a total-order bound; jets live in a context."""

    __slots__ = ("seeds", "order", "tables", "_pos")

    def __init__(self, seeds: tuple[CoordIndex, ...], order: int):
        self.seeds = seeds
        self.order = order
        self.tables = _tables(len(seeds), order)
        self._pos = {c: i for i, c in enumerate(seeds)}

    def position(self, coord: CoordIndex) -> int:
        try:
            return self._pos[coord]
        except KeyError:
            raise ValueError(f"coordinate {coord!r} is not a seed of this jet") from None


_CONTEXT_CACHE: dict[tuple, JetContext] = {}


def context(seeds: Sequence[CoordIndex], order: int) -> JetContext:
    if order < 0:
        raise ValueError("jet order must be non-negative")
    if order > MAX_ORDER:
        raise CapabilityError(
            f"jet order {order} exceeds the supported maximum {MAX_ORDER}")
    seeds = tuple(sorted(set(seeds)))
    key = (seeds, order)
    got = _CONTEXT_CACHE.get(key)
    if got is None:
        got = _CONTEXT_CACHE[key] = JetContext(seeds, order)
    return got


class Jet:
    """Truncated collection of unscaled mixed partials over a seed set."""

    __slots__ = ("ctx", "c")

    def __init__(self, ctx: JetContext, coeffs: np.ndarray):
        self.ctx = ctx
        self.c = coeffs

    # -- constructors -------------------------------------------------------
    @classmethod
    def constant(cls, ctx: JetContext, value: float) -> "Jet":
        c = np.zeros(ctx.tables.size)
        c[0] = value
        return cls(ctx, c)

    @classmethod
    def coordinate(cls, ctx: JetContext, coord: CoordIndex, value: float) -> "Jet":
        c = np.zeros(ctx.tables.size)
        c[0] = value
        if coord in ctx._pos and ctx.order >= 1:
            unit = tuple(1 if i == ctx.position(coord) else 0
                         for i in range(len(ctx.seeds)))
            c[ctx.tables.index[unit]] = 1.0
        return cls(ctx, c)

    # -- inspection ---------------------------------------------------------
    @property
    def value(self) -> float:
        return float(self.c[0])

    @property
    def order(self) -> int:
        return self.ctx.order

    @property
    def seeds(self) -> tuple[CoordIndex, ...]:
        return self.ctx.seeds

    def partial(self, multi) -> float:
        """Unscaled mixed partial for a MultiIndex or direction sequence."""
        if not isinstance(multi, MultiIndex):
            multi = MultiIndex.of(multi)
        if multi.order > self.ctx.order:
            raise ValueError(
                f"partial of order {multi.order} requested from an order-{self.ctx.order} jet")
        e = [0] * len(self.ctx.seeds)
        for coord, k in multi.terms:
            e[self.ctx.position(coord)] = k
        return float(self.c[self.ctx.tables.index[tuple(e)]])

    def coeffs(self) -> dict[MultiIndex, float]:
        """All stored partials, keyed canonically."""
        out = {}
        for e, i in self.ctx.tables.index.items():
            terms = tuple((s, m) for s, m in zip(self.ctx.seeds, e) if m)
            out[MultiIndex(terms)] = float(self.c[i])
        return out

    # -- context plumbing ---------------------------------------------------
    def truncate(self, order: int) -> "Jet":
        if order == self.ctx.order:
            return self
        return self.restrict(self.ctx.seeds, order)

    def restrict(self, seeds: Sequence[CoordIndex], order: int) -> "Jet":
        """Forget seeds / lower the order, keeping the surviving partials."""
        sub = context(seeds, order)
        if sub is self.ctx:
            return self
        if order > self.ctx.order:
            raise ValueError("cannot restrict to a higher order")
        positions = tuple(self.ctx.position(s) for s in sub.seeds)
        src = self.ctx.tables.restrict_map(positions, order)
        return Jet(sub, self.c[src])

    def derive(self, coord: CoordIndex) -> "Jet":
        """Formal partial derivative; drops the order bound by one."""
        if self.ctx.order == 0:
            raise ValueError("cannot derive an order-0 jet")
        pos = self.ctx.position(coord)
        src = self.ctx.tables.derive_map(pos)
        return Jet(context(self.ctx.seeds, self.ctx.order - 1), self.c[src])

    # -- arithmetic ---------------------------------------------------------
    def _aligned(self, other: "Jet") -> tuple["Jet", "Jet"]:
        if self.ctx is other.ctx:
            return self, other
        if self.ctx.seeds != other.ctx.seeds:
            raise ValueError("jet operands must share their seed set")
        k = min(self.ctx.order, other.ctx.order)
        return self.truncate(k), other.truncate(k)

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = self._aligned(other)
            return Jet(a.ctx, a.c + b.c)
        c = self.c.copy()
        c[0] += other
        return Jet(self.ctx, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.ctx, -self.c)

    def __sub__(self, other):
        if isinstance(other, Jet):
            a, b = self._aligned(other)
            return Jet(a.ctx, a.c - b.c)
        c = self.c.copy()
        c[0] -= other
        return Jet(self.ctx, c)

    def __rsub__(self, other):
        c = -self.c
        c[0] += other
        return Jet(self.ctx, c)

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self._aligned(other)
            ii, jj, oo, ww = a.ctx.tables.mul_table
            out = np.bincount(oo, weights=ww * a.c[ii] * b.c[jj],
                              minlength=a.ctx.tables.size)
            return Jet(a.ctx, out)
        return Jet(self.ctx, self.c * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        if other == 0.0:
            raise DomainError("division of a jet by zero")
        return Jet(self.ctx, self.c / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, p):
        if not isinstance(p, int):
            raise TypeError("jet powers must be integers; use sqrt/exp for the rest")
        if p < 0:
            return self._reciprocal() ** (-p)
        out = Jet.constant(self.ctx, 1.0)
        base = self
        while p:
            if p & 1:
                out = out * base
            base = base * base if p > 1 else base
            p >>= 1
        return out

    def _nilpotent_series(self, c0: float, coeffs: list[float]) -> "Jet":
        """c0 * (coeffs[0] + coeffs[1]*h + ...), h = self with value zeroed."""
        h = Jet(self.ctx, self.c.copy())
        h.c[0] = 0.0
        acc = Jet.constant(self.ctx, coeffs[0])
        power = None
        for k in range(1, self.ctx.order + 1):
            power = h if power is None else power * h
            if coeffs[k]:
                acc = acc + coeffs[k] * power
        return acc * c0

    def _reciprocal(self) -> "Jet":
        v = self.value
        if v == 0.0:
            raise DomainError("division by a jet with zero value")
        normalized = self * (1.0 / v)
        signs = [(-1.0) ** k for k in range(self.ctx.order + 1)]
        return normalized._nilpotent_series(1.0 / v, signs)

    def sqrt(self) -> "Jet":
        v = self.value
        if v <= 0.0:
            raise DomainError(f"sqrt of a jet with non-positive value {v}")
        normalized = self * (1.0 / v)
        binom = [1.0]
        for k in range(1, self.ctx.order + 1):
            binom.append(binom[-1] * (0.5 - (k - 1)) / k)
        return normalized._nilpotent_series(math.sqrt(v), binom)

    def exp(self) -> "Jet":
        shifted = self - self.value
        inv_fact = [1.0]
        for k in range(1, self.ctx.order + 1):
            inv_fact.append(inv_fact[-1] / k)
        return shifted._nilpotent_series(math.exp(self.value), inv_fact)

    def __repr__(self) -> str:
        return f"Jet(order={self.ctx.order}, seeds={self.ctx.seeds}, value={self.value})"


def sqrt(x):
    """sqrt for plain floats and jets alike."""
    if isinstance(x, Jet):
        return x.sqrt()
    if x <= 0.0:
        raise DomainError(f"sqrt of non-positive value {x}")
    return math.sqrt(x)


def exp(x):
    if isinstance(x, Jet):
        return x.exp()
    return math.exp(x)


def as_float(x) -> float:
    return x.value if isinstance(x, Jet) else float(x)


class CoordView:
    """Coordinate scalars handed to a field: jets on seeds, floats elsewhere."""

    __slots__ = ("x", "u", "y", "v")

    def __init__(self, point, ctx: JetContext | None):
        def wrap(coords, values):
            if ctx is None:
                return tuple(float(t) for t in values)
            return tuple(
                Jet.coordinate(ctx, c, float(t)) if c in ctx._pos else float(t)
                for c, t in zip(coords, values))

        from .coords import base1, base2, fiber1, fiber2
        self.x = wrap([base1(i) for i in range(len(point.x))], point.x)
        self.u = wrap([base2(i) for i in range(len(point.u))], point.u)
        self.y = wrap([fiber1(i) for i in range(len(point.y))], point.y)
        self.v = wrap([fiber2(i) for i in range(len(point.v))], point.v)


ScalarField = Callable[[CoordView], object]


def jet_lift(field: ScalarField, point, seeds: Sequence[CoordIndex], order: int) -> Jet:
    """Lift a scalar field to a jet at ``point`` over ``seeds`` up to ``order``."""
    ctx = context(seeds, order)
    out = field(CoordView(point, ctx))
    if isinstance(out, Jet):
        return out if out.ctx is ctx else out.restrict(ctx.seeds, ctx.order)
    return Jet.constant(ctx, float(out))


#: Default relative steps per total order; cancellation noise grows like
#: eps / h^order, so higher orders need coarser stencils.
FD_DEFAULT_STEPS = {1: 1e-4, 2: 1e-3, 3: 4e-3}


def fd_partial(field: ScalarField, point, multi, step: float | None = None) -> float:
    """Central-difference mixed partial with Richardson extrapolation.

    Independent of the jet path by construction: only plain float evaluations
    of ``field`` at shifted points are used.  Total order is capped at 3,
    beyond which cancellation noise dominates.
    """
    if not isinstance(multi, MultiIndex):
        multi = MultiIndex.of(multi)
    if multi.order > 3:
        raise CapabilityError("finite differences support total order <= 3")
    if step is None:
        step = FD_DEFAULT_STEPS[max(multi.order, 1)]
    if step <= 0.0:
        raise ValueError("fd step must be positive")

    def value_at(p) -> float:
        return as_float(field(CoordView(p, None)))

    def differentiate(fun, coord):
        def estimate(p):
            h = step * (1.0 + abs(p.coord(coord)))

            def central(hh):
                return (fun(p.shifted(coord, hh)) - fun(p.shifted(coord, -hh))) / (2.0 * hh)

            return (4.0 * central(h / 2.0) - central(h)) / 3.0

        return estimate

    fun = value_at
    for coord in reversed(multi.directions):
        fun = differentiate(fun, coord)
    return fun(point)
