"""Higher-order forward-mode differentiation via truncated Taylor jets.

A :class:`Jet` holds a tensor quantity together with all of its mixed partial
derivatives (unscaled, i.e. true derivatives rather than Taylor coefficients)
with respect to a chosen set of seed coordinates, up to a total order.  The
coefficient array ``Jet.c`` carries the tensor axes first and the partials on
its last axis; a scalar jet is the shape-``()`` case.  Arithmetic implements
the truncated Leibniz rule elementwise with broadcasting, and :func:`einsum`
contracts two jets over tensor axes, so whole tensors are differentiated,
multiplied and contracted at once.  :meth:`Jet.grad` stacks the partials
along a list of seeds as one more tensor axis.  Scalar fields built from +,
-, *, /, sqrt, exp and integer powers of seeded coordinates carry exact
derivatives.

A jet's seeds are its support.  :func:`support_lift` hands the field each
seeded coordinate as a jet over that coordinate alone, and two operands over
different seeds are embedded into the union of their seeds, at the lower of
their orders, before the usual table runs.  So a subexpression pays only for
the coordinates it depends on, and the lift carries only the seeds the field
read.  :func:`jet_lift` embeds it into the context of all requested seeds,
its partials along the unused ones exactly zero.  A product over the union
sums the same terms, in the same order, as one over a larger seed set, so
lifting by support changes no bit of the result.  :meth:`Jet.grad` along a
coordinate that is not a seed gives exact zeros, so tensors derived from a
support jet never need the larger context; :meth:`Jet.partial`,
:meth:`Jet.derive` and :meth:`Jet.restrict` stay strict and reject a non-seed.

The engine (:mod:`dwfinsler.engine`) lifts each squared norm once per point
with :func:`support_lift` and memoizes that lift; :func:`jet_lift` serves the
finite-difference cross-checks and the public API.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .coords import MAX_ORDER, CoordIndex, MultiIndex
from .errors import CapabilityError, DomainError

__all__ = [
    "Jet", "JetContext", "jet_lift", "support_lift", "fd_partial", "einsum",
    "sqrt", "exp", "as_float",
]


class _Tables:
    """Enumeration and product tables shared by all contexts of one shape.

    ``exps`` holds every exponent vector of total at most ``order``, ordered by
    total and then lexicographically; a row's position is its coefficient slot.
    """

    def __init__(self, nvars: int, order: int):
        self.nvars = nvars
        self.order = order
        # Built one leading column at a time, the rows come out lexicographic.
        lex = np.zeros((1, 0), dtype=np.int8)
        for _ in range(nvars):
            room = order - lex.sum(1)
            lex = np.concatenate([
                np.column_stack((np.full(np.count_nonzero(room >= k), k, np.int8), lex[room >= k]))
                for k in range(order + 1)])
        by_total = [lex[lex.sum(1) == t] for t in range(order + 1)]
        self.exps = np.concatenate(by_total)
        self._offsets = np.cumsum([0] + [len(e) for e in by_total])
        top = order + nvars
        self._binom = np.array([[math.comb(a, b) for b in range(top + 1)]
                                for a in range(top + 1)], dtype=np.intp)
        self.index = {e: i for i, e in enumerate(map(tuple, self.exps.tolist()))}
        self.size = len(self.exps)
        self.unit = np.zeros(self.size)  # the value slot
        self.unit[0] = 1.0
        self._mul = None
        self._derive: dict[int, np.ndarray] = {}
        self._restrict: dict[tuple, np.ndarray] = {}

    def rank(self, rows: np.ndarray) -> np.ndarray:
        """The slots of the exponent vectors in ``rows`` (each of total <= order).

        A slot is the number of exponents of lower total plus the number of
        compositions of the same total that precede it lexicographically;
        those with a smaller k-th entry after an equal prefix add up, by the
        hockey-stick identity, to C(r + m, m) - C(r - e_k + m, m), where r is
        the total left from entry k on and m the count of entries after k.
        """
        rest = rows.sum(1)
        out = self._offsets[rest]
        for k in range(self.nvars):
            m = self.nvars - 1 - k
            out = out + self._binom[rest + m, m] - self._binom[rest - rows[:, k] + m, m]
            rest = rest - rows[:, k]
        return out

    @property
    def mul_table(self):
        """(part, rest, run starts, weights) of every truncated Leibniz term.

        Terms run by output slot, so each output sums one run, and within a
        run by part in lexicographic order.
        """
        if self._mul is None:
            e = self.exps
            width = np.prod(e + 1, axis=1, dtype=np.intp)  # the parts p <= e of each output
            starts = np.cumsum(width) - width
            e = e[np.repeat(np.arange(self.size), width)]
            # A term's place in its run, read in the mixed radix (e_k + 1) with
            # the last entry least significant, is its part in lexicographic order.
            place = np.arange(len(e)) - np.repeat(starts, width)
            part = np.empty_like(e)
            for k in reversed(range(self.nvars)):
                place, part[:, k] = np.divmod(place, e[:, k] + 1)
            ww = np.ones(len(e))
            for k in range(self.nvars):
                ww *= self._binom[e[:, k], part[:, k]]
            self._mul = (self.rank(part), self.rank(e - part), starts, ww)
        return self._mul

    def derive_map(self, pos: int) -> np.ndarray:
        """Source indices mapping d/d(seed pos) into the order-1 lower shape."""
        got = self._derive.get(pos)
        if got is None:
            bumped = _tables(self.nvars, self.order - 1).exps.copy()
            bumped[:, pos] += 1
            got = self._derive[pos] = self.rank(bumped)
        return got

    def restrict_map(self, positions: tuple[int, ...], suborder: int) -> np.ndarray:
        """The slot of each coefficient of the (len(positions), suborder) shape
        whose seeds sit at ``positions`` here: gathering with it restricts a
        jet, and scattering through it embeds one."""
        key = (positions, suborder)
        got = self._restrict.get(key)
        if got is None:
            sub = _tables(len(positions), suborder)
            full = np.zeros((sub.size, self.nvars), dtype=np.int8)
            full[:, list(positions)] = sub.exps
            got = self._restrict[key] = self.rank(full)
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

    __slots__ = ("seeds", "order", "tables", "_pos", "_unions", "_lowered", "_grads")

    def __init__(self, seeds: tuple[CoordIndex, ...], order: int):
        self.seeds = seeds
        self.order = order
        self.tables = _tables(len(seeds), order)
        self._pos = {c: i for i, c in enumerate(seeds)}
        self._unions: dict[JetContext, JetContext] = {}
        self._lowered: JetContext | None = None
        self._grads: dict[tuple, tuple[np.ndarray, bool]] = {}

    def union(self, other: "JetContext") -> "JetContext":
        """The context over the seeds of both, at the lower of their orders."""
        got = self._unions.get(other)
        if got is None:
            got = self._unions[other] = context(self.seeds + other.seeds,
                                                min(self.order, other.order))
        return got

    def lowered(self) -> "JetContext":
        """The context over the same seeds, one order lower."""
        if self._lowered is None:
            if self.order == 0:
                raise ValueError("cannot derive an order-0 jet")
            self._lowered = context(self.seeds, self.order - 1)
        return self._lowered

    def grad_map(self, coords: tuple[CoordIndex, ...]) -> tuple[np.ndarray, bool]:
        """The slots gathered by :meth:`Jet.grad` along ``coords``, one row per
        coordinate, and whether any of them is not a seed: such a row reads
        the zero slot padded on after the last coefficient."""
        got = self._grads.get(coords)
        if got is None:
            size = self.lowered().tables.size
            zero = np.full(size, self.tables.size, dtype=np.intp)
            rows = [self.tables.derive_map(self._pos[c]) if c in self._pos else zero
                    for c in coords]
            src = np.array(rows, np.intp).reshape(len(coords), size)
            got = self._grads[coords] = (src, any(r is zero for r in rows))
        return got

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
    """Truncated unscaled mixed partials of a tensor over a seed set.

    ``c`` has the tensor's axes first and the partials on its last axis.  A
    float array operand of ``+``, ``-``, ``*`` or ``/`` is a constant tensor:
    it broadcasts against the tensor axes, never along the partials.
    """

    __slots__ = ("ctx", "c")
    # ndarray operators defer to the reflected Jet ones instead of building
    # an object array of jets.
    __array_ufunc__ = None

    def __init__(self, ctx: JetContext, coeffs: np.ndarray):
        self.ctx = ctx
        self.c = coeffs

    # -- constructors -------------------------------------------------------
    @classmethod
    def constant(cls, ctx: JetContext, value) -> "Jet":
        """A float or a float array with all partials zero."""
        return cls(ctx, _value_slot(ctx, value))

    @classmethod
    def coordinate(cls, ctx: JetContext, coord: CoordIndex, value: float) -> "Jet":
        c = np.zeros(ctx.tables.size)
        c[0] = value
        if coord in ctx._pos and ctx.order >= 1:
            unit = tuple(1 if i == ctx.position(coord) else 0
                         for i in range(len(ctx.seeds)))
            c[ctx.tables.index[unit]] = 1.0
        return cls(ctx, c)

    @classmethod
    def stack(cls, jets: Sequence["Jet"]) -> "Jet":
        """One jet whose leading axis runs over ``jets`` (same context, same shape)."""
        ctx = jets[0].ctx
        if any(j.ctx is not ctx for j in jets):
            raise ValueError("stacked jets must share their context")
        return cls(ctx, np.stack([j.c for j in jets]))

    # -- inspection ---------------------------------------------------------
    @property
    def value(self):
        """A float for a scalar jet, a fresh array for a tensor jet."""
        return float(self.c[0]) if self.c.ndim == 1 else self.c[..., 0].copy()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.c.shape[:-1]

    @property
    def order(self) -> int:
        return self.ctx.order

    @property
    def seeds(self) -> tuple[CoordIndex, ...]:
        return self.ctx.seeds

    def partial(self, multi) -> float:
        """Unscaled mixed partial of a scalar jet for a MultiIndex or direction sequence."""
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
        """All stored partials of a scalar jet, keyed canonically."""
        out = {}
        for e, i in self.ctx.tables.index.items():
            terms = tuple((s, m) for s, m in zip(self.ctx.seeds, e) if m)
            out[MultiIndex(terms)] = float(self.c[i])
        return out

    # -- tensor axes ----------------------------------------------------------
    def __getitem__(self, key) -> "Jet":
        key = key if isinstance(key, tuple) else (key,)
        return Jet(self.ctx, self.c[key + (slice(None),)])

    def transpose(self, *axes: int) -> "Jet":
        """Permute the tensor axes as ``np.transpose`` does (reversed by default)."""
        rank = self.c.ndim - 1
        return Jet(self.ctx, self.c.transpose(*(axes or range(rank - 1, -1, -1)), rank))

    def reshape(self, shape: tuple[int, ...]) -> "Jet":
        return Jet(self.ctx, self.c.reshape(tuple(shape) + self.c.shape[-1:]))

    # -- context plumbing ---------------------------------------------------
    def restrict(self, seeds: Sequence[CoordIndex], order: int) -> "Jet":
        """Forget seeds / lower the order, keeping the surviving partials."""
        sub = context(seeds, order)
        if sub is self.ctx:
            return self
        if order > self.ctx.order:
            raise ValueError("cannot restrict to a higher order")
        positions = tuple(self.ctx.position(s) for s in sub.seeds)
        src = self.ctx.tables.restrict_map(positions, order)
        return Jet(sub, self.c.take(src, -1))

    def embed(self, ctx: JetContext) -> "Jet":
        """This jet in ``ctx``, whose seeds include its own, at no higher order:
        the partials that involve a new seed are zero."""
        if ctx is self.ctx:
            return self
        if ctx.order > self.ctx.order:
            raise ValueError("cannot embed into a higher order")
        positions = tuple(ctx.position(s) for s in self.ctx.seeds)
        dst = ctx.tables.restrict_map(positions, ctx.order)
        c = np.zeros(self.c.shape[:-1] + (ctx.tables.size,))
        c[..., dst] = self.c[..., :dst.size]  # slots run by total: a prefix truncates
        return Jet(ctx, c)

    def grad(self, coords: Sequence[CoordIndex]) -> "Jet":
        """The partials along ``coords`` as a new last tensor axis; drops the order by one.

        A coordinate that is not a seed gets exact zeros: the jet does not
        depend on it.
        """
        src, pad = self.ctx.grad_map(tuple(coords))
        c = self.c
        if pad:
            c = np.concatenate((c, np.zeros(c.shape[:-1] + (1,))), -1)
        return Jet(self.ctx.lowered(), c.take(src, -1))

    def derive(self, coord: CoordIndex) -> "Jet":
        """Formal partial derivative along a seed; drops the order bound by one."""
        lowered = self.ctx.lowered()
        src = self.ctx.tables.derive_map(self.ctx.position(coord))
        return Jet(lowered, self.c.take(src, -1))

    # -- arithmetic ---------------------------------------------------------
    def _aligned(self, other: "Jet") -> tuple["Jet", "Jet"]:
        """Both operands over the union of their seeds, at the lower order."""
        if self.ctx is other.ctx:
            return self, other
        union = self.ctx.union(other.ctx)
        return self.embed(union), other.embed(union)

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = self._aligned(other)
            return Jet(a.ctx, a.c + b.c)
        return Jet(self.ctx, self.c + _value_slot(self.ctx, other))

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.ctx, -self.c)

    def __sub__(self, other):
        if isinstance(other, Jet):
            a, b = self._aligned(other)
            return Jet(a.ctx, a.c - b.c)
        return Jet(self.ctx, self.c - _value_slot(self.ctx, other))

    def __rsub__(self, other):
        return Jet(self.ctx, _value_slot(self.ctx, other) - self.c)

    def __mul__(self, other):
        """Elementwise truncated product, broadcasting over the tensor axes."""
        if isinstance(other, Jet):
            a, b = self._aligned(other)
            ii, jj, starts, ww = a.ctx.tables.mul_table
            terms = ww * a.c.take(ii, -1) * b.c.take(jj, -1)
            return Jet(a.ctx, np.add.reduceat(terms, starts, -1))
        return Jet(self.ctx, self.c * _tensor(other))

    __rmul__ = __mul__

    # Division by a jet, powers, sqrt and exp act on scalar jets only.
    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        if np.any(np.equal(other, 0.0)):
            raise DomainError("division of a jet by zero")
        return Jet(self.ctx, self.c / _tensor(other))

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

    def _scalar_value(self, op: str) -> float:
        if self.c.ndim != 1:
            raise TypeError(f"{op} acts on scalar jets only, not on a jet of shape {self.shape}")
        return float(self.c[0])

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
        v = self._scalar_value("division")
        if v == 0.0:
            raise DomainError("division by a jet with zero value")
        normalized = self * (1.0 / v)
        signs = [(-1.0) ** k for k in range(self.ctx.order + 1)]
        return normalized._nilpotent_series(1.0 / v, signs)

    def sqrt(self) -> "Jet":
        v = self._scalar_value("sqrt")
        if v <= 0.0:
            raise DomainError(f"sqrt of a jet with non-positive value {v}")
        normalized = self * (1.0 / v)
        binom = [1.0]
        for k in range(1, self.ctx.order + 1):
            binom.append(binom[-1] * (0.5 - (k - 1)) / k)
        return normalized._nilpotent_series(math.sqrt(v), binom)

    def exp(self) -> "Jet":
        v = self._scalar_value("exp")
        inv_fact = [1.0]
        for k in range(1, self.ctx.order + 1):
            inv_fact.append(inv_fact[-1] / k)
        return (self - v)._nilpotent_series(math.exp(v), inv_fact)

    def __repr__(self) -> str:
        return (f"Jet(order={self.ctx.order}, seeds={self.ctx.seeds}, "
                f"shape={self.shape}, value={self.value})")


def _tensor(value):
    """A float as it is, a float array with one trailing axis for the partials."""
    return value[..., None] if isinstance(value, np.ndarray) else value


def _value_slot(ctx: JetContext, value) -> np.ndarray:
    """Coefficients holding ``value`` (a float or a float array) with zero partials."""
    return _tensor(value) * ctx.tables.unit


@functools.cache
def _with_partials(spec: str) -> str:
    """``spec`` with one more index, shared by both operands and the output."""
    z = next(ch for ch in "zyxwvutsrqponmlkjihgfedcba" if ch not in spec)
    ins, out = spec.replace(" ", "").split("->")
    sa, sb = ins.split(",")
    return f"{sa}{z},{sb}{z}->{out}{z}"


def einsum(spec: str, a: Jet, b: Jet) -> Jet:
    """Truncated product of two jets contracted over tensor axes, as ``np.einsum(spec)``.

    The product terms ride on one extra axis and are summed by output index
    as in ``*``.
    """
    a, b = a._aligned(b)
    ii, jj, starts, ww = a.ctx.tables.mul_table
    terms = np.einsum(_with_partials(spec), ww * a.c.take(ii, -1), b.c.take(jj, -1))
    return Jet(a.ctx, np.add.reduceat(terms, starts, -1))


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
    """Coordinate scalars handed to a field: jets on seeds, floats elsewhere.

    Each seeded coordinate is a jet over itself alone, so every subexpression
    of the field carries only the seeds it depends on.
    """

    __slots__ = ("x", "u", "y", "v")

    def __init__(self, point, seeds: Sequence[CoordIndex] = (), order: int = 0):
        groups = [[float(t) for t in g] for g in (point.x, point.u, point.y, point.v)]
        for c in set(seeds):
            group = groups[c.block]
            if c.offset < len(group):
                group[c.offset] = Jet.coordinate(context((c,), order), c, group[c.offset])
        self.x, self.u, self.y, self.v = map(tuple, groups)


ScalarField = Callable[[CoordView], object]


def support_lift(field: ScalarField, point, seeds: Sequence[CoordIndex], order: int) -> Jet:
    """Lift a scalar field to a jet at ``point`` up to ``order``, over only
    those of ``seeds`` its expression reads.

    The field is evaluated on one-seed coordinate jets, so the result carries
    the union of the seeds it touched; a field that returns a plain float
    gives a jet over no seeds.
    """
    out = field(CoordView(point, seeds, order))
    if isinstance(out, Jet):
        return out
    return Jet.constant(context((), order), float(out))


def jet_lift(field: ScalarField, point, seeds: Sequence[CoordIndex], order: int) -> Jet:
    """Lift a scalar field to a jet at ``point`` over ``seeds`` up to ``order``:
    the :func:`support_lift` embedded into the context of all of ``seeds``."""
    return support_lift(field, point, seeds, order).embed(context(seeds, order))


#: Default relative steps per total order; cancellation noise grows like
#: eps / h^order, so higher orders need coarser stencils.
FD_DEFAULT_STEPS = {1: 1e-4, 2: 1e-3, 3: 4e-3}


def fd_partial(field: ScalarField, point, multi, step: float | None = None):
    """Central-difference mixed partial with Richardson extrapolation.

    Independent of the jet path by construction: only plain float evaluations
    of ``field`` at shifted points are used.  A field may return an array, so
    one stencil serves all of its components; the result is then an array of
    the same shape.  Total order is capped at 3, beyond which cancellation
    noise dominates.
    """
    if not isinstance(multi, MultiIndex):
        multi = MultiIndex.of(multi)
    if multi.order > 3:
        raise CapabilityError("finite differences support total order <= 3")
    if step is None:
        step = FD_DEFAULT_STEPS[max(multi.order, 1)]
    if step <= 0.0:
        raise ValueError("fd step must be positive")

    def value_at(p):
        out = field(CoordView(p))
        return np.array(out, dtype=float) if np.ndim(out) else as_float(out)

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
