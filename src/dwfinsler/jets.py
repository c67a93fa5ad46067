"""Higher-order forward-mode differentiation via truncated Taylor jets.

A :class:`Jet` holds a tensor quantity together with all of its mixed partial
derivatives (unscaled, i.e. true derivatives rather than Taylor coefficients)
with respect to a chosen set of seed coordinates, up to a total order.  The
coefficient array ``Jet.c`` carries the tensor axes first and the partials on
its last axis; a scalar jet is the shape-``()`` case.  Arithmetic implements
the truncated Leibniz rule elementwise with broadcasting, and :func:`einsum`
contracts two jets over tensor axes, so whole tensors are differentiated,
multiplied and contracted at once.  :meth:`Jet.grad` stacks the partials
along a list of seeds as one more tensor axis.  Division by a jet, integer
powers, sqrt and exp act elementwise over the tensor axes too, so scalar
fields built from +, -, *, /, sqrt, exp and integer powers of seeded
coordinates carry exact derivatives, entry by entry.

A batch of points is one more tensor axis, in front: :class:`CoordView` and
:func:`support_lift` take a point whose coordinates are arrays of one value
per sample, and each seeded coordinate becomes a jet of that shape.  Every
operation acts on each sample alone and runs the arithmetic of a single
point, so the engine's tensors come out with the bits of each sample's own
evaluation, as the tests check (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., ch. 13: the vector mode).

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
finite-difference cross-checks and the public API.  The finite differences
run on float batches: :func:`fd_partials` builds the stencils of many probes
as coordinate arrays (:func:`_fd_stencil`), evaluates the field once on all
their points as one batch, and combines the values of each order's probes at
once (:func:`_fd_combine`); :func:`fd_partial` is its single probe.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, Sequence

import numpy as np

from .coords import MAX_ORDER, CoordIndex, MultiIndex
from .errors import CapabilityError, DomainError

__all__ = [
    "Jet", "JetContext", "jet_lift", "support_lift", "fd_partial", "fd_partials",
    "einsum", "sqrt", "exp",
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
    Products, division by a jet, integer powers, sqrt and exp act entry by
    entry; a batch of samples is a leading tensor axis like any other.
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
    def coordinate(cls, ctx: JetContext, coord: CoordIndex, value) -> "Jet":
        """The coordinate at ``value``, a float or an array of one value per
        sample; its partial along itself is one when it is a seed."""
        c = np.zeros((value.shape if isinstance(value, np.ndarray) else ()) + (ctx.tables.size,))
        c[..., 0] = value
        pos = ctx._pos.get(coord)
        if pos is not None and ctx.order >= 1:
            unit = [0] * len(ctx.seeds)
            unit[pos] = 1
            c[..., ctx.tables.index[tuple(unit)]] = 1.0
        return cls(ctx, c)

    @classmethod
    def stack(cls, jets: Sequence["Jet"]) -> "Jet":
        """One jet whose last tensor axis runs over ``jets`` (same context, same shape)."""
        ctx = jets[0].ctx
        if any(j.ctx is not ctx for j in jets):
            raise ValueError("stacked jets must share their context")
        return cls(ctx, np.stack([j.c for j in jets], -2))

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
        """Permute the last ``len(axes)`` tensor axes as ``np.transpose`` does
        (all of them, reversed, by default); leading axes, such as a batch, stay."""
        rank = self.c.ndim - 1
        lead = rank - len(axes) if axes else 0
        order = [lead + a for a in axes] if axes else range(rank - 1, -1, -1)
        return Jet(self.ctx, self.c.transpose(*range(lead), *order, rank))

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
            # Multiplied in place, so two term arrays live at once, not four;
            # ww * a and a * ww have the same bits.
            terms = a.c.take(ii, -1)
            terms *= ww
            terms *= b.c.take(jj, -1)
            return Jet(a.ctx, np.add.reduceat(terms, starts, -1))
        return Jet(self.ctx, self.c * _tensor(other))

    __rmul__ = __mul__

    # Division by a jet, powers, sqrt and exp act entry by entry: each is a
    # series in the jet with its values zeroed, scaled by a value array.
    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        if np.any(np.equal(other, 0.0)):
            raise DomainError("division of a jet by zero")
        return Jet(self.ctx, self.c / _tensor(other))

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, p):
        try:
            p = operator.index(p)
        except TypeError:
            raise TypeError("jet powers must be integers; use sqrt/exp for the rest") from None
        if p < 0:
            return self._reciprocal() ** (-p)
        out = Jet.constant(self.ctx, np.ones(self.shape))
        base = self
        while p:
            if p & 1:
                out = out * base
            base = base * base if p > 1 else base
            p >>= 1
        return out

    def _nilpotent_series(self, c0: np.ndarray, coeffs: list[float]) -> "Jet":
        """c0 * (coeffs[0] + coeffs[1]*h + ...), h = self with its values zeroed;
        ``c0`` holds one value per tensor entry."""
        h = Jet(self.ctx, self.c.copy())
        h.c[..., 0] = 0.0
        acc = Jet.constant(self.ctx, coeffs[0])
        power = None
        for k in range(1, self.ctx.order + 1):
            power = h if power is None else power * h
            if coeffs[k]:
                acc = acc + coeffs[k] * power
        return acc * c0

    def _reciprocal(self) -> "Jet":
        v = self.c[..., 0]
        # Checked on Python floats, as in sqrt.
        if any(t == 0.0 for t in v.ravel().tolist()):
            raise DomainError("division by a jet with zero value")
        inverse = 1.0 / v
        signs = [(-1.0) ** k for k in range(self.ctx.order + 1)]
        return (self * inverse)._nilpotent_series(inverse, signs)

    def sqrt(self) -> "Jet":
        v = self.c[..., 0]
        # Checked on Python floats: a numpy reduction costs more than the
        # check at a single point.
        if any(t <= 0.0 for t in v.ravel().tolist()):
            raise DomainError(f"sqrt of a jet with non-positive value {np.min(v)}")
        normalized = self * (1.0 / v)
        binom = [1.0]
        for k in range(1, self.ctx.order + 1):
            binom.append(binom[-1] * (0.5 - (k - 1)) / k)
        # np.sqrt is correctly rounded, as math.sqrt is.
        return normalized._nilpotent_series(np.sqrt(v), binom)

    def exp(self) -> "Jet":
        v = self.c[..., 0]
        inv_fact = [1.0]
        for k in range(1, self.ctx.order + 1):
            inv_fact.append(inv_fact[-1] / k)
        return (self - v)._nilpotent_series(_exp_values(v), inv_fact)

    def __repr__(self) -> str:
        return (f"Jet(order={self.ctx.order}, seeds={self.ctx.seeds}, "
                f"shape={self.shape}, value={self.value})")


def _exp_values(v: np.ndarray) -> np.ndarray:
    """exp of each entry by ``math.exp``, whose bits np.exp need not match."""
    return np.array([math.exp(t) for t in v.ravel().tolist()]).reshape(v.shape)


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


#: Leibniz terms :func:`einsum` gathers at once, in elements: a contraction of
#: jets that share a longer leading ``...`` axis (a batch of samples) runs in
#: slices of it, so its term arrays stay near this size.
TERM_ELEMENTS = 1 << 16


def _shared_lead(spec: str, a: np.ndarray, b: np.ndarray) -> int:
    """The length of the first ``...`` axis both coefficient arrays and the
    output lead with, or 0 when the spec or the shapes have none."""
    ins, out = spec.replace(" ", "").split("->")
    sa, sb = ins.split(",")
    if not all(t.startswith("...") for t in (sa, sb, out)):
        return 0
    ea, eb = a.ndim - 1 - (len(sa) - 3), b.ndim - 1 - (len(sb) - 3)
    if ea != eb or ea < 1 or a.shape[0] != b.shape[0]:
        return 0
    return a.shape[0]


def _leibniz(spec: str, a: np.ndarray, b: np.ndarray, table) -> np.ndarray:
    """The coefficients of the contraction of two aligned coefficient arrays."""
    ii, jj, starts, ww = table
    left = a.take(ii, -1)
    left *= ww
    return np.add.reduceat(np.einsum(spec, left, b.take(jj, -1)), starts, -1)


def einsum(spec: str, a: Jet, b: Jet) -> Jet:
    """Truncated product of two jets contracted over tensor axes, as ``np.einsum(spec)``.

    The product terms ride on one extra axis and are summed by output index
    as in ``*``.  Each slice of a shared leading axis runs the arithmetic of
    the whole, so slicing changes no bit.
    """
    a, b = a._aligned(b)
    table = a.ctx.tables.mul_table
    full = _with_partials(spec)
    size = max(a.c.size // a.c.shape[-1], b.c.size // b.c.shape[-1]) * len(table[0])
    lead = _shared_lead(spec, a.c, b.c) if size > TERM_ELEMENTS else 0
    if lead < 2:
        return Jet(a.ctx, _leibniz(full, a.c, b.c, table))
    step = max(1, lead * TERM_ELEMENTS // size)
    return Jet(a.ctx, np.concatenate([_leibniz(full, a.c[k:k + step], b.c[k:k + step], table)
                                      for k in range(0, lead, step)]))


def sqrt(x):
    """sqrt for plain floats, value arrays and jets alike, each entry checked
    on its own."""
    if isinstance(x, Jet):
        return x.sqrt()
    if isinstance(x, np.ndarray):
        # Checked on Python floats, as in Jet.sqrt; np.sqrt is correctly
        # rounded, as math.sqrt is.
        bad = [t for t in x.ravel().tolist() if t <= 0.0]
        if bad:
            raise DomainError(f"sqrt of non-positive value {bad[0]}")
        return np.sqrt(x)
    if x <= 0.0:
        raise DomainError(f"sqrt of non-positive value {x}")
    return math.sqrt(x)


def exp(x):
    """exp for plain floats, value arrays and jets alike, with the bits of
    ``math.exp`` at each entry."""
    if isinstance(x, Jet):
        return x.exp()
    if isinstance(x, np.ndarray):
        return _exp_values(x)
    return math.exp(x)


class CoordView:
    """Coordinate scalars handed to a field: jets on seeds, values elsewhere.

    Each seeded coordinate is a jet over itself alone, so every subexpression
    of the field carries only the seeds it depends on.  The point may be a
    batch (:class:`~dwfinsler.metrics.SampleBatch`), whose coordinates are
    arrays of one value per sample: then every jet and value has that shape,
    and ``shape`` is it (``()`` for one point).
    """

    __slots__ = ("x", "u", "y", "v", "shape")

    def __init__(self, point, seeds: Sequence[CoordIndex] = (), order: int = 0):
        groups = [list(g) for g in (point.x, point.u, point.y, point.v)]
        first = point.y[0]
        self.shape = first.shape if isinstance(first, np.ndarray) else ()
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
    gives a jet over no seeds.  A batch of points gives a jet with one leading
    axis over the samples.
    """
    view = CoordView(point, seeds, order)
    out = field(view)
    if isinstance(out, Jet):
        return out
    return Jet.constant(context((), order), np.full(view.shape, float(out)))


def jet_lift(field: ScalarField, point, seeds: Sequence[CoordIndex], order: int) -> Jet:
    """Lift a scalar field to a jet at ``point`` over ``seeds`` up to ``order``:
    the :func:`support_lift` embedded into the context of all of ``seeds``."""
    return support_lift(field, point, seeds, order).embed(context(seeds, order))


#: Default relative steps per total order; cancellation noise grows like
#: eps / h^order, so higher orders need coarser stencils.
FD_DEFAULT_STEPS = {1: 1e-4, 2: 1e-3, 3: 4e-3}


def _fd_stencil(rows: np.ndarray, positions: np.ndarray, step: float):
    """The stencils of probes of one order, as arrays.

    ``rows[P, C]`` holds each probe's point, its coordinates (x, u, y, v) in
    one row, and ``positions[P, k]`` the positions in a row of the probe's k
    directions, outermost first.  Each direction in turn moves every point of
    the stencil so far to four, shifted along it by +h/2, -h/2, +h and -h,
    with h = step * (1 + |coordinate|) read at that point, which earlier
    directions may have shifted.  Returns the stencil points
    ``[P, 4**k, C]``, in the order of the nested central differences, and
    the steps ``h[P, 4**j]`` of each level j, for :func:`_fd_combine`.
    """
    points = np.asarray(rows, dtype=float)[:, None, :]
    probes = np.arange(len(points))
    steps = []
    for at in np.asarray(positions, dtype=int).reshape(len(points), -1).T:
        coord = points[probes, :, at]
        h = step * (1.0 + abs(coord))
        half = h / 2.0
        shifted = coord[..., None] + np.stack([half, -half, h, -h], axis=-1)
        points = np.repeat(points, 4, axis=1)
        points[probes, :, at] = shifted.reshape(len(points), -1)
        steps.append(h)
    return points, steps


def _fd_combine(values, steps) -> np.ndarray:
    """The estimates ``[P, ...]`` of probes of one order from the values
    ``[P, 4**k, ...]`` of a field at the points of their :func:`_fd_stencil`,
    given its ``steps``.

    Innermost first, the four values around each point become the central
    differences D(s) = (f(+s) - f(-s)) / (2 s) at s = h/2 and h, combined by
    Richardson extrapolation as (4 D(h/2) - D(h)) / 3.
    """
    values = np.asarray(values, dtype=float)
    for h in reversed(steps):
        v = values.reshape(h.shape + (4,) + values.shape[2:])
        h = h.reshape(h.shape + (1,) * (values.ndim - 2))
        values = (4.0 * ((v[:, :, 0] - v[:, :, 1]) / (2.0 * (h / 2.0)))
                  - (v[:, :, 2] - v[:, :, 3]) / (2.0 * h)) / 3.0
    return values[:, 0]


def _checked(multi, step: float | None) -> tuple[MultiIndex, float]:
    if not isinstance(multi, MultiIndex):
        multi = MultiIndex.of(multi)
    if multi.order > 3:
        raise CapabilityError("finite differences support total order <= 3")
    if step is None:
        step = FD_DEFAULT_STEPS[max(multi.order, 1)]
    if step <= 0.0:
        raise ValueError("fd step must be positive")
    return multi, step


def fd_partials(evaluate: Callable, probes, step: float | None = None) -> list:
    """The :func:`fd_partial` estimates of many probes, ``(point, multi)``
    pairs, from one evaluation.

    ``evaluate`` is handed the points of every probe's stencil as one
    :class:`~dwfinsler.metrics.SampleBatch` and returns their values along a
    leading axis (floats, or arrays of one shape).  The stencils of probes
    of one order are built and combined as arrays (:func:`_fd_stencil`,
    :func:`_fd_combine`).  Returns the estimates in the order of ``probes``.
    """
    from .metrics import SampleBatch
    checked = [_checked(multi, step) for _, multi in probes]
    groups: dict[tuple[int, float], list[int]] = {}
    for k, (multi, h) in enumerate(checked):
        groups.setdefault((multi.order, h), []).append(k)
    stencils = []
    for (order, h), ks in groups.items():
        rows = [probes[k][0].x + probes[k][0].u + probes[k][0].y + probes[k][0].v for k in ks]
        positions = [[_row_position(probes[k][0], c) for c in checked[k][0].directions]
                     for k in ks]
        stencils.append((ks,) + _fd_stencil(np.array(rows), np.array(positions), h))
    first = probes[0][0]
    values = np.asarray(evaluate(SampleBatch.stacked(
        np.concatenate([points.reshape(-1, points.shape[-1]) for _, points, _ in stencils]),
        len(first.x), len(first.u))), dtype=float)
    out: list = [None] * len(probes)
    start = 0
    for ks, points, steps in stencils:
        size = points.shape[0] * points.shape[1]
        chunk = values[start:start + size].reshape(points.shape[:2] + values.shape[1:])
        for k, estimate in zip(ks, _fd_combine(chunk, steps)):
            out[k] = estimate
        start += size
    return out


def _row_position(point, coord: CoordIndex) -> int:
    """The position of ``coord`` in the row x + u + y + v of ``point``."""
    sizes = (len(point.x), len(point.u), len(point.y), len(point.v))
    return sum(sizes[:coord.block]) + coord.offset


def fd_partial(field: ScalarField, point, multi, step: float | None = None):
    """Central-difference mixed partial with Richardson extrapolation.

    Independent of the jet path by construction: only plain float
    evaluations of ``field`` at shifted points are used, on every point of
    the stencil at once, as one batch (:func:`fd_partials`).  So the field
    must act on its coordinates entry by entry, as the metric fields do:
    numpy functions, not ``math`` ones, and no branch on a value.  A field
    may return an array of components, each with the stencil axis last, as
    an array of coordinate expressions has it; the result is then an array
    of the components' shape.  The field is also evaluated once at ``point``
    itself, for the shape of its components: a result of that shape on the
    stencil is constant over it.  Total order is capped at 3, beyond which
    cancellation noise dominates.
    """
    def evaluate(batch):
        out = np.asarray(field(CoordView(batch)), dtype=float)
        if out.shape == shape:
            out = np.broadcast_to(out[..., None], shape + (len(batch),))
        elif out.shape != shape + (len(batch),):
            raise ValueError(
                f"fd_partial: the field gives shape {out.shape} on a stencil of "
                f"{len(batch)} points and {shape} at one point")
        return np.moveaxis(out, -1, 0)

    shape = np.shape(field(CoordView(point)))
    return fd_partials(evaluate, [(point, multi)], step)[0]
