"""Generic per-point Finsler computation engine.

One :class:`FinslerEngine` wraps a single squared-norm field together with its
base/fiber coordinate lists and computes every tensor of that structure at a
point: fundamental tensor, Cartan torsion, spray, nonlinear connection,
horizontal coefficients, bracket curvature, Berwald curvature, hh-curvature
and the Riemann map.  The doubly warped product, and each factor on its own,
are three instances of the same engine; the warped-product closed forms are
layered on top (:mod:`dwfinsler.closed_forms`) and diffed against this path.

Each engine point lifts its squared norm once: one truncated Taylor jet at
order 5, the depth the Berwald tensor needs as the third fiber derivative of
the spray, which is itself built from second derivatives of F^2.  The lift
evaluates the field by seed support (:func:`dwfinsler.jets.support_lift`):
each summand and factor of F^2 is a jet over the few coordinates it depends
on, and the lift keeps only the seeds F^2 reads, not every engine coordinate
(on FIX-R the warps read x0 and u0 only, so x1 and u1 are not seeds).  Every
tensor is then one jet over those same seeds, derived from the lift by
gradients along coordinate lists (:meth:`Jet.grad`, exact zeros along an
engine coordinate that is not a seed), its leading axes the tensor's slots
and each gradient one more axis, so every point runs the same short sequence
of array operations and the contexts of its tensors line up.  The inverse
metric jet is the float inverse of the value matrix extended by a nilpotent
series, so no elimination runs on jets; the series starts with contractions
by that constant inverse on the coefficients, and only its higher powers run
the Leibniz table.  The series runs block by block: g's diagonal blocks, the
connected components of its nonzero entries merged where they depend on the
same seeds, each over only those seeds (on FIX-R, {u0} for the two factor-1
rows and {x0, v0, v1} for the two factor-2 rows, of six seeds).  A block's
products sum the same terms in the same order as the whole matrix's, and
what it drops is exact zeros, so no bit moves.  Each engine keeps one block
plan of g per jet context: the blocks, their contexts and indices, and the
coefficients the plan assumes are zero.  A point or strip that runs the
blocks first checks that its g is finite and zero wherever the plan assumes
a zero, and builds the plan again from its g where it is not.  A strip runs
the blocks, and its spray contracts with g^-1 block of rows by block of
rows; a single sample runs them where they cost fewer Leibniz terms than the
whole matrix (on FIX-R, and not on FIX-1D, whose two 1x1 blocks save less
than a series costs).  A field that ignores a fiber coordinate has a
singular g, which the inverse rejects with
:class:`~dwfinsler.errors.SingularMetricError`.

A point may be a batch of samples (:class:`~dwfinsler.metrics.SampleBatch`):
every tensor then has one more leading axis, over the samples, and every
method runs unchanged on it, its contractions written over a leading
``...``.  The value inverse of a batch is one Gauss-Jordan over its
samples that runs each sample's own pivots and operations, so a batch gives
each sample the bits of its own evaluation, and a sample that fails alone
fails the batch with the same error.  The harness evaluates its
sampled points this way, as strips (:meth:`Workspace.strips`), and its side
points too (fiber-rescaled copies, finite-difference stencils).  A single
sample serves the library and the CLI: :data:`dwfinsler.core.TENSORS` names
the :class:`EnginePoint` method of each product tensor, and
:func:`dwfinsler.core.tensor` reads it at a sample of the workspace.

Products run only where a reader takes their partials.  The adapted
derivative :meth:`EnginePoint.delta` acts on a whole tensor field along every
base direction at once and returns its value, which is all the bracket
curvature, hh and the suites read.  dg is the one adapted derivative kept as a
jet, and it and H carry order 1, since the adapted derivative of H in hh
takes one derivative.

Per-point state lives as long as its owner keeps it.  :func:`workspace`
keeps the :class:`Workspace` of the configuration last asked for, and the
workspace keeps its engines, with their block plans, and one slot: the
sample last asked for by :meth:`Workspace.at`, with its work point, which
holds its engine points, its two :class:`Side` records (every per-factor
value and warp partial the closed forms and the lifted tables read, built on
first read) and its lifted ingredients.  Another sample or configuration
replaces it, and :meth:`Workspace.clear` drops it and the plans; the
per-point chain reads a sample's tensors before the next, and reads no side.
:meth:`Workspace.strips` keeps nothing: each strip is built when asked for
and belongs to its reader.
The battery reads each strip with every suite before it asks for the next,
and no work point sits in a reference cycle, so reference counting frees a
strip once it is dropped and a battery holds one strip at a time, however
many points it reads.  The memos are not locked: share a workspace across
threads only for distinct points.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .blocks import matvec, vdot
from .coords import CoordIndex
from .jets import Jet, JetContext, context, einsum, einsum_powers, support_lift
from .linalg import invert_batch, invert_matrix
from .metrics import ProductConfig, SampleBatch, TangentSample

#: Jet order of the whole-point lift of F^2: the Berwald tensor is the third
#: fiber derivative of the spray, and the spray takes two derivatives of F^2.
LIFT_ORDER = 5
#: The lowest lift order that still gives the values of g, the spray, N and
#: the horizontal coefficients: enough for points read only for those values.
VALUE_ORDER = 3
#: The lowest lift order that gives the values of g and the spray, which take
#: two derivatives of F^2: enough for points read only for those two.
SPRAY_ORDER = 2
#: Lift coefficients per strip: a strip holds as many samples as fit this
#: budget at the product lift's coefficient count per sample, and at least one.
STRIP_COEFFICIENTS = 20_000
#: The fixed cost of one inverse series at a single sample, in the Leibniz
#: terms that take as long: what a block must save to pay for its own series.
SERIES_TERMS = 4_000


def _once(method):
    """A zero-argument method computed on its first call, then read back."""
    name = method.__name__

    @functools.wraps(method)
    def memoized(self):
        got = self._done.get(name)
        if got is None:
            got = self._done[name] = method(self)
        return got

    return memoized


class FinslerEngine:
    """Tensor calculus of one Finsler structure defined by a squared norm."""

    def __init__(self, field: Callable, base: tuple[CoordIndex, ...],
                 fiber: tuple[CoordIndex, ...]):
        self.field = field
        self.base = base
        self.fiber = fiber
        self.coords = base + fiber
        self.n = len(base)
        #: g's block plan per jet context (:class:`_BlockPlan`), kept as long
        #: as the engine, which its workspace keeps.
        self.plans: dict[JetContext, _BlockPlan] = {}


class EnginePoint:
    """All tensors of one engine at one sample, each computed once.

    The tensors up to H are jets whose tensor axes are the tensor's slots,
    each with a ``*_values`` accessor for its value array; the curvatures,
    the Cartan tensors and :meth:`delta` return value arrays.  For a batch of
    samples every tensor, jet or array, carries a leading axis over the
    samples (``lead``), and each sample has the bits of its own evaluation.
    """

    def __init__(self, engine: FinslerEngine, sample: TangentSample | SampleBatch,
                 order: int = LIFT_ORDER):
        self.engine = engine
        self.sample = sample
        self.order = order
        self.lead = (len(sample),) if isinstance(sample, SampleBatch) else ()
        self._done: dict = {}

    @_once
    def lift(self) -> Jet:
        """F^2 up to the point's order, over the engine coordinates it reads."""
        return support_lift(self.engine.field, self.sample, self.engine.coords, self.order)

    @_once
    def fiber_values(self) -> np.ndarray:
        """[..., b] = the fiber coordinates, contiguous per sample as the
        contractions over them need to keep the bits of a single sample."""
        return np.ascontiguousarray(np.array([self.sample.coord(c) for c in self.engine.fiber]).T)

    # -- metric level ---------------------------------------------------------
    @_once
    def g(self) -> Jet:
        fib = self.engine.fiber
        return 0.5 * self.lift().grad(fib).grad(fib)

    @_once
    def _value_inverse(self) -> tuple[np.ndarray, float | np.ndarray]:
        """g0^-1 and its condition estimate: one Gauss-Jordan over the samples
        of a batch (:func:`~dwfinsler.linalg.invert_batch`), which gives each
        sample the bits of its own inversion, and the float elimination of
        :func:`~dwfinsler.linalg.invert_matrix` for a single sample, where
        array operations cost more than they save."""
        g0 = self.g().value
        if self.lead:
            return invert_batch(g0)
        inverse, cond = invert_matrix(g0.tolist())
        return np.array(inverse), cond

    def g_condition(self) -> float | np.ndarray:
        """The 1-norm condition estimate of g's value (one per sample of a batch)."""
        return self._value_inverse()[1]

    @_once
    def ginv(self) -> Jet:
        """The inverse metric: the value matrix inverted, then the nilpotent
        series of :func:`_inverse_series` for the partials.

        The series runs block by block where g's block plan says so: the
        plan the engine keeps for g's context, as long as its workspace,
        checked against this g and built again where g breaks it
        (:meth:`_blocks`).  Each diagonal block of g runs over only the
        seeds it depends on, with the matching sub-block of g0^-1, and is
        embedded back into g's context; a block over no seeds is that
        sub-block.  No bit moves: a Leibniz product gives a coefficient the
        same run of terms in any context that holds it, the products between
        blocks that the whole matrix would add are exact zeros on a sum that
        starts from +0.0, and every coefficient a block drops is +0.0 there
        too.
        """
        g = self.g()
        inv0 = self._value_inverse()[0]
        blocks = self._blocks()
        if not blocks:
            return _inverse_series(g, inv0)
        c = np.zeros(g.c.shape)
        for block in blocks:
            if block.sub.seeds:
                c[block.at] = _inverse_series(Jet(block.sub, g.c[block.at]), inv0[block.inv]).c
            else:  # a constant block: the series adds only +0.0 terms to its value
                c[block.at] = (inv0[block.inv] + 0.0)[..., None]
        return Jet(g.ctx, c)

    @_once
    def _blocks(self) -> tuple[_Block, ...]:
        """The blocks of g's plan that :meth:`ginv` runs by, or none for the
        whole matrix.

        A g of order 1, whose series runs no Leibniz product, runs the whole
        matrix, and so does a single sample where the plan's blocks cost
        more than the whole.  Otherwise g and g0^-1 must be finite, since the
        whole matrix spreads a NaN or inf across blocks, and g must be zero
        wherever its plan assumes a zero; if it is not, the plan is built
        again from g.
        """
        g = self.g()
        plan = self.engine.plans.get(g.ctx)
        if g.order < 2 or not (self.lead or plan is None or plan.pays):
            return ()
        if not (np.isfinite(g.c).all() and np.isfinite(self._value_inverse()[0]).all()):
            return ()
        if plan is None or g.c.reshape(self.lead + (-1,)).take(plan.zeros, -1).any():
            plan = self.engine.plans[g.ctx] = _BlockPlan(g)
        return plan.blocks if self.lead or plan.pays else ()

    def g_values(self) -> np.ndarray:
        return self.g().value

    def ginv_values(self) -> np.ndarray:
        return self.ginv().value

    def F2_value(self) -> float:
        return self.lift().value

    def F2_fiber_gradient(self) -> np.ndarray:
        """[b] = d F^2 / dy^b."""
        return self.lift().grad(self.engine.fiber).value

    def F2_base_fiber_values(self) -> np.ndarray:
        """[a, b] = d^2 F^2 / dx^a dy^b: base derivative of the fiber gradient,
        read off the lift restricted to its second partials."""
        lift = self.lift()
        lift = lift.restrict(lift.seeds, min(lift.order, 2))
        return lift.grad(self.engine.base).grad(self.engine.fiber).value

    @_once
    def cartan(self) -> np.ndarray:
        """Fully symmetric lower Cartan torsion C_abc."""
        return 0.5 * self.g().grad(self.engine.fiber).value

    @_once
    def mean_cartan(self) -> np.ndarray:
        return np.einsum("...bc,...abc->...a", self.ginv_values(), self.cartan())

    @_once
    def matsumoto(self) -> np.ndarray:
        """C minus its angular-metric/mean-Cartan reducible part, normalized by
        the engine's dimension n: M = C - (I h + I h + I h) / (n + 1)."""
        I, h = self.mean_cartan(), self.angular()
        return self.cartan() - (np.einsum("...a,...bc->...abc", I, h)
                                + np.einsum("...b,...ac->...abc", I, h)
                                + np.einsum("...c,...ab->...abc", I, h)) / (self.engine.n + 1)

    @_once
    def angular(self) -> np.ndarray:
        g = self.g_values()
        y_low = matvec(g, self.fiber_values())
        F2 = np.asarray(self.F2_value())[..., None, None]
        return g - y_low[..., :, None] * y_low[..., None, :] / F2

    # -- spray and connections -------------------------------------------------
    @_once
    def spray(self) -> Jet:
        base, fib = self.engine.base, self.engine.fiber
        dyx = self.lift().grad(fib).grad(base)  # [b, c] = d^2 F^2 / dy^b dx^c
        rhs = _times_fiber(dyx, self.sample, fib) - self.lift().grad(base)
        ginv = self.ginv()
        blocks = self._blocks() if self.lead else ()
        # On a strip whose g^-1 ran by blocks, each block's rows contract
        # with its own columns only.  The terms dropped are exact zeros,
        # which the whole contraction adds in index order to a sum from
        # +0.0, so no bit moves; a right-hand side that is not finite would
        # make them NaN, so it runs the whole contraction.
        if not blocks or not np.isfinite(rhs.c).all():
            return 0.25 * einsum("...ab,...b->...a", ginv, rhs)
        parts = [einsum("...ab,...b->...a", ginv[block.inv], rhs[..., block.rows])
                 for block in blocks]
        c = np.empty(parts[0].c.shape[:-2] + (len(fib), parts[0].c.shape[-1]))
        for block, part in zip(blocks, parts):
            c[..., block.rows, :] = part.c
        return 0.25 * Jet(parts[0].ctx, c)

    def spray_values(self) -> np.ndarray:
        return self.spray().value

    @_once
    def nonlinear_connection(self) -> Jet:
        """N[a][b] = fiber derivative of the spray: the nonlinear connection."""
        return self.spray().grad(self.engine.fiber)

    def nonlinear_connection_values(self) -> np.ndarray:
        return self.nonlinear_connection().value

    @_once
    def connection_fiber_derivative(self) -> Jet:
        """G[a][b][c] = second fiber derivative of the spray, symmetric in (b, c)."""
        return self.nonlinear_connection().grad(self.engine.fiber)

    def connection_fiber_values(self) -> np.ndarray:
        return self.connection_fiber_derivative().value

    @_once
    def berwald(self) -> np.ndarray:
        """B[a][b][c][d] = third fiber derivative of the spray."""
        return self.connection_fiber_derivative().grad(self.engine.fiber).value

    # -- horizontal calculus ----------------------------------------------------
    def delta(self, field: Jet) -> np.ndarray:
        """[..., e] = value of the adapted derivative of a tensor field along the
        e-th base direction: d/dx^e minus the connection-weighted fiber part.

        The field's tensor slots are flattened to one axis between the
        samples and the contracted slot, so N's sample axis meets the field's.
        """
        return self._delta(field.grad(self.engine.base).value,
                           field.grad(self.engine.fiber).value)

    def _delta(self, base: np.ndarray, fib: np.ndarray) -> np.ndarray:
        """:meth:`delta` of a field from the values of its base and fiber gradients."""
        flat = fib.reshape(self.lead + (-1, fib.shape[-1]))
        con = np.einsum("...ce,...tc->...te", self.nonlinear_connection_values(), flat)
        return base - con.reshape(fib.shape)

    @_once
    def delta_g(self) -> Jet:
        """dg[a][b][e] = adapted derivative of g_ab along the e-th base direction.

        Only its first partials are read (through H, by the adapted derivative
        in hh), so g is differentiated from order 2 at most and dg has order 1.
        """
        g = self.g()
        g = g.restrict(g.seeds, min(g.order, 2))
        return (g.grad(self.engine.base)
                - einsum("...ce,...abc->...abe", self.nonlinear_connection(),
                         g.grad(self.engine.fiber)))

    @_once
    def horizontal_coefficients(self) -> Jet:
        """H[c][a][b]: Berwald-type horizontal coefficients, symmetric in (a, b)."""
        dg = self.delta_g()
        # [e, a, b] = dg[e][a][b] + dg[e][b][a] - dg[a][b][e]
        lowered = dg + dg.transpose(0, 2, 1) - dg.transpose(2, 0, 1)
        return 0.5 * einsum("...ce,...eab->...cab", self.ginv(), lowered)

    def horizontal_values(self) -> np.ndarray:
        return self.horizontal_coefficients().value

    @_once
    def bracket_curvature_values(self) -> np.ndarray:
        """R[c][a][b]: curvature of the horizontal distribution, antisymmetric in (a, b)."""
        # [c, a, b] = delta_b N[c][a]; N's fiber gradient is Gf.
        dn = self._delta(self._connection_base_values(), self.connection_fiber_values())
        return dn - dn.swapaxes(-1, -2)

    @_once
    def _connection_base_values(self) -> np.ndarray:
        """[a, b, c] = d N[a][b] / dx^c = d^2 G^a / dy^b dx^c, read by the
        bracket curvature and the Riemann map."""
        return self.nonlinear_connection().grad(self.engine.base).value

    @_once
    def horizontal_delta_values(self) -> np.ndarray:
        """[a, b, c, d] = delta_d H[a][b][c]: the adapted derivative of H, read
        by hh and by the finite-difference check."""
        return self.delta(self.horizontal_coefficients())

    # -- curvature level ----------------------------------------------------------
    @_once
    def hh_curvature(self) -> np.ndarray:
        """R[b][a][c][d]: horizontal curvature of the Berwald-type connection."""
        H = self.horizontal_values()
        dH = self.horizontal_delta_values()
        quad = np.einsum("...ade,...ebc->...abcd", H, H)
        # Each bracket is exactly antisymmetric in (c, d), so their sum is too.
        out = (dH - dH.swapaxes(-2, -1)) + (quad - quad.swapaxes(-2, -1))
        return out.swapaxes(-4, -3)

    @_once
    def riemann_map(self) -> np.ndarray:
        """R[a][b]: the fiber-quadratic curvature endomorphism of the spray."""
        G = self.spray_values()
        N = self.nonlinear_connection_values()
        # dxG[a, b] = dG^a / dx^b, dxdyG[a, b, c] = d^2 G^a / dy^b dx^c
        dxG = self.spray().grad(self.engine.base).value
        dxdyG = self._connection_base_values()
        return (2.0 * dxG
                - np.einsum("...c,...abc->...ab", self.fiber_values(), dxdyG)
                + 2.0 * np.einsum("...c,...acb->...ab", G, self.connection_fiber_values())
                - N @ N)


def _inverse_series(g: Jet, inv0: np.ndarray) -> Jet:
    """g^-1 = sum_k (-g0^-1 h)^k g0^-1 over h = g - g0, truncated at g's order,
    from the value inverse ``inv0``.

    A product with the constant g0^-1 is a linear map on the coefficients,
    so the step -g0^-1 h and the first term contract on values; only the
    higher powers, nilpotent times nilpotent, run the Leibniz table, with
    the step's terms gathered once for all of them.
    """
    out = Jet.constant(g.ctx, inv0)
    if g.order == 0:
        return out
    step = Jet(g.ctx, -np.einsum("...ab,...bcz->...acz", inv0, (g - g.value).c))
    term = Jet(g.ctx, np.einsum("...abz,...bc->...acz", step.c, inv0))
    out = out + term
    if g.order > 1:
        for term in einsum_powers("...ab,...bc->...ac", step, term, g.order - 1):
            out = out + term
    return out


def _times_fiber(dyx: Jet, sample: TangentSample | SampleBatch,
                 fiber: tuple[CoordIndex, ...]) -> Jet:
    """[..., b] = sum_c dyx[..., b, c] y^c, y^c the c-th fiber coordinate of
    ``sample`` as a jet: on a batch, a shift of dyx's coefficients.

    A coordinate jet is its value plus 1 along its own seed, so the product
    at α is α_k dyx[b, c(k)] at α - e_k for each fiber seed k with α_k >= 1,
    then sum_c dyx[b, c] y^c at α (Griewank & Walther, *Evaluating
    Derivatives*, 2nd ed., ch. 13).  The Leibniz product sums the same
    nonzero terms, and +0.0 for every other, in that order, and
    ``np.add.reduceat`` sums a run of at most 8 terms as its first term plus
    the rest in order, the first being +0.0 where a run holds more than two,
    so no bit moves.  Above order 3 a run can be longer and its rest is
    summed pairwise, and a
    non-finite coefficient spreads NaN through the zero terms, so both run
    the Leibniz product; so does one sample, where the shift costs more.
    """
    ctx = dyx.ctx
    if not isinstance(sample, SampleBatch) or ctx.order > 3 or not np.isfinite(dyx.c).all():
        y = Jet.stack([Jet.coordinate(ctx, c, sample.coord(c)) for c in fiber])
        return einsum("...bc,...c->...b", dyx, y)
    out = np.zeros(dyx.c.shape[:-2] + (ctx.tables.size,))
    if ctx.order:
        lower = ctx.lowered().tables
        for k, seed in enumerate(ctx.seeds):
            if seed in fiber:
                out[..., ctx.tables.derive_map(k)] += (dyx.c[..., fiber.index(seed), :lower.size]
                                                       * (lower.exps[:, k] + 1.0))
    y = np.stack([sample.coord(c) for c in fiber], -1)
    out += np.einsum("...bcz,...cz->...bz", dyx.c, y[..., None])
    return Jet(ctx, out)


class _Block(NamedTuple):
    """One diagonal block of a plan: its ``rows``, the context ``sub`` over
    the seeds its coefficients depend on, and the index of its coefficients
    in g's (``at``) and of its value block in g0^-1 (``inv``)."""
    rows: np.ndarray
    sub: JetContext
    at: tuple
    inv: tuple


class _BlockPlan:
    """The diagonal blocks of g in one jet context, read off one g.

    ``zeros`` lists, as flat positions over entry and slot, the
    coefficients that were zero in every sample of that g; the plan holds
    for any g that is zero there too, which :meth:`EnginePoint._blocks`
    checks.  ``blocks`` are those of :func:`_diagonal_blocks`, none where
    the whole matrix is one block over every seed.  ``pays`` says whether
    the blocks cost less than the whole matrix at a single sample, in
    Leibniz terms: a series over some seeds costs ``SERIES_TERMS`` plus
    (order - 1) rows^2 times the terms of its context's table, and a
    constant block runs none.
    """

    __slots__ = ("zeros", "blocks", "pays")

    def __init__(self, g: Jet):
        live = (g.c != 0.0).reshape((-1,) + g.c.shape[-3:]).any(0)
        self.zeros = np.flatnonzero(~live)
        self.blocks = tuple(_Block(rows, sub, (Ellipsis,) + np.ix_(rows, rows, g.ctx.slots(sub)),
                                   (Ellipsis, rows[:, None], rows))
                            for rows, sub in _diagonal_blocks(live, g.ctx))

        def cost(rows: int, ctx: JetContext) -> int:
            if not ctx.seeds:
                return 0
            return SERIES_TERMS + (g.order - 1) * rows ** 2 * len(ctx.tables.mul_table[0])
        self.pays = sum(cost(len(b.rows), b.sub) for b in self.blocks) < cost(len(live), g.ctx)


def _diagonal_blocks(live: np.ndarray, ctx: JetContext) -> list[tuple[np.ndarray, JetContext]]:
    """The diagonal blocks of a g in ``ctx`` whose nonzero coefficients are
    ``live`` ([a, b, slot]), as (rows, context over the block's seeds), or
    none where a single block spans every seed and has nothing to drop.

    The blocks are the connected components of the nonzero entries, merged
    where they depend on the same seeds, and each keeps the seeds on which
    some coefficient of its entries is nonzero.  They are read off the
    coefficients, not the configuration, so any field's g splits as far as
    its zeros show.  The partial-pivot elimination never combines rows of
    two components, so g0^-1 has the same blocks.
    """
    # [a, b, seed]: some nonzero coefficient of the entry has a partial along the seed.
    seeded = live @ (ctx.tables.exps > 0)
    entries = live.any(-1)
    # Squaring the adjacency (with loops) k times links entries 2^k steps apart.
    linked = entries | entries.T | np.eye(len(entries), dtype=bool)
    for _ in range(len(entries).bit_length()):
        linked = linked @ linked
    merged: dict[tuple[int, ...], list[int]] = {}
    for first, row in enumerate(linked.tolist()):
        if row.index(True) == first:  # the first row of its component
            rows = np.flatnonzero(row)
            used = seeded[rows[:, None], rows].any((0, 1))
            merged.setdefault(tuple(np.flatnonzero(used).tolist()), []).extend(rows.tolist())
    if len(merged) == 1 and len(next(iter(merged))) == len(ctx.seeds):
        return []
    return [(np.array(sorted(rows)), context([ctx.seeds[k] for k in positions], ctx.order))
            for positions, rows in merged.items()]


# ---------------------------------------------------------------------------
# Product workspaces
# ---------------------------------------------------------------------------

class Workspace:
    """Product and factor engines of one config, and its per-point state."""

    def __init__(self, cfg: ProductConfig):
        self.cfg = cfg
        self.product = FinslerEngine(cfg.F2, cfg.base, cfg.fiber)
        self.factors = tuple(FinslerEngine(field, tuple(c for c in cfg.base if c.factor == t),
                                           tuple(c for c in cfg.fiber if c.factor == t))
                             for t, field in ((1, cfg.F1_squared), (2, cfg.F2_squared)))
        self._slot: tuple = (None, None)  # the last sample, and its work point
        self._lift_size: int | None = None  # lift coefficients per sample

    def at(self, sample: TangentSample) -> "WorkPoint":
        """The work point of ``sample``: validated, built, and kept while
        ``sample`` is the last one asked for."""
        held, wp = self._slot
        if held is not sample and held != sample:
            wp = WorkPoint(self, sample)
            self._slot = (sample, wp)
        return wp

    def strips(self, samples: Sequence[TangentSample]) -> Iterator["WorkPoint"]:
        """``samples`` in order, as consecutive strips: each one work point over
        its samples as a batch, built when it is asked for and not kept.

        A strip holds ``STRIP_COEFFICIENTS`` over the coefficient count of the
        product lift of one sample, and at least one sample.  A caller that
        drops each strip before it asks for the next holds one at a time.
        """
        samples = tuple(samples)
        if self._lift_size is None and samples:
            seeds = support_lift(self.product.field, samples[0], self.product.coords, 1).seeds
            self._lift_size = math.comb(len(seeds) + LIFT_ORDER, LIFT_ORDER)
        size = max(1, STRIP_COEFFICIENTS // (self._lift_size or 1))
        for i in range(0, len(samples), size):
            chunk = samples[i:i + size]
            strip = WorkPoint(self, SampleBatch.of(chunk))
            strip.samples = chunk
            yield strip

    def clear(self) -> None:
        """Drop the work point kept for the last sample, and the engines'
        block plans."""
        self._slot = (None, None)
        for engine in (self.product, *self.factors):
            engine.plans.clear()


class WorkPoint:
    """Everything computed at one sample: the engine points of the product
    and of its two factors, the factors' sides, and the lifted data.

    Only the work point of :meth:`Workspace.at` is kept, in the workspace's
    slot; any other, a strip of :meth:`Workspace.strips` included, lives as
    long as its caller keeps it.  One that is read only for low tensor values
    may lift at ``VALUE_ORDER``, or at ``SPRAY_ORDER`` when it is read only
    for g and the spray.  Its sample may be a
    :class:`~dwfinsler.metrics.SampleBatch`: every value then carries a
    leading axis over its samples (``lead``).  A strip of
    :meth:`Workspace.strips` also keeps its samples, in order, as ``samples``.
    """

    def __init__(self, ws: Workspace, sample: TangentSample | SampleBatch,
                 order: int = LIFT_ORDER):
        ws.cfg.validate_sample(sample)
        self.cfg = ws.cfg
        self.sample = sample
        self.product = EnginePoint(ws.product, sample, order)
        self.factors = tuple(EnginePoint(f, sample, order) for f in ws.factors)
        self.lead = self.product.lead
        self.samples: tuple[TangentSample, ...] | None = None  # set on a strip
        self.lifted = None  # the lifted ingredients, built by dwfinsler.lifted

    @functools.cached_property
    def sides(self) -> tuple[Side, Side]:
        """The :class:`Side` of factor 1 and of factor 2, built on first read."""
        warps = (self.cfg.warp1_squared, self.cfg.warp2_squared)
        return tuple(Side(ep, t, warp) for t, ep, warp in zip((1, 2), self.factors, warps))


class Side:
    """Every per-factor ingredient of a work point, for one factor t.

    The closed forms read each block as a pattern over a factor t and the
    other factor o, one side each.  A side holds t's engine point ``eng``
    (``which`` = t, ``n`` its dimension) and its values: g, ginv, the Cartan
    tensor C and ``C_up`` = g^sh C_hij, F^2 as ``Fsq`` and its fiber
    gradient ``dF``.  Its warp is t's own, the one that scales the other
    factor: ``fsq`` = f^2 and its base gradient ``w``, from one jet of f^2
    lifted at order 1 over those of t's base coordinates it reads (a
    gradient along the others is exactly zero), ``wy`` = w . y, and
    ``grad_norm_sq`` = |grad f|^2 in t's metric.  The scalars are arrays, one
    value per sample of a batch.  A side keeps its engine point, not the
    work point, so a dropped strip is freed by reference counting.
    """

    def __init__(self, eng: EnginePoint, which: int, warp: Callable):
        self.eng, self.which, self.n = eng, which, eng.engine.n
        self.g, self.ginv, self.C = eng.g_values(), eng.ginv_values(), eng.cartan()
        self.C_up = np.einsum("...sh,...hij->...sij", self.ginv, self.C)
        self.Fsq, self.dF = np.asarray(eng.F2_value()), eng.F2_fiber_gradient()
        base = eng.engine.base
        jet = support_lift(warp, eng.sample, base, 1)
        self.fsq, self.w = np.asarray(jet.value), jet.grad(base).value
        self.wy = vdot(self.w, eng.fiber_values())
        # d f = d(f^2) / (2 f), so |grad f|^2 = g^{ab} d_a f^2 d_b f^2 / (4 f^2).
        # A row times a matrix times a column: the BLAS calls of a 1-d w.
        self.grad_norm_sq = ((self.w[..., None, :] @ self.ginv @ self.w[..., :, None])[..., 0, 0]
                             / (4.0 * self.fsq))
        self._dginv = [eng.ginv()]

    def dginv(self, order: int) -> np.ndarray:
        """[..., k, h, i, j, ...] = the order-``order`` fiber partial d^order g^kh / dy^i dy^j ...
        of the factor's inverse metric, each order kept as one gradient of the last."""
        while len(self._dginv) <= order:
            self._dginv.append(self._dginv[-1].grad(self.eng.engine.fiber))
        return self._dginv[order].value


_last: Workspace | None = None


def workspace(cfg: ProductConfig) -> Workspace:
    """The workspace of ``cfg``: the last one if its configuration equals ``cfg``."""
    global _last
    if _last is None or (_last.cfg is not cfg and _last.cfg != cfg):
        _last = Workspace(cfg)
    return _last
