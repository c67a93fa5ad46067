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
the Leibniz table.  On a batch the series runs block by block: g's diagonal
blocks, the connected components of its nonzero entries, each over only the
seeds its coefficients depend on (on FIX-R, {u0} for each factor-1 entry
and {x0, v0, v1} for the factor-2 block, of six seeds).  A block's products
sum the same terms in the same order as the whole matrix's, and what it
drops is exact zeros, so no bit moves.  A field that ignores a fiber
coordinate has a singular g, which the inverse rejects with
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
workspace keeps one slot: the sample last asked for by :meth:`Workspace.at`,
with its work point, which holds its engine points, warp jets and lifted
ingredients.  Another sample or configuration replaces it; the per-point
chain reads a sample's tensors before the next.  :meth:`Workspace.strips`
keeps nothing: each strip is built when asked for and belongs to its reader.
The battery reads each strip with every suite before it asks for the next,
and no work point sits in a reference cycle, so reference counting frees a
strip once it is dropped and a battery holds one strip at a time, however
many points it reads.  The memos are not locked: share a workspace across
threads only for distinct points.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterator, Sequence

import numpy as np

from .blocks import matvec
from .coords import CoordIndex, base_coords, fiber_coords
from .jets import Jet, context, einsum, support_lift
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

        On a batch the series runs block by block (:func:`_diagonal_blocks`):
        each diagonal block of g over only the seeds it depends on, with the
        matching sub-block of g0^-1, embedded back into g's context; a block
        over no seeds is that sub-block.  No bit moves: a Leibniz product
        gives a coefficient the same run of terms in any context that holds
        it, the products between blocks that the whole matrix would add are
        exact zeros on a sum that starts from +0.0, and every coefficient a
        block drops is +0.0 there too.  A single sample, and a g of order 1,
        whose series runs no Leibniz product, run the whole matrix, where
        the bookkeeping costs more than the smaller products save.
        """
        g = self.g()
        inv0 = self._value_inverse()[0]
        blocks = _diagonal_blocks(g, inv0) if self.lead and g.order > 1 else None
        if blocks is None:
            return _inverse_series(g, inv0)
        c = np.zeros(g.c.shape)
        for rows, positions in blocks:
            sub = context([g.seeds[k] for k in positions], g.order)
            at = (Ellipsis,) + np.ix_(rows, rows, g.ctx.slots(sub))
            block_inv0 = inv0[..., rows[:, None], rows]
            if positions:
                c[at] = _inverse_series(Jet(sub, g.c[at]), block_inv0).c
            else:  # a constant block: the series adds only +0.0 terms to its value
                c[at] = (block_inv0 + 0.0)[..., None]
        return Jet(g.ctx, c)

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
        return 0.25 * einsum("...ab,...b->...a", self.ginv(), rhs)

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
        fib = field.grad(self.engine.fiber).value
        flat = fib.reshape(self.lead + (-1, fib.shape[-1]))
        con = np.einsum("...ce,...tc->...te", self.nonlinear_connection_values(), flat)
        return field.grad(self.engine.base).value - con.reshape(fib.shape)

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
        dn = self.delta(self.nonlinear_connection())  # [c, a, b] = delta_b N[c][a]
        return dn - dn.swapaxes(-1, -2)

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
        dxdyG = self.nonlinear_connection().grad(self.engine.base).value
        return (2.0 * dxG
                - np.einsum("...c,...abc->...ab", self.fiber_values(), dxdyG)
                + 2.0 * np.einsum("...c,...acb->...ab", G, self.connection_fiber_values())
                - N @ N)


def _inverse_series(g: Jet, inv0: np.ndarray) -> Jet:
    """g^-1 = sum_k (-g0^-1 h)^k g0^-1 over h = g - g0, truncated at g's order,
    from the value inverse ``inv0``.

    A product with the constant g0^-1 is a linear map on the coefficients,
    so the step -g0^-1 h and the first term contract on values; only the
    higher powers, nilpotent times nilpotent, run the Leibniz table.
    """
    out = Jet.constant(g.ctx, inv0)
    if g.order == 0:
        return out
    step = Jet(g.ctx, -np.einsum("...ab,...bcz->...acz", inv0, (g - g.value).c))
    term = Jet(g.ctx, np.einsum("...abz,...bc->...acz", step.c, inv0))
    out = out + term
    for _ in range(g.order - 1):
        term = einsum("...ab,...bc->...ac", step, term)
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


def _diagonal_blocks(g: Jet, inv0: np.ndarray) -> list[tuple[np.ndarray, tuple[int, ...]]] | None:
    """The diagonal blocks of g as (rows, seed positions), or None where the
    whole matrix should run instead.

    The blocks are the connected components of g's nonzero entries, in any
    sample, and each keeps the seeds on which some coefficient of its
    entries is nonzero.  They are read off the coefficients, not the
    configuration, so any field's g splits as far as its zeros show.  The
    partial-pivot elimination never combines rows of two blocks, so g0^-1
    has the same blocks.  A non-finite coefficient in g or g0^-1 gives
    None, so NaN and inf spread as in the whole-matrix series, and so does
    a single block over every seed, which has nothing to drop.
    """
    if not (np.isfinite(g.c).all() and np.isfinite(inv0).all()):
        return None
    # [a, b, slot]: the coefficient is nonzero in some sample; [a, b, seed]:
    # some nonzero coefficient of the entry has a partial along the seed.
    live = (g.c != 0.0).reshape((-1,) + g.c.shape[-3:]).any(0)
    seeded = live @ (g.ctx.tables.exps > 0)
    entries = live.any(-1)
    # Squaring the adjacency (with loops) k times links entries 2^k steps apart.
    linked = entries | entries.T | np.eye(len(entries), dtype=bool)
    for _ in range(len(entries).bit_length()):
        linked = linked @ linked
    blocks = []
    for first, row in enumerate(linked.tolist()):
        if row.index(True) == first:  # the first row of its block
            rows = np.flatnonzero(row)
            used = seeded[rows[:, None], rows].any((0, 1))
            blocks.append((rows, tuple(np.flatnonzero(used).tolist())))
    if len(blocks) == 1 and len(blocks[0][1]) == len(g.seeds):
        return None
    return blocks


# ---------------------------------------------------------------------------
# Product workspaces
# ---------------------------------------------------------------------------

class Workspace:
    """Product and factor engines of one config, and its per-point state."""

    def __init__(self, cfg: ProductConfig):
        self.cfg = cfg
        self.product = FinslerEngine(cfg.F2, cfg.base, cfg.fiber)
        self.factor1 = FinslerEngine(cfg.F1_squared,
                                     base_coords(cfg.n1, 0), fiber_coords(cfg.n1, 0))
        self.factor2 = FinslerEngine(cfg.F2_squared,
                                     tuple(c for c in cfg.base if c.factor == 2),
                                     tuple(c for c in cfg.fiber if c.factor == 2))
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
        """Drop the work point kept for the last sample."""
        self._slot = (None, None)


class WorkPoint:
    """Everything computed at one sample: engine points, warp jets, lifted data.

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
        self.factor1 = EnginePoint(ws.factor1, sample, order)
        self.factor2 = EnginePoint(ws.factor2, sample, order)
        self.lead = self.product.lead
        self.samples: tuple[TangentSample, ...] | None = None  # set on a strip
        self._warp: dict[int, Jet] = {}
        self.lifted = None  # the lifted ingredients, built by dwfinsler.lifted
        self.closed_forms = None  # the closed-form ingredients, built by dwfinsler.closed_forms

    def _warp_jet(self, which: int) -> Jet:
        """The squared warp, lifted at order 1 over those of its factor's base
        coordinates it reads (a gradient along the others is exactly zero)."""
        got = self._warp.get(which)
        if got is None:
            field = self.cfg.warp1_squared if which == 1 else self.cfg.warp2_squared
            got = self._warp[which] = support_lift(field, self.sample,
                                                   self.factor(which).engine.base, 1)
        return got

    def warp_sq(self, which: int) -> float | np.ndarray:
        return self._warp_jet(which).value

    def warp_gradient(self, which: int) -> np.ndarray:
        """[a] = d(f^2) / dx^a over the base coordinates of the warp's factor."""
        return self._warp_jet(which).grad(self.factor(which).engine.base).value

    def factor(self, which: int) -> EnginePoint:
        return self.factor1 if which == 1 else self.factor2

    def grad_warp_norm_sq(self, which: int) -> float | np.ndarray:
        """Squared gradient norm of the warp f (not f^2), in its factor metric."""
        eng = self.factor(which)
        ginv = eng.ginv_values()
        fsq = self.warp_sq(which)
        df = self.warp_gradient(which)
        # d f = d(f^2) / (2 f), so |grad f|^2 = g^{ab} d_a f^2 d_b f^2 / (4 f^2).
        # A row times a matrix times a column: the BLAS calls of a 1-d df.
        return (df[..., None, :] @ ginv @ df[..., :, None])[..., 0, 0] / (4.0 * fsq)


_last: Workspace | None = None


def workspace(cfg: ProductConfig) -> Workspace:
    """The workspace of ``cfg``: the last one if its configuration equals ``cfg``."""
    global _last
    if _last is None or (_last.cfg is not cfg and _last.cfg != cfg):
        _last = Workspace(cfg)
    return _last
