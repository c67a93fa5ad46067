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
the Leibniz table.  A field that ignores a fiber coordinate has a singular g,
which the inverse rejects with :class:`~dwfinsler.errors.SingularMetricError`.

A point may be a batch of samples (:class:`~dwfinsler.metrics.SampleBatch`):
every tensor then has one more leading axis, over the samples, and every
method runs unchanged on it, its contractions written over a leading
``...``.  The value inverse of a batch is one Gauss-Jordan over its
samples that runs each sample's own pivots and operations, so a batch gives
each sample the bits of its own evaluation, and a sample that fails alone
fails the batch with the same error.  The harness evaluates its
sampled points this way, as strips (:meth:`Workspace.strips`), and its side
points too (fiber-rescaled copies, finite-difference stencils); a single
sample serves the library API, the CLI and streams of fresh points.

Products run only where a reader takes their partials.  The adapted
derivative :meth:`EnginePoint.delta` acts on a whole tensor field along every
base direction at once and returns its value, which is all the bracket
curvature, hh and the suites read.  dg is the one adapted derivative kept as a
jet, and it and H carry order 1, since the adapted derivative of H in hh
takes one derivative.

All per-point state has one owner: the :class:`Workspace` of a configuration
keeps one :class:`WorkPoint` per sample, and one per strip of samples, in a
single dict, and each work point holds its three engine points, its warp jets
and the lifted ingredients.  Nothing is evicted; ``workspace(cfg).clear()``
drops every point and strip of a configuration.  Caches are not protected by
locks: share a workspace across threads only for distinct points.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .blocks import matvec
from .coords import CoordIndex, base_coords, fiber_coords
from .jets import Jet, einsum, jet_lift, support_lift
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
        series g^-1 = sum_k (-g0^-1 h)^k g0^-1 over h = g - g0 for the partials.

        A product with the constant g0^-1 is a linear map on the coefficients,
        so the step -g0^-1 h and the first term contract on values; only the
        higher powers, nilpotent times nilpotent, run the Leibniz table.
        """
        g = self.g()
        inv0 = self._value_inverse()[0]
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
        """[a, b] = d^2 F^2 / dx^a dy^b: base derivative of the fiber gradient."""
        return self.lift().grad(self.engine.base).grad(self.engine.fiber).value

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
        y = Jet.stack([Jet.coordinate(dyx.ctx, c, self.sample.coord(c)) for c in fib])
        rhs = einsum("...bc,...c->...b", dyx, y) - self.lift().grad(base)
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

    # -- curvature level ----------------------------------------------------------
    @_once
    def hh_curvature(self) -> np.ndarray:
        """R[b][a][c][d]: horizontal curvature of the Berwald-type connection."""
        H = self.horizontal_values()
        dH = self.delta(self.horizontal_coefficients())  # [a, b, c, d] = delta_d H[a][b][c]
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


# ---------------------------------------------------------------------------
# Product workspaces
# ---------------------------------------------------------------------------

class Workspace:
    """Product and factor engines of one config, and its per-point state."""

    def __init__(self, cfg: ProductConfig):
        self.cfg = cfg
        n1, n2 = cfg.n1, cfg.n2
        self.product = FinslerEngine(cfg.F2, cfg.base, cfg.fiber)
        self.factor1 = FinslerEngine(cfg.F1_squared,
                                     base_coords(n1, 0), fiber_coords(n1, 0))
        self.factor2 = FinslerEngine(cfg.F2_squared,
                                     tuple(c for c in cfg.base if c.factor == 2),
                                     tuple(c for c in cfg.fiber if c.factor == 2))
        # Keyed by a sample, or by the tuple of samples of a strip.
        self._points: dict[TangentSample | tuple[TangentSample, ...], WorkPoint] = {}
        self._lift_size: int | None = None  # lift coefficients per sample

    def at(self, sample: TangentSample) -> "WorkPoint":
        """The work point of ``sample``: validated and built once, then shared."""
        got = self._points.get(sample)
        if got is None:
            got = self._points[sample] = WorkPoint(self, sample)
        return got

    def strips(self, samples: Sequence[TangentSample]) -> list["WorkPoint"]:
        """``samples`` in order, as consecutive strips: each one work point over
        its samples as a batch, built once and shared like :meth:`at`.

        A strip holds ``STRIP_COEFFICIENTS`` over the coefficient count of the
        product lift of one sample, so memory stays bounded at large
        dimensions, where strips fall back to single samples.
        """
        if self._lift_size is None and samples:
            seeds = support_lift(self.product.field, samples[0], self.product.coords, 1).seeds
            self._lift_size = math.comb(len(seeds) + LIFT_ORDER, LIFT_ORDER)
        size = max(1, STRIP_COEFFICIENTS // (self._lift_size or 1))
        out = []
        for start in range(0, len(samples), size):
            key = tuple(samples[start:start + size])
            got = self._points.get(key)
            if got is None:
                got = self._points[key] = WorkPoint(self, SampleBatch.of(key))
                got.samples = key
            out.append(got)
        return out

    def clear(self) -> None:
        """Drop every cached point and strip of this configuration."""
        self._points.clear()


class WorkPoint:
    """Everything computed at one sample: engine points, warp jets, lifted data.

    A work point built directly, not through :meth:`Workspace.at`, is not
    cached and lives as long as its caller keeps it; one that is read only
    for low tensor values may lift at ``VALUE_ORDER``, or at ``SPRAY_ORDER``
    when it is read only for g and the spray.  Its sample may be a
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

    def _warp_jet(self, which: int) -> Jet:
        """The squared warp, lifted at order 1 over its factor's base coordinates."""
        got = self._warp.get(which)
        if got is None:
            field = self.cfg.warp1_squared if which == 1 else self.cfg.warp2_squared
            got = self._warp[which] = jet_lift(field, self.sample,
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


_WORKSPACES: dict[ProductConfig, Workspace] = {}


def workspace(cfg: ProductConfig) -> Workspace:
    got = _WORKSPACES.get(cfg)
    if got is None:
        got = _WORKSPACES[cfg] = Workspace(cfg)
    return got
