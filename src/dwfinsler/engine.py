"""Generic per-point Finsler computation engine.

One :class:`FinslerEngine` wraps a single squared-norm field together with its
base/fiber coordinate lists and computes every tensor of that structure at a
point: fundamental tensor, Cartan torsion, spray, nonlinear connection,
horizontal coefficients, bracket curvature, Berwald curvature, hh-curvature
and the Riemann map.  The doubly warped product, and each factor on its own,
are three instances of the same engine; the warped-product closed forms are
layered on top (:mod:`dwfinsler.closed_forms`) and diffed against this path.

Everything is assembled from memoized truncated-Taylor lifts of the squared
norm over small seed subsets.  A "scope" names the outer differentiation
context: a tensor computed at scope (S, k) is one jet over seeds S up to order
k whose leading axes are the tensor's slots, so the whole tensor can be
differentiated further formally.  Scope ((), 0) yields plain point values.
The adapted derivative :meth:`EnginePoint.delta` acts on a whole tensor field
at once, and the inverse metric jet is the float inverse of the value matrix
extended by a nilpotent series, so no elimination runs on jets.

All per-point state has one owner: the :class:`Workspace` of a configuration
keeps one :class:`WorkPoint` per sample in a single dict, and each work point
holds the memos of its three engine points, its warp jets and the lifted
ingredients.  Nothing is evicted; ``workspace(cfg).clear()`` drops every point
of a configuration.  Caches are not protected by locks: share a workspace
across threads only for distinct points.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .coords import CoordIndex, base_coords, fiber_coords
from .jets import Jet, context, einsum, jet_lift
from .linalg import invert_matrix
from .metrics import ProductConfig, TangentSample


class Scope(NamedTuple):
    """Outer differentiation context: seed set and remaining jet order."""

    seeds: tuple[CoordIndex, ...]
    order: int

    def extend(self, dirs: Sequence[CoordIndex]) -> "Scope":
        return Scope(tuple(sorted(set(self.seeds) | set(dirs))), self.order + len(dirs))


POINT = Scope((), 0)


def _derived(jet: Jet, dirs: Sequence[CoordIndex]) -> Jet:
    return reduce(Jet.derive, dirs, jet)


def _grid(entry: Callable[..., Jet], *axes: Sequence) -> Jet:
    """One jet over the index grid of ``axes``; entry ``idx`` is ``entry(*idx)``."""
    flat = Jet.stack([entry(*idx) for idx in product(*axes)])
    return flat.reshape(tuple(map(len, axes)) + flat.shape[1:])


class FinslerEngine:
    """Tensor calculus of one Finsler structure defined by a squared norm."""

    def __init__(self, field: Callable, base: tuple[CoordIndex, ...],
                 fiber: tuple[CoordIndex, ...]):
        self.field = field
        self.base = base
        self.fiber = fiber
        self.n = len(base)


class EnginePoint:
    """All tensors of one engine at one sample, memoized by scope.

    Every tensor method returns one jet whose tensor axes are the tensor's
    slots; the matching ``*_values`` accessor is its value array.
    """

    def __init__(self, engine: FinslerEngine, sample: TangentSample):
        self.engine = engine
        self.sample = sample
        self._memo: dict = {}

    # -- memo helper ---------------------------------------------------------
    def _get(self, key, build):
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = build()
        return got

    def _along(self, tensor: Callable[[Scope], Jet], dirs: Sequence[CoordIndex],
               scope: Scope) -> Jet:
        """The partial along ``dirs`` of the tensor field, as a jet at ``scope``."""
        return _derived(tensor(scope.extend(dirs)), dirs).restrict(scope.seeds, scope.order)

    def _partials(self, tensor: Callable[[Scope], Jet], scope: Scope,
                  *axes: Sequence[CoordIndex]) -> Jet:
        """[i, j, ..., *] = the tensor field's partial along (axes[0][i], axes[1][j], ...)."""
        return _grid(lambda *dirs: self._along(tensor, dirs, scope), *axes)

    # -- primitive lifts -----------------------------------------------------
    def lift(self, seeds: tuple[CoordIndex, ...], order: int) -> Jet:
        key = ("lift", seeds, order)
        return self._get(key, lambda: jet_lift(self.engine.field, self.sample, seeds, order))

    def dF2(self, scope: Scope, dirs: Sequence[CoordIndex]) -> Jet:
        """The field's mixed partial along ``dirs``, as a jet at ``scope``."""
        dirs = tuple(sorted(dirs))
        return self._get(("dF2", scope, dirs), lambda: self._along(
            lambda sc: self.lift(sc.seeds, sc.order), dirs, scope))

    def _dF2_grid(self, scope: Scope, *axes: Sequence[CoordIndex]) -> Jet:
        """[i, j, ...] = the field's partial along (axes[0][i], axes[1][j], ...)."""
        return _grid(lambda *dirs: self.dF2(scope, dirs), *axes)

    def fiber_values(self) -> np.ndarray:
        return np.array([self.sample.coord(c) for c in self.engine.fiber])

    # -- metric level ---------------------------------------------------------
    def g(self, scope: Scope = POINT) -> Jet:
        fib = self.engine.fiber
        return self._get(("g", scope), lambda: 0.5 * self._dF2_grid(scope, fib, fib))

    def ginv(self, scope: Scope = POINT) -> Jet:
        """The inverse metric: the value matrix inverted, then the nilpotent
        series g^-1 = sum_k (-g0^-1 h)^k g0^-1 over h = g - g0 for the partials."""

        def build():
            g = self.g(scope)
            inv0 = Jet.constant(g.ctx, np.array(invert_matrix(g.value)[0]))
            step = -einsum("ab,bc->ac", inv0, g - g.value)
            out = term = inv0
            for _ in range(scope.order):
                term = einsum("ab,bc->ac", step, term)
                out = out + term
            return out

        return self._get(("ginv", scope), build)

    def g_values(self) -> np.ndarray:
        return self.g().value

    def ginv_values(self) -> np.ndarray:
        return self.ginv().value

    def F2_value(self) -> float:
        return self.dF2(POINT, ()).value

    def F2_partial(self, dirs: Sequence[CoordIndex]) -> float:
        return self.dF2(POINT, tuple(dirs)).value

    def F2_base_fiber_values(self) -> np.ndarray:
        """[a, b] = d^2 F^2 / dx^a dy^b: base derivative of the fiber gradient."""
        return self._dF2_grid(POINT, self.engine.base, self.engine.fiber).value

    def ginv_fiber_partial(self, dirs: Sequence[CoordIndex]) -> np.ndarray:
        """Mixed fiber partial of the inverse metric, as a value matrix."""
        dirs = tuple(sorted(dirs))
        return self._get(("ginv_partial", dirs),
                         lambda: self._along(self.ginv, dirs, POINT).value)

    def cartan(self) -> np.ndarray:
        """Fully symmetric lower Cartan torsion C_abc."""
        fib = self.engine.fiber
        return self._get(("cartan",),
                         lambda: 0.25 * self._dF2_grid(POINT, fib, fib, fib).value)

    def mean_cartan(self) -> np.ndarray:
        def build():
            return np.einsum("bc,abc->a", self.ginv_values(), self.cartan())

        return self._get(("mean_cartan",), build)

    def angular(self) -> np.ndarray:
        def build():
            g = self.g_values()
            y_low = g @ self.fiber_values()
            return g - np.outer(y_low, y_low) / self.F2_value()

        return self._get(("angular",), build)

    # -- spray and connections -------------------------------------------------
    def spray(self, scope: Scope = POINT) -> Jet:
        def build():
            base, fib = self.engine.base, self.engine.fiber
            ctx = context(scope.seeds, scope.order)
            y = Jet.stack([Jet.coordinate(ctx, c, self.sample.coord(c)) for c in fib])
            rhs = einsum("bc,c->b", self._dF2_grid(scope, fib, base), y) \
                - self._dF2_grid(scope, base)
            return 0.25 * einsum("ab,b->a", self.ginv(scope), rhs)

        return self._get(("spray", scope), build)

    def spray_values(self) -> np.ndarray:
        return self.spray().value

    def nonlinear_connection(self, scope: Scope = POINT) -> Jet:
        """N[a][b] = fiber derivative of the spray: the nonlinear connection."""
        fib = self.engine.fiber
        return self._get(("nlconn", scope),
                         lambda: self._partials(self.spray, scope, fib).transpose())

    def nonlinear_connection_values(self) -> np.ndarray:
        return self.nonlinear_connection().value

    def connection_fiber_derivative(self, scope: Scope = POINT) -> Jet:
        """G[a][b][c] = second fiber derivative of the spray, symmetric in (b, c)."""
        fib = self.engine.fiber
        return self._get(("connfd", scope),
                         lambda: self._partials(self.spray, scope, fib, fib).transpose(2, 0, 1))

    def connection_fiber_values(self) -> np.ndarray:
        return self.connection_fiber_derivative().value

    def berwald(self) -> np.ndarray:
        """B[a][b][c][d] = third fiber derivative of the spray."""
        fib = self.engine.fiber
        return self._get(("berwald",), lambda: np.moveaxis(
            self._partials(self.spray, POINT, fib, fib, fib).value, -1, 0))

    # -- horizontal calculus ----------------------------------------------------
    def delta(self, field_fn: Callable[[Scope], Jet], base_dir: CoordIndex,
              scope: Scope = POINT) -> Jet:
        """Adapted derivative of a tensor field: d/dx^b minus the
        connection-weighted fiber part, for every component at once."""
        b = self.engine.base.index(base_dir)
        fiber_part = self._partials(field_fn, scope, self.engine.fiber)
        return (self._along(field_fn, (base_dir,), scope)
                - einsum("c,c...->...", self.nonlinear_connection(scope)[:, b], fiber_part))

    def _delta_grid(self, field_fn: Callable[[Scope], Jet], scope: Scope) -> Jet:
        """[e, ...] = adapted derivative of the field along the e-th base direction."""
        return _grid(lambda x: self.delta(field_fn, x, scope), self.engine.base)

    def delta_g(self, scope: Scope = POINT) -> Jet:
        """dg[a][b][e] = adapted derivative of g_ab along the e-th base direction."""
        return self._get(("delta_g", scope),
                         lambda: self._delta_grid(self.g, scope).transpose(1, 2, 0))

    def horizontal_coefficients(self, scope: Scope = POINT) -> Jet:
        """H[c][a][b]: Berwald-type horizontal coefficients, symmetric in (a, b)."""

        def build():
            dg = self.delta_g(scope)
            # [e, a, b] = dg[e][a][b] + dg[e][b][a] - dg[a][b][e]
            lowered = dg + dg.transpose(0, 2, 1) - dg.transpose(2, 0, 1)
            return 0.5 * einsum("ce,eab->cab", self.ginv(scope), lowered)

        return self._get(("hcoef", scope), build)

    def horizontal_values(self) -> np.ndarray:
        return self.horizontal_coefficients().value

    def bracket_curvature(self, scope: Scope = POINT) -> Jet:
        """R[c][a][b]: curvature of the horizontal distribution, antisymmetric in (a, b)."""

        def build():
            # dn[c, a, b] = delta_b N[c][a]
            dn = self._delta_grid(self.nonlinear_connection, scope).transpose(1, 2, 0)
            return dn - dn.transpose(0, 2, 1)

        return self._get(("bracketR", scope), build)

    def bracket_curvature_values(self) -> np.ndarray:
        return self.bracket_curvature().value

    # -- curvature level ----------------------------------------------------------
    def hh_curvature(self) -> np.ndarray:
        """R[b][a][c][d]: horizontal curvature of the Berwald-type connection."""

        def build():
            H = self.horizontal_values()
            # dH[a, b, c, d] = delta_d H[a][b][c]
            dH = np.moveaxis(self._delta_grid(self.horizontal_coefficients, POINT).value, 0, -1)
            quad = np.einsum("ade,ebc->abcd", H, H)
            # Each bracket is exactly antisymmetric in (c, d), so their sum is too.
            out = (dH - dH.swapaxes(2, 3)) + (quad - quad.swapaxes(2, 3))
            return out.swapaxes(0, 1)

        return self._get(("hh",), build)

    def riemann_map(self) -> np.ndarray:
        """R[a][b]: the fiber-quadratic curvature endomorphism of the spray."""

        def build():
            base, fib = self.engine.base, self.engine.fiber
            G = self.spray_values()
            N = self.nonlinear_connection_values()
            # dxG[b, a] = dG^a / dx^b, dxdyG[c, b, a] = d^2 G^a / dx^c dy^b
            dxG = self._partials(self.spray, POINT, base).value
            dxdyG = self._partials(self.spray, POINT, base, fib).value
            return (2.0 * dxG.T
                    - np.einsum("c,cba->ab", self.fiber_values(), dxdyG)
                    + 2.0 * np.einsum("c,acb->ab", G, self.connection_fiber_values())
                    - N @ N)

        return self._get(("riemann_map",), build)


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
        self._points: dict[TangentSample, WorkPoint] = {}

    def at(self, sample: TangentSample) -> "WorkPoint":
        """The work point of ``sample``: validated and built once, then shared."""
        got = self._points.get(sample)
        if got is None:
            got = self._points[sample] = WorkPoint(self, sample)
        return got

    def clear(self) -> None:
        """Drop every cached point of this configuration."""
        self._points.clear()


class WorkPoint:
    """Everything computed at one sample: engine points, warp jets, lifted data.

    A work point built directly, not through :meth:`Workspace.at`, is not
    cached and lives as long as its caller keeps it.
    """

    def __init__(self, ws: Workspace, sample: TangentSample):
        ws.cfg.validate_sample(sample)
        self.cfg = ws.cfg
        self.sample = sample
        self.product = EnginePoint(ws.product, sample)
        self.factor1 = EnginePoint(ws.factor1, sample)
        self.factor2 = EnginePoint(ws.factor2, sample)
        self._warp: dict[tuple[int, Scope], Jet] = {}
        self.lifted = None  # the lifted ingredients, built by dwfinsler.lifted

    def warp_jet(self, which: int, scope: Scope) -> Jet:
        got = self._warp.get((which, scope))
        if got is None:
            field = self.cfg.warp1_squared if which == 1 else self.cfg.warp2_squared
            got = self._warp[which, scope] = jet_lift(field, self.sample,
                                                      scope.seeds, scope.order)
        return got

    def warp_sq(self, which: int) -> float:
        return self.warp_jet(which, POINT).value

    def warp_partial(self, which: int, dirs: Sequence[CoordIndex]) -> float:
        return _derived(self.warp_jet(which, POINT.extend(dirs)), dirs).value

    def factor(self, which: int) -> EnginePoint:
        return self.factor1 if which == 1 else self.factor2

    def grad_warp_norm_sq(self, which: int) -> float:
        """Squared gradient norm of the warp f (not f^2), in its factor metric."""
        eng = self.factor(which)
        coords = eng.engine.base
        ginv = eng.ginv_values()
        fsq = self.warp_sq(which)
        df = np.array([self.warp_partial(which, (c,)) for c in coords])
        # d f = d(f^2) / (2 f), so |grad f|^2 = g^{ab} d_a f^2 d_b f^2 / (4 f^2).
        return float(df @ ginv @ df) / (4.0 * fsq)


_WORKSPACES: dict[ProductConfig, Workspace] = {}


def workspace(cfg: ProductConfig) -> Workspace:
    got = _WORKSPACES.get(cfg)
    if got is None:
        got = _WORKSPACES[cfg] = Workspace(cfg)
    return got
