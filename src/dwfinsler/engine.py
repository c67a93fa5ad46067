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
context: tensors computed at scope (S, k) have components that are jets over
seeds S up to order k, so they can be differentiated further formally.  Scope
((), 0) yields plain point values.

Caches are per (engine, point) and are not protected by locks: share engines
across threads only for distinct points, or use one workspace per thread.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .coords import CoordIndex, base_coords, fiber_coords
from .jets import Jet, jet_lift
from .linalg import invert_matrix
from .metrics import ProductConfig, TangentSample


class Scope(NamedTuple):
    """Outer differentiation context: seed set and remaining jet order."""

    seeds: tuple[CoordIndex, ...]
    order: int

    def extend(self, dirs: Sequence[CoordIndex]) -> "Scope":
        return Scope(tuple(sorted(set(self.seeds) | set(dirs))), self.order + len(dirs))


POINT = Scope((), 0)


def _values(nested) -> np.ndarray:
    """Extract .value from an arbitrarily nested list structure of jets."""
    if isinstance(nested, Jet):
        return nested.value
    return np.array([_values(t) for t in nested])


class FinslerEngine:
    """Tensor calculus of one Finsler structure defined by a squared norm."""

    def __init__(self, field: Callable, base: tuple[CoordIndex, ...],
                 fiber: tuple[CoordIndex, ...]):
        self.field = field
        self.base = base
        self.fiber = fiber
        self.n = len(base)
        self._points: dict[TangentSample, EnginePoint] = {}

    def at(self, sample: TangentSample) -> "EnginePoint":
        got = self._points.get(sample)
        if got is None:
            got = self._points[sample] = EnginePoint(self, sample)
        return got

    def clear(self) -> None:
        self._points.clear()


class EnginePoint:
    """All tensors of one engine at one sample, memoized by scope."""

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

    # -- primitive lifts -----------------------------------------------------
    def lift(self, seeds: tuple[CoordIndex, ...], order: int) -> Jet:
        key = ("lift", seeds, order)
        return self._get(key, lambda: jet_lift(self.engine.field, self.sample, seeds, order))

    def dF2(self, scope: Scope, dirs: Sequence[CoordIndex]) -> Jet:
        """The field's mixed partial along ``dirs``, as a jet at ``scope``."""
        dirs = tuple(sorted(dirs))
        key = ("dF2", scope, dirs)

        def build():
            seeds = tuple(sorted(set(scope.seeds) | set(dirs)))
            jet = self.lift(seeds, scope.order + len(dirs))
            for d in dirs:
                jet = jet.derive(d)
            return jet.restrict(scope.seeds, scope.order)

        return self._get(key, build)

    def coord_jet(self, scope: Scope, ci: CoordIndex) -> Jet:
        from .jets import context
        return Jet.coordinate(context(scope.seeds, scope.order), ci, self.sample.coord(ci))

    def fiber_values(self) -> np.ndarray:
        return np.array([self.sample.coord(c) for c in self.engine.fiber])

    # -- metric level ---------------------------------------------------------
    def g(self, scope: Scope = POINT) -> list[list[Jet]]:
        def build():
            n, fib = self.engine.n, self.engine.fiber
            rows: list[list] = [[None] * n for _ in range(n)]
            for a in range(n):
                for b in range(a, n):
                    rows[a][b] = rows[b][a] = 0.5 * self.dF2(scope, (fib[a], fib[b]))
            return rows

        return self._get(("g", scope), build)

    def ginv(self, scope: Scope = POINT) -> list[list]:
        def build():
            inv, _cond = invert_matrix(self.g(scope))
            return inv

        return self._get(("ginv", scope), build)

    def g_values(self) -> np.ndarray:
        return self._get(("g_values",), lambda: _values(self.g(POINT)))

    def ginv_values(self) -> np.ndarray:
        return self._get(("ginv_values",), lambda: _values(self.ginv(POINT)))

    def F2_value(self) -> float:
        return self.dF2(POINT, ()).value

    def F2_partial(self, dirs: Sequence[CoordIndex]) -> float:
        return self.dF2(POINT, tuple(dirs)).value

    def F2_base_fiber_values(self) -> np.ndarray:
        """[a, b] = d^2 F^2 / dx^a dy^b: base derivative of the fiber gradient."""
        base, fib = self.engine.base, self.engine.fiber
        return self._get(("F2_base_fiber",), lambda: np.array(
            [[self.F2_partial((xa, yb)) for yb in fib] for xa in base]))

    def ginv_fiber_partial(self, dirs: Sequence[CoordIndex]) -> np.ndarray:
        """Mixed fiber partial of the inverse metric, as a value matrix."""
        dirs = tuple(sorted(dirs))

        def build():
            n = self.engine.n
            scope = Scope(tuple(sorted(set(dirs))), len(dirs))
            inv = self.ginv(scope)
            out = np.empty((n, n))
            for a in range(n):
                for b in range(n):
                    jet = inv[a][b]
                    for d in dirs:
                        jet = jet.derive(d)
                    out[a, b] = jet.value
            return out

        return self._get(("ginv_partial", dirs), build)

    def cartan(self) -> np.ndarray:
        """Fully symmetric lower Cartan torsion C_abc."""

        def build():
            n, fib = self.engine.n, self.engine.fiber
            out = np.empty((n, n, n))
            for a in range(n):
                for b in range(a, n):
                    for c in range(b, n):
                        val = 0.25 * self.dF2(POINT, (fib[a], fib[b], fib[c])).value
                        out[a, b, c] = out[a, c, b] = out[b, a, c] = val
                        out[b, c, a] = out[c, a, b] = out[c, b, a] = val
            return out

        return self._get(("cartan",), build)

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
    def spray(self, scope: Scope = POINT) -> list[Jet]:
        def build():
            n, base, fib = self.engine.n, self.engine.base, self.engine.fiber
            ginv = self.ginv(scope)
            rhs = []
            for b in range(n):
                acc = -self.dF2(scope, (base[b],))
                for c in range(n):
                    acc = acc + self.dF2(scope, (fib[b], base[c])) * self.coord_jet(scope, fib[c])
                rhs.append(acc)
            return [0.25 * sum((ginv[a][b] * rhs[b] for b in range(n)),
                               start=Jet.constant(rhs[0].ctx, 0.0))
                    for a in range(n)]

        return self._get(("spray", scope), build)

    def spray_values(self) -> np.ndarray:
        return self._get(("spray_values",), lambda: _values(self.spray(POINT)))

    def nonlinear_connection(self, scope: Scope = POINT) -> list[list[Jet]]:
        """N[a][b] = fiber derivative of the spray: the nonlinear connection."""

        def build():
            n, fib = self.engine.n, self.engine.fiber
            cols: list[list] = [[None] * n for _ in range(n)]
            for b in range(n):
                ext = scope.extend((fib[b],))
                sp = self.spray(ext)
                for a in range(n):
                    cols[a][b] = sp[a].derive(fib[b]).restrict(scope.seeds, scope.order)
            return cols

        return self._get(("nlconn", scope), build)

    def nonlinear_connection_values(self) -> np.ndarray:
        return self._get(("nlconn_values",),
                         lambda: _values(self.nonlinear_connection(POINT)))

    def connection_fiber_derivative(self, scope: Scope = POINT) -> list[list[list[Jet]]]:
        """G[a][b][c] = second fiber derivative of the spray, symmetric in (b, c)."""

        def build():
            n, fib = self.engine.n, self.engine.fiber
            out = [[[None] * n for _ in range(n)] for _ in range(n)]
            for b in range(n):
                for c in range(b, n):
                    ext = scope.extend((fib[b], fib[c]))
                    sp = self.spray(ext)
                    for a in range(n):
                        jet = sp[a].derive(fib[b]).derive(fib[c]).restrict(scope.seeds, scope.order)
                        out[a][b][c] = out[a][c][b] = jet
            return out

        return self._get(("connfd", scope), build)

    def connection_fiber_values(self) -> np.ndarray:
        return self._get(("connfd_values",),
                         lambda: _values(self.connection_fiber_derivative(POINT)))

    def berwald(self) -> np.ndarray:
        """B[a][b][c][d] = third fiber derivative of the spray."""

        def build():
            n, fib = self.engine.n, self.engine.fiber
            out = np.empty((n, n, n, n))
            for b in range(n):
                for c in range(b, n):
                    for d in range(c, n):
                        ext = POINT.extend((fib[b], fib[c], fib[d]))
                        sp = self.spray(ext)
                        for a in range(n):
                            val = sp[a].derive(fib[b]).derive(fib[c]).derive(fib[d]).value
                            for perm in ((b, c, d), (b, d, c), (c, b, d),
                                         (c, d, b), (d, b, c), (d, c, b)):
                                out[(a,) + perm] = val
            return out

        return self._get(("berwald",), build)

    # -- horizontal calculus ----------------------------------------------------
    def delta(self, field_fn: Callable[[Scope], Jet], base_dir: CoordIndex,
              scope: Scope = POINT) -> Jet:
        """Adapted derivative: d/dx^b minus the connection-weighted fiber part."""
        n, base, fib = self.engine.n, self.engine.base, self.engine.fiber
        b = base.index(base_dir)
        out = field_fn(scope.extend((base_dir,))).derive(base_dir).restrict(scope.seeds, scope.order)
        conn = self.nonlinear_connection(scope)
        for c in range(n):
            fiber_part = field_fn(scope.extend((fib[c],))).derive(fib[c]) \
                .restrict(scope.seeds, scope.order)
            out = out - conn[c][b] * fiber_part
        return out

    def delta_g(self, scope: Scope = POINT) -> list[list[list[Jet]]]:
        """dg[a][b][e] = adapted derivative of g_ab along the e-th base direction."""

        def build():
            n, base = self.engine.n, self.engine.base
            out = [[[None] * n for _ in range(n)] for _ in range(n)]
            for a in range(n):
                for b in range(a, n):
                    for e in range(n):
                        jet = self.delta(lambda sc, a=a, b=b: self.g(sc)[a][b],
                                         base[e], scope)
                        out[a][b][e] = out[b][a][e] = jet
            return out

        return self._get(("delta_g", scope), build)

    def horizontal_coefficients(self, scope: Scope = POINT) -> list[list[list[Jet]]]:
        """H[c][a][b]: Berwald-type horizontal coefficients, symmetric in (a, b)."""

        def build():
            n = self.engine.n
            ginv = self.ginv(scope)
            dg = self.delta_g(scope)
            out = [[[None] * n for _ in range(n)] for _ in range(n)]
            for a in range(n):
                for b in range(a, n):
                    for c in range(n):
                        acc = None
                        for e in range(n):
                            term = ginv[c][e] * (dg[e][a][b] + dg[e][b][a] - dg[a][b][e])
                            acc = term if acc is None else acc + term
                        out[c][a][b] = out[c][b][a] = 0.5 * acc
            return out

        return self._get(("hcoef", scope), build)

    def horizontal_values(self) -> np.ndarray:
        return self._get(("hcoef_values",),
                         lambda: _values(self.horizontal_coefficients(POINT)))

    def bracket_curvature(self, scope: Scope = POINT) -> list[list[list[Jet]]]:
        """R[c][a][b]: curvature of the horizontal distribution, antisymmetric in (a, b)."""

        def build():
            n, base = self.engine.n, self.engine.base
            dn = [[[None] * n for _ in range(n)] for _ in range(n)]
            for c in range(n):
                for a in range(n):
                    for b in range(n):
                        dn[c][a][b] = self.delta(
                            lambda sc, c=c, a=a: self.nonlinear_connection(sc)[c][a],
                            base[b], scope)
            out = [[[None] * n for _ in range(n)] for _ in range(n)]
            for c in range(n):
                for a in range(n):
                    for b in range(n):
                        out[c][a][b] = dn[c][a][b] - dn[c][b][a]
            return out

        return self._get(("bracketR", scope), build)

    def bracket_curvature_values(self) -> np.ndarray:
        return self._get(("bracketR_values",),
                         lambda: _values(self.bracket_curvature(POINT)))

    # -- curvature level ----------------------------------------------------------
    def hh_curvature(self) -> np.ndarray:
        """R[b][a][c][d]: horizontal curvature of the Berwald-type connection."""

        def build():
            n, base = self.engine.n, self.engine.base
            H = self.horizontal_values()
            dH = np.empty((n, n, n, n))
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        for d in range(n):
                            dH[a, b, c, d] = self.delta(
                                lambda sc, a=a, b=b, c=c: self.horizontal_coefficients(sc)[a][b][c],
                                base[d], POINT).value
            out = np.empty((n, n, n, n))
            for b in range(n):
                for a in range(n):
                    for c in range(n):
                        for d in range(n):
                            quad = float(H[a, d, :] @ H[:, b, c] - H[a, c, :] @ H[:, b, d])
                            out[b, a, c, d] = dH[a, b, c, d] - dH[a, b, d, c] + quad
            return out

        return self._get(("hh",), build)

    def riemann_map(self) -> np.ndarray:
        """R[a][b]: the fiber-quadratic curvature endomorphism of the spray."""

        def build():
            n, base, fib = self.engine.n, self.engine.base, self.engine.fiber
            G = self.spray_values()
            N = self.nonlinear_connection_values()
            GG = self.connection_fiber_values()
            yv = self.fiber_values()
            dxG = np.empty((n, n))
            for b in range(n):
                ext = POINT.extend((base[b],))
                sp = self.spray(ext)
                for a in range(n):
                    dxG[a, b] = sp[a].derive(base[b]).value
            dxdyG = np.empty((n, n, n))  # [a][c][b] = d^2 G^a / dx^c dy^b
            for c in range(n):
                for b in range(n):
                    ext = POINT.extend((base[c], fib[b]))
                    sp = self.spray(ext)
                    for a in range(n):
                        dxdyG[a, c, b] = sp[a].derive(base[c]).derive(fib[b]).value
            out = (2.0 * dxG
                   - np.einsum("c,acb->ab", yv, dxdyG)
                   + 2.0 * np.einsum("c,acb->ab", G, GG)
                   - N @ N)
            return out

        return self._get(("riemann_map",), build)


# ---------------------------------------------------------------------------
# Product workspaces
# ---------------------------------------------------------------------------

class Workspace:
    """Product engine plus factor engines and warp partials for one config."""

    def __init__(self, cfg: ProductConfig):
        self.cfg = cfg
        n1, n2 = cfg.n1, cfg.n2
        self.product = FinslerEngine(cfg.F2, cfg.base, cfg.fiber)
        self.factor1 = FinslerEngine(cfg.F1_squared,
                                     base_coords(n1, 0), fiber_coords(n1, 0))
        self.factor2 = FinslerEngine(cfg.F2_squared,
                                     tuple(c for c in cfg.base if c.factor == 2),
                                     tuple(c for c in cfg.fiber if c.factor == 2))
        self._warp_memo: dict = {}

    def at(self, sample: TangentSample) -> "WorkPoint":
        self.cfg.validate_sample(sample)
        return WorkPoint(self, sample)

    def clear(self) -> None:
        self.product.clear()
        self.factor1.clear()
        self.factor2.clear()
        self._warp_memo.clear()


class WorkPoint:
    """Per-sample view of a workspace: engine points plus warp derivatives."""

    def __init__(self, ws: Workspace, sample: TangentSample):
        self.ws = ws
        self.cfg = ws.cfg
        self.sample = sample
        self.product = ws.product.at(sample)
        self.factor1 = ws.factor1.at(sample)
        self.factor2 = ws.factor2.at(sample)

    def warp_jet(self, which: int, scope: Scope) -> Jet:
        key = (which, self.sample, scope)
        got = self.ws._warp_memo.get(key)
        if got is None:
            field = self.cfg.warp1_squared if which == 1 else self.cfg.warp2_squared
            got = jet_lift(field, self.sample, scope.seeds, scope.order)
            self.ws._warp_memo[key] = got
        return got

    def warp_sq(self, which: int) -> float:
        return self.warp_jet(which, POINT).value

    def warp_partial(self, which: int, dirs: Sequence[CoordIndex]) -> float:
        dirs = tuple(sorted(dirs))
        jet = self.warp_jet(which, Scope(tuple(sorted(set(dirs))), len(dirs)))
        for d in dirs:
            jet = jet.derive(d)
        return jet.value

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
