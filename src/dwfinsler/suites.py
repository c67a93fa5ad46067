"""Verification suites: named residual checks over sampled points.

Each suite turns one family of identities into residual entries with
tolerances and pass/fail verdicts; expected failures (theorem contrapositives
on non-Riemannian fixtures) are declared in the run spec and asserted as
failure-as-success by the runner.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import closed_forms, lifted
from .coords import MAX_ORDER, MultiIndex
from .engine import SPRAY_ORDER, VALUE_ORDER, WorkPoint, workspace
from .errors import UnknownSuiteError
from .jets import fd_partial, jet_lift
from .metrics import TangentSample
from .runspec import ALL_SUITES, RunSpec, sample_points

@dataclass(frozen=True)
class SuiteEntry:
    suite: str
    name: str
    residual: float
    tolerance: float | None  # None marks an informational entry
    passed: bool
    point: list | None = None
    note: str = ""


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    expected_failure: bool
    as_expected: bool
    max_residual: float
    entries: tuple[SuiteEntry, ...]


@dataclass(frozen=True)
class DiagnosticsReport:
    label: str
    seed: int
    count: int
    suites: tuple[SuiteResult, ...]

    @property
    def ok(self) -> bool:
        return all(s.as_expected for s in self.suites)

    @property
    def pass_count(self) -> int:
        return sum(1 for s in self.suites for e in s.entries if e.passed)

    @property
    def fail_count(self) -> int:
        return sum(1 for s in self.suites for e in s.entries if not e.passed)


class _Tracker:
    """Keeps the worst residual together with its witness point."""

    __slots__ = ("value", "point", "note")

    def __init__(self):
        self.value = 0.0
        self.point = None
        self.note = ""

    def feed(self, value: float, point: TangentSample | None, note: str = "") -> None:
        # Fail closed: inf wins by >=; NaN compares false against everything,
        # so it is taken explicitly and never replaced, and the entry fails.
        value = abs(float(value))
        if math.isnan(self.value):
            return
        if value >= self.value or math.isnan(value):
            self.value = value
            self.point = point
            self.note = note


def _point_doc(p: TangentSample | None):
    if p is None:
        return None
    return [list(p.x), list(p.u), list(p.y), list(p.v)]


def _entry(spec: RunSpec, suite: str, name: str, tracker: _Tracker,
           tol_key: str | None = None) -> SuiteEntry:
    """An upper-bound check at the tolerance named ``tol_key`` (default: the suite's)."""
    tol = spec.tolerance(tol_key or suite)
    return SuiteEntry(suite, name, tracker.value, tol, tracker.value <= tol,
                      _point_doc(tracker.point), tracker.note)


def _bound_entry(spec: RunSpec, suite: str, name: str, tracker: _Tracker,
                 tol_key: str, note: str) -> SuiteEntry:
    # Lower-bound check: passes when value >= threshold; the residual is the margin.
    residual = spec.tolerance(tol_key) - tracker.value
    return SuiteEntry(suite, name, residual, 0.0, residual <= 0.0,
                      _point_doc(tracker.point), note)


def _feed_worst(tracker: _Tracker, values: np.ndarray, point: TangentSample,
                describe) -> None:
    """Feed the largest |value| of an array, noting its index.

    Ties go to the last index in C order, as feeding the entries one by one
    would give.
    """
    flat = np.abs(values).ravel()
    k = flat.size - 1 - int(np.argmax(flat[::-1]))
    tracker.feed(flat[k], point, describe(*np.unravel_index(k, values.shape)))


# ---------------------------------------------------------------------------
# Suite implementations
# ---------------------------------------------------------------------------

def _suite_homogeneity(spec: RunSpec, points) -> list[SuiteEntry]:
    cfg = spec.config
    ws = workspace(cfg)
    metric = {lam: _Tracker() for lam in (0.5, 2.0, 7.0)}
    sprayt = _Tracker()
    euler = _Tracker()
    blocks = {k: _Tracker() for k in ("11", "12", "21", "22")}
    for p in points:
        ep = ws.at(p).product
        # The rescaled copies are evaluated once here and not kept in the workspace.
        scaled = {lam: WorkPoint(ws, p.fiber_scaled(lam), SPRAY_ORDER).product
                  for lam in metric}
        g = ep.g_values()
        for lam, tr in metric.items():
            tr.feed(np.max(np.abs(scaled[lam].g_values() - g)), p)
        G = ep.spray_values()
        sprayt.feed(np.max(np.abs(scaled[2.0].spray_values() - 4.0 * G)), p)
        N = ep.nonlinear_connection_values()
        yv = ep.fiber_values()
        euler.feed(np.max(np.abs(N @ yv - 2.0 * G)), p)
        contr = np.einsum("abc,c->ab", ep.connection_fiber_values(), yv) - N
        n1 = cfg.n1
        blocks["11"].feed(np.max(np.abs(contr[:n1, :n1])), p)
        blocks["12"].feed(np.max(np.abs(contr[:n1, n1:])), p)
        blocks["21"].feed(np.max(np.abs(contr[n1:, :n1])), p)
        blocks["22"].feed(np.max(np.abs(contr[n1:, n1:])), p)
    out = [_entry(spec, "homogeneity", f"metric-rescale-{lam}", tr,
                  "homogeneity.metric") for lam, tr in metric.items()]
    out.append(_entry(spec, "homogeneity", "spray-rescale", sprayt,
                      "homogeneity.spray"))
    out.append(_entry(spec, "homogeneity", "connection-euler", euler,
                      "homogeneity.spray"))
    out.extend(_entry(spec, "homogeneity", f"connection-degree-{k}", tr)
               for k, tr in blocks.items())
    return out


def _suite_block_structure(spec: RunSpec, points) -> list[SuiteEntry]:
    cfg = spec.config
    ws = workspace(cfg)
    n1 = cfg.n1
    off = _Tracker()
    mixed_c = _Tracker()
    scaled = _Tracker()
    mean = _Tracker()
    ang_null = _Tracker()
    c_null = _Tracker()
    for p in points:
        wp = ws.at(p)
        ep = wp.product
        g = ep.g_values()
        off.feed(np.maximum(np.max(np.abs(g[:n1, n1:])), np.max(np.abs(g[n1:, :n1]))), p)
        C = ep.cartan()
        pure = np.zeros_like(C, dtype=bool)
        pure[:n1, :n1, :n1] = True
        pure[n1:, n1:, n1:] = True
        mixed_c.feed(np.max(np.abs(C[~pure])) if (~pure).any() else 0.0, p)
        expect = closed_forms.cartan_scaled_factor_blocks(wp)
        scaled.feed(np.max(np.abs(C[:n1, :n1, :n1] - expect["111"])), p)
        scaled.feed(np.max(np.abs(C[n1:, n1:, n1:] - expect["222"])), p)
        I = ep.mean_cartan()
        mean.feed(np.max(np.abs(I[:n1] - wp.factor1.mean_cartan())), p)
        mean.feed(np.max(np.abs(I[n1:] - wp.factor2.mean_cartan())), p)
        yv = ep.fiber_values()
        ang_null.feed(np.max(np.abs(ep.angular() @ yv)), p)
        c_null.feed(np.max(np.abs(np.einsum("abc,c->ab", C, yv))), p)
    return [
        _entry(spec, "block-structure", "metric-off-block", off),
        _entry(spec, "block-structure", "cartan-mixed-block", mixed_c),
        _entry(spec, "block-structure", "cartan-warp-scaled", scaled,
               "block-structure.scaled"),
        _entry(spec, "block-structure", "mean-cartan-factor", mean,
               "block-structure.scaled"),
        _entry(spec, "block-structure", "angular-annihilates-fiber", ang_null,
               "block-structure.null"),
        _entry(spec, "block-structure", "cartan-annihilates-fiber", c_null,
               "block-structure.null"),
    ]


def _suite_yfg(spec: RunSpec, points) -> list[SuiteEntry]:
    ws = workspace(spec.config)
    tr = _Tracker()
    for p in points:
        ep = ws.at(p).product
        yv = ep.fiber_values()
        lhs = np.einsum("c,abc->ab", yv, ep.horizontal_values())
        tr.feed(np.max(np.abs(lhs - ep.nonlinear_connection_values())), p)
    return [_entry(spec, "yF=G", "contraction", tr)]


def _suite_matsumoto(spec: RunSpec, points) -> list[SuiteEntry]:
    from .core import matsumoto_torsion
    cfg = spec.config
    ws = workspace(cfg)
    n1 = cfg.n1
    ident = _Tracker()
    total = _Tracker()
    witness = _Tracker()
    for p in points:
        wp = ws.at(p)
        M = matsumoto_torsion(cfg, p).array
        y = np.asarray(p.y)
        lhs = np.einsum("j,k,ajk->a", y, y, M[n1:, :n1, :n1])
        rhs = closed_forms.matsumoto_contraction_rhs(wp)
        ident.feed(np.max(np.abs(lhs - rhs)), p)
        witness.feed(min(np.max(np.abs(lhs)), np.max(np.abs(rhs))) if lhs.size else 0.0, p)
        yv = wp.product.fiber_values()
        total.feed(abs(np.einsum("a,b,c,abc->", yv, yv, yv, M)), p)
    out = [
        _entry(spec, "matsumoto-contraction", "mixed-contraction-identity", ident),
        _entry(spec, "matsumoto-contraction", "total-fiber-contraction", total,
               "matsumoto-contraction.total"),
    ]
    if not cfg.both_riemannian:
        out.append(_bound_entry(
            spec, "matsumoto-contraction", "witness-nonzero", witness,
            "matsumoto-contraction.witness",
            "lower bound: both contraction sides must exceed the threshold"))
    return out


def _suite_berwald(spec: RunSpec, points) -> list[SuiteEntry]:
    cfg = spec.config
    ws = workspace(cfg)
    blocks: dict[str, _Tracker] = {}
    sym = _Tracker()
    mag = _Tracker()
    for p in points:
        wp = ws.at(p)
        B = wp.product.berwald()
        res = closed_forms.compare_blocks(B, closed_forms.berwald_blocks(wp),
                                          cfg.n1, cfg.n2)
        for key, val in res.items():
            blocks.setdefault(key, _Tracker()).feed(val, p)
        sym.feed(np.maximum(np.max(np.abs(B - np.transpose(B, (0, 2, 1, 3)))),
                            np.max(np.abs(B - np.transpose(B, (0, 1, 3, 2))))), p)
        mag.feed(np.max(np.abs(B)), p)
    out = [_entry(spec, "berwald-blocks", f"block-{key}", tr)
           for key, tr in sorted(blocks.items())]
    out.append(_entry(spec, "berwald-blocks", "total-symmetry", sym,
                      "berwald-blocks.symmetry"))
    if cfg.classification() == "doubly-warped" and not cfg.both_riemannian:
        out.append(_bound_entry(
            spec, "berwald-blocks", "witness-nonzero", mag, "berwald-blocks.witness",
            "lower bound: a proper non-Riemannian product must have nonzero "
            "Berwald curvature"))
    return out


def _suite_closed_form_blocks(spec: RunSpec, points) -> list[SuiteEntry]:
    """The engine's spray, N, Gf and H against their warped closed forms, block by block."""
    cfg = spec.config
    ws = workspace(cfg)
    blocks: dict[str, _Tracker] = {}
    for p in points:
        wp = ws.at(p)
        ep, q = wp.product, closed_forms.Ingredients(wp)
        for tensor, generic, closed in (
                ("spray", ep.spray_values(), closed_forms.spray_blocks(wp, q)),
                ("N", ep.nonlinear_connection_values(),
                 closed_forms.nonlinear_connection_blocks(wp, q)),
                ("Gf", ep.connection_fiber_values(), closed_forms.connection_fiber_blocks(wp, q)),
                ("H", ep.horizontal_values(), closed_forms.horizontal_blocks(wp, q))):
            for key, val in closed_forms.compare_blocks(generic, closed, cfg.n1, cfg.n2).items():
                blocks.setdefault(f"closed-form-{tensor}.{key}", _Tracker()).feed(val, p)
    return [_entry(spec, "closed-form-blocks", name, tr) for name, tr in blocks.items()]


def _suite_lemma41(spec: RunSpec, points) -> list[SuiteEntry]:
    ws = workspace(spec.config)
    tr = _Tracker()
    anti = _Tracker()
    for p in points:
        ep = ws.at(p).product
        hh = ep.hh_curvature()
        yv = ep.fiber_values()
        tr.feed(np.max(np.abs(np.einsum("b,bacd->acd", yv, hh)
                              - ep.bracket_curvature_values())), p)
        anti.feed(np.max(np.abs(hh + np.transpose(hh, (0, 1, 3, 2)))), p)
    return [
        _entry(spec, "lemma41", "fiber-contraction", tr),
        _entry(spec, "lemma41", "pair-antisymmetry", anti, "lemma41.antisymmetry"),
    ]


def _suite_con1(spec: RunSpec, points) -> list[SuiteEntry]:
    from .curvature import flat_factor_residual
    cfg = spec.config
    if not cfg.factor1.is_riemannian:
        return [SuiteEntry("con1", "skipped (factor 1 not Riemannian)", 0.0, None,
                           True, None, "identity undefined for this configuration")]
    latin = _Tracker()
    greek = _Tracker()
    for p in points:
        rep = flat_factor_residual(cfg, p)
        latin.feed(rep.latin_residual, p)
        if rep.greek_residual is not None:
            greek.feed(rep.greek_residual, p)
    out = [_entry(spec, "con1", "first-factor-block", latin)]
    if cfg.factor2.is_riemannian:
        out.append(_entry(spec, "con1", "second-factor-block", greek))
    return out


def _suite_scalar_flag(spec: RunSpec, points) -> list[SuiteEntry]:
    from .curvature import scalar_flag_residual
    cfg = spec.config
    if not cfg.factor1.is_riemannian or cfg.n1 < 2:
        return [SuiteEntry("scalar-flag", "skipped (needs Riemannian factor 1, n1 >= 2)",
                           0.0, None, True, None, "")]
    tr = _Tracker()
    for p in points:
        lam, defect = scalar_flag_residual(cfg, p)
        tr.feed(defect, p, note=f"fitted coefficient {lam:.6g}")
    return [_entry(spec, "scalar-flag", "isotropy-defect", tr)]


def _suite_koszul(spec: RunSpec, points) -> list[SuiteEntry]:
    cfg = spec.config
    compat = _Tracker()
    tors = _Tracker()
    blocks: dict[str, _Tracker] = {}
    for p in points:
        lp = lifted._lifted(cfg, p)
        tab = lifted.koszul_levi_civita(cfg, p).entries
        compat.feed(np.max(np.abs(lp.metric_derivative(tab))), p)
        tors.feed(np.max(np.abs(lp.torsion(tab))), p)
        for key, val in lifted.levi_civita_block_residuals(cfg, p).items():
            blocks.setdefault(key, _Tracker()).feed(val, p)
    out = [
        _entry(spec, "koszul-vs-closed", "metric-compatibility", compat),
        _entry(spec, "koszul-vs-closed", "zero-torsion", tors),
    ]
    out.extend(_entry(spec, "koszul-vs-closed", f"closed-form-{key}", tr)
               for key, tr in sorted(blocks.items()))
    return out


def _suite_vaisman(spec: RunSpec, points) -> list[SuiteEntry]:
    cfg = spec.config
    axes = {"preservation": _Tracker(), "parallelism": _Tracker(), "torsion": _Tracker()}
    for p in points:
        for key, val in lifted.vaisman_axiom_residuals(cfg, p).items():
            axes[key].feed(val, p)
    return [_entry(spec, "vaisman-axioms", name, tr)
            for name, tr in axes.items()]


def _suite_reinhart(spec: RunSpec, points) -> list[SuiteEntry]:
    cfg = spec.config
    defect = _Tracker()
    ident = _Tracker()

    def note(a, b, c):
        return f"X=vertical[{a}], Y=horizontal[{b}], Z=horizontal[{c}]"

    for p in points:
        d, i = lifted.reinhart_tables(cfg, p)
        _feed_worst(defect, d, p, note)
        _feed_worst(ident, d - i, p, note)
    return [
        _entry(spec, "reinhart", "identity-match", ident, "reinhart.identity"),
        _entry(spec, "reinhart", "transversal-parallelism", defect),
    ]


def _suite_hermitian(spec: RunSpec, points) -> list[SuiteEntry]:
    cfg = spec.config
    J = lifted.almost_complex(cfg).matrix()
    m = J.shape[0]
    square = _Tracker()
    herm = _Tracker()
    table = _Tracker()
    anti = _Tracker()
    square.feed(np.max(np.abs(J @ J + np.eye(m))), None)
    for p in points:
        lp = lifted._lifted(cfg, p)
        herm.feed(np.max(np.abs(J.T @ lp.metric @ J - lp.metric)), p)
        om = lifted.symplectic_frame_table(cfg, p)
        expected = np.zeros_like(om)
        expected[:lp.n, lp.n:] = lp.g
        expected[lp.n:, :lp.n] = -lp.g
        table.feed(np.max(np.abs(om - expected)), p)
        anti.feed(np.max(np.abs(om + om.T)), p)
    close = lifted.closedness_check(cfg, points)
    dtr = _Tracker()
    dtr.feed(close.d_residual, None)
    ptr = _Tracker()
    ptr.feed(close.potential_residual, None)
    return [
        _entry(spec, "hermitian", "complex-square", square, "hermitian.complex-square"),
        _entry(spec, "hermitian", "metric-invariance", herm),
        _entry(spec, "hermitian", "symplectic-frame-table", table),
        _entry(spec, "hermitian", "antisymmetry", anti, "hermitian.antisymmetry"),
        _entry(spec, "hermitian", "closedness", dtr),
        _entry(spec, "hermitian", "potential-match", ptr),
    ]


def _suite_nijenhuis(spec: RunSpec, points) -> list[SuiteEntry]:
    cfg = spec.config
    agree = _Tracker()
    skew = _Tracker()
    for p in points:
        closed, direct = lifted.nijenhuis_tables(cfg, p)
        agree.feed(np.max(np.abs(closed - direct)), p)
        skew.feed(np.max(np.abs(direct + np.swapaxes(direct, 0, 1))), p)
    return [
        _entry(spec, "nijenhuis", "closed-vs-direct", agree),
        _entry(spec, "nijenhuis", "skew-symmetry", skew, "nijenhuis.skew"),
    ]


def _suite_kahler(spec: RunSpec, points) -> list[SuiteEntry]:
    cfg = spec.config
    tol = spec.tolerance("kahler")
    rep = lifted.kahler_verdict(cfg, points, tol=tol, nijenhuis_tol=tol)
    note = (f"verdict={'kahler' if rep.is_kahler else 'not kahler'}, "
            f"max bracket curvature {rep.max_bracket_curvature:.3e}, "
            f"max integrability obstruction {rep.max_nijenhuis:.3e}")
    return [SuiteEntry("kahler", "integrability-equivalence",
                       0.0 if rep.equivalence_holds else 1.0, 0.0,
                       rep.equivalence_holds, None, note)]


def _suite_totally_geodesic(spec: RunSpec, points) -> list[SuiteEntry]:
    cfg = spec.config
    if len(points) < 20:
        return [SuiteEntry("totally-geodesic", "skipped (needs >= 20 points)", 0.0,
                           None, True, None, "")]
    tol = spec.tolerance("totally-geodesic")
    rep = lifted.totally_geodesic_verdicts(cfg, points, tol=tol)
    note = (f"vertical={'yes' if rep.vertical else 'no'}, "
            f"horizontal={'yes' if rep.horizontal else 'no'}")
    return [
        SuiteEntry("totally-geodesic", "vertical-invariance-consistent",
                   0.0 if rep.vertical_invariance_consistent else 1.0, 0.0,
                   rep.vertical_invariance_consistent, None, note),
        SuiteEntry("totally-geodesic", "horizontal-invariance-consistent",
                   0.0 if rep.horizontal_invariance_consistent else 1.0, 0.0,
                   rep.horizontal_invariance_consistent, None, note),
    ]


def _suite_fd_crosscheck(spec: RunSpec, points) -> list[SuiteEntry]:
    cfg = spec.config
    ws = workspace(cfg)
    rng = np.random.Generator(np.random.PCG64(spec.sampling.seed + 1))
    coords = list(cfg.base) + list(cfg.fiber)
    f2tr = _Tracker()
    gtr = _Tracker()
    subset = points[:min(3, len(points))]
    for p in subset:
        for _ in range(8):
            order = int(rng.integers(1, 4))
            dirs = tuple(coords[int(i)] for i in rng.integers(0, len(coords), order))
            multi = MultiIndex.of(dirs)
            jet = jet_lift(cfg.F2, p, multi.directions, multi.order).partial(multi)
            fd = fd_partial(cfg.F2, p, multi)
            f2tr.feed(abs(jet - fd) / (1.0 + abs(jet)), p, note=f"dirs={dirs}")
        g = ws.at(p).product.g_values()
        for a in range(cfg.n):
            for b in range(cfg.n):
                fd = 0.5 * fd_partial(cfg.F2, p, (cfg.fiber[a], cfg.fiber[b]))
                gtr.feed(abs(g[a, b] - fd) / (1.0 + abs(fd)), p)
    # Derived fields: the spray and its fiber derivatives against fd towers.
    # Stencil points are evaluated once each and not kept in the workspace.
    def spray_field(view):
        q = TangentSample(view.x, view.u, view.y, view.v)
        return WorkPoint(ws, q, SPRAY_ORDER).product.spray_values()

    conn = _Tracker()
    connfd = _Tracker()
    berw = _Tracker()
    p = points[0]
    ep = ws.at(p).product
    N = ep.nonlinear_connection_values()
    Gf = ep.connection_fiber_values()
    B = ep.berwald()
    # fd_conn[b][a] = dG^a / dy^b: one stencil per fiber direction serves every a.
    fd_conn = [fd_partial(spray_field, p, (y,)) for y in cfg.fiber]
    for a in range(cfg.n):
        for b in range(cfg.n):
            fd1 = fd_conn[b][a]
            conn.feed(abs(N[a, b] - fd1) / (1.0 + abs(fd1)), p)
        b, c = int(rng.integers(0, cfg.n)), int(rng.integers(0, cfg.n))
        fd2 = fd_partial(spray_field, p, (cfg.fiber[b], cfg.fiber[c]))[a]
        connfd.feed(abs(Gf[a, b, c] - fd2) / (1.0 + abs(fd2)), p)
        b, c, d = (int(i) for i in rng.integers(0, cfg.n, 3))
        fd3 = fd_partial(spray_field, p, (cfg.fiber[b], cfg.fiber[c], cfg.fiber[d]))[a]
        berw.feed(abs(B[a, b, c, d] - fd3) / (1.0 + abs(fd3)), p)

    # Adapted derivative of the horizontal coefficients, fd vs. jets, at one
    # representative component: the leading block of the curvature assembly.
    a, b, c = 0, 0, cfg.n1  # mixed-factor slot: nonzero for warped products

    def horizontal_field(view):
        q = TangentSample(view.x, view.u, view.y, view.v)
        return WorkPoint(ws, q, VALUE_ORDER).product.horizontal_values()[a, b, c]

    hdelta = _Tracker()
    dH = ep.delta(ep.horizontal_coefficients())
    fd_fiber = [fd_partial(horizontal_field, p, (y,)) for y in cfg.fiber]
    for d in range(cfg.n):
        fd_delta = fd_partial(horizontal_field, p, (cfg.base[d],))
        for e in range(cfg.n):
            fd_delta -= N[e, d] * fd_fiber[e]
        jet_delta = dH[a, b, c, d]
        hdelta.feed(abs(jet_delta - fd_delta) / (1.0 + abs(fd_delta)), p)
    return [
        _entry(spec, "fd-crosscheck", "squared-norm-partials", f2tr),
        _entry(spec, "fd-crosscheck", "fundamental-tensor", gtr),
        _entry(spec, "fd-crosscheck", "nonlinear-connection", conn),
        _entry(spec, "fd-crosscheck", "connection-fiber-derivative", connfd),
        _entry(spec, "fd-crosscheck", "berwald", berw),
        _entry(spec, "fd-crosscheck", "horizontal-delta", hdelta),
    ]


SUITES = {
    "homogeneity": _suite_homogeneity,
    "block-structure": _suite_block_structure,
    "yF=G": _suite_yfg,
    "matsumoto-contraction": _suite_matsumoto,
    "berwald-blocks": _suite_berwald,
    "closed-form-blocks": _suite_closed_form_blocks,
    "lemma41": _suite_lemma41,
    "con1": _suite_con1,
    "scalar-flag": _suite_scalar_flag,
    "koszul-vs-closed": _suite_koszul,
    "vaisman-axioms": _suite_vaisman,
    "reinhart": _suite_reinhart,
    "hermitian": _suite_hermitian,
    "nijenhuis": _suite_nijenhuis,
    "kahler": _suite_kahler,
    "totally-geodesic": _suite_totally_geodesic,
    "fd-crosscheck": _suite_fd_crosscheck,
}

assert set(SUITES) == set(ALL_SUITES)


def run_suites(spec: RunSpec) -> DiagnosticsReport:
    """Execute the spec's suites over its deterministic sample."""
    for name in spec.suites:
        if name not in SUITES:
            raise UnknownSuiteError(f"unknown suite {name!r}")
    points = sample_points(spec)
    results = []
    for name in spec.suites:
        entries = tuple(SUITES[name](spec, points))
        passed = all(e.passed for e in entries)
        expected_failure = name in spec.expected_failures
        residuals = [e.residual for e in entries]
        # np.max, unlike max, carries a NaN residual through to the suite's worst.
        max_residual = float(np.max(residuals)) if residuals else 0.0
        results.append(SuiteResult(name, passed, expected_failure,
                                   passed != expected_failure, max_residual, entries))
    return DiagnosticsReport(spec.label, spec.sampling.seed,
                             spec.sampling.count, tuple(results))


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def report_document(report: DiagnosticsReport) -> dict:
    """The deterministic (diffable) document for a report."""
    return {
        "config": report.label,
        "engine": {"seed": report.seed, "points": report.count,
                   "max_jet_order": MAX_ORDER},
        "suites": [
            {
                "name": s.name,
                "passed": s.passed,
                "expected_failure": s.expected_failure,
                "as_expected": s.as_expected,
                "max_residual": s.max_residual,
                "entries": [
                    {"name": e.name, "residual": e.residual, "tolerance": e.tolerance,
                     "passed": e.passed, "point": e.point, "note": e.note}
                    for e in s.entries
                ],
            }
            for s in report.suites
        ],
        "summary": {
            "ok": report.ok,
            "entries_passed": report.pass_count,
            "entries_failed": report.fail_count,
            "unexpected": [s.name for s in report.suites if not s.as_expected],
        },
    }


def report_from_document(doc: dict) -> DiagnosticsReport:
    suites = tuple(
        SuiteResult(
            s["name"], s["passed"], s["expected_failure"], s["as_expected"],
            s["max_residual"],
            tuple(SuiteEntry(s["name"], e["name"], e["residual"], e["tolerance"],
                             e["passed"], e["point"], e["note"])
                  for e in s["entries"]))
        for s in doc["suites"])
    return DiagnosticsReport(doc["config"], doc["engine"]["seed"],
                             doc["engine"]["points"], suites)


def emit_report(report: DiagnosticsReport, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(report_document(report), sort_keys=True, indent=2)
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = [f"configuration {report.label}  (seed {report.seed}, {report.count} points)"]
    lines.append(f"{'suite':<24}{'worst residual':>16}  verdict")
    for s in report.suites:
        verdict = "pass" if s.passed else "FAIL"
        if s.expected_failure:
            verdict += " (expected)" if not s.passed else " (UNEXPECTED PASS)"
        lines.append(f"{s.name:<24}{s.max_residual:>16.3e}  {verdict}")
        for e in s.entries:
            if not e.passed:
                where = f" at point {e.point}" if e.point else ""
                note = f" [{e.note}]" if e.note else ""
                lines.append(f"    {e.name}: residual {e.residual:.3e} "
                             f"> tol {e.tolerance}{where}{note}")
    status = "OK" if report.ok else "UNEXPECTED VERDICTS"
    lines.append(f"result: {status} ({report.pass_count} checks passed, "
                 f"{report.fail_count} failed)")
    return "\n".join(lines)
