"""Verification suites: named residual checks over sampled points.

Each suite turns one family of identities into residual entries with
tolerances and pass/fail verdicts; expected failures (theorem contrapositives
on non-Riemannian fixtures) are declared in the run spec and asserted as
failure-as-success by the runner.

The sampled points are evaluated as strips (:meth:`Workspace.strips`): each
strip is one engine point over a batch of samples, shared by every suite, and
each suite reads its tensors as arrays whose leading axis runs over the
strip's samples.  An entry reduces each sample's residual over the tensor
axes and feeds the strip to its tracker at once (:meth:`_Tracker.feed_all`),
which keeps the worst value and its witness exactly as feeding the samples
one by one would.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import closed_forms, lifted
from .blocks import matvec, max_abs, scalar_axes, vdot
from .coords import MAX_ORDER, MultiIndex
from .engine import SPRAY_ORDER, VALUE_ORDER, WorkPoint, workspace
from .errors import PreconditionError, UnknownSuiteError
from .jets import CoordView, fd_partials, jet_lift
from .metrics import ProductConfig, TangentSample
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

    def feed_all(self, values, points, describe=None) -> None:
        """Feed every |entry| of ``values``, whose leading axis runs over
        ``points``, as feeding them one by one in C order would.

        The last of equal values wins, the first NaN wins and stays, and inf
        wins.  Only that single worst entry passes through :meth:`feed`,
        noted by ``describe`` of its index when given.
        """
        flat = np.abs(np.asarray(values, dtype=float)).ravel()
        if not flat.size:
            return
        nan = np.isnan(flat)
        k = int(np.argmax(nan)) if nan.any() else flat.size - 1 - int(np.argmax(flat[::-1]))
        index = tuple(int(i) for i in np.unravel_index(k, np.shape(values)))
        self.feed(flat[k], points[index[0]], describe(*index) if describe else "")


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


# ---------------------------------------------------------------------------
# Curvature fits of the first-factor block
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlatFactorReport:
    """Residual of the curvature-shift identity for Riemannian factors.

    With factor 1 Riemannian, the product hh-curvature restricted to the
    first-factor block equals the factor curvature minus
    |grad f2|^2 / f1^2 times the metric commutator pattern; mirrored for the
    second factor when it is Riemannian.  Each field is a float at one
    point, and an array over the samples of a strip.
    """

    latin_residual: float
    greek_residual: float | None
    shift1: float
    shift2: float | None


def _commutator_pattern(gf: np.ndarray) -> np.ndarray:
    """[..., j, i, k, l] = delta^i_l g_jk - delta^i_k g_jl over a factor metric."""
    eye = np.eye(gf.shape[-1])
    return (np.einsum("il,...jk->...jikl", eye, gf)
            - np.einsum("ik,...jl->...jikl", eye, gf))


def flat_factor_residual(cfg: ProductConfig, p: TangentSample) -> FlatFactorReport:
    return _flat_factor(workspace(cfg).at(p))


def _flat_factor(wp: WorkPoint) -> FlatFactorReport:
    cfg = wp.cfg
    if not cfg.factor1.is_riemannian:
        raise PreconditionError("the curvature-shift identity needs factor 1 Riemannian")
    n1, n2 = cfg.n1, cfg.n2
    hh = wp.product.hh_curvature()

    def block_residual(which: int):
        ep = wp.factor(which)
        sl = slice(0, n1) if which == 1 else slice(n1, n1 + n2)
        lam = wp.grad_warp_norm_sq(3 - which) / wp.warp_sq(which)
        expected = ep.hh_curvature() - scalar_axes(lam, 4) * _commutator_pattern(ep.g_values())
        return max_abs(hh[..., sl, sl, sl, sl] - expected, wp.lead), lam

    latin, shift1 = block_residual(1)
    greek = shift2 = None
    if cfg.factor2.is_riemannian:
        greek, shift2 = block_residual(2)
    return FlatFactorReport(latin, greek, shift1, shift2)


def scalar_flag_residual(cfg: ProductConfig, p: TangentSample) -> tuple[float, float]:
    """Least-squares isotropy fit of the first-factor curvature block.

    Fits the Latin block of the product hh-curvature to
    lambda * (delta^i_l g_jk - delta^i_k g_jl) over the factor metric and
    returns (lambda_hat, isotropy defect).  Degenerate normal equations are
    reported as an infinite defect rather than a guess.
    """
    return _scalar_flag(workspace(cfg).at(p))


def _scalar_flag(wp: WorkPoint):
    """The fit of :func:`scalar_flag_residual`, as arrays over a strip's samples."""
    cfg = wp.cfg
    if not cfg.factor1.is_riemannian:
        raise PreconditionError("the scalar-flag fit needs factor 1 Riemannian")
    if cfg.n1 < 2:
        raise PreconditionError("the scalar-flag fit needs n1 >= 2")
    n1 = cfg.n1
    hh = wp.product.hh_curvature()[..., :n1, :n1, :n1, :n1]
    pattern = _commutator_pattern(wp.factor1.g_values())
    sel = np.array([[[[(i != k) or (j != l) for l in range(n1)] for k in range(n1)]
                     for i in range(n1)] for j in range(n1)], dtype=bool)
    e = pattern[..., sel]
    r = hh[..., sel]
    denom = vdot(e, e)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = vdot(r, e) / denom
        defect = max_abs(r - scalar_axes(lam, 1) * e, wp.lead)
    degenerate = denom < 1e-30
    lam, defect = np.where(degenerate, np.nan, lam), np.where(degenerate, np.inf, defect)
    return (lam, defect) if wp.lead else (float(lam), float(defect))


# ---------------------------------------------------------------------------
# Suite implementations
# ---------------------------------------------------------------------------

def _suite_homogeneity(spec: RunSpec, points) -> list[SuiteEntry]:
    cfg = spec.config
    ws = workspace(cfg)
    n1 = cfg.n1
    metric = {lam: _Tracker() for lam in (0.5, 2.0, 7.0)}
    sprayt = _Tracker()
    euler = _Tracker()
    blocks = {k: _Tracker() for k in ("11", "12", "21", "22")}
    for wp in ws.strips(points):
        ep, lead, at = wp.product, wp.lead, wp.samples
        # The rescaled copies of a strip are evaluated once, as one batch over
        # (sample, scale), and not kept in the workspace.
        scaled = WorkPoint(ws, wp.sample.fiber_scaled(tuple(metric)), SPRAY_ORDER).product
        scaled_g = scaled.g_values().reshape(len(at), len(metric), cfg.n, cfg.n)
        # The spray at scale 2, the second of the three.
        scaled_spray = scaled.spray_values().reshape(len(at), len(metric), cfg.n)[:, 1]
        g = ep.g_values()
        for k, tr in enumerate(metric.values()):
            tr.feed_all(max_abs(scaled_g[:, k] - g, lead), at)
        G = ep.spray_values()
        sprayt.feed_all(max_abs(scaled_spray - 4.0 * G, lead), at)
        N = ep.nonlinear_connection_values()
        yv = ep.fiber_values()
        euler.feed_all(max_abs(matvec(N, yv) - 2.0 * G, lead), at)
        contr = np.einsum("...abc,...c->...ab", ep.connection_fiber_values(), yv) - N
        blocks["11"].feed_all(max_abs(contr[..., :n1, :n1], lead), at)
        blocks["12"].feed_all(max_abs(contr[..., :n1, n1:], lead), at)
        blocks["21"].feed_all(max_abs(contr[..., n1:, :n1], lead), at)
        blocks["22"].feed_all(max_abs(contr[..., n1:, n1:], lead), at)
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
    n1 = cfg.n1
    off = _Tracker()
    mixed_c = _Tracker()
    scaled = _Tracker()
    mean = _Tracker()
    ang_null = _Tracker()
    c_null = _Tracker()
    pure = np.zeros((cfg.n,) * 3, dtype=bool)
    pure[:n1, :n1, :n1] = True
    pure[n1:, n1:, n1:] = True
    for wp in workspace(cfg).strips(points):
        ep, lead, at = wp.product, wp.lead, wp.samples
        g = ep.g_values()
        off.feed_all(np.maximum(max_abs(g[..., :n1, n1:], lead),
                                max_abs(g[..., n1:, :n1], lead)), at)
        C = ep.cartan()
        mixed_c.feed_all(max_abs(C[..., ~pure], lead), at)
        expect = closed_forms.cartan_scaled_factor_blocks(wp)
        scaled.feed_all(np.maximum(max_abs(C[..., :n1, :n1, :n1] - expect["111"], lead),
                                   max_abs(C[..., n1:, n1:, n1:] - expect["222"], lead)), at)
        I = ep.mean_cartan()
        mean.feed_all(np.maximum(max_abs(I[..., :n1] - wp.factor1.mean_cartan(), lead),
                                 max_abs(I[..., n1:] - wp.factor2.mean_cartan(), lead)), at)
        yv = ep.fiber_values()
        ang_null.feed_all(max_abs(matvec(ep.angular(), yv), lead), at)
        c_null.feed_all(max_abs(np.einsum("...abc,...c->...ab", C, yv), lead), at)
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
    tr = _Tracker()
    for wp in workspace(spec.config).strips(points):
        ep = wp.product
        lhs = np.einsum("...c,...abc->...ab", ep.fiber_values(), ep.horizontal_values())
        tr.feed_all(max_abs(lhs - ep.nonlinear_connection_values(), wp.lead), wp.samples)
    return [_entry(spec, "yF=G", "contraction", tr)]


def _suite_matsumoto(spec: RunSpec, points) -> list[SuiteEntry]:
    cfg = spec.config
    n1 = cfg.n1
    ident = _Tracker()
    total = _Tracker()
    witness = _Tracker()
    for wp in workspace(cfg).strips(points):
        ep, lead, at = wp.product, wp.lead, wp.samples
        M = ep.matsumoto()
        y = wp.factor1.fiber_values()
        lhs = np.einsum("...j,...k,...ajk->...a", y, y, M[..., n1:, :n1, :n1])
        rhs = closed_forms.matsumoto_contraction_rhs(wp)
        ident.feed_all(max_abs(lhs - rhs, lead), at)
        # np.minimum, unlike min, keeps a NaN on either side.
        witness.feed_all(np.minimum(max_abs(lhs, lead), max_abs(rhs, lead)), at)
        yv = ep.fiber_values()
        total.feed_all(np.einsum("...a,...b,...c,...abc->...", yv, yv, yv, M), at)
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
    blocks: dict[str, _Tracker] = {}
    sym = _Tracker()
    mag = _Tracker()
    for wp in workspace(cfg).strips(points):
        lead, at = wp.lead, wp.samples
        B = wp.product.berwald()
        res = closed_forms.compare_blocks(B, closed_forms.berwald_blocks(wp),
                                          cfg.n1, cfg.n2)
        for key, val in res.items():
            blocks.setdefault(key, _Tracker()).feed_all(val, at)
        sym.feed_all(np.maximum(max_abs(B - np.swapaxes(B, -3, -2), lead),
                                max_abs(B - np.swapaxes(B, -2, -1), lead)), at)
        mag.feed_all(max_abs(B, lead), at)
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
    blocks: dict[str, _Tracker] = {}
    for wp in workspace(cfg).strips(points):
        ep, q = wp.product, closed_forms.Ingredients(wp)
        for tensor, generic, closed in (
                ("spray", ep.spray_values(), closed_forms.spray_blocks(wp, q)),
                ("N", ep.nonlinear_connection_values(),
                 closed_forms.nonlinear_connection_blocks(wp, q)),
                ("Gf", ep.connection_fiber_values(), closed_forms.connection_fiber_blocks(wp, q)),
                ("H", ep.horizontal_values(), closed_forms.horizontal_blocks(wp, q))):
            for key, val in closed_forms.compare_blocks(generic, closed, cfg.n1, cfg.n2).items():
                blocks.setdefault(f"closed-form-{tensor}.{key}", _Tracker()).feed_all(
                    val, wp.samples)
    return [_entry(spec, "closed-form-blocks", name, tr) for name, tr in blocks.items()]


def _suite_lemma41(spec: RunSpec, points) -> list[SuiteEntry]:
    tr = _Tracker()
    anti = _Tracker()
    for wp in workspace(spec.config).strips(points):
        ep, lead, at = wp.product, wp.lead, wp.samples
        hh = ep.hh_curvature()
        tr.feed_all(max_abs(np.einsum("...b,...bacd->...acd", ep.fiber_values(), hh)
                            - ep.bracket_curvature_values(), lead), at)
        anti.feed_all(max_abs(hh + np.swapaxes(hh, -2, -1), lead), at)
    return [
        _entry(spec, "lemma41", "fiber-contraction", tr),
        _entry(spec, "lemma41", "pair-antisymmetry", anti, "lemma41.antisymmetry"),
    ]


def _suite_con1(spec: RunSpec, points) -> list[SuiteEntry]:
    cfg = spec.config
    if not cfg.factor1.is_riemannian:
        return [SuiteEntry("con1", "skipped (factor 1 not Riemannian)", 0.0, None,
                           True, None, "identity undefined for this configuration")]
    latin = _Tracker()
    greek = _Tracker()
    for wp in workspace(cfg).strips(points):
        rep = _flat_factor(wp)
        latin.feed_all(rep.latin_residual, wp.samples)
        if rep.greek_residual is not None:
            greek.feed_all(rep.greek_residual, wp.samples)
    out = [_entry(spec, "con1", "first-factor-block", latin)]
    if cfg.factor2.is_riemannian:
        out.append(_entry(spec, "con1", "second-factor-block", greek))
    return out


def _suite_scalar_flag(spec: RunSpec, points) -> list[SuiteEntry]:
    cfg = spec.config
    if not cfg.factor1.is_riemannian or cfg.n1 < 2:
        return [SuiteEntry("scalar-flag", "skipped (needs Riemannian factor 1, n1 >= 2)",
                           0.0, None, True, None, "")]
    tr = _Tracker()
    for wp in workspace(cfg).strips(points):
        lam, defect = _scalar_flag(wp)
        tr.feed_all(defect, wp.samples, lambda k: f"fitted coefficient {lam[k]:.6g}")
    return [_entry(spec, "scalar-flag", "isotropy-defect", tr)]


def _suite_koszul(spec: RunSpec, points) -> list[SuiteEntry]:
    compat = _Tracker()
    tors = _Tracker()
    blocks: dict[str, _Tracker] = {}
    for wp in workspace(spec.config).strips(points):
        lp, lead, at = lifted.of(wp), wp.lead, wp.samples
        compat.feed_all(max_abs(lp.metric_derivative(lp.koszul), lead), at)
        tors.feed_all(max_abs(lp.torsion(lp.koszul), lead), at)
        for key, val in lp.levi_civita_block_residuals().items():
            blocks.setdefault(key, _Tracker()).feed_all(val, at)
    out = [
        _entry(spec, "koszul-vs-closed", "metric-compatibility", compat),
        _entry(spec, "koszul-vs-closed", "zero-torsion", tors),
    ]
    out.extend(_entry(spec, "koszul-vs-closed", f"closed-form-{key}", tr)
               for key, tr in sorted(blocks.items()))
    return out


def _suite_vaisman(spec: RunSpec, points) -> list[SuiteEntry]:
    axes = {"preservation": _Tracker(), "parallelism": _Tracker(), "torsion": _Tracker()}
    for wp in workspace(spec.config).strips(points):
        for key, val in lifted.of(wp).vaisman_axiom_residuals().items():
            axes[key].feed_all(val, wp.samples)
    return [_entry(spec, "vaisman-axioms", name, tr)
            for name, tr in axes.items()]


def _suite_reinhart(spec: RunSpec, points) -> list[SuiteEntry]:
    defect = _Tracker()
    ident = _Tracker()

    def note(sample, a, b, c):
        return f"X=vertical[{a}], Y=horizontal[{b}], Z=horizontal[{c}]"

    for wp in workspace(spec.config).strips(points):
        d, i = lifted.of(wp).reinhart_tables()
        defect.feed_all(d, wp.samples, note)
        ident.feed_all(d - i, wp.samples, note)
    return [
        _entry(spec, "reinhart", "identity-match", ident, "reinhart.identity"),
        _entry(spec, "reinhart", "transversal-parallelism", defect),
    ]


def _suite_hermitian(spec: RunSpec, points) -> list[SuiteEntry]:
    cfg = spec.config
    J = lifted.almost_complex(cfg).matrix()
    m = J.shape[0]
    n = cfg.n
    square = _Tracker()
    herm = _Tracker()
    table = _Tracker()
    anti = _Tracker()
    square.feed(np.max(np.abs(J @ J + np.eye(m))), None)
    for wp in workspace(cfg).strips(points):
        lp, lead, at = lifted.of(wp), wp.lead, wp.samples
        herm.feed_all(max_abs(J.T @ lp.metric @ J - lp.metric, lead), at)
        om = lp.symplectic_table()
        expected = np.zeros_like(om)
        expected[..., :n, n:] = lp.g
        expected[..., n:, :n] = -lp.g
        table.feed_all(max_abs(om - expected, lead), at)
        anti.feed_all(max_abs(om + np.swapaxes(om, -1, -2), lead), at)
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
    agree = _Tracker()
    skew = _Tracker()
    for wp in workspace(spec.config).strips(points):
        closed, direct = lifted.of(wp).nijenhuis_tables
        agree.feed_all(max_abs(closed - direct, wp.lead), wp.samples)
        skew.feed_all(max_abs(direct + np.swapaxes(direct, -3, -2), wp.lead), wp.samples)
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


def _random_directions(rng: np.random.Generator, coords: list) -> tuple:
    """1 to 3 coordinates drawn at random, repeats allowed."""
    order = int(rng.integers(1, 4))
    return tuple(coords[int(i)] for i in rng.integers(0, len(coords), order))


def _relative(jet, fd):
    return abs(jet - fd) / (1.0 + abs(fd))


def _suite_fd_crosscheck(spec: RunSpec, points) -> list[SuiteEntry]:
    cfg = spec.config
    ws = workspace(cfg)
    rng = np.random.Generator(np.random.PCG64(spec.sampling.seed + 1))
    coords = list(cfg.base) + list(cfg.fiber)
    fib, n = cfg.fiber, cfg.n
    subset = points[:min(3, len(points))]
    # The engine's g at the subset, read off the strips that hold it.
    strips = ws.strips(points)
    g = np.concatenate([wp.product.g_values() for wp in strips[:len(subset)]])[:len(subset)]
    # The finite-difference oracle evaluates F^2 on floats, at the stencils
    # of 8 random partials at each point of the subset, drawn in order, and
    # of every fiber pair of g there, all as one batch.
    at = [p for p in subset for _ in range(8)]
    dirs = [_random_directions(rng, coords) for _ in at]
    multis = [MultiIndex.of(d) for d in dirs]
    fd = fd_partials(lambda batch: cfg.F2(CoordView(batch)),
                     list(zip(at, multis))
                     + [(p, (fib[a], fib[b])) for p in subset for a, b in np.ndindex(n, n)])
    jet = np.array([jet_lift(cfg.F2, p, m.directions, m.order).partial(m)
                    for p, m in zip(at, multis)])
    f2tr = _Tracker()
    f2tr.feed_all((abs(jet - fd[:len(at)]) / (1.0 + abs(jet))).reshape(len(subset), 8), subset,
                  lambda k, j: f"dirs={dirs[8 * k + j]}")
    gtr = _Tracker()
    gtr.feed_all(_relative(g, 0.5 * np.reshape(fd[len(at):], g.shape)), subset)
    # Derived fields: the spray and its fiber derivatives against fd towers,
    # their stencils evaluated as one batch, not kept in the workspace.
    p = points[0]
    ep = strips[0].product
    N = ep.nonlinear_connection_values()[0]
    Gf = ep.connection_fiber_values()[0]
    B = ep.berwald()[0]
    # fd[b][a] = dG^a / dy^b: one stencil per fiber direction serves every a.
    # Gf and B are checked at one random component (b, c), (b, c, d) per a.
    pairs, triples = [], []
    for _ in range(n):
        pairs.append((int(rng.integers(0, n)), int(rng.integers(0, n))))
        triples.append(tuple(int(i) for i in rng.integers(0, n, 3)))
    fd = np.array(fd_partials(
        lambda batch: WorkPoint(ws, batch, SPRAY_ORDER).product.spray_values(),
        [(p, (y,)) for y in fib] + [(p, tuple(fib[i] for i in t)) for t in pairs + triples]))
    diag = np.arange(n)
    conn, connfd, berw = _Tracker(), _Tracker(), _Tracker()
    conn.feed_all(_relative(N, fd[:n].T)[None], [p])
    connfd.feed_all(_relative(Gf[(diag, *np.transpose(pairs))],
                              np.diagonal(fd[n:2 * n]))[None], [p])
    berw.feed_all(_relative(B[(diag, *np.transpose(triples))],
                            np.diagonal(fd[2 * n:]))[None], [p])

    # Adapted derivative of the horizontal coefficients, fd vs. jets, at one
    # representative component: the leading block of the curvature assembly.
    a, b, c = 0, 0, cfg.n1  # mixed-factor slot: nonzero for warped products
    dH = ep.delta(ep.horizontal_coefficients())[0]
    fd = np.array(fd_partials(
        lambda batch: WorkPoint(ws, batch, VALUE_ORDER).product.horizontal_values()[..., a, b, c],
        [(p, (y,)) for y in fib] + [(p, (x,)) for x in cfg.base]))
    fd_fiber, fd_delta = fd[:n], fd[n:]
    for e in range(n):
        fd_delta = fd_delta - N[e] * fd_fiber[e]
    hdelta = _Tracker()
    hdelta.feed_all(_relative(dH[a, b, c], fd_delta)[None], [p])
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
