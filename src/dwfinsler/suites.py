"""Verification suites: named residual checks over sampled points.

Each suite turns one family of identities into residual entries with
tolerances and pass/fail verdicts; expected failures (theorem contrapositives
on non-Riemannian fixtures) are declared in the run spec and asserted as
failure-as-success by the runner.

Each suite is a step, ``SUITES[name]``, that reads one strip and feeds its
suite's :class:`_Entries`.  :func:`run_suites` walks the sampled points once,
as strips (:meth:`Workspace.strips`): each strip is one engine point over a
batch of samples, every suite's step reads it in turn, and it is dropped
before the next is built, so a battery holds one strip at a time.  A step
reads its tensors as arrays whose leading axis runs over the strip's samples.
A suite names each entry once, where it feeds it to its
:class:`_Entries`: the first feed makes the entry's tracker and fixes its
tolerance name and, for a lower-bound witness, its note, and the entries are
reported in the order they were first fed.  A feed hands over the strip's
residual tensors as they are, several of them as a tuple joined sample by
sample, and the tracker alone reduces them (:meth:`_Tracker.feed_all`): it
keeps the worst entry and its witness sample exactly as feeding the entries
one by one would, and passes that one value through :meth:`_Tracker.feed`,
the funnel a caller can wrap to see them.  Only a per-sample statistic that
is not a maximum (the Matsumoto witness, the isotropy defect, the gap
between the largest |N_J| and |R|) is reduced before its feed.  A suite
whose precondition fails reports one informational entry
(:meth:`_Entries.skip`), and ``fd-crosscheck`` keeps its first samples as
they arrive and checks them on the strip that completes them.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import closed_forms, lifted
from .blocks import matvec, max_abs, scalar_axes, vdot
from .coords import MAX_ORDER
from .engine import SPRAY_ORDER, VALUE_ORDER, Side, WorkPoint, workspace
from .errors import UnknownSuiteError
from .fd import fd_stencils
from .jets import CoordView
from .metrics import TangentSample, sample_rows
from .runspec import ALL_SUITES, RunSpec, sample_points


class SuiteEntry:
    """One residual check; a ``tolerance`` of None marks an informational entry,
    and ``point`` is the witness of the worst residual."""

    __slots__ = ("suite", "name", "residual", "tolerance", "passed", "point", "note")

    def __init__(self, suite: str, name: str, residual: float, tolerance: float | None,
                 passed: bool, point: list | None = None, note: str = ""):
        self.suite, self.name, self.residual, self.tolerance = suite, name, residual, tolerance
        self.passed, self.point, self.note = passed, point, note


class SuiteResult:
    __slots__ = ("name", "passed", "expected_failure", "as_expected", "max_residual", "entries")

    def __init__(self, name: str, passed: bool, expected_failure: bool, as_expected: bool,
                 max_residual: float, entries: tuple[SuiteEntry, ...]):
        self.name, self.passed, self.expected_failure = name, passed, expected_failure
        self.as_expected, self.max_residual, self.entries = as_expected, max_residual, entries


class DiagnosticsReport:
    __slots__ = ("label", "seed", "count", "suites")

    def __init__(self, label: str, seed: int, count: int, suites: tuple[SuiteResult, ...]):
        self.label, self.seed, self.count, self.suites = label, seed, count, suites

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
        values = np.asarray(values, dtype=float)
        flat = np.abs(values).ravel()
        if not flat.size:
            return
        # argmax finds the first maximum, and the first NaN as one: reversed,
        # the last maximum, or some NaN, when there is one.
        k = flat.size - 1 - int(flat[::-1].argmax())
        if math.isnan(flat[k]):
            k = int(np.isnan(flat).argmax())
        note = describe(*map(int, np.unravel_index(k, values.shape))) if describe else ""
        self.feed(flat[k], points[k // (flat.size // len(values))], note)


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


class _Entries:
    """The tracked entries of one suite, kept in the order they are first fed.

    An entry is named once, where it is fed: its first feed makes its
    tracker and fixes its tolerance name ``tol`` (default: the suite's) and
    ``lower``, the note of a lower-bound witness, which passes when the worst
    value reaches the tolerance and reports the margin below it.  Feeding the
    entry again under another tolerance name or bound is a ``ValueError``.
    ``values`` is a residual tensor whose leading axis runs over ``points``,
    or a tuple of them, joined sample by sample.  A suite whose precondition
    fails reports one informational entry, set by :meth:`skip`.
    ``carry`` is what a step keeps from one strip for a later one.
    """

    __slots__ = ("spec", "suite", "carry", "_fed", "_skipped")

    def __init__(self, spec: RunSpec, suite: str):
        self.spec, self.suite, self.carry = spec, suite, []
        self._fed: dict[str, tuple[_Tracker, str | None, str | None]] = {}
        self._skipped: SuiteEntry | None = None

    def feed(self, name: str, values, points, tol: str | None = None, describe=None,
             lower: str | None = None) -> None:
        got = self._fed.get(name)
        if got is None:
            got = self._fed[name] = (_Tracker(), tol, lower)
        elif got[1:] != (tol, lower):
            raise ValueError(f"{self.suite} entry {name!r} fed under tolerance {tol!r} "
                             f"and bound {lower!r}, first under {got[1]!r} and {got[2]!r}")
        if isinstance(values, tuple):
            values = np.concatenate([np.reshape(v, (len(points), -1)) for v in values], 1)
        got[0].feed_all(values, points, describe)

    def skip(self, name: str, note: str = "") -> None:
        """Report only the passing informational entry ``name``."""
        self._skipped = SuiteEntry(self.suite, name, 0.0, None, True, None, note)

    def entries(self) -> list[SuiteEntry]:
        if self._skipped is not None:
            return [self._skipped]
        out = []
        for name, (tracker, tol, lower) in self._fed.items():
            if lower is None:
                out.append(_entry(self.spec, self.suite, name, tracker, tol))
                continue
            residual = self.spec.tolerance(tol or self.suite) - tracker.value
            out.append(SuiteEntry(self.suite, name, residual, 0.0, residual <= 0.0,
                                  _point_doc(tracker.point), lower))
        return out


# ---------------------------------------------------------------------------
# Curvature fits of the first-factor block
# ---------------------------------------------------------------------------

def _commutator_pattern(gf: np.ndarray) -> np.ndarray:
    """[..., j, i, k, l] = delta^i_l g_jk - delta^i_k g_jl over a factor metric."""
    eye = np.eye(gf.shape[-1])
    return (np.einsum("il,...jk->...jikl", eye, gf)
            - np.einsum("ik,...jl->...jikl", eye, gf))


def _flat_factor(wp: WorkPoint) -> tuple:
    """Residuals of the curvature-shift identity for Riemannian factors.

    With factor 1 Riemannian, the product hh-curvature restricted to the
    first-factor block equals the factor curvature minus
    |grad f2|^2 / f1^2 times the metric commutator pattern; mirrored for the
    second factor when it is Riemannian.  Returns the first block's residual
    tensor and the second's (None unless factor 2 is Riemannian).
    """
    cfg = wp.cfg
    n1, n2 = cfg.n1, cfg.n2
    hh = wp.product.hh_curvature()

    def block_residual(t: Side, o: Side):
        sl = slice(0, n1) if t.which == 1 else slice(n1, n1 + n2)
        lam = o.grad_norm_sq / t.fsq
        expected = t.eng.hh_curvature() - scalar_axes(lam, 4) * _commutator_pattern(t.g)
        return hh[..., sl, sl, sl, sl] - expected

    s1, s2 = wp.sides
    return block_residual(s1, s2), block_residual(s2, s1) if cfg.factor2.is_riemannian else None


def _scalar_flag(wp: WorkPoint):
    """Least-squares isotropy fit of the first-factor curvature block.

    Fits the Latin block of the product hh-curvature to
    lambda * (delta^i_l g_jk - delta^i_k g_jl) over the factor metric and
    returns (lambda_hat, isotropy defect), floats at one sample and arrays
    over a strip's samples.  Degenerate normal equations are reported as an
    infinite defect rather than a guess.
    """
    n1 = wp.cfg.n1
    hh = wp.product.hh_curvature()[..., :n1, :n1, :n1, :n1]
    pattern = _commutator_pattern(wp.sides[0].g)
    eye = np.eye(n1, dtype=bool)
    sel = ~(eye[None, :, :, None] & eye[:, None, None, :])  # [j, i, k, l]: i != k or j != l
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
# Suite steps: each reads one strip and feeds its suite's entries
# ---------------------------------------------------------------------------

def _suite_homogeneity(out: _Entries, wp: WorkPoint) -> None:
    cfg, at = wp.cfg, wp.samples
    n1 = cfg.n1
    scales = (0.5, 2.0, 7.0)
    ep = wp.product
    # The rescaled copies of a strip are evaluated once, as one batch over
    # (sample, scale), and not kept in the workspace.
    scaled = WorkPoint(workspace(cfg), wp.sample.fiber_scaled(scales), SPRAY_ORDER).product
    scaled_g = scaled.g_values().reshape(len(at), len(scales), cfg.n, cfg.n)
    # The spray at scale 2, the second of the three.
    scaled_spray = scaled.spray_values().reshape(len(at), len(scales), cfg.n)[:, 1]
    g = ep.g_values()
    for k, lam in enumerate(scales):
        out.feed(f"metric-rescale-{lam}", scaled_g[:, k] - g, at, "homogeneity.metric")
    G = ep.spray_values()
    out.feed("spray-rescale", scaled_spray - 4.0 * G, at, "homogeneity.spray")
    N = ep.nonlinear_connection_values()
    yv = ep.fiber_values()
    out.feed("connection-euler", matvec(N, yv) - 2.0 * G, at, "homogeneity.spray")
    contr = np.einsum("...abc,...c->...ab", ep.connection_fiber_values(), yv) - N
    out.feed("connection-degree-11", contr[..., :n1, :n1], at)
    out.feed("connection-degree-12", contr[..., :n1, n1:], at)
    out.feed("connection-degree-21", contr[..., n1:, :n1], at)
    out.feed("connection-degree-22", contr[..., n1:, n1:], at)


def _suite_block_structure(out: _Entries, wp: WorkPoint) -> None:
    n1 = wp.cfg.n1
    ep, at = wp.product, wp.samples
    g = ep.g_values()
    out.feed("metric-off-block", (g[..., :n1, n1:], g[..., n1:, :n1]), at)
    C = ep.cartan()
    pure = np.zeros((wp.cfg.n,) * 3, dtype=bool)
    pure[:n1, :n1, :n1] = pure[n1:, n1:, n1:] = True
    out.feed("cartan-mixed-block", C[..., ~pure], at)
    expect = closed_forms.cartan_scaled_factor_blocks(wp)
    out.feed("cartan-warp-scaled", (C[..., :n1, :n1, :n1] - expect["111"],
                                    C[..., n1:, n1:, n1:] - expect["222"]), at,
             "block-structure.scaled")
    I = ep.mean_cartan()
    f1, f2 = wp.factors
    out.feed("mean-cartan-factor", (I[..., :n1] - f1.mean_cartan(),
                                    I[..., n1:] - f2.mean_cartan()), at,
             "block-structure.scaled")
    yv = ep.fiber_values()
    out.feed("angular-annihilates-fiber", matvec(ep.angular(), yv), at,
             "block-structure.null")
    out.feed("cartan-annihilates-fiber", np.einsum("...abc,...c->...ab", C, yv), at,
             "block-structure.null")


def _suite_yfg(out: _Entries, wp: WorkPoint) -> None:
    ep = wp.product
    lhs = np.einsum("...c,...abc->...ab", ep.fiber_values(), ep.horizontal_values())
    out.feed("contraction", lhs - ep.nonlinear_connection_values(), wp.samples)


def _suite_matsumoto(out: _Entries, wp: WorkPoint) -> None:
    n1 = wp.cfg.n1
    ep, at = wp.product, wp.samples
    M = ep.matsumoto()
    y = wp.factors[0].fiber_values()
    lhs = np.einsum("...j,...k,...ajk->...a", y, y, M[..., n1:, :n1, :n1])
    rhs = closed_forms.matsumoto_contraction_rhs(wp)
    out.feed("mixed-contraction-identity", lhs - rhs, at)
    yv = ep.fiber_values()
    out.feed("total-fiber-contraction",
             np.einsum("...a,...b,...c,...abc->...", yv, yv, yv, M), at,
             "matsumoto-contraction.total")
    if not wp.cfg.both_riemannian:
        # np.minimum, unlike min, keeps a NaN on either side.
        out.feed("witness-nonzero",
                 np.minimum(max_abs(lhs, wp.lead), max_abs(rhs, wp.lead)), at,
                 "matsumoto-contraction.witness",
                 lower="lower bound: both contraction sides must exceed the threshold")


def _suite_berwald(out: _Entries, wp: WorkPoint) -> None:
    cfg, at = wp.cfg, wp.samples
    B = wp.product.berwald()
    res = closed_forms.compare_blocks(B, closed_forms.berwald_blocks(wp), cfg.n1, cfg.n2)
    for key in sorted(res):
        out.feed(f"block-{key}", res[key], at)
    out.feed("total-symmetry", (B - np.swapaxes(B, -3, -2), B - np.swapaxes(B, -2, -1)), at,
             "berwald-blocks.symmetry")
    if cfg.classification() == "doubly-warped" and not cfg.both_riemannian:
        out.feed("witness-nonzero", B, at, "berwald-blocks.witness",
                 lower="lower bound: a proper non-Riemannian product must have nonzero "
                       "Berwald curvature")


def _suite_closed_form_blocks(out: _Entries, wp: WorkPoint) -> None:
    """The engine's spray, N, Gf and H against their warped closed forms, block by block."""
    cfg, ep = wp.cfg, wp.product
    for tensor, generic, closed in (
            ("spray", ep.spray_values(), closed_forms.spray_blocks(wp)),
            ("N", ep.nonlinear_connection_values(),
             closed_forms.nonlinear_connection_blocks(wp)),
            ("Gf", ep.connection_fiber_values(), closed_forms.connection_fiber_blocks(wp)),
            ("H", ep.horizontal_values(), closed_forms.horizontal_blocks(wp))):
        for key, val in closed_forms.compare_blocks(generic, closed, cfg.n1, cfg.n2).items():
            out.feed(f"closed-form-{tensor}.{key}", val, wp.samples)


def _suite_lemma41(out: _Entries, wp: WorkPoint) -> None:
    ep, at = wp.product, wp.samples
    hh = ep.hh_curvature()
    out.feed("fiber-contraction", np.einsum("...b,...bacd->...acd", ep.fiber_values(), hh)
             - ep.bracket_curvature_values(), at)
    out.feed("pair-antisymmetry", hh + np.swapaxes(hh, -2, -1), at, "lemma41.antisymmetry")


def _suite_con1(out: _Entries, wp: WorkPoint) -> None:
    if not wp.cfg.factor1.is_riemannian:
        out.skip("skipped (factor 1 not Riemannian)", "identity undefined for this configuration")
        return
    first, second = _flat_factor(wp)
    out.feed("first-factor-block", first, wp.samples)
    if second is not None:
        out.feed("second-factor-block", second, wp.samples)


def _suite_scalar_flag(out: _Entries, wp: WorkPoint) -> None:
    if not wp.cfg.factor1.is_riemannian or wp.cfg.n1 < 2:
        out.skip("skipped (needs Riemannian factor 1, n1 >= 2)")
        return
    lam, defect = _scalar_flag(wp)
    out.feed("isotropy-defect", defect, wp.samples,
             describe=lambda k: f"fitted coefficient {lam[k]:.6g}")


def _suite_koszul(out: _Entries, wp: WorkPoint) -> None:
    lp, at = lifted.of(wp), wp.samples
    out.feed("metric-compatibility", lp.metric_derivative(lp.koszul), at)
    out.feed("zero-torsion", lp.torsion(lp.koszul), at)
    res = lp.levi_civita_block_residuals()
    for key in sorted(res):
        out.feed(f"closed-form-{key}", res[key], at)


def _suite_vaisman(out: _Entries, wp: WorkPoint) -> None:
    for key, val in lifted.of(wp).vaisman_axiom_residuals().items():
        out.feed(key, val, wp.samples)


def _reinhart_note(sample, a, b, c) -> str:
    return f"X=vertical[{a}], Y=horizontal[{b}], Z=horizontal[{c}]"


def _suite_reinhart(out: _Entries, wp: WorkPoint) -> None:
    d, i = lifted.of(wp).reinhart_tables()
    out.feed("identity-match", d - i, wp.samples, "reinhart.identity", _reinhart_note)
    out.feed("transversal-parallelism", d, wp.samples, describe=_reinhart_note)


def _suite_hermitian(out: _Entries, wp: WorkPoint) -> None:
    n = wp.cfg.n
    J = lifted.ComplexStructure(wp.cfg.n1, wp.cfg.n2).matrix()
    lp, at = lifted.of(wp), wp.samples
    out.feed("metric-invariance", J.T @ lp.metric @ J - lp.metric, at)
    om = lp.symplectic_table()
    expected = np.zeros_like(om)
    expected[..., :n, n:] = lp.g
    expected[..., n:, :n] = -lp.g
    out.feed("symplectic-frame-table", om - expected, at)
    out.feed("antisymmetry", om + np.swapaxes(om, -1, -2), at, "hermitian.antisymmetry")
    d, potential = lp.closedness()
    out.feed("closedness", d, at)
    out.feed("potential-match", potential, at)


def _suite_nijenhuis(out: _Entries, wp: WorkPoint) -> None:
    closed, direct = lifted.of(wp).nijenhuis_tables
    out.feed("closed-vs-direct", closed - direct, wp.samples)
    out.feed("skew-symmetry", direct + np.swapaxes(direct, -3, -2), wp.samples,
             "nijenhuis.skew")


def _suite_kahler(out: _Entries, wp: WorkPoint) -> None:
    # Kahler iff the horizontal distribution is integrable: N_J is built
    # from R alone, so its largest entry is the largest |R| at every sample.
    lp = lifted.of(wp)
    nj, r = max_abs(lp.nijenhuis_tables[1], wp.lead), max_abs(lp.Rb, wp.lead)
    out.feed("integrability-equivalence", nj - r, wp.samples,
             describe=lambda k: f"max integrability obstruction {nj[k]:.3e}, "
                                f"max bracket curvature {r[k]:.3e}")


def _suite_totally_geodesic(out: _Entries, wp: WorkPoint) -> None:
    # The second fundamental forms of the two bundles in the Koszul table
    # (Bao-Chern-Shen, GTM 200): the vertical part of nabla_{H_a} H_b is
    # 1/2 R^k_ab - C^k_ab, and the horizontal part of nabla_{V_a} V_b is
    # -(Fh - Gf)^k_ab.
    n = wp.cfg.n
    lp, at = lifted.of(wp), wp.samples
    c_up = np.einsum("...kl,...lab->...kab", wp.product.ginv_values(), lp.C)
    out.feed("horizontal-second-fundamental-form",
             lp.koszul[..., :n, :n, n:] - np.einsum("...kab->...abk", 0.5 * lp.Rb - c_up), at)
    out.feed("vertical-second-fundamental-form",
             lp.koszul[..., n:, n:, :n] + np.einsum("...kab->...abk", lp.Fh - lp.Gf), at)


def _random_directions(rng: np.random.Generator, coords: list) -> tuple:
    """1 to 3 coordinates drawn at random, repeats allowed."""
    order = int(rng.integers(1, 4))
    return tuple(coords[int(i)] for i in rng.integers(0, len(coords), order))


def _relative(jet, fd):
    return abs(jet - fd) / (1.0 + abs(fd))


def _suite_fd_crosscheck(out: _Entries, wp: WorkPoint) -> None:
    """Jets against finite differences at the first samples, up to three.

    The step keeps each of those samples with its strip's product point and
    its row there as the strips arrive, and checks them all on the strip that
    completes them.
    """
    spec = out.spec
    held, wanted = out.carry, min(3, spec.sampling.count)
    if held is None:  # checked on an earlier strip
        return
    held.extend((wp.product, k, p) for k, p in enumerate(wp.samples[:wanted - len(held)]))
    if len(held) < wanted:
        return
    out.carry = None
    cfg = spec.config
    ws = workspace(cfg)
    rng = np.random.Generator(np.random.PCG64(spec.sampling.seed + 1))
    coords = list(cfg.base) + list(cfg.fiber)  # in the order of a point's row
    n = cfg.n
    subset = [p for _, _, p in held]
    rows = sample_rows(subset)
    g = np.array([ep.g_values()[k] for ep, k, _ in held])
    # The finite-difference oracle evaluates F^2 on floats, at the stencils
    # of 8 random partials at each point of the subset, drawn in order, and
    # of every fiber pair of g there, all as one batch.  A probe is a row and
    # the positions in it of its directions, in sorted order, which its
    # stencil nests in.  The jets read each partial off the lift of F^2 at
    # the probe's sample; a direction that is not a seed of the lift gives
    # an exact zero.
    dirs = [_random_directions(rng, coords) for _ in range(8 * len(subset))]
    positions = np.full((len(dirs), 3), -1)
    jet = np.zeros(len(dirs))
    for i, d in enumerate(dirs):
        positions[i, :len(d)] = [coords.index(c) for c in sorted(d)]
        ep, k, _ = held[i // 8]
        lift = ep.lift()
        if set(d) <= set(lift.seeds):
            jet[i] = lift[k].partial(d)
    fiber_pairs = n + np.sort(np.divmod(np.arange(n * n), n), 0).T
    fd, fd_g = fd_stencils(lambda batch: cfg.F2(CoordView(batch)), [
        (np.repeat(rows, 8, 0), positions),
        (np.repeat(rows, n * n, 0), np.tile(fiber_pairs, (len(subset), 1)))],
        cfg.n1, cfg.n2)
    out.feed("squared-norm-partials",
             (abs(jet - fd) / (1.0 + abs(jet))).reshape(len(subset), 8), subset,
             describe=lambda k, j: f"dirs={dirs[8 * k + j]}")
    out.feed("fundamental-tensor", _relative(g, 0.5 * np.reshape(fd_g, g.shape)), subset)
    # Derived fields: the spray and its fiber derivatives against fd towers,
    # their stencils evaluated as one batch, not kept in the workspace.
    ep, k, p = held[0]
    N = ep.nonlinear_connection_values()[k]
    Gf = ep.connection_fiber_values()[k]
    B = ep.berwald()[k]
    # fd[b][a] = dG^a / dy^b: one stencil per fiber direction serves every a.
    # Gf and B are checked at one random component (b, c), (b, c, d) per a.
    pairs, triples = [], []
    for _ in range(n):
        pairs.append((int(rng.integers(0, n)), int(rng.integers(0, n))))
        triples.append(tuple(int(i) for i in rng.integers(0, n, 3)))
    diag = np.arange(n)
    fd_fiber, fd_pairs, fd_triples = fd_stencils(
        lambda batch: WorkPoint(ws, batch, SPRAY_ORDER).product.spray_values(),
        [(rows[0], n + np.sort(t, 1)) for t in (diag[:, None], pairs, triples)], cfg.n1, cfg.n2)
    out.feed("nonlinear-connection", _relative(N, fd_fiber.T)[None], [p])
    out.feed("connection-fiber-derivative",
             _relative(Gf[(diag, *np.transpose(pairs))], np.diagonal(fd_pairs))[None], [p])
    out.feed("berwald",
             _relative(B[(diag, *np.transpose(triples))], np.diagonal(fd_triples))[None], [p])

    # Adapted derivative of the horizontal coefficients, fd vs. jets, at one
    # representative component: the leading block of the curvature assembly.
    a, b, c = 0, 0, cfg.n1  # mixed-factor slot: nonzero for warped products
    dH = ep.horizontal_delta_values()[k]
    (fd,) = fd_stencils(
        lambda batch: WorkPoint(ws, batch, VALUE_ORDER).product.horizontal_values()[..., a, b, c],
        [(rows[0], np.r_[n:2 * n, :n][:, None])], cfg.n1, cfg.n2)
    fd_fiber, fd_delta = fd[:n], fd[n:]
    for e in range(n):
        fd_delta = fd_delta - N[e] * fd_fiber[e]
    out.feed("horizontal-delta", _relative(dH[a, b, c], fd_delta)[None], [p])


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
    """Execute the spec's suites over its deterministic sample.

    The sample is walked once, strip by strip, and every suite's step reads
    each strip before the next is built, so no strip outlives its turn.
    """
    for name in spec.suites:
        if name not in SUITES:
            raise UnknownSuiteError(f"unknown suite {name!r}")
    # A list, not a dict: a suite named twice runs, and is reported, twice.
    outs = [(name, _Entries(spec, name)) for name in spec.suites]
    for wp in workspace(spec.config).strips(sample_points(spec)):
        for name, out in outs:
            SUITES[name](out, wp)
    results = []
    for name, out in outs:
        entries = tuple(out.entries())
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
