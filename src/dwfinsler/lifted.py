"""Geometry of the slit tangent bundle of the doubly warped product.

The adapted frame has 2(n1+n2) basis fields: n horizontal (the adapted base
derivations) followed by n vertical (the fiber derivations).  Every object is
a component table over that basis: the lifted metric and J are 2n x 2n
matrices, a connection table holds nabla_{e_A} e_B at [A, B], and a caller
reads a value on frame vectors by contracting the table with their
components.  The warped Sasaki-type lift repeats the product fundamental
tensor on the horizontal and vertical blocks.

Every table is an array expression over a leading ``...``, so one
implementation serves a single sample and a strip of samples (:func:`of`).
The public functions read a single sample; the suites and the region
verdicts read strips.  The Koszul solve, the Vaisman and Reinhart
diagnostics and the Nijenhuis tensor read two frame arrays of the metric
derivatives and the brackets; the closed-form Levi-Civita table reads only
the engine's connection blocks and the factor tensors, so the two routes
stay independent.

The Koszul computation is ground truth for the Levi-Civita connection; the
closed-form table is a transcription that is diffed against it, never
silently trusted: the ``koszul-vs-closed`` suite holds every block of it to
the Koszul solve on every configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import max_abs, scalar_axes
from .engine import WorkPoint, workspace
from .errors import PreconditionError
from .metrics import ProductConfig, TangentSample

FAMILIES = ("h1", "h2", "v1", "v2")
_FAMILY_PAIRS = tuple(f"{a}.{b}" for a in FAMILIES for b in FAMILIES)


@dataclass(frozen=True, eq=False)
class LiftedMetric:
    """Warped Sasaki-type metric in the adapted frame: blockdiag(g, g)."""

    matrix: np.ndarray
    n1: int
    n2: int


@dataclass(frozen=True, eq=False)
class ConnectionTable:
    """nabla values over ordered adapted-frame basis pairs: entries[A][B] is
    the frame vector nabla_{e_A} e_B."""

    kind: str
    entries: np.ndarray  # (2n, 2n, 2n)


class _LiftedPoint:
    """Shared ingredients of the lifted geometry at one sample, or at every
    sample of a strip (each array then leads with the sample axis, ``lead``).

    Two frame arrays carry everything the connection tables need:
    ``dm[..., A, B, C]`` is e_A applied to the component field m(e_B, e_C), and
    ``br[..., A, B]`` is the Lie bracket [e_A, e_B] in frame components.
    """

    def __init__(self, wp: WorkPoint):
        self.wp = wp
        self.n1, self.n2 = wp.cfg.n1, wp.cfg.n2
        n = self.n = wp.cfg.n
        lead = self.lead = wp.lead
        ep = wp.product
        self.g = ep.g_values()
        self.C = ep.cartan()
        self.Rb = ep.bracket_curvature_values()
        self.Gf = ep.connection_fiber_values()
        self.Fh = ep.horizontal_values()
        self.dg = ep.delta_g().value
        self.metric = _blockdiag(self.g)
        self.metric_inv = _blockdiag(ep.ginv_values())
        m = 2 * n
        # Horizontal fields differentiate by dg, vertical ones by the fiber
        # derivative 2C; mixed components vanish identically.
        self.dm = np.zeros(lead + (m, m, m))
        self.dm[..., :n, :n, :n] = self.dm[..., :n, n:, n:] = np.einsum("...bca->...abc", self.dg)
        self.dm[..., n:, :n, :n] = self.dm[..., n:, n:, n:] = 2.0 * self.C
        # Brackets of basis fields are vertical.
        self.br = np.zeros(lead + (m, m, m))
        self.br[..., :n, :n, n:] = np.einsum("...kab->...abk", self.Rb)
        self.br[..., :n, n:, n:] = np.einsum("...kab->...abk", self.Gf)
        self.br[..., n:, :n, n:] = -np.einsum("...kba->...abk", self.Gf)

    def metric_derivative(self, table: np.ndarray) -> np.ndarray:
        """(nabla_X m)(Y, Z) over all frame triples [X, Y, Z] for a connection table."""
        low = np.einsum("...xyk,...kz->...xyz", table, self.metric)
        return self.dm - low - np.einsum("...xzy->...xyz", low)

    def torsion(self, table: np.ndarray) -> np.ndarray:
        """nabla_X Y - nabla_Y X - [X, Y] over all frame pairs [X, Y]."""
        return table - np.einsum("...yxk->...xyk", table) - self.br

    def cartan_up(self, which: int) -> np.ndarray:
        eng = self.wp.factor(which)
        return np.einsum("...sh,...hij->...sij", eng.ginv_values(), eng.cartan())

    # The two connection tables are solved once per point and shared read-only.
    @cached_property
    def koszul(self) -> np.ndarray:
        """Levi-Civita table from the Koszul identity, brackets included."""
        dm = self.dm
        low = np.einsum("...abk,...kz->...abz", self.br, self.metric)  # m([e_A, e_B], e_Z)
        rhs = (dm + np.einsum("...baz->...abz", dm) - np.einsum("...zab->...abz", dm)
               + low - np.einsum("...azb->...abz", low) - np.einsum("...bza->...abz", low))
        return _read_only(0.5 * np.einsum("...kz,...abz->...abk", self.metric_inv, rhs))

    @cached_property
    def vaisman(self) -> np.ndarray:
        """The adapted connection of the vertical foliation."""
        n, n1 = self.n, self.n1
        out = np.zeros(self.lead + (2 * n, 2 * n, 2 * n))
        out[..., :n, :n, :n] = np.einsum("...kab->...abk", self.Fh)  # horizontal on horizontal
        out[..., :n, n:, n:] = np.einsum("...kab->...abk", self.Gf)  # horizontal on vertical
        out[..., n:n + n1, n:n + n1, n:n + n1] = np.einsum("...sab->...abs", self.cartan_up(1))
        out[..., n + n1:, n + n1:, n + n1:] = np.einsum("...gab->...abg", self.cartan_up(2))
        # mixed vertical pairs and vertical-on-horizontal rows stay zero
        return _read_only(out)

    def levi_civita_block_residuals(self) -> dict:
        """Max |Koszul - closed form| per ordered input-family pair."""
        n, n1 = self.n, self.n1
        starts = [0, n1, n, n + n1]  # first slot of each family
        worst = np.abs(self.koszul - _levi_civita_closed_table(self)).max(axis=-1)
        worst = np.maximum.reduceat(np.maximum.reduceat(worst, starts, axis=-2), starts, axis=-1)
        return dict(zip(_FAMILY_PAIRS, np.moveaxis(worst.reshape(self.lead + (-1,)), -1, 0)))

    def vaisman_axiom_residuals(self) -> dict:
        """Numerical residuals of the three defining conditions."""
        n, lead = self.n, self.lead
        table = self.vaisman
        # (i) distribution preservation: outputs stay in the input field's bundle.
        pres = _worst(lead, table[..., :, :n, n:], table[..., :, n:, :n])
        # (ii) metric parallelism on all-horizontal and all-vertical triples.
        dmet = self.metric_derivative(table)
        par = _worst(lead, dmet[..., :n, :n, :n], dmet[..., n:, n:, n:])
        # (iii) torsion projections: vertical part unless both fields are
        # horizontal, horizontal part unless both are vertical.
        t = self.torsion(table)
        tor = _worst(lead, t[..., n:, :, n:], t[..., :, n:, n:], t[..., :n, :, :n],
                     t[..., :, :n, :n])
        return {"preservation": pres, "parallelism": par, "torsion": tor}

    def reinhart_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The Reinhart defect and its factor-Cartan closed form (:func:`reinhart_tables`)."""
        n, n1 = self.n, self.n1
        defect = self.metric_derivative(self.vaisman)[..., n:, :n, :n]
        wp = self.wp
        identity = np.zeros(self.lead + (n, n, n))
        identity[..., :n1, :n1, :n1] = (scalar_axes(2.0 * wp.warp_sq(2), 3)
                                        * wp.factor1.cartan())
        identity[..., n1:, n1:, n1:] = (scalar_axes(2.0 * wp.warp_sq(1), 3)
                                        * wp.factor2.cartan())
        return defect, identity

    def symplectic_table(self) -> np.ndarray:
        """Omega(e_A, e_B) = G(e_A, J e_B) over all frame pairs [A, B]."""
        return self.metric @ ComplexStructure(self.n1, self.n2).matrix()

    @cached_property
    def nijenhuis_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The integrability obstruction of J by two routes (:func:`nijenhuis_tables`),
        built once and shared read-only by the ``nijenhuis`` suite and
        :func:`kahler_verdict`."""
        n = self.n
        m = 2 * n
        Rb = np.einsum("...kab->...abk", self.Rb)
        closed = np.zeros(self.lead + (m, m, m))
        closed[..., :n, :n, n:] = -Rb                            # horizontal pair
        closed[..., n:, n:, n:] = Rb                             # vertical pair
        closed[..., :n, n:, :n] = -Rb                            # mixed pair
        closed[..., n:, :n, :n] = np.einsum("...abk->...bak", Rb)
        # On basis fields X = e_A, Y = e_B, with JX = J[:, A] and the bracket
        # bilinear over constant frame components.
        J, br = ComplexStructure(self.n1, self.n2).matrix(), self.br
        direct = (np.einsum("ca,db,...cdk->...abk", J, J, br)
                  - np.einsum("kl,ca,...cbl->...abk", J, J, br)
                  - np.einsum("kl,db,...adl->...abk", J, J, br)
                  - br)
        return _read_only(closed), _read_only(direct)


def _worst(lead: tuple[int, ...], *arrays):
    """The largest |entry| over all arrays, per sample of a batch of shape
    ``lead`` (a float for ``()``); a NaN anywhere is the result."""
    out = np.max([max_abs(a, lead) for a in arrays], axis=0, initial=0.0)
    return out if lead else float(out)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _blockdiag(block: np.ndarray) -> np.ndarray:
    n = block.shape[-1]
    out = np.zeros(block.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = out[..., n:, n:] = block
    return out


def of(wp: WorkPoint) -> _LiftedPoint:
    """The lifted ingredients of a work point (a sample or a strip), built once."""
    if wp.lifted is None:
        wp.lifted = _LiftedPoint(wp)
    return wp.lifted


def _lifted(cfg: ProductConfig, p: TangentSample) -> _LiftedPoint:
    return of(workspace(cfg).at(p))


def _lifted_region(cfg: ProductConfig, region) -> list[_LiftedPoint]:
    """The lifted ingredients of ``region``, one per strip of its samples."""
    return [of(wp) for wp in workspace(cfg).strips(list(region))]


def lifted_metric(cfg: ProductConfig, p: TangentSample) -> LiftedMetric:
    lp = _lifted(cfg, p)
    return LiftedMetric(lp.metric, cfg.n1, cfg.n2)


# ---------------------------------------------------------------------------
# Levi-Civita connection: Koszul ground truth and the closed-form table
# ---------------------------------------------------------------------------

def koszul_levi_civita(cfg: ProductConfig, p: TangentSample) -> ConnectionTable:
    """Solve the Koszul identity over the adapted frame, brackets included."""
    return ConnectionTable("levi-civita-koszul", _lifted(cfg, p).koszul)


def levi_civita_closed_forms(cfg: ProductConfig, p: TangentSample) -> ConnectionTable:
    """The transcribed component table of the Levi-Civita connection.

    Built from the engine's Rb, Gf, Fh, dg and the factor tensors only, never
    from the frame arrays the Koszul solve uses.
    """
    return ConnectionTable("levi-civita-closed-form", _levi_civita_closed_table(_lifted(cfg, p)))


def _levi_civita_closed_table(lp: _LiftedPoint) -> np.ndarray:
    """The closed-form Levi-Civita table of :func:`levi_civita_closed_forms`.

    Index letters: i, j, k, s run over the first factor; a, b run over all n
    base slots, or over the second factor where a block is confined to it;
    m, g run over the second factor.  ``G1``/``G2`` and ``R1``/``R2`` are Gf
    and Rb with the upper index lowered by the first/second factor metric:
    G1[a, b, k] = g1_rk Gf^r_ab.  Every slice and contraction leads with
    ``...``, the sample axis of a strip.
    """
    n, n1 = lp.n, lp.n1
    wp = lp.wp
    g1, g2 = wp.factor1.g_values(), wp.factor2.g_values()
    g1inv, g2inv = wp.factor1.ginv_values(), wp.factor2.ginv_values()
    w1, w2 = wp.warp_sq(1), wp.warp_sq(2)
    C1u, C2u = lp.cartan_up(1), lp.cartan_up(2)
    Rb, Gf, Fh, dg = lp.Rb, lp.Gf, lp.Fh, lp.dg
    G1 = np.einsum("...rab,...rk->...abk", Gf[..., :n1, :, :], g1)
    G2 = np.einsum("...rab,...rm->...abm", Gf[..., n1:, :, :], g2)
    R1 = np.einsum("...rab,...rk->...abk", Rb[..., :n1, :, :], g1)
    R2 = np.einsum("...rab,...rm->...abm", Rb[..., n1:, :, :], g2)
    h1, h2 = slice(0, n1), slice(n1, n)
    v1, v2 = slice(n, n + n1), slice(n + n1, 2 * n)
    out = np.zeros(lp.lead + (2 * n, 2 * n, 2 * n))
    # The squared warps, as factors of rank-3 tables.
    f1sq, f2sq = scalar_axes(w1, 3), scalar_axes(w2, 3)
    two_f1sq, two_f2sq = scalar_axes(2.0 * w1, 3), scalar_axes(2.0 * w2, 3)

    # Horizontal-horizontal inputs; same-factor pairs pick up the factor
    # Cartan term on their own vertical slots.
    out[..., :n, :n, :n] = np.einsum("...kab->...abk", Fh)
    out[..., :n, :n, n:] = 0.5 * np.einsum("...kab->...abk", Rb)
    out[..., h1, h1, v1] -= np.einsum("...sij->...ijs", C1u)
    out[..., h2, h2, v2] -= np.einsum("...gab->...abg", C2u)

    # Horizontal input a, vertical field j of the first factor.
    out[..., :n, v1, h1] = 0.5 * np.einsum("...kaj,...ks->...ajs", R1[..., :n1, :, :], g1inv)
    out[..., h1, v1, h1] += np.einsum("...saj->...ajs", C1u)
    out[..., :n, v1, h2] = (scalar_axes(w2 / (2.0 * w1), 3)
                            * np.einsum("...maj,...gm->...ajg", R1[..., n1:, :, :], g2inv))
    inner = (np.einsum("...jka->...ajk", dg[..., :n1, :n1, :]) / f2sq
             + G1[..., :, :n1, :] - np.einsum("...akj->...ajk", G1[..., :, :n1, :]))
    out[..., :n, v1, v1] = 0.5 * np.einsum("...ajk,...ks->...ajs", inner, g1inv)
    inner = f1sq * G2[..., :, :n1, :] - f2sq * np.einsum("...amj->...ajm", G1[..., :, n1:, :])
    out[..., :n, v1, v2] = np.einsum("...ajm,...gm->...ajg", inner, g2inv) / two_f1sq

    # Horizontal input a, vertical field b of the second factor.
    out[..., :n, v2, h1] = (scalar_axes(w1 / (2.0 * w2), 3)
                            * np.einsum("...kab,...ks->...abs", R2[..., :n1, :, :], g1inv))
    out[..., :n, v2, h2] = 0.5 * np.einsum("...mab,...mg->...abg", R2[..., n1:, :, :], g2inv)
    out[..., h2, v2, h2] += np.einsum("...gab->...abg", C2u)
    inner = f2sq * G1[..., :, n1:, :] - f1sq * np.einsum("...akb->...abk", G2[..., :, :n1, :])
    out[..., :n, v2, v1] = np.einsum("...abk,...ks->...abs", inner, g1inv) / two_f2sq
    inner = (np.einsum("...bma->...abm", dg[..., n1:, n1:, :])
             + f1sq * (G2[..., :, n1:, :] - np.einsum("...amb->...abm", G2[..., :, n1:, :])))
    out[..., :n, v2, v2] = np.einsum("...abm,...gm->...abg", inner, g2inv) / two_f1sq

    # Vertical-vertical inputs: both first factor.
    inner = (np.einsum("...kji->...ijk", G1[..., :n1, :n1, :])
             + np.einsum("...kij->...ijk", G1[..., :n1, :n1, :])
             - dg[..., :n1, :n1, :n1] / f2sq)
    out[..., v1, v1, h1] = 0.5 * np.einsum("...ijk,...ks->...ijs", inner, g1inv)
    inner = (f2sq * (np.einsum("...mji->...ijm", G1[..., n1:, :n1, :])
                     + np.einsum("...mij->...ijm", G1[..., n1:, :n1, :]))
             - dg[..., :n1, :n1, n1:])
    out[..., v1, v1, h2] = np.einsum("...ijm,...gm->...ijg", inner, g2inv) / two_f1sq
    out[..., v1, v1, v1] = np.einsum("...sij->...ijs", C1u)

    # Vertical-vertical inputs: mixed factors (symmetric, bracket-free).
    inner = (f1sq * np.einsum("...kja->...ajk", G2[..., :n1, :n1, :])
             + f2sq * np.einsum("...kaj->...ajk", G1[..., :n1, n1:, :]))
    out[..., v2, v1, h1] = np.einsum("...ajk,...ks->...ajs", inner, g1inv) / two_f2sq
    inner = (f1sq * np.einsum("...mja->...ajm", G2[..., n1:, :n1, :])
             + f2sq * np.einsum("...maj->...ajm", G1[..., n1:, n1:, :]))
    out[..., v2, v1, h2] = np.einsum("...ajm,...gm->...ajg", inner, g2inv) / two_f1sq
    out[..., v1, v2, :] = np.einsum("...ajk->...jak", out[..., v2, v1, :])

    # Vertical-vertical inputs: both second factor.
    inner = (f1sq * (np.einsum("...kba->...abk", G2[..., :n1, n1:, :])
                     + np.einsum("...kab->...abk", G2[..., :n1, n1:, :]))
             - dg[..., n1:, n1:, :n1])
    out[..., v2, v2, h1] = np.einsum("...abk,...ks->...abs", inner, g1inv) / two_f2sq
    inner = (f1sq * (np.einsum("...mba->...abm", G2[..., n1:, n1:, :])
                     + np.einsum("...mab->...abm", G2[..., n1:, n1:, :]))
             - dg[..., n1:, n1:, n1:])
    out[..., v2, v2, h2] = np.einsum("...abm,...gm->...abg", inner, g2inv) / two_f1sq
    out[..., v2, v2, v2] = np.einsum("...gab->...abg", C2u)

    # Vertical input on a horizontal field follows from zero torsion:
    # nabla_V H = nabla_H V - [H, V].
    out[..., n:, :n, :] = np.einsum("...abk->...bak", out[..., :n, n:, :])
    out[..., n:, :n, n:] -= np.einsum("...kab->...bak", Gf)
    return out


def levi_civita_block_residuals(cfg: ProductConfig, p: TangentSample) -> dict[str, float]:
    """Max |Koszul - closed form| per ordered input-family pair."""
    return _lifted(cfg, p).levi_civita_block_residuals()


def induced_vertical_connection(cfg: ProductConfig, p: TangentSample) -> ConnectionTable:
    """Vertical projection of the Levi-Civita connection on vertical fields."""
    kos = koszul_levi_civita(cfg, p).entries
    n = cfg.n
    out = np.zeros_like(kos)
    out[:, n:, n:] = kos[:, n:, n:]
    return ConnectionTable("induced-vertical", out)


# ---------------------------------------------------------------------------
# The adapted foliation connection and the Reinhart diagnostics
# ---------------------------------------------------------------------------

def vaisman_connection(cfg: ProductConfig, p: TangentSample) -> ConnectionTable:
    """Distribution-preserving adapted connection of the vertical foliation."""
    return ConnectionTable("vaisman", _lifted(cfg, p).vaisman)


def vaisman_axiom_residuals(cfg: ProductConfig, p: TangentSample) -> dict[str, float]:
    """Numerical residuals of the three defining conditions."""
    return _lifted(cfg, p).vaisman_axiom_residuals()


def reinhart_tables(cfg: ProductConfig, p: TangentSample) -> tuple[np.ndarray, np.ndarray]:
    """The Reinhart defect and its factor-Cartan closed form, both [a, b, c].

    Entry [a, b, c] is the value on the vertical basis field a and the
    horizontal basis fields b, c.  The defect (nabla_X G)(Y, Z) comes from the
    Vaisman table; the closed form from the factor Cartan tensors.
    """
    return _lifted(cfg, p).reinhart_tables()


# ---------------------------------------------------------------------------
# Almost complex structure, symplectic form, integrability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexStructure:
    """J: horizontal -> minus vertical, vertical -> horizontal."""

    n1: int
    n2: int

    def matrix(self) -> np.ndarray:
        n = self.n1 + self.n2
        out = np.zeros((2 * n, 2 * n))
        out[:n, n:] = np.eye(n)
        out[n:, :n] = -np.eye(n)
        return out


def almost_complex(cfg: ProductConfig) -> ComplexStructure:
    return ComplexStructure(cfg.n1, cfg.n2)


def symplectic_frame_table(cfg: ProductConfig, p: TangentSample) -> np.ndarray:
    """Omega(e_A, e_B) = G(e_A, J e_B) over all frame pairs [A, B]."""
    return _lifted(cfg, p).symplectic_table()


@dataclass(frozen=True)
class ClosednessReport:
    d_residual: float
    potential_residual: float


def closedness_check(cfg: ProductConfig, region) -> ClosednessReport:
    """d(Omega) = 0 from exact jet partials, plus the potential test.

    Over the coordinate basis (base coords then fiber coords) Omega is
    [[gN - N^T g, g], [-g, 0]].  Its partial along each coordinate z takes
    d_z g and d_z N from one gradient of the engine's g and N jets, the same
    jets the adapted derivatives of delta_g and the bracket curvature use.

    The potential test rebuilds Omega from the exterior derivative of the
    canonical one-form (half the fiber gradient of the squared norm); with
    the orientation d(w_a dz^a)(U,V) = U w(V) - V w(U) the almost-symplectic
    form equals minus that derivative.
    """
    n = cfg.n
    zs = cfg.base + cfg.fiber
    m = len(zs)
    i = np.arange(m)
    increasing = (i[:, None, None] < i[None, :, None]) & (i[None, :, None] < i[None, None, :])
    d_res, pot_res = [], []
    for wp in workspace(cfg).strips(list(region)):
        ep, lead = wp.product, wp.lead
        g = ep.g_values()
        N = ep.nonlinear_connection_values()
        # Omega plus the exterior derivative of the canonical one-form: the
        # +-g blocks cancel identically, the base-base blocks must cancel too.
        mixed = ep.F2_base_fiber_values()
        pot_res.append(_worst(lead, g @ N - N.swapaxes(-1, -2) @ g
                              + 0.5 * (mixed - mixed.swapaxes(-1, -2))))
        # grads[..., z] = d_z Omega, exactly; dg[..., z] = d_z g, dN[..., z] = d_z N
        dg = np.moveaxis(ep.g().grad(zs).value, -1, len(lead))
        dN = np.moveaxis(ep.nonlinear_connection().grad(zs).value, -1, len(lead))
        dgN = np.einsum("...zab,...bc->...zac", dg, N) + np.einsum("...ab,...zbc->...zac", g, dN)
        grads = np.zeros(lead + (m, m, m))
        grads[..., :, :n, :n] = dgN - np.einsum("...zac->...zca", dgN)
        grads[..., :, :n, n:] = dg
        grads[..., :, n:, :n] = -dg
        cyclic = (grads - np.einsum("...bac->...abc", grads)
                  + np.einsum("...cab->...abc", grads))
        d_res.append(_worst(lead, cyclic[..., increasing]))
    return ClosednessReport(_worst((), *d_res), _worst((), *pot_res))


def nijenhuis_tables(cfg: ProductConfig, p: TangentSample) -> tuple[np.ndarray, np.ndarray]:
    """Integrability obstruction of J over all frame pairs, by two routes.

    The first table is assembled from the closed-form components (built from
    the bracket curvature alone); the second evaluates the defining bracket
    combination [JX,JY] - J[JX,Y] - J[X,JY] - [X,Y] directly.
    """
    return _lifted(cfg, p).nijenhuis_tables


@dataclass(frozen=True)
class KahlerReport:
    is_kahler: bool
    max_bracket_curvature: float
    max_nijenhuis: float
    equivalence_holds: bool


def kahler_verdict(cfg: ProductConfig, region, tol: float = 1e-7,
                   nijenhuis_tol: float | None = None) -> KahlerReport:
    """Kahler iff the horizontal distribution is integrable over the region."""
    ntol = tol if nijenhuis_tol is None else nijenhuis_tol
    lps = _lifted_region(cfg, region)
    max_r = _worst((), *(lp.Rb for lp in lps))
    max_n = _worst((), *(lp.nijenhuis_tables[1] for lp in lps))
    verdict = max_r <= tol
    # A non-finite maximum decides neither side, so the equivalence fails.
    holds = np.isfinite(max_r + max_n) and (max_n <= ntol) == verdict
    return KahlerReport(verdict, max_r, max_n, bool(holds))


@dataclass(frozen=True)
class TotallyGeodesicReport:
    vertical: bool
    horizontal: bool
    vertical_criterion: float      # max |F - G|
    horizontal_cartan: float       # max |C|
    horizontal_mixed_blocks: float  # max over the four mixed bracket blocks
    vertical_invariance_consistent: bool
    horizontal_invariance_consistent: bool


def totally_geodesic_verdicts(cfg: ProductConfig, region,
                              tol: float = 1e-7) -> TotallyGeodesicReport:
    """Criteria for the vertical/horizontal bundles to be totally geodesic."""
    region = list(region)
    if len(region) < 20:
        raise PreconditionError("totally-geodesic verdicts need at least 20 sample points")
    n1, n = cfg.n1, cfg.n
    lps = _lifted_region(cfg, region)
    max_fg = _worst((), *(lp.Fh - lp.Gf for lp in lps))
    max_c = _worst((), *(lp.C for lp in lps))
    max_mixed = _worst((), *(R for lp in lps for R in (
        lp.Rb[..., n1:, :n1, :n1], lp.Rb[..., :n1, :n1, n1:], lp.Rb[..., n1:, :n1, n1:],
        lp.Rb[..., :n1, n1:, n1:])))
    kos_v = _worst((), *(lp.koszul[..., n:, n:, :n] for lp in lps))
    kos_h = _worst((), *(lp.koszul[..., :n, :n, n:] for lp in lps))
    vertical = max_fg <= tol
    horizontal = max_c <= tol and max_mixed <= tol
    # A non-finite maximum decides neither side, so the consistency fails.
    return TotallyGeodesicReport(
        vertical=vertical, horizontal=horizontal,
        vertical_criterion=max_fg, horizontal_cartan=max_c,
        horizontal_mixed_blocks=max_mixed,
        vertical_invariance_consistent=bool(
            np.isfinite(max_fg + kos_v) and (kos_v <= tol) == vertical),
        horizontal_invariance_consistent=bool(
            np.isfinite(max_c + max_mixed + kos_h) and (kos_h <= tol) == horizontal),
    )
