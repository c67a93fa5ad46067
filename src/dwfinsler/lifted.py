"""Geometry of the slit tangent bundle of the doubly warped product.

The adapted frame has 2(n1+n2) basis fields: n horizontal (the adapted base
derivations) followed by n vertical (the fiber derivations).  Frame vectors
are component arrays in that basis.  The warped Sasaki-type lift repeats the
product fundamental tensor on the horizontal and vertical blocks.

Every table is an array expression.  The Koszul solve, the Vaisman and
Reinhart diagnostics and the Nijenhuis tensor read two frame arrays of the
metric derivatives and the brackets; the closed-form Levi-Civita table reads
only the engine's connection blocks and the factor tensors, so the two
routes stay independent.

The Koszul computation is ground truth for the Levi-Civita connection; the
closed-form table is a transcription that is diffed against it, never
silently trusted: the ``koszul-vs-closed`` suite holds every block of it to
the Koszul solve on every configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import POINT, WorkPoint, _values, workspace
from .errors import PreconditionError
from .metrics import ProductConfig, TangentSample

FAMILIES = ("h1", "h2", "v1", "v2")
_FAMILY_PAIRS = tuple(f"{a}.{b}" for a in FAMILIES for b in FAMILIES)


@dataclass(frozen=True, eq=False)
class FrameVector:
    """Components in the adapted basis: n horizontal then n vertical slots."""

    comps: np.ndarray
    n1: int
    n2: int

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def horizontal(self) -> np.ndarray:
        return self.comps[:self.n]

    @property
    def vertical(self) -> np.ndarray:
        return self.comps[self.n:]

    def vertical_projector(self) -> "FrameVector":
        out = self.comps.copy()
        out[:self.n] = 0.0
        return FrameVector(out, self.n1, self.n2)

    def horizontal_projector(self) -> "FrameVector":
        out = self.comps.copy()
        out[self.n:] = 0.0
        return FrameVector(out, self.n1, self.n2)

    def tangent_map(self) -> "FrameVector":
        """The almost tangent structure: horizontal slots moved to vertical."""
        out = np.zeros_like(self.comps)
        out[self.n:] = self.comps[:self.n]
        return FrameVector(out, self.n1, self.n2)


def frame_vector(cfg: ProductConfig, comps) -> FrameVector:
    arr = np.asarray(comps, dtype=float)
    if arr.shape != (2 * cfg.n,):
        raise ValueError(f"frame vectors over this product have {2 * cfg.n} components")
    return FrameVector(arr, cfg.n1, cfg.n2)


def basis_horizontal(cfg: ProductConfig, a: int) -> FrameVector:
    arr = np.zeros(2 * cfg.n)
    arr[a] = 1.0
    return FrameVector(arr, cfg.n1, cfg.n2)


def basis_vertical(cfg: ProductConfig, a: int) -> FrameVector:
    arr = np.zeros(2 * cfg.n)
    arr[cfg.n + a] = 1.0
    return FrameVector(arr, cfg.n1, cfg.n2)


@dataclass(frozen=True, eq=False)
class LiftedMetric:
    """Warped Sasaki-type metric in the adapted frame: blockdiag(g, g)."""

    matrix: np.ndarray
    n1: int
    n2: int

    def pairing(self, X: FrameVector, Y: FrameVector) -> float:
        return float(X.comps @ self.matrix @ Y.comps)


@dataclass(frozen=True, eq=False)
class ConnectionTable:
    """nabla values over ordered adapted-frame basis pairs: entries[A][B] is
    the frame vector nabla_{e_A} e_B."""

    kind: str
    entries: np.ndarray  # (2n, 2n, 2n)


class _LiftedPoint:
    """Shared ingredients of the lifted geometry at one sample.

    Two frame arrays carry everything the connection tables need:
    ``dm[A, B, C]`` is e_A applied to the component field m(e_B, e_C), and
    ``br[A, B]`` is the Lie bracket [e_A, e_B] in frame components.
    """

    def __init__(self, wp: WorkPoint):
        self.wp = wp
        self.n1, self.n2 = wp.cfg.n1, wp.cfg.n2
        n = self.n = wp.cfg.n
        ep = wp.product
        self.g = ep.g_values()
        self.C = ep.cartan()
        self.Rb = ep.bracket_curvature_values()
        self.Gf = ep.connection_fiber_values()
        self.Fh = ep.horizontal_values()
        self.dg = _values(ep.delta_g(POINT))
        self.metric = _blockdiag(self.g)
        self.metric_inv = _blockdiag(ep.ginv_values())
        m = 2 * n
        # Horizontal fields differentiate by dg, vertical ones by the fiber
        # derivative 2C; mixed components vanish identically.
        self.dm = np.zeros((m, m, m))
        self.dm[:n, :n, :n] = self.dm[:n, n:, n:] = np.einsum("bca->abc", self.dg)
        self.dm[n:, :n, :n] = self.dm[n:, n:, n:] = 2.0 * self.C
        # Brackets of basis fields are vertical.
        self.br = np.zeros((m, m, m))
        self.br[:n, :n, n:] = np.einsum("kab->abk", self.Rb)
        self.br[:n, n:, n:] = np.einsum("kab->abk", self.Gf)
        self.br[n:, :n, n:] = -np.einsum("kba->abk", self.Gf)

    def metric_derivative(self, table: np.ndarray) -> np.ndarray:
        """(nabla_X m)(Y, Z) over all frame triples [X, Y, Z] for a connection table."""
        low = np.einsum("xyk,kz->xyz", table, self.metric)
        return self.dm - low - np.einsum("xzy->xyz", low)

    def torsion(self, table: np.ndarray) -> np.ndarray:
        """nabla_X Y - nabla_Y X - [X, Y] over all frame pairs [X, Y]."""
        return table - np.einsum("yxk->xyk", table) - self.br

    def cartan_up(self, which: int) -> np.ndarray:
        eng = self.wp.factor(which)
        return np.einsum("sh,hij->sij", eng.ginv_values(), eng.cartan())


def _blockdiag(block: np.ndarray) -> np.ndarray:
    n = block.shape[0]
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = out[n:, n:] = block
    return out


def _lifted(cfg: ProductConfig, p: TangentSample) -> _LiftedPoint:
    wp = workspace(cfg).at(p)
    key = ("lifted_point",)
    got = wp.product._memo.get(key)
    if got is None:
        got = _LiftedPoint(wp)
        wp.product._memo[key] = got
    return got


def lifted_metric(cfg: ProductConfig, p: TangentSample) -> LiftedMetric:
    lp = _lifted(cfg, p)
    return LiftedMetric(lp.metric, cfg.n1, cfg.n2)


# ---------------------------------------------------------------------------
# Levi-Civita connection: Koszul ground truth and the closed-form table
# ---------------------------------------------------------------------------

def koszul_levi_civita(cfg: ProductConfig, p: TangentSample) -> ConnectionTable:
    """Solve the Koszul identity over the adapted frame, brackets included."""
    lp = _lifted(cfg, p)
    dm = lp.dm
    low = np.einsum("abk,kz->abz", lp.br, lp.metric)  # m([e_A, e_B], e_Z)
    rhs = (dm + np.einsum("baz->abz", dm) - np.einsum("zab->abz", dm)
           + low - np.einsum("azb->abz", low) - np.einsum("bza->abz", low))
    return ConnectionTable("levi-civita-koszul",
                           0.5 * np.einsum("kz,abz->abk", lp.metric_inv, rhs))


def levi_civita_closed_forms(cfg: ProductConfig, p: TangentSample) -> ConnectionTable:
    """The transcribed component table of the Levi-Civita connection.

    Built from the engine's Rb, Gf, Fh, dg and the factor tensors only, never
    from the frame arrays the Koszul solve uses.  Index letters: i, j, k, s run
    over the first factor; a, b run over all n base slots, or over the second
    factor where a block is confined to it; m, g run over the second factor.
    ``G1``/``G2`` and ``R1``/``R2`` are Gf and Rb with the upper index lowered by
    the first/second factor metric: G1[a, b, k] = g1_rk Gf^r_ab.
    """
    lp = _lifted(cfg, p)
    n, n1 = lp.n, lp.n1
    wp = lp.wp
    g1, g2 = wp.factor1.g_values(), wp.factor2.g_values()
    g1inv, g2inv = wp.factor1.ginv_values(), wp.factor2.ginv_values()
    f1sq, f2sq = wp.warp_sq(1), wp.warp_sq(2)
    C1u, C2u = lp.cartan_up(1), lp.cartan_up(2)
    Rb, Gf, Fh, dg = lp.Rb, lp.Gf, lp.Fh, lp.dg
    G1 = np.einsum("rab,rk->abk", Gf[:n1], g1)
    G2 = np.einsum("rab,rm->abm", Gf[n1:], g2)
    R1 = np.einsum("rab,rk->abk", Rb[:n1], g1)
    R2 = np.einsum("rab,rm->abm", Rb[n1:], g2)
    h1, h2 = slice(0, n1), slice(n1, n)
    v1, v2 = slice(n, n + n1), slice(n + n1, 2 * n)
    out = np.zeros((2 * n, 2 * n, 2 * n))

    # Horizontal-horizontal inputs; same-factor pairs pick up the factor
    # Cartan term on their own vertical slots.
    out[:n, :n, :n] = np.einsum("kab->abk", Fh)
    out[:n, :n, n:] = 0.5 * np.einsum("kab->abk", Rb)
    out[h1, h1, v1] -= np.einsum("sij->ijs", C1u)
    out[h2, h2, v2] -= np.einsum("gab->abg", C2u)

    # Horizontal input a, vertical field j of the first factor.
    out[:n, v1, h1] = 0.5 * np.einsum("kaj,ks->ajs", R1[:n1], g1inv)
    out[h1, v1, h1] += np.einsum("saj->ajs", C1u)
    out[:n, v1, h2] = (f2sq / (2.0 * f1sq)) * np.einsum("maj,gm->ajg", R1[n1:], g2inv)
    inner = (np.einsum("jka->ajk", dg[:n1, :n1]) / f2sq
             + G1[:, :n1] - np.einsum("akj->ajk", G1[:, :n1]))
    out[:n, v1, v1] = 0.5 * np.einsum("ajk,ks->ajs", inner, g1inv)
    inner = f1sq * G2[:, :n1] - f2sq * np.einsum("amj->ajm", G1[:, n1:])
    out[:n, v1, v2] = np.einsum("ajm,gm->ajg", inner, g2inv) / (2.0 * f1sq)

    # Horizontal input a, vertical field b of the second factor.
    out[:n, v2, h1] = (f1sq / (2.0 * f2sq)) * np.einsum("kab,ks->abs", R2[:n1], g1inv)
    out[:n, v2, h2] = 0.5 * np.einsum("mab,mg->abg", R2[n1:], g2inv)
    out[h2, v2, h2] += np.einsum("gab->abg", C2u)
    inner = f2sq * G1[:, n1:] - f1sq * np.einsum("akb->abk", G2[:, :n1])
    out[:n, v2, v1] = np.einsum("abk,ks->abs", inner, g1inv) / (2.0 * f2sq)
    inner = (np.einsum("bma->abm", dg[n1:, n1:])
             + f1sq * (G2[:, n1:] - np.einsum("amb->abm", G2[:, n1:])))
    out[:n, v2, v2] = np.einsum("abm,gm->abg", inner, g2inv) / (2.0 * f1sq)

    # Vertical-vertical inputs: both first factor.
    inner = (np.einsum("kji->ijk", G1[:n1, :n1]) + np.einsum("kij->ijk", G1[:n1, :n1])
             - dg[:n1, :n1, :n1] / f2sq)
    out[v1, v1, h1] = 0.5 * np.einsum("ijk,ks->ijs", inner, g1inv)
    inner = (f2sq * (np.einsum("mji->ijm", G1[n1:, :n1]) + np.einsum("mij->ijm", G1[n1:, :n1]))
             - dg[:n1, :n1, n1:])
    out[v1, v1, h2] = np.einsum("ijm,gm->ijg", inner, g2inv) / (2.0 * f1sq)
    out[v1, v1, v1] = np.einsum("sij->ijs", C1u)

    # Vertical-vertical inputs: mixed factors (symmetric, bracket-free).
    inner = (f1sq * np.einsum("kja->ajk", G2[:n1, :n1])
             + f2sq * np.einsum("kaj->ajk", G1[:n1, n1:]))
    out[v2, v1, h1] = np.einsum("ajk,ks->ajs", inner, g1inv) / (2.0 * f2sq)
    inner = (f1sq * np.einsum("mja->ajm", G2[n1:, :n1])
             + f2sq * np.einsum("maj->ajm", G1[n1:, n1:]))
    out[v2, v1, h2] = np.einsum("ajm,gm->ajg", inner, g2inv) / (2.0 * f1sq)
    out[v1, v2] = np.einsum("ajk->jak", out[v2, v1])

    # Vertical-vertical inputs: both second factor.
    inner = (f1sq * (np.einsum("kba->abk", G2[:n1, n1:]) + np.einsum("kab->abk", G2[:n1, n1:]))
             - dg[n1:, n1:, :n1])
    out[v2, v2, h1] = np.einsum("abk,ks->abs", inner, g1inv) / (2.0 * f2sq)
    inner = (f1sq * (np.einsum("mba->abm", G2[n1:, n1:]) + np.einsum("mab->abm", G2[n1:, n1:]))
             - dg[n1:, n1:, n1:])
    out[v2, v2, h2] = np.einsum("abm,gm->abg", inner, g2inv) / (2.0 * f1sq)
    out[v2, v2, v2] = np.einsum("gab->abg", C2u)

    # Vertical input on a horizontal field follows from zero torsion:
    # nabla_V H = nabla_H V - [H, V].
    out[n:, :n] = np.einsum("abk->bak", out[:n, n:])
    out[n:, :n, n:] -= np.einsum("kab->bak", Gf)
    return ConnectionTable("levi-civita-closed-form", out)


def levi_civita_block_residuals(cfg: ProductConfig, p: TangentSample) -> dict[str, float]:
    """Max |Koszul - closed form| per ordered input-family pair."""
    kos = koszul_levi_civita(cfg, p).entries
    clo = levi_civita_closed_forms(cfg, p).entries
    starts = [0, cfg.n1, cfg.n, cfg.n + cfg.n1]  # first slot of each family
    worst = np.abs(kos - clo).max(axis=2)
    worst = np.maximum.reduceat(np.maximum.reduceat(worst, starts, axis=0), starts, axis=1)
    return dict(zip(_FAMILY_PAIRS, worst.ravel().tolist()))


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
    lp = _lifted(cfg, p)
    n, n1 = lp.n, lp.n1
    out = np.zeros((2 * n, 2 * n, 2 * n))
    out[:n, :n, :n] = np.einsum("kab->abk", lp.Fh)   # horizontal on horizontal
    out[:n, n:, n:] = np.einsum("kab->abk", lp.Gf)   # horizontal on vertical
    out[n:n + n1, n:n + n1, n:n + n1] = np.einsum("sab->abs", lp.cartan_up(1))
    out[n + n1:, n + n1:, n + n1:] = np.einsum("gab->abg", lp.cartan_up(2))
    # mixed vertical pairs and vertical-on-horizontal rows stay zero
    return ConnectionTable("vaisman", out)


def vaisman_axiom_residuals(cfg: ProductConfig, p: TangentSample) -> dict[str, float]:
    """Numerical residuals of the three defining conditions."""
    lp = _lifted(cfg, p)
    n = lp.n
    table = vaisman_connection(cfg, p).entries
    # (i) distribution preservation: outputs stay in the input field's bundle.
    pres = max(np.abs(table[:, :n, n:]).max(), np.abs(table[:, n:, :n]).max())
    # (ii) metric parallelism on all-horizontal and all-vertical triples.
    dmet = lp.metric_derivative(table)
    par = max(np.abs(dmet[:n, :n, :n]).max(), np.abs(dmet[n:, n:, n:]).max())
    # (iii) torsion projections: vertical part unless both fields are
    # horizontal, horizontal part unless both are vertical.
    t = lp.torsion(table)
    tor = max(np.abs(t[n:, :, n:]).max(), np.abs(t[:, n:, n:]).max(),
              np.abs(t[:n, :, :n]).max(), np.abs(t[:, :n, :n]).max())
    return {"preservation": float(pres), "parallelism": float(par), "torsion": float(tor)}


def reinhart_tables(cfg: ProductConfig, p: TangentSample) -> tuple[np.ndarray, np.ndarray]:
    """The Reinhart defect and its factor-Cartan closed form, both [a, b, c].

    Entry [a, b, c] is the value on the vertical basis field a and the
    horizontal basis fields b, c.  The defect (nabla_X G)(Y, Z) comes from the
    Vaisman table; the closed form from the factor Cartan tensors.
    """
    lp = _lifted(cfg, p)
    n, n1 = lp.n, lp.n1
    defect = lp.metric_derivative(vaisman_connection(cfg, p).entries)[n:, :n, :n]
    wp = lp.wp
    identity = np.zeros((n, n, n))
    identity[:n1, :n1, :n1] = 2.0 * wp.warp_sq(2) * wp.factor1.cartan()
    identity[n1:, n1:, n1:] = 2.0 * wp.warp_sq(1) * wp.factor2.cartan()
    return defect, identity


def reinhart_defect(cfg: ProductConfig, p: TangentSample, X: FrameVector,
                    Y: FrameVector, Z: FrameVector) -> float:
    """(nabla_X G)(Y, Z) for structural X and transversal Y, Z.

    X must be vertical and Y, Z horizontal (projector-checked); components
    are taken constant in the adapted frame.
    """
    if float(np.max(np.abs(X.horizontal))) > 0.0:
        raise PreconditionError("reinhart defect needs a vertical first argument")
    if float(np.max(np.abs(Y.vertical))) > 0.0 or float(np.max(np.abs(Z.vertical))) > 0.0:
        raise PreconditionError("reinhart defect needs horizontal second and third arguments")
    return float(np.einsum("abc,a,b,c->", reinhart_tables(cfg, p)[0],
                           X.vertical, Y.horizontal, Z.horizontal))


def reinhart_identity_value(cfg: ProductConfig, p: TangentSample, X: FrameVector,
                            Y: FrameVector, Z: FrameVector) -> float:
    """The factor-Cartan closed form the defect must equal."""
    return float(np.einsum("abc,a,b,c->", reinhart_tables(cfg, p)[1],
                           X.vertical, Y.horizontal, Z.horizontal))


# ---------------------------------------------------------------------------
# Almost complex structure, symplectic form, integrability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexStructure:
    """J: horizontal -> minus vertical, vertical -> horizontal."""

    n1: int
    n2: int

    def apply(self, X: FrameVector) -> FrameVector:
        n = self.n1 + self.n2
        out = np.empty_like(X.comps)
        out[:n] = X.comps[n:]
        out[n:] = -X.comps[:n]
        return FrameVector(out, self.n1, self.n2)

    def matrix(self) -> np.ndarray:
        n = self.n1 + self.n2
        out = np.zeros((2 * n, 2 * n))
        out[:n, n:] = np.eye(n)
        out[n:, :n] = -np.eye(n)
        return out


def almost_complex(cfg: ProductConfig, p: TangentSample | None = None) -> ComplexStructure:
    return ComplexStructure(cfg.n1, cfg.n2)


def symplectic_form(cfg: ProductConfig, p: TangentSample, X: FrameVector,
                    Y: FrameVector) -> float:
    """Omega(X, Y) = G(X, JY) in the adapted frame."""
    lp = _lifted(cfg, p)
    J = almost_complex(cfg)
    return float(X.comps @ lp.metric @ J.apply(Y).comps)


def symplectic_frame_table(cfg: ProductConfig, p: TangentSample) -> np.ndarray:
    lp = _lifted(cfg, p)
    J = almost_complex(cfg).matrix()
    return lp.metric @ J


@dataclass(frozen=True)
class ClosednessReport:
    d_residual: float
    potential_residual: float


def _omega_coordinate_matrix(cfg: ProductConfig, p: TangentSample) -> np.ndarray:
    """Omega over the coordinate basis (base coords then fiber coords)."""
    wp = workspace(cfg).at(p)
    g = wp.product.g_values()
    N = wp.product.nonlinear_connection_values()
    n = cfg.n
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = g @ N - N.T @ g
    out[:n, n:] = g
    out[n:, :n] = -g
    return out


def closedness_check(cfg: ProductConfig, region) -> ClosednessReport:
    """d(Omega) = 0 by first-order central differences, plus the potential test.

    The potential test rebuilds Omega from the exterior derivative of the
    canonical one-form (half the fiber gradient of the squared norm); with
    the orientation d(w_a dz^a)(U,V) = U w(V) - V w(U) the almost-symplectic
    form equals minus that derivative.
    """
    n = cfg.n
    zs = list(cfg.base) + list(cfg.fiber)
    m = len(zs)
    i = np.arange(m)
    increasing = (i[:, None, None] < i[None, :, None]) & (i[None, :, None] < i[None, None, :])
    d_res = 0.0
    pot_res = 0.0
    for p in region:
        ep = workspace(cfg).at(p).product
        # exterior derivative of the canonical one-form, via exact jets
        mixed = ep.F2_base_fiber_values()
        domega = np.zeros((m, m))
        domega[:n, :n] = 0.5 * (mixed - mixed.T)
        domega[n:, :n] = ep.g_values()
        domega[:n, n:] = -ep.g_values()
        omega = _omega_coordinate_matrix(cfg, p)
        pot_res = max(pot_res, float(np.max(np.abs(omega + domega))))
        # finite-difference exterior derivative of Omega itself
        grads = np.empty((m, m, m))
        for a, za in enumerate(zs):
            h = 1e-4 * (1.0 + abs(p.coord(za)))
            plus = _omega_coordinate_matrix(cfg, p.shifted(za, h))
            minus = _omega_coordinate_matrix(cfg, p.shifted(za, -h))
            grads[a] = (plus - minus) / (2.0 * h)
        cyclic = grads - np.einsum("bac->abc", grads) + np.einsum("cab->abc", grads)
        d_res = max(d_res, float(np.max(np.abs(cyclic[increasing]))))
    return ClosednessReport(d_res, pot_res)


def nijenhuis_tables(cfg: ProductConfig, p: TangentSample) -> tuple[np.ndarray, np.ndarray]:
    """Integrability obstruction of J over all frame pairs, by two routes.

    The first table is assembled from the closed-form components (built from
    the bracket curvature alone); the second evaluates the defining bracket
    combination [JX,JY] - J[JX,Y] - J[X,JY] - [X,Y] directly.
    """
    lp = _lifted(cfg, p)
    n = lp.n
    m = 2 * n
    Rb = np.einsum("kab->abk", lp.Rb)
    closed = np.zeros((m, m, m))
    closed[:n, :n, n:] = -Rb                            # horizontal pair
    closed[n:, n:, n:] = Rb                             # vertical pair
    closed[:n, n:, :n] = -Rb                            # mixed pair
    closed[n:, :n, :n] = np.einsum("abk->bak", Rb)
    # On basis fields X = e_A, Y = e_B, with JX = J[:, A] and the bracket
    # bilinear over constant frame components.
    J, br = almost_complex(cfg).matrix(), lp.br
    direct = (np.einsum("ca,db,cdk->abk", J, J, br)
              - np.einsum("kl,ca,cbl->abk", J, J, br)
              - np.einsum("kl,db,adl->abk", J, J, br)
              - br)
    return closed, direct


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
    max_r = 0.0
    max_n = 0.0
    for p in region:
        lp = _lifted(cfg, p)
        max_r = max(max_r, float(np.max(np.abs(lp.Rb))))
        _closed, direct = nijenhuis_tables(cfg, p)
        max_n = max(max_n, float(np.max(np.abs(direct))))
    verdict = max_r <= tol
    return KahlerReport(verdict, max_r, max_n, (max_n <= ntol) == verdict)


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
    max_fg = max_c = max_mixed = 0.0
    kos_v = kos_h = 0.0
    for p in region:
        lp = _lifted(cfg, p)
        max_fg = max(max_fg, float(np.max(np.abs(lp.Fh - lp.Gf))))
        max_c = max(max_c, float(np.max(np.abs(lp.C))))
        R = lp.Rb
        max_mixed = max(max_mixed, float(np.abs(R[n1:, :n1, :n1]).max()),
                        float(np.abs(R[:n1, :n1, n1:]).max()),
                        float(np.abs(R[n1:, :n1, n1:]).max()),
                        float(np.abs(R[:n1, n1:, n1:]).max()))
        kos = koszul_levi_civita(cfg, p).entries
        kos_v = max(kos_v, float(np.max(np.abs(kos[n:, n:, :n]))))
        kos_h = max(kos_h, float(np.max(np.abs(kos[:n, :n, n:]))))
    vertical = max_fg <= tol
    horizontal = max_c <= tol and max_mixed <= tol
    return TotallyGeodesicReport(
        vertical=vertical, horizontal=horizontal,
        vertical_criterion=max_fg, horizontal_cartan=max_c,
        horizontal_mixed_blocks=max_mixed,
        vertical_invariance_consistent=(kos_v <= tol) == vertical,
        horizontal_invariance_consistent=(kos_h <= tol) == horizontal,
    )
