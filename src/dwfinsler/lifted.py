"""Geometry of the slit tangent bundle of the doubly warped product.

The adapted frame has 2(n1+n2) basis fields: n horizontal (the adapted base
derivations) followed by n vertical (the fiber derivations).  Every object is
a component table over that basis: the lifted metric and J are 2n x 2n
matrices, a connection table holds nabla_{e_A} e_B at [A, B], and a caller
reads a value on frame vectors by contracting the table with their
components.  The warped Sasaki-type lift repeats the product fundamental
tensor on the horizontal and vertical blocks.

Every table is an array expression over a leading ``...``, so one
implementation serves a single sample and a strip of samples.  :func:`of`
gives the lifted ingredients of a work point, whose tables and methods the
suites read strip by strip.  Every residual, Omega's closedness
included, comes back as a tensor or a tuple of tensors that leads with the
sample axis: the suites' trackers alone reduce it and pick its witness.  The
Koszul solve, the Vaisman and Reinhart diagnostics and the Nijenhuis tensor
read two frame arrays of the metric derivatives and the brackets; the
closed-form Levi-Civita table reads only the engine's connection blocks and
the factor tensors, so the two routes stay independent.

The Koszul computation is ground truth for the Levi-Civita connection; the
closed-form table is a transcription that is diffed against it, never
silently trusted: the ``koszul-vs-closed`` suite holds every block of it to
the Koszul solve on every configuration.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .blocks import scalar_axes
from .engine import WorkPoint

FAMILIES = ("h1", "h2", "v1", "v2")


class _LiftedPoint:
    """Shared ingredients of the lifted geometry at one sample, or at every
    sample of a strip (each array then leads with the sample axis, ``lead``).

    Two frame arrays carry everything the connection tables need:
    ``dm[..., A, B, C]`` is e_A applied to the component field m(e_B, e_C), and
    ``br[..., A, B]`` is the Lie bracket [e_A, e_B] in frame components.
    It keeps the work point's engine points, its two squared warps and its
    coordinates, not the work point, which it would otherwise keep alive.
    """

    def __init__(self, wp: WorkPoint):
        cfg = wp.cfg
        self.n1, self.n2 = cfg.n1, cfg.n2
        n = self.n = cfg.n
        lead = self.lead = wp.lead
        ep = self.product = wp.product
        self.factors = (wp.factor1, wp.factor2)
        self.warps_sq = (wp.warp_sq(1), wp.warp_sq(2))
        self.coords = cfg.base + cfg.fiber
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
        eng = self.factors[which - 1]
        return np.einsum("...sh,...hij->...sij", eng.ginv_values(), eng.cartan())

    # The two connection tables are solved once per point and shared read-only.
    @cached_property
    def koszul(self) -> np.ndarray:
        """Levi-Civita table from the Koszul identity over the adapted frame,
        brackets included: entry [A, B] is the frame vector nabla_{e_A} e_B."""
        dm = self.dm
        low = np.einsum("...abk,...kz->...abz", self.br, self.metric)  # m([e_A, e_B], e_Z)
        rhs = (dm + np.einsum("...baz->...abz", dm) - np.einsum("...zab->...abz", dm)
               + low - np.einsum("...azb->...abz", low) - np.einsum("...bza->...abz", low))
        return _read_only(0.5 * np.einsum("...kz,...abz->...abk", self.metric_inv, rhs))

    @cached_property
    def vaisman(self) -> np.ndarray:
        """The distribution-preserving adapted connection of the vertical
        foliation, a table like :attr:`koszul`."""
        n, n1 = self.n, self.n1
        out = np.zeros(self.lead + (2 * n, 2 * n, 2 * n))
        out[..., :n, :n, :n] = np.einsum("...kab->...abk", self.Fh)  # horizontal on horizontal
        out[..., :n, n:, n:] = np.einsum("...kab->...abk", self.Gf)  # horizontal on vertical
        out[..., n:n + n1, n:n + n1, n:n + n1] = np.einsum("...sab->...abs", self.cartan_up(1))
        out[..., n + n1:, n + n1:, n + n1:] = np.einsum("...gab->...abg", self.cartan_up(2))
        # mixed vertical pairs and vertical-on-horizontal rows stay zero
        return _read_only(out)

    def levi_civita_block_residuals(self) -> dict:
        """Koszul minus closed form per ordered input-family pair ``"A.B"``:
        the frame vectors nabla_{e_a} e_b for a in family A and b in family B,
        the closed form being the transcription :func:`_levi_civita_closed_table`."""
        n, n1 = self.n, self.n1
        diff = self.koszul - _levi_civita_closed_table(self)
        slots = dict(zip(FAMILIES, (slice(0, n1), slice(n1, n), slice(n, n + n1),
                                    slice(n + n1, 2 * n))))
        return {f"{a}.{b}": diff[..., sa, sb, :]
                for a, sa in slots.items() for b, sb in slots.items()}

    def vaisman_axiom_residuals(self) -> dict:
        """Residual tensors of the three defining conditions of :attr:`vaisman`,
        a tuple of them per condition."""
        n = self.n
        table = self.vaisman
        # (i) distribution preservation: outputs stay in the input field's bundle.
        pres = (table[..., :, :n, n:], table[..., :, n:, :n])
        # (ii) metric parallelism on all-horizontal and all-vertical triples.
        dmet = self.metric_derivative(table)
        par = (dmet[..., :n, :n, :n], dmet[..., n:, n:, n:])
        # (iii) torsion projections: vertical part unless both fields are
        # horizontal, horizontal part unless both are vertical.
        t = self.torsion(table)
        tor = (t[..., n:, :, n:], t[..., :, n:, n:], t[..., :n, :, :n], t[..., :, :n, :n])
        return {"preservation": pres, "parallelism": par, "torsion": tor}

    def reinhart_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The Reinhart defect and its factor-Cartan closed form, both [a, b, c].

        Entry [a, b, c] is the value on the vertical basis field a and the
        horizontal basis fields b, c.  The defect (nabla_X G)(Y, Z) comes from
        the Vaisman table; the closed form from the factor Cartan tensors.
        """
        n, n1 = self.n, self.n1
        defect = self.metric_derivative(self.vaisman)[..., n:, :n, :n]
        (f1, f2), (w1, w2) = self.factors, self.warps_sq
        identity = np.zeros(self.lead + (n, n, n))
        identity[..., :n1, :n1, :n1] = scalar_axes(2.0 * w2, 3) * f1.cartan()
        identity[..., n1:, n1:, n1:] = scalar_axes(2.0 * w1, 3) * f2.cartan()
        return defect, identity

    def symplectic_table(self) -> np.ndarray:
        """Omega(e_A, e_B) = G(e_A, J e_B) over all frame pairs [A, B]."""
        p, s = ComplexStructure(self.n1, self.n2).signed_permutation()
        return self.metric[..., p] * s

    def closedness(self) -> tuple[np.ndarray, np.ndarray]:
        """d(Omega) = 0 from exact jet partials, over the increasing coordinate
        triples, and the potential test, as the pair of their residual tables.

        Over the coordinate basis (base coords then fiber coords) Omega is
        [[gN - N^T g, g], [-g, 0]].  Its partial along each coordinate z takes
        d_z g and d_z N from one gradient of the engine's g and N jets, the same
        jets the adapted derivatives of delta_g and the bracket curvature use.

        The potential test rebuilds Omega from the exterior derivative of the
        canonical one-form (half the fiber gradient of the squared norm); with
        the orientation d(w_a dz^a)(U,V) = U w(V) - V w(U) the almost-symplectic
        form equals minus that derivative.
        """
        n, lead = self.n, self.lead
        zs = self.coords
        m = len(zs)
        i = np.arange(m)
        increasing = (i[:, None, None] < i[None, :, None]) & (i[None, :, None] < i[None, None, :])
        ep = self.product
        g = ep.g_values()
        N = ep.nonlinear_connection_values()
        # Omega plus the exterior derivative of the canonical one-form: the
        # +-g blocks cancel identically, the base-base blocks must cancel too.
        mixed = ep.F2_base_fiber_values()
        potential = g @ N - N.swapaxes(-1, -2) @ g + 0.5 * (mixed - mixed.swapaxes(-1, -2))
        # grads[..., z] = d_z Omega, exactly; dg[..., z] = d_z g, dN[..., z] = d_z N,
        # read off g and N restricted to their first partials.
        dg, dN = (np.moveaxis(jet.restrict(jet.seeds, min(jet.order, 1)).grad(zs).value,
                              -1, len(lead))
                  for jet in (ep.g(), ep.nonlinear_connection()))
        dgN = np.einsum("...zab,...bc->...zac", dg, N) + np.einsum("...ab,...zbc->...zac", g, dN)
        grads = np.zeros(lead + (m, m, m))
        grads[..., :, :n, :n] = dgN - np.einsum("...zac->...zca", dgN)
        grads[..., :, :n, n:] = dg
        grads[..., :, n:, :n] = -dg
        cyclic = (grads - np.einsum("...bac->...abc", grads)
                  + np.einsum("...cab->...abc", grads))
        return cyclic[..., increasing], potential

    @cached_property
    def nijenhuis_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Integrability obstruction of J over all frame pairs, by two routes.

        The first table is assembled from the closed-form components (built
        from the bracket curvature alone); the second evaluates the defining
        bracket combination [JX,JY] - J[JX,Y] - J[X,JY] - [X,Y] directly.  Both
        are built once and shared read-only by the ``nijenhuis`` and ``kahler``
        suites.
        """
        # On basis fields X = e_A, Y = e_B, with J e_A = s(A) e_{p(A)} and the
        # bracket bilinear over constant frame components: each term is one
        # entry of br, gathered through p and scaled by signs.  The gathers'
        # temporaries are freed before the closed table is allocated.
        p, s = ComplexStructure(self.n1, self.n2).signed_permutation()
        br = self.br
        sa, sb, sk = s[:, None, None], s[:, None], s[p]
        direct = br[..., p[:, None], p, :] * (sa * sb)            # [JX, JY]
        direct -= br[..., p, :, :][..., p] * (sa * sk)             # J[JX, Y]
        direct -= br[..., :, p[:, None], p] * (sb * sk)            # J[X, JY]
        direct -= br
        n = self.n
        m = 2 * n
        Rb = np.einsum("...kab->...abk", self.Rb)
        closed = np.zeros(self.lead + (m, m, m))
        closed[..., :n, :n, n:] = -Rb                            # horizontal pair
        closed[..., n:, n:, n:] = Rb                             # vertical pair
        closed[..., :n, n:, :n] = -Rb                            # mixed pair
        closed[..., n:, :n, :n] = np.einsum("...abk->...bak", Rb)
        return _read_only(closed), _read_only(direct)


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


# ---------------------------------------------------------------------------
# The closed-form Levi-Civita table
# ---------------------------------------------------------------------------

def _levi_civita_closed_table(lp: _LiftedPoint) -> np.ndarray:
    """The transcribed component table of the Levi-Civita connection.

    Built from the engine's Rb, Gf, Fh, dg and the factor tensors only, never
    from the frame arrays the Koszul solve uses.

    Index letters: i, j, k, s run over the first factor; a, b run over all n
    base slots, or over the second factor where a block is confined to it;
    m, g run over the second factor.  ``G1``/``G2`` and ``R1``/``R2`` are Gf
    and Rb with the upper index lowered by the first/second factor metric:
    G1[a, b, k] = g1_rk Gf^r_ab.  Every slice and contraction leads with
    ``...``, the sample axis of a strip.
    """
    n, n1 = lp.n, lp.n1
    f1, f2 = lp.factors
    g1, g2 = f1.g_values(), f2.g_values()
    g1inv, g2inv = f1.ginv_values(), f2.ginv_values()
    w1, w2 = lp.warps_sq
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


# ---------------------------------------------------------------------------
# Almost complex structure, symplectic form, integrability
# ---------------------------------------------------------------------------

class ComplexStructure:
    """J: horizontal -> minus vertical, vertical -> horizontal.

    On the adapted frame J is a signed permutation, J e_a = s(a)·e_{p(a)}, with
    p(a) = (a + n) mod 2n and s(a) = -1 for a horizontal field, +1 for a
    vertical one.  p is its own inverse, so the components of JX are
    (JX)^k = s(p(k))·X^{p(k)}.
    """

    __slots__ = ("n1", "n2")

    def __init__(self, n1: int, n2: int):
        self.n1, self.n2 = n1, n2

    def signed_permutation(self) -> tuple[np.ndarray, np.ndarray]:
        """The permutation p and the signs s, each indexed by the frame slot a."""
        n = self.n1 + self.n2
        return (np.arange(2 * n) + n) % (2 * n), np.repeat([-1.0, 1.0], n)

    def matrix(self) -> np.ndarray:
        p, s = self.signed_permutation()
        m = len(p)
        out = np.zeros((m, m))
        out[p, np.arange(m)] = s
        return out
