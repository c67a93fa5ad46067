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
the Koszul solve on every configuration.  Each of its factor blocks is one
expression over the frame slots of a factor t and of the other factor o,
evaluated with t = 1 and with t = 2, as in :mod:`dwfinsler.closed_forms`.
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
    It keeps the work point's product engine point, its two sides and its
    coordinates, not the work point, which it would otherwise keep alive.
    """

    def __init__(self, wp: WorkPoint):
        cfg = wp.cfg
        self.n1, self.n2 = cfg.n1, cfg.n2
        n = self.n = cfg.n
        lead = self.lead = wp.lead
        ep = self.product = wp.product
        self.sides = wp.sides
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

    # The two connection tables, and the Vaisman table's metric derivative,
    # are built once per point and shared read-only.
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
        s1, s2 = self.sides
        out[..., n:n + n1, n:n + n1, n:n + n1] = np.einsum("...sab->...abs", s1.C_up)
        out[..., n + n1:, n + n1:, n + n1:] = np.einsum("...gab->...abg", s2.C_up)
        # mixed vertical pairs and vertical-on-horizontal rows stay zero
        return _read_only(out)

    @cached_property
    def vaisman_metric_derivative(self) -> np.ndarray:
        """:meth:`metric_derivative` of :attr:`vaisman`, read by its axioms
        and by the Reinhart defect."""
        return _read_only(self.metric_derivative(self.vaisman))

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
        dmet = self.vaisman_metric_derivative
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
        defect = self.vaisman_metric_derivative[..., n:, :n, :n]
        s1, s2 = self.sides
        identity = np.zeros(self.lead + (n, n, n))
        identity[..., :n1, :n1, :n1] = scalar_axes(2.0 * s2.fsq, 3) * s1.C
        identity[..., n1:, n1:, n1:] = scalar_axes(2.0 * s1.fsq, 3) * s2.C
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

    Each factor block is written once, for a factor t and the other factor o,
    and evaluated with t = 1 and t = 2: ``ht``/``ho`` and ``vt``/``vo`` are the
    horizontal and vertical frame slots of t and o, ``st``/``so`` their sides
    (:class:`~dwfinsler.engine.Side`) and ``wt``/``wo`` their squared warps.
    Index letters: k, s, j, i run over t; m, g over o; a, b over all n base
    slots, or over o where a block is confined to it.
    ``G[t]`` and ``R[t]`` are Gf and Rb with the upper index lowered by factor
    t's metric: G[t][a, b, k] = g_rk Gf^r_ab.  Every slice and contraction
    leads with ``...``, the sample axis of a strip.
    """
    n, n1 = lp.n, lp.n1
    Rb, Gf, Fh, dg = lp.Rb, lp.Gf, lp.Fh, lp.dg
    h = {1: slice(0, n1), 2: slice(n1, n)}
    v = {1: slice(n, n + n1), 2: slice(n + n1, 2 * n)}
    side = dict(zip(h, lp.sides))
    G, R = ({t: np.einsum("...rab,...rk->...abk", T[..., h[t], :, :], s.g)
             for t, s in side.items()} for T in (Gf, Rb))
    out = np.zeros(lp.lead + (2 * n, 2 * n, 2 * n))
    out[..., :n, :n, :n] = np.einsum("...kab->...abk", Fh)
    out[..., :n, :n, n:] = 0.5 * np.einsum("...kab->...abk", Rb)
    for t, o in ((1, 2), (2, 1)):
        ht, ho, vt, vo, st, so = h[t], h[o], v[t], v[o], side[t], side[o]
        wt, wo = scalar_axes(st.fsq, 3), scalar_axes(so.fsq, 3)
        Cu = np.einsum("...sij->...ijs", st.C_up)

        # Horizontal-horizontal inputs of t pick up its Cartan term.
        out[..., ht, ht, vt] -= Cu

        # Horizontal input a, vertical field j of t.
        out[..., :n, vt, ht] = 0.5 * np.einsum("...kaj,...ks->...ajs", R[t][..., ht, :, :],
                                               st.ginv)
        out[..., ht, vt, ht] += Cu
        out[..., :n, vt, ho] = (wo / (2.0 * wt)
                                * np.einsum("...maj,...gm->...ajg", R[t][..., ho, :, :], so.ginv))
        inner = (np.einsum("...jka->...ajk", dg[..., ht, ht, :]) / wo
                 + G[t][..., :, ht, :] - np.einsum("...akj->...ajk", G[t][..., :, ht, :]))
        out[..., :n, vt, vt] = 0.5 * np.einsum("...ajk,...ks->...ajs", inner, st.ginv)
        inner = wt * G[o][..., :, ht, :] - wo * np.einsum("...amj->...ajm", G[t][..., :, ho, :])
        out[..., :n, vt, vo] = np.einsum("...ajm,...gm->...ajg", inner, so.ginv) / (2.0 * wt)

        # Vertical-vertical inputs, both of t.
        inner = (np.einsum("...kji->...ijk", G[t][..., ht, ht, :])
                 + np.einsum("...kij->...ijk", G[t][..., ht, ht, :])
                 - dg[..., ht, ht, ht] / wo)
        out[..., vt, vt, ht] = 0.5 * np.einsum("...ijk,...ks->...ijs", inner, st.ginv)
        inner = (wo * (np.einsum("...mji->...ijm", G[t][..., ho, ht, :])
                       + np.einsum("...mij->...ijm", G[t][..., ho, ht, :]))
                 - dg[..., ht, ht, ho])
        out[..., vt, vt, ho] = np.einsum("...ijm,...gm->...ijg", inner, so.ginv) / (2.0 * wt)
        out[..., vt, vt, vt] = Cu

        # Vertical-vertical inputs of o and t, onto t (symmetric, bracket-free).
        inner = (wt * np.einsum("...kja->...ajk", G[o][..., ht, ht, :])
                 + wo * np.einsum("...kaj->...ajk", G[t][..., ht, ho, :]))
        out[..., vo, vt, ht] = np.einsum("...ajk,...ks->...ajs", inner, st.ginv) / (2.0 * wo)
        out[..., vt, vo, ht] = np.einsum("...ajk->...jak", out[..., vo, vt, ht])

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
