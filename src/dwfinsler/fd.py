"""The finite-difference oracle: mixed partials from float evaluations alone.

It checks the jet route (:mod:`dwfinsler.jets`) and shares none of its
arithmetic: a field is only evaluated on plain floats, at shifted points.
The finite differences run on float batches: :func:`fd_stencils` takes
probes as arrays, their points as rows and their directions as positions in
a row, builds the stencils of each order's probes as one coordinate array
(:func:`_fd_stencil`), evaluates the field once on all their points as one
batch, and combines the values of each order's probes at once
(:func:`_fd_combine`).  :func:`fd_partials` hands it ``(point, dirs)``
probes as those arrays, and :func:`fd_partial` is its single probe.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import CapabilityError
from .jets import CoordView, ScalarField
from .metrics import SampleBatch, sample_rows

__all__ = ["fd_partial", "fd_partials", "fd_stencils"]

#: Relative steps per total order; cancellation noise grows like
#: eps / h^order, so higher orders need coarser stencils.
FD_STEPS = {1: 1e-4, 2: 1e-3, 3: 4e-3}


def _fd_stencil(rows: np.ndarray, positions: np.ndarray, step: float):
    """The stencils of probes of one order, as arrays.

    ``rows[P, C]`` holds each probe's point, its coordinates (x, u, y, v) in
    one row, and ``positions[P, k]`` the positions in a row of the probe's k
    directions, outermost first.  Each direction in turn moves every point of
    the stencil so far to four, shifted along it by +h/2, -h/2, +h and -h,
    with h = step * (1 + |coordinate|) read at that point, which earlier
    directions may have shifted.  Returns the stencil points
    ``[P, 4**k, C]``, in the order of the nested central differences, and
    the steps ``h[P, 4**j]`` of each level j, for :func:`_fd_combine`.
    """
    points = np.asarray(rows, dtype=float)[:, None, :]
    probes = np.arange(len(points))
    steps = []
    for at in positions.T:
        coord = points[probes, :, at]
        h = step * (1.0 + abs(coord))
        half = h / 2.0
        shifted = coord[..., None] + np.stack([half, -half, h, -h], axis=-1)
        points = np.repeat(points, 4, axis=1)
        points[probes, :, at] = shifted.reshape(len(points), -1)
        steps.append(h)
    return points, steps


def _fd_combine(values, steps) -> np.ndarray:
    """The estimates ``[P, ...]`` of probes of one order from the values
    ``[P, 4**k, ...]`` of a field at the points of their :func:`_fd_stencil`,
    given its ``steps``.

    Innermost first, the four values around each point become the central
    differences D(s) = (f(+s) - f(-s)) / (2 s) at s = h/2 and h, combined by
    Richardson extrapolation as (4 D(h/2) - D(h)) / 3.
    """
    values = np.asarray(values, dtype=float)
    for h in reversed(steps):
        v = values.reshape(h.shape + (4,) + values.shape[2:])
        h = h.reshape(h.shape + (1,) * (values.ndim - 2))
        values = (4.0 * ((v[:, :, 0] - v[:, :, 1]) / (2.0 * (h / 2.0)))
                  - (v[:, :, 2] - v[:, :, 3]) / (2.0 * h)) / 3.0
    return values[:, 0]


def fd_stencils(evaluate: Callable, groups, n1: int, n2: int) -> list[np.ndarray]:
    """The :func:`fd_partial` estimates of groups of probes, from one evaluation.

    Each group holds probes as two arrays ``(rows, positions)``: ``rows[P, C]``
    each probe's point as one row x + u + y + v of a product of dimensions
    ``n1`` and ``n2`` (or one row for all), and ``positions[P, K]`` the
    positions in a row of each probe's directions, outermost first, padded
    with -1 after the last.  The probes of each order form one stencil
    array (:func:`_fd_stencil`), with that order's step from
    :data:`FD_STEPS`; ``evaluate`` is handed the points of every stencil as
    one :class:`~dwfinsler.metrics.SampleBatch` and returns their values
    along a leading axis (floats, or arrays of one shape).  Returns the
    estimates ``[P, ...]`` of each group, in the order of its probes
    (:func:`_fd_combine`).
    """
    stencils = []
    for g, (rows, positions) in enumerate(groups):
        rows = np.broadcast_to(rows, (len(positions), np.shape(rows)[-1]))
        orders = (positions >= 0).sum(1)
        for k in sorted(set(orders.tolist())):
            if k > 3:
                raise CapabilityError("finite differences support total order <= 3")
            mine = orders == k
            stencils.append((g, mine) + _fd_stencil(rows[mine], positions[mine, :k],
                                                    FD_STEPS[max(k, 1)]))
    if not stencils:
        return [np.zeros(0) for _ in groups]
    values = np.asarray(evaluate(SampleBatch.stacked(
        np.concatenate([points.reshape(-1, points.shape[-1]) for *_, points, _ in stencils]),
        n1, n2)), dtype=float)
    out = [np.empty((len(positions),) + values.shape[1:]) for _, positions in groups]
    start = 0
    for g, mine, points, steps in stencils:
        size = points.shape[0] * points.shape[1]
        out[g][mine] = _fd_combine(values[start:start + size].reshape(
            points.shape[:2] + values.shape[1:]), steps)
        start += size
    return out


def fd_partials(evaluate: Callable, probes) -> list:
    """The :func:`fd_partial` estimates of many probes, ``(point, dirs)``
    pairs, from one evaluation, in the order of ``probes``: one group of
    :func:`fd_stencils`, each probe's directions nested in sorted order.
    A direction outside the point's dimensions raises ``ValueError``.  No
    probes give no estimates.
    """
    if not probes:
        return []
    first = probes[0][0]
    n1, n2 = len(first.x), len(first.u)
    start = (0, n1, n1 + n2, 2 * n1 + n2)  # of each coordinate block in a row
    dims = (n1, n2, n1, n2)
    dirs = [sorted(d) for _, d in probes]
    positions = np.full((len(probes), max(map(len, dirs))), -1)
    for row, d in zip(positions, dirs):
        for j, c in enumerate(d):
            if c.offset >= dims[c.block]:
                raise ValueError(f"direction {c!r} is not a coordinate of a point of "
                                 f"dimensions ({n1}, {n2})")
            row[j] = start[c.block] + c.offset
    rows = sample_rows([p for p, _ in probes])
    return list(fd_stencils(evaluate, [(rows, positions)], n1, n2)[0])


def fd_partial(field: ScalarField, point, dirs):
    """Central-difference mixed partial with Richardson extrapolation.

    Independent of the jet path by construction: only plain float
    evaluations of ``field`` at shifted points are used, on every point of
    the stencil at once, as one batch (:func:`fd_partials`).  So the field
    must act on its coordinates entry by entry, as the metric fields do:
    numpy functions, not ``math`` ones, and no branch on a value.  A field
    may return an array of components, each with the stencil axis last, as
    an array of coordinate expressions has it; the result is then an array
    of the components' shape.  The field is also evaluated once at ``point``
    itself, for the shape of its components: a result of that shape on the
    stencil is constant over it.  Total order is capped at 3, beyond which
    cancellation noise dominates.
    """
    def evaluate(batch):
        out = np.asarray(field(CoordView(batch)), dtype=float)
        if out.shape == shape:
            out = np.broadcast_to(out[..., None], shape + (len(batch),))
        elif out.shape != shape + (len(batch),):
            raise ValueError(
                f"fd_partial: the field gives shape {out.shape} on a stencil of "
                f"{len(batch)} points and {shape} at one point")
        return np.moveaxis(out, -1, 0)

    shape = np.shape(field(CoordView(point)))
    return fd_partials(evaluate, [(point, dirs)])[0]
