"""Small dense matrix inversion over floats.

Dimensions here are tiny (metric blocks of size <= n1+n2), so a hand-rolled
partial-pivot Gauss-Jordan with an explicit condition estimate is preferred
over a library call.  :func:`invert_matrix` inverts one matrix on Python
floats; :func:`invert_batch` runs the same elimination over a batch of
matrices as array operations, and gives each matrix the bits, the condition
estimate and the error it would get alone.  Derivatives of an inverse metric
are not carried here: the engine inverts the value matrix and builds the jet
from it (:meth:`dwfinsler.engine.EnginePoint.ginv`).
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMetricError

#: Inverses with a 1-norm condition estimate beyond this are rejected.
CONDITION_LIMIT = 1e12


def _norm1(rows) -> float:
    n = len(rows)
    return max(sum(abs(rows[i][j]) for i in range(n)) for j in range(n))


def invert_matrix(rows, condition_limit: float = CONDITION_LIMIT):
    """Invert a square matrix given as nested sequences of floats.

    Returns ``(inverse_rows, condition_estimate)``.  Raises
    :class:`SingularMetricError` on a zero pivot or when the 1-norm condition
    estimate exceeds ``condition_limit``.
    """
    n = len(rows)
    aug = [[float(t) for t in row] + [1.0 if i == j else 0.0 for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if aug[pivot_row][col] == 0.0:
            raise SingularMetricError(f"singular matrix: zero pivot in column {col}")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv_pivot = 1.0 / aug[col][col]
        aug[col] = [entry * inv_pivot for entry in aug[col]]
        for r in range(n):
            if r == col:
                continue
            factor = aug[r][col]
            if factor == 0.0:
                continue
            aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    inverse = [row[n:] for row in aug]
    cond = _norm1(rows) * _norm1(inverse)
    if cond > condition_limit:
        raise SingularMetricError(
            f"ill-conditioned matrix: condition estimate {cond:.3e} exceeds {condition_limit:.1e}")
    return inverse, cond


def _first_max(values) -> tuple[np.ndarray, np.ndarray]:
    """Per sample, the index and value that Python's ``max`` picks from the
    arrays ``values``: the first of equal values, and a NaN only when first."""
    best, index = values[0], np.zeros(np.shape(values[0]), dtype=int)
    for k, v in enumerate(values[1:], 1):
        take = v > best
        best, index = np.where(take, v, best), np.where(take, k, index)
    return index, best


def _norm1_batch(a: np.ndarray) -> np.ndarray:
    """:func:`_norm1` of every matrix of ``a[m, n, n]``, each column summed
    over its rows from the first."""
    sums = abs(a[:, 0])
    for i in range(1, a.shape[1]):
        sums = sums + abs(a[:, i])
    return _first_max(list(sums.T))[1]


def invert_batch(g0: np.ndarray):
    """Invert every matrix of ``g0[..., n, n]`` as :func:`invert_matrix` does.

    Each matrix gets the same pivots, swaps and operations in the same order,
    so its inverse and condition estimate have the bits of its own inversion.
    Returns ``(inverses[..., n, n], conditions[...])``.  A matrix that fails
    alone fails the batch: the first such one, in C order, raises its error.
    """
    g0 = np.asarray(g0, dtype=float)
    n = g0.shape[-1]
    rows = g0.reshape(-1, n, n)
    m = len(rows)
    samples = np.arange(m)
    aug = np.concatenate([rows, np.broadcast_to(np.eye(n), rows.shape)], axis=-1)
    singular = np.zeros(m, dtype=bool)
    with np.errstate(all="ignore"):
        for col in range(n):
            pivot_row, pivot = _first_max(list(abs(aug[:, col:, col].T)))
            pivot_row += col
            singular |= pivot == 0.0
            row = aug[samples, pivot_row]
            aug[samples, pivot_row] = aug[:, col].copy()
            aug[:, col] = row * (1.0 / row[:, col])[:, None]
            factor = aug[:, :, col, None].copy()
            factor[:, col] = 0.0
            # A zero factor leaves its row as it is, as the loop skips it:
            # a - 0 * b could turn -0.0 into 0.0, or 0 * inf into NaN.
            aug = np.where(factor == 0.0, aug, aug - factor * aug[:, col, None])
        inverse = np.ascontiguousarray(aug[:, :, n:])
        cond = _norm1_batch(rows) * _norm1_batch(inverse)
    failed = np.flatnonzero(singular | (cond > CONDITION_LIMIT))
    if failed.size:
        invert_matrix(rows[failed[0]])  # raises the error of that matrix alone
    return inverse.reshape(g0.shape), cond.reshape(g0.shape[:-2])
