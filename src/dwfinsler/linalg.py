"""Small dense matrix inversion over floats.

Dimensions here are tiny (metric blocks of size <= n1+n2), so a hand-rolled
partial-pivot Gauss-Jordan with an explicit condition estimate is preferred
over a library call.  :func:`invert_matrix` inverts one matrix on Python
floats; :func:`invert_batch` runs the same elimination over a batch of
matrices as array operations, and gives each matrix the bits, the condition
estimate and the error it would get alone.  Derivatives of an inverse metric
are not carried here: the engine inverts the value matrix and builds the jet
from it (:meth:`dwfinsler.engine.EnginePoint.ginv`).

The batch is eliminated as ``aug[row, col, sample]``, the sample axis last,
so each row operation is one contiguous vector over the samples.  Pivots and
the 1-norms of the condition estimate take the first maximum, as Python's
``max`` does: a NaN is picked only where it comes first, since nothing
compares greater than it, and ``argmax`` finds that pick once every later
NaN reads -inf.  Which of two NaN operands a product passes on is not fixed
(CPython 3.11 changes it once it specializes the multiply), so only a NaN's
sign may differ from the single inversion.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMetricError

#: Inverses with a 1-norm condition estimate beyond this are rejected.
CONDITION_LIMIT = 1e12


def _norm1(rows) -> float:
    n = len(rows)
    return max(sum(abs(rows[i][j]) for i in range(n)) for j in range(n))


def invert_matrix(rows):
    """Invert a square matrix given as nested sequences of floats.

    Returns ``(inverse_rows, condition_estimate)``.  Raises
    :class:`SingularMetricError` on a zero pivot or when the 1-norm condition
    estimate exceeds :data:`CONDITION_LIMIT`.
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
    if cond > CONDITION_LIMIT:
        raise SingularMetricError(
            f"ill-conditioned matrix: condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.1e}")
    return inverse, cond


def _nan_first(values: np.ndarray) -> np.ndarray:
    """``values`` with every NaN below its first row made -inf, in place.

    Over axis 0 its ``argmax`` and ``max`` are then the index and value that
    Python's ``max`` picks: the first of equal values, and a NaN only when it
    is first, since no value compares greater than a NaN already picked.
    """
    tail = values[1:]
    tail[np.isnan(tail)] = -np.inf
    return values


def _norm1_columns(a: np.ndarray) -> np.ndarray:
    """:func:`_norm1` of every matrix of ``a[row, col, sample]``: each column
    summed over its rows from row 0 (a reduction over the outer axis adds row
    by row), then the first maximum."""
    return _nan_first(np.abs(a).sum(0)).max(0)


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
    # aug[row, col, sample]: every row operation is one contiguous vector.
    aug = np.zeros((n, 2 * n, m))
    aug[:, :n] = rows.transpose(1, 2, 0)
    aug[range(n), range(n, 2 * n)] = 1.0
    singular = np.zeros(m, dtype=bool)
    with np.errstate(all="ignore"):
        norm = _norm1_columns(aug[:, :n])
        for col in range(n):
            pivot_row = _nan_first(np.abs(aug[col:, col])).argmax(0) + col
            if (pivot_row != col).any():
                row = aug[pivot_row, :, samples]
                aug[pivot_row, :, samples] = aug[col].T
                aug[col] = row.T
            pivot = aug[col, col]
            singular |= pivot == 0.0
            aug[col] *= 1.0 / pivot
            factor = aug[:, col].copy()
            factor[col] = 0.0
            # A zero factor leaves its row as it is, as the loop skips it:
            # a - 0 * b could turn -0.0 into 0.0, or 0 * inf into NaN.
            np.subtract(aug, factor[:, None] * aug[col], out=aug,
                        where=(factor != 0.0)[:, None])
        inverse = aug[:, n:]
        cond = norm * _norm1_columns(inverse)
    failed = np.flatnonzero(singular | (cond > CONDITION_LIMIT))
    if failed.size:
        invert_matrix(rows[failed[0]].tolist())  # raises the error of that matrix alone
    return (np.ascontiguousarray(inverse.transpose(2, 0, 1)).reshape(g0.shape),
            cond.reshape(g0.shape[:-2]))
