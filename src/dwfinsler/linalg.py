"""Small dense matrix inversion over floats.

Dimensions here are tiny (metric blocks of size <= n1+n2), so a hand-rolled
partial-pivot Gauss-Jordan with an explicit condition estimate is preferred
over a library call.  Derivatives of an inverse metric are not carried here:
the engine inverts the value matrix and builds the jet from it
(:meth:`dwfinsler.engine.EnginePoint.ginv`).
"""

from __future__ import annotations

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
