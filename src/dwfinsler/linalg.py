"""Small dense matrix inversion over floats, with a condition estimate.

:func:`invert` inverts one matrix or a stack of them with ``np.linalg.inv``,
which runs LAPACK's LU factorization with partial pivoting on each matrix of
the stack alone, so a matrix has the same bits in a stack as on its own.
Every inverse comes with the 1-norm condition estimate
``|g|_1 |g^-1|_1``, and a matrix that is exactly singular or whose estimate
exceeds :data:`CONDITION_LIMIT` is rejected.  Derivatives of an inverse
metric are not carried here: the engine inverts the value matrix and builds
the jet from it (:meth:`dwfinsler.engine.EnginePoint.ginv`).
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMetricError

#: Inverses with a 1-norm condition estimate beyond this are rejected.
CONDITION_LIMIT = 1e12


def _each_alone(g0: np.ndarray):
    """The inverse of each matrix of ``g0[..., n, n]`` on its own, and which
    of them LAPACK rejects (NaN in their place)."""
    n = g0.shape[-1]
    inverse = np.full(g0.shape, np.nan)
    rejected = np.zeros(g0.shape[:-2], dtype=bool)
    for k, (mat, out) in enumerate(zip(g0.reshape(-1, n, n), inverse.reshape(-1, n, n))):
        try:
            out[...] = np.linalg.inv(mat)
        except np.linalg.LinAlgError:
            rejected.flat[k] = True
    return inverse, rejected


def _norm1(a: np.ndarray) -> np.ndarray:
    """The 1-norm of each matrix of ``a[..., n, n]``: its largest column sum
    of absolute values, each column summed from row 0."""
    return np.maximum.reduce(np.add.reduce(np.abs(a), -2), -1)


def invert(g0):
    """Invert every matrix of ``g0[..., n, n]``.

    Returns ``(inverses[..., n, n], conditions[...])``, the condition
    estimate a float for a single matrix.  A matrix with a NaN entry gets an
    inverse and an estimate of NaN, and no error.  Raises
    :class:`SingularMetricError` for the first matrix in C order that is
    exactly singular or whose estimate exceeds :data:`CONDITION_LIMIT`.
    """
    g0 = np.asarray(g0, dtype=float)
    try:
        inverse, rejected = np.linalg.inv(g0), np.zeros(g0.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        inverse, rejected = _each_alone(g0)
    with np.errstate(all="ignore"):
        norm = _norm1(g0)
        cond = norm * _norm1(inverse)
    # A rejected matrix has a NaN inverse, so only a NaN or a large estimate
    # needs a closer look.
    if not (cond <= CONDITION_LIMIT).all():
        nan = np.isnan(norm)
        inverse[nan] = np.nan
        failed = np.flatnonzero(~nan & (rejected | (cond > CONDITION_LIMIT)))
        if failed.size:
            k = failed[0]
            if rejected.flat[k]:
                raise SingularMetricError("singular matrix: zero pivot in its LU factorization")
            raise SingularMetricError(f"ill-conditioned matrix: condition estimate "
                                      f"{cond.flat[k]:.3e} exceeds {CONDITION_LIMIT:.1e}")
    return inverse, float(cond) if g0.ndim == 2 else cond
