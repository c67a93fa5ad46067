"""Dense tensors over the combined index a in {0..n1+n2-1} with factor blocks,
and the per-sample array helpers of tensors that lead with a sample axis."""

from __future__ import annotations

import numpy as np


class BlockTensor:
    """A rank 0-4 tensor over the combined index, tagged with slot variances.

    Indices 0..n1-1 address the first factor, n1..n1+n2-1 the second
    (:func:`dwfinsler.closed_forms.block_ranges` slices the factor blocks).
    """

    __slots__ = ("array", "variance", "n1", "n2")

    def __init__(self, array: np.ndarray, variance: tuple[str, ...], n1: int, n2: int):
        rank = len(variance)
        if (array.shape != (n1 + n2,) * rank or rank > 4
                or variance.count("up") + variance.count("low") != rank):
            if array.ndim != rank:
                raise ValueError("variance tags must match the tensor rank")
            if rank > 4:
                raise ValueError("supported ranks are 0..4")
            if any(v not in ("up", "low") for v in variance):
                raise ValueError("variance tags must be 'up' or 'low'")
            raise ValueError("every axis must span the combined index")
        self.array, self.variance, self.n1, self.n2 = array, variance, n1, n2

    def __repr__(self) -> str:
        return (f"BlockTensor(rank={self.array.ndim}, variance={self.variance}, "
                f"n1={self.n1}, n2={self.n2})")


def max_abs(array: np.ndarray, lead: tuple[int, ...] = ()):
    """The largest |entry| of ``array`` over all but its leading ``lead`` axes:
    one per sample of a batch, a float for a single point.  A NaN anywhere in
    a sample is its result."""
    out = np.abs(array).reshape(lead + (-1,)).max(-1, initial=0.0)
    return out if lead else float(out)


def scalar_axes(x, rank: int) -> np.ndarray:
    """A scalar, or an array of one value per sample, with ``rank`` unit axes
    appended, to scale a tensor of ``rank`` slots sample by sample."""
    return np.asarray(x)[(...,) + (None,) * rank]


def matvec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """matrix @ vector per sample, by the BLAS call of a single sample."""
    return (matrix @ vector[..., None])[..., 0]


def vdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of two vectors per sample, as an array (0-d at one sample)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]
