"""Dense tensors over the combined index a in {0..n1+n2-1} with factor blocks,
and the per-sample array helpers of tensors that lead with a sample axis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class BlockTensor:
    """A rank 1-4 tensor over the combined index, tagged with slot variances.

    Indices 0..n1-1 address the first factor, n1..n1+n2-1 the second; the
    factor decomposition is recovered with :meth:`block`, whose pattern holds
    one character per slot: '1' for the first factor, '2' for the second.
    """

    array: np.ndarray
    variance: tuple[str, ...]
    n1: int
    n2: int

    def __post_init__(self) -> None:
        if self.array.ndim != len(self.variance):
            raise ValueError("variance tags must match the tensor rank")
        if not 1 <= self.array.ndim <= 4:
            raise ValueError("supported ranks are 1..4")
        if any(v not in ("up", "low") for v in self.variance):
            raise ValueError("variance tags must be 'up' or 'low'")
        n = self.n1 + self.n2
        if any(s != n for s in self.array.shape):
            raise ValueError("every axis must span the combined index")

    @property
    def rank(self) -> int:
        return self.array.ndim

    def block(self, pattern: str) -> np.ndarray:
        """View of the sub-block selected by a per-slot '1'/'2' pattern."""
        if len(pattern) != self.rank or any(ch not in "12" for ch in pattern):
            raise ValueError(f"block pattern {pattern!r} does not match rank {self.rank}")
        slices = tuple(slice(0, self.n1) if ch == "1" else slice(self.n1, self.n1 + self.n2)
                       for ch in pattern)
        return self.array[slices]

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.array)))

    def __repr__(self) -> str:
        return (f"BlockTensor(rank={self.rank}, variance={self.variance}, "
                f"n1={self.n1}, n2={self.n2})")


def max_abs(array: np.ndarray, lead: tuple[int, ...] = ()):
    """The largest |entry| of ``array`` over all but its leading ``lead`` axes:
    one per sample of a batch, a float for a single point.  A NaN anywhere in
    a sample is its result."""
    out = np.max(np.abs(array).reshape(lead + (-1,)), axis=-1, initial=0.0)
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
