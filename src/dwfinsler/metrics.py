"""Declarative factor metrics, warp functions and the doubly warped product.

A product configuration is the single source of geometric truth: two factor
Finsler metrics, two warp functions, and the squared-norm field

    F^2(x, u, y, v) = f2^2(u) * F1^2(x, y) + f1^2(x) * F2^2(u, v),

evaluated generically over floats or jets, for one point or for a batch of
points (:class:`SampleBatch`), whose coordinates are arrays of one value per
sample.  A definition acts on each sample alone: its checks hold for every
sample of a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .coords import CoordIndex, base_coords, fiber_coords
from .errors import MetricDefinitionError, SlitConditionError
from .jets import Jet, sqrt
from .linalg import invert_batch

#: Fiber vectors with Euclidean norm below this violate the slit condition.
SLIT_FLOOR = 1e-12

# A polynomial in the base coordinates: tuple of (coefficient, exponent tuple).
PolyTerms = tuple[tuple[float, tuple[int, ...]], ...]


def poly_eval(terms: PolyTerms, xs: Sequence) -> object:
    acc = 0.0
    for coeff, exps in terms:
        term = coeff
        for x, e in zip(xs, exps):
            if e:
                term = term * _power(x, e)
        acc = acc + term
    return acc


def _power(x, e: int):
    """``x ** e``; for a value array, Python's ``float ** int`` (a ``pow``
    call) at each entry: numpy's power, and its square, need not give those
    bits."""
    if isinstance(x, np.ndarray):
        return np.array([t ** e for t in x.ravel().tolist()]).reshape(x.shape)
    return x ** e


def _each_sample(values) -> list[list[float]]:
    """The values of floats, value arrays or jets, one list per sample (a
    single list for one point)."""
    cols = np.broadcast_arrays(*(np.asarray(v.value if isinstance(v, Jet) else v, float)
                                 for v in values))
    return np.stack(cols, -1).reshape(-1, len(cols)).tolist()


def _leading_minors_positive(mats: np.ndarray) -> bool:
    """Sylvester's criterion at every matrix of ``mats[m, n, n]``, by Gaussian
    elimination on a copy: each matrix runs the operations it would alone."""
    a = mats.copy()
    n = a.shape[-1]
    with np.errstate(all="ignore"):  # float arithmetic does not warn either
        for k in range(n):
            if np.any(a[:, k, k] <= 0.0):
                return False
            for i in range(k + 1, n):
                f = a[:, i, k] / a[:, k, k]
                for j in range(k, n):
                    a[:, i, j] -= f * a[:, k, j]
    return True


# ---------------------------------------------------------------------------
# Factor metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EuclideanFactor:
    """F^2 = sum of squared fiber components."""

    dim: int

    is_riemannian = True

    def __post_init__(self):
        if self.dim < 1:
            raise MetricDefinitionError("factor dimension must be >= 1")

    def f_squared(self, pos, fib):
        acc = 0.0
        for t in fib:
            acc = acc + t * t
        return acc


@dataclass(frozen=True)
class QuadraticFactor:
    """Riemannian metric with polynomial entries a_ij(pos), F^2 = a_ij y^i y^j.

    Positive definiteness is checked lazily at every evaluated point (leading
    principal minors), at each sample of a batch; declarative entries cannot
    be verified globally.
    """

    dim: int
    entries: tuple[tuple[PolyTerms, ...], ...]

    is_riemannian = True

    def __post_init__(self):
        if self.dim < 1:
            raise MetricDefinitionError("factor dimension must be >= 1")
        if len(self.entries) != self.dim or any(len(r) != self.dim for r in self.entries):
            raise MetricDefinitionError("entry matrix must be dim x dim")
        for i in range(self.dim):
            for j in range(i, self.dim):
                if self.entries[i][j] != self.entries[j][i]:
                    raise MetricDefinitionError("entry matrix must be symmetric")

    def matrix(self, pos):
        """The entries at ``pos``; an entry that overflows is a definition error."""
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                mat = [[poly_eval(self.entries[i][j], pos) for j in range(self.dim)]
                       for i in range(self.dim)]
            finite = bool(np.isfinite(_each_sample(sum(mat, []))).all())
        except OverflowError:
            finite = False
        if not finite:
            raise MetricDefinitionError(
                "quadratic factor entries are not finite at the evaluated point")
        return mat

    def f_squared(self, pos, fib):
        mat = self.matrix(pos)
        n = self.dim
        if not _leading_minors_positive(np.reshape(_each_sample(sum(mat, [])), (-1, n, n))):
            raise MetricDefinitionError(
                "quadratic factor metric is not positive definite at the evaluated point")
        acc = 0.0
        for i in range(self.dim):
            for j in range(self.dim):
                acc = acc + mat[i][j] * fib[i] * fib[j]
        return acc


@dataclass(frozen=True)
class RandersFactor:
    """Randers metric F = alpha + beta: Riemannian norm plus a constant one-form."""

    dim: int
    base: EuclideanFactor | QuadraticFactor
    b: tuple[float, ...]

    is_riemannian = False

    def __post_init__(self):
        if self.base.dim != self.dim or len(self.b) != self.dim:
            raise MetricDefinitionError("Randers base and one-form must match the dimension")
        if np.any(self._b_norm_sq((0.0,) * self.dim) >= 1.0):
            raise MetricDefinitionError(
                "Randers one-form must have Riemannian norm strictly below 1")

    def _b_norm_sq(self, pos):
        """The squared base norm b^i a^ij b_j of the one-form, at each sample
        of ``pos``: the base matrices of all samples inverted as one batch,
        and the products summed in (i, j) order, as at a single sample."""
        if isinstance(self.base, EuclideanFactor):
            return sum(t * t for t in self.b)
        samples = np.array(_each_sample(pos))
        mat = np.empty((len(samples), self.dim, self.dim))
        for i, row in enumerate(self.base.matrix(tuple(samples.T))):
            for j, entry in enumerate(row):
                mat[:, i, j] = entry
        inv, _ = invert_batch(mat)
        return sum(inv[:, i, j] * self.b[i] * self.b[j]
                   for i in range(self.dim) for j in range(self.dim))

    def f_squared(self, pos, fib):
        if isinstance(self.base, QuadraticFactor):
            # Position-dependent base: re-check the smallness of b lazily, at
            # each sample.
            if np.any(self._b_norm_sq(pos) >= 1.0):
                raise MetricDefinitionError(
                    "Randers one-form norm reaches 1 at the evaluated point")
        alpha = sqrt(self.base.f_squared(pos, fib))
        beta = 0.0
        for bi, t in zip(self.b, fib):
            beta = beta + bi * t
        f = alpha + beta
        return f * f


@dataclass(frozen=True, eq=False)
class CustomFactor:
    """Escape hatch: a caller-supplied smooth squared-norm evaluator.

    ``evaluator(pos, fib)`` receives floats or jets for one point, and arrays
    or jets with a leading sample axis for a batch (the battery's strips and
    side points, and every finite-difference stencil): it must act on each
    entry alone, as arithmetic and :func:`dwfinsler.jets.sqrt`/``exp`` do,
    and not branch on or reduce over the values it is handed.
    """

    dim: int
    evaluator: Callable
    is_riemannian: bool = False

    def f_squared(self, pos, fib):
        return self.evaluator(pos, fib)


FactorMetricSpec = EuclideanFactor | QuadraticFactor | RandersFactor | CustomFactor


# ---------------------------------------------------------------------------
# Warp functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantWarp:
    value: float = 1.0

    def __post_init__(self):
        if self.value <= 0.0:
            raise MetricDefinitionError("constant warp must be positive")

    @property
    def is_constant(self) -> bool:
        return True

    def f_squared(self, pos):
        return self.value * self.value


@dataclass(frozen=True)
class PolyQuadraticWarp:
    """f^2 = 1 + sum_i a_i * pos_i^2 with a_i >= 0."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if any(a < 0.0 for a in self.coeffs):
            raise MetricDefinitionError("poly-quadratic warp coefficients must be >= 0")

    @property
    def is_constant(self) -> bool:
        return all(a == 0.0 for a in self.coeffs)

    def f_squared(self, pos):
        acc = 1.0
        for a, t in zip(self.coeffs, pos):
            if a:
                acc = acc + a * t * t
        return acc


@dataclass(frozen=True)
class ExponentialWarp:
    """f^2 = exp(2 * rate * pos_axis)."""

    rate: float
    axis: int = 0

    @property
    def is_constant(self) -> bool:
        return self.rate == 0.0

    def f_squared(self, pos):
        from .jets import exp
        return exp(2.0 * self.rate * pos[self.axis])


WarpSpec = ConstantWarp | PolyQuadraticWarp | ExponentialWarp


# ---------------------------------------------------------------------------
# Tangent-bundle points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TangentSample:
    """A point (x, u, y, v) of the slit bundle; both fiber vectors nonzero."""

    x: tuple[float, ...]
    u: tuple[float, ...]
    y: tuple[float, ...]
    v: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(t) for t in self.x))
        object.__setattr__(self, "u", tuple(float(t) for t in self.u))
        object.__setattr__(self, "y", tuple(float(t) for t in self.y))
        object.__setattr__(self, "v", tuple(float(t) for t in self.v))
        _require_slit([self.y], [self.v])

    def coord(self, ci: CoordIndex) -> float:
        group = (self.x, self.u, self.y, self.v)[ci.block]
        return group[ci.offset]

    def fiber_scaled(self, lam: float) -> "TangentSample":
        return TangentSample(self.x, self.u,
                             tuple(lam * t for t in self.y),
                             tuple(lam * t for t in self.v))

    @property
    def fiber(self) -> tuple[float, ...]:
        """Combined fiber vector (y, v)."""
        return self.y + self.v


def _require_slit(ys, vs) -> None:
    """Each fiber vector of ``ys`` and ``vs`` (sequences of float tuples)
    stays away from the zero section."""
    if any(math.hypot(*t) < SLIT_FLOOR for fibers in (ys, vs) for t in fibers):
        raise SlitConditionError(
            "fiber vectors must stay away from the zero section (slit condition)")


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Points of the slit bundle evaluated as one: each coordinate of x, u, y
    and v is an array of one value per sample.

    The engine reads a batch as one point whose tensors have a leading axis
    over the samples.  Every sample is checked as a :class:`TangentSample`
    is; a batch is not a cache key.
    """

    x: tuple[np.ndarray, ...]
    u: tuple[np.ndarray, ...]
    y: tuple[np.ndarray, ...]
    v: tuple[np.ndarray, ...]

    def __post_init__(self):
        for name in ("x", "u", "y", "v"):
            object.__setattr__(self, name, tuple(np.array(t, dtype=float)
                                                 for t in getattr(self, name)))
        shapes = {t.shape for g in (self.x, self.u, self.y, self.v) for t in g}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            raise MetricDefinitionError("a sample batch needs one value per sample "
                                        "for every coordinate")
        for fibers in (self.y, self.v):
            # A fiber with an entry of size SLIT_FLOOR or more has a norm no
            # smaller: only the others take the check of a single sample.
            near = np.max(np.abs(fibers), axis=0) < SLIT_FLOOR
            _require_slit(zip(*(t[near].tolist() for t in fibers)), ())

    @classmethod
    def of(cls, samples: Sequence[TangentSample]) -> "SampleBatch":
        """The batch of ``samples``, in their order (all of one dimension)."""
        dims = {(len(s.x), len(s.u)) for s in samples}
        if len(dims) != 1:
            raise MetricDefinitionError("the samples of a batch must share their dimensions")
        return cls.stacked(np.array([s.x + s.u + s.y + s.v for s in samples]), *dims.pop())

    @classmethod
    def stacked(cls, rows: np.ndarray, n1: int, n2: int) -> "SampleBatch":
        """The batch of ``rows[m, 2 (n1 + n2)]``, one sample's x, u, y, v per row."""
        cols = np.asarray(rows, dtype=float).T
        return cls(cols[:n1], cols[n1:n1 + n2], cols[n1 + n2:2 * n1 + n2],
                   cols[2 * n1 + n2:])

    def fiber_scaled(self, lams: Sequence[float]) -> "SampleBatch":
        """Every sample with its fiber scaled by each of ``lams``, as
        :meth:`TangentSample.fiber_scaled` does, ordered by sample, then scale."""
        lams = np.asarray(lams, dtype=float)

        def scaled(t):
            return (t[:, None] * lams).ravel()

        def kept(t):
            return np.repeat(t, len(lams))

        return SampleBatch(tuple(map(kept, self.x)), tuple(map(kept, self.u)),
                           tuple(map(scaled, self.y)), tuple(map(scaled, self.v)))

    def __len__(self) -> int:
        return len(self.x[0])

    def coord(self, ci: CoordIndex) -> np.ndarray:
        group = (self.x, self.u, self.y, self.v)[ci.block]
        return group[ci.offset]


# ---------------------------------------------------------------------------
# The doubly warped product
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductConfig:
    """Two factor metrics and two warps; f1 lives on factor 1, f2 on factor 2."""

    factor1: FactorMetricSpec
    factor2: FactorMetricSpec
    warp1: WarpSpec = ConstantWarp()
    warp2: WarpSpec = ConstantWarp()
    label: str = "custom"

    @property
    def n1(self) -> int:
        return self.factor1.dim

    @property
    def n2(self) -> int:
        return self.factor2.dim

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def base(self) -> tuple[CoordIndex, ...]:
        return base_coords(self.n1, self.n2)

    @property
    def fiber(self) -> tuple[CoordIndex, ...]:
        return fiber_coords(self.n1, self.n2)

    def classification(self) -> str:
        c1, c2 = self.warp1.is_constant, self.warp2.is_constant
        if c1 and c2:
            return "product"
        if c1 or c2:
            return "warped"
        return "doubly-warped"

    @property
    def both_riemannian(self) -> bool:
        return self.factor1.is_riemannian and self.factor2.is_riemannian

    # Scalar fields (generic over floats/jets via CoordView duck typing).
    def F2(self, view):
        return (self.warp2.f_squared(view.u) * self.factor1.f_squared(view.x, view.y)
                + self.warp1.f_squared(view.x) * self.factor2.f_squared(view.u, view.v))

    def F1_squared(self, view):
        return self.factor1.f_squared(view.x, view.y)

    def F2_squared(self, view):
        return self.factor2.f_squared(view.u, view.v)

    def warp1_squared(self, view):
        return self.warp1.f_squared(view.x)

    def warp2_squared(self, view):
        return self.warp2.f_squared(view.u)

    def validate_sample(self, p: TangentSample | SampleBatch) -> None:
        if len(p.x) != self.n1 or len(p.y) != self.n1 \
                or len(p.u) != self.n2 or len(p.v) != self.n2:
            raise MetricDefinitionError("sample dimensions do not match the configuration")
