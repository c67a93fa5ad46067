"""Declarative factor metrics, warp functions and the doubly warped product.

A product configuration is the single source of geometric truth: two factor
Finsler metrics, two warp functions, and the squared-norm field

    F^2(x, u, y, v) = f2^2(u) * F1^2(x, y) + f1^2(x) * F2^2(u, v),

evaluated generically over floats or jets, for one point or for a batch of
points (:class:`SampleBatch`), whose coordinates are arrays of one value per
sample.  A definition acts on each sample alone: its checks hold for every
sample of a batch.

The specs, the samples and the configuration are immutable values
(:class:`~dwfinsler.coords.Value`) that the engine holds as keys; their
constructors reject non-finite parameters.  A batch is a plain record.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .coords import CoordIndex, Value, base_coords, fiber_coords
from .errors import DomainError, MetricDefinitionError, SlitConditionError
from .jets import Jet, exp, sqrt
from .linalg import invert

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

def _require_dimension(dim) -> None:
    """A factor dimension is an integer of at least 1 (a bool is not)."""
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise MetricDefinitionError(f"factor dimension must be an integer >= 1, got {dim!r}")


class EuclideanFactor(Value):
    """F^2 = sum of squared fiber components."""

    __slots__ = ("dim",)
    is_riemannian = True

    def __init__(self, dim: int):
        _require_dimension(dim)
        self._init(dim)

    def f_squared(self, pos, fib):
        acc = 0.0
        for t in fib:
            acc = acc + t * t
        return acc


class QuadraticFactor(Value):
    """Riemannian metric with polynomial entries a_ij(pos), F^2 = a_ij y^i y^j.

    Positive definiteness is checked lazily at every evaluated point (leading
    principal minors), at each sample of a batch; declarative entries cannot
    be verified globally.
    """

    __slots__ = ("dim", "entries")
    is_riemannian = True

    def __init__(self, dim: int, entries: tuple[tuple[PolyTerms, ...], ...]):
        _require_dimension(dim)
        if len(entries) != dim or any(len(r) != dim for r in entries):
            raise MetricDefinitionError("entry matrix must be dim x dim")
        for i in range(dim):
            for j in range(i, dim):
                if entries[i][j] != entries[j][i]:
                    raise MetricDefinitionError("entry matrix must be symmetric")
        self._init(dim, entries)

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


class RandersFactor(Value):
    """Randers metric F = alpha + beta: Riemannian norm plus a constant one-form."""

    __slots__ = ("dim", "base", "b")

    def __init__(self, dim: int, base: EuclideanFactor | QuadraticFactor,
                 b: tuple[float, ...]):
        _require_dimension(dim)
        if not isinstance(base, (EuclideanFactor, QuadraticFactor)):
            raise MetricDefinitionError("Randers base must be Riemannian (Euclidean or quadratic)")
        if base.dim != dim or len(b) != dim:
            raise MetricDefinitionError("Randers base and one-form must match the dimension")
        if not all(map(math.isfinite, b)):
            raise MetricDefinitionError("Randers one-form components must be finite")
        self._init(dim, base, b)
        norm_sq = np.max(self._b_norm_sq((0.0,) * dim))
        if not norm_sq < 1.0:
            raise MetricDefinitionError(f"Randers one-form must have norm < 1 (|b|^2 = {norm_sq})")

    @property
    def is_riemannian(self) -> bool:
        """Only in dimension 1, where F^2 is quadratic on each half-line and
        the Cartan tensor vanishes."""
        return self.dim == 1

    def _b_norm_sq(self, pos):
        """The squared base norm b^i a^ij b_j of the one-form, at each sample
        of ``pos``: the base matrices of all samples inverted as one stack
        (:func:`~dwfinsler.linalg.invert`), each with the bits of its own
        inversion, and the products summed in (i, j) order, as at a single
        sample."""
        if isinstance(self.base, EuclideanFactor):
            return sum(t * t for t in self.b)
        samples = np.array(_each_sample(pos))
        mat = np.empty((len(samples), self.dim, self.dim))
        for i, row in enumerate(self.base.matrix(tuple(samples.T))):
            for j, entry in enumerate(row):
                mat[:, i, j] = entry
        inv, _ = invert(mat)
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


class CustomFactor(Value):
    """Escape hatch: a caller-supplied smooth squared-norm evaluator.

    ``evaluator(pos, fib)`` receives floats or jets for one point, and arrays
    or jets with a leading sample axis for a batch (the battery's strips and
    side points, and every finite-difference stencil): it must act on each
    entry alone, as arithmetic and :func:`dwfinsler.jets.sqrt`/``exp`` do,
    and not branch on or reduce over the values it is handed.  Two custom
    factors are equal only if they are one object.
    """

    __slots__ = ("dim", "evaluator", "is_riemannian")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, dim: int, evaluator: Callable, is_riemannian: bool = False):
        _require_dimension(dim)
        self._init(dim, evaluator, is_riemannian)

    def f_squared(self, pos, fib):
        return self.evaluator(pos, fib)


FactorMetricSpec = EuclideanFactor | QuadraticFactor | RandersFactor | CustomFactor


# ---------------------------------------------------------------------------
# Warp functions
# ---------------------------------------------------------------------------

class ConstantWarp(Value):
    __slots__ = ("value",)

    def __init__(self, value: float = 1.0):
        if not (math.isfinite(value * value) and value > 0.0):
            raise MetricDefinitionError("constant warp must be positive, with a finite square")
        self._init(value)

    @property
    def is_constant(self) -> bool:
        return True

    def f_squared(self, pos):
        return self.value * self.value


class PolyQuadraticWarp(Value):
    """f^2 = 1 + sum_i a_i * pos_i^2 with a_i >= 0; a value of f^2 that
    overflows is a :class:`~dwfinsler.errors.DomainError`."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[float, ...]):
        if not all(math.isfinite(a) and a >= 0.0 for a in coeffs):
            raise MetricDefinitionError(
                "poly-quadratic warp coefficients must be finite and >= 0")
        self._init(coeffs)

    @property
    def is_constant(self) -> bool:
        return all(a == 0.0 for a in self.coeffs)

    def f_squared(self, pos):
        with np.errstate(over="ignore", invalid="ignore"):
            acc = 1.0
            for a, t in zip(self.coeffs, pos):
                if a:
                    acc = acc + a * t * t
        value = acc.value if isinstance(acc, Jet) else acc
        if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
            raise DomainError("poly-quadratic warp f^2 overflows at the evaluated point")
        return acc


class ExponentialWarp(Value):
    """f^2 = exp(2 * rate * pos_axis)."""

    __slots__ = ("rate", "axis")

    def __init__(self, rate: float, axis: int = 0):
        if not math.isfinite(rate):
            raise MetricDefinitionError("exponential warp rate must be finite")
        if isinstance(axis, bool) or not isinstance(axis, int) or axis < 0:
            raise MetricDefinitionError(
                f"exponential warp axis must be an integer >= 0, got {axis!r}")
        self._init(rate, axis)

    @property
    def is_constant(self) -> bool:
        return self.rate == 0.0

    def f_squared(self, pos):
        return exp(2.0 * self.rate * pos[self.axis])


WarpSpec = ConstantWarp | PolyQuadraticWarp | ExponentialWarp


# ---------------------------------------------------------------------------
# Tangent-bundle points
# ---------------------------------------------------------------------------

class TangentSample(Value):
    """A point (x, u, y, v) of the slit bundle, each group a tuple of finite
    floats; both fiber vectors nonzero."""

    __slots__ = ("x", "u", "y", "v")

    def __init__(self, x: Sequence[float], u: Sequence[float],
                 y: Sequence[float], v: Sequence[float]):
        groups = tuple(tuple(map(float, g)) for g in (x, u, y, v))
        for name, group in zip("xuyv", groups):
            if not all(map(math.isfinite, group)):
                raise MetricDefinitionError(f"sample coordinates {name} must be finite: {group}")
        _require_slit([groups[2]], [groups[3]])
        self._init(*groups)

    @classmethod
    def _of_rows(cls, rows: np.ndarray, n1: int, n2: int) -> list["TangentSample"]:
        """The samples of the float rows ``rows[m, 2 (n1 + n2)]``, one sample's
        x, u, y, v per row, checked as one by one but built from the rows'
        floats without converting each again."""
        n = n1 + n2
        for fiber in (rows[:, n:n + n1], rows[:, n + n1:]):
            # As in SampleBatch: only a fiber with no entry of size SLIT_FLOOR
            # or more can have a smaller norm.
            _require_slit(fiber[np.abs(fiber).max(-1) < SLIT_FLOOR].tolist(), ())
        out = []
        for r in rows.tolist():
            sample = cls.__new__(cls)
            sample._init(tuple(r[:n1]), tuple(r[n1:n]), tuple(r[n:n + n1]), tuple(r[n + n1:]))
            out.append(sample)
        return out

    def coord(self, ci: CoordIndex) -> float:
        group = (self.x, self.u, self.y, self.v)[ci.block]
        return group[ci.offset]


def _require_slit(ys, vs) -> None:
    """Each fiber vector of ``ys`` and ``vs`` (sequences of float tuples)
    stays away from the zero section."""
    if any(math.hypot(*t) < SLIT_FLOOR for fibers in (ys, vs) for t in fibers):
        raise SlitConditionError(
            "fiber vectors must stay away from the zero section (slit condition)")


def sample_rows(samples: Sequence[TangentSample]) -> np.ndarray:
    """[m, 2 (n1 + n2)] = each sample's coordinates x + u + y + v as one row."""
    return np.array([s.x + s.u + s.y + s.v for s in samples])


class SampleBatch:
    """Points of the slit bundle evaluated as one: each coordinate of x, u, y
    and v is an array of one value per sample.

    The engine reads a batch as one point whose tensors have a leading axis
    over the samples.  Every sample is checked as a :class:`TangentSample`
    is; a batch is not a cache key.
    """

    __slots__ = ("x", "u", "y", "v")

    def __init__(self, x: Sequence[np.ndarray], u: Sequence[np.ndarray],
                 y: Sequence[np.ndarray], v: Sequence[np.ndarray]):
        self.x, self.u, self.y, self.v = (tuple(np.array(t, dtype=float) for t in group)
                                          for group in (x, u, y, v))
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
        return cls.stacked(sample_rows(samples), *dims.pop())

    @classmethod
    def stacked(cls, rows: np.ndarray, n1: int, n2: int) -> "SampleBatch":
        """The batch of ``rows[m, 2 (n1 + n2)]``, one sample's x, u, y, v per row."""
        cols = np.asarray(rows, dtype=float).T
        return cls(cols[:n1], cols[n1:n1 + n2], cols[n1 + n2:2 * n1 + n2],
                   cols[2 * n1 + n2:])

    def fiber_scaled(self, lams: Sequence[float]) -> "SampleBatch":
        """Every sample with its fibers y and v multiplied by each of ``lams``
        (the points (x, u, lam y, lam v)), ordered by sample, then scale."""
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

def _check_warp(which: int, warp: WarpSpec, dim: int) -> None:
    """A warp reads the base of its own factor: an exponential warp one of
    its ``dim`` coordinates, a poly-quadratic warp one coefficient each."""
    if isinstance(warp, ExponentialWarp) and warp.axis >= dim:
        raise MetricDefinitionError(
            f"warp {which}: exponential warp axis {warp.axis} is not below "
            f"the factor dimension {dim}")
    if isinstance(warp, PolyQuadraticWarp) and len(warp.coeffs) != dim:
        raise MetricDefinitionError(
            f"warp {which}: a poly-quadratic warp needs {dim} coefficients, "
            f"got {len(warp.coeffs)}")


class ProductConfig(Value):
    """Two factor metrics and two warps; f1 lives on factor 1, f2 on factor 2."""

    __slots__ = ("factor1", "factor2", "warp1", "warp2", "label")

    def __init__(self, factor1: FactorMetricSpec, factor2: FactorMetricSpec,
                 warp1: WarpSpec = ConstantWarp(), warp2: WarpSpec = ConstantWarp(),
                 label: str = "custom"):
        for which, warp, factor in ((1, warp1, factor1), (2, warp2, factor2)):
            _check_warp(which, warp, factor.dim)
        self._init(factor1, factor2, warp1, warp2, label)

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
            raise MetricDefinitionError(
                f"sample dimensions must be x, y: {self.n1} and u, v: {self.n2}")
