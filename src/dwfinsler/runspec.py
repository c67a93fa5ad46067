"""Run specifications: declarative documents, validation, deterministic sampling.

A run document is a single JSON-compatible tree; nothing outside it affects
results.  :func:`parse_spec` is its one reader: it applies the overrides and
owns the document's shape, and each error names the path of its node.  The
spec constructors of :mod:`dwfinsler.metrics` own the value rules; their
errors are reported at the path of the factor, warp or product they build.
Unknown keys are rejected, and the sampling seed is mandatory so every run
is reproducible.
"""

from __future__ import annotations

import json
import math
import random
import sys

import numpy as np

from .errors import DwfError, SchemaError
from .metrics import (ConstantWarp, EuclideanFactor, PolyQuadraticWarp,
                      ExponentialWarp, ProductConfig, QuadraticFactor,
                      RandersFactor, TangentSample)

RADIUS_FLOOR = 1e-6
RADIUS_CEILING = 1e6
#: Largest factor dimension a document may declare.  Each engine point lifts
#: F^2 by seed support at order 5: a product in the lift spans one factor's
#: coordinates and the other warp's base, at most 18 seeds and C(41, 5) =
#: 749 398 terms at 6 + 6.  The tensors after the lift are of order 3 at most,
#: over the coordinates F^2 reads, up to all 2n = 2(n1 + n2): C(4n + 3, 3)
#: terms per product, 20 825 at 6 + 6.  Both grow fast past the cap, and the
#: first point builds every table it uses.
MAX_FACTOR_DIM = 6
#: Largest sample count a document may ask for.  The drawn samples are held
#: as one list, about 600 B per point on FIX-R (60 MB at the cap), and a
#: FIX-R battery at the cap runs for about a minute; a larger count is a
#: typo, or one that numpy's arrays cannot hold.
MAX_POINTS = 100_000

#: Execution order of the full verification battery.
ALL_SUITES = (
    "homogeneity", "block-structure", "yF=G", "matsumoto-contraction",
    "berwald-blocks", "closed-form-blocks", "lemma41", "con1", "scalar-flag",
    "koszul-vs-closed", "vaisman-axioms", "reinhart", "hermitian", "nijenhuis",
    "kahler", "totally-geodesic", "fd-crosscheck",
)

#: Default tolerance of every check, by name.  A suite's own name is the
#: default key of its entries; dotted names cover entries held to another bound.
DEFAULT_TOLERANCES = {
    "homogeneity": 1e-8,
    "homogeneity.metric": 1e-10,
    "homogeneity.spray": 1e-9,
    "block-structure": 1e-12,
    "block-structure.scaled": 1e-9,
    "block-structure.null": 1e-10,
    "yF=G": 1e-8,
    "matsumoto-contraction": 1e-8,
    "matsumoto-contraction.total": 1e-10,
    "matsumoto-contraction.witness": 1e-4,
    "berwald-blocks": 1e-7,
    "berwald-blocks.symmetry": 1e-10,
    "berwald-blocks.witness": 1e-3,
    "closed-form-blocks": 1e-7,
    "lemma41": 1e-7,
    "lemma41.antisymmetry": 1e-10,
    "con1": 1e-6,
    "scalar-flag": 1e-6,
    "koszul-vs-closed": 1e-7,
    "vaisman-axioms": 1e-8,
    "reinhart": 1e-10,
    "reinhart.identity": 1e-8,
    "hermitian": 1e-10,
    "hermitian.antisymmetry": 1e-12,
    "nijenhuis": 1e-7,
    "nijenhuis.skew": 1e-10,
    "kahler": 1e-7,
    "totally-geodesic": 1e-7,
    "fd-crosscheck": 1e-5,
}


class Sampling:
    """The seed, the number of points, one (lo, hi) per base coordinate, and
    the range of the fiber radii."""

    __slots__ = ("seed", "count", "box", "radii")

    def __init__(self, seed: int, count: int, box: tuple[tuple[float, float], ...],
                 radii: tuple[float, float]):
        self.seed, self.count, self.box, self.radii = seed, count, box, radii


class RunSpec:
    """A parsed run document; ``tolerances`` overrides :data:`DEFAULT_TOLERANCES`
    by name (a fresh dict when not given)."""

    __slots__ = ("label", "config", "sampling", "suites", "expected_failures", "tolerances")

    def __init__(self, label: str, config: ProductConfig, sampling: Sampling,
                 suites: tuple[str, ...], expected_failures: tuple[str, ...] = (),
                 tolerances: dict | None = None):
        self.label, self.config, self.sampling = label, config, sampling
        self.suites, self.expected_failures = suites, expected_failures
        self.tolerances = {} if tolerances is None else tolerances

    def tolerance(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))


def _require_keys(node: dict, path: str, required: set[str], optional: set[str]) -> None:
    if not isinstance(node, dict):
        raise SchemaError(f"{path}: expected an object")
    for key in node:
        if key not in required and key not in optional:
            raise SchemaError(f"{path}.{key}: unknown key")
    for key in required:
        if key not in node:
            raise SchemaError(f"{path}.{key}: required key missing")


def _number(value, path: str) -> float:
    # The comparison is exact for ints, so one too large for a float fails too.
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise SchemaError(f"{path}: expected a finite number")
    return float(value)


def _integer(value, path: str, lo: int, hi: int | None = None) -> int:
    """An integer in [lo, hi) (no upper bound without ``hi``); bools are rejected."""
    if (isinstance(value, bool) or not isinstance(value, int) or value < lo
            or (hi is not None and value >= hi)):
        bound = f"in [{lo}, {hi})" if hi is not None else f">= {lo}"
        raise SchemaError(f"{path}: expected an integer {bound}")
    return value


def _suite_names(node, path: str) -> tuple[str, ...]:
    if not isinstance(node, list) or not all(isinstance(t, str) for t in node):
        raise SchemaError(f"{path}: expected a list of suite names")
    for name in node:
        if name not in ALL_SUITES:
            raise SchemaError(f"{path}: unknown suite {name!r}")
    return tuple(node)


def _built(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``: a spec constructor, whose error (a value
    rule it owns) is reported at ``path``."""
    try:
        return make(*args, **kwargs)
    except DwfError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def _parse_poly(node, path: str, dim: int):
    if not isinstance(node, list):
        raise SchemaError(f"{path}: expected a list of [coefficient, exponents] terms")
    terms = []
    for i, term in enumerate(node):
        if (not isinstance(term, list) or len(term) != 2
                or not isinstance(term[1], list) or len(term[1]) != dim):
            raise SchemaError(f"{path}[{i}]: expected [coefficient, [{dim} exponents]]")
        terms.append((_number(term[0], f"{path}[{i}][0]"),
                      tuple(_integer(e, f"{path}[{i}][1][{k}]", 0)
                            for k, e in enumerate(term[1]))))
    return tuple(terms)


def _parse_factor(node, path: str):
    _require_keys(node, path, {"kind", "dim"}, {"parameters"})
    kind = node["kind"]
    dim = _integer(node["dim"], f"{path}.dim", 1, MAX_FACTOR_DIM + 1)
    params = node.get("parameters", {})
    if kind == "euclidean":
        _require_keys(params, f"{path}.parameters", set(), set())
        return _built(path, EuclideanFactor, dim)
    if kind == "riemannian_quadratic":
        _require_keys(params, f"{path}.parameters", {"entries"}, set())
        entries = params["entries"]
        if not isinstance(entries, list) or len(entries) != dim:
            raise SchemaError(f"{path}.parameters.entries: expected a {dim}x{dim} matrix")
        rows = []
        for i, row in enumerate(entries):
            if not isinstance(row, list) or len(row) != dim:
                raise SchemaError(f"{path}.parameters.entries[{i}]: expected {dim} entries")
            rows.append(tuple(_parse_poly(e, f"{path}.parameters.entries[{i}][{j}]", dim)
                              for j, e in enumerate(row)))
        return _built(path, QuadraticFactor, dim, tuple(rows))
    if kind == "randers":
        _require_keys(params, f"{path}.parameters", {"b"}, {"base"})
        b = params["b"]
        if not isinstance(b, list) or len(b) != dim:
            raise SchemaError(f"{path}.parameters.b: expected {dim} components")
        b = tuple(_number(t, f"{path}.parameters.b[{i}]") for i, t in enumerate(b))
        base = params.get("base", {"kind": "euclidean"})
        base = _parse_factor({"dim": dim, **base} if isinstance(base, dict) else base,
                             f"{path}.parameters.base")
        return _built(path, RandersFactor, dim, base, b)
    raise SchemaError(f"{path}.kind: unknown factor kind {kind!r}")


def _parse_warp(node, path: str, dim: int):
    """A warp on a factor whose base has ``dim`` coordinates."""
    _require_keys(node, path, {"kind"}, {"parameters"})
    kind = node["kind"]
    params = node.get("parameters", {})
    if kind == "constant":
        _require_keys(params, f"{path}.parameters", set(), {"value"})
        return _built(path, ConstantWarp,
                      _number(params.get("value", 1.0), f"{path}.parameters.value"))
    if kind == "poly_quadratic":
        _require_keys(params, f"{path}.parameters", {"coeffs"}, set())
        coeffs = params["coeffs"]
        if not isinstance(coeffs, list) or len(coeffs) != dim:
            raise SchemaError(f"{path}.parameters.coeffs: expected a list of {dim} "
                              f"coefficients, one per base coordinate of the factor")
        return _built(path, PolyQuadraticWarp, tuple(
            _number(a, f"{path}.parameters.coeffs[{i}]") for i, a in enumerate(coeffs)))
    if kind == "exponential":
        _require_keys(params, f"{path}.parameters", {"rate"}, {"axis"})
        axis = _integer(params.get("axis", 0), f"{path}.parameters.axis", 0, dim)
        return _built(path, ExponentialWarp,
                      _number(params["rate"], f"{path}.parameters.rate"), axis)
    raise SchemaError(f"{path}.kind: unknown warp kind {kind!r}")


def _overridden(doc, seed, count, suites, tolerances):
    """A copy of ``doc`` with each override set where the document has an
    object to hold it; any other node is left for validation to reject."""
    if not isinstance(doc, dict):
        return doc
    doc = dict(doc) if suites is None else {**doc, "suites": list(suites)}
    drawn = {k: v for k, v in (("seed", seed), ("count", count)) if v is not None}
    for key, new in (("sampling", drawn), ("tolerances", tolerances)):
        if new and isinstance(doc.get(key, {}), dict):
            doc[key] = {**doc.get(key, {}), **new}
    return doc


def parse_spec(text_or_doc, *, seed: int | None = None, count: int | None = None,
               suites=None, tolerances: dict | None = None) -> RunSpec:
    """Parse and validate a run document, JSON text (str or bytes) or a loaded
    tree (left as it is), with the sampling's ``seed`` and ``count``, the
    ``suites`` and the named ``tolerances`` overridden and validated in it."""
    doc = text_or_doc
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except (ValueError, RecursionError) as exc:  # undecodable bytes are ValueErrors too
            raise SchemaError(f"document is not valid JSON: {exc}") from None
    doc = _overridden(doc, seed, count, suites, tolerances)
    _require_keys(doc, "$", {"factors", "warps", "sampling"},
                  {"label", "suites", "expected_failures", "tolerances"})
    factors = doc["factors"]
    if not isinstance(factors, list) or len(factors) != 2:
        raise SchemaError("$.factors: expected exactly two factor entries")
    factor1 = _parse_factor(factors[0], "$.factors[0]")
    factor2 = _parse_factor(factors[1], "$.factors[1]")
    _require_keys(doc["warps"], "$.warps", {"f1", "f2"}, set())
    warp1 = _parse_warp(doc["warps"]["f1"], "$.warps.f1", factor1.dim)
    warp2 = _parse_warp(doc["warps"]["f2"], "$.warps.f2", factor2.dim)
    label = doc.get("label", "custom")
    if not isinstance(label, str):
        raise SchemaError("$.label: expected a string")
    cfg = _built("$", ProductConfig, factor1, factor2, warp1, warp2, label=label)

    s = doc["sampling"]
    _require_keys(s, "$.sampling", {"seed"}, {"count", "box", "radii"})
    seed = _integer(s["seed"], "$.sampling.seed", 0, 2 ** 64)
    count = _integer(s.get("count", 25), "$.sampling.count", 1, MAX_POINTS + 1)
    n_base = cfg.n
    box_node = s.get("box", [-1.0, 1.0])
    if (isinstance(box_node, list) and len(box_node) == 2
            and not any(isinstance(t, list) for t in box_node)):
        pair = tuple(_number(t, f"$.sampling.box[{j}]") for j, t in enumerate(box_node))
        box = (pair,) * n_base
    elif (isinstance(box_node, list) and len(box_node) == n_base
          and all(isinstance(b, list) and len(b) == 2 for b in box_node)):
        box = tuple(tuple(_number(t, f"$.sampling.box[{i}][{j}]") for j, t in enumerate(b))
                    for i, b in enumerate(box_node))
    else:
        raise SchemaError("$.sampling.box: expected [lo, hi] or one pair per base coordinate")
    for lo, hi in box:
        if not lo <= hi:
            raise SchemaError("$.sampling.box: bounds must satisfy lo <= hi")
        if not math.isfinite(hi - lo):
            raise SchemaError(f"$.sampling.box: the width of [{lo}, {hi}] overflows")
    radii_node = s.get("radii", [0.5, 2.0])
    if not (isinstance(radii_node, list) and len(radii_node) == 2):
        raise SchemaError("$.sampling.radii: expected [min, max]")
    radii = tuple(_number(t, f"$.sampling.radii[{i}]") for i, t in enumerate(radii_node))
    if not (RADIUS_FLOOR <= radii[0] <= radii[1] <= RADIUS_CEILING):
        raise SchemaError(
            f"$.sampling.radii: range must sit within [{RADIUS_FLOOR}, {RADIUS_CEILING}]")

    suites = _suite_names(doc.get("suites", list(ALL_SUITES)), "$.suites")
    expected = _suite_names(doc.get("expected_failures", []), "$.expected_failures")
    tolerances = doc.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise SchemaError("$.tolerances: expected an object of name -> value")
    for name, value in tolerances.items():
        path = f"$.tolerances.{name}"
        if name not in DEFAULT_TOLERANCES:
            raise SchemaError(f"{path}: unknown tolerance name")
        if _number(value, path) < 0.0:
            raise SchemaError(f"{path}: must be >= 0")
    tolerances = {name: float(value) for name, value in tolerances.items()}
    return RunSpec(label, cfg, Sampling(seed, count, box, radii),
                   suites, expected, tolerances)


def sample_points(spec: RunSpec) -> list[TangentSample]:
    """Deterministic sample of the slit bundle: boxed base, sphere-scaled fibers.

    The draws are the reproducibility contract.  One standard-library
    ``random.Random`` (MT19937) seeded with ``sampling.seed`` draws, point by
    point: one ``random()`` per base coordinate (x, then u); n1
    ``normalvariate(0.0, 1.0)`` for y, drawn again while their Euclidean norm
    is below 1e-12; one ``random()`` for the radius of y; the same two steps
    for v.  A base coordinate is lo + (hi - lo)·U, a radius r0 + (r1 - r0)·U,
    and a fiber radius·d/|d|, with |d| the ``math.sqrt`` of the sum of the
    squares of d added in index order.
    """
    cfg, sampling = spec.config, spec.sampling
    n, n1, count = cfg.n, cfg.n1, sampling.count
    rng = random.Random(sampling.seed)
    base, fibers = [], ([], [])
    norms, radii = [], []  # each point's y then v
    for _ in range(count):
        base.append([rng.random() for _ in range(n)])
        for fiber, dim in zip(fibers, (n1, cfg.n2)):
            norm = 0.0
            while norm < 1e-12:  # astronomically unlikely, but stay deterministic
                d = [rng.normalvariate(0.0, 1.0) for _ in range(dim)]
                norm_sq = 0.0
                for t in d:  # in index order; sum() compensates from Python 3.12
                    norm_sq += t * t
                norm = math.sqrt(norm_sq)
            fiber.append(d)
            norms.append(norm)
            radii.append(rng.random())
    norms, radii = (np.reshape(t, (count, 2)).T[..., None] for t in (norms, radii))
    lo, hi = np.array(sampling.box).T
    r0, r1 = sampling.radii
    radii = r0 + (r1 - r0) * radii
    rows = np.hstack([lo + (hi - lo) * np.array(base)] + [
        radius * np.array(fiber) / norm for fiber, radius, norm in zip(fibers, radii, norms)])
    return TangentSample._of_rows(rows, n1, cfg.n2)


# ---------------------------------------------------------------------------
# Built-in fixtures as documents
# ---------------------------------------------------------------------------

_FIXTURE_SEED = 2024
_FIXTURE_NAMES = ("FIX-1D", "FIX-E", "FIX-P", "FIX-R")


def fixture_document(name: str) -> dict:
    """The run document of a built-in fixture: the one definition of each."""
    if name not in _FIXTURE_NAMES:
        raise SchemaError(f"unknown fixture {name!r}; known: {', '.join(_FIXTURE_NAMES)}")
    euclid2 = {"kind": "euclidean", "dim": 2}
    quad1 = {"kind": "poly_quadratic", "parameters": {"coeffs": [1.0, 0.0]}}
    docs = {
        "FIX-1D": {
            "factors": [{"kind": "euclidean", "dim": 1}, {"kind": "euclidean", "dim": 1}],
            "warps": {"f1": {"kind": "poly_quadratic", "parameters": {"coeffs": [1.0]}},
                      "f2": {"kind": "poly_quadratic", "parameters": {"coeffs": [1.0]}}},
        },
        "FIX-E": {
            "factors": [euclid2, dict(euclid2)],
            "warps": {"f1": quad1, "f2": quad1},
        },
        "FIX-P": {
            "factors": [euclid2, dict(euclid2)],
            "warps": {"f1": {"kind": "constant"}, "f2": {"kind": "constant"}},
        },
        "FIX-R": {
            "factors": [euclid2,
                        {"kind": "randers", "dim": 2,
                         "parameters": {"b": [0.3, 0.0]}}],
            "warps": {"f1": quad1, "f2": quad1},
            "expected_failures": ["reinhart"],
        },
    }
    doc = docs[name]
    doc["label"] = name
    doc["sampling"] = {"seed": _FIXTURE_SEED, "count": 25,
                       "box": [-1.0, 1.0], "radii": [0.5, 2.0]}
    return doc


#: The built-in fixture configurations, parsed from their documents.
FIXTURES: dict[str, ProductConfig] = {
    name: parse_spec(fixture_document(name)).config for name in _FIXTURE_NAMES}


def fixture(name: str) -> ProductConfig:
    fixture_document(name)  # rejects an unknown name
    return FIXTURES[name]


def fixture_runspec(name: str, seed: int | None = None, count: int | None = None,
                    suites=None, tolerances=None) -> RunSpec:
    """A built-in fixture's document, read with :func:`parse_spec`'s overrides."""
    return parse_spec(fixture_document(name), seed=seed, count=count, suites=suites,
                      tolerances=tolerances)
