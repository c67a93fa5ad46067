"""Run specifications: declarative documents, validation, deterministic sampling.

A run document is a single JSON-compatible tree; nothing outside it affects
results.  Unknown keys are rejected with the offending path, and the sampling
seed is mandatory so every run is reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SchemaError
from .metrics import (ConstantWarp, EuclideanFactor, PolyQuadraticWarp,
                      ExponentialWarp, ProductConfig, QuadraticFactor,
                      RandersFactor, TangentSample, FIXTURES)

RADIUS_FLOOR = 1e-6
RADIUS_CEILING = 1e6

#: Execution order of the full verification battery.
ALL_SUITES = (
    "homogeneity", "block-structure", "yF=G", "matsumoto-contraction",
    "berwald-blocks", "lemma41", "con1", "scalar-flag", "koszul-vs-closed",
    "vaisman-axioms", "reinhart", "hermitian", "nijenhuis", "kahler",
    "totally-geodesic", "fd-crosscheck",
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
    "lemma41": 1e-7,
    "lemma41.antisymmetry": 1e-10,
    "con1": 1e-6,
    "scalar-flag": 1e-6,
    "koszul-vs-closed": 1e-7,
    "vaisman-axioms": 1e-8,
    "reinhart": 1e-10,
    "reinhart.identity": 1e-8,
    "hermitian": 1e-10,
    "hermitian.complex-square": 0.0,
    "hermitian.antisymmetry": 1e-12,
    "hermitian.closedness": 1e-5,
    "nijenhuis": 1e-7,
    "nijenhuis.skew": 1e-10,
    "kahler": 1e-7,
    "totally-geodesic": 1e-7,
    "fd-crosscheck": 1e-5,
}


@dataclass(frozen=True)
class Sampling:
    seed: int
    count: int = 25
    box: tuple[tuple[float, float], ...] = ()  # one (lo, hi) per base coordinate
    radii: tuple[float, float] = (0.5, 2.0)


@dataclass(frozen=True)
class RunSpec:
    label: str
    config: ProductConfig
    sampling: Sampling
    suites: tuple[str, ...]
    expected_failures: tuple[str, ...] = ()
    tolerances: dict = field(default_factory=dict)

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
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise SchemaError(f"{path}: expected a finite number")
    return float(value)


def _parse_poly(node, path: str, dim: int):
    if not isinstance(node, list):
        raise SchemaError(f"{path}: expected a list of [coefficient, exponents] terms")
    terms = []
    for i, term in enumerate(node):
        if (not isinstance(term, list) or len(term) != 2
                or not isinstance(term[1], list) or len(term[1]) != dim):
            raise SchemaError(f"{path}[{i}]: expected [coefficient, [{dim} exponents]]")
        terms.append((float(term[0]), tuple(int(e) for e in term[1])))
    return tuple(terms)


def _parse_factor(node, path: str):
    _require_keys(node, path, {"kind", "dim"}, {"parameters"})
    kind = node["kind"]
    dim = node["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SchemaError(f"{path}.dim: expected a positive integer")
    params = node.get("parameters", {})
    if kind == "euclidean":
        _require_keys(params, f"{path}.parameters", set(), set())
        return EuclideanFactor(dim)
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
        return QuadraticFactor(dim, tuple(rows))
    if kind == "randers":
        _require_keys(params, f"{path}.parameters", {"b"}, {"base"})
        b = params["b"]
        if not isinstance(b, list) or len(b) != dim:
            raise SchemaError(f"{path}.parameters.b: expected {dim} components")
        base_node = params.get("base", {"kind": "euclidean", "dim": dim})
        base_node = dict(base_node)
        base_node.setdefault("dim", dim)
        base = _parse_factor(base_node, f"{path}.parameters.base")
        if isinstance(base, RandersFactor):
            raise SchemaError(f"{path}.parameters.base: the base must be Riemannian")
        b_norm = sum(t * t for t in b) if isinstance(base, EuclideanFactor) else None
        if b_norm is not None and b_norm >= 1.0:
            raise SchemaError(
                f"{path}.parameters.b: the one-form must have Riemannian norm < 1 "
                f"(got |b|^2 = {b_norm})")
        return RandersFactor(dim, base, tuple(float(t) for t in b))
    raise SchemaError(f"{path}.kind: unknown factor kind {kind!r}")


def _parse_warp(node, path: str, dim: int):
    """A warp on a factor whose base has ``dim`` coordinates."""
    _require_keys(node, path, {"kind"}, {"parameters"})
    kind = node["kind"]
    params = node.get("parameters", {})
    if kind == "constant":
        _require_keys(params, f"{path}.parameters", set(), {"value"})
        value = _number(params.get("value", 1.0), f"{path}.parameters.value")
        if value <= 0.0:
            raise SchemaError(f"{path}.parameters.value: constant warp must be positive")
        return ConstantWarp(value)
    if kind == "poly_quadratic":
        _require_keys(params, f"{path}.parameters", {"coeffs"}, set())
        coeffs = params["coeffs"]
        if not isinstance(coeffs, list) or len(coeffs) != dim:
            raise SchemaError(f"{path}.parameters.coeffs: expected a list of {dim} "
                              f"coefficients, one per base coordinate of the factor")
        coeffs = tuple(_number(a, f"{path}.parameters.coeffs[{i}]")
                       for i, a in enumerate(coeffs))
        if any(a < 0.0 for a in coeffs):
            raise SchemaError(f"{path}.parameters.coeffs: coefficients must be >= 0")
        return PolyQuadraticWarp(coeffs)
    if kind == "exponential":
        _require_keys(params, f"{path}.parameters", {"rate"}, {"axis"})
        axis = params.get("axis", 0)
        if not isinstance(axis, int) or isinstance(axis, bool) or not 0 <= axis < dim:
            raise SchemaError(f"{path}.parameters.axis: expected an integer in [0, {dim})")
        return ExponentialWarp(_number(params["rate"], f"{path}.parameters.rate"), axis)
    raise SchemaError(f"{path}.kind: unknown warp kind {kind!r}")


def parse_spec(text_or_doc) -> RunSpec:
    """Parse and validate a run document (JSON text or an already-loaded tree)."""
    if isinstance(text_or_doc, (str, bytes)):
        try:
            doc = json.loads(text_or_doc)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"document is not valid JSON: {exc}") from None
    else:
        doc = text_or_doc
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
    label = str(doc.get("label", "custom"))
    cfg = ProductConfig(factor1, factor2, warp1, warp2, label=label)

    s = doc["sampling"]
    _require_keys(s, "$.sampling", {"seed"}, {"count", "box", "radii"})
    seed = s["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2 ** 64:
        raise SchemaError("$.sampling.seed: expected a 64-bit unsigned integer")
    count = int(s.get("count", 25))
    if count < 1:
        raise SchemaError("$.sampling.count: must be >= 1")
    n_base = cfg.n
    box_node = s.get("box", [-1.0, 1.0])
    if (isinstance(box_node, list) and len(box_node) == 2
            and all(isinstance(t, (int, float)) for t in box_node)):
        box = tuple((float(box_node[0]), float(box_node[1])) for _ in range(n_base))
    elif isinstance(box_node, list) and len(box_node) == n_base:
        box = tuple((float(b[0]), float(b[1])) for b in box_node)
    else:
        raise SchemaError("$.sampling.box: expected [lo, hi] or one pair per base coordinate")
    for lo, hi in box:
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
            raise SchemaError("$.sampling.box: bounds must be finite with lo <= hi")
    radii_node = s.get("radii", [0.5, 2.0])
    if not (isinstance(radii_node, list) and len(radii_node) == 2):
        raise SchemaError("$.sampling.radii: expected [min, max]")
    radii = (float(radii_node[0]), float(radii_node[1]))
    if not (RADIUS_FLOOR <= radii[0] <= radii[1] <= RADIUS_CEILING):
        raise SchemaError(
            f"$.sampling.radii: range must sit within [{RADIUS_FLOOR}, {RADIUS_CEILING}]")

    suites = tuple(doc.get("suites", ALL_SUITES))
    for name in suites:
        if name not in ALL_SUITES:
            raise SchemaError(f"$.suites: unknown suite {name!r}")
    expected = tuple(doc.get("expected_failures", ()))
    for name in expected:
        if name not in ALL_SUITES:
            raise SchemaError(f"$.expected_failures: unknown suite {name!r}")
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
    """Deterministic sample of the slit bundle: boxed base, sphere-scaled fibers."""
    cfg = spec.config
    rng = np.random.Generator(np.random.PCG64(spec.sampling.seed))
    lo = np.array([b[0] for b in spec.sampling.box])
    hi = np.array([b[1] for b in spec.sampling.box])
    r0, r1 = spec.sampling.radii
    out = []
    for _ in range(spec.sampling.count):
        base = rng.uniform(lo, hi)

        def fiber(dim: int) -> tuple[float, ...]:
            direction = rng.normal(size=dim)
            norm = float(np.linalg.norm(direction))
            while norm < 1e-12:  # astronomically unlikely, but stay deterministic
                direction = rng.normal(size=dim)
                norm = float(np.linalg.norm(direction))
            radius = rng.uniform(r0, r1)
            return tuple(radius * direction / norm)

        y = fiber(cfg.n1)
        v = fiber(cfg.n2)
        out.append(TangentSample(tuple(base[:cfg.n1]), tuple(base[cfg.n1:]), y, v))
    return out


# ---------------------------------------------------------------------------
# Built-in fixtures as documents
# ---------------------------------------------------------------------------

_FIXTURE_SEED = 2024


def fixture_document(name: str) -> dict:
    """The run document equivalent to a built-in fixture configuration."""
    if name not in FIXTURES:
        raise SchemaError(f"unknown fixture {name!r}; known: {', '.join(sorted(FIXTURES))}")
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


def fixture_runspec(name: str, seed: int | None = None, count: int | None = None,
                    suites=None, tolerances=None) -> RunSpec:
    doc = fixture_document(name)
    if seed is not None:
        doc["sampling"]["seed"] = seed
    if count is not None:
        doc["sampling"]["count"] = count
    if suites is not None:
        doc["suites"] = list(suites)
    if tolerances:
        doc["tolerances"] = dict(tolerances)
    return parse_spec(doc)
