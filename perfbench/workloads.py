"""The benchmark's workloads: run documents, sizes, and the seeds drawn from them.

Only the standard library is imported here, so that the launcher can read the
table without importing dwfinsler or numpy.
"""

from __future__ import annotations

import copy
import hashlib

#: The sixteen suites of the battery, in execution order.  Kept here rather
#: than read from the program, so the correctness gate does not trust it.
SUITES = (
    "homogeneity", "block-structure", "yF=G", "matsumoto-contraction",
    "berwald-blocks", "lemma41", "con1", "scalar-flag", "koszul-vs-closed",
    "vaisman-axioms", "reinhart", "hermitian", "nijenhuis", "kahler",
    "totally-geodesic", "fd-crosscheck",
)


def suite_metric_name(suite: str) -> str:
    """Per-layer metric name of a suite; '=' is not allowed in a name."""
    return "suites." + suite.replace("=", "-") + "_s"


_EUCLID2 = {"kind": "euclidean", "dim": 2}
_QUAD1 = {"kind": "poly_quadratic", "parameters": {"coeffs": [1.0, 0.0]}}

# FIX-R: R^2 Euclidean x R^2 Randers (b = (0.3, 0)), warps 1 + x1^2 and 1 + u1^2.
# Its Reinhart defect is nonzero, which the battery asserts as expected.
FIX_R = {
    "label": "FIX-R",
    "factors": [_EUCLID2, {"kind": "randers", "dim": 2, "parameters": {"b": [0.3, 0.0]}}],
    "warps": {"f1": _QUAD1, "f2": _QUAD1},
    "expected_failures": ["reinhart"],
    "sampling": {"box": [-1.0, 1.0], "radii": [0.5, 2.0]},
}

# FIX-1D: R x R Euclidean, warps 1 + x^2 and 1 + u^2.
FIX_1D = {
    "label": "FIX-1D",
    "factors": [{"kind": "euclidean", "dim": 1}, {"kind": "euclidean", "dim": 1}],
    "warps": {"f1": {"kind": "poly_quadratic", "parameters": {"coeffs": [1.0]}},
              "f2": {"kind": "poly_quadratic", "parameters": {"coeffs": [1.0]}}},
    "expected_failures": [],
    "sampling": {"box": [-1.0, 1.0], "radii": [0.5, 2.0]},
}

#: kind "battery": run_suites over `points` samples, then `side_points` fresh
#: samples through the per-point chain.  kind "stream": `points` fresh samples
#: through the per-point chain, no suites.
WORKLOADS = {
    "battery-randers": {"kind": "battery", "doc": FIX_R, "points": 25, "side_points": 30},
    "battery-1d-wide": {"kind": "battery", "doc": FIX_1D, "points": 150, "side_points": 300},
    "stream-randers": {"kind": "stream", "doc": FIX_R, "points": 100, "side_points": 0},
}


def derived_seed(workload: str, seed: int, rep: int, purpose: str) -> int:
    """A 64-bit sampling seed for one purpose of one repetition of a run."""
    text = f"{workload}:{seed}:{rep}:{purpose}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


def document(workload: str, seed: int, count: int, suites=None) -> dict:
    """The run document handed to the program's parse_spec."""
    doc = copy.deepcopy(WORKLOADS[workload]["doc"])
    doc["sampling"].update(seed=seed, count=count)
    if suites is not None:
        doc["suites"] = list(suites)
    return doc
