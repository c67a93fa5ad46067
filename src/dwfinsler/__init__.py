"""Numerical doubly warped product Finsler geometry engine.

Declarative factor metrics and warps define a product squared norm; every
geometric object (fundamental tensor, torsions, sprays, connections,
curvatures, tangent-bundle lifts) is computed at sample points through
truncated-Taylor forward differentiation, and a verification harness asserts
the structural identities numerically.
"""

__version__ = "0.1.0"

from .coords import CoordBlock, CoordIndex, base1, base2, fiber1, fiber2
from .jets import Jet
from .blocks import BlockTensor
from .metrics import (ConstantWarp, CustomFactor, EuclideanFactor,
                      ExponentialWarp, PolyQuadraticWarp, ProductConfig,
                      QuadraticFactor, RandersFactor, TangentSample)
from .fd import fd_partial
from .core import TENSORS, fundamental_tensor, tensor
from .connection import (NonlinearConnection, SprayField, frame_brackets,
                         horizontal_coefficients, nonlinear_connection, spray)
from .curvature import berwald_curvature, hh_curvature, riemann_map
from .lifted import ComplexStructure
from .runspec import FIXTURES, RunSpec, fixture, fixture_runspec, parse_spec, sample_points
from .report import DiagnosticsReport
from .suites import emit_report, run_suites

__all__ = [
    "__version__",
    # coordinates and jets
    "CoordBlock", "CoordIndex", "base1", "base2", "fiber1", "fiber2",
    "Jet", "fd_partial", "BlockTensor",
    # metric specifications
    "ConstantWarp", "CustomFactor", "EuclideanFactor", "ExponentialWarp",
    "FIXTURES", "PolyQuadraticWarp", "ProductConfig", "QuadraticFactor",
    "RandersFactor", "TangentSample", "fixture",
    # the product's tensors at a sample: the table and the per-point chain
    "TENSORS", "tensor", "fundamental_tensor",
    "NonlinearConnection", "SprayField", "frame_brackets",
    "horizontal_coefficients", "nonlinear_connection", "spray",
    "berwald_curvature", "hh_curvature", "riemann_map",
    # lifted geometry: the almost complex structure
    "ComplexStructure",
    # harness
    "RunSpec", "fixture_runspec", "parse_spec", "sample_points",
    "DiagnosticsReport", "emit_report", "run_suites",
]
