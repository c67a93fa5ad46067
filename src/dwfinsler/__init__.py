"""Numerical doubly warped product Finsler geometry engine.

Declarative factor metrics and warps define a product squared norm; every
geometric object (fundamental tensor, torsions, sprays, connections,
curvatures, tangent-bundle lifts) is computed at sample points through
truncated-Taylor forward differentiation, and a verification harness asserts
the structural identities numerically.
"""

__version__ = "0.1.0"

from .coords import CoordBlock, CoordIndex, MultiIndex, base1, base2, fiber1, fiber2
from .jets import Jet, fd_partial, jet_lift
from .blocks import BlockTensor
from .metrics import (ConstantWarp, CustomFactor, EuclideanFactor,
                      ExponentialWarp, PolyQuadraticWarp, ProductConfig,
                      QuadraticFactor, RandersFactor, TangentSample)
from .core import (angular_metric, cartan_tensor, eval_F2, fundamental_tensor,
                   matsumoto_torsion, mean_cartan)
from .connection import (NonlinearConnection, SprayField, adapted_derivative,
                         frame_brackets, horizontal_coefficients,
                         nonlinear_connection, spray)
from .curvature import (CurvatureBundle, FlagInput, berwald_curvature,
                        curvature_bundle, flag_curvature, flat_factor_residual,
                        hh_curvature, riemann_map, scalar_flag_residual)
from .lifted import (ComplexStructure, ConnectionTable, LiftedMetric,
                     almost_complex, closedness_check,
                     induced_vertical_connection, kahler_verdict,
                     koszul_levi_civita, levi_civita_closed_forms,
                     lifted_metric, nijenhuis_tables, reinhart_tables,
                     symplectic_frame_table, totally_geodesic_verdicts,
                     vaisman_connection)
from .runspec import FIXTURES, RunSpec, fixture, fixture_runspec, parse_spec, sample_points
from .suites import DiagnosticsReport, emit_report, run_suites

__all__ = [
    "__version__",
    # coordinates and jets
    "CoordBlock", "CoordIndex", "MultiIndex", "base1", "base2", "fiber1", "fiber2",
    "Jet", "fd_partial", "jet_lift", "BlockTensor",
    # metric specifications
    "ConstantWarp", "CustomFactor", "EuclideanFactor", "ExponentialWarp",
    "FIXTURES", "PolyQuadraticWarp", "ProductConfig", "QuadraticFactor",
    "RandersFactor", "TangentSample", "fixture",
    # zeroth-level tensors
    "angular_metric", "cartan_tensor", "eval_F2", "fundamental_tensor",
    "matsumoto_torsion", "mean_cartan",
    # connections
    "NonlinearConnection", "SprayField", "adapted_derivative", "frame_brackets",
    "horizontal_coefficients", "nonlinear_connection", "spray",
    # curvature
    "CurvatureBundle", "FlagInput", "berwald_curvature", "curvature_bundle",
    "flag_curvature", "flat_factor_residual", "hh_curvature", "riemann_map",
    "scalar_flag_residual",
    # lifted geometry
    "ComplexStructure", "ConnectionTable", "LiftedMetric",
    "almost_complex", "closedness_check", "induced_vertical_connection",
    "kahler_verdict", "koszul_levi_civita", "levi_civita_closed_forms",
    "lifted_metric", "nijenhuis_tables", "reinhart_tables",
    "symplectic_frame_table", "totally_geodesic_verdicts", "vaisman_connection",
    # harness
    "RunSpec", "fixture_runspec", "parse_spec", "sample_points",
    "DiagnosticsReport", "emit_report", "run_suites",
]
