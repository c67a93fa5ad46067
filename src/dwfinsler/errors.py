"""Exception hierarchy shared across the package."""


class DwfError(Exception):
    """Base class for all package errors."""


class CapabilityError(DwfError):
    """A request exceeds a hard capability bound (e.g. differentiation order)."""


class DomainError(DwfError):
    """Evaluation hit a non-smooth or undefined locus (sqrt of <= 0, division
    by zero) or left the floats (exp or a warp square overflows)."""


class SlitConditionError(DwfError):
    """A tangent-bundle point has a (numerically) vanishing fiber vector."""


class MetricDefinitionError(DwfError):
    """A declarative metric or warp specification is invalid."""


class SingularMetricError(DwfError):
    """A metric matrix is singular or too ill-conditioned to invert."""


class SchemaError(DwfError):
    """A run-specification document violates the schema."""


class UnknownSuiteError(DwfError):
    """A verification suite name is not registered."""
