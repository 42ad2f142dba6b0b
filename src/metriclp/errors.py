"""Exception hierarchy shared by all modules."""


class MetricLpError(Exception):
    """Base class for library errors."""


class InvalidPointError(MetricLpError):
    """Payload fails the target space's validity checks."""


class DimensionMismatchError(MetricLpError):
    """Operands live in different spaces or have incompatible shapes."""


class CapabilityError(MetricLpError):
    """A space was asked for an operation it does not declare.

    Raised e.g. when an epsilon-net is requested from a target whose
    closed balls are not compact, so no finite net can cover them.
    """


class DomainMismatchError(MetricLpError):
    """Two mappings do not share the same underlying domain."""


class GeometryError(MetricLpError):
    """Operation requires grid geometry the domain does not carry."""


class SearchBudgetError(MetricLpError):
    """A bounded search (step index, enumeration) exhausted its cap."""


class NonConvergenceError(MetricLpError):
    """Per-atom tail diameters failed to shrink below tolerance.

    This is the observable trace of a missing limit: a Cauchy sequence
    whose target space lacks the limit point cannot stabilise.
    """


class DataError(MetricLpError):
    """Malformed file content or inconsistent serialized fields."""


class CheckFailedError(MetricLpError):
    """A theorem-suite check found one of its invariants violated."""
