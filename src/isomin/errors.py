"""Shared exception taxonomy.

Every failure mode that callers are expected to branch on gets its own
class; anything else propagates as a plain Python exception.
"""


class IsominError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(IsominError):
    """Two vectors of polynomials (or jets) have incompatible lengths."""


class ShapeMismatch(IsominError):
    """An array, jet space, or chart has the wrong shape for the operation."""


class DegenerateValue(IsominError):
    """A jet composition hit a value too close to a singularity (sqrt/recip)."""


class OrderExceeded(IsominError):
    """A derivative of higher order than the jet carries was requested."""


class InvalidData(IsominError):
    """Malformed or inconsistent input data (serialization, constructor args)."""


class DegeneratePoint(IsominError):
    """The chart is not an immersion at the requested point."""


class NotElliptic(IsominError):
    """The point has no elliptic direction; curvature ellipses are undefined."""


class FlagCollapse(IsominError):
    """The osculating flag degenerates or changes dimension across the domain."""

