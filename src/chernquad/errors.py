"""Exception types shared across the geometry modules."""


class GeometryError(Exception):
    """Base class for errors raised by the geometry pipeline."""


class PointOutsideDomainError(GeometryError):
    pass


class SpdViolationError(GeometryError):
    """A metric failed the positive-definiteness check."""


class NonpositiveFactorError(GeometryError):
    """A conformal factor was not strictly positive where evaluated."""


class MetricScaleError(GeometryError, ValueError):
    """A metric scale (a component, det g or its square) leaves the normal floats."""


class OrientationMismatchError(GeometryError):
    """Two complex structures induce opposite orientations."""


class DomainMismatchError(GeometryError):
    """An operation needed two fields over the same chart domain."""


class PeriodicityError(GeometryError):
    """An operation required a fully periodic rectangle domain."""


class NonFiniteValueError(GeometryError):
    """A computed quantity is NaN or infinite at a quadrature node."""


class ConfigError(Exception):
    """Invalid CLI usage or experiment configuration."""
