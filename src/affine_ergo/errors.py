"""Exception hierarchy shared across the package."""


class AffineError(Exception):
    """Base class for all package-specific errors."""


class DomainError(AffineError):
    """A point, atom or integration region leaves G = R+ x R."""


class NonFiniteIntegrand(AffineError):
    """An integrand or density evaluated to NaN or infinity at a node."""


class QuadratureError(AffineError):
    """Node-doubling quadrature hit the node cap without converging."""


class InfiniteMass(AffineError):
    """A measure required to have finite mass diverges numerically."""


class ZeroMass(AffineError):
    """Sampling requested from a measure with zero total mass."""


class UnsupportedMeasure(AffineError):
    """An operation is not defined for this measure representation."""


class ModelFormatError(AffineError):
    """A model file is not JSON, lacks a key, has one that is not read, or
    holds a value of the wrong shape or type."""


class SubcriticalityViolated(AffineError):
    """0 < 2*b2 < a1 is required but does not hold."""


class ConditionAViolated(AffineError):
    """Grey-type tail integral of 1/phi0 diverges numerically."""


class ConditionCViolated(AffineError):
    """Shift total-variation ratio for n_eps is unbounded on the probe grid."""


class SingularIntegrand(AffineError):
    """The closed-form stationary integrand has a pole inside the range."""


class NoConvergence(AffineError):
    """Horizon doubling failed to converge."""


class StiffnessFailure(AffineError):
    """The adaptive ODE step size underflowed."""


class ConfigError(AffineError):
    """Invalid simulation configuration."""


class TimeNotRecorded(AffineError):
    """Requested time is not in the ensemble's record grid."""


class EmptyDistribution(AffineError):
    """An empirical distribution with no samples was supplied."""
