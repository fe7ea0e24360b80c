"""Exception types shared across the package."""


class HeatGaussError(Exception):
    """Base class for all package errors."""


class DomainError(HeatGaussError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParameterError(HeatGaussError, ValueError):
    """A parameter is outside its admissible range."""


class UnsupportedError(HeatGaussError, ValueError):
    """Requested configuration is outside the v1 scope (e.g. m > 3)."""


class ConfigurationError(HeatGaussError, ValueError):
    """Inconsistent or incomplete operator / run configuration."""


class ContractError(HeatGaussError, ValueError):
    """An input violates a documented precondition (e.g. non-symmetric matrix)."""


class NumericalError(HeatGaussError, RuntimeError):
    """An iterative numerical procedure failed to converge."""


class EllipticityError(HeatGaussError, ValueError):
    """Measured pencil extremes are non-positive; operator rejected."""


class ConditioningError(HeatGaussError, ValueError):
    """Request would leave the well-conditioned regime (twist cap, resolvent near spectrum)."""


class ConsistencyError(HeatGaussError, RuntimeError):
    """Two redundant computation paths disagreed beyond tolerance."""


class PropertyViolation(HeatGaussError, AssertionError):
    """A verified inequality failed; carries a reproducible witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ResolutionWarning(UserWarning):
    """Result computed below the resolvable-time floor."""
