"""Exception types raised across the package."""


class SaextError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SaextError, ValueError):
    """Evaluation point outside the potential's interval."""


class PotentialError(SaextError, ValueError):
    """Invalid potential construction (non-finite, uncovered interval, ...)."""


class IntegrationError(SaextError, RuntimeError):
    """The integrator failed to advance: the solution overflowed, or the
    error estimate still failed after the maximum number of step halvings.

    Attributes:
        x_fail: start of the smooth piece of V on which it failed.
    """

    def __init__(self, message, x_fail=None):
        super().__init__(message)
        self.x_fail = x_fail


class GridError(SaextError, ValueError):
    """Two trajectories do not share sample abscissae."""


class ParityError(SaextError, ValueError):
    """An even potential was required but not provided."""


class ModeError(SaextError, ValueError):
    """A deficiency basis of the wrong parity mode was supplied."""


class UnitarityError(SaextError, ValueError):
    """A matrix failed unitarity certification."""


class ParameterError(SaextError, ValueError):
    """Out-of-domain parameters for a named boundary-condition family."""


class InvariantViolation(SaextError, RuntimeError):
    """A numerically asserted invariant failed after construction."""
