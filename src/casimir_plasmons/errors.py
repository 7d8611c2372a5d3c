"""Exception hierarchy shared by all modules of the package.

Every failure mode that callers are expected to handle gets its own type, so
that numerical trouble (which deserves a retry with different tolerances) is
distinguishable from contract violations (which indicate a bug in the caller
or in the model assumptions).
"""

import sys


class CasimirModelError(Exception):
    """Base class for every error raised by this package."""


class DomainError(CasimirModelError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConvergenceFailure(CasimirModelError):
    """An iterative routine exhausted its budget without meeting tolerance."""


class NonFiniteIntegrand(CasimirModelError):
    """An integrand returned NaN/inf (or an impossible sign) at a node."""


class TailBoundViolated(CasimirModelError):
    """Samples beyond the tail threshold do not decay as required."""


class InvalidBracket(CasimirModelError, ValueError):
    """A root bracket has the same sign of the function at both ends."""


class ContinuationError(CasimirModelError):
    """The real-arithmetic continuation left its principal window."""


class ExtrapolationUnstable(CasimirModelError):
    """A regulator-removal ladder did not contract toward a limit."""


class NoSolution(CasimirModelError):
    """A mode equation has no solution for the requested parameters."""


# Numeric-machinery failures: the computation could not be carried out at the
# requested tolerance (as opposed to producing a wrong value).
CONVERGENCE_ERRORS = (
    ConvergenceFailure,
    TailBoundViolated,
    NonFiniteIntegrand,
    ExtrapolationUnstable,
)


def require_positive_finite(name: str, value: object) -> float:
    """Return ``value`` as a float if it is an int or float in ``(0, inf)``.

    The domain gate for ``Omega_P``, ``omega_p``, ``lambda_p`` and ``L`` at
    every public entry; anything else (bools, NaN, inf, zero, negatives,
    ints beyond the float range) raises :class:`DomainError`.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if 0.0 < value <= sys.float_info.max:
            return float(value)
    raise DomainError(f"{name} must be positive and finite, got {value!r}")
