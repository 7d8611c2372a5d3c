"""Exception hierarchy shared by all modules of the package, and its domain gate.

Every failure mode that callers are expected to handle gets its own type, so
that numerical trouble (which deserves a retry with different tolerances) is
distinguishable from contract violations (which indicate a bug in the caller
or in the model assumptions).

Every real argument passes one gate, :func:`require_real`: a real number is an
``int``, ``float`` or numpy integer or floating scalar (no ``bool``) within the
float range and at or above its bound (none, ``>= 0`` or ``> 0``).  ``K``, ``Xi``
of ``reflection_sq_imag_axis`` and ``z`` of ``f_branch``, ``g_branch``,
``g_branch_combination`` may also be a non-empty array, list or tuple of them.
Anything else raises :class:`DomainError` naming the argument.  Integer
arguments (a mode index, a grid size) pass :func:`_integer_in`, which takes
them through :func:`require_real` and then checks that they are whole and in
their range.
"""

import math
import sys

import numpy as np


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


_MAX = sys.float_info.max
# The least value each lower bound admits (5e-324 is the least float above 0).
_FLOORS = {"": -_MAX, "non-negative": 0.0, "positive": 5e-324}


def require_real(name: str, value: object, sign: str = "", array: bool = False):
    """``value`` as a float (with ``array``, a float array) if real, as the module says.

    ``sign`` is the lower bound: ``""`` (none), ``"non-negative"`` or ``"positive"``.
    """
    if type(value) is float and _FLOORS[sign] <= value <= _MAX:
        return value  # the fast path: most arguments are floats in range
    # An int is compared with the range first: beyond it, float() overflows.
    if type(value) is int and abs(value) <= _MAX or isinstance(value, (np.integer, np.floating)):
        return require_real(name, float(value), sign)
    if array and isinstance(value, (list, tuple)) and value:
        return np.array([require_real(name, item, sign) for item in value])
    if array and isinstance(value, np.ndarray) and value.size and value.dtype.kind in "iuf":
        values = value.astype(float, copy=False)
        if _FLOORS[sign] <= values.min() and values.max() <= _MAX:
            return values
    raise DomainError(f"{name} must be {sign + ' and ' if sign else ''}finite, got {value!r}")


def _integer_in(name: str, value: object, least: int, most: float = math.inf) -> int:
    """``value`` as an int, if it is a real number and an integer in ``[least, most]``."""
    number = require_real(name, value)
    if not least <= number <= most or number != int(number):
        raise DomainError(f"{name} must be an integer in [{least}, {most}], got {value!r}")
    return int(number)


def require_positive_finite(name: str, value: object) -> float:
    """The ``> 0`` gate of Omega_P, omega_p, lambda_p, L, A, rel_tol and reg_epsilon."""
    return require_real(name, value, "positive")
