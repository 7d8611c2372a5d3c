"""Total Casimir energy between two plasma mirrors.

The reference point is the ideal-mirror energy

    E_ideal = -ħ * c * pi**2 * A / (720 * L**3),

and every real-mirror result is expressed through the dimensionless reduction
factor ``eta_E = E / E_ideal`` in ``(0, 1]``.  The reduction factor is
computed from an imaginary-frequency double integral over the transverse
wavevector ``K`` and the rotated frequency ``Xi`` (both scaled by ``L/c``):

    eta_E = -(180 / pi**4) * Int dK Int dXi  K * sum_pol ln(1 - r_pol**2 e^{-2 kappa}),

with ``kappa = sqrt(Xi**2 + K**2)`` and the squared reflection amplitudes of
:func:`casimir_plasmons.optics.reflection_sq_imag_axis`.  On the imaginary
axis the integrand is smooth and strictly negative.  The quadrature calls
the optics kernel once on level 0, once on the new nodes of levels 1 to 3
and once per finer level.  The kernel checks nothing (every ``K`` lies in
[1e-31, 1e7], every ``Xi`` below 1e7) and forms ``kappa``, ``kappa_t`` and
``kappa_t/eps`` from sums of squares where ``Omega_P`` is at most 1e150, by
``hypot`` above.  Every node takes ``log1p(-p)`` with
``p = r**2 e^(-2 kappa)`` clamped below 1 (it rounds to 1 only at level 0's
corner nodes), accurate relative to the summed ``|terms|``, not per node
(see :func:`_log_one_minus`).

Quadrature.  The integral runs over the whole quadrant with
:func:`casimir_plasmons.numerics.integrate_quadrant`, the product of two
double-exponential (exp-sinh) rules, with ``Xi`` in units of
``min(1, Omega_P)``: below ``Omega_P ~ 1`` the TM amplitude's step sits at
``Xi ~ Omega_P``, and in those units every feature is of order 1 on both
axes.  The rule crowds its nodes double-exponentially towards both lower
edges and reaches ``7e6`` on both axes, dropping only nodes whose terms are
below machine epsilon: there is no box and no strip to bound.  It halves
both steps, evaluating only the new nodes, until two levels agree within
``rel_tol`` of the value itself (so 1e-9 is resolved as finely as 1).

Error estimate.  The finer level is returned, with the last difference (the
coarser level's error) scaled by the rate at which the differences fell,
plus a rounding allowance: about 3e-14 relative at the default tolerance,
where the value meets the tests' polar oracle within about 1e-15.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import (
    ConvergenceFailure,
    NonFiniteIntegrand,
    require_positive_finite,
    require_real,
)
from .numerics import _QUADRANT_BLOCK, DEFAULT_QUADRATURE, QuadratureSpec, integrate_quadrant
from .optics import SPEED_OF_LIGHT, PlasmaMirror, _decay_constants
from .optics import reflection_sq_imag_axis  # unused; perfbench/tracing.py patches it by name

__all__ = [
    "SPEED_OF_LIGHT",
    "REDUCED_PLANCK",
    "PhysicalSetup",
    "EnergyResult",
    "casimir_ideal_energy",
    "eta_total",
    "energy_breakdown",
]

REDUCED_PLANCK = 1.054_571_817e-34  # J * s
_NODE_RANGE = (1e-31, 1e7)  # integrate_quadrant's nodes: each K, and each Xi / min(1, Omega_P)
_BELOW_ONE = 1.0 - 2.0**-53  # the largest float below 1
_BUFFERS = 7  # arrays in each thread's kernel workspace
_workspace = threading.local()  # see _buffers


@dataclass(frozen=True)
class PhysicalSetup:
    """A physical parallel-mirror configuration in SI units.

    The plane-plane energy formula assumes transverse extent much larger than
    the gap; a configuration with ``A < 100 * L**2`` is accepted but triggers
    a warning because edge effects are not modelled.
    """

    mirror: PlasmaMirror
    L: float
    A: float

    def __post_init__(self) -> None:
        require_positive_finite("L", self.L)
        require_positive_finite("A", self.A)
        if self.A < 100.0 * self.L * self.L:
            warnings.warn(
                "mirror area A is not large compared to L**2; the "
                "plane-plane energy formula neglects edge effects",
                stacklevel=2,
            )

    @property
    def Omega_P(self) -> float:
        """Dimensionless plasma parameter omega_p * L / c of this setup."""
        return self.mirror.omega_p * self.L / SPEED_OF_LIGHT


@dataclass(frozen=True)
class EnergyResult:
    """Casimir energy of a setup together with its reduction factor."""

    energy: float
    eta: float
    quadrature_error_estimate: float

    def __post_init__(self) -> None:
        require_real("energy", self.energy)
        require_real("eta", self.eta)
        require_real("quadrature_error_estimate", self.quadrature_error_estimate, "non-negative")


def casimir_ideal_energy(setup: PhysicalSetup) -> float:
    """Ideal-mirror Casimir energy ``-ħ c pi^2 A / (720 L^3)`` in joules."""
    return (
        -REDUCED_PLANCK
        * SPEED_OF_LIGHT
        * math.pi**2
        * setup.A
        / (720.0 * setup.L**3)
    )


def _log_one_minus(
    kappa: np.ndarray, x: np.ndarray, damping: np.ndarray, out=None, width=None
) -> np.ndarray:
    """``ln(1 - r^2 e^(-2 kappa))`` for one polarization, in ``out`` or a new array.

    With ``x`` the transverse decay constant of the polarization
    (``kappa_t`` for TE, ``kappa_t/eps`` for TM), ``r = (kappa - x)/(kappa + x)``
    and ``p = r^2 e^(-2 kappa)``, every node takes ``log1p(-p)``, with ``-p`` formed
    from ``damping = -e^(-2 kappa)`` (negated once for both).  The rule
    needs terms accurate relative to the summed ``|terms|``, not per node:
    ``kappa - x`` cancels where ``Omega_P << kappa``, and near ``p = 1`` the
    logarithm multiplies the rounding of ``p`` by ``p/(1 - p)``, yet neither
    moves ``eta_total`` by more than an ulp (tested against a per-node-accurate
    integrand).  ``p`` rounds to 1 only at level 0's outermost corner nodes
    (``K`` and ``Xi`` near 2e-31, outside every trimmed window); there it is
    clamped to the largest float below 1, so the logarithm stays finite.
    ``width``, if given, is overwritten with ``kappa + x``.
    """
    p = np.subtract(kappa, x, out)
    p /= np.add(kappa, x, width)
    p *= p
    p *= damping
    np.maximum(p, -_BELOW_ONE, out=p)
    return np.log1p(p, out=p)


def _buffers(K: np.ndarray, Xi: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``_BUFFERS`` arrays of the broadcast shape of ``K`` and ``Xi``, in this thread's workspace.

    One allocation per thread (numpy releases the GIL inside a ufunc), made on first use, of
    ``_BUFFERS`` blocks of ``_QUADRANT_BLOCK`` doubles, each on a 64-byte boundary: numpy's
    own arrays are 16-byte aligned, and a pass over a level-3 block into one 16 or 32 bytes
    off takes about twice as long.  The views are kept for up to 64 pairs of shapes, as
    building them costs about what the alignment saves; a larger block gets new arrays.
    """
    key = (K.shape, Xi.shape)
    views = getattr(_workspace, "views", None)
    if views is None:
        raw = np.empty(_BUFFERS * _QUADRANT_BLOCK + 7)
        start = -raw.ctypes.data % 64 // raw.itemsize
        _workspace.blocks = raw[start : start + _BUFFERS * _QUADRANT_BLOCK].reshape(_BUFFERS, -1)
        views = _workspace.views = {}
    elif key in views:
        return views[key]
    shape = np.broadcast_shapes(*key)
    size = math.prod(shape)
    if size > _QUADRANT_BLOCK:
        return tuple(np.empty((_BUFFERS, *shape)))
    if len(views) == 64:
        views.clear()
    views[key] = tuple(block[:size].reshape(shape) for block in _workspace.blocks)
    return views[key]


def _mode_sum_integrand(
    K: np.ndarray, Xi: np.ndarray, Omega_P: float, lo: float, hi: float
) -> np.ndarray:
    """``K * sum_pol ln(1 - r_pol^2 e^(-2 kappa))`` on nodes bounded by ``lo`` and ``hi``.

    A new array; every pass before the last writes into :func:`_buffers`.
    """
    kappa, kappa_t, reduced, damping, te, tm, width = _buffers(K, Xi)
    kappa, kappa_t, reduced = _decay_constants(K, Xi, Omega_P, lo, hi, (kappa, kappa_t, reduced))
    np.negative(np.exp(np.multiply(-2.0, kappa, damping), damping), damping)
    total = _log_one_minus(kappa, kappa_t, damping, te, width)
    total += _log_one_minus(kappa, reduced, damping, tm, width)
    # Strictly negative and finite wherever the mirror is imperfect; any other value
    # (max propagates NaN; p <= _BELOW_ONE rules out -inf) signals a broken decay constant.
    if not total.max() <= 0.0:
        raise NonFiniteIntegrand(
            f"mode-sum integrand invalid in the block K in [{K.min():g}, {K.max():g}], "
            f"Xi in [{Xi.min():g}, {Xi.max():g}] at Omega_P={Omega_P:g}"
        )
    return np.multiply(total, K)


def _eta_total_detailed(
    Omega_P: float, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> Tuple[float, float]:
    """Reduction factor plus a propagated quadrature error estimate."""
    Omega_P = require_positive_finite("Omega_P", Omega_P)
    xi_unit = min(1.0, Omega_P)

    def integrand(K: np.ndarray, u: np.ndarray) -> np.ndarray:
        Xi = u if xi_unit == 1.0 else xi_unit * u  # u itself: 1.0 * u would be a copy
        return _mode_sum_integrand(K, Xi, Omega_P, *_NODE_RANGE)

    try:
        value, error = integrate_quadrant(integrand, spec)
    except ConvergenceFailure as exc:
        raise ConvergenceFailure(
            "reduction-factor double integral over the (K, Xi) quarter-plane "
            f"at Omega_P={Omega_P:g}: {exc}"
        ) from exc
    scale = 180.0 / math.pi**4 * xi_unit
    # r^2 <= 1 at every node, so the exact factor is at most 1; near the
    # ideal mirror the rule's rounding can put it an ulp above.
    return min(1.0, -scale * value), scale * error


def eta_total(Omega_P: float, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Reduction factor ``eta_E`` of the Casimir energy for plasma mirrors.

    Lies in ``(0, 1]``: finite plasma frequency only weakens the attraction.
    Rises monotonically with ``Omega_P`` from the surface-mode-dominated
    short-distance behaviour (``eta_E ~ 1.7895 * Omega_P / 2 pi``) to the
    ideal-mirror limit 1.
    """
    return _eta_total_detailed(Omega_P, spec)[0]


def energy_breakdown(
    setup: PhysicalSetup, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> EnergyResult:
    """Physical Casimir energy of a setup: ideal reference times ``eta_E``."""
    eta, error = _eta_total_detailed(setup.Omega_P, spec)
    return EnergyResult(
        energy=eta * casimir_ideal_energy(setup),
        eta=eta,
        quadrature_error_estimate=error,
    )
