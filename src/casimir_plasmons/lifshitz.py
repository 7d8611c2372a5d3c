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
axis the integrand is smooth and strictly negative.  It is evaluated on
blocks of nodes, a column of ``K`` against a row of ``Xi``, with one call of
the optics kernel per block: that validates the block once and returns
``kappa`` and both squared amplitudes, and the damping, the two logarithms
and the weight ``K`` are applied in place, in the operations (and so to the
bits) of one amplitude call per polarization.

Quadrature.  In the variables ``ln K`` and ``ln Xi`` (weight ``K**2 Xi``) the
integrand has no narrow feature at any ``Omega_P``: the TM amplitude's step
at ``Xi ~ Omega_P`` has width of order 1 in ``ln Xi``, and the integrand
falls off like ``K**2`` and ``Xi`` at the lower edges and like
``e^(-2 kappa)`` at the upper ones.  One trapezoidal rule in these variables,
:func:`casimir_plasmons.numerics.integrate_log_box`, therefore covers the
box ``K in [1e-7, 45]``, ``Xi in [1e-13 min(Omega_P, 1), 45]`` with no
breakpoint.  It halves both steps until two levels agree and evaluates only
the new nodes of each level.

Error estimate.  The reported error covers both axes: the difference of the
last two levels (an estimate of the coarser level's error; the finer level is
returned), plus analytic bounds on the four strips outside the box, plus a
rounding allowance.  Refinement stops when that sum is within ``rel_tol`` of
the value itself, so a reduction factor of 1e-9 is resolved as finely as one
of order 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Tuple

import numpy as np

from .errors import (
    ConvergenceFailure,
    DomainError,
    NonFiniteIntegrand,
    require_positive_finite,
)
from .numerics import DEFAULT_QUADRATURE, QuadratureSpec, integrate_log_box
from .optics import SPEED_OF_LIGHT, PlasmaMirror, _reflection_sq_both
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

# Beyond kappa ~ 45 the factor e^{-2 kappa} puts the integrand at ~1e-40,
# far below any achievable double-precision tolerance, so both axes can be
# truncated there without touching the error budget.
_AXIS_CUTOFF = 45.0
# Quadrature box in K: with the weight K**2 of the log variable, the strip
# below 1e-7 is at most ~1e-13 of the value.
_K_RANGE = (1e-7, _AXIS_CUTOFF)
_ZETA_3 = 1.2020569031595942


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
        if not math.isfinite(self.energy) or not math.isfinite(self.eta):
            raise DomainError("energy and eta must be finite")
        if not (self.quadrature_error_estimate >= 0.0):
            raise DomainError("quadrature_error_estimate must be non-negative")


def casimir_ideal_energy(setup: PhysicalSetup) -> float:
    """Ideal-mirror Casimir energy ``-ħ c pi^2 A / (720 L^3)`` in joules."""
    return (
        -REDUCED_PLANCK
        * SPEED_OF_LIGHT
        * math.pi**2
        * setup.A
        / (720.0 * setup.L**3)
    )


def _tail_bound(Omega_P: float, Xi_min: float) -> float:
    """Bound on the integral ``Int K F dK dXi`` outside the quadrature box.

    ``F = -sum_pol ln(1 - r^2 e^(-2 kappa))`` is positive, ``kappa >= K, Xi``,
    and for every ``K`` both amplitudes obey
    ``r <= rho(Xi) = Omega_P^2 / (Omega_P^2 + 2 Xi^2) <= 1``.  Hence
    ``Int F dXi <= min(pi^2/6, sqrt(2) pi Omega_P)`` at any ``K``,
    ``Int K F dK <= zeta(3)/2`` at any ``Xi``, and beyond the cutoff
    ``F <= 2 rho(Xi) e^(-K - Xi)``.  Those bound the strips ``K < K_min``,
    ``Xi < Xi_min``, ``K > 45`` and ``Xi > 45`` in turn.
    """
    K_min, cut = _K_RANGE
    small_K = 0.5 * K_min**2 * min(math.pi**2 / 6.0, math.sqrt(2.0) * math.pi * Omega_P)
    small_Xi = 0.5 * _ZETA_3 * Xi_min
    rho_integral = min(1.0, 0.5 * math.pi * Omega_P / math.sqrt(2.0))
    # rho_cut rounds to 1 long before Omega_P**2 overflows (about 1e154).
    rho_cut = 1.0 if Omega_P > 1e75 else Omega_P**2 / (Omega_P**2 + 2.0 * cut**2)
    beyond = 2.0 * math.exp(-cut) * ((cut + 1.0) * rho_integral + rho_cut)
    return small_K + small_Xi + beyond


def _mode_sum_integrand(K: np.ndarray, Xi: np.ndarray, Omega_P: float) -> np.ndarray:
    """``K * sum_pol ln(1 - r_pol^2 e^(-2 kappa))`` on a block of nodes, in place."""
    kappa, total, tm = _reflection_sq_both(K, Xi, Omega_P)
    damping = np.exp(np.multiply(kappa, -2.0, out=kappa), out=kappa)
    np.negative(damping, out=damping)
    total *= damping
    tm *= damping
    np.log1p(total, out=total)
    total += np.log1p(tm, out=tm)
    # Strictly negative and finite wherever the mirror is imperfect; any
    # other value signals a broken reflection amplitude.
    if not (-math.inf < total.min() and total.max() <= 0.0):
        raise NonFiniteIntegrand(
            f"mode-sum integrand invalid in the block K in [{K.min():g}, {K.max():g}], "
            f"Xi in [{Xi.min():g}, {Xi.max():g}] at Omega_P={Omega_P:g}"
        )
    total *= K
    return total


def _eta_total_detailed(
    Omega_P: float, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> Tuple[float, float]:
    """Reduction factor plus a propagated quadrature error estimate."""
    Omega_P = require_positive_finite("Omega_P", Omega_P)
    # The strip below Xi_min is at most ~1e-12 of the value (see _tail_bound).
    xi_range = (1e-13 * min(Omega_P, 1.0), _AXIS_CUTOFF)
    integrand = partial(_mode_sum_integrand, Omega_P=Omega_P)
    try:
        value, error = integrate_log_box(
            integrand, _K_RANGE, xi_range, spec, _tail_bound(Omega_P, xi_range[0])
        )
    except ConvergenceFailure as exc:
        raise ConvergenceFailure(
            "reduction-factor double integral over the (K, Xi) quarter-plane "
            f"at Omega_P={Omega_P:g}: {exc}"
        ) from exc
    scale = 180.0 / math.pi**4
    return -scale * value, scale * error


def eta_total(Omega_P: float, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Reduction factor ``eta_E`` of the Casimir energy for plasma mirrors.

    Lies in ``(0, 1]``: finite plasma frequency only weakens the attraction.
    Rises monotonically with ``Omega_P`` from the surface-mode-dominated
    short-distance behaviour (``eta_E ~ 1.7895 * Omega_P / 2 pi``) to the
    ideal-mirror limit 1.  ``spec.rel_tol`` below about 3e-13 raises
    :class:`ConvergenceFailure` for ``Omega_P`` above about 0.5: the strip
    ``Xi < 1e-13 * min(Omega_P, 1)`` outside the quadrature box holds about
    1e-13 of the value there, and its bound alone exceeds such a target.
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
