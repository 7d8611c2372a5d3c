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
axis the integrand is smooth and strictly negative, which makes the quadrature
routine and its error control straightforward.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Tuple

from .errors import (
    ConvergenceFailure,
    DomainError,
    NonFiniteIntegrand,
    require_positive_finite,
)
from .numerics import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    integrate_finite,
    integrate_finite_with_estimate,
)
from .optics import SPEED_OF_LIGHT, PlasmaMirror, Polarization, reflection_sq_imag_axis

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


def _log_mode_sum(K: float, Xi: float, Omega_P: float) -> float:
    """Summed-log integrand ``sum_pol ln(1 - r^2 e^(-2 kappa))`` at one node.

    Strictly negative and finite wherever the mirror is imperfect; a
    non-negative or non-finite value signals a broken reflection amplitude
    and aborts the quadrature instead of corrupting it.
    """
    kappa = math.hypot(K, Xi)
    damping = math.exp(-2.0 * kappa)
    total = 0.0
    for pol in (Polarization.TE, Polarization.TM):
        r_sq = reflection_sq_imag_axis(pol, K, Xi, Omega_P)
        total += math.log1p(-r_sq * damping)
    if not math.isfinite(total) or total > 0.0:
        raise NonFiniteIntegrand(
            f"mode-sum integrand invalid at K={K:g}, Xi={Xi:g}: {total!r}"
        )
    return total


def _eta_total_detailed(
    Omega_P: float, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> Tuple[float, float]:
    """Reduction factor plus a propagated quadrature error estimate."""
    Omega_P = require_positive_finite("Omega_P", Omega_P)

    inner_spec = QuadratureSpec(
        abs_tol=0.0,
        rel_tol=max(spec.rel_tol * 0.1, 1e-13),
        max_subdivisions=spec.max_subdivisions,
    )
    # For small Omega_P the TM amplitude develops a narrow feature at
    # Xi ~ Omega_P; an explicit breakpoint there keeps the inner adaptive
    # rule from stepping over it.
    breakpoints = ()
    split = 4.0 * Omega_P
    if 1e-9 < split < 0.5 * _AXIS_CUTOFF:
        breakpoints = (split,)

    def inner(K: float) -> float:
        return integrate_finite(
            lambda Xi: _log_mode_sum(K, Xi, Omega_P),
            0.0,
            _AXIS_CUTOFF,
            inner_spec,
            breakpoints=breakpoints,
        )

    outer_spec = QuadratureSpec(
        abs_tol=max(spec.abs_tol * 0.1, 1e-14),
        rel_tol=spec.rel_tol,
        max_subdivisions=spec.max_subdivisions,
    )
    try:
        value, error = integrate_finite_with_estimate(
            lambda K: K * inner(K), 0.0, _AXIS_CUTOFF, outer_spec
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
