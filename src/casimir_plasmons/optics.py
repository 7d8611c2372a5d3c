"""Plasma-model mirror response and light-cone sector classification.

The mirrors are described by the lossless free-electron (plasma) dielectric
function.  All cavity quantities are expressed in scaled units: frequencies
and wavevectors are multiplied by the mirror separation L (and divided by c),
so a cavity is fully characterised by the single number
``Omega_P = omega_p * L / c = 2*pi*L/lambda_p``.

Energy quadrature never touches the real frequency axis: reflection is only
provided on the imaginary axis, where the relevant integrands are smooth and
sign-definite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum, unique
from typing import Union

import numpy as np

from .errors import DomainError, require_positive_finite

__all__ = [
    "Polarization",
    "Sector",
    "PlasmaMirror",
    "classify",
    "reflection_sq_imag_axis",
    "LIGHTCONE_TOLERANCE",
]

ArrayOrFloat = Union[float, np.ndarray]

#: Speed of light in vacuum, m/s (exact by the SI definition of the metre).
SPEED_OF_LIGHT = 299792458.0

#: Absolute tolerance on Omega - K below which a point counts as on the cone.
LIGHTCONE_TOLERANCE = 1e-12


@unique
class Polarization(Enum):
    """Field polarization relative to the plane of incidence."""

    TE = "TE"
    TM = "TM"


@unique
class Sector(Enum):
    """Position of a (K, Omega) point relative to the vacuum light cone."""

    PROPAGATIVE = "propagative"
    EVANESCENT = "evanescent"
    LIGHTCONE = "lightcone"


def _coerce_polarization(pol: Union[Polarization, str]) -> Polarization:
    if isinstance(pol, Polarization):
        return pol
    try:
        return Polarization(str(pol).upper())
    except ValueError:
        raise DomainError(f"unknown polarization {pol!r}; expected TE or TM") from None


@dataclass(frozen=True)
class PlasmaMirror:
    """A semi-infinite plasma-model mirror.

    ``omega_p`` is the plasma angular frequency in rad/s and ``lambda_p`` the
    plasma wavelength in meters; they are tied by
    ``lambda_p = 2*pi*c/omega_p``, so construct through one of the
    classmethods and the other field is derived.
    """

    omega_p: float
    lambda_p: float

    def __post_init__(self) -> None:
        require_positive_finite("omega_p", self.omega_p)
        require_positive_finite("lambda_p", self.lambda_p)
        derived = 2.0 * math.pi * SPEED_OF_LIGHT / self.omega_p
        if abs(self.lambda_p - derived) > 4.0 * math.ulp(derived):
            raise DomainError(
                "inconsistent mirror: lambda_p must equal 2*pi*c/omega_p "
                f"(got {self.lambda_p!r}, expected {derived!r})"
            )

    @classmethod
    def from_plasma_frequency(cls, omega_p: float) -> "PlasmaMirror":
        omega_p = require_positive_finite("omega_p", omega_p)
        return cls(omega_p=omega_p, lambda_p=2.0 * math.pi * SPEED_OF_LIGHT / omega_p)

    @classmethod
    def from_plasma_wavelength(cls, lambda_p: float) -> "PlasmaMirror":
        lambda_p = require_positive_finite("lambda_p", lambda_p)
        return cls.from_plasma_frequency(2.0 * math.pi * SPEED_OF_LIGHT / lambda_p)


def classify(K: float, Omega: float) -> Sector:
    """Classify a scaled (wavevector, frequency) point against the light cone.

    Points with ``|Omega - K| <= LIGHTCONE_TOLERANCE`` count as on the cone;
    otherwise ``Omega > K`` is propagative and ``Omega < K`` evanescent.
    """
    if not (0.0 <= K <= sys.float_info.max) or not (0.0 <= Omega <= sys.float_info.max):
        raise DomainError(
            f"classify expects finite K >= 0 and Omega >= 0, got K={K!r}, Omega={Omega!r}"
        )
    if abs(Omega - K) <= LIGHTCONE_TOLERANCE:
        return Sector.LIGHTCONE
    return Sector.PROPAGATIVE if Omega > K else Sector.EVANESCENT


def _decay_constants(K: ArrayOrFloat, Xi: ArrayOrFloat, Omega_P: float):
    """``(kappa, kappa_t, kappa_t / eps(i Xi))``: the three decay constants.

    The one formula behind every imaginary-axis amplitude: the TE amplitude
    is ``(kappa - x)/(kappa + x)`` with ``x = kappa_t``, the TM one the same
    with ``x = kappa_t / eps``.  It checks nothing: callers pass finite
    ``K, Xi >= 0`` (at ``Xi = 0`` ``kappa_t / eps`` is 0) and ``Omega_P > 0``.
    Its arrays are new, so callers may overwrite them.
    """
    Xi_block = isinstance(Xi, np.ndarray)
    Xi_lo = Xi.min() if Xi_block else Xi
    hypot = np.hypot if Xi_block or isinstance(K, np.ndarray) else math.hypot
    kappa = hypot(K, Xi)
    kappa_t = hypot(kappa, Omega_P)
    # kappa_t / eps(i Xi) written so that neither factor can overflow;
    # where (Omega_P / Xi)**2 itself could, through its reciprocal.
    if Xi_lo <= 1e-150 * Omega_P:
        q_sq = (Xi / Omega_P) ** 2
        reduced = kappa_t * q_sq
        reduced /= 1.0 + q_sq
    else:
        ratio = Omega_P / Xi
        reduced = kappa_t / (1.0 + ratio * ratio)
    return kappa, kappa_t, reduced


def reflection_sq_imag_axis(
    pol: Union[Polarization, str], K: ArrayOrFloat, Xi: ArrayOrFloat, Omega_P: float
) -> ArrayOrFloat:
    """Squared single-interface reflection amplitude on the imaginary axis.

    ``K`` is the scaled transverse wavevector, ``Xi`` the scaled imaginary
    frequency; either may be a numpy array (the two broadcast against each
    other and the result is an array), otherwise the result is a float.
    With ``kappa = sqrt(Xi^2 + K^2)`` the vacuum-side decay
    constant and ``kappa_t = sqrt(kappa^2 + Omega_P^2)`` the medium-side one,
    the amplitudes are ``(kappa - kappa_t)/(kappa + kappa_t)`` for TE and the
    permittivity-weighted analogue for TM; the TM form is evaluated as
    ``(kappa - kappa_t/eps)/(kappa + kappa_t/eps)`` which stays finite for
    arbitrarily small ``Xi``.  The result lies in [0, 1].
    """
    pol = _coerce_polarization(pol)
    Omega_P = require_positive_finite("Omega_P", Omega_P)
    if not (0.0 <= np.min(K) and np.max(K) <= sys.float_info.max):
        raise DomainError(f"K must be non-negative and finite, got {K!r}")
    if not (0.0 < np.min(Xi) and np.max(Xi) <= sys.float_info.max):
        raise DomainError(f"Xi must be positive and finite, got {Xi!r}")
    kappa, kappa_t, reduced = _decay_constants(K, Xi, Omega_P)
    x = kappa_t if pol is Polarization.TE else reduced
    # Augmented assignments work in place on arrays and rebind floats.
    r_sq = kappa - x
    r_sq /= kappa + x
    r_sq *= r_sq
    return r_sq
