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
from dataclasses import dataclass
from enum import Enum, unique
from typing import Union

import numpy as np

from .errors import DomainError, require_positive_finite, require_real

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
    K = require_real("K", K, "non-negative")
    Omega = require_real("Omega", Omega, "non-negative")
    if abs(Omega - K) <= LIGHTCONE_TOLERANCE:
        return Sector.LIGHTCONE
    return Sector.PROPAGATIVE if Omega > K else Sector.EVANESCENT


def _decay_constants(
    K: ArrayOrFloat, Xi: ArrayOrFloat, Omega_P: float, lo: float, hi: float, out=None
):
    """``(kappa, kappa_t, kappa_t / eps(i Xi))``: the three decay constants.

    The amplitudes of the mode-sum integrand are ``(kappa - x)/(kappa + x)``
    with ``x = kappa_t`` (TE) or ``x = kappa_t / eps`` (TM).  It checks
    nothing: callers pass finite ``K, Xi >= 0`` (at ``Xi = 0`` ``kappa_t / eps``
    is 0) and ``Omega_P > 0``, ``hi`` at least every ``K`` and ``Xi``, ``lo``
    at most every node's larger.
    If ``lo >= 1e-150`` and ``hi, Omega_P <= 1e150``, ``kappa`` and ``kappa_t``
    are roots of ``K*K + Xi*Xi`` and of it plus ``Omega_P*Omega_P`` (no square
    over- or underflows to matter; within 6e-16 of ``hypot`` and 5 times faster).
    Its arrays are new, or, where they are not formed by ``hypot`` or from a
    ``Xi`` at most ``1e-150 * Omega_P``, the three arrays ``out`` of the
    broadcast shape; either way callers may overwrite them.
    """
    Xi_block = isinstance(Xi, np.ndarray)
    Xi_lo = Xi.min() if Xi_block else Xi
    ops = np if Xi_block or isinstance(K, np.ndarray) else math
    if ops is np and out is None:
        out = np.empty((3, *np.broadcast_shapes(np.shape(K), np.shape(Xi))))
    if 1e-150 <= lo and max(hi, Omega_P) <= 1e150:
        if ops is np:
            kappa, sum_sq, reduced = out
            np.add(np.multiply(K, K, sum_sq), np.multiply(Xi, Xi, reduced), sum_sq)
            kappa = np.sqrt(sum_sq, kappa)
            kappa_t = np.sqrt(np.add(sum_sq, Omega_P * Omega_P, sum_sq), sum_sq)
        else:
            sum_sq = K * K + Xi * Xi
            kappa, kappa_t = math.sqrt(sum_sq), math.sqrt(sum_sq + Omega_P * Omega_P)
    else:
        kappa = ops.hypot(K, Xi)
        kappa_t = ops.hypot(kappa, Omega_P)
    # kappa_t / eps(i Xi) written so that neither factor can overflow;
    # where (Omega_P / Xi)**2 itself could, through its reciprocal.
    if Xi_lo <= 1e-150 * Omega_P:
        q_sq = (Xi / Omega_P) ** 2
        reduced = kappa_t * q_sq
        reduced /= 1.0 + q_sq
    elif ops is np:
        reduced = np.divide(Omega_P, Xi, out[2])
        reduced *= reduced
        reduced += 1.0
        reduced = np.divide(kappa_t, reduced, reduced)
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
    permittivity-weighted analogue for TM, with ``kappa_t/eps`` in place of
    ``kappa_t``.  Both are evaluated without that difference, which cancels
    where ``Omega_P << kappa``: with ``s = kappa + kappa_t``,
    ``r_TE = -(Omega_P/s)^2`` and
    ``r_TM = c (K^2 + kappa kappa_t) / (s (kappa + kappa_t/eps))``,
    ``c = Omega_P^2/(Xi^2 + Omega_P^2)``, each factor formed from ratios of
    at most 1, so nothing over- or underflows ahead of the result; ``r_TM``,
    which can round past 1 where ``Xi << Omega_P``, is capped at 1.  The
    result lies in [0, 1].
    """
    pol = _coerce_polarization(pol)
    Omega_P = require_positive_finite("Omega_P", Omega_P)
    K = require_real("K", K, "non-negative", array=True)
    Xi = require_real("Xi", Xi, "positive", array=True)
    lo, hi = max(np.min(K), np.min(Xi)), max(np.max(K), np.max(Xi))
    kappa, kappa_t, reduced = _decay_constants(K, Xi, Omega_P, lo, hi)
    total = kappa + kappa_t
    if pol is Polarization.TE:
        r = (Omega_P / total) ** 2
    else:
        is_array = isinstance(kappa, np.ndarray)
        hypot = np.hypot if is_array else math.hypot
        plasma_share = (Omega_P / hypot(Xi, Omega_P)) ** 2
        r = plasma_share * ((K * (K / total) + kappa * (kappa_t / total)) / (kappa + reduced))
        # The exact amplitude is below 1, but where Xi << Omega_P it is within
        # rounding of 1 and the product of rounded factors can exceed it.
        r = np.minimum(r, 1.0) if is_array else min(r, 1.0)
    return r * r
