"""Tests for the reduction-factor and physical-energy layer.

The production code evaluates the reduction factor with a trapezoidal rule
in the logarithms of the wavevector and the imaginary frequency.  The main
oracle here re-evaluates it with nested adaptive quadrature in polar
coordinates — a genuinely different rule and integration geometry whose only
shared ingredient is the reflection coefficient — and demands agreement far
below the advertised tolerance, and within the two reported error estimates.
"""

from __future__ import annotations

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_plasmons.decomposition import short_distance_alpha
from casimir_plasmons.errors import CasimirModelError, DomainError
from casimir_plasmons.lifshitz import (
    REDUCED_PLANCK,
    SPEED_OF_LIGHT,
    EnergyResult,
    PhysicalSetup,
    _eta_total_detailed,
    casimir_ideal_energy,
    energy_breakdown,
    eta_total,
)
from casimir_plasmons.numerics import QuadratureSpec, integrate_finite_with_estimate
from casimir_plasmons.optics import PlasmaMirror, reflection_sq_imag_axis


def _eta_polar_oracle(omega_p: float) -> tuple:
    """Reduction factor via polar coordinates over the quarter-plane.

    With ``K = rho cos(theta)`` and ``Xi = rho sin(theta)`` the Jacobian turns
    the weight ``K dK dXi`` into ``rho^2 cos(theta) drho dtheta`` and the decay
    exponent becomes exactly ``2 rho``.  The radial cutoff matches the decade
    where ``exp(-2 rho)`` underflows any representable log contribution.

    Returns ``(value, error)``: the outer estimate plus the largest inner
    estimate times the pi/2 width of the outer interval.
    """
    inner_spec = QuadratureSpec(abs_tol=0.0, rel_tol=1e-11)
    outer_spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10)
    inner_errors = []

    def radial(theta: float) -> float:
        cos_t, sin_t = math.cos(theta), math.sin(theta)

        def integrand(rho: float) -> float:
            big_k, xi = rho * cos_t, rho * sin_t
            total = 0.0
            for pol in ("te", "tm"):
                r_sq = reflection_sq_imag_axis(pol, big_k, xi, omega_p)
                total += math.log1p(-r_sq * math.exp(-2.0 * rho))
            return rho * rho * total

        value, error = integrate_finite_with_estimate(integrand, 0.0, 45.0, inner_spec)
        inner_errors.append(cos_t * error)
        return cos_t * value

    value, error = integrate_finite_with_estimate(radial, 0.0, math.pi / 2.0, outer_spec)
    scale = 180.0 / math.pi**4
    return -scale * value, scale * (error + 0.5 * math.pi * max(inner_errors))


# ----------------------------------------------------------------------
# Ideal-mirror reference energy
# ----------------------------------------------------------------------


def _setup(lambda_p: float = 137e-9, gap: float = 137e-9, area: float = 1e-10) -> PhysicalSetup:
    return PhysicalSetup(mirror=PlasmaMirror.from_plasma_wavelength(lambda_p), L=gap, A=area)


class TestIdealEnergy:
    def test_closed_form(self) -> None:
        setup = _setup(gap=1e-6, area=1e-4)
        expected = -REDUCED_PLANCK * SPEED_OF_LIGHT * math.pi**2 * 1e-4 / (720.0 * 1e-18)
        assert casimir_ideal_energy(setup) == pytest.approx(expected, rel=1e-15)
        assert casimir_ideal_energy(setup) < 0.0

    def test_scaling_with_gap_and_area(self) -> None:
        base = casimir_ideal_energy(_setup(gap=1e-6, area=1e-4))
        doubled_gap = casimir_ideal_energy(_setup(gap=2e-6, area=1e-4))
        doubled_area = casimir_ideal_energy(_setup(gap=1e-6, area=2e-4))
        assert doubled_gap == pytest.approx(base / 8.0, rel=1e-12)
        assert doubled_area == pytest.approx(2.0 * base, rel=1e-12)


# ----------------------------------------------------------------------
# Reduction factor
# ----------------------------------------------------------------------


class TestReductionFactor:
    def test_golden_value_at_unit_gap_ratio(self) -> None:
        # L = lambda_P, i.e. Omega_P = 2 pi
        assert eta_total(2.0 * math.pi) == pytest.approx(
            0.6040795415892096, abs=2e-10
        )

    def test_matches_polar_coordinate_oracle(self) -> None:
        for omega_p in (0.5, 2.0 * math.pi):
            assert eta_total(omega_p) == pytest.approx(
                _eta_polar_oracle(omega_p)[0], abs=1e-8
            )

    @pytest.mark.parametrize("omega_p", [1e-3, 0.5, 2.0 * math.pi, 1e3])
    def test_error_estimate_covers_distance_to_polar_oracle(self, omega_p) -> None:
        value, error = _eta_total_detailed(omega_p)
        reference, reference_error = _eta_polar_oracle(omega_p)
        assert 0.0 <= error <= 1e-9 * value
        assert abs(value - reference) <= error + reference_error

    @given(log_omega=st.floats(-10.0, 300.0))
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_value_with_honest_estimate_or_typed_error(self, log_omega) -> None:
        omega_p = 10.0**log_omega
        try:
            value, error = _eta_total_detailed(omega_p)
        except CasimirModelError:
            return
        assert 0.0 < value <= 1.0
        assert math.isfinite(error) and error >= 0.0
        assert _eta_total_detailed(omega_p) == (value, error)

    @pytest.mark.parametrize("omega_p", [5e-5, 1e-4, 3e-4])
    def test_converges_where_nested_quadrature_failed(self, omega_p) -> None:
        value, error = _eta_total_detailed(omega_p)
        assert 0.0 < value < 1.0
        assert error <= 1e-9 * value

    @pytest.mark.parametrize("omega_p", [1e-8, 1e-6, 1e-5])
    def test_short_distance_slope_reaches_one_and_a_half_alpha(self, omega_p) -> None:
        slope = eta_total(omega_p) / (omega_p / (2.0 * math.pi))
        assert slope == pytest.approx(1.5 * short_distance_alpha(), rel=1e-6)

    def test_large_mirror_frequency_approaches_ideal(self) -> None:
        value = eta_total(1e4)
        assert value == pytest.approx(0.9996001439564441, abs=1e-9)
        assert value < 1.0

    def test_bounds_and_monotonicity(self) -> None:
        grid = [0.3 * (10.0 ** (3.0 * i / 7.0)) for i in range(8)]
        values = [eta_total(w) for w in grid]
        assert all(0.0 < v < 1.0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_short_distance_slope(self) -> None:
        ratio = 1e-3
        slope = eta_total(2.0 * math.pi * ratio) / ratio
        assert slope == pytest.approx(1.789279758212278, rel=1e-6)
        assert slope == pytest.approx(1.7895, abs=2e-3)

    def test_loose_tolerance_stays_consistent(self) -> None:
        tight = eta_total(2.0 * math.pi)
        loose = eta_total(2.0 * math.pi, QuadratureSpec(abs_tol=1e-7, rel_tol=1e-6))
        assert loose == pytest.approx(tight, abs=1e-6)

    def test_validation(self) -> None:
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(DomainError):
                eta_total(bad)


# ----------------------------------------------------------------------
# Physical energies
# ----------------------------------------------------------------------


class TestEnergyBreakdown:
    def test_energy_is_eta_times_ideal(self) -> None:
        setup = _setup()
        result = energy_breakdown(setup)
        assert result.energy == result.eta * casimir_ideal_energy(setup)
        assert result.eta == eta_total(setup.Omega_P)
        assert result.quadrature_error_estimate >= 0.0
        # lambda_p == L means Omega_P == 2 pi up to round-off
        assert setup.Omega_P == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert 0.0 < result.eta < 1.0
        assert result.energy > casimir_ideal_energy(setup)  # weaker attraction
        assert result.energy < 0.0

    def test_small_area_warns(self) -> None:
        mirror = PlasmaMirror.from_plasma_wavelength(137e-9)
        with pytest.warns(UserWarning):
            PhysicalSetup(mirror=mirror, L=1e-6, A=1e-14)

    def test_large_area_does_not_warn(self) -> None:
        mirror = PlasmaMirror.from_plasma_wavelength(137e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            PhysicalSetup(mirror=mirror, L=1e-6, A=1e-9)

    def test_setup_validation(self) -> None:
        mirror = PlasmaMirror.from_plasma_wavelength(137e-9)
        with pytest.raises(DomainError):
            PhysicalSetup(mirror=mirror, L=0.0, A=1e-9)
        with pytest.raises(DomainError):
            PhysicalSetup(mirror=mirror, L=1e-6, A=-1.0)
        with pytest.raises(DomainError):
            PhysicalSetup(mirror=mirror, L=float("nan"), A=1e-9)

    def test_result_validation(self) -> None:
        with pytest.raises(DomainError):
            EnergyResult(energy=float("nan"), eta=0.5, quadrature_error_estimate=0.0)
        with pytest.raises(DomainError):
            EnergyResult(energy=-1.0, eta=0.5, quadrature_error_estimate=-1e-3)
