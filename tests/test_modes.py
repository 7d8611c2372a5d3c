"""Tests for the coupled-surface-mode machinery.

Oracle strategy
---------------
* For positive squared-frequency arguments the branch functions have closed
  hyperbolic forms; we re-evaluate them with ``mpmath`` at 40 significant
  digits and demand near machine-precision agreement.
* The analytic continuation to negative arguments is checked against a
  complex-arithmetic evaluation of the *same* hyperbolic formula (the
  principal square root turns ``tanh`` into ``tan`` automatically), again at
  40 digits.  The implementation uses the explicitly real rewritten form, so
  this is a genuinely independent route.
* The endpoint of the continuation window is re-derived by a 50-digit
  ``mpmath`` bisection of the complex-form defect, without using the
  implementation's root equation; so are the branch frequencies, by a
  bisection in ``Omega**2``.
"""

from __future__ import annotations

import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casimir_plasmons import modes, numerics
from casimir_plasmons.decomposition import (
    compute_eta_breakdown,
    eta_evanescent,
    eta_plasmonic,
)
from casimir_plasmons.errors import (
    CasimirModelError,
    ContinuationError,
    ConvergenceFailure,
    DomainError,
    NoSolution,
)
from casimir_plasmons.modes import (
    BranchId,
    BranchKind,
    CoupledBranch,
    DispersionPoint,
    branch_constants,
    default_dispersion_grid,
    f_branch,
    g_branch,
    g_branch_combination,
    invert_branch,
    omega0,
    photonic_mode,
    sample_dispersion,
)
from casimir_plasmons.numerics import QuadratureSpec, find_root_bracketed
from casimir_plasmons.optics import Polarization, Sector


# ----------------------------------------------------------------------
# High-precision oracles
# ----------------------------------------------------------------------

_HYPERBOLIC = {
    CoupledBranch.PLUS: lambda s: mp.tanh(s / 2),
    CoupledBranch.MINUS: lambda s: mp.coth(s / 2),
    CoupledBranch.ZERO: lambda s: mp.mpf(1),
}


def _g_squared_oracle_positive(branch: CoupledBranch, z: float, omega_p: float) -> float:
    """40-digit evaluation of the hyperbolic branch formula for z > 0."""
    with mp.workdps(40):
        zz = mp.mpf(z)
        w = mp.mpf(omega_p)
        s = mp.sqrt(zz)
        coupling = _HYPERBOLIC[branch](s)
        return float(w**2 * s / (s + mp.sqrt(zz + w**2) * coupling))


def _g_squared_oracle_complex(z: float, omega_p: float) -> complex:
    """Complex-arithmetic continuation oracle for the plus branch, z < 0.

    The principal square root of a negative real is purely imaginary, which
    turns tanh into tan; no manual rewriting is involved.
    """
    with mp.workdps(40):
        zz = mp.mpc(z)
        w = mp.mpf(omega_p)
        root = mp.sqrt(zz)
        val = w**2 * root / (root + mp.sqrt(zz + w**2) * mp.tanh(root / 2))
        return complex(val)


def _g_squared_mp(branch: CoupledBranch, z, omega_p):
    """``g(z)^2`` of the hyperbolic form at the working precision.

    Below ``z = 0`` (plus branch) it is the real part of the same formula in
    complex arithmetic, as in :func:`_g_squared_oracle_complex`.
    """
    if z == 0:
        return omega_p**2 / (1 + omega_p / 2) if branch is CoupledBranch.PLUS else mp.mpf(0)
    s = mp.sqrt(mp.mpc(z))
    coupling = _HYPERBOLIC[branch](s)
    return mp.re(omega_p**2 * s / (s + mp.sqrt(z + omega_p**2) * coupling))


def _endpoint_oracle(omega_p: float) -> float:
    """``y_plus`` from a 50-digit bisection of the complex-form ``f_+(-u^2)``.

    The defect ``g_+(-u^2)^2 - u^2`` is positive below the endpoint and
    negative above it, up to ``u = min(Omega_P, pi)``.
    """
    with mp.workdps(50):
        w = mp.mpf(omega_p)
        lo, hi = mp.mpf(0), min(w, mp.pi)
        while hi - lo > mp.mpf("1e-25") * hi:
            mid = (lo + hi) / 2
            if _g_squared_mp(CoupledBranch.PLUS, -mid * mid, w) - mid * mid > 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def _frequency_oracle(branch: CoupledBranch, big_k: float, omega_p: float) -> float:
    """Branch frequency from a 50-digit bisection of ``g(K^2 - w)^2 - w`` in ``w``.

    The defect falls through 0 at ``w = Omega^2``; below the light-cone
    crossing the plus branch's root lies in ``[K^2, K^2 + min(Omega_P, pi)^2]``.
    While the bracket spans more than a factor 4 the midpoint is geometric
    (with 1e-700, below every float's square, standing in for ``lo = 0``), so
    a root far below ``K^2`` is reached in a few dozen steps.
    """
    with mp.workdps(50):
        k_sq, w_p = mp.mpf(big_k) ** 2, mp.mpf(omega_p)
        lo, hi = mp.mpf(0), k_sq
        if branch is CoupledBranch.PLUS and k_sq < w_p**2 / (1 + w_p / 2):
            lo, hi = k_sq, k_sq + min(w_p, mp.pi) ** 2
        for _ in range(400):
            if hi - lo <= mp.mpf("1e-16") * hi:
                break
            if lo == 0 or hi > 4 * lo:
                mid = mp.sqrt(max(lo, mp.mpf("1e-700")) * hi)
            else:
                mid = (lo + hi) / 2
            if _g_squared_mp(branch, k_sq - mid, w_p) - mid > 0:
                lo = mid
            else:
                hi = mid
        return float(mp.sqrt((lo + hi) / 2))


def _depth_oracle(omega_p: float) -> float:
    """60-digit ``k_P**2 - omega0(k_P)**2`` in the naive form, at
    ``k_P**2 = Omega_P**2 / (1 + Omega_P/2)``."""
    with mp.workdps(60):
        w = mp.mpf(omega_p)
        k_sq = w**2 / (1 + w / 2)
        return float(k_sq - (w**2 + 2 * k_sq - mp.sqrt(w**4 + 4 * k_sq**2)) / 2)


def _omega0_oracle(big_k: float, omega_p: float) -> float:
    """40-digit evaluation of the single-interface frequency (naive form)."""
    with mp.workdps(40):
        k = mp.mpf(big_k)
        w = mp.mpf(omega_p)
        return float(mp.sqrt((w**2 + 2 * k**2 - mp.sqrt(w**4 + 4 * k**4)) / 2))


# ----------------------------------------------------------------------
# Branch mode functions, positive arguments
# ----------------------------------------------------------------------


class TestBranchFunctionsPositive:
    def test_matches_high_precision_hyperbolic_forms(self) -> None:
        worst = 0.0
        for omega_p in (0.5, 2 * math.pi, 40.0):
            for z in (1e-6, 0.1, 1.0, 5.0, 20.0):
                for branch in CoupledBranch:
                    mine = g_branch(branch, z, omega_p) ** 2
                    oracle = _g_squared_oracle_positive(branch, z, omega_p)
                    worst = max(worst, abs(mine - oracle) / abs(oracle))
        assert worst < 1e-13

    def test_golden_minus_branch_value(self) -> None:
        assert g_branch(CoupledBranch.MINUS, 1.0, 5.0) == pytest.approx(
            1.441332789355065, rel=1e-13
        )

    def test_branch_ordering_minus_above_plus(self) -> None:
        # coth > tanh makes the minus-branch denominator larger, hence g smaller;
        # the *frequencies* order the other way around (checked in dispersion tests).
        for z in (0.01, 1.0, 10.0):
            g_plus = g_branch(CoupledBranch.PLUS, z, 3.0)
            g_minus = g_branch(CoupledBranch.MINUS, z, 3.0)
            g_zero = g_branch(CoupledBranch.ZERO, z, 3.0)
            assert g_minus < g_zero < g_plus

    def test_large_argument_branches_merge(self) -> None:
        omega_p = 2 * math.pi
        values = [g_branch(branch, 900.0, omega_p) for branch in CoupledBranch]
        assert max(values) - min(values) < 1e-10
        # and they approach the single-interface asymptote omega_p/sqrt(2)
        # (the approach is slow, O(omega_p^2/z))
        assert values[0] ** 2 == pytest.approx(omega_p**2 / 2, rel=2e-2)
        assert g_branch(CoupledBranch.PLUS, 4000.0, omega_p) ** 2 == pytest.approx(
            omega_p**2 / 2, rel=3e-3
        )

    def test_zero_argument_values(self) -> None:
        omega_p = 3.0
        # plus branch starts at the light-cone crossing scale, minus/zero at zero
        assert g_branch(CoupledBranch.MINUS, 0.0, omega_p) == 0.0
        assert g_branch(CoupledBranch.ZERO, 0.0, omega_p) == 0.0
        expected = math.sqrt(omega_p**2 / (1.0 + omega_p / 2.0))
        assert g_branch(CoupledBranch.PLUS, 0.0, omega_p) == pytest.approx(expected, rel=1e-14)

    @given(
        z_lo=st.floats(min_value=1e-4, max_value=30.0),
        scale=st.floats(min_value=1.01, max_value=4.0),
        omega_p=st.floats(min_value=0.2, max_value=60.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_mode_frequencies_increase_with_argument(
        self, z_lo: float, scale: float, omega_p: float
    ) -> None:
        z_hi = z_lo * scale
        for branch in CoupledBranch:
            f_lo = f_branch(branch, z_lo, omega_p)
            f_hi = f_branch(branch, z_hi, omega_p)
            assert f_hi > f_lo

    def test_f_is_z_plus_g_squared(self) -> None:
        for branch in CoupledBranch:
            z = 2.5
            total = f_branch(branch, z, 4.0)
            assert total == pytest.approx(z + g_branch(branch, z, 4.0) ** 2, rel=1e-15)


# ----------------------------------------------------------------------
# Analytic continuation (plus branch, z < 0)
# ----------------------------------------------------------------------


class TestContinuation:
    def test_matches_complex_arithmetic_oracle(self) -> None:
        rng = np.random.default_rng(20240817)
        worst = 0.0
        for omega_p in (0.5, 2.0, 3 * math.pi, 50.0):
            z_end = branch_constants(omega_p).z_plus0
            for _ in range(25):
                frac = 1e-9 + (1.0 - 2e-9) * float(rng.random())
                z = -z_end * frac
                mine = g_branch(CoupledBranch.PLUS, z, omega_p) ** 2
                oracle = _g_squared_oracle_complex(z, omega_p)
                scale = max(1.0, abs(oracle))
                worst = max(worst, abs(mine - oracle.real) / scale)
                # the continued value must stay real
                assert abs(oracle.imag) / scale < 1e-25
        assert worst < 1e-12

    def test_continuation_is_smooth_through_zero(self) -> None:
        omega_p = 2 * math.pi
        left = g_branch(CoupledBranch.PLUS, -1e-9, omega_p)
        centre = g_branch(CoupledBranch.PLUS, 0.0, omega_p)
        right = g_branch(CoupledBranch.PLUS, 1e-9, omega_p)
        assert left == pytest.approx(centre, rel=1e-8)
        assert right == pytest.approx(centre, rel=1e-8)

    def test_window_violation_raises_continuation_error(self) -> None:
        # u = sqrt(-z) must stay below pi: here u = 4 > pi while omega_p = 10
        with pytest.raises(ContinuationError):
            g_branch(CoupledBranch.PLUS, -16.0, 10.0)
        # ...and below omega_p: here u ~ 0.548 > 0.5
        with pytest.raises(ContinuationError):
            g_branch(CoupledBranch.PLUS, -0.3, 0.5)

    def test_beyond_endpoint_raises_domain_error(self) -> None:
        omega_p = 2 * math.pi
        z_end = branch_constants(omega_p).z_plus0
        with pytest.raises(DomainError):
            f_branch(CoupledBranch.PLUS, -z_end * 1.01, omega_p)

    def test_negative_argument_other_branches_rejected(self) -> None:
        with pytest.raises(DomainError):
            f_branch(CoupledBranch.MINUS, -0.1, 1.0)
        with pytest.raises(DomainError):
            g_branch(CoupledBranch.ZERO, -0.1, 1.0)


# ----------------------------------------------------------------------
# Branch constants
# ----------------------------------------------------------------------


class TestBranchConstants:
    def test_lightcone_crossing_closed_form(self) -> None:
        omega_p = 2.0
        constants = branch_constants(omega_p)
        assert constants.k_P == pytest.approx(math.sqrt(2.0), rel=1e-15)
        expected = omega_p / math.sqrt(1.0 + omega_p / 2.0)
        assert constants.k_P == pytest.approx(expected, rel=1e-14)

    def test_endpoint_against_independent_bisection(self) -> None:
        # Below 9.05e-8 the endpoint once lay inside a bracket margin of
        # 1e-15 (InvalidBracket); below 4e-8 it rounds to Omega_P itself.
        for omega_p in (1e-150, 1e-50, 1e-8, 1e-3, 0.5, 2 * math.pi, 3 * math.pi, 50.0, 1e15):
            constants = branch_constants(omega_p)
            oracle = _endpoint_oracle(omega_p)
            assert constants.z_plus0 > 0.0
            assert constants.y_plus == pytest.approx(oracle, rel=2.3e-16, abs=0.0)
            assert constants.z_plus0 == pytest.approx(oracle**2, rel=5e-16, abs=0.0)

    def test_endpoint_annihilates_plus_branch_frequency(self) -> None:
        omega_p = 2 * math.pi
        constants = branch_constants(omega_p)
        residual = f_branch(CoupledBranch.PLUS, -constants.z_plus0, omega_p)
        assert abs(residual) < 1e-9

    def test_evanescent_depth_is_negative_of_crossing_argument(self) -> None:
        omega_p = 3 * math.pi
        constants = branch_constants(omega_p)
        assert constants.z_0P < 0.0
        expected = constants.k_P**2 - omega0(constants.k_P, omega_p) ** 2
        assert -constants.z_0P == pytest.approx(expected, rel=1e-10)

    def test_evanescent_depth_against_high_precision_oracle(self) -> None:
        # k_P**2 - omega0(k_P)**2, formed as a difference, cancelled at large
        # Omega_P (1.5e-13 relative at 1e3, 1.2e-8 at 1e8); its closed form
        # keeps every digit.
        for omega_p in (1e-150, 1e-8, 0.5, 3 * math.pi, 1e3, 1e5, 1e8, 1e12, 1e15):
            depth = -branch_constants(omega_p).z_0P
            assert depth == pytest.approx(_depth_oracle(omega_p), rel=1e-15, abs=0.0)

    def test_validation(self) -> None:
        with pytest.raises(DomainError):
            branch_constants(0.0)
        with pytest.raises(DomainError):
            branch_constants(-1.0)
        with pytest.raises(DomainError):
            branch_constants(True)  # type: ignore[arg-type]
        with pytest.raises(DomainError):
            branch_constants(float("nan"))
        # beyond 1e15 the plus-branch endpoint is closer to pi than its bracket
        assert branch_constants(1e15).y_plus < math.pi
        for omega_p in (2e15, 1e200):
            with pytest.raises(DomainError):
                branch_constants(omega_p)
        # below 1.5e-154 its endpoint equation underflows (the root would
        # round onto the bracket's lower end, 1e-15 * Omega_P)
        for omega_p in (1e-155, 1e-200, 1e-300):
            with pytest.raises(DomainError):
                branch_constants(omega_p)


# ----------------------------------------------------------------------
# Single-interface frequency
# ----------------------------------------------------------------------


class TestOmega0:
    def test_matches_high_precision_oracle(self) -> None:
        worst = 0.0
        for omega_p in (0.5, 2 * math.pi, 100.0):
            for big_k in (1e-8, 1e-3, 0.1, 1.0, 10.0, 1e4):
                mine = omega0(big_k, omega_p)
                oracle = _omega0_oracle(big_k, omega_p)
                worst = max(worst, abs(mine - oracle) / oracle)
        assert worst < 1e-14

    def test_cancellation_regime_small_wavevector(self) -> None:
        # naive evaluation loses ~all digits here; the rationalised form must not
        omega_p = 100.0
        big_k = 1e-6
        assert omega0(big_k, omega_p) == pytest.approx(
            _omega0_oracle(big_k, omega_p), rel=1e-13
        )

    def test_limits(self) -> None:
        omega_p = 2 * math.pi
        assert omega0(0.0, omega_p) == 0.0
        # stays below the light line...
        for big_k in (0.1, 1.0, 5.0):
            assert omega0(big_k, omega_p) < big_k
        # ...and saturates at the single-interface asymptote
        assert omega0(1e6, omega_p) == pytest.approx(omega_p / math.sqrt(2.0), rel=1e-10)

    def test_monotone_in_wavevector(self) -> None:
        grid = np.geomspace(1e-4, 1e3, 200)
        values = [omega0(float(k), 5.0) for k in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_validation(self) -> None:
        with pytest.raises(DomainError):
            omega0(-1.0, 1.0)
        with pytest.raises(DomainError):
            omega0(1.0, 0.0)


# ----------------------------------------------------------------------
# Cancellation-free branch combination
# ----------------------------------------------------------------------


class TestBranchCombination:
    def test_agrees_with_naive_sum_at_moderate_arguments(self) -> None:
        for omega_p in (0.5, 2 * math.pi, 40.0):
            for z in np.geomspace(1e-4, 20.0, 40):
                stable = g_branch_combination(float(z), omega_p)
                naive = (
                    g_branch(CoupledBranch.PLUS, float(z), omega_p)
                    + g_branch(CoupledBranch.MINUS, float(z), omega_p)
                    - 2.0 * g_branch(CoupledBranch.ZERO, float(z), omega_p)
                )
                assert stable == pytest.approx(naive, abs=5e-12 * omega_p)

    def test_matches_high_precision_oracle_at_large_arguments(self) -> None:
        # the naive sum loses all significance here; mpmath keeps every digit
        for omega_p in (0.5, 2 * math.pi, 100.0):
            for z in (1.0, 25.0, 100.0, 400.0):
                with mp.workdps(60):
                    zz, w = mp.mpf(z), mp.mpf(omega_p)
                    s = mp.sqrt(zz)
                    terms = []
                    for coupling in (mp.tanh(s / 2), mp.coth(s / 2), mp.mpf(1)):
                        terms.append(mp.sqrt(w**2 * s / (s + mp.sqrt(zz + w**2) * coupling)))
                    oracle = float(terms[0] + terms[1] - 2 * terms[2])
                stable = g_branch_combination(z, omega_p)
                assert stable == pytest.approx(oracle, rel=1e-13)

    def test_zero_argument_equals_plus_branch_alone(self) -> None:
        omega_p = 3.0
        assert g_branch_combination(0.0, omega_p) == g_branch(
            CoupledBranch.PLUS, 0.0, omega_p
        )

    def test_decays_at_large_argument(self) -> None:
        omega_p = 2 * math.pi
        assert abs(g_branch_combination(400.0, omega_p)) < 1e-6

    def test_validation(self) -> None:
        with pytest.raises(DomainError):
            g_branch_combination(-1.0, 1.0)
        with pytest.raises(DomainError):
            g_branch_combination(1.0, -1.0)


# ----------------------------------------------------------------------
# Inversion
# ----------------------------------------------------------------------


class TestInversion:
    def test_frequencies_match_independent_bisection(self) -> None:
        # Every 20th wavevector of the three pinned 400-point dispersion
        # tables, and a few more.  Where Omega**2 is far below K**2 (the minus
        # branch at 1e-3) a root find in z = K**2 - Omega**2 to an absolute
        # tolerance loses Omega's digits.
        for omega_p in (1e-3, 3 * math.pi, 1e4):
            grid = default_dispersion_grid(omega_p, 400)[::20].tolist()
            for big_k in grid + [0.05, 0.5, 2.0, 8.0, 30.0]:
                for branch in CoupledBranch:
                    assert invert_branch(branch, big_k, omega_p) == pytest.approx(
                        _frequency_oracle(branch, big_k, omega_p), rel=1e-13, abs=0.0
                    ), (branch, big_k, omega_p)

    def test_implicit_equation_round_trip(self) -> None:
        # at the returned frequency, z = K^2 - Omega^2 satisfies f(z) = K^2,
        # equivalently g(z) = Omega
        omega_p = 2 * math.pi
        for branch in CoupledBranch:
            for big_k in (0.3, 1.5, 6.0):
                omega = invert_branch(branch, big_k, omega_p)
                z = big_k**2 - omega**2
                assert f_branch(branch, z, omega_p) == pytest.approx(
                    big_k**2, rel=1e-9
                )
                assert g_branch(branch, z, omega_p) == pytest.approx(omega, rel=1e-9)

    def test_plus_branch_lightcone_crossing(self) -> None:
        omega_p = 3 * math.pi
        k_p = branch_constants(omega_p).k_P
        assert invert_branch(CoupledBranch.PLUS, k_p, omega_p) == pytest.approx(
            k_p, rel=1e-10
        )

    def test_plus_branch_tiny_wavevector_limit(self) -> None:
        omega_p = 3 * math.pi
        constants = branch_constants(omega_p)
        assert invert_branch(CoupledBranch.PLUS, 1e-12, omega_p) == pytest.approx(
            constants.y_plus, rel=1e-9
        )

    def test_tiny_wavevector_at_small_plasma_parameter(self) -> None:
        # Omega**2 is about Omega_P * K**2 / 2 = 5e-261 here, and Brent's
        # interpolation products underflow to 0 on the way to it.
        big_k, omega_p = 1e-120, 1e-20
        assert invert_branch(CoupledBranch.MINUS, big_k, omega_p) == pytest.approx(
            _frequency_oracle(CoupledBranch.MINUS, big_k, omega_p), rel=1e-13, abs=0.0
        )

    def test_tiny_wavevector_at_tiny_plasma_parameter(self) -> None:
        # Every branch frequency is an ordinary float here, but the solve in
        # w = Omega**2 on [0, K**2] raised ConvergenceFailure on all three:
        # Brent's interpolation products underflowed, and bisection needs
        # more than its 200 halvings to get from 1e-120 down to w.
        big_k, omega_p = 1e-60, 1e-100
        for branch, approx in zip(CoupledBranch, (1e-100, 7.07e-131, 7.07e-101)):
            oracle = _frequency_oracle(branch, big_k, omega_p)
            assert oracle == pytest.approx(approx, rel=1e-3)
            value = invert_branch(branch, big_k, omega_p)
            assert abs(value - oracle) <= 4.0 * math.ulp(oracle), branch

    def test_wavevector_whose_square_is_not_normal_raises(self) -> None:
        # K**2 rounds to 0 at 1e-200, where the zero branch returned 0.0
        # (mpmath: 1e-200); the plus branch is gated the same way.
        for branch in CoupledBranch:
            with pytest.raises(DomainError, match=r"K\*\*2 is not a normal float"):
                invert_branch(branch, 1e-200, 1.0)

    def test_plasma_parameter_below_the_surface_domain_raises(self) -> None:
        # g**2 underflows at 1e-300, where the minus branch returned 0.0 for
        # every K (mpmath: 5.6e-301 at K = 1); branch_constants' bound holds
        # for every branch.
        for branch in CoupledBranch:
            with pytest.raises(DomainError, match="below 1.5e-154"):
                invert_branch(branch, 1.0, 1e-300)

    def test_subnormal_squared_frequency_raises(self) -> None:
        # Omega**2 is about Omega_P * K**2 / 2 = 5e-321 here: subnormal, and
        # the minus branch returned 7.07e-161, 5e-4 off.
        with pytest.raises(DomainError, match=r"Omega\*\*2=.* is not a normal float"):
            invert_branch(CoupledBranch.MINUS, 1e-150, 1e-20)

    def test_zero_wavevector_shortcuts(self) -> None:
        assert invert_branch(CoupledBranch.MINUS, 0.0, 2.0) == 0.0
        assert invert_branch(CoupledBranch.ZERO, 0.0, 2.0) == 0.0

    def test_validation(self) -> None:
        with pytest.raises(DomainError):
            invert_branch(CoupledBranch.MINUS, -1.0, 2.0)
        with pytest.raises(DomainError):
            invert_branch(CoupledBranch.PLUS, 1.0, 0.0)


# ----------------------------------------------------------------------
# Guided photonic modes
# ----------------------------------------------------------------------


class TestPhotonicModes:
    def test_perfect_cavity_limit(self) -> None:
        # at huge plasma frequency the walls are ideal: Q -> pi m / 1
        value = photonic_mode(Polarization.TE, 1, 0.0, 1e6)
        assert value == pytest.approx(math.pi, abs=1e-4)
        value_tm = photonic_mode(Polarization.TM, 2, math.pi, 1e6)
        assert value_tm == pytest.approx(math.pi * math.sqrt(5.0), abs=1e-4)

    def test_golden_first_tm_mode_meets_plus_branch(self) -> None:
        # above the light cone the first TM guided mode continues the plus branch
        omega_p = 3 * math.pi
        big_k = branch_constants(omega_p).k_P / 2.0
        value = photonic_mode(Polarization.TM, 1, big_k, omega_p)
        assert value == pytest.approx(3.017280146200111, abs=1e-12)
        assert invert_branch(CoupledBranch.PLUS, big_k, omega_p) == pytest.approx(
            value, rel=1e-10
        )

    def test_mode_ladder_is_increasing(self) -> None:
        values = [photonic_mode(Polarization.TE, m, 1.0, 20.0) for m in (1, 2, 3, 4)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_modes_are_propagative(self) -> None:
        for big_k in (0.0, 0.5, 2.0):
            omega = photonic_mode(Polarization.TE, 1, big_k, 20.0)
            assert omega > big_k

    def test_no_solution_when_order_exceeds_confinement(self) -> None:
        # a TE mode of order m only fits if pi*m < omega_p + pi
        with pytest.raises(NoSolution):
            photonic_mode(Polarization.TE, 2, 0.5, 1.0)

    def test_root_above_the_scan_grid_next_to_the_plasma_edge(self) -> None:
        # Just above the TE m=2 cut-off the defect is -2.8e-6 at the grid's
        # top q_hi and +1e-7 at Omega_P: the root lies in (q_hi, Omega_P].
        omega_p = math.pi + 1e-7
        with mp.workdps(50):
            w = mp.mpf(omega_p)
            q = mp.findroot(
                lambda x: x + 2 * mp.asin(x / w) - 2 * mp.pi,
                (w * (1 - mp.mpf("1e-12")), w),
                solver="illinois",
            )
            oracle = float(mp.sqrt(1 + q * q))
        value = photonic_mode(Polarization.TE, 2, 1.0, omega_p)
        assert value == pytest.approx(3.29690840476466, rel=1e-14)
        assert value == pytest.approx(oracle, rel=1e-14)

    @pytest.mark.parametrize("pol", list(Polarization))
    def test_first_mode_at_tiny_plasma_parameter(self, pol: Polarization) -> None:
        # The m=1 root sits within about Omega_P**3 / 8 of Omega_P, far above
        # q_hi = Omega_P * (1 - 1e-12), where the defect is still -2.8e-6.
        omega_p = 1e-8
        q_hi = omega_p * (1.0 - 1e-12)
        assert q_hi <= photonic_mode(pol, 1, 0.0, omega_p) <= omega_p

    @pytest.mark.parametrize("omega_p", [1e-5, 1e-4])
    def test_small_root_keeps_its_relative_accuracy(self, omega_p: float) -> None:
        # The TE m=1 root is Q ~ Omega_P (1 - Omega_P**2 / 8): an absolute
        # root tolerance of 1e-12 would leave up to 1e-8 of it unresolved.
        with mp.workdps(50):
            w = mp.mpf(omega_p)
            oracle = float(
                mp.findroot(
                    lambda x: x + 2 * mp.asin(x / w) - mp.pi,
                    (w * (1 - mp.mpf("1e-6")), w),
                    solver="illinois",
                )
            )
        value = photonic_mode(Polarization.TE, 1, 0.0, omega_p)
        assert value == pytest.approx(oracle, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("omega_p", [1e-16, 1e-50, 1e-300])
    def test_first_te_mode_below_an_ulp_of_pi(self, omega_p: float) -> None:
        # The defect at Omega_P, Omega_P + 2*asin(1) - pi, rounds to 0 here;
        # exactly it is Omega_P > 0, and the root Omega_P*(1 - Omega_P**2/8)
        # rounds to Omega_P.
        assert photonic_mode(Polarization.TE, 1, 0.0, omega_p) == omega_p
        assert photonic_mode(Polarization.TE, 1, 1.0, omega_p) == 1.0

    def test_subnormal_plasma_parameter_keeps_a_positive_root_tolerance(self) -> None:
        # q_hi is subnormal here; the root find's absolute floor of 4
        # subnormal ulp still resolves the mode, which lies at Omega_P.
        omega_p = 1e-312
        assert photonic_mode(Polarization.TE, 1, 0.0, omega_p) == omega_p
        assert photonic_mode(Polarization.TE, 1, 1.0, omega_p) == 1.0

    @pytest.mark.parametrize("omega_p", [1e-9, 1e-30, 1e-60, 1e-74, 1e-160, 1e-200, 1e-300])
    def test_tm_modes_at_small_plasma_parameter(self, omega_p: float) -> None:
        # A TM defect in unscaled Q rounds Q away next to pi*m here (m = 2
        # missed its mode at the plasma edge, m = 1 at K = Omega_P returned
        # Omega_P) and divides 0 by 0 where Omega_P**2 underflows.  The form
        # in Q/Omega_P and K/Omega_P finds each mode that exists, within the
        # root find's 4 ulp, and no other.
        mismatches = []
        for big_k in (0.0, omega_p, 1e-3, 1.0):
            for m in (1, 2, 3):
                try:
                    value = photonic_mode(Polarization.TM, m, big_k, omega_p)
                except NoSolution:
                    value = None
                oracle = _mp_tm_mode(m, big_k, omega_p)
                if (value is None) != (oracle is None) or (
                    value is not None and abs(value - oracle) > 1e-15 * oracle
                ):
                    mismatches.append((big_k, m, value, oracle))
        assert mismatches == []

    @pytest.mark.parametrize("pol", list(Polarization))
    def test_scan_grid_underflow_is_a_domain_error(self, pol: Polarization) -> None:
        # The scan grid starts at q_hi * 1e-8, which is 0 below about 5e-316.
        with pytest.raises(DomainError, match="Omega_P=1e-318"):
            photonic_mode(pol, 1, 1.0, 1e-318)

    @pytest.mark.parametrize("pol, m", [(Polarization.TE, 4), (Polarization.TM, 5)])
    def test_no_mode_at_its_cut_off(self, pol: Polarization, m: int) -> None:
        # At Omega_P = 3*pi the defect at Omega_P is exactly 0: the cut-off.
        with pytest.raises(NoSolution):
            photonic_mode(pol, m, 1.0, 3 * math.pi)

    def test_validation(self) -> None:
        with pytest.raises(DomainError):
            photonic_mode(Polarization.TE, 0, 1.0, 1.0)
        with pytest.raises(DomainError):
            photonic_mode(Polarization.TE, -1, 1.0, 1.0)
        with pytest.raises(DomainError):  # an int m beyond the float range
            photonic_mode(Polarization.TE, 2**1100, 1.0, 5.0)
        with pytest.raises(DomainError):
            photonic_mode(Polarization.TM, 1, -0.5, 1.0)
        with pytest.raises(DomainError):
            photonic_mode(Polarization.TM, 1, 0.5, 0.0)
        # lower-case names coerce to the enum; unknown names are domain errors
        assert photonic_mode("te", 1, 1.0, 5.0) == photonic_mode(
            Polarization.TE, 1, 1.0, 5.0
        )
        with pytest.raises(DomainError):
            photonic_mode("circular", 1, 1.0, 5.0)


def _mp_tm_mode(m: int, big_k: float, omega_p: float):
    """The TM mode frequency from the exact phase defect, or ``None``.

    The root is located as :func:`photonic_mode` locates it: the first sign
    change on the 200-point scan grid, else the cell ``[q_hi, min(pi*m,
    Omega_P)]`` when the defect there rises to a positive value at
    ``Omega_P``, where the transverse decay vanishes and the defect is
    ``Omega_P + 2*pi - pi*m`` (atan2 of 0 and a non-positive number is pi).
    The defect is evaluated at 400 digits, which resolve ``Q ~ Omega_P``
    next to ``pi*m``, and its root bisected to 50.
    """
    with mp.workdps(400):
        w, k = mp.mpf(omega_p), mp.mpf(big_k)

        def defect(q):
            if q == w:
                return w + mp.pi * (2 - m)
            eps = 1 - w**2 / (k**2 + q**2)
            return q + 2 * mp.atan2(mp.sqrt(w**2 - q**2), -eps * q) - mp.pi * m

        q_top = min(mp.pi * m, w)
        q_hi = q_top * (1 - mp.mpf("1e-12"))
        grid = [q_hi * mp.mpf(10) ** (8 * mp.mpf(i) / 199 - 8) for i in range(200)]
        values = [defect(q) for q in grid]
        cells = [
            (grid[i], grid[i + 1]) for i in range(199) if (values[i] < 0) != (values[i + 1] < 0)
        ]
        if cells:
            lo, hi = cells[0]
        elif values[-1] < 0 and (mp.pi * m < w or defect(w) > 0):
            lo, hi = q_hi, q_top
        else:
            return None
        below = defect(lo) < 0
        for _ in range(200):
            mid = (lo + hi) / 2
            if (defect(mid) < 0) == below:
                lo = mid
            else:
                hi = mid
        return float(mp.sqrt(k**2 + lo**2))


def _photonic_mode_reference(pol: Polarization, m: int, big_k: float, omega_p: float):
    """The scalar 200-point bracket scan that photonic_mode vectorised.

    Returns the frequency, or ``None`` where it raised :class:`NoSolution`.
    Without a sign change on the grid it closes the scan with the cell
    ``[q_hi, min(pi*m, omega_p)]``, as photonic_mode does: there the root
    can lie above ``q_hi``.  The TM defect is taken in ``q / omega_p`` and
    ``big_k / omega_p`` (capped at 1e150), whose squares cannot overflow or
    underflow, with ``q`` added last.
    """

    def phase_defect(q: float) -> float:
        if pol is Polarization.TE:
            return q + 2.0 * math.asin(min(q / omega_p, 1.0)) - math.pi * m
        # Both atan2 arguments multiplied by (big_k**2 + q**2) / omega_p**3.
        k = min(big_k, 1e150 * omega_p) / omega_p
        q_r = q / omega_p
        rho_sq = k * k + q_r * q_r
        transverse_decay = rho_sq * math.sqrt(max((1.0 - q_r) * (1.0 + q_r), 0.0))
        return q + (2.0 * math.atan2(transverse_decay, -(q_r * (rho_sq - 1.0))) - math.pi * m)

    q_hi = min(math.pi * m, omega_p) * (1.0 - 1e-12)
    grid = np.geomspace(q_hi * 1e-8, q_hi, 200)
    values = [phase_defect(q) for q in grid]
    for i in range(len(grid) - 1):
        if values[i] == 0.0:
            return math.hypot(big_k, float(grid[i]))
        if (values[i] < 0.0) != (values[i + 1] < 0.0):
            q = find_root_bracketed(phase_defect, float(grid[i]), float(grid[i + 1]))
            return math.hypot(big_k, q)
    if values[-1] == 0.0:
        return math.hypot(big_k, float(grid[-1]))
    pi_m = math.pi * m
    # The TE defect at omega_p is exactly omega_p - pi*(m - 1).
    at_edge = omega_p - math.pi * (m - 1) if pol is Polarization.TE else phase_defect(omega_p)
    if values[-1] < 0.0 and (pi_m < omega_p or at_edge > 0.0):
        q = find_root_bracketed(phase_defect, q_hi, min(pi_m, omega_p))
        return math.hypot(big_k, q)
    return None


class TestPhotonicModeScan:
    def test_bit_identical_to_scalar_scan(self) -> None:
        # The dense band is where numpy's arcsin/arctan2 in Brent's iterates
        # would change last bits; 3*pi puts the plasma edge exactly on
        # pi*(m-1) for TE m=4 and TM m=5.
        # sample_dispersion solves each branch once for all five K (a TE root,
        # a TM column of K against the scan grid) and must give the same
        # rows, skipping exactly the K without a mode; at 1e80, 1e200,
        # 1e-100 and 1e-300 the TM column has K/Omega_P far from 1, and at
        # 1e-300 its cap of 1e150.
        omega_ps = np.concatenate(
            (
                np.geomspace(1e-8, 1e12, 41),
                np.geomspace(0.1, 100.0, 37),
                [3 * math.pi, 1e80, 1e200, 1e-100, 1e-300],
            )
        ).tolist()
        mismatches = []
        for omega_p in omega_ps:
            for pol in Polarization:
                for m in range(1, 6):
                    ks = (0.0, 1e-3, 1.0, math.pi * m, 100.0)
                    references = [
                        _photonic_mode_reference(pol, m, big_k, omega_p) for big_k in ks
                    ]
                    for big_k, reference in zip(ks, references):
                        try:
                            value = photonic_mode(pol, m, big_k, omega_p)
                        except NoSolution:
                            value = None
                        if value != reference:
                            mismatches.append((pol, m, big_k, omega_p, value, reference))
                    branch = BranchId(BranchKind.PHOTONIC, pol, m=m)
                    ((_, points),) = sample_dispersion(omega_p, ks, [branch])
                    rows = [(pt.K, pt.Omega) for pt in points]
                    expected = [(k, r) for k, r in zip(ks, references) if r is not None]
                    if rows != expected:
                        mismatches.append((pol, m, omega_p, rows, expected))
        assert mismatches == []

    def test_one_scan_per_branch_and_block(self, monkeypatch) -> None:
        # 400 K and m <= 3 at 3*pi: a scan per point would evaluate the
        # array defect 2,400 times, and solve every TE point anew.
        omega_p = 3 * math.pi
        grid = default_dispersion_grid(omega_p, points=400)
        scans = {}  # (pol, m) -> shapes of the array evaluations
        solves = {}  # (pol, m) -> Brent solves
        branch_of = {}  # scalar defect -> (pol, m)
        phase_defect, brentq = modes._phase_defect, numerics.brentq

        def counted_phase_defect(pol, m, big_k, omega_p, ops):
            defect = phase_defect(pol, m, big_k, omega_p, ops)
            if ops is not modes._ARRAY_OPS:
                branch_of[defect] = (pol, m)
                return defect

            def evaluate(q):
                values = defect(q)
                scans.setdefault((pol, m), []).append(values.shape)
                return values

            return evaluate

        def counted_brentq(f, *args):
            solves[branch_of[f]] = solves.get(branch_of[f], 0) + 1
            return brentq(f, *args)

        monkeypatch.setattr(modes, "_phase_defect", counted_phase_defect)
        monkeypatch.setattr(numerics, "brentq", counted_brentq)
        branches = [
            BranchId(BranchKind.PHOTONIC, pol, m=m)
            for pol in Polarization
            for m in (1, 2, 3)
        ]
        rows_per_block = 8192 // 200
        for branch, points in sample_dispersion(omega_p, grid, branches):
            key = (branch.pol, branch.m)
            if branch.pol is Polarization.TE:
                # One 200-point scan and at most one root for every K.
                assert scans[key] == [(1, 200)]
                assert solves.get(key, 0) <= 1
                assert len(points) in (0, len(grid))
            else:
                # One evaluation per block of at most 8192 nodes, one root
                # per found point.
                assert scans[key] == [(rows_per_block, 200)] * 10
                assert solves.get(key, 0) == len(points) > 0

    def test_ideal_limit_beyond_the_scan_grid(self) -> None:
        # From Omega_P ~ 3e12 the root lies in the closing cell [q_hi, pi*m];
        # from ~1e154 the TM phase's Omega_P**2 overflows.
        for pol in Polarization:
            for m in (1, 2, 5):
                for omega_p in (3e12, 1e13, 1e16, 1e100, 1e155, 1e300):
                    value = photonic_mode(pol, m, 1.0, omega_p)
                    ideal = math.hypot(1.0, math.pi * m)
                    # Plus the same rounding allowance as the property below:
                    # at 1e16 the physical bound is below 2 ulp.
                    assert abs(value / ideal - 1.0) <= 4.0 * m / omega_p + 8.0 * 2.0**-52


class TestHugePlasmaParameter:
    """Beyond ``Omega_P ~ 1e154`` the square ``Omega_P**2`` overflows."""

    def test_omega0_matches_high_precision_oracle(self) -> None:
        for big_k, omega_p in ((1.0, 1e200), (1e100, 1e100), (1e300, 1.0), (5.0, 1e80)):
            with mp.workdps(40):
                k, w = mp.mpf(big_k), mp.mpf(omega_p)
                oracle = float(mp.sqrt(2 * k**2 * w**2 / (w**2 + 2 * k**2 + mp.sqrt(w**4 + 4 * k**4))))
            assert omega0(big_k, omega_p) == pytest.approx(oracle, rel=1e-15)

    def test_branch_combination_matches_high_precision_oracle(self) -> None:
        for z, omega_p in ((2500.0, 1e200), (1.0, 1e80), (1e160, 3.0)):
            with mp.workdps(700):
                zz, w = mp.mpf(z), mp.mpf(omega_p)
                s = mp.sqrt(zz)
                terms = [
                    mp.sqrt(w**2 * s / (s + mp.sqrt(zz + w**2) * coupling))
                    for coupling in (mp.tanh(s / 2), mp.coth(s / 2), mp.mpf(1))
                ]
                oracle = float(terms[0] + terms[1] - 2 * terms[2])
            assert g_branch_combination(z, omega_p) == pytest.approx(oracle, rel=1e-13)

    @pytest.mark.parametrize("omega_p", [1e75, 1e76, 1e154, 1e160, 1e200, 1e300])
    def test_branch_functions_match_high_precision_oracle(self, omega_p: float) -> None:
        # Where g**2 is representable the ratio form keeps both functions finite
        # and accurate, although Omega_P**2 overflows from about 1.3e154 (and
        # Omega_P * coth(sqrt(z)/2) at z = 1e-306 from about 1e155).
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for z in (1e-306, 1e-6, 1.0, 1e4):
                for branch in CoupledBranch:
                    oracle = _g_squared_oracle_positive(branch, z, omega_p)
                    assert g_branch(branch, z, omega_p) == pytest.approx(
                        math.sqrt(oracle), rel=1e-14, abs=0.0
                    )
                    assert f_branch(branch, z, omega_p) == pytest.approx(
                        z + oracle, rel=1e-14, abs=0.0
                    )

    def test_minus_branch_frequency_next_to_the_light_cone(self) -> None:
        # Omega = K (1 - O(1/Omega_P)); with g_minus 0 for z below about 1e-150
        # the solve in w stopped 6e-11 short of K at 1e300.
        for omega_p in (1e200, 1e300):
            assert invert_branch(CoupledBranch.MINUS, 1e-3, omega_p) == pytest.approx(
                1e-3, rel=4e-16
            )

    @pytest.mark.parametrize(
        "z, omega_p",
        [(1e300, 1e160), (1e20, 1e300), (1e200, 1e300), (1e300, 1e300), (1e300, 1e200)],
    )
    def test_g_is_finite_where_its_square_overflows(self, z: float, omega_p: float) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for branch in CoupledBranch:
                with mp.workdps(40):
                    s, w = mp.sqrt(mp.mpf(z)), mp.mpf(omega_p)
                    g_sq = w**2 * s / (s + mp.sqrt(s**2 + w**2) * _HYPERBOLIC[branch](s))
                    oracle = float(mp.sqrt(g_sq))
                    assert g_sq > mp.mpf(sys.float_info.max)
                assert g_branch(branch, z, omega_p) == pytest.approx(oracle, rel=1e-14)
                assert g_branch(branch, np.array([z, z]), omega_p) == pytest.approx(
                    [oracle, oracle], rel=1e-14
                )
            # The plus branch at z = 0: g^2 = Omega_P^2 / (1 + Omega_P/2).
            with mp.workdps(40):
                oracle = float(mp.sqrt(mp.mpf(1e308) ** 2 / (1 + mp.mpf(1e308) / 2)))
            assert g_branch(CoupledBranch.PLUS, 0.0, 1e308) == pytest.approx(oracle, rel=1e-14)
            assert g_branch_combination(0.0, 1e308) == pytest.approx(oracle, rel=1e-14)

    @pytest.mark.parametrize(
        "z, omega_p",
        [(1e300, 1e160), (1e20, 1e300), (1e200, 1e300), (1e300, 1e300), (1e300, 1e200)],
    )
    def test_f_overflow_raises_domain_error(self, z: float, omega_p: float) -> None:
        # There g is finite but f = z + g**2 is not: a typed error, no warning,
        # for a scalar and for an array holding one such z.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for branch in CoupledBranch:
                with pytest.raises(DomainError, match="overflows"):
                    f_branch(branch, z, omega_p)
                with pytest.raises(DomainError, match="overflows"):
                    f_branch(branch, np.array([1.0, z]), omega_p)

    @pytest.mark.parametrize(
        "branch, z, omega_p, f_bits, g_bits",
        [
            ("plus", -0.25, 2 * math.pi, "0x1.24e4645c41782p+3", "0x1.88802c962b6e0p+1"),
            ("plus", 0.0, 1e-3, "0x1.0c4d2258e4e07p-20", "0x1.061417d39f118p-10"),
            ("plus", 7.0, 2 * math.pi, "0x1.333c4f4135683p+4", "0x1.bf2022a4fbe74p+1"),
            ("minus", 1e-3, 1e-3, "0x1.0625e870a4f86p-10", "0x1.0591459864804p-13"),
            ("minus", 7.0, 1e75, "0x1.44c1baa99de08p+250", "0x1.20560d376ffa1p+125"),
            ("zero", 1e4, 1e75, "0x1.ba2bfd0d5ff5bp+255", "0x1.dbce813831a70p+127"),
            ("zero", 0.5, 3.0, "0x1.16f8334644df8p+1", "0x1.4bc2720600b84p+0"),
        ],
    )
    def test_branch_functions_keep_their_bits_up_to_the_ratio_form(
        self, branch, z, omega_p, f_bits, g_bits
    ) -> None:
        # Pinned from the libm evaluation of the one scaled form of each
        # branch function.  The rows (plus, 0, 1e-3), (zero, 1e4, 1e75) and
        # (zero, 0.5, 3) moved by one ulp when that form replaced the plain
        # one; each is within an ulp of the 50-digit hyperbolic form.
        assert f_branch(branch, z, omega_p).hex() == f_bits
        assert g_branch(branch, z, omega_p).hex() == g_bits

    def test_branch_functions_take_arrays(self) -> None:
        z = np.array([-0.25, 0.0, 1e-3, 7.0])
        values = g_branch(CoupledBranch.PLUS, z, 2 * math.pi)
        scalars = [g_branch(CoupledBranch.PLUS, float(x), 2 * math.pi) for x in z]
        assert values == pytest.approx(scalars, rel=1e-15)
        combination = g_branch_combination(z[1:], 2 * math.pi)
        assert combination == pytest.approx(
            [g_branch_combination(float(x), 2 * math.pi) for x in z[1:]], rel=1e-15
        )
        with pytest.raises(DomainError):
            g_branch(CoupledBranch.ZERO, z, 2 * math.pi)
        with pytest.raises(ContinuationError):
            g_branch(CoupledBranch.PLUS, np.array([-16.0, 1.0]), 10.0)


# The surface-mode entries raise DomainError above this (documented) bound.
_MAX_SURFACE_OMEGA_P = 1e15
_TIGHT = QuadratureSpec(rel_tol=1e-12)


def _surface_entries(omega_p: float, m: int, big_k: float, z: float, fraction: float):
    """Calls of every public surface-mode entry, each returning floats."""
    branches = [
        BranchId(BranchKind.PLASMONIC_PLUS, Polarization.TM),
        BranchId(BranchKind.PLASMONIC_MINUS, Polarization.TM),
        BranchId(BranchKind.INTERFACE_REFERENCE, Polarization.TM),
        BranchId(BranchKind.PHOTONIC, Polarization.TM, m=m),
    ]
    grid = default_dispersion_grid(omega_p, 8)
    calls = [
        lambda: branch_constants(omega_p).y_plus,
        lambda: f_branch(CoupledBranch.PLUS, -fraction * branch_constants(omega_p).z_plus0, omega_p),
        lambda: eta_plasmonic(omega_p),
        lambda: eta_evanescent(omega_p),
        lambda: [p.Omega for _, points in sample_dispersion(omega_p, grid, branches) for p in points],
    ]
    for branch in CoupledBranch:
        calls += [
            lambda branch=branch: f_branch(branch, z, omega_p),
            lambda branch=branch: g_branch(branch, z, omega_p),
        ]
    return calls


@given(
    # Two thirds of the draws where the surface-mode entries are defined,
    # one third down to 1e-150, where K reaches as far down.
    log_omega=st.one_of(
        st.floats(-10.0, 15.0), st.floats(-10.0, 300.0), st.floats(-150.0, -10.0)
    ),
    m=st.integers(1, 5),
    big_k=st.one_of(st.floats(0.0, 1e3), st.floats(-150.0, 3.0).map(lambda e: 10.0**e)),
    z=st.floats(0.0, 1e6),
    fraction=st.floats(0.0, 1.0),
)
# Below 9.05e-8 every surface-mode entry once raised InvalidBracket.
@example(log_omega=-10.0, m=1, big_k=1e-3, z=1.0, fraction=1.0)
@example(log_omega=-7.5, m=2, big_k=0.0, z=0.0, fraction=0.5)
@example(log_omega=15.0, m=5, big_k=1e3, z=1e6, fraction=1.0)
# invert_branch raised ConvergenceFailure here on every branch.
@example(log_omega=-100.0, m=1, big_k=1e-60, z=1.0, fraction=0.5)
@settings(max_examples=150, deadline=None)
def test_finite_value_or_typed_error_up_to_huge_omega_p(log_omega, m, big_k, z, fraction) -> None:
    omega_p = 10.0**log_omega
    surface = omega_p <= _MAX_SURFACE_OMEGA_P
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in (
            lambda: omega0(big_k, omega_p),
            lambda: g_branch_combination(z, omega_p),
        ):
            assert math.isfinite(call())
        for pol in Polarization:
            try:
                value = photonic_mode(pol, m, big_k, omega_p)
            except CasimirModelError:
                assert not (omega_p >= 100.0 * math.pi * m and big_k <= 10.0 * m)
                continue
            assert math.isfinite(value)
            if omega_p >= 100.0 * math.pi * m and big_k <= 10.0 * m:
                # Physical deviation 4m/Omega_P, plus the root finder's 4 ulp
                # in Q and a few roundings.
                deviation = abs(value / math.hypot(big_k, math.pi * m) - 1.0)
                assert deviation <= 4.0 * m / omega_p + 8.0 * 2.0**-52
        for call in _surface_entries(omega_p, m, big_k, z, fraction):
            try:
                value = call()
            except DomainError:
                assert not surface
                continue
            assert np.isfinite(value).all()
        for branch in CoupledBranch:
            try:
                value = invert_branch(branch, big_k, omega_p)
            except DomainError:
                # Also where K**2 or Omega**2 is not a normal float.
                if surface and big_k * big_k >= sys.float_info.min:
                    oracle = _frequency_oracle(branch, big_k, omega_p)
                    assert oracle * oracle < sys.float_info.min * (1.0 + 1e-9)
                continue
            assert math.isfinite(value)
        try:
            breakdown = compute_eta_breakdown(omega_p)
        except DomainError:
            assert not surface
            return
        # Honest estimates: each covers the distance to a tighter solve.
        tight = compute_eta_breakdown(omega_p, _TIGHT)
        for name, error in breakdown.error_estimates.items():
            assert 0.0 <= error < math.inf
            distance = abs(getattr(breakdown, name) - getattr(tight, name))
            assert distance <= error + tight.error_estimates[name], name


# ----------------------------------------------------------------------
# Dispersion sampling
# ----------------------------------------------------------------------


class TestDispersionSampling:
    def test_surface_branch_contract(self) -> None:
        omega_p = 3 * math.pi
        grid = default_dispersion_grid(omega_p, points=220)
        branches = [
            BranchId(BranchKind.PLASMONIC_PLUS, Polarization.TM),
            BranchId(BranchKind.PLASMONIC_MINUS, Polarization.TM),
            BranchId(BranchKind.INTERFACE_REFERENCE, Polarization.TM),
        ]
        sampled = dict(sample_dispersion(omega_p, grid, branches))
        plus, minus, zero = (sampled[b] for b in branches)
        assert len(plus) == len(minus) == len(zero) == len(grid)

        # ordering: minus <= zero <= plus pointwise
        for p, z, m in zip(plus, zero, minus):
            assert m.Omega <= z.Omega + 1e-12
            assert z.Omega <= p.Omega + 1e-12

        # the minus and reference branches stay below the light cone everywhere
        assert all(pt.sector is Sector.EVANESCENT for pt in minus)
        assert all(pt.sector is Sector.EVANESCENT for pt in zero)

        # the plus branch crosses the light cone exactly once, at k_P
        sectors = [pt.sector for pt in plus]
        flips = sum(1 for a, b in zip(sectors, sectors[1:]) if a is not b)
        assert flips == 1
        k_p = branch_constants(omega_p).k_P
        first_evanescent = next(pt for pt in plus if pt.sector is Sector.EVANESCENT)
        assert first_evanescent.K >= k_p * (1.0 - 1e-9)

    def test_photonic_branch_contract(self) -> None:
        omega_p = 3 * math.pi
        grid = np.geomspace(1e-3, 30.0, 60)
        branch = BranchId(BranchKind.PHOTONIC, Polarization.TE, m=1)
        ((_, points),) = sample_dispersion(omega_p, grid, [branch])
        assert points, "expected at least one guided-mode sample"
        assert all(pt.sector is Sector.PROPAGATIVE for pt in points)
        ks = [pt.K for pt in points]
        assert ks == sorted(ks)

    def test_out_of_band_photonic_grid_points_are_skipped(self) -> None:
        # order-2 TE modes do not exist at omega_p = 1: all samples are skipped
        branch = BranchId(BranchKind.PHOTONIC, Polarization.TE, m=2)
        ((_, points),) = sample_dispersion(1.0, np.linspace(0.0, 2.0, 11), [branch])
        assert points == ()

    def test_grid_validation(self) -> None:
        branch = BranchId(BranchKind.PLASMONIC_PLUS, Polarization.TM)
        with pytest.raises(DomainError):
            sample_dispersion(1.0, np.array([1.0, 0.5, 2.0]), [branch])
        with pytest.raises(DomainError):
            sample_dispersion(1.0, np.array([-1.0, 0.5]), [branch])

    def test_default_grid_shape(self) -> None:
        grid = default_dispersion_grid(2 * math.pi, points=50)
        assert len(grid) == 50
        assert grid[0] == pytest.approx(1e-3)
        assert grid[-1] == pytest.approx(10 * 2 * math.pi)
        assert all(b > a for a, b in zip(grid, grid[1:]))


# ----------------------------------------------------------------------
# Identifier and sample-point validation
# ----------------------------------------------------------------------


class TestIdentifiers:
    def test_photonic_requires_mode_index(self) -> None:
        with pytest.raises(DomainError):
            BranchId(BranchKind.PHOTONIC, Polarization.TE)
        with pytest.raises(DomainError):
            BranchId(BranchKind.PHOTONIC, Polarization.TE, m=-2)
        with pytest.raises(DomainError):
            BranchId(BranchKind.PHOTONIC, Polarization.TE, m=0)
        with pytest.raises(DomainError):
            BranchId(BranchKind.PHOTONIC, Polarization.TE, m=2**1100)

    def test_surface_branches_are_tm_only_without_index(self) -> None:
        with pytest.raises(DomainError):
            BranchId(BranchKind.PLASMONIC_PLUS, Polarization.TE)
        with pytest.raises(DomainError):
            BranchId(BranchKind.PLASMONIC_MINUS, Polarization.TM, m=1)

    def test_branch_name_coercion(self) -> None:
        with pytest.raises(DomainError):
            f_branch("bogus", 1.0, 1.0)  # type: ignore[arg-type]
        # lower-case names coerce to the enum
        assert f_branch("plus", 1.0, 2.0) == f_branch(CoupledBranch.PLUS, 1.0, 2.0)

    def test_dispersion_point_sector_consistency(self) -> None:
        # The sector is derived from (K, Omega), so no point carries a wrong tag.
        assert DispersionPoint(K=2.0, Omega=1.0).sector is Sector.EVANESCENT
        assert DispersionPoint(K=1.0, Omega=2.0).sector is Sector.PROPAGATIVE
        assert DispersionPoint(K=1.0, Omega=1.0).sector is Sector.LIGHTCONE
        with pytest.raises(TypeError):
            DispersionPoint(K=2.0, Omega=1.0, sector=Sector.PROPAGATIVE)
        with pytest.raises(DomainError):
            DispersionPoint(K=-1.0, Omega=1.0)
