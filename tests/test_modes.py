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
* The endpoint of the continuation window is re-derived by scanning the
  complex-form defect for its sign change and bisecting with ``mpmath``,
  without using the implementation's root equation.
"""

from __future__ import annotations

import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from casimir_plasmons.numerics import DEFAULT_ROOT, find_root_bracketed
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


def _endpoint_defect_float(u: float, omega_p: float) -> float:
    """Continuation-window defect -u^2 + Re g_+^2(-u^2) via plain cmath."""
    z = -u * u
    root = cmath.sqrt(complex(z))
    val = omega_p**2 * root / (root + cmath.sqrt(complex(z + omega_p**2)) * cmath.tanh(root / 2))
    return -u * u + val.real


def _endpoint_defect_mp(u: float, omega_p: float) -> float:
    with mp.workdps(40):
        z = mp.mpc(-(mp.mpf(u) ** 2))
        root = mp.sqrt(z)
        val = mp.mpf(omega_p) ** 2 * root / (root + mp.sqrt(z + mp.mpf(omega_p) ** 2) * mp.tanh(root / 2))
        return float(-(u * u) + mp.re(val))


def _endpoint_oracle(omega_p: float) -> float:
    """Locate the zero of the continuation defect by scan + mpmath bisection."""
    u_max = min(omega_p, math.pi)
    grid = np.linspace(u_max * 1e-6, u_max * (1.0 - 1e-6), 1201)
    values = [_endpoint_defect_float(u, omega_p) for u in grid]
    bracket = None
    for i in range(len(grid) - 1):
        if (values[i] < 0.0) != (values[i + 1] < 0.0):
            bracket = (float(grid[i]), float(grid[i + 1]))
            break
    assert bracket is not None, "endpoint defect never changed sign"
    lo, hi = bracket
    f_lo = _endpoint_defect_mp(lo, omega_p)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        f_mid = _endpoint_defect_mp(mid, omega_p)
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
        for omega_p in (0.5, 2 * math.pi, 3 * math.pi, 50.0):
            constants = branch_constants(omega_p)
            oracle = _endpoint_oracle(omega_p)
            assert constants.z_plus0 > 0.0
            assert constants.y_plus == pytest.approx(oracle, abs=1e-10)
            assert constants.z_plus0 == pytest.approx(oracle**2, rel=1e-9)

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
        omega_p = 3 * math.pi
        for branch in CoupledBranch:
            for big_k in (0.05, 0.5, 2.0, 8.0, 30.0):
                reference = {
                    CoupledBranch.PLUS: _plus_frequency,
                    CoupledBranch.MINUS: _minus_frequency,
                    CoupledBranch.ZERO: _zero_frequency,
                }[branch](big_k, omega_p)
                assert invert_branch(branch, big_k, omega_p) == pytest.approx(
                    reference, rel=1e-9
                )

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

    def test_zero_wavevector_shortcuts(self) -> None:
        assert invert_branch(CoupledBranch.MINUS, 0.0, 2.0) == 0.0
        assert invert_branch(CoupledBranch.ZERO, 0.0, 2.0) == 0.0

    def test_validation(self) -> None:
        with pytest.raises(DomainError):
            invert_branch(CoupledBranch.MINUS, -1.0, 2.0)
        with pytest.raises(DomainError):
            invert_branch(CoupledBranch.PLUS, 1.0, 0.0)


def _bisect_frequency(
    branch: CoupledBranch, big_k: float, omega_p: float, hi: float
) -> float:
    """Independent reference: bisect omega^2 = g^2(K^2 - omega^2) directly."""

    def defect(omega: float) -> float:
        return omega**2 - g_branch(branch, big_k**2 - omega**2, omega_p) ** 2

    lo = 0.0
    f_lo = defect(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        try:
            f_mid = defect(mid)
        except (DomainError, ContinuationError):
            hi = mid
            continue
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _plus_frequency(big_k: float, omega_p: float) -> float:
    return _bisect_frequency(CoupledBranch.PLUS, big_k, omega_p, hi=omega_p)


def _minus_frequency(big_k: float, omega_p: float) -> float:
    return _bisect_frequency(CoupledBranch.MINUS, big_k, omega_p, hi=min(big_k, omega_p))


def _zero_frequency(big_k: float, omega_p: float) -> float:
    return _bisect_frequency(CoupledBranch.ZERO, big_k, omega_p, hi=min(big_k, omega_p))


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

    def test_validation(self) -> None:
        with pytest.raises(DomainError):
            photonic_mode(Polarization.TE, 0, 1.0, 1.0)
        with pytest.raises(DomainError):
            photonic_mode(Polarization.TE, -1, 1.0, 1.0)
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


def _photonic_mode_reference(pol: Polarization, m: int, big_k: float, omega_p: float):
    """The scalar 200-point bracket scan that photonic_mode vectorised.

    Returns the frequency, or ``None`` where it raised :class:`NoSolution`.
    """

    def phase_defect(q: float) -> float:
        if pol is Polarization.TE:
            shift = 2.0 * math.asin(min(q / omega_p, 1.0))
        else:
            transverse_decay = math.sqrt(max((omega_p - q) * (omega_p + q), 0.0))
            omega_sq = big_k * big_k + q * q
            eps = 1.0 - omega_p * omega_p / omega_sq
            shift = 2.0 * math.atan2(transverse_decay, -eps * q)
        return q + shift - math.pi * m

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
    return None


class TestPhotonicModeScan:
    def test_bit_identical_to_scalar_scan(self) -> None:
        # The dense band is where numpy's arcsin/arctan2 in Brent's iterates
        # would change last bits; 3*pi puts the plasma edge exactly on
        # pi*(m-1) for TE m=4 and TM m=5.
        omega_ps = np.concatenate(
            (np.geomspace(1e-8, 1e12, 41), np.geomspace(0.1, 100.0, 37), [3 * math.pi])
        ).tolist()
        mismatches = []
        for omega_p in omega_ps:
            for pol in Polarization:
                for m in range(1, 6):
                    for big_k in (0.0, 1e-3, 1.0, math.pi * m, 100.0):
                        try:
                            value = photonic_mode(pol, m, big_k, omega_p)
                        except NoSolution:
                            value = None
                        reference = _photonic_mode_reference(pol, m, big_k, omega_p)
                        if value != reference:
                            mismatches.append((pol, m, big_k, omega_p, value, reference))
        assert mismatches == []

    def test_ideal_limit_beyond_the_scan_grid(self) -> None:
        # From Omega_P ~ 3e12 the root lies in the closing cell [q_hi, pi*m];
        # from ~1e154 the TM phase's Omega_P**2 overflows.
        for pol in Polarization:
            for m in (1, 2, 5):
                for omega_p in (3e12, 1e13, 1e16, 1e100, 1e155, 1e300):
                    value = photonic_mode(pol, m, 1.0, omega_p)
                    ideal = math.hypot(1.0, math.pi * m)
                    assert abs(value / ideal - 1.0) <= 4.0 * m / omega_p


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


@given(
    log_omega=st.floats(-10.0, 300.0),
    m=st.integers(1, 5),
    big_k=st.floats(0.0, 1e3),
    z=st.floats(0.0, 1e6),
)
@settings(max_examples=150, deadline=None)
def test_finite_value_or_typed_error_up_to_huge_omega_p(log_omega, m, big_k, z) -> None:
    omega_p = 10.0**log_omega
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
                # Physical deviation 4m/Omega_P, plus the root finder's x_tol
                # in Q (Q > pi*m/2 here) and a few roundings.
                allowance = 2.0 * DEFAULT_ROOT.x_tol / (math.pi * m) + 8.0 * 2.0**-52
                deviation = abs(value / math.hypot(big_k, math.pi * m) - 1.0)
                assert deviation <= 4.0 * m / omega_p + allowance


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
        with pytest.raises(DomainError):
            DispersionPoint(K=2.0, Omega=1.0, sector=Sector.PROPAGATIVE)
        point = DispersionPoint(K=2.0, Omega=1.0, sector=Sector.EVANESCENT)
        assert point.Omega == 1.0
        with pytest.raises(DomainError):
            DispersionPoint(K=-1.0, Omega=1.0, sector=Sector.PROPAGATIVE)
