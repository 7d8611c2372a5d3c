"""Tests for the mode-resolved decomposition of the reduction factor.

Dual routes exercised here:

* the closed-form surface-mode reduction factor against the direct
  regulated branch-frequency integral (two different regulators, each
  Richardson-extrapolated to zero regulator strength);
* the below-lightcone identity connecting the closed forms to a direct
  integral over the propagative section of the coupled branches;
* the short-distance coefficient against a dense trapezoid evaluation of its
  parameter-free integral;
* the closure ``eta_pl + eta_ph = eta_total`` tying the decomposition back to
  the independently computed total;
* each of the three surface-mode integrals against ``mpmath`` at 30 digits,
  where the reported error estimate must cover the distance, and the bound
  on the branch sum's tail against the tail itself;
* the large-separation limits ``gamma`` and ``beta_ev`` against ``mpmath``
  evaluations of their limit integrals and against a Richardson
  extrapolation of the closed forms up to ``Omega_P = 1e15``.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

from casimir_plasmons import decomposition, modes, numerics
from casimir_plasmons.decomposition import (
    AsymptoticReport,
    EtaBreakdown,
    _branch_sum_integral,
    _branch_sum_tail_bound,
    _continuation_integral,
    _direct_integrand,
    _eta_evanescent_detailed,
    _eta_plasmonic_detailed,
    _large_distance_branch_sum,
    _reference_correction_integral,
    asymptotic_report,
    compute_eta_breakdown,
    eta_evanescent,
    eta_plasmonic,
    eta_plasmonic_direct,
    large_distance_beta_ev,
    large_distance_gamma,
    locate_sign_change,
    propagative_part_identity,
    short_distance_alpha,
)
from casimir_plasmons.errors import DomainError, ExtrapolationUnstable
from casimir_plasmons.lifshitz import eta_total
from casimir_plasmons.modes import branch_constants, g_branch_combination
from casimir_plasmons.numerics import DEFAULT_QUADRATURE, QuadratureSpec, integrate


# ----------------------------------------------------------------------
# Short-distance coefficient
# ----------------------------------------------------------------------


def _mp_alpha() -> float:
    """``alpha`` from its defining integral at 30 digits."""
    with mp.workdps(30):
        integral = mp.quad(
            lambda s: 2 * s * (mp.sqrt(1 + mp.e**-s) + mp.sqrt(1 - mp.e**-s) - 2),
            [0, 1, 5, 20, 60, 200],
        )
        return float(-(60 * mp.sqrt(2) / mp.pi**2) * integral)


class TestShortDistanceAlpha:
    def test_headline_value(self) -> None:
        assert short_distance_alpha() == pytest.approx(1.193, abs=1e-3)

    def test_against_dense_trapezoid_oracle(self) -> None:
        s = np.linspace(0.0, 60.0, 600_001)
        integrand = 2.0 * s * (np.sqrt(1.0 + np.exp(-s)) + np.sqrt(-np.expm1(-s)) - 2.0)
        oracle = -(60.0 * math.sqrt(2.0) / math.pi**2) * np.trapezoid(integrand, s)
        assert short_distance_alpha() == pytest.approx(oracle, rel=1e-7)

    def test_surface_mode_slope_matches_alpha(self) -> None:
        ratio = 1e-3
        alpha = short_distance_alpha()
        slope_pl = eta_plasmonic(2.0 * math.pi * ratio) / ratio
        slope_ev = eta_evanescent(2.0 * math.pi * ratio) / ratio
        assert slope_pl == pytest.approx(1.7888436213922716, abs=1e-6)
        assert slope_ev == pytest.approx(1.7892059219720802, abs=1e-6)
        for slope in (slope_pl, slope_ev):
            assert slope == pytest.approx(1.5 * alpha, rel=2e-2)


# ----------------------------------------------------------------------
# The three surface-mode integrals against mpmath
# ----------------------------------------------------------------------

SURFACE_OMEGAS = [1e-7, 1e-5, 1e-3, 0.5, 2.0 * math.pi, 1e5]


def _mp_branch_integrand(w: mp.mpf, s: mp.mpf) -> mp.mpf:
    """``2 s (g_plus + g_minus - 2 g_zero)(s^2)`` as the naive sum of the hyperbolic forms."""
    if s == 0:
        return mp.mpf(0)
    root_sum = mp.sqrt(s * s + w**2)
    g = [
        mp.sqrt(w**2 * s / (s + root_sum * coupling))
        for coupling in (mp.tanh(s / 2), mp.coth(s / 2), mp.mpf(1))
    ]
    return 2 * s * (g[0] + g[1] - 2 * g[2])


def _mp_branch_sum(omega_p: float) -> mp.mpf:
    """``Int_0^inf 2 s (g_plus + g_minus - 2 g_zero)(s^2) ds`` at 30 digits.

    At 30 digits the naive sum's cancellation costs at most about 1e-26 of
    the value.
    """
    with mp.workdps(30):
        w = mp.mpf(omega_p)

        def integrand(s):
            return _mp_branch_integrand(w, s)

        # Breakpoints at the scale omega_p, where g_zero turns over, and
        # along the exp(-2 s) decay.
        scale = [p for p in (0.1 * omega_p, omega_p) if p < 1.0]
        return mp.quad(integrand, [0.0] + scale + [1.0, 4.0, 16.0, 64.0, mp.inf])


def _mp_continuation(omega_p: float, y_plus: float) -> mp.mpf:
    """``Int_0^{y_plus} 2 u g_plus(-u^2) du`` at 30 digits, tangent form."""
    with mp.workdps(30):
        w = mp.mpf(omega_p)
        return mp.quad(
            lambda u: 2 * u * mp.sqrt(w**2 * u / (u + mp.sqrt((w - u) * (w + u)) * mp.tan(u / 2))),
            [0, mp.mpf(y_plus)],
        )


def _mp_reference_correction(omega_p: float, depth: float) -> mp.mpf:
    """``Int_{sqrt(depth)}^0 2 s g_zero(s^2) ds`` at 30 digits."""
    with mp.workdps(30):
        w = mp.mpf(omega_p)
        return -mp.quad(
            lambda s: 2 * s * mp.sqrt(w**2 * s / (s + mp.sqrt(s * s + w**2))),
            [0, mp.sqrt(mp.mpf(depth))],
        )


class TestSurfaceIntegralsAgainstMpmath:
    """Each rule's reported error must cover its distance from mpmath."""

    @staticmethod
    def _assert_covered(result, reference) -> None:
        value, error = result
        assert 0.0 <= error < math.inf
        assert abs(value - float(reference)) <= error

    # Below about 9e-8 branch_constants, which the other two need, raises.
    @pytest.mark.parametrize("omega_p", [1e-8] + SURFACE_OMEGAS)
    def test_branch_sum(self, omega_p: float) -> None:
        self._assert_covered(
            _branch_sum_integral(omega_p, DEFAULT_QUADRATURE), _mp_branch_sum(omega_p)
        )

    # The branch sum's integrand changes sign, and the integral crosses zero
    # between these: the rule's target is relative to the integral of |f|,
    # so it still stops there, and at a tight tolerance.
    @pytest.mark.parametrize("omega_p", [1.239645, 1.23966, 1.2409])
    def test_branch_sum_through_its_zero(self, omega_p: float) -> None:
        reference = _mp_branch_sum(omega_p)
        for spec in (DEFAULT_QUADRATURE, QuadratureSpec(rel_tol=1e-12)):
            self._assert_covered(_branch_sum_integral(omega_p, spec), reference)

    @pytest.mark.parametrize("omega_p", SURFACE_OMEGAS)
    def test_plus_branch_continuation(self, omega_p: float) -> None:
        y_plus = branch_constants(omega_p).y_plus
        self._assert_covered(
            _continuation_integral(omega_p, y_plus, DEFAULT_QUADRATURE),
            _mp_continuation(omega_p, y_plus),
        )

    @pytest.mark.parametrize("omega_p", SURFACE_OMEGAS)
    def test_reference_correction(self, omega_p: float) -> None:
        depth = -branch_constants(omega_p).z_0P
        self._assert_covered(
            _reference_correction_integral(omega_p, depth, DEFAULT_QUADRATURE),
            _mp_reference_correction(omega_p, depth),
        )


def _mp_branch_sum_tail(omega_p: float, reach: float) -> mp.mpf:
    """``Int_X^inf |2 s (g_plus + g_minus - 2 g_zero)(s^2)| ds`` to 30 digits.

    The naive sum of the hyperbolic forms, at enough working digits that its
    cancellation, about ``e^(-2 X)`` of each ``g``, leaves 30 of them.
    """
    with mp.workdps(30 + int(2 * reach / math.log(10))):
        w, X = mp.mpf(omega_p), mp.mpf(reach)
        return mp.quad(
            lambda s: abs(_mp_branch_integrand(w, s)), [X, X + 1, X + 4, X + 16, X + 64, mp.inf]
        )


class TestBranchSumKernel:
    """The branch sum's unchecked kernel and the bound on its tail."""

    @pytest.mark.parametrize("omega_p", [1e-8, 1e-3, 2.0 * math.pi, 1e5, 1e15])
    @pytest.mark.parametrize("reach", [1.0, 4.0, 16.0, 64.0])
    def test_tail_bound_covers_the_tail(self, omega_p: float, reach: float) -> None:
        tail = _mp_branch_sum_tail(omega_p, reach)
        assert 0.0 < float(tail) <= _branch_sum_tail_bound(omega_p, reach)

    def test_tail_bound_holds_only_from_one(self) -> None:
        assert _branch_sum_tail_bound(2.0 * math.pi, 0.5) == math.inf
        # The exp-sinh rule's core alone reaches beyond 7e6, where it is 0.
        assert _branch_sum_tail_bound(1e15, 7e6) == 0.0

    @pytest.mark.parametrize("omega_p", [1e-8, 1e-3, 2.0 * math.pi, 1e5, 1e15])
    def test_public_combination_is_the_kernel_on_every_exp_sinh_node(self, omega_p) -> None:
        # The branch-sum integrand calls the kernel on s itself, where the
        # public function takes z = s*s and its root back: the same bits.
        s = np.concatenate([numerics._de_nodes("exp-sinh", level)[0] for level in range(9)])
        assert s.size == 3841
        assert np.sqrt(s * s).tobytes() == s.tobytes()
        kernel = modes._branch_combination(s, omega_p)
        assert g_branch_combination(s * s, omega_p).tobytes() == kernel.tobytes()


# ----------------------------------------------------------------------
# Closed-form surface-mode reduction factor
# ----------------------------------------------------------------------


class TestEtaPlasmonic:
    def test_golden_values(self) -> None:
        assert eta_plasmonic(2.0 * math.pi) == pytest.approx(
            -21.43800046006416, abs=5e-10
        )
        assert eta_plasmonic(1e4) == pytest.approx(-2915.0225021717233, rel=1e-11)

    def test_sign_structure(self) -> None:
        # attractive (positive) contribution at short distance, repulsive at long
        assert eta_plasmonic(2.0 * math.pi * 0.01) > 0.0
        assert eta_plasmonic(2.0 * math.pi) < 0.0

    def test_validation(self) -> None:
        for bad in (0.0, -2.0, float("nan")):
            with pytest.raises(DomainError):
                eta_plasmonic(bad)


class TestDirectRoute:
    @pytest.mark.parametrize("omega_p", [0.5, 5.0, 50.0])
    @pytest.mark.parametrize("regulator", ["exponential", "gaussian"])
    def test_agrees_with_closed_form(self, omega_p: float, regulator: str) -> None:
        closed = eta_plasmonic(omega_p)
        direct = eta_plasmonic_direct(omega_p, regulator=regulator)
        assert direct == pytest.approx(closed, rel=1e-3)

    def test_regulators_agree_with_each_other(self) -> None:
        omega_p = 2.0 * math.pi
        exp_val = eta_plasmonic_direct(omega_p, regulator="exponential")
        gauss_val = eta_plasmonic_direct(omega_p, regulator="gaussian")
        assert abs(exp_val - gauss_val) <= 1e-4 * max(1.0, abs(exp_val))

    def test_integrand_vanishes_at_zero_wavevector(self) -> None:
        assert _direct_integrand(0.0, 2.0 * math.pi, 0.02, "exponential") == 0.0

    def test_too_strong_regulator_is_detected(self) -> None:
        with pytest.raises(ExtrapolationUnstable):
            eta_plasmonic_direct(2.0 * math.pi, reg_epsilon=1.0)

    def test_validation(self) -> None:
        with pytest.raises(DomainError):
            eta_plasmonic_direct(2.0, regulator="cosine")
        with pytest.raises(DomainError):
            eta_plasmonic_direct(2.0, reg_epsilon=0.0)
        with pytest.raises(DomainError):
            eta_plasmonic_direct(-1.0)


# ----------------------------------------------------------------------
# Evanescent part and the below-lightcone identity
# ----------------------------------------------------------------------


class TestEtaEvanescent:
    def test_golden_value(self) -> None:
        assert eta_evanescent(2.0 * math.pi) == pytest.approx(
            2.3160652299805986, abs=1e-9
        )

    def test_positive_across_the_whole_range(self) -> None:
        for omega_p in np.geomspace(1e-2, 1e4, 25):
            assert eta_evanescent(float(omega_p)) > 0.0

    def test_follows_the_sqrt_omega_p_law_at_huge_omega_p(self) -> None:
        # eta_ev / sqrt(Omega_P) levels off at 1.6239855620.  Its closed-form
        # part k_P**3 - omega0(k_P)**3, once formed as a difference, cancelled:
        # the ratio read 1.623983 at 1e10, 1.623178 at 1e12 and 1.639823 at
        # 1e14, although eta_ev's estimate is 5.9e-10 of it.
        ratios = [eta_evanescent(w) / math.sqrt(w) for w in (1e10, 1e12, 1e14)]
        for ratio in ratios[1:]:
            assert ratio == pytest.approx(ratios[0], rel=1e-9)

    def test_validation(self) -> None:
        with pytest.raises(DomainError):
            eta_evanescent(0.0)


class TestPropagativeIdentity:
    @pytest.mark.parametrize("omega_p", [0.5, 2.0 * math.pi, 5.0, 50.0])
    def test_closed_forms_match_direct_integral(self, omega_p: float) -> None:
        lhs, rhs = propagative_part_identity(omega_p)
        assert abs(lhs - rhs) < 1e-9
        # the propagative surface-mode part is attractive on its own
        assert lhs < 0.0

    def test_closed_forms_match_direct_integral_at_small_omega_p(self) -> None:
        # lhs is eta_pl - eta_ev, 2e5 times smaller than either at 1e-3: it
        # holds 9 digits only if both surface-mode parts hold 14.
        lhs, rhs = propagative_part_identity(1e-3)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


# ----------------------------------------------------------------------
# Breakdown and closure
# ----------------------------------------------------------------------


class TestBreakdown:
    def test_closure_and_dominance_at_large_separation(self) -> None:
        breakdown = compute_eta_breakdown(1e4)
        scale = 1.0 + abs(breakdown.eta_pl) + abs(breakdown.eta_total)
        assert breakdown.eta_ph == breakdown.eta_total - breakdown.eta_pl
        assert abs(breakdown.eta_pl + breakdown.eta_ph - breakdown.eta_total) < 1e-12 * scale
        assert abs(breakdown.eta_pl) > 100.0 * breakdown.eta_total
        assert breakdown.eta_ph > 0.0
        assert breakdown.eta_ev > 0.0
        assert set(breakdown.error_estimates) == {
            "eta_total",
            "eta_pl",
            "eta_ph",
            "eta_ev",
        }
        assert all(v >= 0.0 for v in breakdown.error_estimates.values())

    def test_short_distance_breakdown_lies_on_the_slope(self) -> None:
        # Below Omega_P = 9.05e-8 the plus-branch endpoint once raised
        # InvalidBracket.  At 1e-8 each part is 1.5 * alpha * L/lambda_p up
        # to O(L/lambda_p) = 1.6e-9 and its own error estimate.
        omega_p = 1e-8
        ratio = omega_p / (2.0 * math.pi)
        slope = 1.5 * short_distance_alpha()
        breakdown = compute_eta_breakdown(omega_p)
        assert breakdown.eta_total / ratio == pytest.approx(slope, rel=1e-12)
        for name in ("eta_pl", "eta_ev"):
            value = getattr(breakdown, name)
            assert value / ratio == pytest.approx(slope, rel=1e-5)
            assert abs(value - slope * ratio) <= breakdown.error_estimates[name]

    @pytest.mark.parametrize("omega_p", [1e-8, 1e-7])
    def test_surface_modes_lie_on_the_slope_to_1e_9(self, omega_p) -> None:
        # alpha from mpmath; the slope's remainder is O(Omega_P**2 log Omega_P),
        # below 1e-12 relative here.  Every surface-mode integral stops on
        # rel_tol, however small its value.
        slope = 1.5 * _mp_alpha() * omega_p / (2.0 * math.pi)
        breakdown = compute_eta_breakdown(omega_p)
        for name in ("eta_pl", "eta_ev"):
            assert abs(getattr(breakdown, name) - slope) <= 1e-9 * slope

    def test_eta_ph_is_resolved_from_1e_minus_5_up(self) -> None:
        # eta_ph ~ 1.8 * Omega_P**3 is a near-cancelling difference of eta_total
        # and eta_pl at small Omega_P; at the default tolerance its error
        # estimate stays below it from 1e-5 up (0.16 of it there).
        for omega_p in np.geomspace(1e-5, 1e5, 61):
            breakdown = compute_eta_breakdown(float(omega_p))
            assert breakdown.error_estimates["eta_ph"] < abs(breakdown.eta_ph), omega_p

    def test_matches_individual_functions(self) -> None:
        omega_p = 2.0 * math.pi
        breakdown = compute_eta_breakdown(omega_p)
        assert breakdown.eta_total == pytest.approx(eta_total(omega_p), rel=1e-13)
        assert breakdown.eta_pl == pytest.approx(eta_plasmonic(omega_p), rel=1e-13)
        assert breakdown.eta_ev == pytest.approx(eta_evanescent(omega_p), rel=1e-13)
        assert breakdown.eta_ph == pytest.approx(
            eta_total(omega_p) - eta_plasmonic(omega_p), rel=1e-12
        )

    @pytest.mark.parametrize(
        "omega_p, bits",
        [
            (
                1e-8,
                {
                    "eta_total": ("0x1.878cb996b0f40p-29", "0x1.f5fcdaa98be69p-75"),
                    "eta_pl": ("0x1.878cb996b0f3ap-29", "0x1.58bf27c5b98c1p-62"),
                    "eta_ph": ("0x1.8000000000000p-79", "0x1.58ced7ac8ed87p-62"),
                    "eta_ev": ("0x1.878cb996b0f3dp-29", "0x1.58bf27c5b98c3p-62"),
                },
            ),
            (
                1e-5,
                {
                    "eta_total": ("0x1.7e5f6d2800d06p-19", "0x1.e9465da36bb11p-65"),
                    "eta_pl": ("0x1.7e5f6d23f65b3p-19", "0x1.4d9bef087eb23p-52"),
                    "eta_ph": ("0x1.029d4c0000000p-49", "0x1.4dab393b6bcd9p-52"),
                    "eta_ev": ("0x1.7e5f6d274412bp-19", "0x1.4d9bef09b8e21p-52"),
                },
            ),
            (
                1e-3,
                {
                    "eta_total": ("0x1.2ab9481ab5e3fp-12", "0x1.341ebe14193dfp-58"),
                    "eta_pl": ("0x1.2ab8cd4fddbf4p-12", "0x1.30b6d97566de2p-45"),
                    "eta_ph": ("0x1.eb2b6092c0000p-30", "0x1.30c07a6b577efp-45"),
                    "eta_ev": ("0x1.2ab9320f0279dp-12", "0x1.30b6feaee4ca7p-45"),
                },
            ),
            (
                0.5,
                {
                    "eta_total": ("0x1.e5b8f3d363032p-4", "0x1.44148924a213ap-49"),
                    "eta_pl": ("-0x1.7018d1722a806p-7", "0x1.d5dbd32093a59p-35"),
                    "eta_ph": ("0x1.09de0700d4299p-3", "0x1.d5e0e372b8382p-35"),
                    "eta_ev": ("0x1.eed2820cde0ecp-4", "0x1.2cef2496494e1p-36"),
                },
            ),
            (
                2.0 * math.pi,
                {
                    "eta_total": ("0x1.3549e9e69ddd2p-1", "0x1.2951cb39be600p-46"),
                    "eta_pl": ("-0x1.57020cc539bcbp+4", "0x1.a4989b109390dp-31"),
                    "eta_ph": ("0x1.60ac5c146eabap+4", "0x1.a49aedb42a045p-31"),
                    "eta_ev": ("0x1.2874d35115ae3p+1", "0x1.c39b09671914ep-32"),
                },
            ),
            (
                40.0,
                {
                    "eta_total": ("0x1.d11458dd3122cp-1", "0x1.7c766d4a90f34p-46"),
                    "eta_pl": ("-0x1.fc3cf0533430ep+6", "0x1.58e383bff6eacp-24"),
                    "eta_ph": ("0x1.ffdf1904ee932p+6", "0x1.58e389b1d09ffp-24"),
                    "eta_ev": ("0x1.2b896eeab5ea9p+3", "0x1.3202d442a914bp-30"),
                },
            ),
            (
                1e5,
                {
                    "eta_total": ("0x1.fffac1defc46cp-1", "0x1.24e6af4605796p-45"),
                    "eta_pl": ("-0x1.24249844f4440p+13", "0x1.79211d74d0762p-22"),
                    "eta_ph": ("0x1.242c982ffbbffp+13", "0x1.79211fbe9dd4bp-22"),
                    "eta_ev": ("0x1.00c3e095482f3p+9", "0x1.444b07de1a87fp-22"),
                },
            ),
            (
                1e12,
                {
                    "eta_total": ("0x1.fffffffff7347p-1", "0x1.24f23dd21e51cp-45"),
                    "eta_pl": ("-0x1.c5fd992be9dabp+24", "0x1.37af1f916e043p-10"),
                    "eta_ph": ("0x1.c5fd9a2be9dabp+24", "0x1.37af1f9192a27p-10"),
                    "eta_ev": ("0x1.8c7b18fdd97f9p+20", "0x1.f4e8138e9ee47p-11"),
                },
            ),
        ],
    )
    def test_every_value_and_error_keeps_its_bits(self, omega_p, bits) -> None:
        # Pinned from the product exp-sinh rule for eta_total and the
        # double-exponential rules of the three surface-mode integrals.  The
        # eta_total and eta_ph of the rows at 1e-5, 0.5, 40, 1e5 and 1e12
        # were re-pinned when eta_total's decay constants became square
        # roots of sums of squares (eta_total moved by at most 2 ulp, within
        # its estimate of the polar oracle); eta_pl and eta_ev kept theirs.
        # The surface-mode values and estimates of the rows at 0.5, 2*pi,
        # 1e5 and 1e12 were re-pinned when the branch functions and omega0
        # took one scaled form each: eta_pl, eta_ph and eta_ev moved by at
        # most 3.6e-15 relative (their estimates are at least 3.6e-11), and
        # each moved value lies within 3.2e-15 of the mpmath integrals.
        # eta_ev of the rows at 1e-5, 0.5, 2*pi, 40, 1e5 and 1e12 was
        # re-pinned when the depth k_P**2 - omega0(k_P)**2 and the cube gap
        # k_P**3 - omega0(k_P)**3 stopped cancelling (both now within 8e-16
        # of mpmath): the value moved by 5.0e-4 relative at 1e12 (the old one
        # broke the sqrt(Omega_P) law), 4.0e-11 at 1e5 (within its 5.9e-10
        # estimate) and at most 1.2e-15 elsewhere, its estimate by at most
        # 1.9e-5 relative.
        breakdown = compute_eta_breakdown(omega_p)
        assert {
            name: (getattr(breakdown, name).hex(), breakdown.error_estimates[name].hex())
            for name in bits
        } == bits

    @pytest.mark.parametrize(
        "omega_p, plasmonic_bits, evanescent_bits",
        [
            (
                1e-3,
                ("0x1.2ab8cd4fddbf1p-12", "0x1.365825a8507c3p-58"),
                ("0x1.2ab9320f0279ap-12", "0x1.3655a85de0c16p-58"),
            ),
            (
                2.0 * math.pi,
                ("-0x1.57020cc539bcbp+4", "0x1.793a6e752da6bp-41"),
                ("0x1.2874d35115ae3p+1", "0x1.01158ee91a80ap-42"),
            ),
            (
                1e5,
                ("-0x1.24249844f43ebp+13", "0x1.3e43ba95d5360p-32"),
                ("0x1.00c3e095482f3p+9", "0x1.24694bd9f6965p-34"),
            ),
        ],
    )
    def test_surface_modes_keep_their_bits_beyond_level_3(
        self, omega_p, plasmonic_bits, evanescent_bits
    ) -> None:
        # At rel_tol 1e-13 the branch sum halves four times, past the levels
        # the double-exponential rule evaluates with its first level.
        # Re-pinned at 2*pi and 1e5 with the one scaled form per branch
        # quantity: eta_ev moved by 1.1e-15 relative, the estimates by < 1e-2.
        # Re-pinned there again with the cancellation-free depth and cube
        # gap: eta_ev moved by 1.2e-15 and 4.0e-11, its estimate by 1.3e-15
        # and 1.9e-2 relative.
        spec = QuadratureSpec(rel_tol=1e-13)
        plasmonic = _eta_plasmonic_detailed(omega_p, spec)
        evanescent = _eta_evanescent_detailed(omega_p, spec)
        assert tuple(x.hex() for x in plasmonic) == plasmonic_bits
        assert tuple(x.hex() for x in evanescent) == evanescent_bits

    def test_alpha_and_the_propagative_identity_keep_their_bits(self) -> None:
        # Both integrate per node (alpha through libm, the identity through
        # root finds), and every one of their integrals reaches level 2 or 3.
        assert short_distance_alpha().hex() == "0x1.317efeed6a700p+0"
        assert [x.hex() for x in propagative_part_identity(5.0)] == [
            "-0x1.17b9ea488f4e6p+4",
            "-0x1.17b9ea488f4e5p+4",
        ]

    @pytest.mark.parametrize("omega_p", [1e-8, 2.0 * math.pi, 1e5])
    def test_looks_up_the_branch_constants_at_most_twice(self, omega_p, monkeypatch) -> None:
        # Once for eta_pl and once for eta_ev; the surface-mode integrands
        # check their domain once per integral, not at every call.
        calls = []

        def counted(Omega_P):
            calls.append(Omega_P)
            return branch_constants(Omega_P)

        for module in (modes, decomposition):
            monkeypatch.setattr(module, "branch_constants", counted)
        compute_eta_breakdown(omega_p)
        assert 0 < len(calls) <= 2

    @pytest.mark.parametrize("omega_p", [1e-8, 2.0 * math.pi, 1e5])
    def test_makes_three_quad_calls_and_two_branch_kernel_calls(
        self, omega_p, monkeypatch
    ) -> None:
        # The branch sum, with its proved tail bound and no envelope probe,
        # calls the kernel on the core of its window and on its one growth
        # step, as the continuation and the reference correction call their
        # integrands.  Every call goes through numerics.quad, which tracers
        # wrap by name.
        kernel, rules = [], []
        rule = numerics.quad

        def counted_kernel(root_z, Omega_P):
            kernel.append(np.size(root_z))
            return modes._branch_combination(root_z, Omega_P)

        def counted_rule(*args):
            out = rule(*args)
            rules.append(out[2]["calls"])
            return out

        monkeypatch.setattr(decomposition, "_branch_combination", counted_kernel)
        monkeypatch.setattr(numerics, "quad", counted_rule)
        compute_eta_breakdown(omega_p)
        assert len(kernel) == 2
        assert rules == [2, 2, 2]

    def test_record_validation(self) -> None:
        with pytest.raises(DomainError):
            EtaBreakdown(
                Omega_P=1.0, eta_total=0.5, eta_pl=0.1, eta_ph=0.39, eta_ev=0.1
            )
        with pytest.raises(DomainError):
            EtaBreakdown(
                Omega_P=1.0, eta_total=0.5, eta_pl=0.1, eta_ph=0.4, eta_ev=-0.1
            )
        with pytest.raises(DomainError):
            EtaBreakdown(
                Omega_P=0.0, eta_total=0.5, eta_pl=0.1, eta_ph=0.4, eta_ev=0.1
            )


# ----------------------------------------------------------------------
# Sign change
# ----------------------------------------------------------------------


class TestSignChange:
    def test_location(self) -> None:
        crossing = locate_sign_change()
        assert crossing == pytest.approx(0.07568148959269373, abs=2e-9)
        assert crossing == pytest.approx(0.08, abs=0.015)

    def test_bracket_end_signs(self) -> None:
        assert eta_plasmonic(2.0 * math.pi * 0.05) > 0.0
        assert eta_plasmonic(2.0 * math.pi * 0.1) < 0.0

    def test_crossing_is_unique_over_wide_scan(self) -> None:
        ratios = np.geomspace(0.005, 2.0, 100)
        signs = [eta_plasmonic(2.0 * math.pi * float(x)) > 0.0 for x in ratios]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert flips == 1


# ----------------------------------------------------------------------
# Large-separation limits
# ----------------------------------------------------------------------


def _mp_branch_sum_limit(s) -> mp.mpf:
    """The literal ``2 s^(3/2) (sqrt(coth(s/2)) + sqrt(tanh(s/2)) - 2)``."""
    return 2 * s**1.5 * (mp.sqrt(mp.coth(s / 2)) + mp.sqrt(mp.tanh(s / 2)) - 2)


def _mp_large_distance():
    """``(gamma, beta_ev, B)`` from the limit integrals ``B`` and ``C`` at 30 digits.

    Beyond ``s`` of about 35 the literal branch-sum integrand cancels to
    nothing at 30 digits, but all it drops there is below 1e-30.
    """
    with mp.workdps(30):
        b = mp.quad(_mp_branch_sum_limit, [0, 1, 4, 16, 64, mp.inf])
        c = mp.quad(lambda u: 2 * u * mp.sqrt(u * mp.cot(u / 2)), [0, mp.pi])
        prefactor = 180 / (2 * mp.pi**3)
        gamma, beta = prefactor * (b + c), prefactor * (4 * mp.sqrt(2) / 5 - b)
        return float(gamma), float(beta), float(b)


def _richardson_sqrt_law(eta) -> float:
    """The limit of ``eta(Omega_P) / sqrt(Omega_P)`` from the closed form alone.

    Samples at 1e11, 1e13 and 1e15 (the surface-mode limit), where the
    correction is a series in ``t = Omega_P**-0.5``; two Richardson steps
    remove its ``t`` and ``t**2`` terms.
    """
    a1, a2, a3 = (eta(w) / math.sqrt(w) for w in (1e11, 1e13, 1e15))
    r1, r2 = (10.0 * a2 - a1) / 9.0, (10.0 * a3 - a2) / 9.0
    return (100.0 * r2 - r1) / 99.0


class TestAsymptoticLimits:
    def test_gamma(self) -> None:
        gamma = large_distance_gamma()
        assert gamma == pytest.approx(29.752, rel=5e-3)
        assert gamma == pytest.approx(29.75278917156393, rel=1e-6)

    def test_beta_ev(self) -> None:
        beta = large_distance_beta_ev()
        assert beta == pytest.approx(1.62399, rel=1e-3)
        assert beta == pytest.approx(1.6239855619810197, rel=1e-6)

    # Out to s = 300, where the literal sum of O(1) terms has lost every digit.
    @pytest.mark.parametrize("s", [1e-20, 1.0, 20.0, 40.0, 300.0])
    def test_branch_sum_integrand_does_not_cancel(self, s: float) -> None:
        with mp.workdps(400):
            reference = _mp_branch_sum_limit(mp.mpf(s))
            value = float(_large_distance_branch_sum(np.array([s]))[0])
            assert float(abs(value - reference) / reference) <= 1e-14

    def test_branch_sum_converges_at_a_tight_tolerance(self) -> None:
        # No TailBoundViolated from noise in the exp-sinh tail probes.
        value, error = integrate(
            _large_distance_branch_sum, 0.0, math.inf, QuadratureSpec(rel_tol=1e-12)
        )
        assert abs(value - _mp_large_distance()[2]) <= error < 1e-12 * value

    def test_limits_match_mpmath_and_the_closed_forms(self) -> None:
        report = asymptotic_report()
        mp_gamma, mp_beta, _ = _mp_large_distance()
        cases = (
            ("gamma", large_distance_gamma(), (mp_gamma, -_richardson_sqrt_law(eta_plasmonic))),
            ("beta_ev", large_distance_beta_ev(), (mp_beta, _richardson_sqrt_law(eta_evanescent))),
        )
        for name, value, (mp_value, richardson) in cases:
            assert value == getattr(report, name)
            # The two oracles are independent of each other and of the value.
            assert richardson == pytest.approx(mp_value, rel=1e-13)
            for oracle in (mp_value, richardson):
                assert value == pytest.approx(oracle, rel=1e-8)
                assert abs(value - oracle) <= report.error_estimates[name]

    def test_alpha_estimate_covers_mpmath(self) -> None:
        report = asymptotic_report()
        assert abs(report.alpha - _mp_alpha()) <= report.error_estimates["alpha"]

    def test_sign_change_estimate_covers_a_tight_root(self) -> None:
        report = asymptotic_report()
        estimate = report.error_estimates["sign_change_L_over_lambdaP"]
        tight = locate_sign_change(QuadratureSpec(rel_tol=1e-12))
        assert abs(report.sign_change_L_over_lambdaP - tight) <= estimate < 1e-9

    def test_report_bundles_everything(self) -> None:
        report = asymptotic_report()
        assert report.alpha == pytest.approx(1.193, abs=1e-3)
        assert report.gamma == pytest.approx(29.752, rel=5e-3)
        assert report.beta_ev == pytest.approx(1.62399, rel=1e-3)
        assert report.sign_change_L_over_lambdaP == pytest.approx(0.0757, abs=1e-3)
        names = ["alpha", "gamma", "beta_ev", "sign_change_L_over_lambdaP"]
        assert list(report.error_estimates) == names
        for name in names:
            assert 0.0 < report.error_estimates[name] < 1e-8 * getattr(report, name)

    def test_report_validation(self) -> None:
        with pytest.raises(DomainError):
            AsymptoticReport(
                alpha=-1.0, gamma=29.75, beta_ev=1.62, sign_change_L_over_lambdaP=0.075
            )
        with pytest.raises(DomainError):
            AsymptoticReport(
                alpha=1.19, gamma=29.75, beta_ev=1.62, sign_change_L_over_lambdaP=1.5
            )
