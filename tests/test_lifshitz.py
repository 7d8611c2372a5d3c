"""Tests for the reduction-factor and physical-energy layer.

The production code evaluates the reduction factor with a product of two
exp-sinh rules over the wavevector / imaginary-frequency quadrant.  The main
oracle here re-evaluates it with nested double-exponential quadrature in
polar coordinates — a genuinely different rule and integration geometry whose only
shared ingredient is the reflection coefficient — and demands agreement far
below the advertised tolerance, and within the two reported error estimates.
"""

from __future__ import annotations

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casimir_plasmons.decomposition import short_distance_alpha
from casimir_plasmons import lifshitz, numerics
from casimir_plasmons.errors import DomainError
from casimir_plasmons.lifshitz import (
    REDUCED_PLANCK,
    SPEED_OF_LIGHT,
    EnergyResult,
    PhysicalSetup,
    _eta_total_detailed,
    _mode_sum_integrand,
    casimir_ideal_energy,
    energy_breakdown,
    eta_total,
)
from casimir_plasmons.numerics import QuadratureSpec, integrate
from casimir_plasmons.optics import PlasmaMirror, _decay_constants, reflection_sq_imag_axis


def _eta_polar_oracle(omega_p: float) -> tuple:
    """Reduction factor via polar coordinates over the quarter-plane.

    With ``K = rho cos(theta)`` and ``Xi = rho sin(theta)`` the Jacobian turns
    the weight ``K dK dXi`` into ``rho^2 cos(theta) drho dtheta`` and the decay
    exponent becomes exactly ``2 rho``.  The radial cutoff matches the decade
    where ``exp(-2 rho)`` underflows any representable log contribution.

    Returns ``(value, error)``: the outer estimate plus the largest inner
    estimate times the pi/2 width of the outer interval.
    """
    inner_spec = QuadratureSpec(rel_tol=1e-11)
    outer_spec = QuadratureSpec(rel_tol=1e-10)
    inner_errors = []

    def radial(theta: float) -> float:
        cos_t, sin_t = math.cos(theta), math.sin(theta)

        def integrand(rho: np.ndarray) -> np.ndarray:
            big_k, xi = rho * cos_t, rho * sin_t
            total = 0.0
            for pol in ("te", "tm"):
                r_sq = reflection_sq_imag_axis(pol, big_k, xi, omega_p)
                total += np.log1p(-r_sq * np.exp(-2.0 * rho))
            return rho * rho * total

        value, error = integrate(integrand, 0.0, 45.0, inner_spec)
        inner_errors.append(cos_t * error)
        return cos_t * value

    value, error = integrate(
        lambda thetas: np.array([radial(theta) for theta in thetas.tolist()]),
        0.0,
        math.pi / 2.0,
        outer_spec,
    )
    scale = 180.0 / math.pi**4
    return -scale * value, scale * (error + 0.5 * math.pi * max(inner_errors))


def _per_node_log_one_minus(
    kappa: np.ndarray, x: np.ndarray, damping: np.ndarray, r_sq: np.ndarray
) -> np.ndarray:
    """``ln(1 - r^2 e^(-2 kappa))`` accurate at every node: the kernel's former body.

    ``r_sq`` is the cancellation-free amplitude of reflection_sq_imag_axis
    and ``1 - r^2 = 4 (kappa/(kappa + x)) (x/(kappa + x))``.  Where
    ``p = r^2 e^(-2 kappa)`` exceeds 1/2 the logarithm is
    ``ln(-expm1(-2 kappa) + e^(-2 kappa) (1 - r^2))``, which stays finite
    and accurate as ``p`` tends to 1; elsewhere it is ``log1p(-p)``.
    """
    width = kappa + x
    p = r_sq * damping
    near = np.nonzero(p > 0.5)
    # Overwritten below; log1p(-p) would see -1 there when p rounds to 1.
    p[near] = 0.0
    np.negative(p, out=p)
    np.log1p(p, out=p)
    k, width = kappa[near], width[near]
    one_minus_r_sq = 4.0 * (k / width) * (x[near] / width)
    p[near] = np.log(damping[near] * one_minus_r_sq - np.expm1(-2.0 * k))
    return p


def _per_node_integrand(
    K: np.ndarray, Xi: np.ndarray, Omega_P: float, lo: float, hi: float
) -> np.ndarray:
    """The mode-sum integrand from :func:`_per_node_log_one_minus`, one
    reflection_sq_imag_axis call per polarization."""
    kappa, kappa_t, reduced = _decay_constants(K, Xi, Omega_P, lo, hi)
    damping = np.exp(-2.0 * kappa)
    total = 0.0
    for pol, x in (("TE", kappa_t), ("TM", reduced)):
        r_sq = reflection_sq_imag_axis(pol, K, Xi, Omega_P)
        total = total + _per_node_log_one_minus(kappa, x, damping, r_sq)
    return K * total


def _mp_integrand(K: float, Xi: float, Omega_P: float) -> float:
    """``K * sum_pol ln(1 - r_pol^2 e^(-2 kappa))`` at 40 digits."""
    with mp.workdps(40):
        K, Xi, Omega_P = mp.mpf(K), mp.mpf(Xi), mp.mpf(Omega_P)
        kappa = mp.sqrt(K**2 + Xi**2)
        kappa_t = mp.sqrt(kappa**2 + Omega_P**2)
        total = 0
        for x in (kappa_t, kappa_t / (1 + (Omega_P / Xi) ** 2)):
            total += mp.log1p(-(((kappa - x) / (kappa + x)) ** 2) * mp.exp(-2 * kappa))
        return float(K * total)


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

    @pytest.mark.parametrize("omega_p", [3e-5, 1e-4, 1e-3, 0.5, 2.0 * math.pi, 1e3, 1e4])
    def test_error_estimate_covers_distance_to_polar_oracle(self, omega_p) -> None:
        # The estimate is also sharp: the finest level is within about 1e-15
        # of the oracle, and the error it reports stays below 1e-13.
        value, error = _eta_total_detailed(omega_p)
        reference, reference_error = _eta_polar_oracle(omega_p)
        assert 0.0 <= error <= 1e-13 * value
        assert abs(value - reference) <= error + reference_error

    @pytest.mark.parametrize("omega_p", [2.0 * math.pi, 1e3, 1e4])
    def test_certifies_a_tight_tolerance_against_polar_oracle(self, omega_p) -> None:
        # Nothing outside the rule's reach puts a floor under rel_tol: 1e-13
        # is certified, and the value meets the polar oracle within the two
        # estimates.
        tight = QuadratureSpec(rel_tol=1e-13)
        value, error = _eta_total_detailed(omega_p, tight)
        reference, reference_error = _eta_polar_oracle(omega_p)
        assert 0.0 <= error <= 1e-13 * value
        assert abs(value - reference) <= error + reference_error

    @given(log_omega=st.floats(-300.0, 300.0))
    @example(log_omega=200.0)  # the rule's rounding put 1 + 2.2e-16 here
    @example(log_omega=300.0)
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_value_with_honest_estimate_or_typed_error(self, log_omega) -> None:
        # Every positive finite Omega_P in this range gives a value: the
        # quadrant rule has no box whose bounds could leave the float range.
        omega_p = 10.0**log_omega
        value, error = _eta_total_detailed(omega_p)
        assert 0.0 < value <= 1.0
        assert 0.0 <= error <= 1e-9 * value
        assert _eta_total_detailed(omega_p) == (value, error)

    @pytest.mark.parametrize("omega_p", [1e-8, 2.0 * math.pi, 1e5])
    def test_default_tolerance_takes_at_most_three_halvings(self, omega_p, monkeypatch) -> None:
        # Level 3 of the product rule has 121 nodes per axis.  Each level
        # evaluates its new nodes in one call of the kernel: four calls.
        total = 9244 if omega_p < 1.0 else 7333
        nodes = []

        def counted(K, Xi, Omega_P, *bounds):
            nodes.append(np.broadcast(K, Xi).size)
            return _mode_sum_integrand(K, Xi, Omega_P, *bounds)

        monkeypatch.setattr(lifshitz, "_mode_sum_integrand", counted)
        eta_total(omega_p)
        assert sum(nodes) == total <= 121**2
        assert len(nodes) == 4
        assert max(nodes) <= 8192

    @pytest.mark.parametrize("omega_p", [5e-5, 1e-4, 3e-4])
    def test_converges_where_nested_quadrature_failed(self, omega_p) -> None:
        value, error = _eta_total_detailed(omega_p)
        assert 0.0 < value < 1.0
        assert error <= 1e-9 * value

    @pytest.mark.parametrize("omega_p", [1e-300, 1e-8, 1e-6, 1e-5])
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
        loose = eta_total(2.0 * math.pi, QuadratureSpec(rel_tol=1e-6))
        assert loose == pytest.approx(tight, abs=1e-6)

    def test_validation(self) -> None:
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(DomainError):
                eta_total(bad)


class TestModeSumIntegrand:
    """The integrand against one amplitude per polarization."""

    @pytest.mark.parametrize("omega_p", [1e-8, 0.1, 2.0 * math.pi, 1e12, 1e200])
    def test_matches_one_amplitude_call_per_polarization(self, omega_p) -> None:
        K = np.array([[0.0], [1e-7], [0.5], [7.0], [45.0]])
        # The first row reaches below 1e-150 * Omega_P, so its block takes the
        # small-Xi TM form; the second takes the ratio form up to 1e129.
        rows = (
            np.array([[1e-300, 1e-160, 1e-21, 1e-8, 0.5, 45.0]]),
            np.array([[1e-21, 1e-8, 1e-3, 0.5, 3.0, 45.0]]),
        )

        def reference(k, xi, bounds):
            """``k * sum_pol log1p(-p)`` with ``p = r^2 e^(-2 kappa)``, and its
            rounding amplification ``k * sum_pol p / (1 - p)``.

            ``r = (kappa - x)/(kappa + x)`` is the kernel's amplitude, from
            the same decay constants, one polarization at a time (the public
            reflection_sq_imag_axis avoids the difference, which cancels
            where Omega_P << kappa).
            """
            kappa, kappa_t, reduced = _decay_constants(k, xi, omega_p, *bounds)
            damping = np.exp(-2.0 * np.hypot(k, xi))
            logs = conditioning = 0.0
            for x in (kappa_t, reduced):
                p = ((kappa - x) / (kappa + x)) ** 2 * damping
                logs = logs + np.log1p(-p)
                conditioning = conditioning + p / (1.0 - p)
            return k * logs, k * conditioning

        eps = np.finfo(float).eps
        compared = saturated = 0
        for Xi in rows:
            blocks = [(K, Xi)] + [(K[i : i + 1], Xi) for i in range(K.shape[0])]
            blocks += [(K[i : i + 1], Xi[:, j : j + 1]) for i, j in np.ndindex(5, 6)]
            for k, xi in blocks:
                # The node bounds that reflection_sq_imag_axis derives.
                bounds = max(k.min(), xi.min()), max(k.max(), xi.max())
                value = _mode_sum_integrand(k, xi, omega_p, *bounds)
                assert np.isfinite(value).all() and value.max() <= 0.0
                # Where p rounds to 1 (K = 0, tiny Xi) the reference is -inf;
                # elsewhere its own rounding of p grows by p / (1 - p).
                with np.errstate(divide="ignore", invalid="ignore"):
                    expected, conditioning = reference(k, xi, bounds)
                    finite = np.isfinite(expected)
                    bound = 8.0 * eps * (np.abs(expected) + conditioning)
                assert (np.abs(value - expected) <= bound)[finite].all()
                compared += int(finite.sum())
                saturated += int((~finite).sum())
        assert compared >= 100 and saturated > 0

    @pytest.mark.parametrize("omega_p", [1e-8, 2.0 * math.pi])
    def test_reference_integrand_is_accurate_at_every_node(self, omega_p) -> None:
        # Where the kernel's r cancels (Omega_P << kappa) and where p is near 1
        # (small K and Xi), the reference holds per node, up to the rounding
        # of kappa that e^(-2 kappa) amplifies.  The kernel does not: at 1e-8
        # it gives -0.0 at (0.5, 3), and at 2 pi it is 3e-11 off near p = 1.
        K = np.array([[1e-7], [1e-3], [0.5], [7.0], [30.0]])
        Xi = np.array([[1e-21 * omega_p, 1e-3 * omega_p, omega_p, 0.5, 3.0, 30.0]])
        value = _per_node_integrand(K, Xi, omega_p, 1e-7, 30.0)
        expected = np.vectorize(_mp_integrand)(K, Xi, omega_p)
        bound = 8.0 * np.finfo(float).eps * (1.0 + 2.0 * np.hypot(K, Xi)) * np.abs(expected)
        assert (np.abs(value - expected) <= bound).all()

    @pytest.mark.parametrize("omega_p", [1e-8, 1e-4, 2.0 * math.pi, 1e5, 1e12])
    def test_value_lies_within_its_estimate_of_the_per_node_accurate_integrand(
        self, omega_p, monkeypatch
    ) -> None:
        # The kernel's terms are accurate relative to the summed |terms|, not
        # per node; what that costs eta_total stays inside its estimate.
        value, error = _eta_total_detailed(omega_p)
        monkeypatch.setattr(lifshitz, "_mode_sum_integrand", _per_node_integrand)
        reference, _ = _eta_total_detailed(omega_p)
        assert abs(value - reference) <= error

    @pytest.mark.parametrize("omega_p", [1.0, 1e12, 1e300])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_where_p_rounds_to_one(self, omega_p) -> None:
        # Level 0's outermost corner node: p = r^2 e^(-2 kappa) is 1 in floats.
        K = Xi = np.array([2e-31])
        kappa, kappa_t, reduced = _decay_constants(K, Xi, omega_p, *lifshitz._NODE_RANGE)
        damping = np.exp(-2.0 * kappa)
        for x in (kappa_t, reduced):
            assert (((kappa - x) / (kappa + x)) ** 2 * damping == 1.0).all()
            logs = lifshitz._log_one_minus(kappa, x, damping)
            assert np.isfinite(logs).all() and logs.max() <= 0.0
        value = _mode_sum_integrand(K, Xi, omega_p, *lifshitz._NODE_RANGE)
        assert np.isfinite(value).all() and value.max() <= 0.0

    def test_quadrant_nodes_lie_in_the_kernels_node_range(self) -> None:
        # The kernel takes its squares form on the bounds of _NODE_RANGE, so
        # a wider _DE_WINDOWS must fail here instead of taking that form out
        # of its range.
        assert lifshitz._NODE_RANGE == (1e-31, 1e7)
        for level in range(numerics._QUADRANT_LEVELS + 1):
            offset = numerics._de_nodes("exp-sinh", level)[0]
            assert 1e-31 <= offset.min() and offset.max() <= 1e7

    def test_both_sides_of_the_squares_switch_agree(self) -> None:
        # Up to Omega_P = 1e150 the kernel squares; above it, hypot.
        below, above = (math.nextafter(1e150, to) for to in (0.0, math.inf))
        (low, low_error), (high, high_error) = map(_eta_total_detailed, (below, above))
        assert abs(low - high) <= min(low_error, high_error)
        assert 1.0 - 1e-15 <= min(low, high)

    @pytest.mark.parametrize(
        "omega_p, value_bits, error_bits",
        [
            (1e-10, "0x1.f52f02089097ap-36", "0x1.4145aaa9f322fp-81"),
            (1e-08, "0x1.878cb996b0f40p-29", "0x1.f5fcdaa98be69p-75"),
            (1e-06, "0x1.31e5f0fd840bep-22", "0x1.882e025a26bd4p-68"),
            (3e-05, "0x1.1ec791702104ap-17", "0x1.6b37d2e901931p-63"),
            (1e-03, "0x1.2ab9481ab5e3fp-12", "0x1.341ebe14193dfp-58"),
            (0.05, "0x1.cd9f2baa077d9p-7", "0x1.2b5990e3a87d7p-52"),
            (0.5, "0x1.e5b8f3d363032p-4", "0x1.44148924a213ap-49"),
            (2.0 * math.pi, "0x1.3549e9e69ddd2p-1", "0x1.2951cb39be600p-46"),
            (40.0, "0x1.d11458dd3122cp-1", "0x1.7c766d4a90f34p-46"),
            (1e3, "0x1.fdf597ff5b20ap-1", "0x1.206a6addd7bc2p-45"),
            (1e5, "0x1.fffac1defc46cp-1", "0x1.24e6af4605796p-45"),
            (1e12, "0x1.fffffffff7347p-1", "0x1.24f23dd21e51cp-45"),
        ],
    )
    def test_value_and_error_keep_their_bits(self, omega_p, value_bits, error_bits) -> None:
        # Pinned from the product exp-sinh rule; each value is within 1.3e-15
        # of the polar oracle where that was checked (1e-4 to 1e4).  The rows
        # at 3e-5, 0.5, 40, 1e5 and 1e12 were re-pinned when the decay
        # constants became square roots of sums of squares: each value moved
        # by at most 2 ulp and lies within 0.06 of its estimate of the polar
        # oracle at rel_tol = 1e-13 (1e-12 at 3e-5).  The error at 3e-5 moved
        # by 7.6e-7 relative when the kernel dropped its near-one form; the
        # value held its bits, 0.055 of that estimate from the polar oracle.
        value, error = _eta_total_detailed(omega_p)
        assert (value.hex(), error.hex()) == (value_bits, error_bits)


class TestQuadrantLayoutCache:
    """Each level's nodes are built once per window and shared by every Omega_P."""

    # Three windows of the product rule: 1e-6 reaches one level-0 node
    # further along Xi than 1e-2, and 1e-2 two further than 2*pi.
    @pytest.mark.parametrize("omega_p", [1e-6, 1e-2, 2.0 * math.pi])
    def test_cold_and_warm_layouts_give_the_same_bits(self, omega_p) -> None:
        numerics._quadrant_level.cache_clear()
        cold = _eta_total_detailed(omega_p)
        assert numerics._quadrant_level.cache_info().misses == 3
        warm = _eta_total_detailed(omega_p)
        assert numerics._quadrant_level.cache_info().hits == 3
        assert [x.hex() for x in warm] == [x.hex() for x in cold]

    def test_levels_share_read_only_nodes_within_a_window(self, monkeypatch) -> None:
        # 1 and 1e3 share a window, so levels 1 to 3 hand the kernel views of
        # the same cached arrays; f can write into none of them.
        calls = []

        def recorded(f, spec):
            def g(x, y):
                calls.append((x, y))
                return f(x, y)

            return numerics.integrate_quadrant(g, spec)

        monkeypatch.setattr(lifshitz, "integrate_quadrant", recorded)
        for omega_p in (1.0, 1e3):
            eta_total(omega_p)
        assert len(calls) == 8  # levels 0 to 3, one call each
        first, second = calls[1:4], calls[5:]
        for (x, y), (x2, y2) in zip(first, second):
            assert not (x.flags.writeable or y.flags.writeable)
            assert x.base is x2.base is not None and y.base is y2.base
            with pytest.raises(ValueError):
                x[0] = 1.0

    def test_the_cache_is_bounded(self) -> None:
        # Levels 4 and 5, at tight tolerances, hold up to 173,280 nodes.
        assert 0 < numerics._quadrant_level.cache_info().maxsize <= 16


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
