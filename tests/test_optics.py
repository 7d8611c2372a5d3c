"""Tests for the mirror response layer against a high-precision oracle.

The oracle evaluates the permittivity-weighted Fresnel form at 40 decimal
digits with mpmath, which is an independent route: the implementation uses
a rearranged amplitude that avoids overflow at small imaginary frequency.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casimir_plasmons.errors import DomainError
from casimir_plasmons.optics import (
    LIGHTCONE_TOLERANCE,
    PlasmaMirror,
    Polarization,
    Sector,
    _decay_constants,
    classify,
    reflection_sq_imag_axis,
)

_SPEED_OF_LIGHT = 299_792_458.0


def _reflection_sq_oracle(pol, K, Xi, Omega_P):
    """Squared reflection amplitude from the eps-weighted textbook form."""
    with mp.workdps(40):
        K, Xi, W = mp.mpf(K), mp.mpf(Xi), mp.mpf(Omega_P)
        kappa = mp.sqrt(K**2 + Xi**2)
        kappa_t = mp.sqrt(kappa**2 + W**2)
        if pol is Polarization.TE:
            amplitude = (kappa - kappa_t) / (kappa + kappa_t)
        else:
            eps = 1 + (W / Xi) ** 2
            amplitude = (eps * kappa - kappa_t) / (eps * kappa + kappa_t)
        return float(amplitude**2)


def test_reflection_matches_high_precision_oracle():
    for Omega_P in (0.1, 2.0 * math.pi, 500.0):
        for K in (0.0, 0.5, 2.0, 7.0):
            for Xi in (1e-8, 1e-3, 0.5, 3.0, 40.0):
                for pol in (Polarization.TE, Polarization.TM):
                    computed = reflection_sq_imag_axis(pol, K, Xi, Omega_P)
                    oracle = _reflection_sq_oracle(pol, K, Xi, Omega_P)
                    assert computed == pytest.approx(oracle, rel=1e-12), (
                        pol,
                        K,
                        Xi,
                        Omega_P,
                    )
    # Where Omega_P << kappa the difference kappa - kappa_t cancelled: 0.0
    # for both polarizations at the first point (about 1.5e-40 and 3.1e-35),
    # 3.3e-4 off for TE at the second.
    for K, Xi, Omega_P in ((45.0, 3.0, 1e-8), (1.0, 1.0, 1e-6)):
        for pol in (Polarization.TE, Polarization.TM):
            oracle = _reflection_sq_oracle(pol, K, Xi, Omega_P)
            assert reflection_sq_imag_axis(pol, K, Xi, Omega_P) == pytest.approx(
                oracle, rel=1e-12, abs=0.0
            ), (pol, K, Xi, Omega_P)


@given(
    K=st.floats(0.0, 100.0),
    Xi=st.floats(1e-6, 100.0),
    Omega_P=st.floats(1e-3, 1e3),
    pol=st.sampled_from([Polarization.TE, Polarization.TM]),
)
@settings(max_examples=200, deadline=None)
@example(K=52.234375, Xi=1e-06, Omega_P=968.5, pol=Polarization.TM)
def test_reflection_squared_always_in_unit_interval(K, Xi, Omega_P, pol):
    r_sq = reflection_sq_imag_axis(pol, K, Xi, Omega_P)
    assert 0.0 <= r_sq <= 1.0


def test_normal_incidence_degeneracy():
    # At K = 0 no plane of incidence is singled out, so the two
    # polarizations must reflect identically.
    for Omega_P in (0.05, 1.0, 2.0 * math.pi, 300.0):
        for Xi in (1e-4, 0.3, 2.0, 25.0):
            te = reflection_sq_imag_axis(Polarization.TE, 0.0, Xi, Omega_P)
            tm = reflection_sq_imag_axis(Polarization.TM, 0.0, Xi, Omega_P)
            assert te == pytest.approx(tm, abs=1e-14)


def test_reflection_monotone_in_plasma_parameter():
    for pol in (Polarization.TE, Polarization.TM):
        previous = -1.0
        for Omega_P in (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0):
            current = reflection_sq_imag_axis(pol, 1.3, 0.7, Omega_P)
            assert current > previous
            previous = current


def test_reflection_limits():
    # Perfect-mirror limit: r^2 -> 1 as Omega_P -> inf.
    assert reflection_sq_imag_axis(Polarization.TE, 1.0, 1.0, 1e8) > 1.0 - 1e-7
    assert reflection_sq_imag_axis(Polarization.TM, 1.0, 1.0, 1e8) > 1.0 - 1e-7
    # Transparent limit: r^2 ~ Omega_P^4 -> 0.
    assert reflection_sq_imag_axis(Polarization.TE, 1.0, 1.0, 1e-6) < 1e-24
    assert reflection_sq_imag_axis(Polarization.TM, 1.0, 1.0, 1e-6) < 1e-24


def test_reflection_small_xi_overflow_safety():
    # The rearranged TM form must stay finite and sensible for Xi values
    # where (Omega_P/Xi)^2 alone would overflow.
    r_sq = reflection_sq_imag_axis(Polarization.TM, 1.0, 1e-200, 10.0)
    assert 0.0 <= r_sq <= 1.0
    assert r_sq == pytest.approx(1.0, abs=1e-6)


def test_reflection_polarization_coercion_and_validation():
    assert reflection_sq_imag_axis("te", 1.0, 1.0, 1.0) == reflection_sq_imag_axis(
        Polarization.TE, 1.0, 1.0, 1.0
    )
    with pytest.raises(DomainError):
        reflection_sq_imag_axis("circular", 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        reflection_sq_imag_axis(Polarization.TE, -1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        reflection_sq_imag_axis(Polarization.TE, 1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        reflection_sq_imag_axis(Polarization.TE, 1.0, 1.0, -2.0)


def test_reflection_blocks_match_scalar_calls():
    # The array form broadcasts a column of K against a row of Xi; np.hypot
    # and math.hypot may round differently in the last place.
    K = np.array([[0.0], [1e-7], [0.5], [7.0], [45.0]])
    Xi = np.array([[1e-21, 1e-8, 1e-3, 0.5, 3.0, 45.0]])
    for Omega_P in (1e-8, 0.1, 2.0 * math.pi, 1e12):
        for pol in (Polarization.TE, Polarization.TM):
            block = reflection_sq_imag_axis(pol, K, Xi, Omega_P)
            assert block.shape == (5, 6)
            for i, j in np.ndindex(block.shape):
                scalar = reflection_sq_imag_axis(pol, float(K[i, 0]), float(Xi[0, j]), Omega_P)
                assert block[i, j] == pytest.approx(scalar, rel=8 * np.finfo(float).eps)
    for bad_K, bad_Xi in ((K - 1.0, Xi), (K + np.inf, Xi), (K, Xi * 0.0), (K, Xi + np.nan)):
        with pytest.raises(DomainError):
            reflection_sq_imag_axis(Polarization.TM, bad_K, bad_Xi, 1.0)


@given(
    log_K=st.lists(st.floats(-31.0, 7.0), min_size=1, max_size=40),
    log_Xi=st.lists(st.floats(-31.0, 7.0), min_size=1, max_size=40),
    log_Omega_P=st.floats(-300.0, 300.0),
)
@settings(max_examples=200, deadline=None)
def test_squares_form_is_within_rounding_of_hypot(log_K, log_Xi, log_Omega_P):
    # Over the product rule's node range the decay constants are square
    # roots of sums of squares up to Omega_P = 1e150 and hypots above.
    # Bounds in eps, relative: the root of two (three) rounded squares is
    # within 1 (1.25) of the exact one, hypot within 0.5 and a hypot of it
    # within 1.25; kappa_t / eps is the same quotient of either kappa_t,
    # rounded once more on each side.  Over 1e8 nodes the largest gaps were
    # 1.0, 2.0 and 2.6.
    K = 10.0 ** np.array(log_K)[:, np.newaxis]
    Xi = 10.0 ** np.array(log_Xi)[np.newaxis, :]
    Omega_P = 10.0**log_Omega_P
    squares = _decay_constants(K, Xi, Omega_P, 1e-31, 1e7)
    hypots = _decay_constants(K, Xi, Omega_P, 0.0, math.inf)
    eps = np.finfo(float).eps
    names = ("kappa", "kappa_t", "kappa_t/eps")
    for name, bound, a, b in zip(names, (2.0, 2.5, 3.5), squares, hypots):
        assert (np.abs(a - b) <= bound * eps * b).all(), name


@pytest.mark.parametrize(
    "K, Xi, Omega_P",
    [
        # K and Xi both at most 1e-160, below the squares form's 1e-150.
        ([0.0, 1e-170, 3e-162, 1e-161, 1e-160], [1e-200, 1e-168, 5e-162, 2e-161, 1e-160], 1e-161),
        # K or Xi at least 1e160, above its 1e150.
        ([0.0, 1.0, 3e159, 1e160, 1e162], [1e-3, 1e150, 4e159, 1e160, 1e161], 1e161),
        # Omega_P above it.
        ([0.0, 1e-3, 1.0, 3e199, 1e200], [1e-300, 1e-5, 1e100, 2e199, 1e200], 1e200),
        ([0.0, 1e-3, 1.0, 3e299, 1e300], [1e-300, 1e-5, 1e100, 2e299, 1e300], 1e300),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_hypot_blocks_match_high_precision_oracle(K, Xi, Omega_P):
    # Blocks whose squares could underflow or overflow take hypot; each
    # node keeps kappa within about 14 Omega_P, where TE's kappa_t - kappa
    # costs at most about 200 ulp.
    K, Xi = np.array(K)[:, np.newaxis], np.array(Xi)[np.newaxis, :]
    for pol in (Polarization.TE, Polarization.TM):
        block = reflection_sq_imag_axis(pol, K, Xi, Omega_P)
        for i, j in np.ndindex(block.shape):
            oracle = _reflection_sq_oracle(pol, K[i, 0], Xi[0, j], Omega_P)
            assert block[i, j] == pytest.approx(oracle, rel=1e-12, abs=0.0), (pol, i, j)


def test_classify_sectors():
    assert classify(1.0, 2.0) is Sector.PROPAGATIVE
    assert classify(2.0, 1.0) is Sector.EVANESCENT
    assert classify(1.0, 1.0) is Sector.LIGHTCONE
    assert classify(1.0, 1.0 + 0.5 * LIGHTCONE_TOLERANCE) is Sector.LIGHTCONE
    assert classify(0.0, 0.0) is Sector.LIGHTCONE
    with pytest.raises(DomainError):
        classify(-1.0, 0.0)
    with pytest.raises(DomainError):
        classify(0.0, -1.0)


def test_plasma_mirror_constructors_roundtrip():
    mirror = PlasmaMirror.from_plasma_wavelength(137e-9)
    assert mirror.lambda_p == 137e-9
    assert mirror.omega_p == pytest.approx(
        2.0 * math.pi * _SPEED_OF_LIGHT / 137e-9, rel=1e-15
    )
    again = PlasmaMirror.from_plasma_frequency(mirror.omega_p)
    assert again.lambda_p == pytest.approx(mirror.lambda_p, rel=1e-15)


def test_plasma_mirror_rejects_inconsistent_pair():
    with pytest.raises(DomainError):
        PlasmaMirror(omega_p=1e16, lambda_p=100e-9)
    with pytest.raises(DomainError):
        PlasmaMirror.from_plasma_frequency(-1.0)
    with pytest.raises(DomainError):
        PlasmaMirror.from_plasma_wavelength(0.0)
