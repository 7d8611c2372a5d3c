"""Acceptance gate: ten headline capabilities, one test each.

Run with ``pytest -v tests/test_acceptance.py`` to get a single pass/fail
line per criterion.  Each test asserts the documented physical value at its
stated tolerance and stays inside its wall-clock budget.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from casimir_plasmons.decomposition import (
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
from casimir_plasmons.lifshitz import eta_total
from casimir_plasmons.modes import (
    BranchId,
    BranchKind,
    CoupledBranch,
    branch_constants,
    default_dispersion_grid,
    invert_branch,
    photonic_mode,
    sample_dispersion,
)
from casimir_plasmons.numerics import QuadratureSpec
from casimir_plasmons.optics import Polarization, Sector


def test_01_short_distance_coefficient_alpha_within_one_part_per_thousand() -> None:
    start = time.perf_counter()
    alpha = short_distance_alpha()
    elapsed = time.perf_counter() - start
    assert alpha == pytest.approx(1.193, abs=0.001)
    assert elapsed < 1.0


def test_02_all_three_short_distance_slopes_agree_within_one_percent() -> None:
    start = time.perf_counter()
    ratio = 1e-3
    omega_p = 2.0 * math.pi * ratio
    slopes = {
        "total": eta_total(omega_p) / ratio,
        "plasmonic": eta_plasmonic(omega_p) / ratio,
        "evanescent": eta_evanescent(omega_p) / ratio,
    }
    for name, slope in slopes.items():
        assert slope == pytest.approx(1.7895, rel=0.01), name
    assert time.perf_counter() - start < 30.0


def test_03_plasmonic_sign_change_near_eight_percent_of_plasma_wavelength() -> None:
    start = time.perf_counter()
    crossing = locate_sign_change()
    assert crossing == pytest.approx(0.08, abs=0.015)
    # exactly one crossing over the whole bracketed region
    ratios = np.geomspace(0.01, 0.5, 60)
    signs = [eta_plasmonic(2.0 * math.pi * float(x)) > 0.0 for x in ratios]
    assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) == 1
    assert time.perf_counter() - start < 60.0


def test_04_large_separation_plasmonic_coefficient_gamma() -> None:
    start = time.perf_counter()
    assert large_distance_gamma() == pytest.approx(29.752, rel=0.005)
    assert time.perf_counter() - start < 60.0


def test_05_large_separation_evanescent_coefficient_beta() -> None:
    start = time.perf_counter()
    assert large_distance_beta_ev() == pytest.approx(1.62399, rel=0.001)
    assert time.perf_counter() - start < 60.0


def test_06_closed_form_matches_direct_mode_sum_for_both_regulators() -> None:
    start = time.perf_counter()
    for omega_p in (0.5, 5.0, 50.0):
        closed = eta_plasmonic(omega_p)
        for regulator in ("exponential", "gaussian"):
            direct = eta_plasmonic_direct(omega_p, regulator=regulator)
            assert direct == pytest.approx(closed, rel=1e-3), (omega_p, regulator)
    assert time.perf_counter() - start < 120.0


def test_07_propagative_part_identity_holds_to_one_part_per_million() -> None:
    start = time.perf_counter()
    for omega_p in (0.5, 5.0, 50.0):
        lhs, rhs = propagative_part_identity(omega_p)
        assert abs(lhs - rhs) < 1e-6, omega_p
    assert time.perf_counter() - start < 60.0


def test_08_reduction_factor_bounds_monotonicity_and_ideal_cavity_limit() -> None:
    start = time.perf_counter()
    at_fifty = eta_total(2.0 * math.pi * 50.0)
    assert 0.9 < at_fifty < 1.0
    relaxed = QuadratureSpec(rel_tol=1e-7)
    grid = np.geomspace(0.05, 500.0, 30)
    values = [eta_total(float(w), relaxed) for w in grid]
    assert all(0.0 < v < 1.0 for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))
    assert photonic_mode(Polarization.TE, 1, 0.0, 1e6) == pytest.approx(
        math.pi, abs=1e-4
    )
    assert time.perf_counter() - start < 60.0


def test_09_branch_ordering_single_lightcone_crossing_and_degeneracy() -> None:
    start = time.perf_counter()
    omega_p = 2.0 * math.pi * 1.5
    grid = default_dispersion_grid(omega_p)
    branches = [
        BranchId(BranchKind.PLASMONIC_PLUS, Polarization.TM),
        BranchId(BranchKind.PLASMONIC_MINUS, Polarization.TM),
        BranchId(BranchKind.INTERFACE_REFERENCE, Polarization.TM),
    ]
    sampled = dict(sample_dispersion(omega_p, grid, branches))
    plus, minus, zero = (sampled[b] for b in branches)

    for p, z, m in zip(plus, zero, minus):
        assert m.Omega <= z.Omega + 1e-12
        assert z.Omega <= p.Omega + 1e-12

    assert all(pt.sector is Sector.EVANESCENT for pt in minus + zero)

    sectors = [pt.sector for pt in plus]
    assert sum(1 for a, b in zip(sectors, sectors[1:]) if a is not b) == 1
    k_p = branch_constants(omega_p).k_P
    last_prop = max(pt.K for pt in plus if pt.sector is Sector.PROPAGATIVE)
    first_evan = min(pt.K for pt in plus if pt.sector is Sector.EVANESCENT)
    assert last_prop <= k_p <= first_evan * (1.0 + 1e-12)

    big_k = 50.0 * omega_p
    reference = invert_branch(CoupledBranch.ZERO, big_k, omega_p)
    for branch in (CoupledBranch.PLUS, CoupledBranch.MINUS):
        assert abs(invert_branch(branch, big_k, omega_p) - reference) < 1e-6
    assert time.perf_counter() - start < 10.0


def test_10_decomposition_closure_and_plasmonic_dominance_at_large_separation() -> None:
    start = time.perf_counter()
    breakdown = compute_eta_breakdown(1e4)
    assert abs(breakdown.eta_pl) > 100.0 * breakdown.eta_total
    assert abs(breakdown.eta_pl + breakdown.eta_ph - breakdown.eta_total) < 1e-12
    assert breakdown.eta_ph > 0.0
    assert time.perf_counter() - start < 60.0
