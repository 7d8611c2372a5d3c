"""The domain contract shared by every public entry that takes ``Omega_P``.

Each accepted ``Omega_P`` is a real number in ``(0, inf)``; zero, negative
values, NaN and infinity must raise :class:`DomainError` rather than return
NaN, a plausible but wrong value, or an untyped exception.  The same holds
for NaN and infinite values of the other real arguments: the wavevector
``K``, the imaginary frequency ``Xi``, the branch variable ``z`` and the
mode index ``m``, and of the ``(K, Omega)`` point that ``classify`` and
``DispersionPoint`` place against the light cone.
"""

from __future__ import annotations

import math

import pytest

from casimir_plasmons import cli
from casimir_plasmons.decomposition import (
    EtaBreakdown,
    compute_eta_breakdown,
    eta_evanescent,
    eta_plasmonic,
    eta_plasmonic_direct,
    propagative_part_identity,
)
from casimir_plasmons.errors import DomainError
from casimir_plasmons.lifshitz import eta_total
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
)
from casimir_plasmons.optics import (
    Polarization,
    Sector,
    classify,
    reflection_sq_imag_axis,
)

ENTRIES = {
    "reflection_sq_imag_axis": lambda w: reflection_sq_imag_axis("TE", 1.0, 1.0, w),
    "omega0": lambda w: omega0(1.0, w),
    "f_branch": lambda w: f_branch(CoupledBranch.PLUS, 1.0, w),
    "g_branch": lambda w: g_branch(CoupledBranch.PLUS, 1.0, w),
    "g_branch_combination": lambda w: g_branch_combination(1.0, w),
    "branch_constants": branch_constants,
    "invert_branch_plus": lambda w: invert_branch(CoupledBranch.PLUS, 1.0, w),
    "invert_branch_minus": lambda w: invert_branch(CoupledBranch.MINUS, 1.0, w),
    "invert_branch_zero": lambda w: invert_branch(CoupledBranch.ZERO, 1.0, w),
    "photonic_mode_te": lambda w: photonic_mode(Polarization.TE, 1, 1.0, w),
    "photonic_mode_tm": lambda w: photonic_mode(Polarization.TM, 1, 1.0, w),
    "default_dispersion_grid": lambda w: default_dispersion_grid(w, 5),
    "eta_total": eta_total,
    "eta_plasmonic": eta_plasmonic,
    "eta_evanescent": eta_evanescent,
    "eta_plasmonic_direct": eta_plasmonic_direct,
    "propagative_part_identity": propagative_part_identity,
    "compute_eta_breakdown": compute_eta_breakdown,
    "EtaBreakdown": lambda w: EtaBreakdown(
        Omega_P=w, eta_total=0.5, eta_pl=0.25, eta_ph=0.25, eta_ev=0.1
    ),
}


# A bool is not a plasma parameter, and 2**1100 has no float value.
@pytest.mark.parametrize(
    "Omega_P",
    [0.0, -1.0, math.nan, math.inf, True, pytest.param(2**1100, id="2**1100")],
)
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_out_of_domain_plasma_parameter_raises_domain_error(entry, Omega_P) -> None:
    with pytest.raises(DomainError):
        ENTRIES[entry](Omega_P)


OTHER_ARGUMENTS = {
    "omega0_K": lambda x: omega0(x, 1.0),
    "invert_branch_plus_K": lambda x: invert_branch(CoupledBranch.PLUS, x, 1.0),
    "invert_branch_minus_K": lambda x: invert_branch(CoupledBranch.MINUS, x, 1.0),
    "invert_branch_zero_K": lambda x: invert_branch(CoupledBranch.ZERO, x, 1.0),
    "photonic_mode_te_K": lambda x: photonic_mode(Polarization.TE, 1, x, 5.0),
    "photonic_mode_tm_K": lambda x: photonic_mode(Polarization.TM, 1, x, 5.0),
    "reflection_sq_imag_axis_K": lambda x: reflection_sq_imag_axis("TE", x, 1.0, 1.0),
    "reflection_sq_imag_axis_Xi": lambda x: reflection_sq_imag_axis("TE", 1.0, x, 1.0),
    "g_branch_combination_z": lambda x: g_branch_combination(x, 1.0),
    "photonic_mode_m": lambda x: photonic_mode(Polarization.TE, x, 1.0, 5.0),
    "BranchId_m": lambda x: BranchId(BranchKind.PHOTONIC, Polarization.TE, m=x),
    "classify_K": lambda x: classify(x, 1.0),
    "classify_Omega": lambda x: classify(1.0, x),
    "classify_both": lambda x: classify(x, x),
    "DispersionPoint": lambda x: DispersionPoint(K=x, Omega=x, sector=Sector.EVANESCENT),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(OTHER_ARGUMENTS))
def test_non_finite_argument_raises_domain_error(entry, value) -> None:
    with pytest.raises(DomainError):
        OTHER_ARGUMENTS[entry](value)


def test_tiny_plasma_parameter_gives_a_typed_error(capsys) -> None:
    # At Omega_P = 1e-300 every term of omega0's rationalised form underflows
    # (it divided 0 by 0); its ratio form does not.  The command then stops
    # at branch_constants, whose endpoint equation underflows there, with a
    # one-line typed message instead of a traceback.
    tiny = 1e-300
    expected = tiny * math.sqrt(2.0 / (3.0 + math.sqrt(5.0)))
    assert omega0(tiny, tiny) == pytest.approx(expected, rel=1e-15)
    assert cli.main(["eta", "--omega-p-l", "1e-300"]) in (2, 3)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
