"""The domain contract of every real argument, kept by one gate in ``errors``.

A real number is a Python ``int`` or ``float`` or a numpy integer or floating
scalar, never a bool, within the float range.  Each accepted ``Omega_P`` is
one in ``(0, inf)``; zero, negative values, NaN, infinity, bools, ``None``,
strings and complex numbers must raise :class:`DomainError` rather than
return NaN, a plausible but wrong value, or an untyped exception.  The same
holds for the other real arguments: the wavevector ``K`` (also in a
dispersion grid), the imaginary frequency ``Xi``, the branch variable ``z``
and the mode index ``m``, and the ``(K, Omega)`` point that ``classify`` and
``DispersionPoint`` place against the light cone.  ``K`` and ``Xi`` of
``reflection_sq_imag_axis`` and ``z`` of the branch functions also take a
non-empty array or list of real numbers.  A numpy scalar gives bit for bit
the result of the equal float.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

import casimir_plasmons
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
    sample_dispersion,
)
from casimir_plasmons.optics import (
    Polarization,
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


# Values that are no real number in the float range: a bool is not a plasma
# parameter, and 2**1100 has no float value.
NOT_REAL = [
    None,
    "1",
    True,
    pytest.param(np.bool_(True), id="np.bool_(True)"),
    1j,
    pytest.param(2**1100, id="2**1100"),
]


@pytest.mark.parametrize("Omega_P", [0.0, -1.0, math.nan, math.inf] + NOT_REAL)
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
    "f_branch_z": lambda x: f_branch(CoupledBranch.ZERO, x, 1.0),
    "g_branch_z": lambda x: g_branch(CoupledBranch.ZERO, x, 1.0),
    "sample_dispersion_K_grid": lambda x: sample_dispersion(
        1.0, [0.0, x], [BranchId(BranchKind.PLASMONIC_MINUS, Polarization.TM)]
    ),
    "photonic_mode_m": lambda x: photonic_mode(Polarization.TE, x, 1.0, 5.0),
    "BranchId_m": lambda x: BranchId(BranchKind.PHOTONIC, Polarization.TE, m=x),
    "classify_K": lambda x: classify(x, 1.0),
    "classify_Omega": lambda x: classify(1.0, x),
    "classify_both": lambda x: classify(x, x),
    "DispersionPoint": lambda x: DispersionPoint(K=x, Omega=x),
}


@pytest.mark.parametrize("value", [math.nan, math.inf] + NOT_REAL)
@pytest.mark.parametrize("entry", sorted(OTHER_ARGUMENTS))
def test_non_finite_argument_raises_domain_error(entry, value) -> None:
    with pytest.raises(DomainError):
        OTHER_ARGUMENTS[entry](value)


def _same(result, reference) -> bool:
    """Bit for bit the same value, of the same type."""
    if isinstance(reference, np.ndarray):
        return result.dtype == reference.dtype and np.array_equal(result, reference)
    return type(result) is type(reference) and result == reference


@pytest.mark.parametrize("scalar", [np.int64, np.float32])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_numpy_plasma_parameter_gives_the_float_result(entry, scalar) -> None:
    assert _same(ENTRIES[entry](scalar(5)), ENTRIES[entry](5.0))


@pytest.mark.parametrize("scalar", [np.int64, np.float32])
@pytest.mark.parametrize("entry", sorted(set(OTHER_ARGUMENTS) - {"DispersionPoint"}))
def test_numpy_argument_gives_the_float_result(entry, scalar) -> None:
    # K, Xi, z and the mode index m: the gate hands on the equal float.
    assert _same(OTHER_ARGUMENTS[entry](scalar(2)), OTHER_ARGUMENTS[entry](2.0))


ARRAY_ARGUMENTS = [
    "reflection_sq_imag_axis_K",
    "reflection_sq_imag_axis_Xi",
    "f_branch_z",
    "g_branch_z",
    "g_branch_combination_z",
]


@pytest.mark.parametrize("entry", ARRAY_ARGUMENTS)
def test_array_argument_takes_a_list(entry) -> None:
    values = [0.5, 2, np.float32(3.0)]
    reference = OTHER_ARGUMENTS[entry](np.array([0.5, 2.0, 3.0]))
    assert _same(OTHER_ARGUMENTS[entry](values), reference)
    assert _same(OTHER_ARGUMENTS[entry](tuple(values)), reference)


@pytest.mark.parametrize(
    "value",
    [
        pytest.param(np.array([]), id="empty array"),
        pytest.param([], id="empty list"),
        pytest.param([1.0, None], id="list with None"),
        pytest.param([1.0, True], id="list with a bool"),
        pytest.param(np.array([1.0, 2.0j]), id="complex array"),
        pytest.param(np.array([True, False]), id="bool array"),
        pytest.param(np.array([1.0, math.nan]), id="array with NaN"),
    ],
)
@pytest.mark.parametrize("entry", ARRAY_ARGUMENTS)
def test_invalid_array_argument_raises_domain_error(entry, value) -> None:
    with pytest.raises(DomainError):
        OTHER_ARGUMENTS[entry](value)


def test_float_range_is_read_in_errors_only() -> None:
    # One gate holds the float-range test; no module writes its own again.
    package = Path(casimir_plasmons.__file__).parent
    readers = sorted(path.name for path in package.glob("*.py") if "float_info" in path.read_text())
    assert readers == ["errors.py"]


def test_integer_gate_is_defined_in_errors_only() -> None:
    # The mode index, the grid sizes and the CLI's integer flags share one gate.
    package = Path(casimir_plasmons.__file__).parent
    definers = sorted(
        path.name for path in package.glob("*.py") if "def _integer_in(" in path.read_text()
    )
    assert definers == ["errors.py"]


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
