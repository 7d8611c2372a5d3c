"""Casimir energy between plasma mirrors, split into mode contributions.

The package computes the Casimir energy of two identical plasma-model
mirrors and decomposes it into the contribution of the coupled surface
plasmon branches (``eta_pl``) and that of the propagative cavity resonances
(``eta_ph``), together with an evanescent-only variant (``eta_ev``).

Layering, bottom to top:

* :mod:`casimir_plasmons.errors` — exception taxonomy.
* :mod:`casimir_plasmons.numerics` — quadrature, root finding.
* :mod:`casimir_plasmons.optics` — imaginary-axis reflection amplitudes,
  light-cone sectors and the physical mirror record.
* :mod:`casimir_plasmons.lifshitz` — the total reduction factor ``eta_E``
  and physical energies.
* :mod:`casimir_plasmons.modes` — coupled surface-mode branches, the
  real-arithmetic continuation below the light cone, photonic modes.
* :mod:`casimir_plasmons.decomposition` — the ``eta`` splits, asymptotic
  constants and the sign change of ``eta_pl``.
* :mod:`casimir_plasmons.cli` — the ``casimir-plasmons`` command.
"""

from .errors import (
    CasimirModelError,
    ContinuationError,
    ConvergenceFailure,
    DomainError,
    ExtrapolationUnstable,
    InvalidBracket,
    NoSolution,
    NonFiniteIntegrand,
    TailBoundViolated,
)
from .numerics import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    find_root_bracketed,
    integrate,
)
from .optics import (
    LIGHTCONE_TOLERANCE,
    PlasmaMirror,
    Polarization,
    Sector,
    classify,
    reflection_sq_imag_axis,
)
from .lifshitz import (
    REDUCED_PLANCK,
    SPEED_OF_LIGHT,
    EnergyResult,
    PhysicalSetup,
    casimir_ideal_energy,
    energy_breakdown,
    eta_total,
)
from .modes import (
    BranchConstants,
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
from .decomposition import (
    SIGN_CHANGE_BRACKET,
    AsymptoticReport,
    EtaBreakdown,
    asymptotic_report,
    compute_eta_breakdown,
    eta_evanescent,
    eta_plasmonic,
    eta_plasmonic_direct,
    large_distance_beta_ev,
    large_distance_gamma,
    locate_sign_change,
    propagative_part_identity,
    self_check,
    short_distance_alpha,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "CasimirModelError",
    "DomainError",
    "ConvergenceFailure",
    "NonFiniteIntegrand",
    "TailBoundViolated",
    "InvalidBracket",
    "ContinuationError",
    "ExtrapolationUnstable",
    "NoSolution",
    # numerics
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "integrate",
    "find_root_bracketed",
    # optics
    "Polarization",
    "Sector",
    "PlasmaMirror",
    "classify",
    "reflection_sq_imag_axis",
    "LIGHTCONE_TOLERANCE",
    # lifshitz
    "SPEED_OF_LIGHT",
    "REDUCED_PLANCK",
    "PhysicalSetup",
    "EnergyResult",
    "casimir_ideal_energy",
    "eta_total",
    "energy_breakdown",
    # modes
    "CoupledBranch",
    "BranchKind",
    "BranchId",
    "DispersionPoint",
    "BranchConstants",
    "omega0",
    "f_branch",
    "g_branch",
    "g_branch_combination",
    "branch_constants",
    "invert_branch",
    "photonic_mode",
    "default_dispersion_grid",
    "sample_dispersion",
    # decomposition
    "EtaBreakdown",
    "AsymptoticReport",
    "eta_plasmonic",
    "eta_plasmonic_direct",
    "eta_evanescent",
    "compute_eta_breakdown",
    "propagative_part_identity",
    "short_distance_alpha",
    "large_distance_gamma",
    "large_distance_beta_ev",
    "locate_sign_change",
    "asymptotic_report",
    "self_check",
    "SIGN_CHANGE_BRACKET",
]
