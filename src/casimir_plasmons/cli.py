"""Command-line surface of the package.

Subcommands:

* ``eta`` — the four reduction factors at one separation.
* ``sweep`` — the same factors tabulated over a range of ``L/lambda_p``.
* ``dispersion`` — mode-branch tables suitable for re-plotting.
* ``constants`` — the asymptotic constants and the sign-change location.
* ``verify`` — the built-in invariant battery.

Exit codes: 0 success, 1 verification failure, 2 argument error (a bad flag
or a value outside the library's domain), 3 numeric convergence failure.
Inputs may be physical (``--lambda-p``/``--separation`` in meters) or
dimensionless (``--omega-p-l`` or ``--l-over-lambda-p``); internally
everything is dimensionless.  Output is CSV (scientific notation,
12 significant digits, LF line endings, mandatory header) or JSON (top-level
``schema_version``), written atomically when ``--output`` is given.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
import tempfile
import time
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .decomposition import (
    AsymptoticReport,
    compute_eta_breakdown,
    eta_evanescent,
    eta_plasmonic,
    fit_beta_ev,
    fit_gamma,
    locate_sign_change,
    propagative_part_identity,
    short_distance_alpha,
)
from .errors import (
    CasimirModelError,
    ConvergenceFailure,
    DomainError,
    ExtrapolationUnstable,
    NonFiniteIntegrand,
    TailBoundViolated,
    require_positive_finite,
)
from .lifshitz import eta_total
from .modes import (
    BranchId,
    BranchKind,
    CoupledBranch,
    branch_constants,
    default_dispersion_grid,
    f_branch,
    g_branch,
    g_branch_combination,
    invert_branch,
    photonic_mode,
    sample_dispersion,
)
from .numerics import (
    QuadratureSpec,
    RootSpec,
    find_root_bracketed,
    integrate_finite,
    integrate_semi_infinite,
)
from .optics import Polarization, reflection_sq_imag_axis

__all__ = ["main", "console_entry", "build_parser"]

SCHEMA_VERSION = "1"
DEFAULT_TOLERANCE = 1e-9
TOLERANCE_ENV_VAR = "CASIMIR_TOL"
SWEEP_HEADER = "L_over_lambdaP,eta_total,eta_pl,eta_ph,eta_ev"
ETA_HEADER = (
    "L_over_lambdaP,eta_total,eta_pl,eta_ph,eta_ev,"
    "err_eta_total,err_eta_pl,err_eta_ph,err_eta_ev"
)
DISPERSION_HEADER = "branch,pol,m,K,Omega,sector"
VERIFY_HEADER = "status,name,detail"

# Numeric-machinery failures: the computation could not be carried out at the
# requested tolerance (as opposed to producing a wrong value).
_CONVERGENCE_ERRORS = (
    ConvergenceFailure,
    TailBoundViolated,
    NonFiniteIntegrand,
    ExtrapolationUnstable,
)


class _ArgumentError(Exception):
    """Invalid command-line input detected after parsing (exit code 2)."""


class _CheckFailed(Exception):
    """A verification check did not hold (collected, reported, exit code 1)."""


def _fmt(value: float) -> str:
    """Scientific notation with 12 significant digits."""
    return f"{value:.11e}"


def _csv_text(header: str, rows: Sequence[Sequence[str]]) -> str:
    lines = [header]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _write_output(path: Optional[str], text: str) -> None:
    """Write ``text`` to stdout, or atomically to ``path``.

    The file appears complete or not at all: content goes to a temporary
    file in the destination directory first and is renamed over the target.
    """
    if path is None:
        sys.stdout.write(text)
        return
    destination = os.path.abspath(path)
    directory = os.path.dirname(destination)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=".casimir-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp_path, destination)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


# --------------------------------------------------------------------------
# Argument handling
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimir-plasmons",
        description=(
            "Casimir energy between plasma mirrors, decomposed into "
            "surface-mode (plasmonic) and cavity-mode (photonic) parts."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--tol",
            type=float,
            default=None,
            help=(
                "relative tolerance for quadrature (default 1e-9; the "
                f"{TOLERANCE_ENV_VAR} environment variable overrides the "
                "default, the flag overrides both)"
            ),
        )
        p.add_argument(
            "--format",
            choices=("csv", "json"),
            default=None,
            help="output format (default csv; constants defaults to json)",
        )
        p.add_argument(
            "--output",
            default=None,
            help="output file path (written atomically; default stdout)",
        )

    def add_point_parameterization(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--omega-p-l",
            type=float,
            default=None,
            help="dimensionless plasma parameter Omega_P = omega_p * L / c",
        )
        p.add_argument(
            "--l-over-lambda-p",
            type=float,
            default=None,
            help="dimensionless separation L / lambda_p",
        )
        p.add_argument(
            "--lambda-p",
            type=float,
            default=None,
            help="plasma wavelength in meters (physical parameterization)",
        )
        p.add_argument(
            "--separation",
            type=float,
            default=None,
            help="mirror separation L in meters (physical parameterization)",
        )

    p_eta = sub.add_parser(
        "eta", help="reduction factors at a single separation"
    )
    add_point_parameterization(p_eta)
    add_common(p_eta)

    p_sweep = sub.add_parser(
        "sweep", help="reduction factors over a range of separations"
    )
    p_sweep.add_argument(
        "--lambda-p",
        type=float,
        default=None,
        help=(
            "plasma wavelength in meters; when given, --range is a range of "
            "separations in meters, otherwise a range of L/lambda_p"
        ),
    )
    p_sweep.add_argument(
        "--range",
        required=True,
        help="sweep range as lo:hi (strictly positive, lo < hi)",
    )
    p_sweep.add_argument(
        "--points", type=int, default=50, help="number of grid points"
    )
    p_sweep.add_argument(
        "--spacing",
        choices=("log", "linear"),
        default="log",
        help="grid spacing (default log)",
    )
    add_common(p_sweep)

    p_disp = sub.add_parser(
        "dispersion", help="dispersion-branch table at one separation"
    )
    add_point_parameterization(p_disp)
    p_disp.add_argument(
        "--points",
        type=int,
        default=400,
        help="number of wavevector grid points (default 400)",
    )
    p_disp.add_argument(
        "--max-photonic-m",
        type=int,
        default=5,
        help="highest cavity-resonance index to export (default 5)",
    )
    add_common(p_disp)

    p_const = sub.add_parser(
        "constants",
        help="asymptotic constants (alpha, gamma, beta_ev) and sign change",
    )
    add_common(p_const)

    p_verify = sub.add_parser("verify", help="run the built-in invariant battery")
    add_common(p_verify)

    return parser


def _resolve_spec(args: argparse.Namespace) -> QuadratureSpec:
    if args.tol is not None:
        tolerance = args.tol
    else:
        raw = os.environ.get(TOLERANCE_ENV_VAR)
        if raw is None or raw.strip() == "":
            tolerance = DEFAULT_TOLERANCE
        else:
            try:
                tolerance = float(raw)
            except ValueError:
                raise _ArgumentError(
                    f"{TOLERANCE_ENV_VAR} must be a number, got {raw!r}"
                ) from None
    tolerance = require_positive_finite("tolerance", tolerance)
    return QuadratureSpec(abs_tol=0.1 * tolerance, rel_tol=tolerance)


def _resolve_omega_p(args: argparse.Namespace) -> float:
    """Reduce the point parameterization flags to a single ``Omega_P``."""
    dimensionless = [
        v for v in (args.omega_p_l, args.l_over_lambda_p) if v is not None
    ]
    physical = args.lambda_p is not None or args.separation is not None
    if len(dimensionless) + (1 if physical else 0) > 1:
        raise _ArgumentError(
            "choose exactly one parameterization: --omega-p-l, "
            "--l-over-lambda-p, or --lambda-p together with --separation"
        )
    if physical:
        if args.lambda_p is None or args.separation is None:
            raise _ArgumentError(
                "the physical parameterization needs both --lambda-p and "
                "--separation"
            )
        lambda_p = require_positive_finite("--lambda-p", args.lambda_p)
        separation = require_positive_finite("--separation", args.separation)
        Omega_P = 2.0 * math.pi * (separation / lambda_p)
    elif args.omega_p_l is not None:
        Omega_P = args.omega_p_l
    elif args.l_over_lambda_p is not None:
        l_over_lambda = require_positive_finite("L/lambda_p", args.l_over_lambda_p)
        Omega_P = 2.0 * math.pi * l_over_lambda
    else:
        raise _ArgumentError(
            "one of --omega-p-l, --l-over-lambda-p, or --lambda-p with "
            "--separation is required"
        )
    # Sole check of --omega-p-l; for the other flags it catches over/underflow.
    return require_positive_finite("Omega_P", Omega_P)


def _parse_range(text: str) -> Tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise _ArgumentError("--range must have the form lo:hi")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise _ArgumentError("--range endpoints must be numbers") from None
    if not (0.0 < lo < hi) or not math.isfinite(hi):
        raise _ArgumentError(
            "--range must satisfy 0 < lo < hi (the range must not be empty)"
        )
    return lo, hi


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def _breakdown_row(x: float, breakdown) -> List[str]:
    return [
        _fmt(x),
        _fmt(breakdown.eta_total),
        _fmt(breakdown.eta_pl),
        _fmt(breakdown.eta_ph),
        _fmt(breakdown.eta_ev),
    ]


def cmd_eta(args: argparse.Namespace, spec: QuadratureSpec) -> int:
    Omega_P = _resolve_omega_p(args)
    breakdown = compute_eta_breakdown(Omega_P, spec)
    l_over_lambda = Omega_P / (2.0 * math.pi)
    fmt = args.format or "csv"
    if fmt == "csv":
        row = _breakdown_row(l_over_lambda, breakdown) + [
            _fmt(breakdown.error_estimates[key])
            for key in ("eta_total", "eta_pl", "eta_ph", "eta_ev")
        ]
        text = _csv_text(ETA_HEADER, [row])
    else:
        text = _json_text(
            {
                "schema_version": SCHEMA_VERSION,
                "Omega_P": Omega_P,
                "L_over_lambdaP": l_over_lambda,
                "eta_total": breakdown.eta_total,
                "eta_pl": breakdown.eta_pl,
                "eta_ph": breakdown.eta_ph,
                "eta_ev": breakdown.eta_ev,
                "error_estimates": dict(breakdown.error_estimates),
            }
        )
    _write_output(args.output, text)
    return 0


def cmd_sweep(args: argparse.Namespace, spec: QuadratureSpec) -> int:
    lo, hi = _parse_range(args.range)
    if args.lambda_p is not None:
        lambda_p = require_positive_finite("--lambda-p", args.lambda_p)
        lo, hi = lo / lambda_p, hi / lambda_p
    if args.points < 2:
        raise _ArgumentError("--points must be at least 2 for a sweep")
    if args.spacing == "log":
        grid = np.geomspace(lo, hi, args.points)
    else:
        grid = np.linspace(lo, hi, args.points)
    results = [
        (float(x), compute_eta_breakdown(2.0 * math.pi * float(x), spec))
        for x in grid
    ]
    if args.format == "json":
        text = _json_text(
            {
                "schema_version": SCHEMA_VERSION,
                "rows": [
                    {
                        "L_over_lambdaP": x,
                        "eta_total": b.eta_total,
                        "eta_pl": b.eta_pl,
                        "eta_ph": b.eta_ph,
                        "eta_ev": b.eta_ev,
                    }
                    for x, b in results
                ],
            }
        )
    else:
        text = _csv_text(
            SWEEP_HEADER, [_breakdown_row(x, b) for x, b in results]
        )
    _write_output(args.output, text)
    return 0


def _dispersion_branches(max_m: int) -> List[BranchId]:
    branches = [
        BranchId(kind=BranchKind.PLASMONIC_PLUS, pol=Polarization.TM),
        BranchId(kind=BranchKind.PLASMONIC_MINUS, pol=Polarization.TM),
        BranchId(kind=BranchKind.INTERFACE_REFERENCE, pol=Polarization.TM),
    ]
    for pol in (Polarization.TE, Polarization.TM):
        for m in range(1, max_m + 1):
            branches.append(BranchId(kind=BranchKind.PHOTONIC, pol=pol, m=m))
    return branches


def cmd_dispersion(args: argparse.Namespace, spec: QuadratureSpec) -> int:
    Omega_P = _resolve_omega_p(args)
    if args.points < 2:
        raise _ArgumentError("--points must be at least 2")
    if args.max_photonic_m < 0:
        raise _ArgumentError("--max-photonic-m must be non-negative")
    grid = default_dispersion_grid(Omega_P, args.points)
    sampled = sample_dispersion(
        Omega_P, grid, _dispersion_branches(args.max_photonic_m)
    )
    if args.format == "json":
        text = _json_text(
            {
                "schema_version": SCHEMA_VERSION,
                "Omega_P": Omega_P,
                "L_over_lambdaP": Omega_P / (2.0 * math.pi),
                "branches": [
                    {
                        "branch": branch.kind.value,
                        "pol": branch.pol.value,
                        "m": branch.m,
                        "points": [
                            {
                                "K": pt.K,
                                "Omega": pt.Omega,
                                "sector": pt.sector.value,
                            }
                            for pt in points
                        ],
                    }
                    for branch, points in sampled
                ],
            }
        )
    else:
        rows = []
        for branch, points in sampled:
            m_text = "" if branch.m is None else str(branch.m)
            for pt in points:
                rows.append(
                    [
                        branch.kind.value,
                        branch.pol.value,
                        m_text,
                        _fmt(pt.K),
                        _fmt(pt.Omega),
                        pt.sector.value,
                    ]
                )
        text = _csv_text(DISPERSION_HEADER, rows)
    _write_output(args.output, text)
    return 0


def cmd_constants(args: argparse.Namespace, spec: QuadratureSpec) -> int:
    if args.format == "csv":
        raise _ArgumentError("constants output is a JSON object; use --format json")
    timings = {}

    start = time.perf_counter()
    alpha = short_distance_alpha(spec)
    timings["alpha"] = time.perf_counter() - start

    start = time.perf_counter()
    gamma = fit_gamma(spec)
    timings["gamma"] = time.perf_counter() - start

    start = time.perf_counter()
    beta = fit_beta_ev(spec)
    timings["beta_ev"] = time.perf_counter() - start

    start = time.perf_counter()
    crossing = locate_sign_change(spec)
    timings["sign_change"] = time.perf_counter() - start

    report = AsymptoticReport(
        alpha=alpha,
        gamma=gamma.value,
        beta_ev=beta.value,
        sign_change_L_over_lambdaP=crossing,
        fit_residuals={
            "gamma": gamma.fit.relative_residual,
            "beta_ev": beta.fit.relative_residual,
        },
    )
    text = _json_text(
        {
            "schema_version": SCHEMA_VERSION,
            "alpha": report.alpha,
            "gamma": report.gamma,
            "beta_ev": report.beta_ev,
            "sign_change_L_over_lambdaP": report.sign_change_L_over_lambdaP,
            "fit_residuals": dict(report.fit_residuals),
            "timings_seconds": timings,
        }
    )
    _write_output(args.output, text)
    return 0


# --------------------------------------------------------------------------
# Verification battery
# --------------------------------------------------------------------------


def _require(condition: bool, detail: str) -> None:
    if not condition:
        raise _CheckFailed(detail)


def _check_finite_quadrature(spec: QuadratureSpec) -> None:
    linear = integrate_finite(lambda x: x, 0.0, 1.0, spec)
    _require(abs(linear - 0.5) <= 1e-9, f"integral of x on [0,1] = {linear!r}")
    singular = integrate_finite(
        lambda x: 0.5 / math.sqrt(x) if x > 0.0 else 0.0, 0.0, 1.0, spec
    )
    _require(
        abs(singular - 1.0) <= 1e-8,
        f"integral of 1/(2 sqrt(x)) on [0,1] = {singular!r}",
    )


def _check_root_finder() -> None:
    root_spec = RootSpec()
    sqrt2 = find_root_bracketed(lambda x: x * x - 2.0, 1.0, 2.0, root_spec)
    _require(abs(sqrt2 - math.sqrt(2.0)) <= 1e-12, f"sqrt2 root = {sqrt2!r}")
    quarter_turn = find_root_bracketed(math.cos, 1.0, 2.0, root_spec)
    _require(
        abs(quarter_turn - 0.5 * math.pi) <= 1e-12,
        f"cos root = {quarter_turn!r}",
    )


def _check_reflection_bounds() -> None:
    for Omega_P in (0.1, 2.0 * math.pi, 100.0):
        for K in (0.0, 0.3, 1.0, 3.0, 10.0):
            for Xi in (1e-3, 0.1, 1.0, 10.0):
                for pol in (Polarization.TE, Polarization.TM):
                    r_sq = reflection_sq_imag_axis(pol, K, Xi, Omega_P)
                    _require(
                        0.0 <= r_sq <= 1.0,
                        f"r^2={r_sq!r} outside [0,1] at pol={pol.value}, "
                        f"K={K}, Xi={Xi}, Omega_P={Omega_P}",
                    )


def _check_normal_incidence() -> None:
    for Omega_P in (0.1, 2.0 * math.pi, 100.0):
        for Xi in (1e-3, 0.1, 1.0, 10.0):
            te = reflection_sq_imag_axis(Polarization.TE, 0.0, Xi, Omega_P)
            tm = reflection_sq_imag_axis(Polarization.TM, 0.0, Xi, Omega_P)
            _require(
                abs(te - tm) <= 1e-12,
                f"TE/TM split {abs(te - tm):.3e} at K=0, Xi={Xi}, "
                f"Omega_P={Omega_P}",
            )


def _check_reflection_monotonicity() -> None:
    grid = np.geomspace(0.1, 1e3, 25)
    for pol in (Polarization.TE, Polarization.TM):
        values = [reflection_sq_imag_axis(pol, 1.0, 1.0, w) for w in grid]
        for w, earlier, later in zip(grid, values, values[1:]):
            _require(
                later >= earlier - 1e-15,
                f"r^2 not increasing in Omega_P near {w:g} ({pol.value})",
            )
        _require(values[-1] > values[0], f"r^2 flat in Omega_P ({pol.value})")


_BRANCH_CHECK_OMEGAS = (0.5, 2.0, 3.0 * math.pi, 50.0)


def _check_branch_constants() -> None:
    for Omega_P in _BRANCH_CHECK_OMEGAS:
        constants = branch_constants(Omega_P)
        closed = Omega_P / math.sqrt(1.0 + 0.5 * Omega_P)
        _require(
            abs(constants.k_P - closed) <= 1e-12 * (1.0 + closed),
            f"k_P mismatch at Omega_P={Omega_P:g}",
        )
        f_zero = f_branch(CoupledBranch.PLUS, 0.0, Omega_P)
        _require(
            abs(f_zero - constants.k_P**2) <= 1e-12 * (1.0 + f_zero),
            f"f_plus(0) != k_P^2 at Omega_P={Omega_P:g}",
        )
        _require(constants.z_plus0 > 0.0, f"z_plus0 <= 0 at Omega_P={Omega_P:g}")
        _require(
            constants.z_0P <= 0.0,
            f"z_0P unexpectedly positive at Omega_P={Omega_P:g}",
        )


def _check_plus_endpoint() -> None:
    for Omega_P in _BRANCH_CHECK_OMEGAS:
        constants = branch_constants(Omega_P)
        residual = f_branch(CoupledBranch.PLUS, -constants.z_plus0, Omega_P)
        _require(
            abs(residual) <= 1e-8 * max(1.0, constants.z_plus0),
            f"f_plus(-z_plus0)={residual:.3e} at Omega_P={Omega_P:g}",
        )


def _check_continuation_consistency() -> None:
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for Omega_P in _BRANCH_CHECK_OMEGAS:
        constants = branch_constants(Omega_P)
        for _ in range(25):
            fraction = 1e-9 + (1.0 - 2e-9) * float(rng.random())
            z = -constants.z_plus0 * fraction
            real_part = g_branch(CoupledBranch.PLUS, z, Omega_P) ** 2
            root = cmath.sqrt(complex(z, 0.0))
            complex_value = (
                Omega_P**2
                * root
                / (
                    root
                    + cmath.sqrt(complex(z + Omega_P**2, 0.0))
                    * cmath.tanh(root / 2.0)
                )
            )
            scale = max(1.0, abs(complex_value))
            worst = max(
                worst,
                abs(real_part - complex_value.real) / scale,
                abs(complex_value.imag) / scale,
            )
    _require(
        worst <= 1e-12,
        f"real/complex continuation deviation {worst:.3e} exceeds 1e-12",
    )


def _check_branch_ordering() -> None:
    Omega_P = 3.0 * math.pi
    k_p = branch_constants(Omega_P).k_P
    for K in np.geomspace(1e-3, 10.0 * Omega_P, 60):
        K = float(K)
        low = invert_branch(CoupledBranch.MINUS, K, Omega_P)
        mid = invert_branch(CoupledBranch.ZERO, K, Omega_P)
        high = invert_branch(CoupledBranch.PLUS, K, Omega_P)
        _require(
            low <= mid + 1e-10 and mid <= high + 1e-10,
            f"ordering broken at K={K:g}: {low!r}, {mid!r}, {high!r}",
        )
        _require(
            low <= K + 1e-12 and mid <= K + 1e-12,
            f"evanescence broken at K={K:g}",
        )
        if K < 0.999 * k_p:
            _require(high > K, f"plus branch not propagative at K={K:g} < k_P")
        elif K > 1.001 * k_p:
            _require(high < K, f"plus branch not evanescent at K={K:g} > k_P")


def _check_large_K_degeneracy() -> None:
    Omega_P = 3.0 * math.pi
    K = 50.0 * max(1.0, Omega_P)
    reference = invert_branch(CoupledBranch.ZERO, K, Omega_P)
    for kind in (CoupledBranch.PLUS, CoupledBranch.MINUS):
        split = abs(invert_branch(kind, K, Omega_P) - reference)
        _require(
            split < 1e-6,
            f"branch {kind.value} split {split:.3e} at K=50*max(1,Omega_P)",
        )


def _check_round_trip() -> None:
    Omega_P = 3.0 * math.pi
    k_p = branch_constants(Omega_P).k_P
    for kind in (CoupledBranch.PLUS, CoupledBranch.MINUS, CoupledBranch.ZERO):
        for K in (0.01, 1.0, 0.5 * k_p, k_p, 10.0, 50.0):
            if kind is not CoupledBranch.PLUS and K < 1e-6:
                continue
            Omega = invert_branch(kind, K, Omega_P)
            z_star = K * K - Omega * Omega
            recovered = f_branch(kind, z_star, Omega_P)
            _require(
                abs(recovered - K * K) <= 1e-9 * (1.0 + K * K),
                f"round trip failed for {kind.value} at K={K:g}: "
                f"f(z*)={recovered!r} vs K^2={K * K!r}",
            )


def _check_lightcone_crossing() -> None:
    Omega_P = 3.0 * math.pi
    k_p = branch_constants(Omega_P).k_P
    crossing = invert_branch(CoupledBranch.PLUS, k_p, Omega_P)
    _require(
        abs(crossing - k_p) <= 1e-9 * (1.0 + k_p),
        f"Omega_plus at k_P is {crossing!r}, expected {k_p!r}",
    )


def _check_photonic_limits() -> None:
    fundamental = photonic_mode(Polarization.TE, 1, 0.0, 1e6)
    _require(
        abs(fundamental - math.pi) <= 1e-4,
        f"TE m=1 at K=0 gave {fundamental!r}, expected pi",
    )
    second = photonic_mode(Polarization.TM, 2, math.pi, 1e6)
    _require(
        abs(second - math.pi * math.sqrt(5.0)) <= 1e-4,
        f"TM m=2 at K=pi gave {second!r}, expected pi*sqrt(5)",
    )


def _check_branch_sum_cancellation() -> None:
    for Omega_P in (0.01, 1.0, 10.0, 1e4):
        z = 200.0 * (1.0 + math.log1p(Omega_P))
        tail = abs(g_branch_combination(z, Omega_P))
        _require(
            tail < 1e-8,
            f"branch-sum tail {tail:.3e} at z={z:g}, Omega_P={Omega_P:g}",
        )


def _check_eta_bounds(spec: QuadratureSpec) -> None:
    values = [eta_total(w, spec) for w in (0.5, 2.0 * math.pi, 50.0)]
    for w, value in zip((0.5, 2.0 * math.pi, 50.0), values):
        _require(
            0.0 < value <= 1.0, f"eta_E={value!r} outside (0,1] at Omega_P={w:g}"
        )
    _require(
        values[0] < values[1] < values[2],
        f"eta_E not increasing across the sample grid: {values!r}",
    )


def _check_short_distance_slopes(spec: QuadratureSpec) -> None:
    x = 1e-3
    Omega_P = 2.0 * math.pi * x
    target = 1.5 * short_distance_alpha(spec)
    slopes = {
        "eta_E": eta_total(Omega_P, spec) / x,
        "eta_pl": eta_plasmonic(Omega_P, spec) / x,
        "eta_ev": eta_evanescent(Omega_P, spec) / x,
    }
    for name, slope in slopes.items():
        _require(
            abs(slope - target) <= 0.02 * target,
            f"{name}/(L/lambda_p) = {slope!r} at 1e-3, expected ~{target!r}",
        )


def _check_propagative_identity(spec: QuadratureSpec) -> None:
    lhs, rhs = propagative_part_identity(5.0, spec)
    _require(
        abs(lhs - rhs) < 1e-6,
        f"propagative-part identity off by {abs(lhs - rhs):.3e} at Omega_P=5",
    )


def _check_closure(spec: QuadratureSpec) -> None:
    breakdown = compute_eta_breakdown(2.0 * math.pi, spec)
    _require(
        breakdown.eta_ph == breakdown.eta_total - breakdown.eta_pl,
        "eta_ph is not stored as eta_total - eta_pl",
    )
    _require(breakdown.eta_ev > 0.0, f"eta_ev={breakdown.eta_ev!r} not positive")
    residue = abs(breakdown.eta_pl + breakdown.eta_ph - breakdown.eta_total)
    scale = 1.0 + abs(breakdown.eta_pl) + abs(breakdown.eta_total)
    _require(
        residue <= 1e-12 * scale,
        f"decomposition closure residue {residue:.3e}",
    )


def _check_alpha(spec: QuadratureSpec) -> None:
    alpha = short_distance_alpha(spec)
    _require(
        abs(alpha - 1.193) <= 1e-3, f"alpha={alpha!r}, expected 1.193 +- 1e-3"
    )


def _check_sign_change(spec: QuadratureSpec) -> None:
    crossing = locate_sign_change(spec)
    _require(
        0.065 <= crossing <= 0.095,
        f"sign change at {crossing!r}, expected within [0.065, 0.095]",
    )


def _verification_checks(
    spec: QuadratureSpec,
) -> List[Tuple[str, Callable[[], None]]]:
    return [
        ("finite-quadrature-exactness", lambda: _check_finite_quadrature(spec)),
        ("root-finder-reference", _check_root_finder),
        ("reflection-bounds", _check_reflection_bounds),
        ("normal-incidence-degeneracy", _check_normal_incidence),
        ("reflection-monotonicity", _check_reflection_monotonicity),
        ("branch-constants-closed-form", _check_branch_constants),
        ("plus-branch-endpoint", _check_plus_endpoint),
        ("continuation-consistency", _check_continuation_consistency),
        ("branch-ordering-and-evanescence", _check_branch_ordering),
        ("large-wavevector-degeneracy", _check_large_K_degeneracy),
        ("inversion-round-trip", _check_round_trip),
        ("lightcone-crossing", _check_lightcone_crossing),
        ("photonic-perfect-cavity", _check_photonic_limits),
        ("branch-sum-cancellation", _check_branch_sum_cancellation),
        ("eta-bounds-and-monotonicity", lambda: _check_eta_bounds(spec)),
        ("short-distance-slopes", lambda: _check_short_distance_slopes(spec)),
        ("propagative-identity", lambda: _check_propagative_identity(spec)),
        ("decomposition-closure", lambda: _check_closure(spec)),
        ("alpha-reference", lambda: _check_alpha(spec)),
        ("sign-change-window", lambda: _check_sign_change(spec)),
    ]


def cmd_verify(args: argparse.Namespace, spec: QuadratureSpec) -> int:
    results: List[Tuple[str, bool, str]] = []

    # Gate: the numeric kernel must meet the requested tolerance on a known
    # integral before the battery is meaningful.  A tolerance the kernel
    # cannot certify surfaces here as a convergence failure (exit 3), not as
    # failed invariants.
    gate_name = "quadrature-tolerance-gate"
    try:
        reference = integrate_semi_infinite(
            lambda x: math.exp(-math.sqrt(x)), 0.0, spec
        )
        if abs(reference - 2.0) <= max(1e-8, 4.0 * spec.rel_tol):
            results.append((gate_name, True, ""))
        else:
            results.append(
                (gate_name, False, f"semi-infinite reference gave {reference!r}")
            )
    except _CONVERGENCE_ERRORS as exc:
        raise type(exc)(
            f"verification check '{gate_name}' (integral of exp(-sqrt(x)) "
            f"over [0, inf)): {exc}"
        ) from exc

    for name, check in _verification_checks(spec):
        try:
            check()
            results.append((name, True, ""))
        except _CONVERGENCE_ERRORS:
            raise
        except _CheckFailed as exc:
            results.append((name, False, str(exc)))
        except (CasimirModelError, ValueError, ArithmeticError) as exc:
            results.append((name, False, f"{type(exc).__name__}: {exc}"))

    all_passed = all(passed for _, passed, _ in results)
    if args.format == "json":
        text = _json_text(
            {
                "schema_version": SCHEMA_VERSION,
                "checks": [
                    {
                        "name": name,
                        "status": "pass" if passed else "fail",
                        "detail": detail,
                    }
                    for name, passed, detail in results
                ],
                "all_passed": all_passed,
            }
        )
    else:
        rows = [
            [
                "pass" if passed else "fail",
                name,
                detail.replace(",", ";").replace("\n", " "),
            ]
            for name, passed, detail in results
        ]
        text = _csv_text(VERIFY_HEADER, rows)
    _write_output(args.output, text)
    return 0 if all_passed else 1


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------

_COMMANDS = {
    "eta": cmd_eta,
    "sweep": cmd_sweep,
    "dispersion": cmd_dispersion,
    "constants": cmd_constants,
    "verify": cmd_verify,
}


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process on first use."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        spec = _resolve_spec(args)
        return _COMMANDS[args.command](args, spec)
    except (_ArgumentError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _CONVERGENCE_ERRORS as exc:
        print(f"error: convergence failure: {exc}", file=sys.stderr)
        return 3
    except CasimirModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
