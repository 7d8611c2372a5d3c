"""Command-line surface of the package.

Subcommands:

* ``eta`` — the four reduction factors at one separation.
* ``sweep`` — the same factors tabulated over a range of ``L/lambda_p``.
* ``dispersion`` — mode-branch tables suitable for re-plotting.
* ``constants`` — the asymptotic constants and the sign-change location.
* ``verify`` — the package self-check (:func:`decomposition.self_check`).

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
import dataclasses
import json
import math
import os
import sys
import tempfile
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .decomposition import asymptotic_report, compute_eta_breakdown, self_check
from .errors import (
    CONVERGENCE_ERRORS,
    CasimirModelError,
    DomainError,
    require_positive_finite,
)
from .modes import BranchId, BranchKind, default_dispersion_grid, sample_dispersion
from .numerics import QuadratureSpec
from .optics import Polarization

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


class _ArgumentError(Exception):
    """Invalid command-line input detected after parsing (exit code 2)."""


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


def _breakdown_fields(x: float, breakdown) -> Dict[str, float]:
    """``L/lambda_p`` and the four reduction factors, in output order."""
    return {
        "L_over_lambdaP": x,
        "eta_total": breakdown.eta_total,
        "eta_pl": breakdown.eta_pl,
        "eta_ph": breakdown.eta_ph,
        "eta_ev": breakdown.eta_ev,
    }


def _breakdown_row(x: float, breakdown) -> List[str]:
    return [_fmt(value) for value in _breakdown_fields(x, breakdown).values()]


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
                **_breakdown_fields(l_over_lambda, breakdown),
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
                "rows": [_breakdown_fields(x, b) for x, b in results],
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
    report = asymptotic_report(spec)
    text = _json_text(
        {"schema_version": SCHEMA_VERSION, **dataclasses.asdict(report)}
    )
    _write_output(args.output, text)
    return 0


def cmd_verify(args: argparse.Namespace, spec: QuadratureSpec) -> int:
    # A tolerance the quadrature cannot certify raises a convergence error
    # from the first check (exit 3) instead of failing rows.
    results = self_check(spec)
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
    except CONVERGENCE_ERRORS as exc:
        print(f"error: convergence failure: {exc}", file=sys.stderr)
        return 3
    except CasimirModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
