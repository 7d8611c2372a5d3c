"""Command-line surface of the package.

Subcommands:

* ``eta`` — the four reduction factors at one separation.
* ``sweep`` — the same factors tabulated over a range of ``L/lambda_p``.
* ``dispersion`` — mode-branch tables suitable for re-plotting.
* ``constants`` — the asymptotic constants ``alpha``, ``gamma``, ``beta_ev``,
  the sign change ``sign_change_L_over_lambdaP`` and ``error_estimates`` of all four.
* ``verify`` — the package self-check (:func:`decomposition.self_check`).

Exit codes: 0 success, 1 verification failure, 2 argument error (a bad flag
or a value outside the library's domain), 3 numeric convergence failure.
Inputs may be physical (``--lambda-p``/``--separation`` in meters) or
dimensionless (``--omega-p-l`` or ``--l-over-lambda-p``); internally
everything is dimensionless.  A ``sweep`` range is checked after its rescale
by ``--lambda-p``: both ends must stay positive, finite and apart, or the
command exits 2.  ``sweep --points`` is an integer in [2, 10**6], like
``dispersion --points``; ``--max-photonic-m`` is an integer in [0, 1000].

Each command resolves its input, makes its library call and hands the result
to one renderer, :func:`_emit`.  Output is CSV (scientific notation,
12 significant digits, LF line endings, mandatory header) or JSON (top-level
``schema_version``), written atomically when ``--output`` is given.
``constants`` is a JSON object only.
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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .decomposition import asymptotic_report, compute_eta_breakdown, self_check
from .errors import (
    CONVERGENCE_ERRORS,
    CasimirModelError,
    DomainError,
    _integer_in,
    require_positive_finite,
)
from .modes import (
    _MAX_GRID_POINTS,
    BranchId,
    BranchKind,
    default_dispersion_grid,
    sample_dispersion,
)
from .numerics import DEFAULT_QUADRATURE, QuadratureSpec
from .optics import Polarization

__all__ = ["main", "console_entry", "build_parser"]

SCHEMA_VERSION = "1"
SWEEP_HEADER = "L_over_lambdaP,eta_total,eta_pl,eta_ph,eta_ev"
ETA_HEADER = (
    "L_over_lambdaP,eta_total,eta_pl,eta_ph,eta_ev,"
    "err_eta_total,err_eta_pl,err_eta_ph,err_eta_ev"
)
DISPERSION_HEADER = "branch,pol,m,K,Omega,sector"
VERIFY_HEADER = "status,name,detail"
# Far more cavity resonances than a table needs; the 2*m branch ids are built first.
_MAX_PHOTONIC_M = 1000


def _fmt(value: float) -> str:
    """Scientific notation with 12 significant digits."""
    return f"{value:.11e}"


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


def _emit(
    args: argparse.Namespace,
    header: str,
    rows: Iterable[Iterable[str]],
    payload: Dict[str, object],
) -> None:
    """Write ``rows`` of CSV cells under ``header``, or ``payload`` as JSON, per ``--format``.

    Commands format numeric cells with :func:`_fmt`.  The JSON object is
    ``schema_version`` followed by ``payload``.
    """
    if args.format == "json":
        text = json.dumps({"schema_version": SCHEMA_VERSION, **payload}, indent=2) + "\n"
    else:
        lines = [header]
        lines.extend(",".join(row) for row in rows)
        text = "\n".join(lines) + "\n"
    _write_output(args.output, text)


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

    def add_common(p: argparse.ArgumentParser, formats=("csv", "json")) -> None:
        p.add_argument(
            "--tol",
            type=float,
            default=DEFAULT_QUADRATURE.rel_tol,
            help=f"relative tolerance for quadrature (default {DEFAULT_QUADRATURE.rel_tol:g})",
        )
        p.add_argument(
            "--format",
            choices=formats,
            default=formats[0],
            help=f"output format (default {formats[0]})",
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
        "--points",
        type=int,
        default=50,
        help=f"number of grid points, 2 to {_MAX_GRID_POINTS} (default 50)",
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
        help=f"number of wavevector grid points, 2 to {_MAX_GRID_POINTS} (default 400)",
    )
    p_disp.add_argument(
        "--max-photonic-m",
        type=int,
        default=5,
        help=f"highest cavity-resonance index to export, 0 to {_MAX_PHOTONIC_M} (default 5)",
    )
    add_common(p_disp)

    p_const = sub.add_parser(
        "constants",
        help="asymptotic constants (alpha, gamma, beta_ev) and sign change",
    )
    add_common(p_const, formats=("json",))

    p_verify = sub.add_parser("verify", help="run the built-in invariant battery")
    add_common(p_verify)

    return parser


def _resolve_omega_p(args: argparse.Namespace) -> float:
    """Reduce the point parameterization flags to a single ``Omega_P``."""
    dimensionless = [
        v for v in (args.omega_p_l, args.l_over_lambda_p) if v is not None
    ]
    physical = args.lambda_p is not None or args.separation is not None
    if len(dimensionless) + (1 if physical else 0) > 1:
        raise DomainError(
            "choose exactly one parameterization: --omega-p-l, "
            "--l-over-lambda-p, or --lambda-p together with --separation"
        )
    if physical:
        if args.lambda_p is None or args.separation is None:
            raise DomainError(
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
        raise DomainError(
            "one of --omega-p-l, --l-over-lambda-p, or --lambda-p with "
            "--separation is required"
        )
    # Sole check of --omega-p-l; for the other flags it catches over/underflow.
    return require_positive_finite("Omega_P", Omega_P)


def _parse_range(text: str, lambda_p: Optional[float]) -> Tuple[float, float]:
    """``--range lo:hi`` as a range of ``L/lambda_p``: divided by ``lambda_p`` if given."""
    scale = 1.0 if lambda_p is None else require_positive_finite("--lambda-p", lambda_p)
    parts = text.split(":")
    if len(parts) != 2:
        raise DomainError("--range must have the form lo:hi")
    try:
        lo, hi = float(parts[0]) / scale, float(parts[1]) / scale
    except ValueError:
        raise DomainError("--range endpoints must be numbers") from None
    # Checked after the division, which can round lo to 0 or hi to inf.
    if not 0.0 < lo < hi < math.inf:
        raise DomainError(
            "--range must satisfy 0 < lo < hi < inf in units of lambda_p "
            f"(the range must not be empty), got {lo!r}:{hi!r}"
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


def cmd_eta(args: argparse.Namespace, spec: QuadratureSpec) -> int:
    Omega_P = _resolve_omega_p(args)
    breakdown = compute_eta_breakdown(Omega_P, spec)
    fields = _breakdown_fields(Omega_P / (2.0 * math.pi), breakdown)
    errors = dict(breakdown.error_estimates)
    row = [*fields.values()] + [errors[key] for key in list(fields)[1:]]  # the four factors
    payload = {"Omega_P": Omega_P, **fields, "error_estimates": errors}
    _emit(args, ETA_HEADER, [map(_fmt, row)], payload)
    return 0


def cmd_sweep(args: argparse.Namespace, spec: QuadratureSpec) -> int:
    points = _integer_in("--points", args.points, 2, _MAX_GRID_POINTS)
    lo, hi = _parse_range(args.range, args.lambda_p)
    grid = (np.geomspace if args.spacing == "log" else np.linspace)(lo, hi, points)
    table = [
        _breakdown_fields(float(x), compute_eta_breakdown(2.0 * math.pi * float(x), spec))
        for x in grid
    ]
    _emit(args, SWEEP_HEADER, (map(_fmt, fields.values()) for fields in table), {"rows": table})
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
    max_m = _integer_in("--max-photonic-m", args.max_photonic_m, 0, _MAX_PHOTONIC_M)
    grid = default_dispersion_grid(Omega_P, args.points)
    sampled = sample_dispersion(Omega_P, grid, _dispersion_branches(max_m))
    branches = [
        {
            "branch": branch.kind.value,
            "pol": branch.pol.value,
            "m": branch.m,
            "points": [
                {"K": pt.K, "Omega": pt.Omega, "sector": pt.sector.value} for pt in points
            ],
        }
        for branch, points in sampled
    ]
    rows = (
        (b["branch"], b["pol"], "" if b["m"] is None else str(b["m"]))
        + (_fmt(pt["K"]), _fmt(pt["Omega"]), pt["sector"])
        for b in branches
        for pt in b["points"]
    )
    payload = {
        "Omega_P": Omega_P,
        "L_over_lambdaP": Omega_P / (2.0 * math.pi),
        "branches": branches,
    }
    _emit(args, DISPERSION_HEADER, rows, payload)
    return 0


def cmd_constants(args: argparse.Namespace, spec: QuadratureSpec) -> int:
    _emit(args, "", [], dataclasses.asdict(asymptotic_report(spec)))
    return 0


def cmd_verify(args: argparse.Namespace, spec: QuadratureSpec) -> int:
    # A tolerance the quadrature cannot certify raises a convergence error
    # from the first check (exit 3) instead of failing rows.
    checks = [
        {"name": name, "status": "pass" if passed else "fail", "detail": detail}
        for name, passed, detail in self_check(spec)
    ]
    all_passed = all(check["status"] == "pass" for check in checks)
    rows = (
        (c["status"], c["name"], c["detail"].replace(",", ";").replace("\n", " "))
        for c in checks
    )
    _emit(args, VERIFY_HEADER, rows, {"checks": checks, "all_passed": all_passed})
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
        return _COMMANDS[args.command](args, QuadratureSpec(rel_tol=args.tol))
    except DomainError as exc:
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
