"""Independent checks of every result the benchmark receives.

Each check returns a list of violations, ``(quantity, detail)`` pairs; an
empty list means the result passed.  None of the oracles reuses the code
path that produced the value it checks:

* short distance (``Omega_P <= 1e-3``): every reduction factor starts as
  ``1.5 * alpha * L/lambda_P`` with ``L/lambda_P = Omega_P / (2 pi)``; the
  remainder is ``O(Omega_P**2 log(1/Omega_P))`` relative;
* large separation (``Omega_P >= 10``): the plasma-model expansion
  ``eta_E = 1 - 4/Omega_P + 72/(5 Omega_P**2) + R`` with
  ``|R| <= 44/Omega_P**3`` (Lambrecht & Reynaud, Eur. Phys. J. D 8, 309
  (2000));
* exact structure: ``0 < eta_total <= 1``, ``eta_ph == eta_total - eta_pl``
  bit for bit, ``eta_ev > 0``;
* the below-light-cone identity of ``propagative_part_identity``;
* dispersion tables: the round trip ``f_branch(K**2 - Omega**2) = K**2``,
  the light-cone crossing at ``k_P = Omega_P / sqrt(1 + Omega_P/2)``, and the
  ordering and evanescence of the minus and reference branches.

A value is wrong when it lies outside its oracle bound (model remainder plus
the tolerance the default quadrature spec promises), or when it comes with
an error estimate that does not cover its distance from the oracle.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from casimir_plasmons.errors import CasimirModelError
from casimir_plasmons.modes import f_branch

Violation = Tuple[str, str]

# alpha = -(60 sqrt(2)/pi^2) Int_0^inf (sqrt(1+e^-s) + sqrt(1-e^-s) - 2) 2s ds,
# evaluated with mpmath at 30 digits (the self-test re-derives it).
ALPHA = 1.1933440522794638695
SMALL_OMEGA_MAX = 1e-3
LARGE_OMEGA_MIN = 10.0
LARGE_REMAINDER = 44.0
# What the default spec (--tol 1e-9) promises per quadrature.  The closed
# forms sum two quadratures with a prefactor below 3, hence the factor 6.
ABS_TOL = 1e-10
REL_TOL = 1e-9
TOL_FACTOR = 6.0
ROUNDING = 8.0 * float(np.finfo(float).eps)

DISPERSION_HEADER = "branch,pol,m,K,Omega,sector"
# The CLI prints 12 significant digits; a printed number is within this
# relative distance of the value it stands for.
PRINT_REL = 6e-12


def promised_error(value: float) -> float:
    """Error the default tolerance allows on a reduction factor."""
    return TOL_FACTOR * (ABS_TOL + REL_TOL * abs(value))


def short_distance(Omega_P: float) -> Tuple[float, float]:
    """``(oracle, remainder bound)`` of the small-``Omega_P`` slope."""
    value = 1.5 * ALPHA * Omega_P / (2.0 * math.pi)
    remainder = Omega_P**2 * (10.0 + 5.0 * math.log(1.0 / Omega_P))
    return value, remainder * value + ROUNDING * value


def large_separation(Omega_P: float) -> Tuple[float, float]:
    """``(oracle, remainder bound)`` of the large-``Omega_P`` expansion."""
    value = 1.0 - 4.0 / Omega_P + 72.0 / (5.0 * Omega_P**2)
    return value, LARGE_REMAINDER / Omega_P**3 + ROUNDING


def _against(
    name: str, value: float, oracle: float, remainder: float, reported
) -> List[Violation]:
    deviation = abs(value - oracle)
    out = []
    if deviation > remainder + promised_error(value):
        out.append(
            (name, f"{value!r} is {deviation:.3e} from the oracle {oracle!r} "
             f"(bound {remainder + promised_error(value):.3e})")
        )
    elif reported is not None and deviation > remainder + reported + ROUNDING * abs(value):
        out.append(
            (name, f"{value!r} is {deviation:.3e} from the oracle {oracle!r}; "
             f"reported error {reported:.3e} does not cover it")
        )
    return out


def _slopes(Omega_P: float, values: dict, errors: dict) -> List[Violation]:
    out: List[Violation] = []
    if Omega_P <= SMALL_OMEGA_MAX:
        oracle, remainder = short_distance(Omega_P)
        for name, value in values.items():
            out += _against(name, value, oracle, remainder, errors.get(name))
    return out


def check_breakdown(Omega_P: float, b) -> List[Violation]:
    """Checks on one ``EtaBreakdown``."""
    errors = b.error_estimates
    out: List[Violation] = []
    for name in ("eta_total", "eta_pl", "eta_ph", "eta_ev"):
        err = errors.get(name)
        if err is None or not (err >= 0.0) or not math.isfinite(err):
            out.append((name, f"error estimate missing or invalid: {err!r}"))
    if not (0.0 < b.eta_total <= 1.0):
        out.append(("eta_total", f"{b.eta_total!r} outside (0, 1]"))
    if b.eta_ph != b.eta_total - b.eta_pl:
        out.append(("eta_ph", "closure eta_ph == eta_total - eta_pl broken"))
    if not (b.eta_ev > 0.0):
        out.append(("eta_ev", f"{b.eta_ev!r} is not positive"))
    out += _slopes(
        Omega_P,
        {"eta_total": b.eta_total, "eta_pl": b.eta_pl, "eta_ev": b.eta_ev},
        errors,
    )
    if Omega_P >= LARGE_OMEGA_MIN:
        oracle, remainder = large_separation(Omega_P)
        out += _against("eta_total", b.eta_total, oracle, remainder, errors.get("eta_total"))
    return out


def check_surface(Omega_P: float, eta_pl: float, eta_ev: float, rhs: float) -> List[Violation]:
    """Checks on ``(eta_plasmonic, eta_evanescent)`` at one ``Omega_P``.

    ``rhs`` is the direct branch-inversion side of
    ``propagative_part_identity``; it must match ``eta_pl - eta_ev`` formed
    from the values under test.
    """
    out: List[Violation] = []
    if not (eta_ev > 0.0):
        out.append(("eta_ev", f"{eta_ev!r} is not positive"))
    out += _slopes(Omega_P, {"eta_pl": eta_pl, "eta_ev": eta_ev}, {})
    lhs = eta_pl - eta_ev
    # rhs is one quadrature at rel 1e-12 / abs 1e-13 times 180/pi^3.
    bound = (
        promised_error(eta_pl)
        + promised_error(eta_ev)
        + 6e-13
        + 1e-11 * abs(rhs)
        + ROUNDING * (abs(eta_pl) + abs(eta_ev))
    )
    if abs(lhs - rhs) > bound:
        out.append(
            ("identity", f"eta_pl - eta_ev = {lhs!r} but the direct inversion "
             f"gives {rhs!r} (bound {bound:.3e})")
        )
    return out


def _f_brackets(kind: str, K: float, Omega: float, Omega_P: float) -> bool:
    """Is ``K**2`` within ``f(z)`` over the print uncertainty of ``z``?

    ``f`` is increasing, so the printed ``(K, Omega)`` is consistent when
    ``K**2`` lies between ``f`` at the two ends of the interval the true
    ``z = K**2 - Omega**2`` can occupy given 12 printed digits and the root
    finder's tolerance.
    """
    z = K * K - Omega * Omega
    dz = 2.0 * PRINT_REL * (K * K + Omega * Omega) + 2e-12
    target = K * K
    slack = 1e-12 * (1.0 + target)

    def f(x: float) -> float:
        if kind != "plus":
            x = max(x, 0.0)
        try:
            return f_branch(kind, x, Omega_P)
        except CasimirModelError:  # below the plus branch's endpoint, where f = 0
            return 0.0

    try:
        return f(z - dz) - slack <= target <= f(z + dz) + slack
    except CasimirModelError:  # z itself is outside the branch's domain
        return False


def parse_dispersion(text: str):
    """Rows of a dispersion CSV as ``{branch: [(pol, m, K, Omega, sector)]}``."""
    lines = text.split("\n")
    if lines[0] != DISPERSION_HEADER or lines[-1] != "":
        raise ValueError("not a dispersion CSV")
    table: dict = {}
    for line in lines[1:-1]:
        branch, pol, m, K, Omega, sector = line.split(",")
        table.setdefault(branch, []).append((pol, m, float(K), float(Omega), sector))
    return table


def check_dispersion(Omega_P: float, points: int, text: str) -> List[Violation]:
    """Checks on the CSV text of ``casimir-plasmons dispersion``."""
    try:
        table = parse_dispersion(text)
    except ValueError as exc:
        return [("table", f"unreadable output: {exc}")]
    grid = np.geomspace(1e-3, 10.0 * max(1.0, Omega_P), points)
    out: List[Violation] = []
    coupled = {
        "plasmonic_plus": "plus",
        "plasmonic_minus": "minus",
        "interface_reference": "zero",
    }
    omegas = {}
    for branch, kind in coupled.items():
        rows = table.get(branch, [])
        Ks = np.array([r[2] for r in rows])
        if len(rows) != points or not np.allclose(Ks, grid, rtol=1e-11, atol=0.0):
            out.append((branch, f"{len(rows)} rows, expected the {points}-point K grid"))
            continue
        omegas[kind] = np.array([r[3] for r in rows])
        bad = [
            r[2] for r in rows if not _f_brackets(kind, r[2], r[3], Omega_P)
        ]
        if bad:
            out.append((branch, f"round trip f(K^2 - Omega^2) != K^2 at K={bad[0]!r} "
                        f"and {len(bad) - 1} more"))
        for pol, m, K, Omega, sector in rows:
            if abs(Omega - K) > PRINT_REL * 4.0 * K + 1e-12:
                expected = "propagative" if Omega > K else "evanescent"
                if sector != expected:
                    out.append((branch, f"sector {sector} at K={K!r}, Omega={Omega!r}"))
                    break
    if len(omegas) == 3:
        k_p = Omega_P / math.sqrt(1.0 + 0.5 * Omega_P)
        above = (omegas["plus"] - grid) > PRINT_REL * 4.0 * grid
        below = (grid - omegas["plus"]) > PRINT_REL * 4.0 * grid
        inside = grid < k_p * (1.0 - 1e-9)
        outside = grid > k_p * (1.0 + 1e-9)
        if np.any(inside & ~above) or np.any(outside & ~below):
            out.append(("plasmonic_plus", f"does not cross the light cone at k_P={k_p!r}"))
        slack = PRINT_REL * 4.0 * grid
        if np.any(omegas["minus"] > omegas["zero"] + slack) or np.any(
            omegas["zero"] > omegas["plus"] + slack
        ):
            out.append(("ordering", "Omega_minus <= Omega_zero <= Omega_plus broken"))
        if np.any(omegas["minus"] > grid + slack) or np.any(omegas["zero"] > grid + slack):
            out.append(("evanescence", "minus or reference branch above the light cone"))
    for pol, m, K, Omega, sector in table.get("photonic", []):
        Q_max = min(math.pi * int(m), Omega_P)
        slack = 4.0 * PRINT_REL * (K * K + Omega * Omega)
        if not (Omega >= K and Omega * Omega - K * K < Q_max * Q_max + slack):
            out.append(("photonic", f"({K!r}, {Omega!r}) outside 0 < Q < {Q_max!r}"))
            break
    return out
