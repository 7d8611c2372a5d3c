"""Splitting the Casimir energy into surface-mode and cavity-mode parts.

The total reduction factor ``eta_E`` (see :mod:`casimir_plasmons.lifshitz`)
is decomposed as ``eta_E = eta_pl + eta_ph``:

* ``eta_pl`` — the contribution of the two coupled surface-mode branches,
  followed adiabatically across the light cone.  Computed two independent
  ways: a closed form built from the branch mode functions ``g_i(z)``, and a
  regularized direct integral over the inverted branch frequencies, kept as
  a mutual cross-check.
* ``eta_ph`` — the remainder, carried by the propagative cavity resonances.
* ``eta_ev`` — a variant of the surface-mode contribution that keeps only
  the evanescent sector (it cuts the plus branch at its light-cone crossing
  and completes it with the single-interface reference); always positive.

The asymptotic constants are parameter-free limit integrals: the
short-distance ``alpha`` (``eta_E`` and ``eta_pl`` both behave as
``(3/2) * alpha * L/lambda_p``) and the large-separation ``gamma``
(``eta_pl ~ -gamma * sqrt(Omega_P)``) and ``beta_ev``
(``eta_ev ~ beta_ev * sqrt(Omega_P)``).  With the separation at which
``eta_pl`` changes sign, each has an error estimate.  :func:`self_check`
ties these together in the invariants an installed package can check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import (
    CONVERGENCE_ERRORS,
    CasimirModelError,
    ConvergenceFailure,
    DomainError,
    ExtrapolationUnstable,
    require_positive_finite,
)
from . import numerics  # numerics.quad by name, as tracers wrap it
from .lifshitz import _eta_total_detailed, eta_total
from .modes import (
    CoupledBranch,
    _branch_combination,
    _check_continuation,
    _continued_g_squared,
    _evanescent_g_squared,
    branch_constants,
    g_branch_combination,  # unused here, but kept bound: perfbench/tracing.py wraps it
    invert_branch,
    omega0,
)
from .numerics import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    find_root_bracketed,
    integrate,
)

__all__ = [
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

# Prefactor of the closed forms (surface-mode energy integrals in z).
_CLOSED_PREFACTOR = 180.0 / (2.0 * math.pi**3)
# Prefactor of the direct wavevector integrals over inverted branch frequencies.
_DIRECT_PREFACTOR = 180.0 / math.pi**3

# L/lambda_p interval known to bracket the unique sign change of eta_pl.
SIGN_CHANGE_BRACKET = (0.01, 0.5)


def _run_labelled(label: str, thunk):
    """Run a quadrature thunk, prefixing convergence failures with its name."""
    try:
        return thunk()
    except ConvergenceFailure as exc:
        raise ConvergenceFailure(f"{label}: {exc}") from exc


@dataclass(frozen=True)
class EtaBreakdown:
    """The four reduction factors at one plasma parameter.

    ``eta_ph`` is definitional: it is stored as exactly
    ``eta_total - eta_pl``.  ``eta_ev`` is positive for every ``Omega_P``
    (the evanescent-only contribution is always attractive).
    """

    Omega_P: float
    eta_total: float
    eta_pl: float
    eta_ph: float
    eta_ev: float
    error_estimates: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require_positive_finite("Omega_P", self.Omega_P)
        if self.eta_ph != self.eta_total - self.eta_pl:
            raise DomainError(
                "eta_ph must equal eta_total - eta_pl exactly as stored"
            )
        require_positive_finite("eta_ev", self.eta_ev)


@dataclass(frozen=True)
class AsymptoticReport:
    """The asymptotic constants and the sign-change location, each with an error estimate."""

    alpha: float
    gamma: float
    beta_ev: float
    sign_change_L_over_lambdaP: float
    error_estimates: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("alpha", "gamma", "beta_ev"):
            require_positive_finite(name, getattr(self, name))
        if not (0.0 < self.sign_change_L_over_lambdaP < 1.0):
            raise DomainError("sign change must lie in (0, 1) as L/lambda_p")


def _per_node(f: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluate a scalar integrand node by node, each node a Python float.

    For integrands built on root finds (:func:`invert_branch`), and for
    ``alpha``'s, whose libm evaluation fixes the bits of its value.
    """
    return lambda x: np.array([f(node) for node in x.tolist()], dtype=float)


def _quad(label: str, Omega_P: float, f, a, b, spec: QuadratureSpec, tail_bound=None):
    """``(value, error)`` of :func:`numerics.quad`; a failure raises, named by ``label``."""
    out = numerics.quad(f, a, b, spec, tail_bound)
    if len(out) > 3:
        raise ConvergenceFailure(f"{label} at Omega_P={Omega_P:g}: {out[3]}")
    return out[:2]


def _branch_sum_tail_bound(Omega_P: float, reach: float) -> float:
    """Bound on ``Int_X^inf |2 s (g_plus + g_minus - 2 g_zero)(s**2)| ds`` at ``X = reach``.

    From the factors of :func:`modes._branch_combination` at ``s >= 1``:
    ``g_zero <= Omega_P/sqrt(2)``, ``decay_sum <= 2 e^-s``, each of the two
    non-negative terms of ``numerator`` is at most ``4.63 e^-s`` and the
    denominator is at least ``2 (1 - e^-2)``.  So the combination is at most
    ``4 Omega_P e^(-2 s)`` in magnitude, and its tail at most ``2 Omega_P
    (2 X + 1) e^(-2 X)``.  Infinite below ``X = 1``, which the exp-sinh
    rule, reaching ``7e6`` with its core, never asks for.
    """
    if reach < 1.0:
        return math.inf
    return 2.0 * Omega_P * (2.0 * reach + 1.0) * math.exp(-2.0 * reach)


def _branch_sum_integral(
    Omega_P: float, spec: QuadratureSpec
) -> Tuple[float, float]:
    """``Int_0^inf (g_plus + g_minus - 2 g_zero) dz`` with error estimate.

    Evaluated in the variable ``s = sqrt(z)``, where the integrand is smooth
    at the origin; the plateau cancellation makes it decay like
    ``exp(-2 s)``, and :func:`_branch_sum_tail_bound` bounds what lies beyond
    the rule's reach.
    """

    def integrand(s: np.ndarray) -> np.ndarray:
        return 2.0 * s * _branch_combination(s, Omega_P)

    return _quad(
        "surface-mode branch-sum integral",
        Omega_P,
        integrand,
        0.0,
        math.inf,
        spec,
        lambda reach: _branch_sum_tail_bound(Omega_P, reach),
    )


def _continuation_integral(
    Omega_P: float, y_plus: float, spec: QuadratureSpec
) -> Tuple[float, float]:
    """``Int_0^{y_plus} 2 u g_plus(-u**2) du``: the plus branch below the light cone."""
    _check_continuation(CoupledBranch.PLUS, y_plus, Omega_P)  # once: no node exceeds y_plus

    def integrand(u: np.ndarray) -> np.ndarray:
        return 2.0 * u * np.sqrt(_continued_g_squared(u, Omega_P, np.sqrt, np.tan))

    return _quad("plus-branch continuation integral", Omega_P, integrand, 0.0, y_plus, spec)


def _reference_correction_integral(
    Omega_P: float, depth: float, spec: QuadratureSpec
) -> Tuple[float, float]:
    """``Int_{sqrt(depth)}^0 2 s g_zero(s**2) ds``, signed, so not positive.

    ``g_zero`` grows like ``sqrt(s)`` from 0: a square-root endpoint
    singularity of the derivative, which the tanh-sinh rule absorbs.
    """

    def integrand(s: np.ndarray) -> np.ndarray:
        return 2.0 * s * _evanescent_g_squared(CoupledBranch.ZERO, s, Omega_P, np, root=True)

    value, error = _quad(
        "evanescent reference-correction integral",
        Omega_P,
        integrand,
        0.0,
        math.sqrt(depth),
        spec,
    )
    return -value, error


def _eta_plasmonic_detailed(
    Omega_P: float,
    spec: QuadratureSpec,
    branch_sum: Optional[Tuple[float, float]] = None,
) -> Tuple[float, float]:
    Omega_P = require_positive_finite("Omega_P", Omega_P)
    constants = branch_constants(Omega_P)
    y_plus = constants.y_plus
    if branch_sum is None:
        branch_sum = _branch_sum_integral(Omega_P, spec)
    total, err = branch_sum

    below_lightcone, below_err = _continuation_integral(Omega_P, y_plus, spec)
    value = -_CLOSED_PREFACTOR * (
        total + below_lightcone - (2.0 / 3.0) * y_plus**3
    )
    return value, _CLOSED_PREFACTOR * (err + below_err)


def eta_plasmonic(
    Omega_P: float, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Surface-mode reduction factor ``eta_pl`` via the closed form.

    The coupled branches are followed adiabatically: the part of the plus
    branch that lies below the light cone enters through the real-arithmetic
    continuation of its mode function.  Positive at short distance, negative
    at large distance, crossing zero near ``L/lambda_p ~ 0.08``.
    """
    return _eta_plasmonic_detailed(Omega_P, spec)[0]


def _direct_integrand(
    K: float, Omega_P: float, reg_epsilon: float, regulator: str
) -> float:
    """Integrand ``K * (Omega_plus + Omega_minus - 2 Omega_zero) * w(eps K)``."""
    if K <= 0.0:
        return 0.0
    combination = (
        invert_branch(CoupledBranch.PLUS, K, Omega_P)
        + invert_branch(CoupledBranch.MINUS, K, Omega_P)
        - 2.0 * invert_branch(CoupledBranch.ZERO, K, Omega_P)
    )
    if regulator == "exponential":
        weight = math.exp(-reg_epsilon * K)
    else:
        weight = math.exp(-((reg_epsilon * K) ** 2))
    return K * combination * weight


def _eta_plasmonic_regulated(
    Omega_P: float, reg_epsilon: float, spec: QuadratureSpec, regulator: str
) -> float:
    # Beyond this wavevector the branch combination has decayed to ~1e-40;
    # extending further only adds round-off.
    cutoff = math.sqrt(1800.0 + 0.5 * Omega_P * Omega_P) + 5.0
    integrand = _per_node(lambda K: _direct_integrand(K, Omega_P, reg_epsilon, regulator))
    value, _ = _run_labelled(
        f"regulated direct branch-frequency integral at Omega_P={Omega_P:g}",
        lambda: integrate(integrand, 0.0, cutoff, spec),
    )
    return -_DIRECT_PREFACTOR * value


def eta_plasmonic_direct(
    Omega_P: float,
    reg_epsilon: float = 0.02,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    regulator: str = "exponential",
) -> float:
    """Surface-mode reduction factor by direct branch-frequency integration.

    Evaluates ``-(180/pi^3) Int_0^inf K (Omega_plus + Omega_minus
    - 2 Omega_zero) w(reg_epsilon * K) dK`` by inverting the three branch
    dispersion relations at every node, then removes the regulator by
    Richardson extrapolation over the ladder ``(eps, eps/2, eps/4)``.  The
    regulated values carry an ``eps`` (exponential regulator) or ``eps**2``
    (gaussian) leading transient; the extrapolated limit must be
    regulator-independent, which is exactly what makes this an oracle for
    :func:`eta_plasmonic`.

    Raises :class:`ExtrapolationUnstable` when the two extrapolation stages
    fail to shrink the residual.
    """
    Omega_P = require_positive_finite("Omega_P", Omega_P)
    require_positive_finite("reg_epsilon", reg_epsilon)
    if regulator not in ("exponential", "gaussian"):
        raise DomainError(
            f"unknown regulator {regulator!r}; "
            "expected 'exponential' or 'gaussian'"
        )
    inner_spec = QuadratureSpec(rel_tol=min(spec.rel_tol, 1e-10))
    raw = [
        _eta_plasmonic_regulated(
            Omega_P, reg_epsilon / 2**j, inner_spec, regulator
        )
        for j in range(3)
    ]
    if regulator == "exponential":
        # Leading transients at orders eps, eps^2.
        stage = [2.0 * raw[1] - raw[0], 2.0 * raw[2] - raw[1]]
        result = (4.0 * stage[1] - stage[0]) / 3.0
    else:
        # Even regulator: transients at orders eps^2, eps^4.
        stage = [(4.0 * raw[1] - raw[0]) / 3.0, (4.0 * raw[2] - raw[1]) / 3.0]
        result = (16.0 * stage[1] - stage[0]) / 15.0
    residual = abs(stage[1] - stage[0])
    if residual > 0.5 * abs(raw[1] - raw[0]) + 1e-12 * (1.0 + abs(result)):
        raise ExtrapolationUnstable(
            f"regulator ladder did not converge at Omega_P={Omega_P:g} "
            f"({regulator}): stage residual {residual:.3e} vs raw step "
            f"{abs(raw[1] - raw[0]):.3e}"
        )
    return result


def _eta_evanescent_detailed(
    Omega_P: float,
    spec: QuadratureSpec,
    branch_sum: Optional[Tuple[float, float]] = None,
) -> Tuple[float, float]:
    Omega_P = require_positive_finite("Omega_P", Omega_P)
    constants = branch_constants(Omega_P)
    k_p = constants.k_P
    w = omega0(k_p, Omega_P)  # the reference branch's frequency at K = k_P
    # Depth of the reference branch below the light cone at K = k_P; the
    # correction integral runs from this positive abscissa DOWN to zero, so
    # its signed value is negative.
    depth = -constants.z_0P
    if branch_sum is None:
        branch_sum = _branch_sum_integral(Omega_P, spec)
    total, err = branch_sum

    correction, correction_err = _reference_correction_integral(Omega_P, depth, spec)
    # k_P^3 - w^3 = (k_P^2 - w^2)(k_P^2 + k_P w + w^2)/(k_P + w), from the
    # depth, so that no difference of nearly equal cubes is formed.
    cube_gap = depth * ((k_p * k_p + k_p * w + w * w) / (k_p + w))
    value = -_CLOSED_PREFACTOR * (total - correction - (2.0 / 3.0) * cube_gap)
    return value, _CLOSED_PREFACTOR * (err + correction_err)


def eta_evanescent(
    Omega_P: float, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Evanescent-only surface-mode reduction factor ``eta_ev``.

    Keeps only the evanescent sector of the surface modes: the plus branch
    is cut at its light-cone crossing ``K = k_P`` and the removed piece is
    replaced by the single-interface reference.  Positive for every
    ``Omega_P`` and growing like ``beta_ev * sqrt(Omega_P)`` at large
    separation.
    """
    return _eta_evanescent_detailed(Omega_P, spec)[0]


def compute_eta_breakdown(
    Omega_P: float, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> EtaBreakdown:
    """All four reduction factors at one ``Omega_P``, with error estimates.

    ``eta_ph = eta_total - eta_pl`` is a small difference of large parts at
    small ``Omega_P``, and its estimate is the sum of theirs.  Every
    integral stops on ``spec.rel_tol``, however small its value, so at the
    default tolerance ``eta_ph`` (about ``1.8 * Omega_P**3`` against
    ``eta_pl`` of about ``0.28 * Omega_P``) has an estimate below its value
    from ``Omega_P`` of about ``4e-6`` up (0.16 of it at ``1e-5``).  Below
    that the estimate, almost all of it ``eta_pl``'s, exceeds the value (16
    times at ``1e-6``), yet the value is resolved: it follows
    ``1.795 * Omega_P**3`` within 1e-3 down to ``1e-7``, also at 1e-13.
    """
    Omega_P = require_positive_finite("Omega_P", Omega_P)
    branch_sum = _branch_sum_integral(Omega_P, spec)
    # The surface-mode parts first: they hold the narrower domain.
    plasmonic, plasmonic_err = _eta_plasmonic_detailed(Omega_P, spec, branch_sum)
    evanescent, evanescent_err = _eta_evanescent_detailed(Omega_P, spec, branch_sum)
    total, total_err = _eta_total_detailed(Omega_P, spec)
    return EtaBreakdown(
        Omega_P=Omega_P,
        eta_total=total,
        eta_pl=plasmonic,
        eta_ph=total - plasmonic,
        eta_ev=evanescent,
        error_estimates={
            "eta_total": total_err,
            "eta_pl": plasmonic_err,
            "eta_ph": total_err + plasmonic_err,
            "eta_ev": evanescent_err,
        },
    )


def propagative_part_identity(
    Omega_P: float, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> Tuple[float, float]:
    """Two independent evaluations of the below-lightcone part of ``eta_pl``.

    Returns ``(lhs, rhs)`` where ``lhs = eta_pl - eta_ev`` (closed forms) and
    ``rhs = -(180/pi^3) Int_0^{k_P} K (Omega_plus - Omega_zero) dK`` by direct
    branch inversion.  The two must agree: this single check ties together
    the closed forms, the branch constants and the dispersion inversion.
    """
    Omega_P = require_positive_finite("Omega_P", Omega_P)
    branch_sum = _branch_sum_integral(Omega_P, spec)
    lhs = (
        _eta_plasmonic_detailed(Omega_P, spec, branch_sum)[0]
        - _eta_evanescent_detailed(Omega_P, spec, branch_sum)[0]
    )
    k_p = branch_constants(Omega_P).k_P
    inner_spec = QuadratureSpec(rel_tol=min(spec.rel_tol, 1e-12))

    def integrand(K: float) -> float:
        if K <= 0.0:
            return 0.0
        return K * (
            invert_branch(CoupledBranch.PLUS, K, Omega_P)
            - invert_branch(CoupledBranch.ZERO, K, Omega_P)
        )

    integral, _ = _run_labelled(
        f"propagative-part cross-check integral at Omega_P={Omega_P:g}",
        lambda: integrate(_per_node(integrand), 0.0, k_p, inner_spec),
    )
    rhs = -_DIRECT_PREFACTOR * integral
    return lhs, rhs


def _short_distance_alpha_detailed(spec: QuadratureSpec) -> Tuple[float, float]:
    def integrand(s: float) -> float:
        return 2.0 * s * (math.sqrt(1.0 + math.exp(-s)) + math.sqrt(-math.expm1(-s)) - 2.0)

    integral, err = _run_labelled(
        "short-distance limit integral",
        lambda: integrate(_per_node(integrand), 0.0, math.inf, spec),
    )
    scale = 60.0 * math.sqrt(2.0) / math.pi**2
    return -scale * integral, scale * err


def short_distance_alpha(spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Short-distance coefficient ``alpha``.

    In the limit ``Omega_P -> 0`` the surface-mode integrand collapses to a
    parameter-free shape, giving ``eta_pl -> (3/2) alpha (L/lambda_p)`` with

        alpha = -(60 sqrt(2) / pi^2) *
                Int_0^inf (sqrt(1+e^(-sqrt(z))) + sqrt(1-e^(-sqrt(z))) - 2) dz.

    The integrand starts at ``sqrt(2) - 2 < 0`` and decays like
    ``e^(-2 sqrt(z))``, so the integral is a small negative number and
    ``alpha`` comes out near 1.193.
    """
    return _short_distance_alpha_detailed(spec)[0]


def _large_distance_branch_sum(s: np.ndarray) -> np.ndarray:
    """``2 s**1.5 (sqrt(coth(s/2)) + sqrt(tanh(s/2)) - 2)`` as ``(1 - t)**2 / (sqrt(t) (1 +
    sqrt(t))**2)`` with ``t = tanh(s/2)`` and ``1 - t = 2 e^-s / (1 + e^-s)`` formed apart: the
    literal sum of ``O(1)`` terms loses every digit of its ``O(e^(-2 s))`` value beyond s ~ 18.
    """
    decay = np.exp(-s)
    root = np.sqrt(np.tanh(0.5 * s))
    return 2.0 * s**1.5 * (2.0 * decay / (1.0 + decay)) ** 2 / (root * (1.0 + root) ** 2)


def _large_distance_detailed(
    spec: QuadratureSpec,
) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    """``(gamma, error)`` and ``(beta_ev, error)``; see :func:`large_distance_gamma`."""
    branch_sum, branch_err = _run_labelled(
        "large-distance branch-sum limit integral",
        lambda: integrate(_large_distance_branch_sum, 0.0, math.inf, spec),
    )
    continuation, continuation_err = _run_labelled(
        "large-distance continuation limit integral",
        lambda: integrate(lambda u: 2.0 * u * np.sqrt(u / np.tan(0.5 * u)), 0.0, math.pi, spec),
    )
    p = _CLOSED_PREFACTOR
    gamma = p * (branch_sum + continuation), p * (branch_err + continuation_err)
    return gamma, (p * (0.8 * math.sqrt(2.0) - branch_sum), p * branch_err)


def large_distance_gamma(spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Large-separation coefficient of ``eta_pl ~ -gamma sqrt(Omega_P)``, near 29.7528.

    As ``Omega_P -> inf`` at fixed ``s = sqrt(z)`` each mode function tends to
    ``sqrt(Omega_P s / h)``, ``h`` being ``tanh(s/2)`` (plus), ``coth(s/2)``
    (minus) or 1 (reference), and ``y_plus`` tends to ``pi``.  So the branch
    sum and the continuation of :func:`eta_plasmonic` give
    ``gamma = (180 / (2 pi^3)) (B + C)`` with

        B = Int_0^inf 2 s^(3/2) (sqrt(coth(s/2)) + sqrt(tanh(s/2)) - 2) ds,
        C = Int_0^pi 2 u sqrt(u cot(u/2)) du.
    """
    return _large_distance_detailed(spec)[0][0]


def large_distance_beta_ev(spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Large-separation coefficient of ``eta_ev ~ beta_ev sqrt(Omega_P)``, near 1.623986.

    In the limit of :func:`large_distance_gamma` the depth ``-z_0P`` tends to 4,
    so the reference correction tends to ``-(16 sqrt(2) / 5) sqrt(Omega_P)``,
    and the cube gap to ``6 sqrt(2 Omega_P)``: ``beta_ev = (180/(2 pi^3)) (4 sqrt(2)/5 - B)``.
    """
    return _large_distance_detailed(spec)[1][0]


def locate_sign_change(spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Separation ``L/lambda_p`` at which ``eta_pl`` crosses zero.

    Root-finds ``eta_pl`` as a function of ``L/lambda_p`` on
    ``SIGN_CHANGE_BRACKET``; the function is positive at the lower end and
    negative at the upper end, so a missing sign change (which would mean the
    decomposition is broken) raises :class:`InvalidBracket`.
    """
    lo, hi = SIGN_CHANGE_BRACKET
    return find_root_bracketed(lambda x: eta_plasmonic(2.0 * math.pi * x, spec), lo, hi)


def asymptotic_report(spec: QuadratureSpec = DEFAULT_QUADRATURE) -> AsymptoticReport:
    """All asymptotic constants and the sign-change location, with error estimates.

    Those of the constants are their limit integrals'.  The sign change's is ``eta_pl``'s
    estimate at the root over ``|d eta_pl / d(L/lambda_p)|`` there, a central difference.
    """
    alpha, alpha_err = _short_distance_alpha_detailed(spec)
    (gamma, gamma_err), (beta, beta_err) = _large_distance_detailed(spec)
    crossing = locate_sign_change(spec)
    step = 1e-4 * crossing
    slope = (
        eta_plasmonic(2.0 * math.pi * (crossing + step), spec)
        - eta_plasmonic(2.0 * math.pi * (crossing - step), spec)
    ) / (2.0 * step)
    sign_err = _eta_plasmonic_detailed(2.0 * math.pi * crossing, spec)[1] / abs(slope)
    return AsymptoticReport(
        alpha=alpha,
        gamma=gamma,
        beta_ev=beta,
        sign_change_L_over_lambdaP=crossing,
        error_estimates={"alpha": alpha_err, "gamma": gamma_err, "beta_ev": beta_err,
                         "sign_change_L_over_lambdaP": sign_err},
    )


# Each self-check returns ``(passed, detail)``; the detail is reported on
# failure.


def _check_quadrature_gate(spec: QuadratureSpec) -> Tuple[bool, str]:
    # The numeric kernel must meet the requested tolerance on a known integral
    # before the other checks mean anything; a tolerance it cannot certify is
    # a convergence failure, not a failed invariant.
    try:
        reference, _ = integrate(lambda x: np.exp(-np.sqrt(x)), 0.0, math.inf, spec)
    except CONVERGENCE_ERRORS as exc:
        raise type(exc)(
            "verification check 'quadrature-tolerance-gate' (integral of "
            f"exp(-sqrt(x)) over [0, inf)): {exc}"
        ) from exc
    return (
        abs(reference - 2.0) <= max(1e-8, 4.0 * spec.rel_tol),
        f"semi-infinite reference gave {reference!r}",
    )


def _check_short_distance_slopes(spec: QuadratureSpec) -> Tuple[bool, str]:
    x = 1e-3
    Omega_P = 2.0 * math.pi * x
    target = 1.5 * short_distance_alpha(spec)
    slopes = {
        "eta_E": eta_total(Omega_P, spec) / x,
        "eta_pl": eta_plasmonic(Omega_P, spec) / x,
        "eta_ev": eta_evanescent(Omega_P, spec) / x,
    }
    worst = max(slopes, key=lambda name: abs(slopes[name] - target))
    return (
        abs(slopes[worst] - target) <= 0.02 * target,
        f"{worst}/(L/lambda_p) = {slopes[worst]!r} at 1e-3, expected ~{target!r}",
    )


def _check_propagative_identity(spec: QuadratureSpec) -> Tuple[bool, str]:
    lhs, rhs = propagative_part_identity(5.0, spec)
    return (
        abs(lhs - rhs) < 1e-6,
        f"propagative-part identity off by {abs(lhs - rhs):.3e} at Omega_P=5",
    )


def _check_error_estimates(spec: QuadratureSpec) -> Tuple[bool, str]:
    # Each factor at spec must lie within its reported error of the same
    # factor at a spec 100 times tighter (no tighter than 1e-12 relative,
    # which every rule certifies well above its 64-ulp rounding allowance).
    tight = QuadratureSpec(rel_tol=max(spec.rel_tol / 100.0, 1e-12))
    loose = compute_eta_breakdown(2.0 * math.pi, spec)
    reference = compute_eta_breakdown(2.0 * math.pi, tight)
    excess = {
        name: abs(getattr(loose, name) - getattr(reference, name)) - error
        for name, error in loose.error_estimates.items()
    }
    worst = max(excess, key=excess.get)
    return (
        excess[worst] <= 0.0,
        f"{worst} at Omega_P=2pi is {excess[worst]:.3e} beyond its error estimate "
        f"{loose.error_estimates[worst]:.3e} from the value at a 100x tighter tolerance",
    )


def _check_sign_change(spec: QuadratureSpec) -> Tuple[bool, str]:
    crossing = locate_sign_change(spec)
    return (
        0.065 <= crossing <= 0.095,
        f"sign change at {crossing!r}, expected within [0.065, 0.095]",
    )


_SELF_CHECKS = (
    ("quadrature-tolerance-gate", _check_quadrature_gate),
    ("short-distance-slopes", _check_short_distance_slopes),
    ("propagative-identity", _check_propagative_identity),
    ("error-estimates-cover", _check_error_estimates),
    ("sign-change-window", _check_sign_change),
)


def self_check(
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> List[Tuple[str, bool, str]]:
    """Run the package's end-to-end invariants at ``spec``.

    Returns one ``(name, passed, detail)`` row per check, in a fixed order;
    ``detail`` is empty for a check that passed.  Convergence errors
    (:data:`~casimir_plasmons.errors.CONVERGENCE_ERRORS`) propagate: the
    tolerance cannot be met, so no check has a verdict.  Any other error
    fails its own check.
    """
    rows = []
    for name, check in _SELF_CHECKS:
        try:
            passed, detail = check(spec)
        except CONVERGENCE_ERRORS:
            raise
        except (CasimirModelError, ValueError, ArithmeticError) as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        rows.append((name, passed, "" if passed else detail))
    return rows
