"""Reusable numeric kernel: quadrature, root finding, asymptote fitting.

All physics modules funnel their numerical work through this layer so that
tolerance handling, failure modes and determinism live in one place.  The
one-dimensional integration routines are built on adaptive Gauss-Kronrod
subdivision (QUADPACK via scipy), the two-dimensional one on a vectorised
nested trapezoidal rule in logarithmic variables, and the root finder on
Brent's bracketing hybrid; all are deterministic for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Tuple

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import (
    ConvergenceFailure,
    DegenerateFit,
    DomainError,
    InvalidBracket,
    NonFiniteIntegrand,
    TailBoundViolated,
)

__all__ = [
    "QuadratureSpec",
    "RootSpec",
    "FitResult",
    "DEFAULT_QUADRATURE",
    "DEFAULT_ROOT",
    "integrate_finite",
    "integrate_finite_with_estimate",
    "integrate_semi_infinite",
    "integrate_semi_infinite_with_estimate",
    "integrate_log_box",
    "find_root_bracketed",
    "fit_scaling_coefficient",
]

_EPS = float(np.finfo(float).eps)
# Smallest relative tolerance the QUADPACK wrapper accepts.
_MIN_EPSREL = 50.0 * _EPS * (1.0 + 1e-7)
# Brent's method refuses relative x-tolerances below 4 ulp.
_MIN_BRENT_RTOL = 4.0 * _EPS * (1.0 + 1e-7)
# Abscissa beyond which the semi-infinite integrator trusts (and checks) the
# exp(-sqrt(x)) decay envelope of the integrand.
_TAIL_THRESHOLD = 50.0
# integrate_log_box: first step in log x and log y, number of step halvings,
# and the most nodes evaluated in one numpy block.
_LOG_BOX_STEP = 0.3
_LOG_BOX_LEVELS = 6
_LOG_BOX_BLOCK = 8192
# Rounding allowance of integrate_log_box, relative to the value.
_LOG_BOX_ROUNDING = 64.0 * _EPS


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance contract for the integration routines.

    ``abs_tol``/``rel_tol``: the returned value carries an estimated error of
    at most ``max(abs_tol, rel_tol * |result|)``; at least one of the two must
    be strictly positive.  ``max_subdivisions`` bounds the adaptive refinement
    work.  A tolerance below what a routine can certify raises
    :class:`ConvergenceFailure`: ``eta_total`` cannot certify ``rel_tol``
    below about 3e-13 for ``Omega_P`` above about 0.5, because the strip
    ``Xi < 1e-13 * min(Omega_P, 1)`` left out of its box holds about 1e-13 of
    the value.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 500

    def __post_init__(self) -> None:
        if not (self.abs_tol >= 0.0) or not (self.rel_tol >= 0.0):
            raise DomainError("tolerances must be non-negative numbers")
        if self.abs_tol == 0.0 and self.rel_tol == 0.0:
            raise DomainError("at least one of abs_tol, rel_tol must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be at least 1")


@dataclass(frozen=True)
class RootSpec:
    """Tolerance contract for bracketed root finding."""

    x_tol: float = 1e-12
    max_iterations: int = 200

    def __post_init__(self) -> None:
        if not (self.x_tol > 0.0):
            raise DomainError("x_tol must be positive")
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be at least 1")


@dataclass(frozen=True)
class FitResult:
    """Least-squares outcome of :func:`fit_scaling_coefficient`.

    ``coefficient`` multiplies ``x**power``; ``offset`` is the fitted constant
    term (0.0 when no offset was requested).  ``residual_norm`` is the
    Euclidean norm of the fit residuals and ``relative_residual`` that norm
    divided by the norm of the data.
    """

    coefficient: float
    offset: float
    residual_norm: float
    relative_residual: float


DEFAULT_QUADRATURE = QuadratureSpec()
DEFAULT_ROOT = RootSpec()


def _guarded(f: Callable[[float], float]) -> Callable[[float], float]:
    """Wrap an integrand so that non-finite values fail loudly."""

    def wrapper(x: float) -> float:
        value = f(x)
        if not math.isfinite(value):
            raise NonFiniteIntegrand(
                f"integrand returned {value!r} at x={x!r}"
            )
        return value

    return wrapper


def _quad_checked(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadratureSpec,
) -> Tuple[float, float]:
    """Adaptive quadrature on [a, b] with an enforced error bound.

    Returns ``(value, error_estimate)``.  Raises :class:`ConvergenceFailure`
    when the subdivision budget runs out or when the achieved error estimate
    does not meet ``max(abs_tol, rel_tol * |value|)``.
    """
    epsrel = spec.rel_tol
    if 0.0 < epsrel < _MIN_EPSREL:
        # QUADPACK rejects smaller requests outright; run it at its floor and
        # let the a-posteriori error check below decide whether the original
        # request was actually met.
        epsrel = _MIN_EPSREL
    out = quad(
        f,
        a,
        b,
        epsabs=spec.abs_tol,
        epsrel=epsrel,
        limit=spec.max_subdivisions,
        full_output=True,
    )
    value, abserr = float(out[0]), float(out[1])
    if len(out) > 3:
        raise ConvergenceFailure(
            f"quadrature on [{a:g}, {b:g}] did not converge: {out[3]}"
        )
    bound = max(spec.abs_tol, spec.rel_tol * abs(value))
    if abserr > bound:
        raise ConvergenceFailure(
            f"quadrature on [{a:g}, {b:g}] achieved error {abserr:.3e}, "
            f"above the requested bound {bound:.3e}"
        )
    return value, abserr


def integrate_finite(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Integrate ``f`` over ``[a, b]`` within the spec's tolerances.

    Bounds are signed: when ``a > b`` the result is the negative of the
    integral over ``[b, a]``.  Integrable square-root endpoint singularities
    are handled by the adaptive rule's extrapolation.
    """
    return integrate_finite_with_estimate(f, a, b, spec)[0]


def integrate_finite_with_estimate(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> Tuple[float, float]:
    """Like :func:`integrate_finite` but also returns the error estimate."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration bounds must be finite")
    if a == b:
        return 0.0, 0.0
    if a > b:
        value, err = integrate_finite_with_estimate(f, b, a, spec)
        return -value, err
    return _quad_checked(_guarded(f), a, b, spec)


def integrate_semi_infinite(
    f: Callable[[float], float],
    a: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Integrate ``f`` over ``[a, inf)`` for integrands with exp(-sqrt(x)) tails.

    The integrand must decay at least as fast as ``C * exp(-sqrt(x))`` beyond
    ``x = 50``.  The truncation point is chosen adaptively by probing the
    integrand against that envelope; the neglected tail is certified below
    the requested tolerance.  Raises :class:`TailBoundViolated` when probe
    samples beyond the threshold fail to decrease.
    """
    return integrate_semi_infinite_with_estimate(f, a, spec)[0]


def integrate_semi_infinite_with_estimate(
    f: Callable[[float], float],
    a: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> Tuple[float, float]:
    """Like :func:`integrate_semi_infinite` with an error estimate."""
    if not math.isfinite(a):
        raise DomainError("lower bound must be finite")
    g = _guarded(f)

    # Probe the tail region against the exp(-sqrt(x)) envelope.
    t0 = max(a, _TAIL_THRESHOLD)
    step = max(1.0, 0.1 * abs(t0))
    probes = [t0 + step * (1.7**j - 1.0) for j in range(6)]
    magnitudes = [abs(g(t)) for t in probes]
    for earlier, later in zip(magnitudes, magnitudes[1:]):
        if later > earlier * (1.0 + 1e-12) + 1e-300:
            raise TailBoundViolated(
                f"integrand magnitude grows beyond x={_TAIL_THRESHOLD:g} "
                f"(|f| went {earlier:.3e} -> {later:.3e})"
            )

    # Envelope constant in log space: |f(x)| <= exp(log_c) * exp(-sqrt(x)).
    recent: list[Tuple[float, float]] = list(zip(probes, magnitudes))

    def log_envelope_constant() -> float:
        best = -math.inf
        for t, v in recent[-4:]:
            if v > 0.0:
                best = max(best, math.log(v) + math.sqrt(t))
        return best

    def tail_bound(upper: float) -> float:
        log_c = log_envelope_constant()
        if log_c == -math.inf:
            return 0.0
        s = math.sqrt(upper)
        exponent = log_c + math.log(2.0 * (s + 1.0)) - s
        return math.exp(min(700.0, exponent))

    truncation = probes[-1]
    body, err = _quad_checked(g, a, truncation, spec) if truncation > a else (0.0, 0.0)
    target = max(spec.abs_tol, spec.rel_tol * abs(body))
    extensions = 0
    while tail_bound(truncation) > target:
        extensions += 1
        if extensions > 120:
            raise ConvergenceFailure(
                "tail truncation for the semi-infinite integral could not be "
                f"certified below {target:.3e}"
            )
        new_truncation = truncation * 1.7 + step
        piece, piece_err = _quad_checked(g, truncation, new_truncation, spec)
        body += piece
        err += piece_err
        truncation = new_truncation
        recent.append((truncation, abs(g(truncation))))
        target = max(spec.abs_tol, spec.rel_tol * abs(body))
    return body, err + tail_bound(truncation)


def _log_axis(lo: float, hi: float, steps: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes ``x`` of a uniform grid in ``log x`` and their trapezoid weights.

    The weights carry the Jacobian ``dx = x d(log x)`` but not the step.
    """
    a = np.linspace(math.log(lo), math.log(hi), steps + 1)
    x = np.exp(a)
    weights = x.copy()
    weights[[0, -1]] *= 0.5
    return x, weights


def _tensor_sum(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x: np.ndarray,
    wx: np.ndarray,
    y: np.ndarray,
    wy: np.ndarray,
) -> float:
    """``sum_ij wx_i wy_j f(x_i, y_j)``, evaluated in blocks of bounded size."""
    rows = max(1, _LOG_BOX_BLOCK // y.size)
    total = 0.0
    for start in range(0, x.size, rows):
        block = f(x[start : start + rows, np.newaxis], y[np.newaxis, :])
        total += float(wx[start : start + rows] @ (block @ wy))
    return total


def integrate_log_box(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x_bounds: Tuple[float, float],
    y_bounds: Tuple[float, float],
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    tail_error: float = 0.0,
) -> Tuple[float, float]:
    """Integrate ``f(x, y)`` over a box in the positive quadrant.

    The rule is the trapezoidal rule in ``log x`` and ``log y`` (weight
    ``x * y``), which suits integrands that vary on every scale from the
    lower bounds up and decay at least like a power at both lower edges.
    ``f`` is vectorised: it receives a column of ``x`` and a row of ``y``
    (at most about 8192 nodes together) and returns their broadcast block.
    Each level halves both steps and evaluates only the new nodes.

    Returns ``(value, error_estimate)``.  The estimate is the difference of
    the last two levels, plus ``tail_error`` (the caller's bound on what lies
    outside the box), plus a rounding allowance; refinement stops once it is
    at most ``rel_tol * |value|`` (``abs_tol`` when ``rel_tol`` is 0), which
    also meets ``max(abs_tol, rel_tol * |value|)``.  The relative test keeps
    an integral far smaller than ``abs_tol`` from stopping unresolved.
    Raises :class:`ConvergenceFailure` when the finest level misses it (at
    once when the tail bound and rounding allowance alone do) and
    :class:`NonFiniteIntegrand` when a level sums to NaN or infinity.
    """
    for lo, hi in (x_bounds, y_bounds):
        if not (0.0 < lo < hi < math.inf):
            raise DomainError(f"log-box bounds must satisfy 0 < lo < hi < inf, got {(lo, hi)}")
    widths = [math.log(hi / lo) for lo, hi in (x_bounds, y_bounds)]
    steps = [max(1, math.ceil(width / _LOG_BOX_STEP)) for width in widths]
    weighted_sum, previous = 0.0, None
    for level in range(_LOG_BOX_LEVELS + 1):
        x, wx = _log_axis(*x_bounds, steps[0])
        y, wy = _log_axis(*y_bounds, steps[1])
        if level == 0:
            weighted_sum = _tensor_sum(f, x, wx, y, wy)
        else:
            # Only the new nodes: odd x with every y, then even x with odd y.
            weighted_sum += _tensor_sum(f, x[1::2], wx[1::2], y, wy)
            weighted_sum += _tensor_sum(f, x[::2], wx[::2], y[1::2], wy[1::2])
        value = weighted_sum * (widths[0] / steps[0]) * (widths[1] / steps[1])
        if not math.isfinite(value):
            raise NonFiniteIntegrand(f"log-box integrand summed to {value!r}")
        floor = tail_error + _LOG_BOX_ROUNDING * abs(value)
        target = spec.rel_tol * abs(value) if spec.rel_tol > 0.0 else spec.abs_tol
        if floor > target:
            raise ConvergenceFailure(
                f"log-box tail bound and rounding allowance {floor:.3e} exceed "
                f"the requested bound {target:.3e}"
            )
        if previous is not None:
            error = abs(value - previous) + floor
            if error <= target:
                return value, error
        previous = value
        steps = [2 * n for n in steps]
    raise ConvergenceFailure(
        f"log-box trapezoid rule reached error {error:.3e} after {_LOG_BOX_LEVELS} "
        f"halvings, above the requested bound {target:.3e}"
    )


def find_root_bracketed(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    spec: RootSpec = DEFAULT_ROOT,
) -> float:
    """Find a root of ``g`` on ``[lo, hi]`` by Brent's bracketing hybrid.

    Requires a sign change across the bracket (:class:`InvalidBracket`
    otherwise).  The result always lies within ``[lo, hi]``; convergence is to
    a bracket of width ``x_tol`` (up to a few ulp of relative slack).
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("bracket endpoints must be finite")
    if lo > hi:
        raise DomainError("bracket must satisfy lo <= hi")
    g_lo = g(lo)
    g_hi = g(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if (g_lo < 0.0) == (g_hi < 0.0):
        raise InvalidBracket(
            f"no sign change on bracket: g({lo:g})={g_lo:.6g}, g({hi:g})={g_hi:.6g}"
        )
    root, info = brentq(
        g,
        lo,
        hi,
        xtol=spec.x_tol,
        rtol=_MIN_BRENT_RTOL,
        maxiter=spec.max_iterations,
        full_output=True,
        disp=False,
    )
    if not info.converged:
        raise ConvergenceFailure(
            f"root search on [{lo:g}, {hi:g}] did not converge within "
            f"{spec.max_iterations} iterations"
        )
    return float(root)


def fit_scaling_coefficient(
    samples: Iterable[Tuple[float, float]],
    power: float,
    include_offset: bool = False,
) -> FitResult:
    """Least-squares fit of ``y = c * x**power`` (optionally ``+ d``).

    ``samples`` is an iterable of ``(x, y)`` pairs with ``x > 0``; at least
    two are required.  Returns the fitted coefficient together with residual
    diagnostics so callers can gate on fit quality.  Raises
    :class:`DegenerateFit` when all abscissae coincide.
    """
    pts = [(float(x), float(y)) for x, y in samples]
    if len(pts) < 2:
        raise DomainError("need at least two samples to fit a scaling law")
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("sample abscissae must be positive")
    if np.all(x == x[0]):
        raise DegenerateFit("all sample abscissae are identical")
    basis = x**power
    if include_offset:
        design = np.column_stack([basis, np.ones_like(basis)])
    else:
        design = basis[:, np.newaxis]
    solution, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise DegenerateFit("design matrix is rank deficient")
    prediction = design @ solution
    residual_norm = float(np.linalg.norm(y - prediction))
    data_norm = float(np.linalg.norm(y))
    if data_norm > 0.0:
        relative = residual_norm / data_norm
    else:
        relative = 0.0 if residual_norm == 0.0 else math.inf
    coefficient = float(solution[0])
    offset = float(solution[1]) if include_offset else 0.0
    return FitResult(coefficient, offset, residual_norm, relative)
