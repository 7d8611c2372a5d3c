"""Reusable numeric kernel: quadrature and root finding.

All physics modules funnel their numerical work through this layer so that
tolerance handling, failure modes and determinism live in one place.

Every quadrature is a trapezoidal rule after a change of variable, refined
by step halving on one shared loop: each level sums only its new nodes,
and refinement stops once the difference of the last two levels plus
a rounding allowance (and the caller's bound on anything outside the rule's
reach) is within the tolerance.  That sum is the error reported, except by
the quadrant rule, which scales the difference by its rate of fall.

* One-dimensional integrals use the double-exponential rules of Takahashi
  and Mori (Publ. RIMS 9, 721 (1974)).  On a finite interval the tanh-sinh
  rule crowds its nodes double-exponentially towards both ends, so
  integrable square-root endpoint singularities need no special treatment;
  on ``[a, inf)`` the exp-sinh rule does the same towards ``a`` and spreads
  its nodes out to about ``a + 7e6``.  The integrand is evaluated on numpy
  arrays of nodes, one per strip of the window up to level 3 (the level-0
  nodes a strip adds and the finer nodes between them) and one per finer
  level.  :func:`integrate` is the checked entry point.
* On the quadrant ``[0, inf)**2`` the rule is the product of two exp-sinh
  rules: each level adds the nodes new on either axis.  Those nodes depend
  only on the level and the window, so their layout is built once per
  window (levels 1 to 3 together, as the 1-D rule's strips, then one per
  level), cached, and passed to the integrand read-only.

Roots come from Brent's bracketing hybrid (Brent 1973, *Algorithms for
Minimization without Derivatives*, ch. 4).  Everything is deterministic for
identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ConvergenceFailure,
    DomainError,
    InvalidBracket,
    NonFiniteIntegrand,
    TailBoundViolated,
    require_positive_finite,
    require_real,
)

__all__ = [
    "QuadratureSpec",
    "RootInfo",
    "DEFAULT_QUADRATURE",
    "quad",
    "integrate",
    "integrate_quadrant",
    "brentq",
    "find_root_bracketed",
]

_EPS = float(np.finfo(float).eps)
# The one convergence contract of find_root_bracketed: 4 ulp relative to the
# root (below which Brent's steps stall in rounding), 4 subnormal ulp absolute
# (for a root at or next to 0), and at most 200 iterations.
_MIN_BRENT_RTOL = 4.0 * _EPS * (1.0 + 1e-7)
_BRENT_XTOL = 4.0 * math.ulp(0.0)
_BRENT_ITERATIONS = 200
# Abscissa beyond which the semi-infinite integrator trusts (and checks) the
# exp(-sqrt(x)) decay envelope of the integrand.
_TAIL_THRESHOLD = 50.0
# Rounding allowance of every rule, relative to the sum of |weight * f|.
_ROUNDING = 64.0 * _EPS
# Double-exponential rules: first step in t, the widest window of t they
# sum over, the part of it always evaluated, and the most step halvings.
# The widest windows reach within 6e-38 * (b - a) of both ends (tanh-sinh)
# and from a + 2e-31 to a + 7e6 (exp-sinh); the core, |t| <= 3, within
# 2e-14 * (b - a) (tanh-sinh) and from a + 1.5e-7 to a + 7e6 (exp-sinh).
_DE_STEP = 0.5
_DE_WINDOWS = {"tanh-sinh": (-4.0, 4.0), "exp-sinh": (-4.5, 3.0)}
_DE_CORE = 3.0
_DE_LEVELS = 8
# The finest level that quad evaluates together with level 0, strip by strip,
# and integrate_quadrant together with level 1.
_DE_STRIP_LEVELS = 3
# integrate_quadrant: the most step halvings (level 3 meets rel_tol 1e-9 and
# level 4 1e-13 on eta_total), and the most nodes passed to f in one call:
# room for levels 1 to 3 of eta_total at rel_tol 1e-9 (7,077 to 8,988 nodes).
_QUADRANT_LEVELS = 5
_QUADRANT_BLOCK = 9216


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance contract for the integration routines.

    ``rel_tol``, positive and finite: every rule stops once its estimated
    error is at most ``rel_tol`` times the integral of ``|f|`` (as the rule
    sums it), which is ``rel_tol * |result|`` for an integrand of one sign.
    So an integral is resolved however small it is, and one whose integrand
    cancels to about 0 still stops.  The one-dimensional rules allow 8 step
    halvings (each doubles their nodes: at most about 4100 per integral),
    the quadrant rule 5 (each about quadruples them: at most 481**2).  A
    tolerance below what a routine can certify raises
    :class:`ConvergenceFailure`: no rule certifies ``rel_tol`` below its
    rounding allowance of 64 ulp.
    """

    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        require_positive_finite("rel_tol", self.rel_tol)


@dataclass(frozen=True)
class RootInfo:
    """What one :func:`brentq` solve did."""

    converged: bool
    iterations: int
    function_calls: int


DEFAULT_QUADRATURE = QuadratureSpec()


def _refine(
    level_value: Callable[[int], Tuple[float, float]],
    levels: int,
    rel_tol: float,
    tail_error: float,
) -> Tuple[float, float, int, str]:
    """The step-halving loop every quadrature rule runs on.

    ``level_value(level)`` evaluates the nodes new at ``level`` (all of them
    at level 0) and returns the rule's value and the sum of ``|weight * f|``
    at that level.  The error estimate is the difference of the last two
    levels plus ``tail_error`` plus the rounding allowance; refinement stops
    once it is at most ``rel_tol`` times that sum.  Returns ``(value, error,
    halvings, failure)``, where ``failure`` is empty on success and says why
    otherwise: at once when the tail bound and rounding allowance alone miss
    the target, after ``levels`` halvings when the finest level does.
    Raises :class:`NonFiniteIntegrand` when a level sums to NaN or infinity.
    """
    previous, error = None, math.inf
    for level in range(levels + 1):
        value, magnitude = level_value(level)
        if not math.isfinite(value):
            raise NonFiniteIntegrand(f"integrand summed to {value!r}")
        floor = tail_error + _ROUNDING * magnitude
        target = rel_tol * magnitude
        if floor > target:
            return value, floor, level, (
                f"tail bound and rounding allowance {floor:.3e} exceed the "
                f"requested bound {target:.3e}"
            )
        if previous is not None:
            error = abs(value - previous) + floor
            if error <= target:
                return value, error, level, ""
        previous = value
    return value, error, levels, (
        f"reached error {error:.3e} after {levels} halvings, above the "
        f"requested bound {target:.3e}"
    )


@lru_cache(maxsize=None)
def _de_nodes(rule: str, level: int) -> Tuple[np.ndarray, np.ndarray]:
    """The nodes of a double-exponential rule that are new at ``level``.

    Level 0 holds every multiple of ``_DE_STEP`` in the rule's widest window
    of ``t``; level ``n`` the odd multiples of ``_DE_STEP / 2**n``.  Returns
    ``(offset, weight)`` for the unit problem, read-only, where ``weight``
    is ``dx/dt`` and

    * tanh-sinh, ``x = tanh(pi/2 sinh t)`` mapped onto ``[0, 1]``:
      ``offset`` is the distance from the nearer end, negative from 1;
    * exp-sinh, ``x = exp(pi/2 sinh t)`` on ``[0, inf)``: ``offset`` is
      ``x`` itself.

    Both are formed from ``exp(-|pi/2 sinh t|)`` so that no node rounds onto
    an end it does not reach.
    """
    lo, hi = _DE_WINDOWS[rule]
    cells = round((hi - lo) / _DE_STEP) * 2**level
    if level == 0:
        t = np.linspace(lo, hi, cells + 1)
    else:
        t = lo + (hi - lo) * (2.0 * np.arange(cells // 2) + 1.0) / cells
    u = 0.5 * math.pi * np.sinh(t)
    if rule == "tanh-sinh":
        e = np.exp(-2.0 * np.abs(u))
        distance = e / (1.0 + e)
        weight = math.pi * np.cosh(t) * distance / (1.0 + e)
        offset = np.where(t <= 0.0, distance, -distance)
    else:
        offset = np.exp(u)
        weight = 0.5 * math.pi * np.cosh(t) * offset
    for array in (offset, weight):
        array.flags.writeable = False
    return offset, weight


@lru_cache(maxsize=None)
def _de_layout(rule: str) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Levels 0 to ``_DE_STRIP_LEVELS`` of a rule, one after the other.

    Returns the offsets of :func:`_de_nodes` concatenated, read-only, and
    where each level starts in them.
    """
    offsets = [_de_nodes(rule, level)[0] for level in range(_DE_STRIP_LEVELS + 1)]
    starts = tuple(int(n) for n in np.cumsum([0] + [o.size for o in offsets]))
    layout = np.concatenate(offsets)
    layout.flags.writeable = False
    return layout, starts


@lru_cache(maxsize=None)
def _de_strip(rule: str, nodes: Sequence[int], cells: Sequence[int]) -> np.ndarray:
    """Where a strip of the window lies in :func:`_de_layout`.

    A strip is the level-0 ``nodes`` followed by the nodes of levels 1 to
    ``_DE_STRIP_LEVELS`` in the level-0 ``cells`` (cell ``j`` lies between
    level-0 nodes ``j`` and ``j + 1``), level by level.  Read-only.
    """
    starts = _de_layout(rule)[1]
    index = list(nodes)
    for level in range(1, _DE_STRIP_LEVELS + 1):
        shift = level - 1
        index += [starts[level] + i for j in cells for i in range(j << shift, (j + 1) << shift)]
    strip = np.array(index)
    strip.flags.writeable = False
    return strip


# At most 16 layouts are kept: one per window for levels 1 to 3 (at most
# 0.15 MB for eta_total), and one per window and finer level.  That is room
# for levels 1 to 4 of each of the four windows eta_total takes for Omega_P
# from 1e-8 to 1e5, and it keeps those of levels 4 and 5 (up to about 2.8 MB
# each) from piling up.
@lru_cache(maxsize=16)
def _quadrant_levels(
    reach: Tuple[Tuple[int, int], Tuple[int, int]], first: int, last: int
) -> Tuple[np.ndarray, np.ndarray, Tuple[Tuple[Tuple[slice, np.ndarray, np.ndarray], ...], ...]]:
    """The nodes new at levels ``first >= 1`` to ``last`` of :func:`integrate_quadrant`.

    ``reach`` holds the window's first and last level-0 node on the ``x`` and
    on the ``y`` axis.  At level ``n`` an axis's old nodes are those of levels
    0 to ``n - 1`` in its window, level by level, and its new ones those of
    ``n``.  Returns ``(x, y, arms)``, read-only: the L of each level's new
    nodes, level after level, as two flat arrays, new ``x`` by every ``y`` and
    then old ``x`` by new ``y``; and per level, the ``(part, wx, wy)`` of
    those two arms: the slice of ``x`` it fills and its weights.
    """
    def nodes(lo: int, hi: int, levels: Sequence[int]) -> Tuple[np.ndarray, ...]:
        """Offsets and weights of ``levels`` in the window from level-0 node ``lo`` to ``hi``."""
        cuts = [
            slice(lo, hi + 1) if n == 0 else slice(lo << (n - 1), hi << (n - 1)) for n in levels
        ]
        parts = [tuple(a[c] for a in _de_nodes("exp-sinh", n)) for n, c in zip(levels, cuts)]
        return tuple(map(np.concatenate, zip(*parts)))

    xs, ys, arms, start = [], [], [], 0
    for k in range(first, last + 1):
        (x_new, wx_new), (x_old, wx_old) = (nodes(*reach[0], n) for n in ([k], range(k)))
        (y_new, wy_new), (y_all, wy_all) = (nodes(*reach[1], n) for n in ([k], range(k + 1)))
        arms.append([])
        for xa, ya, wx, wy in ((x_new, y_all, wx_new, wy_all), (x_old, y_new, wx_old, wy_new)):
            xs.append(np.repeat(xa, ya.size))
            ys.append(np.tile(ya, xa.size))
            arms[-1].append((slice(start, start + xs[-1].size), wx, wy))
            start += xs[-1].size
    x, y, arms = np.concatenate(xs), np.concatenate(ys), tuple(map(tuple, arms))
    for array in (x, y, *(w for ell in arms for _, wx, wy in ell for w in (wx, wy))):
        array.flags.writeable = False
    return x, y, arms


def quad(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec,
    tail_bound: Optional[Callable[[float], float]] = None,
):
    """Double-exponential quadrature of a vectorised ``f`` over ``[a, b]``.

    ``a < b`` must be finite, except that ``b = inf`` selects the exp-sinh
    rule; ``f`` maps an array of nodes to the array of its values.  The
    first level evaluates the core of the window and then widens it, one
    node per side and step, until the outermost term on each side is below
    machine epsilon times the sum of ``|weight * f|`` (or the widest window
    is reached); the finer levels fill in that window.  So ``f`` is never
    evaluated much closer to an end than it contributes.  ``tail_bound(X)``
    bounds what lies beyond the exp-sinh window's reach ``X``.

    ``f`` is called once per strip of the window: once on the core and once
    per growth step, each time on the level-0 nodes it adds and on the nodes
    of levels 1 to 3 between them.  Levels 1 to 3 then only sum the values
    stored, and each finer level is one call.  So ``f`` may see nodes of
    levels 1 to 3 that a rule stopping before level 3 does not sum: 7 per
    level-0 cell of the window, at most 112.  An integral whose window grows
    once takes 105 nodes in two calls up to level 3.

    Returns ``(value, error_estimate, {"neval": nodes, "calls": calls of f,
    "last": halvings})``, and a fourth element, the reason, when the finest
    level allowed misses ``rel_tol`` times the integral of ``|f|``.  Raises
    :class:`NonFiniteIntegrand` when ``f`` returns NaN or infinity at a node
    that the levels summed hold.
    """
    rule = "exp-sinh" if b == math.inf else "tanh-sinh"
    scale = 1.0 if b == math.inf else b - a
    layout, starts = _de_layout(rule)
    stored = np.empty(layout.size)  # f on the nodes of levels 0 to 3
    sums = [0.0, 0.0]
    neval = calls = 0

    def abscissae(offset: np.ndarray) -> np.ndarray:
        if b == math.inf:
            return a + offset
        return np.where(offset > 0.0, a, b) + scale * offset

    def evaluate(offset: np.ndarray) -> np.ndarray:
        nonlocal neval, calls
        neval, calls = neval + offset.size, calls + 1
        return np.asarray(f(abscissae(offset)), dtype=float)

    def strip(nodes: Sequence[int], cells: Sequence[int]) -> None:
        """Evaluate ``f`` on a strip of the window and store its values."""
        index = _de_strip(rule, nodes, cells)
        fx = evaluate(layout[index])
        if fx.shape != index.shape:  # stored[index] = fx would broadcast it
            raise ValueError(f"integrand returned shape {fx.shape} for {index.size} nodes")
        stored[index] = fx

    def add(level: int, index) -> np.ndarray:
        """Add the nodes ``index`` of ``level`` to the sums; return their ``|w f|``."""
        offsets, weights = _de_nodes(rule, level)
        weight = weights[index]
        if level <= _DE_STRIP_LEVELS:
            fx = stored[starts[level] : starts[level + 1]][index]
        else:
            fx = evaluate(offsets[index])
        total = float(weight @ fx)
        if not math.isfinite(total):
            bad = ~np.isfinite(fx)
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                x = float(abscissae(offsets[index][i : i + 1])[0])
                raise NonFiniteIntegrand(f"integrand returned {float(fx[i])!r} at x={x!r}")
        magnitudes = weight * np.abs(fx)
        sums[0] += total
        sums[1] += float(magnitudes.sum())
        return magnitudes

    # First level: the core, then one node further on each side whose
    # outermost term still counts.
    last = _de_nodes(rule, 0)[0].size - 1
    centre = round(-_DE_WINDOWS[rule][0] / _DE_STEP)
    lo, hi = centre - round(_DE_CORE / _DE_STEP), centre + round(_DE_CORE / _DE_STEP)
    strip(range(lo, hi + 1), range(lo, hi))
    core = add(0, slice(lo, hi + 1))
    edges = [core[0], core[-1]]
    while True:
        grow = [lo > 0 and edges[0] > _EPS * sums[1], hi < last and edges[1] > _EPS * sums[1]]
        if not any(grow):
            break
        index = tuple(i for i, g in ((lo - 1, grow[0]), (hi + 1, grow[1])) if g)
        strip(index, tuple(j for j, g in ((lo - 1, grow[0]), (hi, grow[1])) if g))
        terms = add(0, np.array(index))
        if grow[0]:
            lo, edges[0] = lo - 1, terms[0]
        if grow[1]:
            hi, edges[1] = hi + 1, terms[-1]
    tail = 0.0
    if tail_bound is not None:
        tail = tail_bound(a + float(_de_nodes(rule, 0)[0][hi]))

    def level_value(level: int) -> Tuple[float, float]:
        if level:
            # The new nodes of this level between those of the window's ends.
            add(level, slice(lo << (level - 1), hi << (level - 1)))
        step = scale * _DE_STEP / 2**level
        return sums[0] * step, sums[1] * step

    value, error, halvings, failure = _refine(level_value, _DE_LEVELS, spec.rel_tol, tail)
    info = {"neval": neval, "calls": calls, "last": halvings}
    return (value, error, info, failure) if failure else (value, error, info)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> Tuple[float, float]:
    """Integrate a vectorised ``f`` over ``[a, b]``; returns ``(value, error)``.

    ``f`` maps an array of nodes to the array of its values.  Finite bounds
    take the tanh-sinh rule and are signed: when ``a > b`` the result is the
    negative of the integral over ``[b, a]``, and ``a == b`` gives
    ``(0.0, 0.0)``.  The rule never evaluates ``f`` at ``0`` (an endpoint
    there is approached through representable nodes), so an integrable
    singularity there, up to ``x**-0.5``, needs no special care; at another
    endpoint the nearest nodes round onto it, and ``f`` must be finite there.
    An interior kink slows convergence down to that of a plain trapezoidal
    rule; split the interval at it.  ``f`` is called once per strip of the
    rule's window, with the nodes of levels 1 to 3 along (see :func:`quad`):
    it may see up to 112 nodes that a rule stopping early does not sum, and
    a value it returns there is never checked, but an exception it raises
    there propagates.

    ``b = inf`` takes the exp-sinh rule, for integrands that decay at least
    as fast as ``C * exp(-sqrt(x))`` beyond ``x = 50``.  Six probes beyond
    that point fix ``C``; the part beyond the rule's reach is bounded through
    that envelope and added to the error estimate.  Raises
    :class:`TailBoundViolated` when the probe samples fail to decrease.

    Raises :class:`ConvergenceFailure` when the tolerance is missed,
    :class:`NonFiniteIntegrand` when ``f`` returns NaN or infinity and
    :class:`DomainError` for a non-finite bound (other than ``b = inf``).
    """
    tail_bound = None
    if b == math.inf:
        a = require_real("lower bound", a)
        tail_bound = _envelope_tail_bound(f, a)
    else:
        a, b = (require_real("integration bounds", end) for end in (a, b))
    if a == b:
        return 0.0, 0.0
    elif a > b:
        value, error = integrate(f, b, a, spec)
        return -value, error
    out = quad(f, a, b, spec, tail_bound)
    if len(out) > 3:
        raise ConvergenceFailure(f"quadrature on [{a:g}, {b:g}]: {out[3]}")
    return out[0], out[1]


def _envelope_tail_bound(
    f: Callable[[np.ndarray], np.ndarray], a: float
) -> Callable[[float], float]:
    """Probe ``f`` beyond ``x = 50`` against the ``exp(-sqrt(x))`` envelope.

    Returns the bound on what lies beyond a reach ``X`` of the exp-sinh rule.
    """
    t0 = max(a, _TAIL_THRESHOLD)
    step = max(1.0, 0.1 * abs(t0))
    probes = [t0 + step * (1.7**j - 1.0) for j in range(6)]
    magnitudes = np.abs(np.asarray(f(np.array(probes)), dtype=float)).tolist()
    for t, v in zip(probes, magnitudes):
        if not math.isfinite(v):
            raise NonFiniteIntegrand(f"integrand returned {v!r} at x={t!r}")
    for earlier, later in zip(magnitudes, magnitudes[1:]):
        if later > earlier * (1.0 + 1e-12) + 1e-300:
            raise TailBoundViolated(
                f"integrand magnitude grows beyond x={_TAIL_THRESHOLD:g} "
                f"(|f| went {earlier:.3e} -> {later:.3e})"
            )

    # |f(x)| <= C exp(-sqrt(x)) with C from the last four probes, so beyond
    # the rule's reach X lies at most 2 C (sqrt(X) + 1) exp(-sqrt(X)).
    log_c = max(
        (math.log(v) + math.sqrt(t) for t, v in zip(probes[-4:], magnitudes[-4:]) if v > 0.0),
        default=-math.inf,
    )

    def tail_bound(reach: float) -> float:
        if log_c == -math.inf:
            return 0.0
        s = math.sqrt(reach)
        return math.exp(min(700.0, log_c + math.log(2.0 * (s + 1.0)) - s))

    return tail_bound


def integrate_quadrant(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> Tuple[float, float]:
    """Integrate ``f(x, y)`` over the quadrant ``[0, inf)**2``.

    The rule is the product of two exp-sinh rules (see :func:`quad`), for
    integrands that keep one sign.  ``f`` works elementwise on two arrays
    that broadcast against each other.  Level 0 is the tensor grid over the
    whole window, ``2e-31`` to ``7e6`` on each axis, passed as a column of
    ``x`` and a row of ``y``; on each side of each axis the finer levels
    reach out to its first row (column) whose ``|w f|`` is below machine
    epsilon times the total, as in :func:`quad`.  A finer level evaluates
    only its new nodes (new ``x`` by every ``y``, old ``x`` by new ``y``),
    as two flat arrays in calls of at most 9216 nodes.  As in :func:`quad`,
    level 1 evaluates levels 1 to 3 at once (one call for ``eta_total`` at
    ``rel_tol`` 1e-9), levels 2 and 3 only sum stored values, and each finer
    level is evaluated on its own.  So ``f`` may see nodes of levels 2 and 3
    that a rule stopping early does not sum: a value it returns there is
    never checked, but an exception it raises there propagates.  The arrays
    depend only on the levels and the window, so each is built once per
    window and kept (the 16 last used); ``f`` gets them read-only.

    Returns ``(value, error_estimate)``.  Refinement stops once the last two
    levels differ, plus a rounding allowance, by at most ``rel_tol * |value|``
    (see :class:`QuadratureSpec`).  That difference is the coarser level's
    error; a double-exponential rule's error falls faster at each halving
    than at the one before, so the finer level's reported error is the
    difference times the ratio of the last two differences (if below 1),
    plus the allowance.  Raises :class:`ConvergenceFailure` when the finest
    level misses the target and :class:`NonFiniteIntegrand` when a level
    sums to NaN or infinity.
    """
    offset, weight = _de_nodes("exp-sinh", 0)
    terms = weight[:, np.newaxis] * f(offset[:, np.newaxis], offset[np.newaxis, :]) * weight
    magnitudes = np.abs(terms)
    floor = _EPS * float(magnitudes.sum())
    if not math.isfinite(floor):
        raise NonFiniteIntegrand(f"integrand summed to {float(terms.sum())!r}")
    kept = [np.flatnonzero(magnitudes.sum(axis) >= floor) for axis in (1, 0)]
    reach = tuple((max(int(k[0]) - 1, 0), min(int(k[-1]) + 1, offset.size - 1)) for k in kept)
    weighted_sum = float(terms[tuple(slice(lo, hi + 1) for lo, hi in reach)].sum())
    values, pending = [], []  # pending: f's values and the arms of levels not yet summed

    def level_value(level: int) -> Tuple[float, float]:
        nonlocal weighted_sum
        if level:
            if not pending:  # levels 1 to _DE_STRIP_LEVELS together, then one at a time
                x, y, arms = _quadrant_levels(reach, level, max(level, _DE_STRIP_LEVELS))
                n = _QUADRANT_BLOCK  # nodes per call of f
                blocks = [f(x[i : i + n], y[i : i + n]) for i in range(0, x.size, n)]
                fxy = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
                pending.extend((fxy, arm) for arm in arms)
            fxy, arm = pending.pop(0)
            for part, wx, wy in arm:
                weighted_sum += float(wx @ (fxy[part].reshape(wx.size, -1) @ wy))
        step = _DE_STEP / 2**level
        values.append(weighted_sum * step * step)
        return values[-1], abs(values[-1])

    value, error, _, failure = _refine(level_value, _QUADRANT_LEVELS, spec.rel_tol, 0.0)
    if failure:
        raise ConvergenceFailure(f"product exp-sinh rule: {failure}")
    if len(values) > 2:
        last, before = (abs(values[i] - values[i - 1]) for i in (-1, -2))
        if last < before:
            error -= last * (1.0 - last / before)
    return value, error


def brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float,
    rtol: float,
    maxiter: int,
) -> Tuple[float, RootInfo]:
    """Brent's root finder on a bracket ``[a, b]`` with a sign change.

    A line-for-line transcription of the classic C implementation of
    Brent (1973), ch. 4: inverse quadratic (or secant) steps while they
    shrink the bracket fast enough, bisection otherwise, converged once half
    the bracket is below ``(xtol + rtol * |x|) / 2``.  Returns ``(root,
    info)``; after ``maxiter`` iterations ``info.converged`` is false.
    Raises :class:`InvalidBracket` when ``f(a)`` and ``f(b)`` share a sign.
    """
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    calls = 2
    if fpre == 0.0:
        return xpre, RootInfo(True, 0, calls)
    if fcur == 0.0:
        return xcur, RootInfo(True, 0, calls)
    if (fpre < 0.0) == (fcur < 0.0):
        raise InvalidBracket(
            f"no sign change on bracket: f({a:g})={fpre:.6g}, f({b:g})={fcur:.6g}"
        )
    for iteration in range(1, maxiter + 1):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, RootInfo(True, iteration, calls)
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                numerator, denominator = -fcur * (xcur - xpre), fcur - fpre
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                numerator = -fcur * (fblk * dblk - fpre * dpre)
                denominator = dblk * dpre * (fblk - fpre)
            # An underflowed product bisects: a zero denominator, as the C
            # original does through its inf/NaN comparisons, and a zero
            # numerator, whose step of 0 would only creep on by delta.
            stry = numerator / denominator if numerator and denominator else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        calls += 1
    return xcur, RootInfo(False, maxiter, calls)


def find_root_bracketed(g: Callable[[float], float], lo: float, hi: float) -> float:
    """Find a root of ``g`` on ``[lo, hi]`` by Brent's bracketing hybrid.

    Requires a sign change across the bracket (:class:`InvalidBracket`
    otherwise).  The result lies within ``[lo, hi]`` and converges relative
    to the root itself: to within about 4 ulp of it, with an absolute floor
    of 4 subnormal ulp, so a root of any size keeps its significant digits.
    A caller states which unknown it solves for, never how finely.  Raises
    :class:`ConvergenceFailure` if 200 iterations do not get there.
    """
    lo, hi = require_real("lo", lo), require_real("hi", hi)
    if lo > hi:
        raise DomainError("bracket must satisfy lo <= hi")
    root, info = brentq(g, lo, hi, _BRENT_XTOL, _MIN_BRENT_RTOL, _BRENT_ITERATIONS)
    if not info.converged:
        raise ConvergenceFailure(
            f"root search on [{lo:g}, {hi:g}] did not converge within "
            f"{_BRENT_ITERATIONS} iterations"
        )
    return float(root)
