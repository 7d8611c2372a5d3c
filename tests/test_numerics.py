"""Tests for the numeric kernel, validated against independent oracles.

The oracles here are deliberately primitive (composite trapezoid sums,
plain bisection) so they share no code path with the adaptive routines they
check.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_plasmons import numerics
from casimir_plasmons.errors import (
    ConvergenceFailure,
    DomainError,
    InvalidBracket,
    NonFiniteIntegrand,
    TailBoundViolated,
)
from casimir_plasmons.numerics import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    brentq,
    find_root_bracketed,
    integrate,
    integrate_quadrant,
    quad,
)


def _trapezoid_oracle(f, a, b, n):
    xs = np.linspace(a, b, n)
    ys = np.array([f(x) for x in xs])
    return float(np.trapezoid(ys, xs))


def _bisection_oracle(g, lo, hi, iterations=200):
    g_lo = g(lo)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if (g_mid < 0.0) == (g_lo < 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Finite-interval quadrature
# ---------------------------------------------------------------------------


def test_kinked_integrand_matches_trapezoid_oracle():
    # sqrt(1 - e^(-sqrt(x))) - 1 has a sqrt-type kink at the origin; the
    # oracle removes it by the substitution x = t**4 and sums a fine
    # trapezoid rule, sharing nothing with the adaptive integrator.
    def f(x):
        return np.sqrt(-np.expm1(-np.sqrt(x))) - 1.0

    def substituted(t):
        return 4.0 * t**3 * f(t**4)

    oracle = _trapezoid_oracle(substituted, 0.0, 200.0**0.25, n=200_001)
    value, _ = integrate(f, 0.0, 200.0, QuadratureSpec(rel_tol=1e-12))
    assert value == pytest.approx(oracle, abs=5e-11)
    assert value == pytest.approx(-1.0867555546534253, abs=1e-12)


def test_exact_linear_integral():
    assert integrate(lambda x: x, 0.0, 1.0)[0] == pytest.approx(0.5, rel=1e-13)


def test_integrable_endpoint_singularity():
    spec = QuadratureSpec(rel_tol=1e-11)
    value, _ = integrate(lambda x: 0.5 / np.sqrt(x), 0.0, 1.0, spec)
    assert value == pytest.approx(1.0, rel=1e-9)


def test_signed_bounds_and_empty_interval():
    forward = integrate(np.cos, 0.0, 1.0)
    backward = integrate(np.cos, 1.0, 0.0)
    assert backward == (-forward[0], forward[1])
    assert integrate(np.cos, 2.0, 2.0) == (0.0, 0.0)


def test_interval_additivity():
    f = lambda x: np.exp(-x) * np.sin(3.0 * x)
    spec = QuadratureSpec(rel_tol=1e-12)
    whole = integrate(f, 0.0, 2.0, spec)[0]
    split = integrate(f, 0.0, 0.7, spec)[0] + integrate(f, 0.7, 2.0, spec)[0]
    assert whole == pytest.approx(split, abs=1e-12)


def test_error_estimate_bounds_actual_error():
    value, estimate = integrate(lambda x: x * x, 0.0, 1.0)
    assert estimate >= 0.0
    assert abs(value - 1.0 / 3.0) <= max(estimate, 1e-14)


@given(
    a=st.floats(-2, 2),
    b=st.floats(-2, 2),
    c=st.floats(-2, 2),
    d=st.floats(-2, 2),
    lo=st.floats(-3, 1),
    width=st.floats(0.1, 4),
)
@settings(max_examples=40, deadline=None)
def test_cubic_polynomials_integrate_to_closed_form(a, b, c, d, lo, width):
    hi = lo + width
    poly = lambda x: ((a * x + b) * x + c) * x + d
    antiderivative = lambda x: (
        a * x**4 / 4.0 + b * x**3 / 3.0 + c * x**2 / 2.0 + d * x
    )
    expected = antiderivative(hi) - antiderivative(lo)
    value, _ = integrate(poly, lo, hi)
    assert abs(value - expected) <= 1e-9 * (1.0 + abs(expected))


def test_rule_reports_its_work_and_failures():
    value, error, info = quad(lambda x: x * x, 0.0, 1.0, DEFAULT_QUADRATURE)
    assert abs(value - 1.0 / 3.0) <= error
    assert info["neval"] > 0 and info["last"] >= 1
    # Eight halvings cannot resolve an interior kink to 1e-13: a fourth
    # element says why, and the checked entry raises it.
    spec = QuadratureSpec(rel_tol=1e-13)
    out = quad(lambda x: np.sqrt(np.abs(x - 0.3537)), 0.0, 1.0, spec)
    assert len(out) == 4 and out[2]["last"] == 8 and "halvings" in out[3]


def test_rule_approaches_an_end_only_as_far_as_it_contributes():
    # The first level widens its window node by node while the outermost
    # term counts: x**2 is done near 1e-14 from the origin, whereas the
    # weight of 1/sqrt(x) draws nodes towards it down to below 1e-30.
    def lowest(f):
        seen = []

        def recorded(x):
            seen.append(x.min())
            return f(x)

        quad(recorded, 0.0, 1.0, DEFAULT_QUADRATURE)
        return min(seen)

    assert lowest(lambda x: x * x) > 1e-20
    assert lowest(lambda x: 0.5 / np.sqrt(x)) < 1e-30


def test_quadrature_is_deterministic():
    f = lambda x: np.exp(-x * x)
    assert integrate(f, 0.0, 10.0) == integrate(f, 0.0, 10.0)
    g = lambda x: np.exp(-np.sqrt(x))
    assert integrate(g, 0.0, math.inf) == integrate(g, 0.0, math.inf)


@pytest.mark.parametrize("b", [1.0, math.inf])
def test_integrate_goes_through_the_module_quad(b, monkeypatch):
    # Tracers wrap numerics.quad by name, so every integral must call it
    # through the module attribute.
    calls = []
    rule = numerics.quad

    def recorded(f, a, b, spec, tail_bound=None):
        calls.append((a, b))
        return rule(f, a, b, spec, tail_bound)

    monkeypatch.setattr(numerics, "quad", recorded)
    value, _ = integrate(lambda x: np.exp(-x), 0.0, b)
    assert calls == [(0.0, b)]
    assert value == pytest.approx(1.0 - math.exp(-b), rel=1e-9)


def _quad_reference(f, a, b, spec, tail_bound=None):
    """The one-call-per-level rule that ``quad`` fused into strips.

    Level 0 calls ``f`` on its core and then once per growth step, and each
    finer level once on its new nodes.  Kept verbatim, so that ``quad`` can be
    held to its bits.
    """
    from casimir_plasmons.numerics import _DE_CORE, _DE_LEVELS, _DE_STEP, _DE_WINDOWS, _EPS
    from casimir_plasmons.numerics import _de_nodes, _refine

    rule = "exp-sinh" if b == math.inf else "tanh-sinh"
    scale = 1.0 if b == math.inf else b - a
    sums = [0.0, 0.0]
    neval = 0

    def add(level: int, index) -> np.ndarray:
        """Add the nodes ``index`` of ``level`` to the sums; return their ``|w f|``."""
        nonlocal neval
        offset, weight = (array[index] for array in _de_nodes(rule, level))
        if b == math.inf:
            x = a + offset
        else:
            x = np.where(offset > 0.0, a, b) + scale * offset
        fx = np.asarray(f(x), dtype=float)
        neval += x.size
        total = float(weight @ fx)
        if not math.isfinite(total):
            bad = ~np.isfinite(fx)
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise NonFiniteIntegrand(
                    f"integrand returned {float(fx[i])!r} at x={float(x[i])!r}"
                )
        magnitudes = weight * np.abs(fx)
        sums[0] += total
        sums[1] += float(magnitudes.sum())
        return magnitudes

    # First level: the core, then one node further on each side whose
    # outermost term still counts.
    last = _de_nodes(rule, 0)[0].size - 1
    centre = round(-_DE_WINDOWS[rule][0] / _DE_STEP)
    lo, hi = centre - round(_DE_CORE / _DE_STEP), centre + round(_DE_CORE / _DE_STEP)
    core = add(0, slice(lo, hi + 1))
    edges = [core[0], core[-1]]
    while True:
        grow = [lo > 0 and edges[0] > _EPS * sums[1], hi < last and edges[1] > _EPS * sums[1]]
        if not any(grow):
            break
        index = [i for i, g in ((lo - 1, grow[0]), (hi + 1, grow[1])) if g]
        terms = add(0, np.array(index))
        if grow[0]:
            lo, edges[0] = lo - 1, terms[0]
        if grow[1]:
            hi, edges[1] = hi + 1, terms[-1]
    tail = 0.0
    if tail_bound is not None:
        tail = tail_bound(a + float(_de_nodes(rule, 0)[0][hi]))

    def level_value(level: int):
        if level:
            # The new nodes of this level between those of the window's ends.
            add(level, slice(lo << (level - 1), hi << (level - 1)))
        step = scale * _DE_STEP / 2**level
        return sums[0] * step, sums[1] * step

    value, error, halvings, failure = _refine(level_value, _DE_LEVELS, spec.rel_tol, tail)
    info = {"neval": neval, "last": halvings}
    return (value, error, info, failure) if failure else (value, error, info)


def _tanh_sinh_node(level, index):
    """Node ``index`` of ``level`` of the tanh-sinh rule on ``[0, 1]``, as quad forms it."""
    offset = float(numerics._de_nodes("tanh-sinh", level)[0][index])
    return offset if offset > 0.0 else 1.0 + offset


def _nan_at(node, f):
    """``f``, but NaN at one node of the rule."""
    return lambda x: np.where(x == node, np.nan, f(x))


def _arcsine_density(x):
    """``1/sqrt(x(1 - x))``; the nodes next to 1 round onto it, where it is inf."""
    with np.errstate(divide="ignore"):
        return 1.0 / np.sqrt(x * (1.0 - x))


# (integrand, a, b): every case the strips of quad must sum as the reference
# does.  cos(x) and 1/sqrt(x(1-x)) grow on both sides in one step, and the
# second raises there; sqrt|x - 0.3537| fails at level 8; the NaN integrands
# are NaN at one node of level 2, 3 or 5, so they raise only where the rule
# sums that level.
QUAD_CASES = {
    "x**2": (lambda x: x * x, 0.0, 1.0),
    "0.5/sqrt(x)": (lambda x: 0.5 / np.sqrt(x), 0.0, 1.0),
    "cos(x)": (np.cos, 0.0, 1.0),
    "1/sqrt(x(1-x))": (_arcsine_density, 0.0, 1.0),
    "sqrt|x-0.3537|": (lambda x: np.sqrt(np.abs(x - 0.3537)), 0.0, 1.0),
    "log(x)**2": (lambda x: np.log(x) ** 2, 0.0, 1.0),
    "exp(-x) on [0, inf)": (lambda x: np.exp(-x), 0.0, math.inf),
    "exp(-x) on [2, inf)": (lambda x: np.exp(-x), 2.0, math.inf),
    "NaN at level 2": (_nan_at(_tanh_sinh_node(2, 16), lambda x: x * x), 0.0, 1.0),
    "NaN at level 3": (_nan_at(_tanh_sinh_node(3, 40), lambda x: x * x), 0.0, 1.0),
    "NaN at level 5": (
        _nan_at(_tanh_sinh_node(5, 200), lambda x: np.sqrt(np.abs(x - 0.3537))),
        0.0,
        1.0,
    ),
}
QUAD_TOLERANCES = [1e-3, 1e-6, 1e-9, 1e-12, 1e-13, 1e-15]


def _quad_outcome(rule, name, tol):
    """What ``rule`` returns (or raises) for a case, the sizes of its calls of
    ``f``, and its info dict (``None`` when it raised)."""
    f, a, b = QUAD_CASES[name]
    tail_bound = numerics._envelope_tail_bound(f, a) if b == math.inf else None
    calls = []

    def counted(x):
        calls.append(x.size)
        return f(x)

    try:
        out = rule(counted, a, b, QuadratureSpec(rel_tol=tol), tail_bound)
    except NonFiniteIntegrand as exc:
        return ("NonFiniteIntegrand", str(exc)), calls, None
    value, error, info = out[:3]
    return (value.hex(), error.hex(), info["last"], out[3:]), calls, info


@pytest.mark.parametrize("tol", QUAD_TOLERANCES)
@pytest.mark.parametrize("name", sorted(QUAD_CASES))
def test_quad_keeps_the_bits_of_the_per_level_rule(name, tol):
    # Value, error, halvings and failure text, or the NonFiniteIntegrand
    # message, bit for bit.
    assert _quad_outcome(quad, name, tol)[0] == _quad_outcome(_quad_reference, name, tol)[0]


@pytest.mark.parametrize("tol", QUAD_TOLERANCES)
@pytest.mark.parametrize("name", sorted(QUAD_CASES))
def test_quad_calls_f_once_per_strip_and_finer_level(name, tol):
    # The per-level rule calls f on the core (13 nodes), once per growth
    # step (1 or 2 nodes) and once per finer level (at least 13).  quad
    # makes the same calls but those of levels 1 to 3, whose nodes ride
    # along with the strips of level 0.
    _, calls, info = _quad_outcome(quad, name, tol)
    _, reference, _ = _quad_outcome(_quad_reference, name, tol)
    level_0 = 1 + sum(size <= 2 for size in reference[1:])
    assert len(calls) == level_0 + max(len(reference) - level_0 - 3, 0)
    if info is not None:
        assert (info["calls"], info["neval"]) == (len(calls), sum(calls))


# ---------------------------------------------------------------------------
# Two-dimensional quadrant rule
# ---------------------------------------------------------------------------


def _gamma_product(x, y):
    # Int_0^inf Int_0^inf x y e^(-x-y) dx dy = 1.
    return x * y * np.exp(-x - y)


def test_quadrant_matches_closed_form_within_its_estimate():
    value, estimate = integrate_quadrant(_gamma_product)
    assert 0.0 <= estimate <= 1e-9
    assert abs(value - 1.0) <= estimate + 1e-16
    # For e^(-x-y) levels 2 and 3 differ by 8e-10 and level 3 is exact to
    # rounding: the error reported shrinks that difference by its rate of
    # fall (1.5e-5 from levels 1 and 2) and still covers the true error.
    value, estimate = integrate_quadrant(lambda x, y: np.exp(-x - y))
    assert abs(value - 1.0) <= estimate <= 1e-13


def test_quadrant_resolves_an_integral_of_1e_minus_20():
    # A Gaussian of width 0.2 in log x and log y needs three halvings; the
    # integral is 1e-20, and the relative stopping test keeps the rule from
    # stopping after the first, 2% off.
    sigma = 0.2

    def narrow(x, y):
        exponent = (np.log(x) ** 2 + np.log(y) ** 2) / (2.0 * sigma**2)
        return 1e-20 * np.exp(-exponent) / (x * y)

    value, estimate = integrate_quadrant(narrow)
    exact = 1e-20 * 2.0 * math.pi * sigma**2
    assert abs(value - exact) <= estimate <= 1e-9 * exact


def test_quadrant_skips_nodes_below_machine_epsilon():
    # e^(-x-y) drops below 1e-16 of its integral beyond x or y ~ 37 and its
    # terms |w f| below x ~ 1e-16, so the finer levels never reach the
    # window's ends: fewer than the 121**2 nodes of level 3 over the whole
    # window.
    nodes = []

    def f(x, y):
        nodes.append(np.broadcast(x, y).size)
        return np.exp(-x - y)

    value, estimate = integrate_quadrant(f)
    assert abs(value - 1.0) <= estimate
    assert sum(nodes) <= 100**2


def test_quadrant_integrand_works_elementwise():
    # Level 0 passes a column and a row; every finer level two flat arrays
    # of equal length, on which an elementwise integrand gives the same sums.
    calls = []

    def flat(x, y):
        if calls:
            assert x.ndim == 1 and x.shape == y.shape
        calls.append(np.broadcast(x, y).size)
        return _gamma_product(x, y)

    assert integrate_quadrant(flat) == integrate_quadrant(_gamma_product)
    assert len(calls) > 1 and max(calls) <= 8192


def test_quadrant_cuts_a_level_into_calls_of_at_most_8192_nodes(monkeypatch):
    # Level 4 of this integrand has 27,840 new nodes: four calls, whose
    # values sum as those of one call would.
    spec = QuadratureSpec(rel_tol=1e-13)
    nodes = []

    def f(x, y):
        nodes.append(np.broadcast(x, y).size)
        return np.exp(-x - y) / (1.0 + x * y)

    chunked = integrate_quadrant(f, spec)
    assert nodes[4:] == [8192, 8192, 8192, 3264]
    monkeypatch.setattr(numerics, "_QUADRANT_BLOCK", 10**6)
    assert integrate_quadrant(f, spec) == chunked


def _quadrant_reference(f, spec=DEFAULT_QUADRATURE):
    """The product rule that built each level's nodes by repeat and tile.

    Kept verbatim, so that ``integrate_quadrant`` can be held to its nodes,
    their order and its bits.
    """
    from casimir_plasmons.numerics import _DE_STEP, _EPS, _QUADRANT_BLOCK, _QUADRANT_LEVELS
    from casimir_plasmons.numerics import _de_nodes, _refine

    offset, weight = _de_nodes("exp-sinh", 0)
    terms = weight[:, np.newaxis] * f(offset[:, np.newaxis], offset[np.newaxis, :]) * weight
    floor = _EPS * float(np.abs(terms).sum())
    if not math.isfinite(floor):
        raise NonFiniteIntegrand(f"integrand summed to {float(terms.sum())!r}")
    reach = []
    for axis in (1, 0):
        kept = np.flatnonzero(np.abs(terms).sum(axis) >= floor)
        reach.append((max(kept[0] - 1, 0), min(kept[-1] + 1, offset.size - 1)))
    weighted_sum = float(terms[tuple(slice(lo, hi + 1) for lo, hi in reach)].sum())
    done = [(offset[lo : hi + 1], weight[lo : hi + 1]) for lo, hi in reach]
    values = []

    def level_value(level):
        nonlocal weighted_sum
        if level:
            shift, nodes = level - 1, _de_nodes("exp-sinh", level)
            new = [tuple(a[lo << shift : hi << shift] for a in nodes) for lo, hi in reach]
            every = [tuple(map(np.concatenate, zip(d, n))) for d, n in zip(done, new)]
            (x_new, wx_new), (y_new, wy_new) = new
            (x_old, wx_old), (y_all, wy_all) = done[0], every[1]
            # The L of new nodes, flat: new x by every y, then old x by new y.
            x = np.concatenate((np.repeat(x_new, y_all.size), np.repeat(x_old, y_new.size)))
            y = np.concatenate((np.tile(y_all, x_new.size), np.tile(y_new, x_old.size)))
            n = _QUADRANT_BLOCK  # nodes per call of f
            fxy = np.concatenate([f(x[i : i + n], y[i : i + n]) for i in range(0, x.size, n)])
            split = x_new.size * y_all.size
            weighted_sum += float(wx_new @ (fxy[:split].reshape(x_new.size, -1) @ wy_all))
            weighted_sum += float(wx_old @ (fxy[split:].reshape(x_old.size, -1) @ wy_new))
            done[:] = every
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


@pytest.mark.parametrize(
    "f, tol",
    [
        (_gamma_product, 1e-9),
        # Reaches further on both axes.
        (lambda x, y: np.exp(-x - y) / (1.0 + x * y), 1e-13),
    ],
    ids=["gamma-product", "slow-tail"],
)
def test_quadrant_passes_the_nodes_of_repeat_and_tile(f, tol, monkeypatch):
    # Each call of f sees the same x and y, in the same order, as the
    # reference's, and the sums keep their bits.  A level of at most 8192
    # nodes is one call.
    spec = QuadratureSpec(rel_tol=tol)
    calls, per_level = [], []
    refine = numerics._refine

    def recorded(x, y):
        calls.append((np.array(x), np.array(y)))
        return f(x, y)

    def counted_refine(level_value, *args):
        def counted(level):
            before = len(calls)
            out = level_value(level)
            per_level.append([np.broadcast(*xy).size for xy in calls[before:]])
            return out

        return refine(counted, *args)

    monkeypatch.setattr(numerics, "_refine", counted_refine)
    result = integrate_quadrant(recorded, spec)
    monkeypatch.setattr(numerics, "_refine", refine)
    new_calls, calls[:] = calls[:], []
    assert result == _quadrant_reference(recorded, spec)
    assert len(new_calls) == len(calls) > 4
    for (x, y), (x_ref, y_ref) in zip(new_calls, calls):
        assert x.shape == x_ref.shape and y.shape == y_ref.shape
        assert (x == x_ref).all() and (y == y_ref).all()
    # Level 0 (the 16 by 16 grid) runs before the refinement.
    assert per_level[0] == [] and np.broadcast(*new_calls[0]).size == 16 * 16
    for sizes in per_level[1:]:
        assert len(sizes) == -(-sum(sizes) // 8192) and max(sizes) <= 8192
    counts = [len(sizes) for sizes in per_level[1:]]
    assert counts[:3] == [1, 1, 1] and counts[3] > 1  # level 4 is cut into blocks


def test_quadrant_is_deterministic():
    assert integrate_quadrant(_gamma_product) == integrate_quadrant(_gamma_product)


def test_quadrant_failure_modes():
    # A target below the rounding allowance fails at once; an integrand the
    # finest level cannot resolve fails after the last halving.
    with pytest.raises(ConvergenceFailure, match="rounding allowance"):
        integrate_quadrant(_gamma_product, QuadratureSpec(rel_tol=1e-16))
    ripple = lambda x, y: (2.0 + np.sin(1e4 * x)) * np.exp(-x - y)
    with pytest.raises(ConvergenceFailure, match="halvings"):
        integrate_quadrant(ripple)
    with pytest.raises(NonFiniteIntegrand):
        integrate_quadrant(lambda x, y: x * y * np.nan)


# ---------------------------------------------------------------------------
# Failure modes
# ---------------------------------------------------------------------------


def test_subdivision_budget_exhaustion_raises():
    spec = QuadratureSpec(rel_tol=1e-13)
    with pytest.raises(ConvergenceFailure, match=r"quadrature on \[0, 1\]: .* 8 halvings"):
        integrate(lambda x: np.sqrt(np.abs(x - 0.3537)), 0.0, 1.0, spec)


def test_unmeetable_tolerance_raises_instead_of_overclaiming():
    # Below ~50 eps the kernel cannot certify the result; it must fail
    # loudly rather than return a value with a silently missed tolerance.
    spec = QuadratureSpec(rel_tol=1e-15)
    with pytest.raises(ConvergenceFailure):
        integrate(lambda x: np.exp(-np.sqrt(x)), 0.0, 100.0, spec)


def test_non_finite_integrand_detected():
    with pytest.raises(NonFiniteIntegrand):
        integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0)
    with pytest.raises(NonFiniteIntegrand):
        integrate(lambda x: np.full_like(x, np.inf), 0.0, math.inf)


@pytest.mark.parametrize("f", [lambda x: 1.0, lambda x: np.array([x.sum()])])
def test_integrand_of_the_wrong_shape_raises(f):
    # One value for many nodes must not be spread over all of them.
    with pytest.raises(ValueError):
        integrate(f, 0.0, 1.0)


def test_non_finite_bounds_rejected():
    for a, b in ((0.0, -math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(DomainError, match="bounds must be finite"):
            integrate(lambda x: x, a, b)
    for a in (math.nan, -math.inf, math.inf):
        with pytest.raises(DomainError, match="lower bound must be finite"):
            integrate(lambda x: x, a, math.inf)


def test_quadrature_spec_validation():
    assert [field.name for field in dataclasses.fields(QuadratureSpec)] == ["rel_tol"]
    for bad in (0.0, 0, -1e-9, math.nan, math.inf, True, 2**1100, "1e-9", None):
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=bad)


# ---------------------------------------------------------------------------
# Semi-infinite quadrature
# ---------------------------------------------------------------------------


def test_semi_infinite_exponential_family():
    spec = QuadratureSpec(rel_tol=1e-11)
    assert integrate(lambda x: np.exp(-x), 0.0, math.inf, spec)[0] == pytest.approx(
        1.0, rel=1e-10
    )
    envelope = lambda x: np.exp(-np.sqrt(x))
    assert integrate(envelope, 0.0, math.inf, spec)[0] == pytest.approx(2.0, rel=1e-10)
    # int_a^inf e^(-sqrt(x)) dx = 2 (sqrt(a) + 1) e^(-sqrt(a))
    assert integrate(envelope, 4.0, math.inf, spec)[0] == pytest.approx(
        6.0 * math.exp(-2.0), rel=1e-10
    )


def test_semi_infinite_returns_error_estimate():
    value, estimate = integrate(lambda x: np.exp(-x), 0.0, math.inf)
    assert estimate >= 0.0
    assert abs(value - 1.0) <= max(10.0 * estimate, 1e-12)


def test_growing_tail_raises_tail_bound_violated():
    with pytest.raises(TailBoundViolated):
        integrate(lambda x: x, 0.0, math.inf)
    with pytest.raises(TailBoundViolated):
        integrate(lambda x: np.exp(x / 1000.0), 0.0, math.inf)


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

def test_semi_infinite_growth_before_threshold_is_fine():
    # The envelope is only enforced beyond tail_threshold; a hump below it
    # must not trip the probe check.
    hump = lambda x: (x**2) * np.exp(-x)
    value, _ = integrate(hump, 0.0, math.inf)
    assert value == pytest.approx(2.0, rel=1e-8)


def test_root_matches_bisection_oracle():
    g = lambda x: x**3 - 2.0 * x - 5.0
    oracle = _bisection_oracle(g, 2.0, 3.0)
    root = find_root_bracketed(g, 2.0, 3.0)
    assert root == pytest.approx(oracle, abs=1e-12)


def test_root_trigonometric_reference():
    root = find_root_bracketed(math.cos, 1.0, 2.0)
    assert root == pytest.approx(0.5 * math.pi, abs=1e-13)


def test_root_endpoint_shortcuts():
    assert find_root_bracketed(lambda x: x, 0.0, 1.0) == 0.0
    assert find_root_bracketed(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_root_invalid_bracket_and_bad_bounds():
    with pytest.raises(InvalidBracket):
        find_root_bracketed(lambda x: 1.0 + x * x, 0.0, 1.0)
    with pytest.raises(DomainError):
        find_root_bracketed(lambda x: x, 1.0, 0.0)
    with pytest.raises(DomainError):
        find_root_bracketed(lambda x: x, 0.0, math.inf)


def test_brent_reports_iterations_and_calls():
    root, info = brentq(math.cos, 1.0, 2.0, 1e-14, 4.0 * 2.0**-52, 100)
    assert root == pytest.approx(0.5 * math.pi, abs=1e-13)
    assert info.converged and info.iterations >= 1
    # Two endpoint calls, then one per iteration but the converging one.
    assert info.function_calls == info.iterations + 1
    _, stalled = brentq(math.cos, 1.0, 2.0, 1e-14, 4.0 * 2.0**-52, 2)
    assert not stalled.converged and stalled.iterations == 2
    with pytest.raises(InvalidBracket):
        brentq(math.cos, 0.0, 1.0, 1e-14, 4.0 * 2.0**-52, 100)


def test_root_converges_relative_to_the_root():
    root = find_root_bracketed(lambda x: x - 1e-300, 0.0, 1.0)
    assert abs(root - 1e-300) <= 4.0 * math.ulp(1e-300)


def test_brent_bisects_where_an_interpolation_denominator_underflows():
    # The plus-branch endpoint equation in v = W - u at W = 1e-60: its root
    # is W**3/8, and an extrapolation step's denominator underflows to 0 on
    # the way there.  Brent's C original bisects through inf/NaN comparisons.
    w = 1e-60

    def f(v):
        return v * (w + (w - v)) - ((w - v) * math.tan(0.5 * (w - v))) ** 2

    root, info = brentq(f, 0.0, w, 4.0 * math.ulp(0.0), 4.0 * 2.0**-52, 200)
    assert info.converged
    assert root == pytest.approx(w**3 / 8.0, rel=1e-14)
    assert find_root_bracketed(f, 0.0, w) == root


def test_brent_bisects_where_an_interpolation_numerator_underflows():
    # f * dx underflows to 0 at this scale; the step of 0 that the C original
    # takes there only creeps on by delta, and 200 iterations ran out.
    root = find_root_bracketed(lambda x: 5e-261 - x, 0.0, 1e-240)
    assert root == pytest.approx(5e-261, rel=1e-15, abs=0.0)


def test_root_find_evaluates_each_point_once(monkeypatch):
    # The endpoints are evaluated once, by Brent's method itself: every call
    # of g is one that brentq counts.
    infos = []
    solve = numerics.brentq

    def recorded(*args):
        root, info = solve(*args)
        infos.append(info)
        return root, info

    monkeypatch.setattr(numerics, "brentq", recorded)
    points = []

    def g(x):
        points.append(x)
        return math.cos(x)

    find_root_bracketed(g, 1.0, 2.0)
    assert len(infos) == 1 and len(points) == infos[0].function_calls
    assert points[:2] == [1.0, 2.0] and len(set(points)) == len(points)
    with pytest.raises(InvalidBracket, match=r"f\(0\)=1, f\(1\)=0.540302"):
        find_root_bracketed(math.cos, 0.0, 1.0)


def test_root_is_deterministic():
    r1 = find_root_bracketed(math.cos, 1.0, 2.0)
    r2 = find_root_bracketed(math.cos, 1.0, 2.0)
    assert r1 == r2


@given(r=st.floats(0.05, 0.95), scale=st.floats(0.1, 10.0))
@settings(max_examples=40, deadline=None)
def test_root_recovers_known_crossing(r, scale):
    root = find_root_bracketed(lambda x: scale * (x - r), 0.0, 1.0)
    assert abs(root - r) < 1e-10
