"""Dispersion-relation machinery for the cavity modes of two plasma mirrors.

A cavity bounded by two identical plasma-model mirrors supports, in TM
polarization, two coupled surface-mode branches (labelled ``plus`` and
``minus`` after the sign of the coupling term) that merge, for large mirror
separation, into the doubly degenerate single-interface surface mode (the
``zero`` reference branch).  On top of those there is a ladder of
propagative cavity resonances indexed by an integer ``m``.

Everything is expressed in scaled units (wavevector ``K = |k| L``, frequency
``Omega = omega L / c``, plasma parameter ``Omega_P = omega_p L / c``) and in
the variable ``z = K**2 - Omega**2`` that measures the squared distance from
the light cone: ``z > 0`` is evanescent, ``z < 0`` propagative.

Each coupled branch has a characteristic function ``f(z) = z + g(z)**2``
which is strictly increasing, so the branch frequency at a given wavevector
follows from inverting ``f(z*) = K**2`` and setting
``Omega = sqrt(K**2 - z*)``.  For the ``plus`` branch the inversion can land
at ``z < 0`` (the branch crosses the light cone); there ``g**2`` is continued
in real arithmetic through trigonometric forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum, unique
from functools import lru_cache
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    ContinuationError,
    ConvergenceFailure,
    DomainError,
    NoSolution,
    _integer_in,
    require_positive_finite,
    require_real,
)
from .numerics import find_root_bracketed
from .optics import Polarization, Sector, _coerce_polarization, classify

__all__ = [
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
    "sample_dispersion",
    "default_dispersion_grid",
]

# The scalar real-arithmetic continuation below the light cone routes its
# tangent evaluations through this module attribute so that a test can
# inject a fault and show that the self-check "propagative-identity", whose
# direct integral inverts the plus branch below the light cone, catches it.
_tan = math.tan

# Largest plasma parameter whose plus-branch endpoint, about
# pi*(1 - 2/Omega_P), lies more than a few ulp below pi, so that its root find
# resolves it (and tan(pi/2), which rounds to 1.6e16, still brackets it).
_MAX_SURFACE_OMEGA_P = 1e15
# Below this Omega_P**2 underflows, so the endpoint equation's value at u = 0
# rounds to 0 and its root find would return y_plus = 0.
_MIN_SURFACE_OMEGA_P = 1.5e-154
# Most points of a wavevector or sweep grid: a million is far more than any
# table needs, and far below what numpy can allocate.
_MAX_GRID_POINTS = 10**6
# Smallest normal float: below it K**2 and Omega**2 lose their relative
# accuracy (or round to 0), and so would a branch frequency solved in them.
_MIN_NORMAL = 2.0**-1022


@unique
class CoupledBranch(Enum):
    """Selector for the three coupled-surface-mode characteristic functions."""

    PLUS = "plus"
    MINUS = "minus"
    ZERO = "zero"


@unique
class BranchKind(Enum):
    """Identity of a dispersion branch as exported in tables."""

    PLASMONIC_PLUS = "plasmonic_plus"
    PLASMONIC_MINUS = "plasmonic_minus"
    INTERFACE_REFERENCE = "interface_reference"
    PHOTONIC = "photonic"


def _coerce_branch(kind: Union[CoupledBranch, str]) -> CoupledBranch:
    if isinstance(kind, CoupledBranch):
        return kind
    try:
        return CoupledBranch(str(kind).lower())
    except ValueError:
        raise DomainError(
            f"unknown branch {kind!r}; expected one of plus, minus, zero"
        ) from None


@dataclass(frozen=True)
class BranchId:
    """Identity of one exported dispersion branch.

    The coupled surface branches and their single-interface reference exist
    only in TM polarization; the propagative cavity ladder carries a positive
    mode index ``m`` and exists for both polarizations.
    """

    kind: BranchKind
    pol: Polarization
    m: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is BranchKind.PHOTONIC:
            _integer_in("m", self.m, 1)
        elif self.m is not None:
            raise DomainError("m is only meaningful for photonic branches")
        elif self.pol is not Polarization.TM:
            raise DomainError("surface-mode branches exist only in TM polarization")


@dataclass(frozen=True)
class DispersionPoint:
    """One sampled point of a dispersion branch, with its sector tag.

    The tag is derived: ``sector`` is :func:`classify` of ``(K, Omega)``.
    """

    K: float
    Omega: float
    sector: Sector = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sector", classify(self.K, self.Omega))


@dataclass(frozen=True)
class BranchConstants:
    """Derived scalars of the coupled branches at a given ``Omega_P``.

    ``k_P``: wavevector where the ``plus`` branch crosses the light cone
    (closed form ``Omega_P / sqrt(1 + Omega_P/2)``).
    ``y_plus``: frequency of the ``plus`` branch at ``K = 0``.
    ``z_plus0 = y_plus**2``: magnitude of the branch's endpoint in ``z``
    (``f_plus(-z_plus0) = 0``).
    ``z_0P``: value of ``z`` on the reference branch at ``K = k_P``; it is
    non-positive by the convention ``-z_0P = k_P**2 - omega0(k_P)**2 >= 0``.
    """

    Omega_P: float
    k_P: float
    y_plus: float
    z_plus0: float
    z_0P: float


def omega0(K: float, Omega_P: float) -> float:
    """Frequency of the surface mode bound to a single mirror interface.

    Closed form ``sqrt((Omega_P^2 + 2K^2 - sqrt(Omega_P^4 + 4K^4))/2)``,
    evaluated through its rationalised equivalent so no cancellation occurs.
    Always ``<= K`` (the mode is evanescent), rising from 0 at ``K = 0``
    towards the asymptote ``Omega_P/sqrt(2)``.
    """
    Omega_P = require_positive_finite("Omega_P", Omega_P)
    K = require_real("K", K, "non-negative")
    # In the ratio of the smaller to the larger argument, whose square can
    # neither overflow nor matter where it underflows.
    if K <= Omega_P:
        t_sq = (K / Omega_P) ** 2
        return K * math.sqrt(2.0 / (1.0 + 2.0 * t_sq + math.hypot(1.0, 2.0 * t_sq)))
    r_sq = (Omega_P / K) ** 2
    return Omega_P * math.sqrt(2.0 / (r_sq + 2.0 + math.hypot(r_sq, 2.0)))


def _evanescent_g_squared(branch: CoupledBranch, root_z, Omega_P: float, ops, root: bool):
    """``g(z)^2`` (or ``g`` if ``root``) at ``z = root_z**2 > 0``; ``ops`` is math or numpy."""
    root_sum = ops.hypot(root_z, Omega_P)
    coupling = 1.0  # the reference branch's, which needs no decay
    if branch is not CoupledBranch.ZERO:
        decay, one_minus_decay = ops.exp(-root_z), -ops.expm1(-root_z)
        if branch is CoupledBranch.PLUS:
            coupling = one_minus_decay / (1.0 + decay)
        else:
            coupling = (1.0 + decay) / one_minus_decay
    # Divided through by root_sum, which root_sum * coth(sqrt(z)/2) could overflow at
    # small z.  scaled is at most Omega_P, so scaled * Omega_P overflows only where g^2
    # does; g, the product of the roots, is finite wherever g is.
    scaled = Omega_P / root_sum * (root_z / (root_z / root_sum + coupling))
    return ops.sqrt(scaled) * math.sqrt(Omega_P) if root else scaled * Omega_P


def _continued_g_squared(u, Omega_P: float, sqrt, tan):
    """Plus-branch ``g(z)^2`` at ``z = -u**2 < 0`` (``Omega_P <= 1e15``), ``Omega_P`` last."""
    span = sqrt((Omega_P - u) * (Omega_P + u))
    return Omega_P * (Omega_P * (u / (u + span * tan(0.5 * u))))


def _plus_g_squared_at_zero(Omega_P: float, root: bool = False) -> float:
    scaled = Omega_P / (1.0 + 0.5 * Omega_P)
    return math.sqrt(scaled) * math.sqrt(Omega_P) if root else scaled * Omega_P


def _check_continuation(branch: CoupledBranch, u: float, Omega_P: float) -> None:
    """Raise unless ``z = -u**2`` lies in the plus branch's continuation window."""
    if branch is not CoupledBranch.PLUS:
        raise DomainError("only the plus branch continues below the light cone (z < 0)")
    # u = Omega_P is the endpoint itself wherever y_plus rounds to Omega_P
    # (Omega_P below about 4e-8).
    if u > Omega_P or u >= math.pi:
        raise ContinuationError(
            f"continuation parameter u={u:.6g} outside the principal "
            f"window [0, Omega_P] and [0, pi) for Omega_P={Omega_P:.6g}"
        )


def _g_squared(branch: CoupledBranch, z, Omega_P: float, root: bool = False):
    """Squared mode function g(z)^2 (g(z) if ``root``) of one branch (no domain gate).

    For ``z > 0`` the three branches share the structure
    ``Omega_P^2 * sqrt(z) / (sqrt(z) + sqrt(z + Omega_P^2) * h)`` with the
    coupling factor ``h`` equal to ``tanh(sqrt(z)/2)`` (plus),
    ``coth(sqrt(z)/2)`` (minus) or 1 (zero reference).  For ``z < 0`` only the
    plus branch continues, via ``u = sqrt(-z)`` and the tangent analogue of
    the hyperbolic form; the window ``u <= Omega_P``, ``u < pi`` keeps that
    continuation single-valued.  Every form is divided through by its largest
    factor and multiplies ``Omega_P`` in last, so that only a ``g^2`` beyond
    the float range overflows, and ``g`` is taken without forming ``g^2``.

    A scalar ``z`` is evaluated with libm (through math), whose bits the
    branch inversions follow; an array ``z`` with numpy, one call per array.
    """
    # isinstance first: np.ndim costs more than a scalar Brent iterate's arithmetic.
    if not isinstance(z, float) and np.ndim(z):
        return _g_squared_array(branch, np.asarray(z, dtype=float), Omega_P, root)
    if z < 0.0:
        u = math.sqrt(-z)
        _check_continuation(branch, u, Omega_P)
        g_sq = _continued_g_squared(u, Omega_P, math.sqrt, _tan)
        return math.sqrt(g_sq) if root else g_sq
    if z == 0.0:
        if branch is CoupledBranch.PLUS:
            return _plus_g_squared_at_zero(Omega_P, root)
        return 0.0
    return _evanescent_g_squared(branch, math.sqrt(z), Omega_P, math, root)


def _g_squared_array(branch: CoupledBranch, z: np.ndarray, Omega_P: float, root: bool):
    """:func:`_g_squared` of an array: one numpy pass per sign of ``z``."""
    if z.min() > 0.0:
        return _evanescent_g_squared(branch, np.sqrt(z), Omega_P, np, root)
    if z.max() < 0.0:
        u = np.sqrt(-z)
        _check_continuation(branch, float(u.max()), Omega_P)
        g_sq = _continued_g_squared(u, Omega_P, np.sqrt, np.tan)
        return np.sqrt(g_sq) if root else g_sq
    g_sq = np.zeros(z.shape)
    for part in (z < 0.0, z > 0.0):
        if part.any():
            g_sq[part] = _g_squared_array(branch, z[part], Omega_P, root)
    if branch is CoupledBranch.PLUS:
        g_sq[z == 0.0] = _plus_g_squared_at_zero(Omega_P, root)
    return g_sq


def _g_squared_checked(branch: CoupledBranch, z, Omega_P: float, root: bool = False):
    """``(z, _g_squared)`` after the checks it omits: real inputs, plus-branch endpoint."""
    Omega_P = require_positive_finite("Omega_P", Omega_P)
    z = require_real("z", z, array=True)
    z_min = float(z.min()) if np.ndim(z) else z
    g_sq = _g_squared(branch, z, Omega_P, root)
    if z_min < 0.0:
        z_plus0 = branch_constants(Omega_P).z_plus0
        if z_min < -z_plus0 * (1.0 + 1e-12):
            raise DomainError(
                f"z={z_min!r} lies below the plus-branch endpoint -z_plus0="
                f"{-z_plus0!r} for Omega_P={Omega_P:.6g}"
            )
    return z, g_sq


def f_branch(kind: Union[CoupledBranch, str], z, Omega_P: float):
    """Characteristic function ``f(z) = z + g(z)**2`` of a coupled branch.

    Strictly increasing in ``z`` on its domain; the branch frequency at
    wavevector ``K`` solves ``f(z) = K**2``.  The minus and zero branches are
    defined for ``z >= 0``; the plus branch extends down to ``-z_plus0``.
    ``z`` may be a numpy array.  Raises :class:`DomainError` where
    ``f`` overflows.
    """
    with np.errstate(over="ignore"):
        z, g_sq = _g_squared_checked(_coerce_branch(kind), z, Omega_P)
        f = z + g_sq
    if not np.isfinite(f).all():
        raise DomainError(f"f(z) = z + g(z)**2 overflows at Omega_P={Omega_P:g}")
    return f


def g_branch(kind: Union[CoupledBranch, str], z, Omega_P: float):
    """Mode function ``g(z) = sqrt(f(z) - z)``; non-negative on its domain.

    ``z`` may be a numpy array.
    """
    return _g_squared_checked(_coerce_branch(kind), z, Omega_P, root=True)[1]


def _branch_combination(root_z, Omega_P: float):
    """:func:`g_branch_combination` at ``z = root_z**2`` for an array ``root_z > 0``, unchecked."""
    total = root_z + np.hypot(root_z, Omega_P)
    decay = np.exp(-root_z)
    one_minus_decay = -np.expm1(-root_z)
    # Omega_P / total is at most 1; at root_z = 0 the factors below divide by zero.
    scaled = Omega_P / total
    scaled_sq = scaled * scaled
    ratio = decay * scaled_sq
    one_minus_ratio = 2.0 * root_z / total + scaled_sq * one_minus_decay
    g_zero = Omega_P * np.sqrt(root_z / total)
    plus_factor = np.sqrt((1.0 + decay) / one_minus_ratio)
    minus_factor = np.sqrt(one_minus_decay / (1.0 + ratio))
    factor_sum = minus_factor + plus_factor
    decay_sum = decay + ratio
    one_minus_ratio_sq = one_minus_ratio * (1.0 + ratio)
    numerator = ratio * (factor_sum + 2.0) - 2.0 * decay_sum / (one_minus_ratio_sq * factor_sum)
    return (
        g_zero
        * decay_sum
        * numerator
        / (one_minus_ratio_sq * (plus_factor + 1.0) * (minus_factor + 1.0))
    )


def g_branch_combination(z, Omega_P: float):
    """The combination ``g_plus + g_minus - 2*g_zero`` without cancellation.

    All three mode functions share the plateau ``Omega_P/sqrt(2)`` at large
    ``z``, so the naive sum loses all significance once the differences fall
    below machine precision; this evaluation reorganises the sum so the
    plateau cancels algebraically and the exp(-sqrt(z)) decay of the
    remainder is computed directly.  Defined for ``z >= 0``; ``z`` may be a
    numpy array, evaluated in one pass (a float in, a float out).
    """
    Omega_P = require_positive_finite("Omega_P", Omega_P)
    z_array = np.asarray(require_real("z", z, "non-negative", array=True))
    # At z = 0 the kernel divides by zero unseen, and that entry is replaced after.
    with np.errstate(divide="ignore", invalid="ignore"):
        combination = _branch_combination(np.sqrt(z_array), Omega_P)
    if z_array.min() == 0.0:
        # g_minus and g_zero vanish at z = 0; only the plus branch survives.
        at_zero = _plus_g_squared_at_zero(Omega_P, root=True)
        combination = np.where(z_array == 0.0, at_zero, combination)
    return float(combination) if combination.ndim == 0 else combination


@lru_cache(maxsize=512)
def _branch_constants_cached(Omega_P: float) -> BranchConstants:
    if Omega_P > _MAX_SURFACE_OMEGA_P:
        raise DomainError(
            f"Omega_P={Omega_P:g} exceeds {_MAX_SURFACE_OMEGA_P:g}: the plus-branch "
            "endpoint, about pi*(1 - 2/Omega_P), lies within a few ulp of pi"
        )
    if Omega_P < _MIN_SURFACE_OMEGA_P:
        raise DomainError(
            f"Omega_P={Omega_P:g} is below {_MIN_SURFACE_OMEGA_P:g}: the plus-branch "
            "endpoint equation underflows"
        )
    k_p = Omega_P / math.sqrt(1.0 + 0.5 * Omega_P)
    u_max = min(Omega_P, math.pi)

    # The endpoint of the plus branch solves f_plus(-u^2) = 0, which after
    # clearing denominators becomes u*tan(u/2) = sqrt(Omega_P^2 - u^2): a
    # strictly monotone crossing on [0, u_max], -Omega_P at 0 and not
    # negative at u_max.
    def endpoint_equation(u: float) -> float:
        return u * math.tan(0.5 * u) - math.sqrt(
            max((Omega_P - u) * (Omega_P + u), 0.0)
        )

    y_plus = find_root_bracketed(endpoint_equation, 0.0, u_max)
    # k_P^2 - omega0(k_P)^2 without forming that difference, which cancels at
    # large Omega_P: with t = k_P/Omega_P, omega0(k_P)^2 is
    # k_P^2 * 2/(1 + 2t^2 + hypot(1, 2t^2)), and 1 minus that ratio is
    # 2t^2/(1 + hypot(1, 2t^2)).
    t_sq = 1.0 / (1.0 + 0.5 * Omega_P)
    depth = k_p * k_p * (2.0 * t_sq / (1.0 + math.hypot(1.0, 2.0 * t_sq)))
    return BranchConstants(
        Omega_P=Omega_P,
        k_P=k_p,
        y_plus=y_plus,
        z_plus0=y_plus * y_plus,
        z_0P=-depth,
    )


def branch_constants(Omega_P: float) -> BranchConstants:
    """Derived branch scalars (light-cone crossing, endpoints) for ``Omega_P``.

    Defined from ``Omega_P = 1.5e-154`` up to ``1e15`` (:class:`DomainError`
    outside), over which ``y_plus`` comes from a root find relative to its
    own size: it is within an ulp or two of the true endpoint everywhere,
    also where it rounds to ``Omega_P`` (below about ``4e-8``).
    """
    return _branch_constants_cached(require_positive_finite("Omega_P", Omega_P))


def invert_branch(
    kind: Union[CoupledBranch, str],
    K: float,
    Omega_P: float,
) -> float:
    """Branch frequency ``Omega[K]``, the root of ``f(K**2 - Omega**2) = K**2``.

    Solves for ``v = w / scale``, where ``g(K**2 - w)**2 / scale - v`` falls
    through 0 (``f`` is increasing); ``w = Omega**2`` and ``scale`` is the top
    of its bracket, so ``v`` and the objective are of order 1 at every scale.
    The minus and zero branches, and the plus branch for ``K >= k_P``, have
    ``z = K**2 - w`` in ``[0, K**2]``; below the light-cone crossing the plus
    branch has ``z`` in ``[-z_plus0, 0]``, tested before the solve.  Every
    branch is defined where :func:`branch_constants` is, for ``Omega_P`` from
    ``1.5e-154`` to ``1e15`` (the plus branch through it), and where ``K**2``
    and the solved ``Omega**2`` are normal floats (or ``K`` is 0):
    :class:`DomainError` outside.
    """
    branch = _coerce_branch(kind)
    K = require_real("K", K, "non-negative")
    Omega_P = require_positive_finite("Omega_P", Omega_P)
    if Omega_P < _MIN_SURFACE_OMEGA_P:
        raise DomainError(
            f"Omega_P={Omega_P:g} is below {_MIN_SURFACE_OMEGA_P:g}: the branch "
            "functions underflow"
        )
    target = K * K
    if K > 0.0 and target < _MIN_NORMAL:
        raise DomainError(f"K={K!r} is so small that K**2 is not a normal float")
    z_min = w_lo = 0.0
    if branch is CoupledBranch.PLUS:
        z_plus0 = branch_constants(Omega_P).z_plus0
        if target < _plus_g_squared_at_zero(Omega_P):
            z_min, w_lo = -z_plus0, target
            if _g_squared(branch, z_min, Omega_P) - z_plus0 - target >= 0.0:
                # K is so small that the root sits within the endpoint's own
                # root-finding residual; the endpoint is the answer.
                return math.sqrt(target + z_plus0)
    elif target == 0.0:
        return 0.0

    # The bracket lies inside the domain of f, so the solve skips its gate;
    # the clamp keeps K**2 - w from rounding below the plus-branch endpoint.
    scale = target - z_min

    def objective(v: float) -> float:
        return _g_squared(branch, max(target - scale * v, z_min), Omega_P) / scale - v

    w = scale * find_root_bracketed(objective, w_lo / scale, 1.0)
    if w < _MIN_NORMAL:
        raise DomainError(
            f"Omega**2={w!r} at K={K!r}, Omega_P={Omega_P:g} is not a normal float"
        )
    return math.sqrt(w)


# The phase formula is written once and evaluated with one of two function
# sets: numpy's for the bracket scan over an array of Q, libm's (through
# math) for Brent's scalar iterates.  numpy's arcsin and arctan2 differ from
# libm's in the last bit for a few per cent of arguments, and Brent's iterates
# follow those bits, so the root is refined with the functions it always was.
_ARRAY_OPS = (np.arcsin, np.arctan2, np.sqrt, np.minimum, np.maximum)
_SCALAR_OPS = (math.asin, math.atan2, math.sqrt, min, max)


def _phase_defect(
    pol: Polarization, m: int, K: float, Omega_P: float, ops: tuple
) -> Callable:
    """Round-trip phase defect ``Q + shift(Q) - pi*m`` as a function of ``Q``.

    ``shift`` is twice the single-mirror reflection phase; ``ops`` is
    ``_ARRAY_OPS`` (where ``K`` may be a column against a row of ``Q``) or
    ``_SCALAR_OPS``.  The TM phase ``atan2(sqrt(Omega_P^2 - Q^2), -eps*Q)``,
    ``eps = 1 - Omega_P^2/(K^2 + Q^2)``, is taken with both arguments
    multiplied by ``(K^2 + Q^2)/Omega_P^3``, i.e. in ``k = K/Omega_P`` and
    ``q = Q/Omega_P``: one form for every ``Omega_P``, in which no square
    overflows and one that underflows is negligible beside the terms it
    meets.  ``k`` is capped at 1e150, far beyond where it can move the phase,
    and ``Q``, which can lie far below an ulp of ``pi*m``, is added last.  At
    ``Q = Omega_P`` and ``K = 0`` the second argument is ``-0.0``, so the
    phase is pi there: the cut-off.
    """
    asin, atan2, sqrt, minimum, maximum = ops
    pi_m = math.pi * m
    if pol is Polarization.TE:

        def defect(Q):
            return Q + 2.0 * asin(minimum(Q / Omega_P, 1.0)) - pi_m

        return defect

    # The cap is applied to K, so that K/Omega_P cannot overflow either.
    k = minimum(K, 1e150 * Omega_P) / Omega_P
    k_sq = k * k

    def defect(Q):
        q = Q / Omega_P
        rho_sq = k_sq + q * q
        transverse_decay = rho_sq * sqrt(maximum((1.0 - q) * (1.0 + q), 0.0))
        return Q + (2.0 * atan2(transverse_decay, -(q * (rho_sq - 1.0))) - pi_m)

    return defect


@lru_cache(maxsize=8)
def _scan_grid(q_hi: float) -> np.ndarray:
    """The read-only bracket-scan grid of :func:`photonic_mode` below ``q_hi``."""
    grid = np.geomspace(q_hi * 1e-8, q_hi, 200)
    grid.flags.writeable = False
    return grid


def _photonic_branch(
    pol: Polarization, m: int, Ks: Sequence[float], Omega_P: float
) -> List[Optional[float]]:
    """:func:`photonic_mode` at each of ``Ks``, or ``None`` where it has no mode."""
    pi_m = math.pi * m
    q_hi = min(pi_m, Omega_P) * (1.0 - 1e-12)
    if q_hi * 1e-8 == 0.0:
        raise DomainError(
            f"Omega_P={Omega_P!r} is too small for the bracket scan, whose "
            "first point q_hi*1e-8 underflows to 0"
        )
    grid = _scan_grid(q_hi)
    te = pol is Polarization.TE
    # The TE defect has no K in it: one scan and one root serve every K.
    scan_ks = np.zeros((1, 1)) if te else np.asarray(Ks, dtype=float)[:, np.newaxis]
    rows = 8192 // grid.size  # K per block of the 2-D scan: at most 8192 nodes
    roots: List[Optional[float]] = []
    for start in range(0, len(scan_ks), rows):
        block = scan_ks[start : start + rows]
        values = _phase_defect(pol, m, block, Omega_P, _ARRAY_OPS)(grid[np.newaxis])
        negative = values < 0.0
        cells = (values[:, :-1] == 0.0) | (negative[:, :-1] != negative[:, 1:])
        for K, row, row_cells in zip(block[:, 0].tolist(), values, cells):
            defect = _phase_defect(pol, m, K, Omega_P, _SCALAR_OPS)
            hits = np.flatnonzero(row_cells)
            i = hits[0] if hits.size else grid.size - 1
            if row[i] == 0.0:
                roots.append(float(grid[i]))
            elif hits.size:
                roots.append(find_root_bracketed(defect, *grid[i : i + 2].tolist()))
            elif row[i] < 0.0 and (
                pi_m < Omega_P
                or (Omega_P - math.pi * (m - 1) if te else defect(Omega_P)) > 0.0
            ):
                # The root lies above q_hi: near pi*m for a nearly ideal
                # mirror, or near Omega_P just above a cut-off, where a defect
                # of exactly 0 at Omega_P is the cut-off itself.  The TE defect
                # there is Omega_P - pi*(m - 1), which libm rounds to 0 for
                # m = 1 below Omega_P ~ 2.2e-16.
                roots.append(find_root_bracketed(defect, q_hi, min(pi_m, Omega_P)))
            else:
                roots.append(None)
    roots *= len(Ks) if te else 1
    return [None if Q is None else math.hypot(K, Q) for K, Q in zip(Ks, roots)]


def photonic_mode(
    pol: Union[Polarization, str],
    m: int,
    K: float,
    Omega_P: float,
) -> float:
    """Frequency of the ``m``-th propagative cavity resonance at wavevector ``K``.

    Solves the round-trip phase condition: with ``Q = sqrt(Omega^2 - K^2)``
    the longitudinal phase, ``Q`` plus the single-mirror reflection phase must
    equal ``pi * m``.  Solutions live in ``0 < Q < min(pi*m, Omega_P)`` and
    approach the ideal-cavity value ``sqrt(K^2 + (pi*m)^2)`` as
    ``Omega_P -> inf``.  The TE phase has no ``K`` in it, so a TE mode is
    ``hypot(K, Q_m)`` with one ``Q_m`` per ``(m, Omega_P)``, and exists for
    every ``K`` or none.  The first sign change of the phase defect on a
    200-point geometric grid up to ``q_hi = min(pi*m, Omega_P)*(1 - 1e-12)``
    brackets the root.  When the defect is still negative at ``q_hi``, the
    cell ``[q_hi, min(pi*m, Omega_P)]`` closes the scan if ``pi*m < Omega_P``
    or the defect at ``Omega_P`` is strictly positive.  Raises
    :class:`NoSolution` when the branch does not exist at this ``(K, m)``,
    and :class:`DomainError` below ``Omega_P`` of about ``5e-316``, where the
    grid's first point underflows.
    """
    pol = _coerce_polarization(pol)
    m = _integer_in("m", m, 1)
    K = require_real("K", K, "non-negative")
    Omega_P = require_positive_finite("Omega_P", Omega_P)
    (Omega,) = _photonic_branch(pol, m, [K], Omega_P)
    if Omega is None:
        raise NoSolution(
            f"no propagative cavity mode for pol={pol.value}, m={m}, K={K:g}, "
            f"Omega_P={Omega_P:g}"
        )
    return Omega


def default_dispersion_grid(Omega_P: float, points: int = 400) -> np.ndarray:
    """Log-spaced wavevector grid covering the interesting branch structure."""
    Omega_P = require_positive_finite("Omega_P", Omega_P)
    points = _integer_in("points", points, 2, _MAX_GRID_POINTS)
    return np.geomspace(1e-3, 10.0 * max(1.0, Omega_P), points)


def _check_continuity(
    branch: BranchId, points: Sequence[DispersionPoint], Omega_P: float
) -> None:
    for left, right in zip(points, points[1:]):
        spacing = right.K - left.K
        jump = abs(right.Omega - left.Omega)
        allowance = 4.0 * spacing + 1e-9 * (1.0 + max(left.Omega, right.Omega))
        if jump > allowance:
            raise ConvergenceFailure(
                f"branch {branch.kind.value} is discontinuous between "
                f"K={left.K:g} and K={right.K:g} at Omega_P={Omega_P:g} "
                f"(jump {jump:.3e} exceeds {allowance:.3e})"
            )


def sample_dispersion(
    Omega_P: float,
    K_grid: Iterable[float],
    branches: Iterable[BranchId],
) -> List[Tuple[BranchId, Tuple[DispersionPoint, ...]]]:
    """Sample the requested branches over an ascending wavevector grid.

    Sector tags come from :func:`casimir_plasmons.optics.classify`, so the
    plus branch carries its propagative-to-evanescent transition at
    ``K = k_P``.  A photonic branch takes :func:`photonic_mode`'s values,
    solved once per branch: one root for TE, one bracket scan over all of
    ``K_grid`` for TM.  Wavevectors where it has no solution are skipped.
    Adjacent samples are checked for grid-commensurate continuity.
    """
    Omega_P = require_positive_finite("Omega_P", Omega_P)
    grid = [require_real("K_grid entries", K, "non-negative") for K in K_grid]
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise DomainError("K_grid must be sorted in ascending order")
    result: List[Tuple[BranchId, Tuple[DispersionPoint, ...]]] = []
    for branch in branches:
        if branch.kind is BranchKind.PHOTONIC:
            omegas = _photonic_branch(branch.pol, branch.m, grid, Omega_P)
        elif branch.kind is BranchKind.PLASMONIC_PLUS:
            omegas = [invert_branch(CoupledBranch.PLUS, K, Omega_P) for K in grid]
        elif branch.kind is BranchKind.PLASMONIC_MINUS:
            omegas = [invert_branch(CoupledBranch.MINUS, K, Omega_P) for K in grid]
        else:
            omegas = [omega0(K, Omega_P) for K in grid]
        points = [
            DispersionPoint(K=K, Omega=Omega)
            for K, Omega in zip(grid, omegas)
            if Omega is not None
        ]
        _check_continuity(branch, points, Omega_P)
        result.append((branch, tuple(points)))
    return result
