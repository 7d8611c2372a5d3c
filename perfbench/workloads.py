"""The three seeded workloads: inputs, one op each, and its checks.

All three draw ``Omega_P`` log-uniform on ``[1e-8, 1e5]``: the ROADMAP
targets from ``1e-8`` up to the ``1e5`` fit window, including the bands
where the seed code fails or returns wrong values.  The draws form a
Kronecker sequence ``x_i = frac(u_0 + i/phi)`` with a seeded start ``u_0``:
each draw is log-uniform, and every prefix of the sequence spreads evenly
over the range, so a run that stops on time covers the same mix of cheap,
costly and defective points whatever the seed.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator, List

from casimir_plasmons import cli, decomposition
from casimir_plasmons.errors import CasimirModelError

import oracles

LOG10_RANGE = (-8.0, 5.0)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Small enough that a run re-times each op about 15 times; large enough
# that photonic_mode's bracket scan stays about 90% of the op.
DISPERSION_POINTS = 8
DISPERSION_MAX_M = 3


def omegas(seed: int) -> Iterator[float]:
    """Endless seeded sequence of ``Omega_P`` values."""
    lo, hi = LOG10_RANGE
    x = random.Random(seed).random()
    while True:
        x = (x + _GOLDEN) % 1.0
        yield 10.0 ** (lo + (hi - lo) * x)


@dataclass
class Outcome:
    """What one op gave: a value to check, or a typed or untyped failure."""

    value: object = None
    error: str = ""  # "Type: message" of a typed failure or nonzero exit
    untyped: str = ""  # "Type: message" of an exception outside the hierarchy


def _call(fn: Callable[[], object]) -> Outcome:
    try:
        return Outcome(value=fn())
    except CasimirModelError as exc:
        return Outcome(error=f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # an untyped exception is a wrong result
        return Outcome(untyped=f"{type(exc).__name__}: {exc}")


class Workload:
    """One op per ``Omega_P``; ``run`` is timed, ``check`` is not."""

    name = ""

    def setup(self, workdir: str) -> None:
        """Prepare per-process state (a working directory for output files)."""

    def run(self, Omega_P: float) -> Outcome:
        raise NotImplementedError

    def finish(self, outcome: Outcome) -> int:
        """Collect what ``run`` left behind, untimed; return the bytes written."""
        return 0

    def check(self, Omega_P: float, value) -> List[oracles.Violation]:
        raise NotImplementedError


class BreakdownScan(Workload):
    """``compute_eta_breakdown``: eta_total's nested quadrature dominates."""

    name = "breakdown_scan"

    def run(self, Omega_P: float) -> Outcome:
        return _call(lambda: decomposition.compute_eta_breakdown(Omega_P))

    def check(self, Omega_P: float, value) -> List[oracles.Violation]:
        return oracles.check_breakdown(Omega_P, value)


class SurfaceModes(Workload):
    """``eta_plasmonic`` plus ``eta_evanescent``: closed forms, no lifshitz."""

    name = "surface_modes"

    def run(self, Omega_P: float) -> Outcome:
        return _call(
            lambda: (
                decomposition.eta_plasmonic(Omega_P),
                decomposition.eta_evanescent(Omega_P),
            )
        )

    def check(self, Omega_P: float, value) -> List[oracles.Violation]:
        identity = _call(lambda: decomposition.propagative_part_identity(Omega_P))
        if identity.value is None:
            return [("identity", f"oracle raised {identity.error or identity.untyped}")]
        return oracles.check_surface(Omega_P, value[0], value[1], identity.value[1])


class Dispersion(Workload):
    """``casimir-plasmons dispersion`` in-process, CSV to a file."""

    name = "dispersion"

    def setup(self, workdir: str) -> None:
        self.path = os.path.join(workdir, "dispersion.csv")

    def run(self, Omega_P: float) -> Outcome:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.path)
        argv = [
            "dispersion",
            "--omega-p-l", repr(Omega_P),
            "--points", str(DISPERSION_POINTS),
            "--max-photonic-m", str(DISPERSION_MAX_M),
            "--output", self.path,
        ]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            outcome = _call(lambda: cli.main(argv))
        if outcome.value not in (None, 0):
            return Outcome(error=f"exit {outcome.value}: {stderr.getvalue().strip()}")
        return outcome

    def finish(self, outcome: Outcome) -> int:
        if outcome.value != 0:
            return 0
        with open(self.path, "rb") as handle:
            data = handle.read()
        outcome.value = data.decode("utf-8")
        return len(data)

    def check(self, Omega_P: float, value) -> List[oracles.Violation]:
        return oracles.check_dispersion(Omega_P, DISPERSION_POINTS, value)


WORKLOADS = {w.name: w for w in (BreakdownScan, SurfaceModes, Dispersion)}

# Wrong results the seed code is known to give, as (quantity, Omega_P band).
# They are counted in wrong_frac and in "failed"; they do not clear
# "correct", which flags wrong results anywhere else.
KNOWN_WRONG = {
    # eta_total is 0.2% low below about 2.5e-5, with an error estimate of 5.6e-7.
    "breakdown_scan": [("eta_total", 0.0, 3e-5)],
    # Below about 1e-5, K**2 - z* cancels and the plus and minus branches
    # print Omega = 0, under the reference branch.
    "dispersion": [("ordering", 0.0, 3e-5)],
}


def is_known_wrong(workload: str, Omega_P: float, violations) -> bool:
    bands = KNOWN_WRONG.get(workload, [])
    return all(
        any(q == name and lo <= Omega_P <= hi for q, lo, hi in bands)
        for name, _ in violations
    )
