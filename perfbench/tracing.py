"""Traced run: wrappers around the calls between the library's modules.

The wrappers live here, in the benchmark, and are installed by assigning to
the module attributes the library calls through.  The modules import each
other with ``from .x import f``, so a function is wrapped in every namespace
that consumes it, not only where it is defined.

Boundaries that run a handful of times per op become spans: name, start,
end, parent span and the op id they belong to.  Hot kernels (about 1e5
reflection calls and thousands of quadratures per op) only bump counters,
so the trace stays small and its overhead stays low.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from casimir_plasmons import cli, decomposition, lifshitz, modes, numerics
from casimir_plasmons.errors import NoSolution

_clock = time.perf_counter


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.op_id: Optional[int] = None
        # [op_id, name, parent index, start, end, error type or None]
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(int)
        self._open: List[int] = []
        self._quad_depth = 0
        self._undo: List[tuple] = []

    # -- spans --------------------------------------------------------------

    def span(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call records a span called ``name``."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            record = [self.op_id, name, parent, _clock(), None, None]
            self.spans.append(record)
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                record[5] = type(exc).__name__
                raise
            finally:
                record[4] = _clock()
                self._open.pop()

        return traced

    # -- counters -----------------------------------------------------------

    def _reflection(self, fn: Callable) -> Callable:
        counts = self.counts

        def traced(pol, K, Xi, Omega_P):
            start = _clock()
            value = fn(pol, K, Xi, Omega_P)
            counts["optics.reflection_sq_imag_axis.self_s"] += _clock() - start
            counts["optics.reflection_sq_imag_axis.calls"] += 1
            return value

        return traced

    def _quad(self, fn: Callable) -> Callable:
        counts = self.counts

        def traced(*args, **kwargs):
            self._quad_depth += 1
            start = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._quad_depth -= 1
            if self._quad_depth == 0:
                # Only outermost quadratures: nested ones are inside that time.
                counts["numerics.quad.s"] += _clock() - start
            counts["numerics.quad.calls"] += 1
            info = out[2]
            counts["numerics.quad.neval"] += info["neval"]
            counts["numerics.quad.subdivisions"] += info["last"]
            if len(out) > 3:
                counts["numerics.quad.failed"] += 1
            return out

        return traced

    def _brentq(self, fn: Callable) -> Callable:
        counts = self.counts

        def traced(*args, **kwargs):
            root, info = fn(*args, **kwargs)
            counts["numerics.brentq.calls"] += 1
            counts["numerics.brentq.iterations"] += info.iterations
            counts["numerics.brentq.fcalls"] += info.function_calls
            return root, info

        return traced

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def traced(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return traced

    # -- installation -------------------------------------------------------

    def _patch(self, module, attr: str, wrapper: Callable) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        """Put the wrappers into every namespace that calls across a boundary."""
        self._patch(
            lifshitz,
            "reflection_sq_imag_axis",
            self._reflection(lifshitz.reflection_sq_imag_axis),
        )
        self._patch(numerics, "quad", self._quad(numerics.quad))
        self._patch(numerics, "brentq", self._brentq(numerics.brentq))
        self._patch(
            decomposition,
            "_eta_total_detailed",
            self.span("lifshitz.eta_total", decomposition._eta_total_detailed),
        )
        self._patch(
            decomposition,
            "_eta_plasmonic_detailed",
            self.span(
                "decomposition.eta_plasmonic",
                decomposition._eta_plasmonic_detailed,
            ),
        )
        self._patch(
            decomposition,
            "_eta_evanescent_detailed",
            self.span(
                "decomposition.eta_evanescent",
                decomposition._eta_evanescent_detailed,
            ),
        )
        self._patch(
            decomposition,
            "g_branch_combination",
            self._count(
                "modes.g_branch_combination.calls",
                decomposition.g_branch_combination,
            ),
        )
        for module in (modes, decomposition):
            self._patch(
                module,
                "branch_constants",
                self._count("modes.branch_constants.calls", modes.branch_constants),
            )
            self._patch(
                module,
                "invert_branch",
                self.span("modes.invert_branch", modes.invert_branch),
            )
        self._patch(
            modes, "photonic_mode", self.span("modes.photonic_mode", modes.photonic_mode)
        )
        # The benchmark's own entry calls go through these two attributes.
        self._patch(
            decomposition,
            "compute_eta_breakdown",
            self.span(
                "decomposition.compute_eta_breakdown",
                decomposition.compute_eta_breakdown,
            ),
        )
        self._patch(cli, "main", self.span("cli.main", cli.main))
        self._patch(
            cli,
            "compute_eta_breakdown",
            self.span(
                "decomposition.compute_eta_breakdown", cli.compute_eta_breakdown
            ),
        )
        self._patch(
            cli,
            "sample_dispersion",
            self.span("modes.sample_dispersion", cli.sample_dispersion),
        )

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    # -- summary ------------------------------------------------------------

    def span_seconds(self, name: str) -> float:
        return sum(s[4] - s[3] for s in self.spans if s[1] == name)

    def span_count(self, name: str, error: Optional[str] = None) -> int:
        return sum(
            1 for s in self.spans if s[1] == name and (error is None or s[5] == error)
        )

    def child_seconds(self, parent_name: str) -> float:
        """Time covered by the direct children of spans called ``parent_name``."""
        parents = {i for i, s in enumerate(self.spans) if s[1] == parent_name}
        return sum(s[4] - s[3] for s in self.spans if s[2] in parents)

    def per_layer(self) -> Dict[str, float]:
        """Per-layer metrics of this pass, named ``<module>.<function>.<stat>``."""
        c = self.counts
        quad_calls = c["numerics.quad.calls"]
        photonic_calls = self.span_count("modes.photonic_mode")
        nosolution = self.span_count("modes.photonic_mode", NoSolution.__name__)
        cli_s = self.span_seconds("cli.main")
        return {
            "optics.reflection_sq_imag_axis.calls": c["optics.reflection_sq_imag_axis.calls"],
            "optics.reflection_sq_imag_axis.self_s": c["optics.reflection_sq_imag_axis.self_s"],
            "lifshitz.eta_total.calls": self.span_count("lifshitz.eta_total"),
            "lifshitz.eta_total.s": self.span_seconds("lifshitz.eta_total"),
            "numerics.quad.calls": quad_calls,
            "numerics.quad.neval": c["numerics.quad.neval"],
            "numerics.quad.subdivisions": c["numerics.quad.subdivisions"],
            "numerics.quad.s": c["numerics.quad.s"],
            "numerics.quad.fail_frac": (
                c["numerics.quad.failed"] / quad_calls if quad_calls else 0.0
            ),
            "decomposition.compute_eta_breakdown.s": self.span_seconds(
                "decomposition.compute_eta_breakdown"
            ),
            "decomposition.eta_plasmonic.s": self.span_seconds("decomposition.eta_plasmonic"),
            "decomposition.eta_evanescent.s": self.span_seconds(
                "decomposition.eta_evanescent"
            ),
            "modes.g_branch_combination.calls": c["modes.g_branch_combination.calls"],
            "modes.branch_constants.calls": c["modes.branch_constants.calls"],
            "modes.sample_dispersion.s": self.span_seconds("modes.sample_dispersion"),
            "modes.photonic_mode.calls": photonic_calls,
            "modes.photonic_mode.s": self.span_seconds("modes.photonic_mode"),
            "modes.photonic_mode.nosolution_frac": (
                nosolution / photonic_calls if photonic_calls else 0.0
            ),
            "modes.invert_branch.calls": self.span_count("modes.invert_branch"),
            "modes.invert_branch.s": self.span_seconds("modes.invert_branch"),
            "numerics.brentq.calls": c["numerics.brentq.calls"],
            "numerics.brentq.iterations": c["numerics.brentq.iterations"],
            "numerics.brentq.fcalls": c["numerics.brentq.fcalls"],
            "cli.main.s": cli_s,
            "cli.self_s": cli_s - self.child_seconds("cli.main"),
        }
