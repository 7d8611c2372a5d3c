"""The benchmark's traced run still finds every library name it wraps.

``perfbench/tracing.py`` installs its counters and spans by assigning to
module attributes, one ``self._patch(module, "name", wrapper)`` call each.
A renamed or moved function would fail only the traced benchmark run and the
benchmark's own tests.  This reads those calls with ``ast`` and checks that
each attribute they name still exists, and that the two results whose
fields the counters read keep their shapes.
"""

from __future__ import annotations

import ast
import importlib
import math
from pathlib import Path

import numpy as np

from casimir_plasmons import numerics

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _patched_attributes() -> list:
    """``(module name, attribute)`` for every ``_patch`` call in the tracer."""
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "casimir_plasmons":
            modules.update({alias.asname or alias.name: alias.name for alias in node.names})
    # ``for module in (modes, decomposition): self._patch(module, ...)``
    loops = {
        node.target.id: [modules[element.id] for element in node.iter.elts]
        for node in ast.walk(tree)
        if isinstance(node, ast.For)
        and isinstance(node.target, ast.Name)
        and isinstance(node.iter, ast.Tuple)
        and all(isinstance(e, ast.Name) and e.id in modules for e in node.iter.elts)
    }
    patched = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_patch":
            target, attribute = node.args[0].id, node.args[1].value
            names = [modules[target]] if target in modules else loops[target]
            patched.extend((name, attribute) for name in names)
    return patched


def test_every_patched_attribute_exists() -> None:
    patched = _patched_attributes()
    assert ("lifshitz", "reflection_sq_imag_axis") in patched
    assert len(patched) >= 15
    missing = [
        (name, attribute)
        for name, attribute in patched
        if not hasattr(importlib.import_module(f"casimir_plasmons.{name}"), attribute)
    ]
    assert missing == []


def test_counted_results_keep_their_shapes() -> None:
    # The brentq wrapper unpacks (root, info) from the positional call
    # brentq(f, a, b, xtol, rtol, maxiter) and adds info.iterations and
    # info.function_calls; the quad wrapper reads out[2]["neval"] and
    # out[2]["last"], and counts a failure by a fourth element.  out[2]["calls"]
    # counts the calls of the integrand.
    root, info = numerics.brentq(math.cos, 1.0, 2.0, 1e-12, 4.0 * 2.0**-52, 100)
    assert abs(root - math.pi / 2) < 1e-12
    assert isinstance(info.iterations, int) and isinstance(info.function_calls, int)
    assert info.function_calls >= info.iterations >= 1
    out = numerics.quad(np.exp, 0.0, 1.0, numerics.DEFAULT_QUADRATURE)
    assert len(out) == 3
    assert isinstance(out[2]["neval"], int) and out[2]["neval"] > 0
    assert isinstance(out[2]["last"], int) and out[2]["last"] >= 0
    assert isinstance(out[2]["calls"], int) and out[2]["calls"] >= 1
    unreachable = numerics.QuadratureSpec(rel_tol=1e-20)
    failed = numerics.quad(np.exp, 0.0, 1.0, unreachable)
    assert len(failed) == 4 and isinstance(failed[3], str) and failed[3]
