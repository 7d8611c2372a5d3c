"""The demos import only public names.

The test suite does not run ``demos/``, so a name removed from the package would
break a demo without failing any test.  This parses each demo and checks
that every name it imports from ``casimir_plasmons`` (or one of its
modules) is in that module's ``__all__``.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found() -> None:
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_imports_are_public(demo: Path) -> None:
    tree = ast.parse(demo.read_text(), filename=str(demo))
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "casimir_plasmons"
        for alias in node.names
    ]
    assert imports
    private = [
        f"{module}.{name}"
        for module, name in imports
        if name not in importlib.import_module(module).__all__
    ]
    assert not private
