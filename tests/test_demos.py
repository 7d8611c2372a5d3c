"""The demos run, and import only public names.

Each demo runs to completion in a subprocess with ``src`` on its path, so an
attribute or name removed from the package fails here rather than in front
of a reader.  Each is also parsed to check that every name it imports from
``casimir_plasmons`` (or one of its modules) is in that module's ``__all__``.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, str(demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
