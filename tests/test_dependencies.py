"""The runtime dependencies: what importing the package loads, and what it declares.

Importing the package and its command-line interface must load only numpy
and the standard library (scipy alone used to cost more than any command's
work), and the third-party modules the sources import must be exactly the
runtime ``dependencies`` that ``pyproject.toml`` declares.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "casimir_plasmons"


def test_import_loads_no_scipy() -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = (
        "import sys, casimir_plasmons, casimir_plasmons.cli; "
        "print(sorted(name for name in sys.modules if name.startswith('scipy')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_import_fills_no_cache() -> None:
    # Import does no numerical work: every lru_cache of the package is still
    # empty once the package and its command-line interface are imported.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = (
        "import sys, casimir_plasmons, casimir_plasmons.cli\n"
        "caches = {}\n"
        "for name, module in list(sys.modules.items()):\n"
        "    if name.startswith('casimir_plasmons.'):\n"
        "        for attribute, value in vars(module).items():\n"
        "            if hasattr(value, 'cache_info') and value.__module__ == name:\n"
        "                caches[attribute] = value.cache_info().currsize\n"
        "print(sorted(caches.items()))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    caches = dict(ast.literal_eval(result.stdout.strip()))
    named = {"_de_nodes", "_de_layout", "_de_strip", "_quadrant_level",
             "_branch_constants_cached", "_scan_grid"}
    assert named <= set(caches)
    assert {name: size for name, size in caches.items() if size} == {}


def _third_party_imports() -> set:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names.add(node.module.split(".")[0])
    return {
        name
        for name in names
        if name not in sys.stdlib_module_names and name not in ("__future__", PACKAGE.name)
    }


def test_source_imports_match_declared_dependencies() -> None:
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as handle:
        declared = tomllib.load(handle)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower() for spec in declared}
    assert _third_party_imports() == names
