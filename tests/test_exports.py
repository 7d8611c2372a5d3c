"""Every exported name resolves, and every error type is raised somewhere.

``__all__`` is a list of strings, so a deleted or renamed function leaves a
stale entry that only ``from casimir_plasmons import *`` would trip over.
Likewise an error type outlives the last ``raise`` of it unnoticed.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import casimir_plasmons

MODULES = sorted(
    f"casimir_plasmons.{info.name}" for info in pkgutil.iter_modules(casimir_plasmons.__path__)
)


def test_modules_are_found() -> None:
    assert "casimir_plasmons.numerics" in MODULES


@pytest.mark.parametrize("name", ["casimir_plasmons"] + MODULES)
def test_every_exported_name_resolves(name: str) -> None:
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [entry for entry in exported if not hasattr(module, entry)] == []


def test_package_exports_each_name_once() -> None:
    exported = casimir_plasmons.__all__
    assert len(exported) == len(set(exported))


def _error_types(tree: ast.Module) -> set:
    """Classes of ``tree`` that derive, directly or not, from CasimirModelError."""
    found = {"CasimirModelError"}
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    for node in classes:  # errors.py defines each base before its subclasses
        if any(isinstance(base, ast.Name) and base.id in found for base in node.bases):
            found.add(node.name)
    return found - {"CasimirModelError"}


def _raised_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Attribute):
                names.add(target.attr)
    return names


def test_every_error_type_is_raised() -> None:
    package = Path(casimir_plasmons.__file__).parent
    error_types = _error_types(ast.parse((package / "errors.py").read_text()))
    assert "DomainError" in error_types
    raised = set()
    for path in package.glob("*.py"):
        raised |= _raised_names(ast.parse(path.read_text(), filename=str(path)))
    assert sorted(error_types - raised) == []
