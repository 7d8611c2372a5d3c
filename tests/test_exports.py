"""Every exported name resolves.

``__all__`` is a list of strings, so a deleted or renamed function leaves a
stale entry that only ``from casimir_plasmons import *`` would trip over.
"""

from __future__ import annotations

import importlib
import pkgutil

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
