"""No module of the package reaches into another's private names.

A name with a leading underscore is private to its module; a module that
needs another's helper calls a documented function instead.  Tests may still
import private names.  So the verifier's window kernel, _window_values, is read
by the verifier alone: every other module gets its windows, tables and window
searches through the verifier's documented functions.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orientseq"


def package_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each `from .<module> import <name>` (or from orientseq.<module>)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("orientseq"):
            continue
        found += [(node.lineno, a.name) for a in node.names]
    return found


def private_imports(path: Path) -> list[str]:
    """Each private name path imports from the package, as 'line: name'."""
    return [f"{line}: {name}" for line, name in package_imports(path) if name.startswith("_")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name(path):
    assert private_imports(path) == []


def test_the_check_sees_a_private_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from .verifier import _dense, read_windows\nfrom os import _exit\n")
    assert private_imports(path) == ["1: _dense"]

