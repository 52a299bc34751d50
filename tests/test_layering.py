"""No module of the package reaches into another's private names.

A name with a leading underscore is private to its module; a module that
needs another's helper calls a documented function instead.  Tests may still
import private names.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orientseq"


def private_imports(path: Path) -> list[str]:
    """Each `from .<module> import _<name>` (or from orientseq.<module>) in path."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("orientseq"):
            continue
        found += [f"{node.lineno}: {a.name}" for a in node.names if a.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name(path):
    assert private_imports(path) == []


def test_the_check_sees_a_private_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from .verifier import _dense, read_windows\nfrom os import _exit\n")
    assert private_imports(path) == ["1: _dense"]
