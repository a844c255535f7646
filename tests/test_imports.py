"""Every import and every private module-level name in the package modules
and in the test oracles is used (stdlib ast; no linter needed).

``__init__.py`` is skipped: its imports are re-exports. ``__future__``
imports are directives, not names. A private name is a module-level
constant, function or class whose name starts with one underscore; it must
be read somewhere in its own module, because nothing outside should rely on it.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gaugekit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
MODULES.append(Path(__file__).resolve().parent / "oracles.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _unread_private_names(source: str) -> list:
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in defined.items()
                  if name.startswith("_") and not name.startswith("__") and name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert _unread_private_names(path.read_text()) == []


def test_detector_flags_an_unread_private_name():
    source = ("_USED = 1\n_ORPHAN = dict(limit=2)\n__all__ = []\nPUBLIC = 3\n"
              "def _helper():\n    return _USED\n"
              "def _dead():\n    _local = 1\n    return 0\n"
              "def run():\n    return _helper()\n")
    assert _unread_private_names(source) == [(2, "_ORPHAN"), (7, "_dead")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_detector_flags_an_unused_import():
    source = "from __future__ import annotations\nimport json\nimport numpy as np\nnp.zeros(1)\n"
    assert _unused_imports(source) == [(2, "json")]
