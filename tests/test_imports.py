"""The package's only runtime dependency is numpy, and no module, of the
package or of its tests, imports a name it never reads."""

import ast
import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
SOURCES = sorted((TESTS_DIR.parent / "src" / "botclf").glob("*.py"))
TESTS = sorted(TESTS_DIR.glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_only_numpy_and_the_standard_library(path):
    outside = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [f"{name} (line {node.lineno})" for name in names
                    if name.split(".")[0] not in ALLOWED]
    assert not outside, f"{path.name} imports {', '.join(outside)}"


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=[p.name for p in SOURCES]
                         + [f"tests/{p.name}" for p in TESTS])
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":  # `from __future__ import annotations`
                    imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    unused = [f"{name} (line {line})" for name, line in imported.items() if name not in read]
    assert not unused, f"{path.name} never reads {', '.join(unused)}"


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "network.py", "training.py"}
    assert {p.name for p in TESTS} >= {"oracles.py", "test_cli.py", "test_imports.py"}
