"""No `assert` statement in the package: `python -O` strips them, so every
contract check must raise instead."""

import ast
from pathlib import Path

import mslab

SOURCES = sorted(Path(mslab.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statement():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found
