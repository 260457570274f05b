"""No package code reads the Fraction view `.d` of a space: the package
works on the integer grid, and only the JSON writer in `serialization.py`
turns a space back into Fractions."""

import ast
from pathlib import Path

import mslab

SOURCES = sorted(p for p in Path(mslab.__file__).parent.glob("*.py") if p.name != "serialization.py")


def test_package_reads_no_fraction_view():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "d" and isinstance(node.ctx, ast.Load)
    ]
    assert SOURCES and not found, found
