"""No package code reads the Fraction view `.d` of a space: the package
works on the integer grid, and even the JSON writer formats from it."""

import ast
from pathlib import Path

import mslab

SOURCES = sorted(Path(mslab.__file__).parent.glob("*.py"))


def test_package_reads_no_fraction_view():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "d" and isinstance(node.ctx, ast.Load)
    ]
    assert SOURCES and not found, found
