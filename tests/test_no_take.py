"""No package code calls `ndarray.take`: on a strided view, such as a
transposed block, it first copies its whole input into one contiguous
array, so a read of a few rows would copy the whole view. An approximant
holds no n x n matrix, and its reader indexes the rows it needs
(`start[idx]`)."""

import ast
from pathlib import Path

import mslab

SOURCES = sorted(Path(mslab.__file__).parent.glob("*.py"))


def test_package_calls_no_take():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "take"
    ]
    assert SOURCES and not found, found
