"""No package function takes an option that no caller sets: a float
tolerance `tol` (the two comparisons still made in floats read the
constants `banach.HILBERT_TOL` and `banach.DISJOINT_TOL`), or the
`basis_refinement_check` modes `sample_codes` and `require_intersection`."""

import ast
from pathlib import Path

import mslab

SOURCES = sorted(Path(mslab.__file__).parent.glob("*.py"))
REMOVED = {"tol", "sample_codes", "require_intersection"}


def test_no_function_takes_a_removed_option():
    found = [
        f"{path.name}:{node.lineno} {node.name}({arg.arg})"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
        if arg.arg in REMOVED
    ]
    assert SOURCES and not found, found
