"""No package function takes an option that no caller sets: a float
tolerance `tol` (the two comparisons still made in floats read the
constants `banach.HILBERT_TOL` and `banach.DISJOINT_TOL`), the
`basis_refinement_check` modes `sample_codes` and `require_intersection`,
the sampler bounds `max_pieces` and `denom_bound` (now the constants
`banach.STEP_MAX_PIECES`, `banach.STEP_DENOM_BOUND` and
`randgen.PARTS_DENOM_BOUND`), `random_metric_space`'s `min_diam_steps`,
whose floor of 2 grid steps no caller raised, or the injectivity check's
`factor`, which scaled its walk and lookup onto a finer grid: the check reads
a finer denominator on the approximant's own grid."""

import ast
from pathlib import Path

import mslab

SOURCES = sorted(Path(mslab.__file__).parent.glob("*.py"))
REMOVED = {"tol", "sample_codes", "require_intersection", "max_pieces", "denom_bound", "min_diam_steps", "factor"}


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
