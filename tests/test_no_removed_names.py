"""Each operation takes plain arguments and returns plain values: no request
bundle (`MARequest`), no copy of `MetricVerdict` (`KatetovVerdict`), no
wrapper around a bare matrix (`WeakSeminorm`), none of the one-line
pass-throughs that only tests called, and no `space` parameter beside a
value that already carries its space."""

import ast
import inspect
from pathlib import Path

import mslab
from mslab import extend_by_katetov, gromov_approximant, gromov_net_indices

SOURCES = sorted(Path(mslab.__file__).parent.glob("*.py"))
REMOVED = {
    "MARequest", "KatetovVerdict", "WeakSeminorm", "same_value", "power_sum", "add2d", "landmark_gap",
    "validate_pseudometric", "_INT64_SAFE", "_int64_matrix", "validate_scaled", "_rescale", "_by_columns", "_amalgam",
    "_Realizations", "_profile_walk", "_keep_when_read",
}


def defined_names(tree: ast.Module):
    """(enclosing class or None, name) for every class, function and
    assignment target in the module, methods included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, item.name
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield None, name.id


def test_no_removed_name_is_defined():
    found = [
        f"{path.name}: {owner + '.' if owner else ''}{name}"
        for path in SOURCES
        for owner, name in defined_names(ast.parse(path.read_text(encoding="utf-8")))
        if name in REMOVED or (owner, name) == ("BasisCode", "value")
    ]
    assert SOURCES and not found, found


def test_no_space_beside_a_value_that_carries_it():
    for fn in (extend_by_katetov, gromov_net_indices, gromov_approximant):
        assert "space" not in inspect.signature(fn).parameters, fn.__name__
