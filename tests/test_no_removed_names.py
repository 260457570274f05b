"""Each operation takes plain arguments and returns plain values: no request
bundle (`MARequest`), no copy of `MetricVerdict` (`KatetovVerdict`), no
wrapper around a bare matrix (`WeakSeminorm`), none of the one-line
pass-throughs that only tests called, and no `space` parameter beside a
value that already carries its space. Every public name and every error
class has a caller in the package or in the benchmark, not only in tests."""

import ast
import inspect
from pathlib import Path

import mslab
from mslab import extend_by_katetov, gromov_net_indices

SOURCES = sorted(Path(mslab.__file__).parent.glob("*.py"))
BENCH = sorted((Path(__file__).resolve().parent.parent / "bench").glob("*.py"))
REMOVED = {
    "MARequest", "KatetovVerdict", "WeakSeminorm", "same_value", "power_sum", "add2d", "landmark_gap",
    "validate_pseudometric", "_INT64_SAFE", "_int64_matrix", "validate_scaled", "_rescale", "_by_columns", "_amalgam",
    "_Realizations", "_profile_walk", "_keep_when_read", "amalgamate", "PartialIsometry", "EmptyGlueError",
    "gromov_approximant", "ProfileCheck", "AgreementVerdict",
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
    for fn in (extend_by_katetov, gromov_net_indices):
        assert "space" not in inspect.signature(fn).parameters, fn.__name__


def used_names(path: Path) -> set[str]:
    """Every name the module uses, bare or as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def test_every_public_name_has_a_program_caller():
    def uncalled(names, home):
        called = set().union(*(used_names(path) for path in SOURCES + BENCH if path.name != home))
        return sorted(names - called)

    init = ast.parse((Path(mslab.__file__).parent / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.name for node in ast.walk(init) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    errors = ast.parse((Path(mslab.__file__).parent / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    assert BENCH and exported and classes
    assert uncalled(exported, "__init__.py") == []
    assert uncalled(classes, "errors.py") == []
