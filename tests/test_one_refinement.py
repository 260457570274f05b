"""One way onto a finer grid: `metric.lift` refines an existing grid for
every caller, so `lcm` is called only there, in the conversion of an
arbitrary rational matrix (`metric._fraction_grid`) and in the JSON
reader (`serialization.space_from_dict`)."""

import ast
from pathlib import Path

import mslab

SOURCES = sorted(Path(mslab.__file__).parent.glob("*.py"))
ALLOWED = {"metric.lift", "metric._fraction_grid", "serialization.space_from_dict"}


def lcm_callers(path: Path) -> list[str]:
    """`module.function` (with the enclosing classes) of each lcm call."""
    found = []

    def walk(node: ast.AST, scope: tuple[str, ...]):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Name) and func.id == "lcm") or (
                    isinstance(func, ast.Attribute) and func.attr == "lcm"
                ):
                    found.append(".".join((path.stem, *scope)))
            walk(child, scope)

    walk(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_lcm_is_called_only_by_the_refinement_and_the_edge_conversions():
    callers = {caller for path in SOURCES for caller in lcm_callers(path)}
    assert sorted(callers - ALLOWED) == []
    assert "metric.lift" in callers
