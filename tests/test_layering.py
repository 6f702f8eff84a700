"""The package's modules import one another as a DAG, all at module level."""
import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "seqweak"
MODULES = {path.stem: path for path in sorted(PACKAGE.glob("*.py"))}


def relative_imports(path):
    """The package modules that ``path`` imports with a relative import, and
    the line numbers of those that sit inside a function."""
    imported, in_functions = set(), []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                if in_function:
                    in_functions.append(child.lineno)
                if child.module:
                    imported.add(child.module.split(".")[0])
                else:  # from . import a, b
                    imported.update(alias.name for alias in child.names)
            visit(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(ast.parse(path.read_text(), filename=str(path)), False)
    return imported & MODULES.keys(), in_functions


def test_package_modules_are_found():
    assert {"algebra", "circuitmodel", "cli", "counterfactual", "oracle"} <= MODULES.keys()


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_relative_import_inside_a_function(name):
    _, in_functions = relative_imports(MODULES[name])
    assert in_functions == [], f"{name}.py imports from the package at lines {in_functions}"


def test_import_graph_has_no_cycle():
    graph = {name: relative_imports(path)[0] for name, path in MODULES.items()}
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
    assert order.index("circuitmodel") < order.index("weakvalue") < order.index("pointer")
