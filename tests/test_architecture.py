"""The group action has exactly two entry points in the library.

Finite groups act through `groups.apply_element`, the only caller of
`Polynomial.apply_linear_map`; algebraic groups act through
`algebraic.action_graph_generators`, the only reader of an entry of the
action matrix.  Every other action is derived from these two.
"""

import ast
from pathlib import Path

import invar

SOURCES = sorted(Path(invar.__file__).parent.glob("*.py"))


def _sites(matches):
    """(module, enclosing function) of every syntax node that matches."""
    found = set()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if matches(node):
            found.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in SOURCES:
        visit(ast.parse(path.read_text()), path.stem, None)
    return found


def test_apply_linear_map_is_called_only_by_apply_element():
    def is_call(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "apply_linear_map")

    assert _sites(is_call) == {("groups", "apply_element")}


def test_action_matrix_is_indexed_only_by_the_graph_generators():
    def is_index(node):
        return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "action_matrix")

    assert _sites(is_index) == {("algebraic", "action_graph_generators")}
