"""Checks on the package source itself."""

import ast
from pathlib import Path

import superbridge


def test_package_has_no_assert_statements():
    """``python -O`` strips ``assert``; every check in the package must be an
    explicit raise so that it runs under every interpreter flag."""
    found = []
    for path in sorted(Path(superbridge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def _gcd_and_lcm_calls(tree: ast.AST) -> list[tuple[str, str, int]]:
    """(enclosing function, callee, line) of every call to a name or attribute
    ``gcd`` or ``lcm``, and of every import of those names."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("gcd", "lcm"):
                    found.append((scope, name, child.lineno))
            if isinstance(child, ast.ImportFrom):
                names = [a.name for a in child.names if a.name in ("gcd", "lcm")]
                found.extend((scope, f"import {name}", child.lineno) for name in names)
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_gcd_and_lcm_are_called_only_in_linalg():
    """``linalg._cleared`` and ``linalg._reduced`` are the package's one
    denominator-clearing and gcd-reducing step. The one other use is the
    large-denominator route of ``geometry._scaled_edges``, one lcm and one
    gcd over the reduced edges, which its docstring proves cheaper there."""
    found = []
    for path in sorted(Path(superbridge.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [(path.name, *call) for call in _gcd_and_lcm_calls(tree)]
    allowed = [("geometry.py", "_scaled_edges", "lcm"), ("geometry.py", "_scaled_edges", "gcd")]
    assert [call[:3] for call in found] == allowed, found
