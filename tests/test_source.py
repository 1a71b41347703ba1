"""Checks on the package source itself."""

import ast
import inspect
import sys
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


def _attribute_backdoors(tree: ast.AST) -> list[tuple[str, str, int]]:
    """(enclosing class and function, what, line) of every ``object.__setattr__``
    call and every ``__dict__`` access: the ways to set or read an attribute
    that a frozen dataclass does not declare."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Attribute):
                if child.attr == "__dict__":
                    found.append((scope, "__dict__", child.lineno))
                elif (
                    child.attr == "__setattr__"
                    and isinstance(child.value, ast.Name)
                    and child.value.id == "object"
                ):
                    found.append((scope, "object.__setattr__", child.lineno))
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_tables_are_kept_on_frozen_objects_in_one_place():
    """A frozen object gains an undeclared attribute in three places only:
    ``PolygonalKnot`` keeps its edge table, ``SignPattern`` fills in its
    ``descents`` field, and ``certificates._kept`` keeps every per-polygon
    table that certificate checks build. A fourth cache goes through
    ``_kept`` rather than a copy of it."""
    found = []
    for path in sorted(Path(superbridge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [(path.name, *site) for site in _attribute_backdoors(tree)]
    allowed = [
        ("certificates.py", "_kept", "__dict__"),
        ("certificates.py", "_kept", "object.__setattr__"),
        ("geometry.py", "PolygonalKnot.__post_init__", "object.__setattr__"),
        ("geometry.py", "SignPattern.__post_init__", "object.__setattr__"),
    ]
    assert [site[:3] for site in found] == allowed, found


def _definition(obj) -> ast.AST:
    """The top-level ``def`` or ``class`` statement that defines obj."""
    source = Path(sys.modules[obj.__module__].__file__).read_text(encoding="utf-8")
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == obj.__name__:
            return node
    raise LookupError(obj)


def test_every_public_class_and_function_has_a_docstring():
    """Each class and function in ``superbridge.__all__`` carries a docstring
    in its own definition; the signature ``dataclass`` writes into an
    undocumented class does not count."""
    missing = [
        name
        for name in superbridge.__all__
        for obj in [getattr(superbridge, name)]
        if (inspect.isclass(obj) or inspect.isfunction(obj))
        and not ast.get_docstring(_definition(obj))
    ]
    assert not missing, missing
