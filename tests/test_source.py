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
