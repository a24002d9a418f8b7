"""Checks on the package source itself."""

import ast
from pathlib import Path

import dramcam


def test_package_has_no_assert_statements():
    """`python -O` strips asserts, so no invariant may rest on one."""
    package = Path(dramcam.__file__).parent
    asserts = [f"{path.name}:{node.lineno}"
               for path in sorted(package.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Assert)]
    assert asserts == []
