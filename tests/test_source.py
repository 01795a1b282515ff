"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import gradedlie

PACKAGE = Path(gradedlie.__file__).parent


def test_no_assert_statements():
    """Invariants are explicit errors, so they still hold under python -O."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements in the package: %s" % found
