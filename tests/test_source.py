"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import gradedlie

PACKAGE = Path(gradedlie.__file__).parent


def _nodes(match):
    """"file:line" of every node of the package's modules that matches."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if match(node)]
    return found


def test_no_assert_statements():
    """Invariants are explicit errors, so they still hold under python -O."""
    found = _nodes(lambda node: isinstance(node, ast.Assert))
    assert not found, "assert statements in the package: %s" % found


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assertion_errors_raised():
    """Engine faults are ValueErrors, the one error the CLI reports with
    its module and exit code 1 instead of a traceback."""
    found = _nodes(_raises_assertion_error)
    assert not found, "raise AssertionError in the package: %s" % found
