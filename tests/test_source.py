"""Checks on the package source itself."""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import gradedlie
from gradedlie import tha

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


# Bound in a module without being used there, so that ``perfbench/spans.py``
# can wrap the calls made through that binding.
_KEPT_FOR_TRACERS = {
    ("cartan.py", "rref"),
    ("cartan.py", "kernel_basis"),
    ("iso.py", "chevalley_realization"),
    ("tha.py", "chevalley_realization"),
}


def test_every_import_is_used():
    """A name a package module imports is used in that module."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in sorted(imported.items())
                   if name not in used
                   and (path.name, name) not in _KEPT_FOR_TRACERS]
    assert not unused, "imported but unused: %s" % unused


def test_structure_oracles_stay_out_of_the_package():
    """The structure theorem is proved in the tests: no package module
    defines a function or class of ``tests/structure.py``, and the
    degree -1 module carries none of the oracles' memos."""
    oracle = ast.parse((Path(__file__).parent / "structure.py")
                       .read_text(encoding="utf-8"))
    moved = {node.name for node in oracle.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert {"sharp_image", "weyl_automorphism", "root_op",
            "expected_minus1_decomposition", "tags"} <= moved
    found = _nodes(lambda node: isinstance(
        node, (ast.FunctionDef, ast.ClassDef)) and node.name in moved)
    assert not found, "structure oracles defined in the package: %s" % found
    fields = {f.name for f in dataclasses.fields(tha.MinusOneModule)}
    assert not fields & {"g", "_root_ops", "_sharp"}


def _is_division(node) -> bool:
    return isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
        node.op, ast.Div)


def test_one_true_division_in_linalg_qdiv():
    """``int / int`` is a float, so the package divides in one place:
    ``linalg.qdiv``, exact and in normal form, for ints and Fractions."""
    tree = ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    qdiv, = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == "qdiv"]
    inside = ["linalg.py:%d" % node.lineno
              for node in ast.walk(qdiv) if _is_division(node)]
    assert len(inside) == 1
    found = _nodes(_is_division)
    assert found == inside, "true division outside linalg.qdiv: %s" % [
        site for site in found if site not in inside]
