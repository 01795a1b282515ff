"""Representation-independent views of computed tables, for the tests.

``render`` turns nested tables into plain JSON-ready lists: every exact
scalar, ``int`` or ``Fraction``, is written through ``str``, so 1 and
Fraction(1) render alike; tuples and lists become lists; a dict becomes
its [key, value] pairs sorted by the JSON text of the rendered key.
``digest`` is the sha256 of that rendering, so a digest pins values, not
the Python types that hold them.

``assert_normal_form`` checks the package's scalar normal form on every
number of a nested table: an ``int`` exactly when the value is integral,
otherwise a ``Fraction`` with denominator greater than 1, never a float
or a bool.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def _is_scalar(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def render(x):
    if isinstance(x, dict):
        items = [(render(k), render(v)) for k, v in x.items()]
        items.sort(key=lambda kv: json.dumps(kv[0]))
        return [[k, v] for k, v in items]
    if isinstance(x, (list, tuple)):
        return [render(v) for v in x]
    if _is_scalar(x):
        return str(x)
    return x


def digest(x) -> str:
    return hashlib.sha256(json.dumps(render(x)).encode()).hexdigest()


def normal_form_violations(x) -> list:
    """The numbers of a nested table that are not in normal form."""
    if isinstance(x, dict):
        return [bad for k, v in x.items()
                for bad in normal_form_violations(k) + normal_form_violations(v)]
    if isinstance(x, (list, tuple)):
        return [bad for v in x for bad in normal_form_violations(v)]
    if type(x) is int or (type(x) is Fraction and x.denominator > 1):
        return []
    if isinstance(x, (int, float, Fraction, complex)):
        return [x]
    return []


def assert_normal_form(x) -> None:
    bad = normal_form_violations(x)
    assert not bad, "values not in normal form: %r" % bad[:5]
