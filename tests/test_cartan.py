"""The word model over a local part and the cartanification quotient."""

from __future__ import annotations

import ast
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

import pytest
from hypothesis import given, settings

import canonical
import gradedlie
from gradedlie import cartan, cli, graded, iso
from gradedlie.cartan import (
    Cartanification,
    cartanify,
    local_cartanification,
    products,
    root_subalgebra,
)
from gradedlie.contragredient import build_local
from gradedlie.graded import check_local_axioms, decompose_at_degree
from gradedlie.linalg import Span, vadd, vadd_into
from gradedlie.rootsys import CartanData, jk_partition

from fixtures_gl import gl2form_local, glvec_local, glvec_super_local, sl_block
from test_graded import _cartan_data
from oracles import s_model_dims, w_model_dims, w_super_dims
from wordmodel import LocAlgebra

A1 = [[2]]
A2 = [[2, -1], [-1, 2]]
A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
C2 = [[2, -1], [-2, 2]]
C3 = [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
D4 = [[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]]
F1 = Fraction(1)


def series_a(n):
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
             for j in range(n - 1)] for i in range(n - 1)]


# -- word model ---------------------------------------------------------


def test_engine_requires_grading():
    loc = glvec_local(2)
    object.__setattr__(loc, "grading", None)
    with pytest.raises(ValueError, match="no grading element"):
        LocAlgebra(loc)


def test_opposite_wing_products_a1():
    loc = build_local(CartanData(A1, lam=[1]))
    eng = LocAlgebra(loc)
    e0 = eng.from_vec(1, {0: 1})
    f0 = eng.from_vec(-1, {0: -F1})
    h0 = loc.zero_names.index(("h0",))
    h = loc.zero_names.index(("h", 0))
    # e0 f0 = h0 + L + 1 and f0 e0 = -h0 - L, with L = -2 h0 - h
    assert eng.product(e0, f0) == {
        ((0, h0),): -F1, ((0, h),): -F1, (): F1}
    assert eng.product(f0, e0) == {((0, h0),): F1, ((0, h),): F1}
    # odd-odd commutator of dual wing vectors is the scalar pairing
    assert eng.commutator(e0, f0) == {(): F1}


def test_grading_element_eigenvalues():
    loc = build_local(CartanData(A2, lam=[1, 0]))
    eng = LocAlgebra(loc)
    L = eng.grading_element()
    for deg in (-1, 0, 1):
        for i in range(len(loc.names_at(deg))):
            el = eng.from_vec(deg, {i: 1})
            got = eng.commutator(L, el)
            want = {w: deg * c for w, c in el.items() if deg}
            assert got == want


def test_glvec_tensor_products():
    # F^a E_b = K^a_b and [F^a K^b_c, E_d] = -d_d^b K^a_c + d_d^a K^b_c
    loc = glvec_local(3)
    eng = LocAlgebra(loc)
    idx = {(a, b): i for i, (_, a, b) in enumerate(loc.zero_names)}
    for a, b in iproduct(range(3), repeat=2):
        got = eng.product(eng.from_vec(-1, {a: 1}), eng.from_vec(1, {b: 1}))
        assert got == {((0, idx[(a, b)]),): F1}
    for a, b, c, d in iproduct(range(3), repeat=4):
        w = eng.product(eng.from_vec(-1, {a: 1}),
                        eng.from_vec(0, {idx[(b, c)]: 1}))
        got = eng.commutator(w, eng.from_vec(1, {d: 1}))
        want: dict = {}
        if d == b:
            want[((0, idx[(a, c)]),)] = want.get(((0, idx[(a, c)]),), 0) - 1
        if d == a:
            want[((0, idx[(b, c)]),)] = want.get(((0, idx[(b, c)]),), 0) + 1
        assert got == {k: Fraction(v) for k, v in want.items() if v}


def test_word_cap():
    loc = build_local(CartanData(A1, lam=[1]))
    eng = LocAlgebra(loc, cap=3)
    long = {((1, 0),) * 4: F1}
    with pytest.raises(ValueError, match="cap of 3 letters"):
        eng.product(long, long)


def test_zero_coords_rejects_wing_words():
    loc = build_local(CartanData(A1, lam=[1]))
    eng = LocAlgebra(loc)
    with pytest.raises(ValueError, match="degree-0 letters"):
        eng.zero_coords(eng.from_vec(1, {0: 1}))


def _wing(word):
    for deg, _ in word:
        if deg != 0:
            return deg
    return 0


def test_associativity_off_sandwich_randomized():
    """(x z) y = x (z y) except for wing patterns s, -s, s."""
    loc = build_local(CartanData(A2, lam=[1, 0]))
    eng = LocAlgebra(loc)
    rng = random.Random(7)
    letters = [(d, i) for d in (-1, 0, 1)
               for i in range(len(loc.names_at(d)))]
    checked = 0
    while checked < 300:
        zl = rng.choice(letters)
        xw = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        yw = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        wings_x = {d for d, _ in xw if d}
        wings_y = {d for d, _ in yw if d}
        if len(wings_x) > 1 or len(wings_y) > 1:
            continue
        wx = wings_x.pop() if wings_x else 0
        wy = wings_y.pop() if wings_y else 0
        if wx and zl[0] == -wx and wy == wx:
            continue   # the sandwich: associativity genuinely fails there
        x = eng._norm(xw)
        y = eng._norm(yw)
        z = {(zl,): F1}
        assoc = eng.associator(x, z, y)
        assert not assoc, (xw, zl, yw, assoc)
        checked += 1


def test_sandwich_associator_identity():
    """On patterns s, -s, s: (xz)y - x(zy) = ((yx) + (xy)) z."""
    loc = build_local(CartanData(A2, lam=[1, 0]))
    eng = LocAlgebra(loc)
    hits = 0
    for s in (-1, 1):
        nw = len(loc.names_at(s))
        nz = len(loc.names_at(-s))
        for a, b, c in iproduct(range(nw), range(nz), range(nw)):
            x = eng.from_vec(s, {a: 1})
            z = eng.from_vec(-s, {b: 1})
            y = eng.from_vec(s, {c: 1})
            lhs = eng.associator(x, z, y)
            rhs = eng.product(eng.product(y, x), z)
            rhs = vadd(rhs, eng.product(eng.product(x, y), z))
            assert lhs == rhs
            if lhs:
                hits += 1
    assert hits   # the obstruction is real, not vacuous


# -- weak cartanification ------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_weak_matches_derivation_model(n):
    data = CartanData(series_a(n), lam=[1] + [0] * (n - 2))
    res = cartanify(build_local(data), degree_range=(-n, 1))
    dims = {d: v for d, v in res.graded.dims().items() if v}
    assert dims == w_model_dims(n)
    assert res.candidate_count == n * ((n * n - 1) + 1)
    assert res.kernel_dim == res.candidate_count - dims[-1]


@pytest.mark.parametrize("n", [2, 3])
def test_weak_from_tensor_local(n):
    # same algebra built from the hand-entered gl(n) local part
    res = cartanify(glvec_local(n), degree_range=(-n, 1))
    dims = {d: v for d, v in res.graded.dims().items() if v}
    assert dims == w_model_dims(n)


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
def test_weak_super_matches_w_super(m, n):
    """gl(m|n) with its vector wing, degree 0 with odd letters, gives
    W(m|n): a wing letter with even index is odd, so its variable is
    Grassmann."""
    res = cartanify(glvec_super_local(m, n), degree_range=(-3, 1))
    assert res.graded.dims() == w_super_dims(m, n, -3)
    rep = check_local_axioms(res.local)
    assert rep["passed"], rep["checks"]


def test_weak_quotient_local_axioms():
    data = CartanData(A2, lam=[1, 0])
    res = local_cartanification(build_local(data))
    rep = check_local_axioms(res.local)
    assert rep["passed"], rep["checks"]
    assert res.local.grading is not None


_SPAN_DATA = {
    "A2w1": CartanData(A2, lam=[1, 0]),
    "B3w3": CartanData([[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
                       epsilon=[2, 2, 1], lam=[0, 0, 1]),
    "C3w1": CartanData([[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
                       epsilon=[1, 1, 2], lam=[1, 0, 0]),
    "A4w1": CartanData(series_a(5), lam=[1, 0, 0, 0]),
}


@pytest.mark.parametrize("name, variant", [
    *((name, v) for name in _SPAN_DATA for v in ("weak", "strong")),
    ("glvec-super21", "weak"),
])
def test_action_images_span_degree0(name, variant):
    """Degree 0 of the quotient is the span of the action images [w_t, z_q]
    alone: no bracket of two images leaves it."""
    data = _SPAN_DATA.get(name)
    loc = glvec_super_local(2, 1) if data is None else build_local(data)
    restr = (root_subalgebra(loc, jk_partition(data)[1])
             if variant == "strong" else None)
    res = local_cartanification(loc, restriction=restr)
    span = Span()
    for vec in res.local.bpm.values():
        span.add(vec)
    assert span.rank == res.local.nzero > 0


def test_weak_minus1_decomposition_a2():
    data = CartanData(A2, lam=[1, 0])
    res = cartanify(build_local(data), degree_range=(-2, 1))
    dec = decompose_at_degree(res.graded, -1)
    assert [(tuple(map(int, w)), m, dim) for w, m, dim in dec] == \
        [((1, 0), 1, 3), ((0, 2), 1, 6)]
    dec2 = decompose_at_degree(res.graded, -2)
    assert [(tuple(map(int, w)), m, dim) for w, m, dim in dec2] == \
        [((0, 1), 1, 3)]


def _candidates(loc):
    return [(p, j) for p in range(loc.nneg) for j in range(loc.nzero)]


def test_minus1_class_roundtrip():
    loc = build_local(CartanData(A2, lam=[1, 0]))
    res = local_cartanification(loc)
    classes = {c: res.minus1_class(products({c[0]: F1}, {c[1]: F1}))
               for c in _candidates(loc)}
    # the weak quotient keeps pivot candidates, so each basis vector is
    # the class of one of them
    for t in range(res.local.nneg):
        assert {t: F1} in classes.values()
    # classes are linear in the candidate coordinates
    by_weight: dict = {}
    for (p, j), cls in classes.items():
        if cls:
            w = graded.wsum(loc.neg_weights[p], loc.zero_weights[j])
            by_weight.setdefault(w, []).append((p, j))
    a, b = next(cs for cs in by_weight.values() if len(cs) > 1)[:2]
    el = vadd(products({a[0]: 5}, {a[1]: F1}), products({b[0]: 3}, {b[1]: F1}))
    assert res.minus1_class(el) == vadd(vadd({}, classes[a], 5), classes[b], 3)
    assert res.minus1_class({}) == {}
    # a sum over two weights has no class
    (c1, *_), (c2, *_) = list(by_weight.values())[:2]
    with pytest.raises(ValueError, match="not weight-homogeneous"):
        res.minus1_class({c1: F1, c2: F1})
    # the weight is read off the class: a candidate of another weight
    # whose class is zero adds nothing
    c0 = next(c for c, cls in classes.items() if not cls)
    w0 = graded.wsum(loc.neg_weights[c0[0]], loc.zero_weights[c0[1]])
    assert w0 not in by_weight
    assert res.minus1_class({c1: F1, c0: F1}) == classes[c1]


def test_minus1_class_outside_restricted_quotient():
    data = CartanData(A2, lam=[1, 0])
    loc = build_local(data)
    res = local_cartanification(
        loc, restriction=root_subalgebra(loc, jk_partition(data)[1]))
    # the weak quotient is larger than the restricted one
    with pytest.raises(ValueError, match="acts outside the cartanification"):
        for c in _candidates(loc):
            res.minus1_class({c: F1})


def test_zero_class_roundtrip():
    data = CartanData(A2, lam=[1, 0])
    loc = build_local(data)
    res = local_cartanification(loc)
    for t, vec in enumerate(res.zero_basis):
        assert res.zero_class(vec) == {t: F1}
    # grading element of the quotient matches the original one
    assert res.local.grading == res.zero_class(dict(loc.grading))


# -- restricted cartanification -------------------------------------------


@pytest.mark.parametrize("n", [3, 4])
def test_strong_matches_divergence_free_model(n):
    data = CartanData(series_a(n), lam=[1] + [0] * (n - 2))
    loc = build_local(data)
    restr = root_subalgebra(loc, jk_partition(data)[1])
    res = cartanify(loc, degree_range=(-n, 1), restriction=restr)
    dims = {d: v for d, v in res.graded.dims().items() if v}
    assert dims == s_model_dims(n)


def test_strong_quotient_has_no_grading_element():
    data = CartanData(A2, lam=[1, 0])
    loc = build_local(data)
    restr = root_subalgebra(loc, jk_partition(data)[1])
    res = local_cartanification(loc, restriction=restr)
    assert res.local.grading is None
    rep = check_local_axioms(res.local)
    assert rep["passed"], rep["checks"]
    with pytest.raises(ValueError, match="outside the degree-0 image"):
        res.zero_class(dict(loc.grading))


def test_embedding_carry_over_drops_outside_and_raises_on_faults():
    data = CartanData(A2, lam=[1, 0])
    loc = build_local(data)
    restr = root_subalgebra(loc, jk_partition(data)[1])
    res = local_cartanification(loc, restriction=restr)
    # h0 lies outside the restricted degree-0 span: dropped, not an error
    assert ("h0",) in loc.embedding
    assert ("h0",) not in res.local.embedding
    assert ("e", 1) in res.local.embedding
    # a named vector mixing two weights is a fault in the local part
    mixed = {**loc.embedding[("e", 1)], **loc.embedding[("h", 1)]}
    bad = replace(loc, embedding={**loc.embedding, "mixed": mixed})
    with pytest.raises(ValueError, match="not weight-homogeneous"):
        local_cartanification(bad, restriction=restr)


def test_strong_minus1_is_single_module_a2():
    data = CartanData(A2, lam=[1, 0])
    loc = build_local(data)
    restr = root_subalgebra(loc, jk_partition(data)[1])
    res = cartanify(loc, degree_range=(-2, 1), restriction=restr)
    dec = decompose_at_degree(res.graded, -1)
    assert [(tuple(map(int, w)), m, dim) for w, m, dim in dec] == \
        [((0, 2), 1, 6)]


def test_gminus_nodes_and_root_subalgebra():
    data = CartanData(series_a(4), lam=[1, 0, 0])
    assert jk_partition(data)[1] == (1, 2)
    loc = build_local(data)
    restr = root_subalgebra(loc, (1, 2))
    assert len(restr) == 8   # sl(3): 2 Cartan + 6 root vectors
    named = {loc.zero_names[i] for v in restr for i in v}
    assert ("h", 1) in named and ("h", 2) in named
    assert not any(name == ("h", 0) or name == ("h0",) for name in named)


def test_restriction_must_be_subalgebra():
    data = CartanData(A2, lam=[1, 0])
    loc = build_local(data)
    e1 = {loc.zero_names.index(("e", 1)): F1}
    f1 = {loc.zero_names.index(("f", 1)): F1}
    with pytest.raises(ValueError, match="not a subalgebra"):
        local_cartanification(loc, restriction=[e1, f1])


def test_restriction_vectors_must_be_weight_homogeneous():
    data = CartanData(A2, lam=[1, 0])
    loc = build_local(data)
    mixed = {loc.zero_names.index(("e", 1)): F1,
             loc.zero_names.index(("h", 1)): F1}
    with pytest.raises(ValueError, match="not weight-homogeneous"):
        local_cartanification(loc, restriction=[mixed])


def test_full_restriction_recovers_weak_quotient():
    # f_0 y_0 over the whole degree-0 part generates all nine classes
    data = CartanData(A2, lam=[1, 0])
    loc = build_local(data)
    full = [{i: F1} for i in range(loc.nzero)]
    res = local_cartanification(loc, restriction=full)
    assert res.local.nneg == 9 == local_cartanification(loc).local.nneg


# -- the peripheral kernel ------------------------------------------------


def _quotient_action(res, cls: dict) -> dict:
    """Action on the plus wing, ``{q: vec}`` over the original degree-0
    basis, of the quotient minus vector cls, read from the quotient's
    [w_t, z_q] and its degree-0 basis."""
    out: dict = {}
    for t, c in cls.items():
        for q in range(res.local.npos):
            for u, a in res.local.bracket(-1, t, 1, q).items():
                vadd_into(out.setdefault(q, {}), res.zero_basis[u], c * a)
    return {q: vec for q, vec in out.items() if vec}


def _flat(action: dict) -> dict:
    """An action ``{q: vec}`` as one sparse vector keyed (q, k)."""
    return {(q, k): c for q, vec in action.items() for k, c in vec.items()}


def _engine_action(eng, el: dict) -> dict:
    """The word engine's action of a degree -1 element on the plus wing,
    ``{q: vec}`` over the degree-0 basis; a value in the engine's scalar
    slot 0 lands at key -1, where the closed form has none."""
    out: dict = {}
    for q in range(eng.local.npos):
        z = eng.from_vec(1, {q: F1})
        coords = eng.zero_coords(eng.commutator(el, z))
        if coords:
            out[q] = {k - 1: c for k, c in coords.items()}
    return out


def test_quotient_action_kernel_is_trivial():
    """Nonzero classes act nonzero: the defining invariant of the quotient,
    and each candidate acts as its class does."""
    data = CartanData(A2, lam=[1, 0])
    loc = build_local(data)
    res = local_cartanification(loc)
    span = Span()
    for t in range(res.local.nneg):
        act = _quotient_action(res, {t: F1})
        assert act, "class %d acts by zero" % t
        assert span.add(_flat(act))
    assert span.rank == res.local.nneg
    for p, j in _candidates(loc):
        cls = res.minus1_class(products({p: F1}, {j: F1}))
        assert Cartanification.action_coords(loc, p, j) == \
            _quotient_action(res, cls)


def test_unquotiented_candidates_fail_kernel_triviality():
    """Skipping the peripheral quotient leaves elements that act by zero."""
    data = CartanData(A2, lam=[1, 0])
    loc = build_local(data)
    res = local_cartanification(loc)
    span = Span()
    count = 0
    for p, j in _candidates(loc):
        span.add(_flat(Cartanification.action_coords(loc, p, j)))
        count += 1
    assert span.rank < count           # the invariant catches the defect
    assert count - span.rank == res.kernel_dim


def test_weighted_solver_positions_follow_basis():
    # coordinate i has weight weights[i]; 2 and 3 share a weight
    solver = cartan.WeightedSolver([(0,), (2,), (1,), [1]])
    assert solver.add({2: F1, 3: F1})
    assert solver.add({0: F1})
    assert not solver.add({2: 2 * F1, 3: 2 * F1})
    assert solver.basis() == [((0,), {0: F1}), ((1,), {2: F1, 3: F1})]
    assert solver.express({2: 3 * F1, 3: 3 * F1}) == {1: 3 * F1}
    assert solver.express({2: F1}) is None
    assert solver.express({1: F1}) is None
    assert solver.express({}) == {}


def test_weighted_solver_rejects_mixed_weights():
    solver = cartan.WeightedSolver([(0,), (1,)])
    assert solver.add({0: F1})
    for call in (solver.add, solver.express):
        with pytest.raises(ValueError, match="not weight-homogeneous"):
            call({0: F1, 1: F1})
    assert solver.dim() == 1


@pytest.mark.parametrize("make", [
    lambda: build_local(CartanData(A2, lam=[1, 0])),
    lambda: build_local(CartanData(C2, epsilon=[1, 2], lam=[1, 0])),
    lambda: build_local(CartanData(D4, lam=[1, 0, 0, 0])),
    lambda: glvec_local(3),
    lambda: gl2form_local(5),
    lambda: glvec_super_local(1, 1),
], ids=["A2w1", "C2w1", "D4w1", "glvec3", "two-form5", "glvec-super11"])
def test_candidate_action_matches_word_engine(make):
    """The closed-form action of x_p u_j is the word engine's commutator
    action, on every candidate.  Only gl(1|1) has odd degree-0 letters,
    the one case that exercises the sign (-1)^{|u||z|} and even wing
    letters."""
    loc = make()
    eng = LocAlgebra(loc)
    for p, j in _candidates(loc):
        el = eng.product(eng.from_vec(-1, {p: F1}), eng.from_vec(0, {j: F1}))
        assert Cartanification.action_coords(loc, p, j) == \
            _engine_action(eng, el), (p, j)


# the check-iso rungs of the benchmark ladder: A3 w2, C3 w1, B2 w2
_ISO_RUNGS = {
    "A3w2": lambda: CartanData(A3, lam=[0, 1, 0]),
    "C3w1": lambda: CartanData(C3, epsilon=[1, 1, 2], lam=[1, 0, 0]),
    "B2w2": lambda: CartanData([[2, -2], [-1, 2]], epsilon=[2, 1],
                               lam=[0, 1]),
}


def _pairwise_action(loc, p, j):
    """``action_coords`` as one ``bracket`` call per basis pair."""
    pairing = loc.pairing or {}
    out: dict = {}
    for q in range(loc.npos):
        val: dict = {}
        for q2, c in loc.bracket(0, j, 1, q).items():
            vadd_into(val, loc.bracket(-1, p, 1, q2), -c)
            pv = pairing.get((p, q2))
            if pv:
                vadd_into(val, loc.grading, c * pv)
        pv = pairing.get((p, q))
        if pv:
            odd = loc.zero_parities[j] and loc.pos_parities[q]
            vadd_into(val, {j: pv if odd else -pv})
        if val:
            out[q] = val
    return out


def _assert_tables_match_pairwise(loc):
    """The quotient's b00 and b0p, read off the column-sparse ad u_s, and
    the candidates' actions, read off the plus layer's columns, equal the
    pairwise ``bracket_vec``/``bracket`` formulas, entry order included."""
    res = local_cartanification(loc)
    basis = res.zero_basis
    b00 = [((s, t), res.zero_class(br)) for s, us in enumerate(basis)
           for t, ut in enumerate(basis)
           if (br := loc.bracket_vec(0, us, 0, ut))]
    b0p = [((s, q), br) for s, us in enumerate(basis)
           for q in range(loc.npos)
           if (br := loc.bracket_vec(0, us, 1, {q: 1}))]
    assert list(res.local.b00.items()) == b00
    assert list(res.local.b0p.items()) == b0p
    for p, j in _candidates(loc):
        assert list(Cartanification.action_coords(loc, p, j).items()) == \
            list(_pairwise_action(loc, p, j).items()), (p, j)


@pytest.mark.parametrize("name", sorted(_ISO_RUNGS))
def test_column_tables_match_pairwise_on_iso_rungs(name):
    _assert_tables_match_pairwise(build_local(_ISO_RUNGS[name]()))


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(_cartan_data())
def test_column_tables_match_pairwise_on_generated_data(data):
    _assert_tables_match_pairwise(build_local(data))


def _local_digests(loc) -> dict:
    """Digests of everything a local part stores: its four tables, pairing
    and grading, and each layer of ``brackets()``."""
    out = {name: canonical.digest(dict(getattr(loc, name)))
           for name in ("b00", "b0m", "b0p", "bpm")}
    out["pairing"] = canonical.digest(loc.pairing)
    out["grading"] = canonical.digest(loc.grading)
    for d, layer in loc.brackets().layers.items():
        out["layer %d" % d] = canonical.digest([layer.act0, layer.opp_map])
    return out


@pytest.mark.parametrize("data", [
    CartanData(A2, lam=[1, 0]),
    CartanData(C3, epsilon=[1, 1, 2], lam=[1, 0, 0]),
], ids=["A2w1", "C3w1"])
def test_returned_brackets_are_only_read(data):
    """Brackets come back as stored vectors, not copies; no caller writes
    to one.  The stored tables and layers of the contragredient local part
    and of its cartanification's local part are unchanged after the
    cartanification, an extension, check-iso, a decomposition and the
    local axioms have read them."""
    loc = build_local(data)
    before = _local_digests(loc)
    cart = local_cartanification(loc)
    cart_before = _local_digests(cart.local)
    graded_cart = cart.over((-3, 1)).graded
    verdict = iso.check_isomorphism(data, cartanification=cart)
    assert verdict.verdict == "isomorphic"
    for d in (-1, -2):
        assert decompose_at_degree(graded_cart, d)
    for local in (loc, cart.local):
        assert check_local_axioms(local)["passed"]
    assert _local_digests(loc) == before
    assert _local_digests(cart.local) == cart_before


def _a2_local():
    return build_local(CartanData(A2, lam=[1, 0]))


def _strong_a3():
    data = CartanData(A3, lam=[1, 0, 0])
    loc = build_local(data)
    return loc, root_subalgebra(loc, jk_partition(data)[1])


@pytest.mark.parametrize("make", [
    lambda: (_a2_local(), None),
    lambda: (build_local(
        CartanData([[2, -1], [-2, 2]], epsilon=[1, 2], lam=[1, 0])), None),
    _strong_a3,
    lambda: (gl2form_local(5), sl_block(5, (2, 3, 4))),
    lambda: (glvec_super_local(1, 1), None),
    lambda: (glvec_super_local(2, 1), None),
    lambda: (glvec_super_local(1, 2), None),
], ids=["weak-A2w1", "weak-C2w1", "strong-A3w1", "two-form-restricted",
        "weak-glvec-super11", "weak-glvec-super21", "weak-glvec-super12"])
def test_degree0_action_matches_word_engine(make):
    """The quotient's [u_s, w_t], taken from the derivation rule on
    classes, moves each element as the word engine's commutator does: the
    engine's action of [u_s, el] is the action of sum_t cls_t [u_s, w_t]."""
    loc, restriction = make()
    res = local_cartanification(loc, restriction=restriction)
    eng = LocAlgebra(loc)
    if restriction is None:
        elements = [({p: F1}, {j: F1}) for p, j in _candidates(loc)]
    else:
        elements = [({0: F1}, y) for y in restriction]
    nonzero = 0
    for x, y in elements:
        cls = res.minus1_class(products(x, y))
        word = eng.product(eng.from_vec(-1, x), eng.from_vec(0, y))
        for s, us in enumerate(res.zero_basis):
            moved: dict = {}
            for t, c in cls.items():
                vadd_into(moved, res.local.b0m.get((s, t), {}), c)
            got = _engine_action(eng, eng.commutator(eng.from_vec(0, us),
                                                     word))
            assert got == _quotient_action(res, moved), (x, y, s)
            nonzero += bool(got)
    assert nonzero


def _imported_roots(node) -> list:
    """Top-level names of the modules an import statement reads."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module.split(".")[0]]
    return []


def test_production_path_builds_no_word_engine():
    """The package holds one degree -1 action, the closed form: it defines
    none of the word model's classes and imports nothing from the tests,
    so check-iso and every cartanification run without words."""
    tests = Path(__file__).parent
    model = ast.parse((tests / "wordmodel.py").read_text(encoding="utf-8"))
    engine = {node.name for node in ast.walk(model)
              if isinstance(node, ast.ClassDef)}
    assert "LocAlgebra" in engine
    test_modules = {path.stem for path in tests.glob("*.py")} | {"tests"}
    found = []
    for path in sorted(Path(gradedlie.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.ClassDef) and node.name in engine) or \
                    test_modules.intersection(_imported_roots(node)):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, "word engine in the package: %s" % found


# The two checks that guard the quotient: kernel invariance under the
# generators of degree 0, and the representation identity along the tree of
# brackets that closes them (``cartan.degree0_generators``).
NOT_INVARIANT = "peripheral kernel is not invariant under degree-0 brackets"
NOT_A_REPRESENTATION = "degree-0 brackets are not a representation"
EITHER_CHECK = "%s|%s" % (NOT_INVARIANT, NOT_A_REPRESENTATION)


@pytest.mark.parametrize("key", sorted(_a2_local().b0m))
def test_kernel_invariance_catches_corrupted_degree0_action(key):
    """Doubling one [u, x] entry breaks the derivation rule's agreement
    with the candidates' actions, or the representation identity."""
    loc = _a2_local()
    bad = dict(loc.b0m)
    bad[key] = {k: 2 * c for k, c in bad[key].items()}
    with pytest.raises(ValueError, match=EITHER_CHECK):
        local_cartanification(replace(loc, b0m=bad))


def _a2_b00_raised(key):
    """The A2 w1 contragredient local part with one coefficient of the
    b00 entry at ``key`` increased by 1."""
    loc = _a2_local()
    vec = dict(loc.b00[key])
    vec[min(vec)] += 1
    return replace(loc, b00={**loc.b00, key: vec})


@pytest.mark.parametrize("key", sorted(_a2_local().b00))
def test_kernel_invariance_catches_corrupted_degree0_bracket(key):
    """A wrong [u, u'] moves candidates against their classes, or breaks
    the representation identity."""
    with pytest.raises(ValueError, match=EITHER_CHECK):
        local_cartanification(_a2_b00_raised(key))


def test_generator_breaking_invariance_is_caught():
    """[h0, f_1] raised by 1 breaks invariance under the generator h0."""
    names = _a2_local().zero_names
    assert (names[8], names[1]) == (("h0",), ("f", 1))
    with pytest.raises(ValueError, match=NOT_INVARIANT):
        local_cartanification(_a2_b00_raised((8, 1)))


def test_non_generator_edge_breaking_the_representation_is_caught():
    """[f_0, f_1] raised breaks the identity on the edge that makes f_2,
    a vector outside the generators, and the message names the bracket."""
    names = _a2_local().zero_names
    assert (names[0], names[1]) == (("f", 0), ("f", 1))
    with pytest.raises(ValueError, match=NOT_A_REPRESENTATION) as err:
        local_cartanification(_a2_b00_raised((0, 1)))
    assert str(err.value).endswith(
        "at s = ('f', 0), w = ('f', 1), x = ('x', 0) in degree -1")


@pytest.mark.parametrize("u", range(_a2_local().nzero))
def test_generator_breaking_parity_is_caught(u):
    """The representation argument needs brackets that respect parity: a
    degree-0 basis vector made odd breaks it at some generator."""
    loc = _a2_local()
    parities = list(loc.zero_parities)
    parities[u] = 1
    with pytest.raises(ValueError, match="degree-0 brackets do not respect "
                       "parity"):
        local_cartanification(replace(loc, zero_parities=parities))


def test_representation_check_survives_optimized_interpreter():
    """No check of the quotient rests on an ``assert``: under
    ``python -O`` the corrupted part still raises the named error."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(gradedlie.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    script = (
        "from dataclasses import replace\n"
        "from gradedlie.cartan import local_cartanification\n"
        "from gradedlie.contragredient import build_local\n"
        "from gradedlie.rootsys import CartanData\n"
        "loc = build_local(CartanData([[2, -1], [-1, 2]], lam=[1, 0]))\n"
        "vec = dict(loc.b00[(0, 1)])\n"
        "vec[min(vec)] += 1\n"
        "try:\n"
        "    local_cartanification(replace(loc, b00={**loc.b00, (0, 1): vec}))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n")
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(NOT_A_REPRESENTATION)


@pytest.mark.parametrize("matrix, epsilon", [
    (A2, None),
    ([[2, -2], [-1, 2]], [2, 1]),
    ([[2, -1], [-3, 2]], [1, 3]),
    ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], [1, 1, 2]),
    (D4, None),
], ids=["A2", "B2", "G2", "C3", "D4"])
def test_degree0_generators_of_contragredient_part(matrix, epsilon):
    """The generators are the simple e_i and f_i and h0, 2r + 1 vectors,
    and the closure tree spans degree 0."""
    data = CartanData(matrix, epsilon, lam=[1] + [0] * (len(matrix) - 1))
    loc = build_local(data)
    closure = cartan.degree0_generators(loc)
    gens = [s for _, s, k in closure if k is None]
    assert len(gens) == 2 * data.r + 1
    assert loc.zero_names[gens[-1]] == ("h0",)
    for s in gens[:-1]:
        coords = sorted(abs(c) for c in data.root_coords(loc.zero_weights[s]))
        assert coords == [0] * (data.r - 1) + [1]
    span = Span()
    assert all(span.add(vec) for vec, _, _ in closure)
    assert span.rank == loc.nzero
    for vec, s, k in closure:
        if k is not None:
            assert vec == loc.bracket_vec(0, {s: 1}, 0, closure[k][0])


@pytest.mark.parametrize("m, n, dims, kernel_dim", [
    (1, 1, {-1: 4, 0: 4, 1: 2}, 4),
    (2, 1, {-1: 12, 0: 9, 1: 3}, 15),
    (1, 2, {-1: 15, 0: 9, 1: 3}, 12),
    (2, 2, {-1: 32, 0: 16, 1: 4}, 32),
])
def test_representation_check_passes_with_odd_degree0(m, n, dims,
                                                      kernel_dim):
    """gl(m|n) has odd degree-0 vectors and an edge [s, w] with s and w
    both odd, so the identity's sign (-1)^{|s||w|} is exercised; the check
    passes, and the quotient's dims and kernel are those of the check over
    every degree-0 vector."""
    loc = glvec_super_local(m, n)
    closure = cartan.degree0_generators(loc)
    parity = loc.zero_parities
    assert any(parity[s] and parity[min(closure[k][0])]
               for _, s, k in closure if k is not None)
    res = local_cartanification(loc)
    assert res.local.dims() == dims
    assert res.kernel_dim == kernel_dim


def test_shared_local_part_is_still_checked(monkeypatch):
    """check-all shares one local part among its commands: a corrupted
    one fails the representation check in every command that cartanifies
    it, check-iso's weak cartanification of it included."""
    corrupted = _a2_b00_raised(sorted(_a2_local().b00)[0])
    monkeypatch.setattr(cli, "build_local", lambda data: corrupted)
    spec = cli.parse_spec('{"cartan_matrix": [[2, -1], [-1, 2]], '
                          '"lambda": [1, 0], "degree_range": [-2, 1]}')
    commands = cli.build_report("check-all", spec, use_cache=False)[
        "result"]["commands"]
    for command, module in (("cartanify", "cartan"), ("decompose", "graded"),
                            ("check-iso", "iso")):
        assert commands[command] == {
            "error": "degree-0 brackets are not a representation: "
                     "[[s, w], x] != [s, [w, x]] -+ [w, [s, x]] at "
                     "s = ('f', 0), w = ('f', 1), x = ('x', 0) in degree -1",
            "module": module}


def test_corrupted_constant_caught_by_axioms():
    loc = glvec_local(2)
    bad = dict(loc.b00)
    key = next(iter(bad))
    bad[key] = {k: v + 1 for k, v in bad[key].items()}
    corrupt = graded.LocalSuperalgebra(
        neg_names=loc.neg_names, neg_weights=loc.neg_weights,
        neg_parities=loc.neg_parities, zero_names=loc.zero_names,
        zero_weights=loc.zero_weights, zero_parities=loc.zero_parities,
        pos_names=loc.pos_names, pos_weights=loc.pos_weights,
        pos_parities=loc.pos_parities, b00=bad, b0m=loc.b0m,
        b0p=loc.b0p, bpm=loc.bpm, pairing=loc.pairing,
        grading=loc.grading)
    rep = check_local_axioms(corrupt)
    assert not rep["passed"]
    failed = {c["name"] for c in rep["checks"] if not c["passed"]}
    assert "jacobi_in_range" in failed


# -- the two-form model ----------------------------------------------------


def test_two_form_local_passes_axioms():
    rep = check_local_axioms(gl2form_local(5))
    assert rep["passed"], rep["checks"]


def test_two_form_restricted_cartanification():
    loc = gl2form_local(5)
    res = local_cartanification(loc, restriction=sl_block(5, (2, 3, 4)))
    assert res.local.nneg == 40
    assert res.local.nzero == 24       # traceless: the trace is projected out
    assert res.local.grading is None
    rep = check_local_axioms(res.local)
    assert rep["passed"], rep["checks"]
