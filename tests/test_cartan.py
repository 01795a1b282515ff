"""The word model over a local part and the cartanification quotient."""

from __future__ import annotations

import ast
import random
from dataclasses import replace
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

import pytest

import gradedlie
from gradedlie import cartan, graded
from gradedlie.cartan import (
    cartanify,
    local_cartanification,
    products,
    root_subalgebra,
)
from gradedlie.contragredient import build_local
from gradedlie.graded import check_local_axioms, decompose_at_degree
from gradedlie.linalg import vadd, vadd_into
from gradedlie.rootsys import CartanData, jk_partition

from fixtures_gl import gl2form_local, glvec_local, glvec_super_local, sl_block
from oracles import s_model_dims, w_model_dims, w_super_dims
from wordmodel import LocAlgebra

A1 = [[2]]
A2 = [[2, -1], [-1, 2]]
A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
C2 = [[2, -1], [-2, 2]]
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


def test_weak_minus1_decomposition_a2():
    data = CartanData(A2, lam=[1, 0])
    res = cartanify(build_local(data), degree_range=(-2, 1))
    dec = decompose_at_degree(res.graded, -1, data)
    assert [(tuple(map(int, w)), m, dim) for w, m, dim in dec] == \
        [((1, 0), 1, 3), ((0, 2), 1, 6)]
    dec2 = decompose_at_degree(res.graded, -2, data)
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


def test_minus1_class_outside_restricted_quotient():
    data = CartanData(A2, lam=[1, 0])
    loc = build_local(data)
    res = local_cartanification(
        loc, restriction=root_subalgebra(data, loc, jk_partition(data)[1]))
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
    restr = root_subalgebra(data, loc, jk_partition(data)[1])
    res = cartanify(loc, degree_range=(-n, 1), restriction=restr)
    dims = {d: v for d, v in res.graded.dims().items() if v}
    assert dims == s_model_dims(n)


def test_strong_quotient_has_no_grading_element():
    data = CartanData(A2, lam=[1, 0])
    loc = build_local(data)
    restr = root_subalgebra(data, loc, jk_partition(data)[1])
    res = local_cartanification(loc, restriction=restr)
    assert res.local.grading is None
    rep = check_local_axioms(res.local)
    assert rep["passed"], rep["checks"]
    with pytest.raises(ValueError, match="outside the degree-0 image"):
        res.zero_class(dict(loc.grading))


def test_embedding_carry_over_drops_outside_and_raises_on_faults():
    data = CartanData(A2, lam=[1, 0])
    loc = build_local(data)
    restr = root_subalgebra(data, loc, jk_partition(data)[1])
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
    restr = root_subalgebra(data, loc, jk_partition(data)[1])
    res = cartanify(loc, degree_range=(-2, 1), restriction=restr)
    dec = decompose_at_degree(res.graded, -1, data)
    assert [(tuple(map(int, w)), m, dim) for w, m, dim in dec] == \
        [((0, 2), 1, 6)]


def test_gminus_nodes_and_root_subalgebra():
    data = CartanData(series_a(4), lam=[1, 0, 0])
    assert jk_partition(data)[1] == (1, 2)
    loc = build_local(data)
    restr = root_subalgebra(data, loc, (1, 2))
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
    """Action on the plus wing, keys (q, 1 + k) over the original degree-0
    basis, of the quotient minus vector cls, read from the quotient's
    [w_t, z_q] and its degree-0 basis."""
    out: dict = {}
    for t, c in cls.items():
        for q in range(res.local.npos):
            for u, a in res.local.bracket(-1, t, 1, q).items():
                for k, b in res.zero_basis[u].items():
                    vadd_into(out, {(q, 1 + k): b}, c * a)
    return out


def _engine_action(eng, el: dict) -> dict:
    """The word engine's action of a degree -1 element on the plus wing."""
    out: dict = {}
    for q in range(eng.local.npos):
        z = eng.from_vec(1, {q: F1})
        for k, c in eng.zero_coords(eng.commutator(el, z)).items():
            out[(q, k)] = c
    return out


def test_quotient_action_kernel_is_trivial():
    """Nonzero classes act nonzero: the defining invariant of the quotient,
    and each candidate acts as its class does."""
    data = CartanData(A2, lam=[1, 0])
    loc = build_local(data)
    res = local_cartanification(loc)
    span = cartan.WeightedSolver()
    for t in range(res.local.nneg):
        act = _quotient_action(res, {t: F1})
        assert act, "class %d acts by zero" % t
        assert span.add(act, res.local.neg_weights[t])
    assert span.dim() == res.local.nneg
    for p, j in _candidates(loc):
        cls = res.minus1_class(products({p: F1}, {j: F1}))
        assert res.action_coords(p, j) == _quotient_action(res, cls)


def test_unquotiented_candidates_fail_kernel_triviality():
    """Skipping the peripheral quotient leaves elements that act by zero."""
    data = CartanData(A2, lam=[1, 0])
    loc = build_local(data)
    res = local_cartanification(loc)
    span = cartan.WeightedSolver()
    count = 0
    for p, j in _candidates(loc):
        w = graded.wsum(loc.neg_weights[p], loc.zero_weights[j])
        span.add(res.action_coords(p, j), w)
        count += 1
    assert span.dim() < count          # the invariant catches the defect
    assert count - span.dim() == res.kernel_dim


def test_weighted_solver_positions_follow_basis():
    solver = cartan.WeightedSolver()
    assert solver.add({2: F1, 3: F1}, (1,))
    assert solver.add({0: F1}, (0,))
    assert not solver.add({2: 2 * F1, 3: 2 * F1}, (1,))
    assert solver.basis() == [((0,), {0: F1}), ((1,), {2: F1, 3: F1})]
    assert solver.express({2: 3 * F1, 3: 3 * F1}, (1,)) == {1: 3 * F1}
    assert solver.express({2: F1}, (1,)) is None
    assert solver.express({0: F1}, (2,)) is None
    assert solver.express({}, (2,)) == {}


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
    res = local_cartanification(loc)
    eng = LocAlgebra(loc)
    for p, j in _candidates(loc):
        el = eng.product(eng.from_vec(-1, {p: F1}), eng.from_vec(0, {j: F1}))
        assert res.action_coords(p, j) == _engine_action(eng, el), (p, j)


def _a2_local():
    return build_local(CartanData(A2, lam=[1, 0]))


def _strong_a3():
    data = CartanData(A3, lam=[1, 0, 0])
    loc = build_local(data)
    return loc, root_subalgebra(data, loc, jk_partition(data)[1])


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


@pytest.mark.parametrize("key", sorted(_a2_local().b0m))
def test_kernel_invariance_catches_corrupted_degree0_action(key):
    """Doubling one [u, x] entry breaks the derivation rule's agreement
    with the candidates' actions."""
    loc = _a2_local()
    bad = dict(loc.b0m)
    bad[key] = {k: 2 * c for k, c in bad[key].items()}
    with pytest.raises(ValueError, match="peripheral kernel is not "
                       "invariant under degree-0 brackets"):
        local_cartanification(replace(loc, b0m=bad))


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
