"""Local superalgebras, minimal graded extensions, modules, decompositions."""

import functools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import canonical
import oracles
from fixtures_gl import glvec_local, glvec_super_local, graded_gl_local
from gradedlie import cartan, graded
from gradedlie.cartan import cartanify, root_subalgebra
from gradedlie.contragredient import build_local
from gradedlie.linalg import (
    RatMatrix, kernel_basis, mat_compose, rank, rref, vadd_into)
from gradedlie.rootsys import (
    CartanData, chevalley_realization, jk_partition, weyl_dimension)

F0, F1 = Fraction(0), Fraction(1)

A2 = [[2, -1], [-1, 2]]
A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
A4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
G2 = [[2, -1], [-3, 2]]


def gl_local(n):
    """Local part of a gl(n) plus odd-vector superalgebra.

    Degree 0 is gl(n) with basis K^a_b; degree -1 holds odd vectors E_a,
    degree +1 odd covectors F^a, with [K^a_b, E_c] = -delta^a_c E_b,
    [K^a_b, F^c] = delta_b^c F^a, [F^b, E_a] = -K^b_a + delta^b_a K,
    pairing <E_a|F^b> = delta_a^b, grading element K = sum K^a_a.
    """
    pairs = [(a, b) for a in range(n) for b in range(n)]
    idx = {p: i for i, p in enumerate(pairs)}

    def kweight(a, b):
        return tuple(F1 * ((a == c) - (b == c)) for c in range(n))

    b00 = {}
    for (a, b) in pairs:
        for (c, d) in pairs:
            vec = {}
            if b == c:
                vec[idx[(a, d)]] = vec.get(idx[(a, d)], F0) + 1
            if d == a:
                vec[idx[(c, b)]] = vec.get(idx[(c, b)], F0) - 1
            vec = {k: v for k, v in vec.items() if v}
            if vec:
                b00[(idx[(a, b)], idx[(c, d)])] = vec
    b0m = {(idx[(a, b)], a): {b: -F1} for (a, b) in pairs}
    b0p = {(idx[(a, b)], b): {a: F1} for (a, b) in pairs}
    bpm = {}
    for b in range(n):
        for a in range(n):
            vec = {idx[(b, a)]: -F1}
            if a == b:
                for c in range(n):
                    vec[idx[(c, c)]] = vec.get(idx[(c, c)], F0) + 1
            bpm[(b, a)] = {k: v for k, v in vec.items() if v}
    return graded.LocalSuperalgebra(
        neg_names=[("E", a) for a in range(n)],
        neg_weights=[tuple(-F1 * (a == c) for c in range(n))
                     for a in range(n)],
        neg_parities=[1] * n,
        zero_names=[("K", a, b) for (a, b) in pairs],
        zero_weights=[kweight(a, b) for (a, b) in pairs],
        zero_parities=[0] * len(pairs),
        pos_names=[("F", a) for a in range(n)],
        pos_weights=[tuple(F1 * (a == c) for c in range(n))
                     for a in range(n)],
        pos_parities=[1] * n,
        b00=b00, b0m=b0m, b0p=b0p, bpm=bpm,
        pairing={(a, a): F1 for a in range(n)},
        grading={idx[(a, a)]: F1 for a in range(n)},
    )


def principal_local(data, odd=()):
    """h_i at degree 0, simple e_i/f_i at degrees +-1, odd for the nodes
    in ``odd`` and even otherwise."""
    r = data.r
    parities = [int(i in odd) for i in range(r)]
    zero_w = (F0,) * r
    labels = [tuple(Fraction(data.a[j][i]) for j in range(r))
              for i in range(r)]
    return graded.LocalSuperalgebra(
        neg_names=[("f", i) for i in range(r)],
        neg_weights=[tuple(-x for x in labels[i]) for i in range(r)],
        neg_parities=parities,
        zero_names=[("h", i) for i in range(r)],
        zero_weights=[zero_w] * r,
        zero_parities=[0] * r,
        pos_names=[("e", i) for i in range(r)],
        pos_weights=labels,
        pos_parities=list(parities),
        b00={},
        b0m={(i, j): {j: Fraction(-data.a[i][j])} for i in range(r)
             for j in range(r) if data.a[i][j]},
        b0p={(i, j): {j: Fraction(data.a[i][j])} for i in range(r)
             for j in range(r) if data.a[i][j]},
        bpm={(i, i): {i: F1} for i in range(r)},
        pairing={(i, i): data.epsilon[i] for i in range(r)},
    )


def pgl_local():
    """pgl(3|2) graded by the degrees 0, 1, 1, 2, 2 of its vector basis,
    which is even, odd, even, odd, even: degree 0 has odd letters and the
    minimal extension reaches degree +-2."""
    return graded_gl_local((0, 1, 0, 1, 0), (0, 1, 1, 2, 2))


def osp14_local():
    """osp(1|4) in its principal grading: node 0 even, node 1 odd with
    [f_1, f_1] != 0, so degree -1 mixes parities."""
    return principal_local(CartanData([[2, -1], [-2, 2]], [1, 2]), odd=(1,))


def test_gl_local_axioms():
    rep = graded.check_local_axioms(gl_local(2))
    assert rep["passed"], rep["checks"]
    names = [c["name"] for c in rep["checks"]]
    assert names == ["jacobi_in_range", "grading_element",
                     "pairing_homogeneity", "pairing_invariance"]


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2), (0, 2)])
def test_gl_super_local_axioms(m, n):
    loc = glvec_super_local(m, n)
    assert set(loc.zero_parities) == ({0, 1} if m and n else {0})
    rep = graded.check_local_axioms(loc)
    assert rep["passed"], rep["checks"]


def test_gl_super_local_without_odd_indices_is_glvec():
    assert glvec_super_local(3, 0) == glvec_local(3)


def test_pgl_extension_is_pgl():
    """The minimal extension of the slice of pgl(V) is pgl(V): degree d
    is spanned by the e_ij with deg(i) - deg(j) = d, less the identity."""
    loc = pgl_local()
    assert graded.check_local_axioms(loc)["passed"]
    assert set(loc.zero_parities) == set(loc.neg_parities) == {0, 1}
    ext = graded.minimal_extension(loc, (-3, 3))
    assert ext.dims() == {-3: 0, -2: 2, -1: 6, 0: 8, 1: 6, 2: 2, 3: 0}


def _table_bracket(loc, da, a, db, b):
    """A local bracket read off the one-sided tables, the other
    orientation by super-antisymmetry."""
    tables = {(0, 0): loc.b00, (0, -1): loc.b0m, (0, 1): loc.b0p,
              (1, -1): loc.bpm}
    if (da, db) in tables:
        return tables[(da, db)].get((a, b), {})
    sign = -1 if loc.parities_at(da)[a] and loc.parities_at(db)[b] else 1
    return {k: -sign * c for k, c in tables[(db, da)].get((b, a), {}).items()}


@pytest.mark.parametrize("make", [
    lambda: gl_local(2), osp14_local,
    lambda: build_local(CartanData(A2, lam=(1, 0)))],
    ids=["gl2", "osp14", "a2-contragredient"])
def test_local_brackets_are_the_tables(monkeypatch, make):
    # one evaluator over the three layers, built once, answers every
    # bracket the tables hold
    built = []
    layers = graded._local_layers
    monkeypatch.setattr(graded, "_local_layers",
                        lambda loc: built.append(loc) or layers(loc))
    loc = make()
    degrees = (-1, 0, 1)
    for da in degrees:
        for db in degrees:
            for a in range(len(loc.names_at(da))):
                for b in range(len(loc.names_at(db))):
                    if abs(da + db) > 1:
                        with pytest.raises(ValueError,
                                           match="leaves the slice"):
                            loc.bracket(da, a, db, b)
                    else:
                        assert loc.bracket(da, a, db, b) == \
                            _table_bracket(loc, da, a, db, b)
    graded.minimal_extension(loc, (-2, 2))
    assert sum(other is loc for other in built) == 1


def test_corrupted_local_fails():
    loc = gl_local(2)
    (key, vec) = next(iter(loc.b0m.items()))
    loc = replace(loc, b0m={**loc.b0m, key: {k: -v for k, v in vec.items()}})
    rep = graded.check_local_axioms(loc)
    assert not rep["passed"]
    bad = [c for c in rep["checks"] if not c["passed"]]
    assert any(c["witnesses"] for c in bad)


def test_tables_are_read_only_after_first_use():
    """A local part reads its tables once, so an entry assigned later
    would be ignored: assignment raises instead."""
    loc = gl_local(2)
    assert graded.check_local_axioms(loc)["passed"]
    key = next(iter(loc.b0m))
    with pytest.raises(TypeError):
        loc.b0m[key] = {}
    for table in (loc.b00, loc.b0p, loc.bpm):
        with pytest.raises(TypeError):
            table[key] = {}


def test_gl_extension_dims():
    # the minimal extension of the gl(n|1)-type local is sl(n|1) itself:
    # nothing survives beyond degrees -1..1
    for n in (2, 3):
        ext = graded.minimal_extension(gl_local(n), (-3, 3))
        assert ext.dims() == {-3: 0, -2: 0, -1: n, 0: n * n, 1: n,
                              2: 0, 3: 0}


def test_gl_odd_squares_vanish():
    ext = graded.minimal_extension(gl_local(2), (-2, 2))
    for i in range(2):
        for j in range(2):
            assert ext.bracket((-1, {i: F1}), (-1, {j: F1})) == (-2, {})
            assert ext.bracket((1, {i: F1}), (1, {j: F1})) == (2, {})


def test_principal_extension_matches_root_spaces():
    data = CartanData(G2, [1, 3])
    ext = graded.minimal_extension(principal_local(data), (-5, 5))
    assert ext.dims() == {-5: 1, -4: 1, -3: 1, -2: 1, -1: 2, 0: 2,
                          1: 2, 2: 1, 3: 1, 4: 1, 5: 1}


def test_degree_range_validation():
    with pytest.raises(ValueError):
        graded.minimal_extension(gl_local(2), (0, 1))
    with pytest.raises(ValueError):
        graded.minimal_extension(gl_local(2), (-1, 0))


def test_bracket_outside_range_raises():
    ext = graded.minimal_extension(principal_local(CartanData(A2)), (-2, 2))
    with pytest.raises(ValueError):
        ext.bracket((-2, {0: F1}), (-1, {0: F1}))


def test_engine_jacobi_sampled():
    """Super Jacobi across all stored degrees, 200 sampled triples each."""
    rng = random.Random(20260818)
    exts = [
        graded.minimal_extension(principal_local(CartanData(G2, [1, 3])),
                                 (-5, 5)),
        graded.minimal_extension(gl_local(3), (-2, 2)),
        graded.minimal_extension(osp14_local(), (-4, 4)),
        graded.minimal_extension(glvec_super_local(2, 1), (-3, 3)),
        graded.minimal_extension(pgl_local(), (-3, 3)),
    ]
    for ext in exts:
        degs = ext.degrees()
        checked = 0
        while checked < 200:
            d1, d2, d3 = (rng.choice(degs) for _ in range(3))
            if any(s not in ext.layers for s in
                   (d1 + d2, d2 + d3, d1 + d3, d1 + d2 + d3)):
                continue
            if not all(ext.layer(d).dim for d in (d1, d2, d3)):
                continue
            i = rng.randrange(ext.layer(d1).dim)
            j = rng.randrange(ext.layer(d2).dim)
            k = rng.randrange(ext.layer(d3).dim)
            lhs = ext.bracket(ext.bracket((d1, {i: F1}), (d2, {j: F1})),
                              (d3, {k: F1}))[1]
            r1 = ext.bracket((d1, {i: F1}),
                             ext.bracket((d2, {j: F1}), (d3, {k: F1})))[1]
            r2 = ext.bracket((d2, {j: F1}),
                             ext.bracket((d1, {i: F1}), (d3, {k: F1})))[1]
            sgn = -F1 if (ext.parity(d1, i) and ext.parity(d2, j)) else F1
            diff = dict(lhs)
            for t, c in r1.items():
                diff[t] = diff.get(t, F0) - c
            for t, c in r2.items():
                diff[t] = diff.get(t, F0) + sgn * c
            assert not any(diff.values()), (d1, i, d2, j, d3, k)
            checked += 1


def test_engine_antisymmetry_sampled():
    rng = random.Random(7)
    exts = [
        graded.minimal_extension(principal_local(CartanData(G2, [1, 3])),
                                 (-5, 5)),
        graded.minimal_extension(glvec_super_local(2, 1), (-3, 3)),
        graded.minimal_extension(pgl_local(), (-3, 3)),
    ]
    for ext in exts:
        degs = ext.degrees()
        checked = 0
        while checked < 200:
            d1, d2 = rng.choice(degs), rng.choice(degs)
            if d1 + d2 not in ext.layers:
                continue
            if not (ext.layer(d1).dim and ext.layer(d2).dim):
                continue
            i = rng.randrange(ext.layer(d1).dim)
            j = rng.randrange(ext.layer(d2).dim)
            ab = ext.bracket((d1, {i: F1}), (d2, {j: F1}))[1]
            ba = ext.bracket((d2, {j: F1}), (d1, {i: F1}))[1]
            sgn = -F1 if (ext.parity(d1, i) and ext.parity(d2, j)) else F1
            diff = dict(ab)
            for t, c in ba.items():
                diff[t] = diff.get(t, F0) + sgn * c
            assert not any(diff.values())
            checked += 1


def test_raising_kernel_trivial():
    """Nothing at degree -k (k >= 2) is killed by all of degree +1."""
    ext = graded.minimal_extension(principal_local(CartanData(G2, [1, 3])),
                                   (-5, 5))
    for d in ext.degrees():
        if abs(d) < 2 or not ext.layer(d).dim:
            continue
        lay = ext.layer(d)
        rows = {}
        entries = {}
        for z, m in enumerate(lay.opp_map):
            for src, vec in m.items():
                for tgt, c in vec.items():
                    rk = rows.setdefault((z, tgt), len(rows))
                    entries[(rk, src)] = c
        mat = RatMatrix(max(len(rows), 1), lay.dim, entries)
        assert kernel_basis(mat) == []


def test_extension_deterministic():
    a = graded.minimal_extension(principal_local(CartanData(A2)), (-2, 2))
    b = graded.minimal_extension(principal_local(CartanData(A2)), (-2, 2))
    assert a.dims() == b.dims()
    for d in a.degrees():
        assert a.layer(d).weights == b.layer(d).weights
    assert a.bracket((1, {0: F1}), (-2, {0: F1})) == \
        b.bracket((1, {0: F1}), (-2, {0: F1}))


def test_extension_local_roundtrip():
    """Rebuilding the local part from the extension's own brackets and
    re-extending reproduces the extension degree for degree."""
    data = CartanData(A2)
    loc = principal_local(data)
    ext = graded.minimal_extension(loc, (-2, 2))
    b00 = {}
    b0m = {}
    b0p = {}
    bpm = {}
    for i in range(loc.nzero):
        for j in range(loc.nzero):
            v = ext.bracket((0, {i: F1}), (0, {j: F1}))[1]
            if v:
                b00[(i, j)] = v
        for j in range(loc.nneg):
            v = ext.bracket((0, {i: F1}), (-1, {j: F1}))[1]
            if v:
                b0m[(i, j)] = v
        for j in range(loc.npos):
            v = ext.bracket((0, {i: F1}), (1, {j: F1}))[1]
            if v:
                b0p[(i, j)] = v
    for z in range(loc.npos):
        for x in range(loc.nneg):
            v = ext.bracket((1, {z: F1}), (-1, {x: F1}))[1]
            if v:
                bpm[(z, x)] = v
    loc2 = graded.LocalSuperalgebra(
        neg_names=loc.neg_names, neg_weights=loc.neg_weights,
        neg_parities=loc.neg_parities, zero_names=loc.zero_names,
        zero_weights=loc.zero_weights, zero_parities=loc.zero_parities,
        pos_names=loc.pos_names, pos_weights=loc.pos_weights,
        pos_parities=loc.pos_parities,
        b00=b00, b0m=b0m, b0p=b0p, bpm=bpm)
    ext2 = graded.minimal_extension(loc2, (-2, 2))
    assert ext2.dims() == ext.dims()
    for d in ext.degrees():
        assert ext2.layer(d).weights == ext.layer(d).weights


def test_mixed_parity_extension_dims():
    # osp(1|4): positive roots d1-d2, d2 (odd) | d1 (odd), 2 d2 | d1+d2 | 2 d1;
    # degree -2 is spanned by [f_0, f_1] and the odd square [f_1, f_1]
    ext = graded.minimal_extension(osp14_local(), (-5, 5))
    assert ext.dims() == {-5: 0, -4: 1, -3: 1, -2: 2, -1: 2, 0: 2,
                          1: 2, 2: 2, 3: 1, 4: 1, 5: 0}
    assert graded.check_local_axioms(osp14_local())["passed"]


@pytest.mark.parametrize("make_local, parities, dim2", [
    (lambda: cartanify(glvec_local(3), degree_range=(-2, 1)).local, {1}, 3),
    (osp14_local, {0, 1}, 2),
    (lambda: glvec_super_local(2, 1), {0, 1}, 0),
    (pgl_local, {0, 1}, 2),
], ids=["W3", "osp14", "gl21", "pgl32"])
def test_degree_two_candidates_are_super_antisymmetric(make_local, parities,
                                                       dim2, monkeypatch):
    """The extension to degree -2 takes the candidates (u, x) with u <= x
    only, and fills [u, x] for u > x as -(-1)^{|u||x|} [x, u].  On gl(2|1)
    and pgl(2|3) degree 0 has odd letters, and degree -2 has the right
    dimension only if the T-values carry the sign (-1)^{|u||a|} of
    [u, a] = -(-1)^{|u||a|} [a, u]."""
    loc = make_local()
    assert set(loc.neg_parities) == parities
    calls = []
    quotient = graded.weight_block_quotient

    def spy(cands, weight, values, data=None):
        cands = list(cands)
        calls.append(cands)
        return quotient(cands, weight, values, data)

    monkeypatch.setattr(graded, "weight_block_quotient", spy)
    ext = graded.minimal_extension(loc, (-2, 1))
    n = loc.nneg
    assert [len(c) for c in calls] == [n * (n + 1) // 2]
    assert all(u <= x for u, x in calls[0])

    layer = ext.layer(-2)
    assert layer.dim == dim2
    assert set(layer.reduce) == {(u, x) for u in range(n) for x in range(n)}
    for u in range(n):
        for x in range(u):
            odd = loc.neg_parities[u] and loc.neg_parities[x]
            sign = F1 if odd else -F1
            assert layer.reduce[(u, x)] == \
                {t: sign * c for t, c in layer.reduce[(x, u)].items()}


def _tables(ext):
    return [[d, lay.names, lay.weights, lay.parities, lay.tensor_parent,
             lay.reduce, lay.opp_map, lay.act0]
            for d, lay in sorted(ext.layers.items())]


def _strong_a3w1():
    data = CartanData(A3, lam=[1, 0, 0])
    local = build_local(data)
    return cartanify(local, degree_range=(-3, 1), restriction=root_subalgebra(
        local, jk_partition(data)[1])).graded


_TABLE_CASES = {
    "glvec4": lambda: graded.minimal_extension(glvec_local(4), (-4, 4)),
    "osp14": lambda: graded.minimal_extension(osp14_local(), (-4, 4)),
    "G2": lambda: graded.minimal_extension(
        principal_local(CartanData(G2, [1, 3])), (-5, 5)),
    "A3w1": lambda: cartanify(build_local(CartanData(A3, lam=[1, 0, 0])),
                              degree_range=(-3, 1)).graded,
    # the strong cartanification solves each b0m move over its minus basis
    "A3w1-S": _strong_a3w1,
    "gl21": lambda: graded.minimal_extension(glvec_super_local(2, 1),
                                             (-3, 3)),
    "pgl32": lambda: graded.minimal_extension(pgl_local(), (-3, 3)),
}

_TABLE_DIGESTS = {
    "glvec4": "a4968c3088b759bbb66c7c94a0ee35fc56f6f55ad4e44a72587087c75a91b13b",
    "osp14": "d1382638e9bc632554a9a28a5c2eb226b4391aaaa2160934c37290d9ae616f6f",
    "G2": "4f31f09662821c87e3269ea1f71d2c4d782f26402cf80227dd9e4d6b85cf7113",
    "A3w1": "9e83f8a7e95a29429d6177b5c6a29a6946431ece6545c61082e6fc8c95fdb951",
    "A3w1-S": "faab727d1ad440f5a6c94555ae47ceca00f5df447dff2d6e313282c9ef6010a9",
    "gl21": "46a2730c1035956d0aa667d99591ba2f4565291d15ecc468819d5b2427495cc7",
    "pgl32": "0d7c779d635380c9cf1aaedcc45775a89ac52da7a59537a8347791edfef1bbc1",
}


@pytest.mark.parametrize("name", sorted(_TABLE_CASES))
def test_extension_table_digests(name):
    """Every layer table of the extension -- names, weights, parities,
    tensor definitions and the reduce, opposite and degree-0 action maps --
    pinned by value, so that no class moves unnoticed, and every number in
    them in the package's normal form."""
    tables = _tables(_TABLE_CASES[name]())
    assert canonical.digest(tables) == _TABLE_DIGESTS[name]
    canonical.assert_normal_form(tables)


@pytest.mark.parametrize("make_local", [
    osp14_local,
    lambda: glvec_local(3),
    lambda: cartanify(glvec_local(3), degree_range=(-1, 1)).local,
], ids=["osp14", "glvec3", "W3"])
def test_non_integral_weights(make_local):
    """Scaling every weight of the local part by 1/3 scales the weights of
    the extension by 1/3 and changes nothing else: block keys and block
    order do not depend on the weights being integral."""
    loc = make_local()
    third = Fraction(1, 3)

    def scaled(weights):
        return [tuple(third * c for c in w) for w in weights]

    loc3 = replace(loc, neg_weights=scaled(loc.neg_weights),
                   zero_weights=scaled(loc.zero_weights),
                   pos_weights=scaled(loc.pos_weights))
    ext = graded.minimal_extension(loc, (-4, 4))
    ext3 = graded.minimal_extension(loc3, (-4, 4))
    for d, lay in ext.layers.items():
        lay3 = ext3.layer(d)
        assert lay3.weights == scaled(lay.weights)
        lay3 = replace(lay3, weights=lay.weights)
        assert canonical.render(lay3.__dict__) == canonical.render(lay.__dict__)


# -- modules and decompositions ---------------------------------------------


def test_module_dims():
    g2 = chevalley_realization(CartanData(A2))
    assert graded.lowest_weight_module(g2, (0, 0)).dim == 1
    assert graded.lowest_weight_module(g2, (1, 0)).dim == 3
    assert graded.lowest_weight_module(g2, (1, 1)).dim == 8
    assert graded.lowest_weight_module(g2, (3, 0)).dim == 10
    g4 = chevalley_realization(CartanData(A4))
    for lab, dim in [((0, 1, 0, 0), 10), ((2, 0, 0, 0), 15),
                     ((0, 0, 1, 1), 40)]:
        m = graded.lowest_weight_module(g4, lab)
        assert m.dim == dim == weyl_dimension(CartanData(A4), lab)
    gd = chevalley_realization(CartanData(D4))
    assert graded.lowest_weight_module(gd, (0, 0, 1, 1)).dim == 56


def test_module_lowest_vector():
    g = chevalley_realization(CartanData(A2))
    m = graded.lowest_weight_module(g, (1, 1))
    assert m.weights[m.lowest] == (-1, -1)
    for i in range(2):
        fi = g.index[("f", g.simple_root_index(i))]
        assert m.apply(fi, {m.lowest: F1}) == {}


def test_module_respects_brackets():
    """act([x,y]) = act(x)act(y) - act(y)act(x) over all basis pairs."""
    g = chevalley_realization(CartanData(A2))
    m = graded.lowest_weight_module(g, (1, 1))

    def apply_vec(coeffs, vec):
        out = {}
        for gi, c in coeffs.items():
            for tgt, v in m.apply(gi, vec).items():
                s = out.get(tgt, F0) + c * v
                if s:
                    out[tgt] = s
                else:
                    out.pop(tgt, None)
        return out

    for i in range(g.dim):
        for j in range(g.dim):
            tab = dict(g.bracket(i, j))
            for src in range(m.dim):
                lhs = apply_vec(tab, {src: F1})
                rhs = m.apply(i, m.apply(j, {src: F1}))
                for tgt, v in m.apply(j, m.apply(i, {src: F1})).items():
                    s = rhs.get(tgt, F0) - v
                    if s:
                        rhs[tgt] = s
                    else:
                        rhs.pop(tgt, None)
                assert lhs == rhs, (g.names[i], g.names[j], src)


def test_module_string_identity():
    """(e_i f_i^p) v = p ((alpha_i^vee, mu) - p + 1) f_i^{p-1} v on a
    highest-weight vector v."""
    g = chevalley_realization(CartanData(A2))
    m = graded.lowest_weight_module(g, (3, 0))
    # the highest weight of R(3,0) read off the built weights
    top = max(range(m.dim), key=lambda s: sum(m.weights[s]))
    mu = m.weights[top]
    i = max(range(2), key=lambda n: mu[n])
    assert mu[i] > 0
    si = g.simple_root_index(i)
    e, f = g.index[("e", si)], g.index[("f", si)]
    vec = {top: F1}
    for p in range(1, int(mu[i]) + 2):
        prev = dict(vec)
        vec = m.apply(f, vec)
        got = m.apply(e, vec)
        want = {k: p * (mu[i] - p + 1) * c for k, c in prev.items()
                if p * (mu[i] - p + 1) * c}
        assert got == want, p


def test_decompose_module():
    g = chevalley_realization(CartanData(A2))
    data = CartanData(A2)
    m = graded.lowest_weight_module(g, (1, 1))
    raisers = [m.act[g.index[("e", g.simple_root_index(i))]]
               for i in range(2)]
    assert graded.decompose_module(m.weights, raisers, data) == \
        [((1, 1), 1, 8)]
    # direct sum: shift indices of a second copy
    m2 = graded.lowest_weight_module(g, (1, 0))
    n = m.dim
    weights = list(m.weights) + list(m2.weights)
    raisers2 = []
    for i in range(2):
        a = dict(m.act[g.index[("e", g.simple_root_index(i))]])
        for src, vec in m2.act[g.index[("e", g.simple_root_index(i))]].items():
            a[src + n] = {tgt + n: c for tgt, c in vec.items()}
        raisers2.append(a)
    # R(1,0) is built from lowest weight -(1,0); its highest weight is the
    # dual (0,1)
    assert graded.decompose_module(weights, raisers2, data) == \
        [((0, 1), 1, 3), ((1, 1), 1, 8)]


def test_decompose_module_mismatch_raises():
    data = CartanData(A2)
    # a lone non-highest weight vector cannot be a module
    with pytest.raises(ValueError):
        graded.decompose_module([(-1, -1)], [dict(), dict()], data)


# -- the weight-block quotient on random sparse T-values ---------------------

# small rationals, half of them zero, so that blocks are often dependent;
# the nonzero ones are ints and Fractions, some of them Fraction(n, 1)
_RATIONALS = st.one_of(
    st.just(0), st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))


@st.composite
def _weight_blocks(draw):
    """Candidates ("c", n), each with a weight in {(0,), (1,), (2,)} and
    T-values {z: vec} under two acting elements z, sparse over the keys
    0..2.  The candidates of one weight may have only zero T-values, and
    the zero vectors may be left out."""
    n = draw(st.integers(1, 8))
    cands = [("c", i) for i in range(n)]
    weights = [(draw(st.integers(0, 2)),) for _ in cands]
    zero_weight = draw(st.sampled_from([None, (0,), (1,), (2,)]))
    drop_zero = draw(st.booleans())
    t_vals = []
    for w in weights:
        vals = {}
        for z in range(2):
            entries = [] if w == zero_weight else \
                [draw(_RATIONALS) for _ in range(3)]
            vec = {k: v for k, v in enumerate(entries) if v}
            if vec or not drop_zero:
                vals[z] = vec
        t_vals.append(vals)
    return cands, weights, t_vals


def _column(vals):
    return {(z, k): c for z, vec in vals.items() for k, c in vec.items()}


def _dense_block(columns):
    """The elimination's former input: one weight block as a RatMatrix,
    rows keyed in first-seen order, at least one row."""
    row_index: dict = {}
    entries = {}
    for col, vec in enumerate(columns):
        for key, c in vec.items():
            entries[(row_index.setdefault(key, len(row_index)), col)] = c
    return RatMatrix(max(len(row_index), 1), len(columns), entries)


@settings(max_examples=120, deadline=None)
@given(_weight_blocks())
def test_weight_block_quotient(case):
    cands, weights, t_vals = case
    vals_of = dict(zip(cands, t_vals))
    kept, classes = graded.weight_block_quotient(
        cands, dict(zip(cands, weights)).__getitem__, vals_of.__getitem__)
    canonical.assert_normal_form(classes)
    t_of = {c: _column(vals) for c, vals in zip(cands, t_vals)}
    kept_cands = {c for _, c, _ in kept}

    expected_kept = []
    for w in sorted(set(weights)):
        blk = [c for c, cw in zip(cands, weights) if cw == w]
        mat = _dense_block([t_of[c] for c in blk])
        red, piv = rref(mat)
        expected_kept += [(w, blk[p], vals_of[blk[p]]) for p in piv]
        # each class is its column of the dense RREF, over the block's kept
        # candidates in pivot order
        base = len([k for k in expected_kept if k[0] < w])
        for col, c in enumerate(blk):
            assert classes[c] == {base + r: red[r, col]
                                  for r in range(len(piv)) if red[r, col]}
        # the kernel vector of each free column is the candidate minus its
        # class over the kept candidates, written over the block
        pos = {c: i for i, c in enumerate(blk)}
        got = []
        for c in blk:
            if c in kept_cands:
                continue
            vec = [F0] * len(blk)
            vec[pos[c]] = F1
            for t, coeff in classes[c].items():
                vec[pos[kept[t][1]]] -= coeff
            got.append(tuple(vec))
        assert got == kernel_basis(mat)
    assert kept == expected_kept

    # each class reproduces its candidate's T-values from the kept ones;
    # a candidate with zero T-values has the zero class
    assert list(classes) == [c for w in sorted(set(weights))
                             for c, cw in zip(cands, weights) if cw == w]
    for c in cands:
        rebuilt: dict = {}
        for t, coeff in classes[c].items():
            vadd_into(rebuilt, t_of[kept[t][1]], coeff)
        assert rebuilt == t_of[c]
        if not t_of[c]:
            assert classes[c] == {}


@pytest.fixture
def valuations(monkeypatch):
    """Per ``weight_block_quotient`` call, wherever it is made: its
    candidates, its weight function and its events in order: first
    ("datum", the Cartan datum handed in or None), then ("value",
    candidate) when a candidate is valued and ("reduce", (column count,
    rank)) when a block is reduced."""
    calls = []
    quotient, reduce = graded.weight_block_quotient, graded.reduce_columns

    def spy(cands, weight, values, data=None):
        cands, events = list(cands), [("datum", data)]
        calls.append((cands, weight, events))

        def logged(cand):
            events.append(("value", cand))
            return values(cand)

        return quotient(cands, weight, logged, data)

    def reduce_spy(columns):
        piv, red = reduce(columns)
        calls[-1][2].append(("reduce", (len(columns), len(piv))))
        return piv, red

    for module in (graded, cartan):
        monkeypatch.setattr(module, "weight_block_quotient", spy)
    monkeypatch.setattr(graded, "reduce_columns", reduce_spy)
    return calls


def _valued_blocks(cands, weight, events):
    """The datum of one logged quotient call and its reduced blocks in
    order, as (weight, rank), after checking that each block is one whole
    weight block, valued in candidate order just before it is reduced and
    at most once."""
    (kind, datum), *events = events
    assert kind == "datum"
    by_weight: dict = {}
    for c in cands:
        by_weight.setdefault(weight(c), []).append(c)
    blocks, block = [], []
    for kind, item in events:
        if kind == "value":
            block.append(item)
            continue
        count, rank_ = item
        assert block and count == len(block)
        w = weight(block[0])
        assert block == by_weight[w]
        blocks.append((w, rank_))
        block = []
    assert block == []
    assert len({w for w, _ in blocks}) == len(blocks)
    return datum, by_weight, blocks


def _check_valuation_order(calls) -> int:
    """Check every logged quotient call: without a datum every block is
    valued, in weight order; with one the dominant blocks come first, then
    those whose dominant conjugate kept something, each part in weight
    order, and no other block is valued.  Returns the number of skipped
    blocks."""
    skipped = 0
    for cands, weight, events in calls:
        datum, by_weight, blocks = _valued_blocks(cands, weight, events)
        order = [w for w, _ in blocks]
        if datum is None:
            assert order == sorted(by_weight)
            continue
        dom = {w: oracles.dominant_conjugate(datum, w) for w in by_weight}
        first = sorted(w for w in by_weight if dom[w] == w)
        assert order[:len(first)] == first
        ranks = dict(blocks[:len(first)])
        rest = sorted(w for w in by_weight
                      if dom[w] != w and ranks.get(dom[w]))
        assert order[len(first):] == rest
        skipped += len(by_weight) - len(order)
    return skipped


def test_each_block_is_valued_when_it_is_reduced(valuations):
    """Each block is valued at most once, just before it is reduced: every
    block in weight order where no datum is handed in (the lowest-weight
    module, the cartanification and the decomposition), and in the
    extension of the cartanification the dominant blocks first, so that a
    block Weyl symmetry proves empty is never valued."""
    data = CartanData([[2, -2], [-1, 2]], [2, 1], lam=(0, 1))
    g_alg = cartanify(build_local(data), degree_range=(-3, 1)).graded
    graded.decompose_at_degree(g_alg, -2)
    assert len(valuations) > 4
    assert _check_valuation_order(valuations) > 0
    datums = [events[0][1] for _, _, events in valuations]
    assert datums.count(data) == 2      # the extension to -2 and to -3


def test_count_values_only_dominant_candidates(valuations):
    data = CartanData(A2, lam=(1, 0))
    cart = cartanify(build_local(data), degree_range=(-1, 1)).graded
    valuations.clear()
    assert graded.count_next_layer(cart, -1) == 3
    (_, weight, events), = valuations
    cands = list(graded._tensor_candidates(cart.layers, -1, 1)[0])
    dominant = [c for c in cands if min(weight(c)) >= 0]
    assert 0 < len(dominant) < len(cands)
    assert sorted(c for kind, c in events if kind == "value") == dominant


# -- decomposition multiplicities on generated modules -----------------------

_A2_DATA = CartanData(A2)
_A2_ALGEBRA = chevalley_realization(_A2_DATA)
_A2_LABELS = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]
# positions of the simple raising operators e_0, e_1 in the A2 basis
_A2_E = [_A2_ALGEBRA.index[("e", _A2_ALGEBRA.simple_root_index(i))]
         for i in range(2)]


@functools.cache
def _a2_module(lam):
    return graded.lowest_weight_module(_A2_ALGEBRA, lam)


@st.composite
def _raised_modules(draw):
    """A direct sum of one to three irreducible A2-modules, its basis
    changed inside weight blocks by a few elementary moves v_i += c v_j, so
    that its raising matrices no longer split along the summands.
    Returns the weights, the raising matrices and the summands' labels."""
    labels = draw(st.lists(st.sampled_from(_A2_LABELS),
                           min_size=1, max_size=3))
    weights: list = []
    raisers = [dict() for _ in range(2)]
    for lam in labels:
        m = _a2_module(lam)
        base = len(weights)
        weights += m.weights
        for i, e in enumerate(_A2_E):
            for src, vec in m.act[e].items():
                raisers[i][base + src] = {base + t: c for t, c in vec.items()}
    n = len(weights)
    same = [(i, j) for i in range(n) for j in range(n)
            if i != j and weights[i] == weights[j]]
    for _ in range(draw(st.integers(0, 4)) if same else 0):
        i, j = draw(st.sampled_from(same))
        c = draw(st.sampled_from([1, -1, 2, Fraction(1, 2)]))
        # new basis in old coordinates (to) and old basis in new (back)
        to = {k: {k: 1} for k in range(n)}
        back = {k: {k: 1} for k in range(n)}
        to[i], back[i] = {i: 1, j: c}, {i: 1, j: -c}
        raisers = [mat_compose(back, mat_compose(r, to)) for r in raisers]
    return weights, raisers, labels


@settings(max_examples=40, deadline=None)
@given(_raised_modules())
def test_decompose_module_multiplicity_is_block_size_minus_rank(case):
    """Each highest weight's multiplicity is its weight block's size minus
    the rank of the raising matrices stacked on that block, and the
    summands are those of the direct sum."""
    weights, raisers, labels = case
    found = graded.decompose_module(weights, raisers, _A2_DATA)
    mults = {w: mult for w, mult, _ in found}
    for w in set(weights):
        blk = [s for s, sw in enumerate(weights) if sw == w]
        mat = _dense_block([{(i, t): c for i, r in enumerate(raisers)
                             for t, c in r.get(s, {}).items()} for s in blk])
        assert mults.get(w, 0) == len(blk) - rank(mat)
    expected: dict = {}
    for lam in labels:
        m = _a2_module(lam)
        for w, mult, dim in graded.decompose_module(
                m.weights, [m.act[e] for e in _A2_E], _A2_DATA):
            expected[(w, dim)] = expected.get((w, dim), 0) + mult
    assert found == sorted(((w, m, d) for (w, d), m in expected.items()),
                           key=lambda t: (t[2], t[0]))


# -- the layer beyond the outermost, counted by Weyl orbits ------------------

# finite types with their canonical symmetrizers, named as in test_rootsys
_FINITE_TYPES = [
    ([[2]], None), (A2, None), (A3, None), (A4, None),
    ([[2, -2], [-1, 2]], [2, 1]),
    ([[2, -1, 0], [-1, 2, -2], [0, -1, 2]], [2, 2, 1]),
    ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], [1, 1, 2]),
    (D4, None), (G2, [1, 3]),
]


def _window(g_alg, lo, hi):
    """The stored layers of degrees lo..hi as an algebra of their own."""
    return graded.GradedSuperalgebra(
        g_alg.local, {d: g_alg.layers[d] for d in range(lo, hi + 1)})


@st.composite
def _cartan_data(draw):
    """A finite-type datum with labels 0 or 1, not all 0.  Its degree +1
    part has at most 10 dimensions, which keeps the full builds to
    compare against quick."""
    a, eps = draw(st.sampled_from(_FINITE_TYPES))
    lam = draw(st.lists(st.integers(0, 1), min_size=len(a),
                        max_size=len(a)).filter(any))
    data = CartanData(a, eps, lam)
    assume(weyl_dimension(data, lam) <= 10)
    return data


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_cartan_data())
def test_counted_layer_is_the_built_one(data):
    local = build_local(data)
    cart = cartanify(local, degree_range=(-2, 1)).graded
    assert (graded.count_next_layer(_window(cart, -1, 1), -1)
            == cart.layer(-2).dim)
    contragredient = graded.minimal_extension(local, (-3, 3))
    for lo, hi in ((-1, 1), (-2, 2)):
        window = _window(contragredient, lo, hi)
        assert (graded.count_next_layer(window, -1)
                == contragredient.layer(lo - 1).dim)
        assert (graded.count_next_layer(window, 1)
                == contragredient.layer(hi + 1).dim)


def test_count_needs_every_simple_root_vector():
    data = CartanData(A2, lam=(1, 0))
    cart = cartanify(build_local(data), degree_range=(-1, 1)).graded
    local = cart.local
    embedding = {name: vec for name, vec in local.embedding.items()
                 if name != ("f", 0)}
    broken = graded.GradedSuperalgebra(
        replace(local, embedding=embedding), cart.layers)
    with pytest.raises(ValueError, match="holds no f_0, so degree -2 "
                                         "cannot be counted"):
        graded.count_next_layer(broken, -1)
    assert graded.count_next_layer(cart, -1) == 3


def test_count_of_an_empty_degree_zero():
    # K is empty, so the strong cartanification of A1 w1 is zero in
    # degrees -1 and 0 and holds no e_0 to count degree -2 with
    data = CartanData([[2]], lam=[1])
    local = build_local(data)
    strong = root_subalgebra(local, jk_partition(data)[1])
    cart = cartanify(local, degree_range=(-1, 1), restriction=strong).graded
    assert cart.dims() == {-1: 0, 0: 0, 1: 2}
    with pytest.raises(ValueError, match=r"^degree 0 of this model holds no "
                                         r"e_0, so degree -2 cannot be "
                                         r"counted: "):
        graded.count_next_layer(cart, -1)


def test_count_rejects_a_non_integral_weight():
    """The gate reads the weights of the local part's three layers."""
    data = CartanData(A2, lam=(1, 0))
    cart = cartanify(build_local(data), degree_range=(-1, 1)).graded
    weights = cart.local.neg_weights
    broken = replace(cart.local, neg_weights=[
        (Fraction(1, 2),) + weights[0][1:], *weights[1:]])
    with pytest.raises(ValueError, match="not integral"):
        graded.count_next_layer(
            graded.GradedSuperalgebra(broken, cart.layers), -1)


@pytest.mark.parametrize("measure", [
    lambda g_alg: graded.count_next_layer(g_alg, -1),
    lambda g_alg: graded.decompose_at_degree(g_alg, -1),
], ids=["count", "decompose"])
def test_a_model_without_a_datum_is_neither_counted_nor_decomposed(measure):
    g_alg = graded.minimal_extension(glvec_local(4), (-1, 1))
    with pytest.raises(ValueError, match=r"^this model carries no Cartan "
                                         r"datum, so degree -[12] cannot "
                                         r"be (counted|decomposed)$"):
        measure(g_alg)


def test_the_gate_is_checked_once_per_local_part(monkeypatch):
    """Two windows of one local cartanification and a count on one of
    them read the outcome the first window's extension left on the local
    part."""
    checked = []
    check = graded._weyl_check

    def spy(local):
        checked.append(local)
        return check(local)

    monkeypatch.setattr(graded, "_weyl_check", spy)
    data = CartanData(A3, lam=(1, 0, 0))
    cart = cartan.local_cartanification(build_local(data))
    narrow, wide = cart.over((-2, 1)), cart.over((-3, 1))
    assert graded.count_next_layer(narrow.graded, -1) \
        == wide.graded.layer(-3).dim > 0
    assert checked == [cart.local]


# -- weight blocks skipped by Weyl symmetry ----------------------------------


def _weyl_gate_passes(g_alg):
    return graded._weyl_gate(g_alg.local) is None


def _assert_skip_changes_nothing(g_alg, data):
    """On every layer the extension built, the quotient of the same
    candidates keeps the same triples and classes with the datum and
    without it."""
    for d in g_alg.degrees():
        if abs(d) < 2:
            continue
        side = 1 if d > 0 else -1
        cands, weight, values = graded._tensor_candidates(
            g_alg.layers, side, abs(d) - 1)
        cands = list(cands)
        assert graded.weight_block_quotient(cands, weight, values, data) \
            == graded.weight_block_quotient(cands, weight, values)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(_cartan_data())
def test_weyl_skip_keeps_the_quotient_on_generated_data(data):
    """The contragredient model over -3..3 and the cartanification over
    -2..1: at degree -3 the latter has thousands of dimensions on some
    of these data (A2 with labels (1, 1), B3 w1, G2 w1)."""
    local = build_local(data)
    for g_alg in (graded.minimal_extension(local, (-3, 3)),
                  cartanify(local, degree_range=(-2, 1)).graded):
        assert _weyl_gate_passes(g_alg)
        _assert_skip_changes_nothing(g_alg, data)


def _a4w1(variant):
    """W(5) or S(5): the weak or strong cartanification of A4 w1 over
    degrees -5..1, with its datum."""
    data = CartanData(A4, lam=(1, 0, 0, 0))
    local = build_local(data)
    restriction = None if variant == "W" else \
        root_subalgebra(local, jk_partition(data)[1])
    return cartanify(local, degree_range=(-5, 1),
                     restriction=restriction).graded, data


@pytest.mark.parametrize("variant", ["W", "S"])
def test_weyl_skip_keeps_the_quotient_on_w5_and_s5(variant):
    g_alg, data = _a4w1(variant)
    assert _weyl_gate_passes(g_alg)
    _assert_skip_changes_nothing(g_alg, data)


def test_orbit_weight_without_candidates_raises():
    """Over A1 the weight (2,) keeps a vector, so its orbit's (-2,) is a
    weight of the quotient too; with no candidates there the quotient is
    no module, and the error names the weight."""
    with pytest.raises(ValueError, match=r"weight \(-2,\) lies in the Weyl "
                                         r"orbit"):
        graded.weight_block_quotient(
            ["x"], lambda cand: (2,), lambda cand: {0: {0: 1}},
            CartanData([[2]]))


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(_cartan_data())
def test_weak_b0m_stores_each_move_as_its_class(data):
    """The weak minus basis is the pivots' unit classes in kept order, so
    a move is its own class: the minus solver gives back every stored b0m
    value."""
    cart = cartan.local_cartanification(build_local(data))
    assert not cart.restricted and cart.local.b0m
    for vec in cart.local.b0m.values():
        assert cart._minus_solver.express(vec) == vec


@pytest.mark.parametrize("variant", ["W", "S"])
def test_weyl_skip_values_no_skipped_block(variant, valuations):
    """On W(5) and S(5) the extension values fewer than half of its
    candidates, never one of a skipped block, and each block at most once,
    just before it is reduced."""
    _a4w1(variant)
    assert _check_valuation_order(valuations) > 0
    extension = [(cands, events) for cands, _, events in valuations
                 if events[0][1] is not None]
    assert len(extension) == 4
    valued = sum(kind == "value" for _, events in extension
                 for kind, _ in events)
    assert 0 < 2 * valued < sum(len(cands) for cands, _ in extension)


@pytest.mark.parametrize("change, message", [
    ("bracket", r"^\[e_0, f_0\] is not h_0 in degree 0$"),
    ("weight", r"^h_0 does not act on basis vector 0 of degree -1 by its "
               r"label"),
])
def test_weyl_gate_rejects_a_failed_sl2_fact(change, message):
    """A contragredient local part whose [e_0, f_0] is not h_0, or whose
    degree -1 weight is not its h-eigenvalue, is neither extended nor
    counted."""
    data = CartanData(A2, lam=(1, 0))
    local = build_local(data)
    if change == "bracket":
        e, = local.embedding[("e", 0)]
        f, = local.embedding[("f", 0)]
        b00 = dict(local.b00)
        key = (e, f) if (e, f) in b00 else (f, e)
        b00[key] = {t: 2 * c for t, c in b00[key].items()}
        broken = replace(local, b00=b00)
    else:
        w = local.neg_weights[0]
        broken = replace(local, neg_weights=[
            (w[0] + 1,) + w[1:], *local.neg_weights[1:]])
    with pytest.raises(ValueError, match=message):
        graded.minimal_extension(broken, (-2, 1))
    window = graded.GradedSuperalgebra(broken, broken.brackets().layers)
    with pytest.raises(ValueError, match=message):
        graded.count_next_layer(window, -1)


def test_no_block_is_skipped_without_the_gate(valuations):
    """A local part with no datum (gl(4) on vectors) or whose degree 0
    holds no e_0 (the strong cartanification of A1 w1) is extended with
    every candidate valued."""
    graded.minimal_extension(glvec_local(4), (-3, 1))
    data = CartanData([[2]], lam=[1])
    local = build_local(data)
    strong = root_subalgebra(local, jk_partition(data)[1])
    cart = cartanify(local, degree_range=(-3, 1), restriction=strong)
    assert not _weyl_gate_passes(cart.graded)
    assert len(valuations) > 2
    assert _check_valuation_order(valuations) == 0
    for cands, _, events in valuations:
        assert events[0] == ("datum", None)
        assert sorted(c for kind, c in events if kind == "value") == \
            sorted(cands)
