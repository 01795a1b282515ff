"""Local superalgebras, minimal graded extensions, modules, decompositions."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canonical
from fixtures_gl import glvec_local, glvec_super_local, graded_gl_local
from gradedlie import graded
from gradedlie.cartan import cartanify
from gradedlie.contragredient import build_local
from gradedlie.linalg import (
    RatMatrix, kernel_basis, rref, stack_columns, vadd_into)
from gradedlie.rootsys import CartanData, chevalley_realization, weyl_dimension

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


def test_corrupted_local_fails():
    loc = gl_local(2)
    (key, vec) = next(iter(loc.b0m.items()))
    loc.b0m[key] = {k: -v for k, v in vec.items()}
    rep = graded.check_local_axioms(loc)
    assert not rep["passed"]
    bad = [c for c in rep["checks"] if not c["passed"]]
    assert any(c["witnesses"] for c in bad)


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

    def spy(cands, weights, t_vals):
        cands = list(cands)
        calls.append(cands)
        return quotient(cands, weights, t_vals)

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


_TABLE_CASES = {
    "glvec4": lambda: graded.minimal_extension(glvec_local(4), (-4, 4)),
    "osp14": lambda: graded.minimal_extension(osp14_local(), (-4, 4)),
    "G2": lambda: graded.minimal_extension(
        principal_local(CartanData(G2, [1, 3])), (-5, 5)),
    "A3w1": lambda: cartanify(build_local(CartanData(A3, lam=[1, 0, 0])),
                              degree_range=(-3, 1)).graded,
    "gl21": lambda: graded.minimal_extension(glvec_super_local(2, 1),
                                             (-3, 3)),
    "pgl32": lambda: graded.minimal_extension(pgl_local(), (-3, 3)),
}

_TABLE_DIGESTS = {
    "glvec4": "a4968c3088b759bbb66c7c94a0ee35fc56f6f55ad4e44a72587087c75a91b13b",
    "osp14": "d1382638e9bc632554a9a28a5c2eb226b4391aaaa2160934c37290d9ae616f6f",
    "G2": "4f31f09662821c87e3269ea1f71d2c4d782f26402cf80227dd9e4d6b85cf7113",
    "A3w1": "9e83f8a7e95a29429d6177b5c6a29a6946431ece6545c61082e6fc8c95fdb951",
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

# small rationals, half of them zero, so that blocks are often dependent
_RATIONALS = st.one_of(
    st.just(F0), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))


@st.composite
def _weight_blocks(draw):
    """Candidates ("c", n), each with a weight in {(0,), (1,), (2,)} and
    T-values under two acting elements, sparse over the keys 0..2."""
    n = draw(st.integers(1, 8))
    cands = [("c", i) for i in range(n)]
    weights = [(draw(st.integers(0, 2)),) for _ in cands]
    t_vals = []
    for _ in cands:
        vals = []
        for _ in range(2):
            entries = [draw(_RATIONALS) for _ in range(3)]
            vals.append({k: v for k, v in enumerate(entries) if v})
        t_vals.append(vals)
    return cands, weights, t_vals


def _column(vals):
    return {(z, k): c for z, vec in enumerate(vals) for k, c in vec.items()}


@settings(max_examples=80, deadline=None)
@given(_weight_blocks())
def test_weight_block_quotient(case):
    cands, weights, t_vals = case
    kept, classes = graded.weight_block_quotient(cands, weights, t_vals)
    t_of = {c: _column(vals) for c, vals in zip(cands, t_vals)}
    kept_cands = {c for _, c in kept}

    expected_kept = []
    for w in sorted(set(weights)):
        blk = [c for c, cw in zip(cands, weights) if cw == w]
        mat, _ = stack_columns([t_of[c] for c in blk])
        _, piv = rref(mat)
        expected_kept += [(w, blk[p]) for p in piv]
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

    # each class reproduces its candidate's T-values from the kept ones
    assert set(classes) == set(cands)
    for c in cands:
        rebuilt: dict = {}
        for t, coeff in classes[c].items():
            vadd_into(rebuilt, t_of[kept[t][1]], coeff)
        assert rebuilt == t_of[c]
