"""End-to-end acceptance checks, one test per shipped guarantee.

Every expectation is pinned to an independent oracle: the
Grassmann-derivation model for the Cartan-type dimensions, exact rank
computation for its divergence-free subalgebra, the Weyl dimension
formula for module sizes, Levi-Civita tensor formulas for the two-form
bracket, and re-derived algebraic identities for the property suites.
All comparisons are exact (Fraction arithmetic, no tolerances).
"""

from __future__ import annotations

import time
from dataclasses import replace
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

from fixtures_gl import gl2form_local, glvec_local, sl_block
from oracles import levi_civita, s_model_dims, w_model_dims
import structure
from wordmodel import LocAlgebra

from gradedlie import iso, tha
from gradedlie.cartan import (
    cartanify,
    local_cartanification,
    products,
    root_subalgebra,
)
from gradedlie.contragredient import build_graded, build_local
from gradedlie.graded import check_local_axioms, decompose_at_degree
from gradedlie.linalg import mat_apply, vadd, vscale
from gradedlie.rootsys import (CartanData, chevalley_realization, jk_partition,
                               weyl_dimension)

F0 = Fraction(0)
F1 = Fraction(1)


def _a(n):
    return [
        [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
        for i in range(n)
    ]


_D4 = [[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]]
_E6 = [[2, 0, -1, 0, 0, 0], [0, 2, 0, -1, 0, 0], [-1, 0, 2, -1, 0, 0],
       [0, -1, -1, 2, -1, 0], [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 2]]
_E7 = [[2, 0, -1, 0, 0, 0, 0], [0, 2, 0, -1, 0, 0, 0],
       [-1, 0, 2, -1, 0, 0, 0], [0, -1, -1, 2, -1, 0, 0],
       [0, 0, 0, -1, 2, -1, 0], [0, 0, 0, 0, -1, 2, -1],
       [0, 0, 0, 0, 0, -1, 2]]

_DATA = {
    "a1": lambda: CartanData(_a(1), lam=(1,)),
    "a2": lambda: CartanData(_a(2), lam=(1, 0)),
    "a3": lambda: CartanData(_a(3), lam=(1, 0, 0)),
    "a4": lambda: CartanData(_a(4), lam=(1, 0, 0, 0)),
    "a4l2": lambda: CartanData(_a(4), lam=(0, 1, 0, 0)),
    "d4": lambda: CartanData(_D4, lam=(1, 0, 0, 0)),
}

# shared, lazily filled builds (the acceptance file is self-contained but
# several criteria exercise the same six pseudo-minuscule cases)
_LOCALS: dict = {}
_VERDICTS: dict = {}
_MODS: dict = {}


def _local(name):
    if name not in _LOCALS:
        _LOCALS[name] = build_local(_DATA[name]())
    return _LOCALS[name]


def _verdict(name):
    if name not in _VERDICTS:
        _VERDICTS[name] = iso.check_isomorphism(_DATA[name]())
    return _VERDICTS[name]


def _mod(name):
    if name not in _MODS:
        pres = tha.presentation(_DATA[name](), "W")
        _MODS[name] = tha.build_minus1(pres)
    return _MODS[name]


def _nonzero(dims):
    return {d: v for d, v in dims.items() if v}


# -- criterion 1: Grassmann-derivation dimensions ---------------------------


def test_criterion_1_cartanification_matches_grassmann_derivation_oracle():
    elapsed = {}
    for n in (2, 3, 4):
        data = CartanData(_a(n - 1), lam=(1,) + (0,) * (n - 2))
        t0 = time.perf_counter()
        result = cartanify(build_local(data), degree_range=(-(n - 1), 1))
        elapsed[n] = time.perf_counter() - t0
        dims = _nonzero(result.graded.dims())
        assert dims == w_model_dims(n)
        assert dims == {-k: n * comb(n, k + 1) for k in range(-1, n)}
        assert sum(dims.values()) == n * 2 ** n
    assert sum(w_model_dims(3).values()) == 24
    assert sum(w_model_dims(4).values()) == 64
    assert elapsed[4] < 30.0


# -- criterion 2: divergence-free subalgebra via strong restriction ---------


def test_criterion_2_strong_cartanification_matches_divergence_free_oracle():
    for n in (3, 4):
        data = CartanData(_a(n - 1), lam=(1,) + (0,) * (n - 2))
        local = build_local(data)
        restriction = root_subalgebra(local, jk_partition(data)[1])
        result = cartanify(local, degree_range=(-(n - 1), 1),
                           restriction=restriction)
        assert _nonzero(result.graded.dims()) == s_model_dims(n)
    assert sum(s_model_dims(3).values()) == 17


# -- criterion 3: degree -1 module decomposition for the rank-4 pair --------


def test_criterion_3_second_fundamental_minus1_decomposition():
    data = _DATA["a4l2"]()
    result = cartanify(_local("a4l2"), degree_range=(-1, 1))
    assert result.graded.dims()[-1] == 65
    found = {
        tuple(int(x) for x in labels): (int(mult), int(dim))
        for labels, mult, dim in decompose_at_degree(result.graded, -1)
    }
    expected = {(0, 1, 0, 0): 10, (2, 0, 0, 0): 15, (0, 0, 1, 1): 40}
    assert found == {labels: (1, dim) for labels, dim in expected.items()}
    for labels, dim in expected.items():
        assert weyl_dimension(data, labels) == dim
    assert sum(dim for _, dim in found.values()) == 65


# -- criterion 4: the two-form bracket formula -------------------------------


def test_criterion_4_two_form_bracket_matches_levi_civita_formula():
    n = 5
    res = local_cartanification(gl2form_local(n),
                                restriction=sl_block(n, (2, 3, 4)))
    assert len(res.local.neg_names) == 40
    assert len(res.local.zero_names) == 24

    pairs = [(a, b) for a in range(n) for b in range(n)]
    idx = {p: i for i, p in enumerate(pairs)}
    duos = [(a, b) for a in range(n) for b in range(a + 1, n)]
    didx = {p: i for i, p in enumerate(duos)}
    lc = levi_civita(n)

    def eps(*ix):
        return Fraction(lc.get(tuple(ix), 0))

    def eadd(acc, elt, scale=F1):
        out = dict(acc)
        for w, c in elt.items():
            out[w] = out.get(w, F0) + scale * c
        return {w: c for w, c in out.items() if c}

    # degree -1 elements are sums of products x u, in candidate coordinates
    def vec_f(a, b):
        if a == b:
            return {}
        if a < b:
            return {didx[(a, b)]: F1}
        return {didx[(b, a)]: -F1}

    def vec_k(c, d):
        return {idx[(c, d)]: F1}

    k_trace = {idx[(e, e)]: F1 for e in range(n)}

    def slot_term(a, b, c, d):
        # F^{ab} K^c_d - (1/3) F^{ab} K d_d^c - (2/3) F^{ea} K^b_e d_d^c
        out = {}
        fab = vec_f(a, b)
        if fab:
            out = eadd(out, products(fab, vec_k(c, d)))
            if c == d:
                out = eadd(out, products(fab, k_trace), Fraction(-1, 3))
        if c == d:
            for e in range(n):
                fea = vec_f(e, a)
                if fea:
                    out = eadd(out, products(fea, vec_k(b, e)),
                               Fraction(-2, 3))
        return out

    perms3 = []
    for p in permutations(range(3)):
        s = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if p[i] > p[j]:
                    s = -s
        perms3.append((p, s))

    def f_upper(a, b, c, d):
        # F^{abc}_d: weight-one antisymmetrisation over the upper triple
        out = {}
        t = (a, b, c)
        for p, s in perms3:
            out = eadd(out, slot_term(t[p[0]], t[p[1]], t[p[2]], d),
                       Fraction(s, 6))
        return out

    triples = [(a, b, c) for a in range(n) for b in range(a + 1, n)
               for c in range(b + 1, n)]
    cls = {(t, d): res.minus1_class(f_upper(*t, d))
           for t in triples for d in range(n)}

    def vadd2(x, y, s=F1):
        out = dict(x)
        for k, v in y.items():
            out[k] = out.get(k, F0) + s * v
        return {k: v for k, v in out.items() if v}

    # the intermediate bracket with the upper-triple combinations:
    # [E_ab, F^{cde}_f] = 6 d_a^[c d_b^d K^e]_f + 4 d_f^[c d_[a^d K^e]_b]
    #                     - 2 d_a^[c d_b^d d_f^e] K
    checked = 0
    for (a, b) in duos:
        for t in triples:
            for f in range(n):
                lhs = res.local.bracket_vec(1, {didx[(a, b)]: F1}, -1,
                                            cls[(t, f)])
                rhs = {}
                for p, s in perms3:
                    cc, dd, ee = t[p[0]], t[p[1]], t[p[2]]
                    if a == cc and b == dd:
                        rhs = vadd2(rhs, {idx[(ee, f)]: F1}, Fraction(s, 1))
                        if f == ee:
                            for g in range(n):
                                rhs = vadd2(rhs, {idx[(g, g)]: F1},
                                            Fraction(-2 * s, 6))
                    if f == cc:
                        for (x, y), u in ((( a, b), 1), ((b, a), -1)):
                            if x == dd:
                                rhs = vadd2(rhs, {idx[(ee, y)]: F1},
                                            Fraction(4 * s * u, 12))
                assert lhs == res.zero_class(rhs), ((a, b), t, f)
                checked += 1
    assert checked == 500

    # pair-antisymmetric inversion A_{cd|e} of 3 F^{abc}_d = eps^{abcef} A_{ef|d}
    def a_low(c, d, e):
        if c == d:
            return {}
        lo, hi, sgn = (c, d, 1) if c < d else (d, c, -1)
        comp = tuple(x for x in range(n) if x not in (lo, hi))
        return {k: Fraction(3, 2) * sgn * eps(*comp, lo, hi) * v
                for k, v in cls[(comp, e)].items()}

    checked = 0
    for t in triples:
        for d in range(n):
            lhs = {k: 3 * v for k, v in cls[(t, d)].items()}
            rhs = {}
            for (e, f) in duos:
                s = eps(*t, e, f)
                if s:
                    rhs = vadd2(rhs, a_low(e, f, d), 2 * s)
            assert lhs == rhs, (t, d)
            checked += 1
    assert checked == 50

    # the hook constraint: the cyclic sum of A vanishes
    for c in range(n):
        for d in range(n):
            for e in range(n):
                acc = vadd2(vadd2(a_low(c, d, e), a_low(d, e, c)),
                            a_low(e, c, d))
                assert acc == {}, (c, d, e)

    # symbols with the symmetry of the claimed bracket (symmetric in the
    # last two indices, vanishing cyclic sum): the unique such resolution
    # of the inversion is F_{cd|e} = A_{cd|e} - (A_{ec|d} + A_{ed|c})/3
    def f_low(c, d, e):
        out = dict(a_low(c, d, e))
        out = vadd2(out, a_low(e, c, d), Fraction(-1, 3))
        return vadd2(out, a_low(e, d, c), Fraction(-1, 3))

    checked = 0
    for (a, b) in duos:
        for c in range(n):
            for d in range(n):
                for e in range(n):
                    lhs = res.local.bracket_vec(1, {didx[(a, b)]: F1}, -1,
                                                f_low(c, d, e))
                    rhs = {}
                    for f in range(n):
                        s1 = eps(a, b, c, d, f)
                        if s1:
                            rhs = vadd2(rhs, {idx[(f, e)]: s1})
                        s2 = eps(a, b, c, e, f)
                        if s2:
                            rhs = vadd2(rhs, {idx[(f, d)]: s2})
                    assert lhs == res.zero_class(rhs), ((a, b), (c, d, e))
                    checked += 1
    assert checked == 1250


# -- criterion 5: the relations model and the cartanification agree ----------


def test_criterion_5_relations_model_isomorphic_to_cartanification():
    for name in ("a1", "a2", "a3", "a4", "a4l2", "d4"):
        verdict = _verdict(name)
        assert verdict.verdict == "isomorphic", name
        assert verdict.homomorphism["passed"], name
        tags = set(structure.tags(tha.presentation(_DATA[name](), "W")))
        assert {c["name"] for c in verdict.homomorphism["checks"]} == tags
        for check in verdict.homomorphism["checks"]:
            assert check["violations"] == [], (name, check["name"])


@pytest.mark.slow
def test_criterion_5_e6_first_fundamental_isomorphic():
    # minuscule, so inside the hypotheses; 27 + 351 by the Weyl formula
    data = CartanData(_E6, lam=(1, 0, 0, 0, 0, 0))
    verdict = iso.check_isomorphism(data)
    assert verdict.verdict == "isomorphic"
    assert verdict.sides["relations_model"]["dim"] == 378
    assert verdict.sides["cartanification"]["minus1_dim"] == 378
    expected = sorted(structure.expected_minus1_decomposition(data, "W"))
    assert sorted(d for _, _, d in expected) == [27, 351]
    for side in ("relations_model", "cartanification"):
        assert verdict.sides[side]["decomposition"] == expected, side


@pytest.mark.slow
def test_criterion_5_e7_seventh_fundamental_isomorphic():
    # minuscule, 56-dimensional; the relations model needs 14,595 cells, past
    # the default budget, so it is built here with a larger one
    data = CartanData(_E7, lam=(0, 0, 0, 0, 0, 0, 1))
    module = tha.build_minus1(tha.presentation(data, "W"), cell_cap=30000)
    verdict = iso.check_isomorphism(data, module=module)
    assert verdict.verdict == "isomorphic"
    assert verdict.sides["relations_model"]["status"] == "complete"
    assert verdict.sides["relations_model"]["dim"] == 968
    assert verdict.sides["cartanification"]["minus1_dim"] == 968
    expected = sorted(structure.expected_minus1_decomposition(data, "W"))
    assert sorted(d for _, _, d in expected) == [56, 912]
    for side in ("relations_model", "cartanification"):
        assert verdict.sides[side]["decomposition"] == expected, side


# -- criterion 6: contragredient sanity --------------------------------------


def test_criterion_6_contragredient_dimensions_match_character_oracle():
    algebra = build_graded(_DATA["a1"](), (-1, 1))
    assert algebra.dims() == {-1: 2, 0: 4, 1: 2}
    local = _local("a1")
    assert local.neg_parities == [1, 1] and local.pos_parities == [1, 1]
    assert local.zero_parities == [0, 0, 0, 0]

    data = _DATA["a4l2"]()
    dims = build_graded(data, (-2, 2)).dims()
    top = weyl_dimension(data, data.lam)
    sym2 = top * (top + 1) // 2
    doubled = weyl_dimension(data, tuple(2 * l for l in data.lam))
    assert top == 10 and sym2 == 55 and doubled == 50
    assert dims[2] == dims[-2] == sym2 - doubled == 5


# -- criterion 7: property suites ---------------------------------------------


def _rank(rows):
    pivots: dict = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            key = max(row)
            if key in pivots:
                coef = row[key]
                for k2, v2 in pivots[key].items():
                    row[k2] = row.get(k2, F0) - coef * v2
                row = {k2: v2 for k2, v2 in row.items() if v2}
            else:
                inv = F1 / row[key]
                pivots[key] = {k2: v2 * inv for k2, v2 in row.items()}
                rank += 1
                break
    return rank


_JACOBI_PATTERNS = [(0, 0, 0)]
for _d in (1, -1):
    _JACOBI_PATTERNS += [(_d, 0, 0), (0, _d, 0), (0, 0, _d)]
_JACOBI_PATTERNS += [(0, 1, -1), (0, -1, 1), (1, 0, -1),
                     (-1, 0, 1), (1, -1, 0), (-1, 1, 0)]


def test_criterion_7_property_suites_zero_failures():
    counts: dict = {}

    # Jacobi (exhaustive in the degree window), pairing invariance and
    # grading-element eigenvalues over every constructed local part
    locs = [_local(name) for name in _DATA]
    locs += [glvec_local(3), gl2form_local(5)]
    locs += [cartanify(_local("a2"), degree_range=(-2, 1)).local,
             cartanify(_local("a4l2"), degree_range=(-1, 1)).local]
    jac = grad = pinv = 0
    for loc in locs:
        report = check_local_axioms(loc)
        assert report["passed"], [c for c in report["checks"]
                                  if not c["passed"]]
        names = {c["name"] for c in report["checks"]}
        dims = {d: len(loc.names_at(d)) for d in (-1, 0, 1)}
        jac += sum(dims[p] * dims[q] * dims[r]
                   for p, q, r in _JACOBI_PATTERNS)
        if "grading_element" in names:
            grad += sum(dims.values())
        if "pairing_invariance" in names:
            pinv += dims[0] * dims[-1] * dims[1]
    counts["jacobi"] = jac
    counts["grading-eigenvalues"] = grad
    counts["pairing-invariance"] = pinv

    # restricted associativity: X z Y with X a word of the minus wing,
    # z any single letter and Y a word of the plus wing (exhaustive over
    # the listed shape family)
    eng = LocAlgebra(_local("a2"))
    nm, nz, np_ = (len(_local("a2").names_at(d)) for d in (-1, 0, 1))
    xs = [eng.from_vec(-1, {i: F1}) for i in range(nm)]
    xs += [eng.product(eng.from_vec(-1, {i: F1}), eng.from_vec(0, {a: F1}))
           for i in range(nm) for a in range(nz)]
    ys = [eng.from_vec(1, {j: F1}) for j in range(np_)]
    ys += [eng.product(eng.from_vec(1, {j: F1}), eng.from_vec(0, {a: F1}))
           for j in range(np_) for a in range(nz)]
    zs = [eng.from_vec(d, {k: F1})
          for d, cnt in ((-1, nm), (0, nz), (1, np_)) for k in range(cnt)]
    assoc = 0
    for x in xs:
        for z in zs:
            for y in ys:
                assert eng.associator(x, z, y) == {}
                assoc += 1
    counts["restricted-associativity"] = assoc

    # proportionality of the lowering family under the extended matrix
    flindep = 0
    for name in ("a2", "a3", "a4", "a4l2", "d4"):
        mod = _mod(name)
        data = mod.data
        fam = (tha.EXT,) + structure.k_nodes_of(mod)
        for i in structure.k_nodes_of(mod):
            for j in fam:
                for k in fam:
                    for kind in ("e", "f"):
                        lhs = mod.apply(kind, i, mod.seed_vecs[("f0", k)])
                        bji = data.extended_entry(j, i)
                        rhs = mod.apply(kind, i, mod.seed_vecs[("f0", j)])
                        bki = data.extended_entry(k, i)
                        got = vadd(vscale(lhs, bji), vscale(rhs, bki), -F1)
                        assert got == {}, (name, i, j, k, kind)
                        flindep += 1
    counts["family-proportionality"] = flindep

    # root-operator identities over all roots supported on the zero-label
    # subdiagram: squares annihilate, opposite actions recover the family,
    # weight exchange, and raisers with unit pairings annihilate
    roots = 0
    for name in ("a2", "a3", "a4", "a4l2", "d4"):
        mod = _mod(name)
        g = structure.realization(mod.data)
        sub = mod.data.restrict(structure.k_nodes_of(mod))
        funds = [sub.fundamental(l) for l in range(sub.r)]
        for p in structure._k_supported_roots(mod):
            labels_k = structure._k_labels(mod, g.pos_roots[p].labels)
            kap = g.kappa(g.index[("e", p)], g.index[("f", p)])
            for kind, sign in (("e", 1), ("f", -1)):
                op = structure.root_op(mod, kind, p)
                opp = structure.root_op(mod, "f" if kind == "e" else "e", p)
                for mu in funds:
                    f0mu = structure.f0_weight_combination(mod, mu)
                    assert mat_apply(op, mat_apply(op, f0mu)) == {}
                    roots += 1
                    lhs = mat_apply(op, mat_apply(opp, f0mu))
                    pairing = sign * sub.bilinear(mu, labels_k)
                    avee = tuple(sign * kap * x for x in labels_k)
                    rhs = structure.f0_weight_combination(mod, avee)
                    assert vadd(lhs, vscale(rhs, pairing), -F1) == {}
                    roots += 1
                    for nu in funds:
                        pm = sign * sub.bilinear(mu, labels_k)
                        pn = sign * sub.bilinear(nu, labels_k)
                        l2 = mat_apply(
                            op, structure.f0_weight_combination(mod, nu))
                        r2 = mat_apply(op, f0mu)
                        assert vadd(vscale(l2, pm), vscale(r2, pn),
                                    -F1) == {}
                        roots += 1
            rt = g.pos_roots[p]
            for j in range(mod.data.r):
                if not mod.data.lam[j] or rt.labels[j] not in (-1, 0, 1):
                    continue
                for mu in funds:
                    v = mat_apply(structure.root_op(mod, "e", p),
                                  structure.f0_weight_combination(mod, mu))
                    assert mod.apply("e", j, v) == {}
                    roots += 1
    counts["root-identities"] = roots

    # equivariance of the degree -1 embedding on all basis pairs
    sharp = 0
    for name in ("a2", "a4", "a4l2", "d4"):
        mod = _mod(name)
        g = structure.realization(mod.data)
        img = structure.sharp_image(mod)
        basis = sorted(img.entries)
        for xi in basis:
            x = {xi: F1}
            for yi in basis:
                lhs = structure.apply_element(mod, x, img.entries[yi])
                rhs = img.sharp(dict(g.bracket_vec(x, {yi: F1})))
                assert vadd(lhs, rhs, -F1) == {}, (name, xi, yi)
                sharp += 1
    counts["sharp-equivariance"] = sharp

    # the pseudo-minuscule identities hold in every such build (exhaustive
    # over the six builds; the instance count is the domain size)
    pm = 0
    for name in _DATA:
        report = _verdict(name).identities
        assert report["passed"], name
        for check in report["checks"]:
            assert check["violations"] == [], (name, check["name"])
            pm += check["instances"]
    counts["pseudo-minuscule-identities"] = pm

    # Weyl-automorphism identities on Cartan elements:
    # r_k(h_{mu vee}) = h_{mu vee} - (alpha_k, mu) h_k
    weyl_sets = [_DATA[name]() for name in ("a1", "a2", "a3", "a4", "d4")]
    weyl_sets += [CartanData([[2, -1], [-3, 2]], lam=(0, 0), epsilon=(1, 3)),
                  CartanData([[2, -1], [-2, 2]], lam=(0, 0), epsilon=(1, 2))]
    weyl = 0
    for data in weyl_sets:
        g = chevalley_realization(data)
        mus = [data.fundamental(l) for l in range(data.r)]
        mus += [rt.labels for rt in g.pos_roots]
        mus += [tuple(-x for x in rt.labels) for rt in g.pos_roots]
        for k in range(data.r):
            alpha_k = tuple(Fraction(data.a[t][k]) for t in range(data.r))
            for mu in mus:
                h = structure.coroot_combination(g, tuple(range(data.r)), mu)
                out = structure.weyl_automorphism(g, k, h)
                c = data.bilinear(alpha_k, mu)
                expect = vadd(h, {g.index[("h", k)]: F1}, -c)
                assert vadd(out, expect, -F1) == {}, (data.a, k, mu)
                weyl += 1
    counts["weyl-identities"] = weyl

    print("property suite instance counts:", counts)
    exhaustive_only = {"pseudo-minuscule-identities"}
    for suite, instances in counts.items():
        assert instances > 0, suite
        if suite not in exhaustive_only:
            assert instances >= 200, (suite, instances)


# -- criterion 8: negative controls -------------------------------------------


def _minus_action_rank(local):
    rows = []
    for x in range(local.nneg):
        row = {}
        for z in range(local.npos):
            for k, c in local.bracket(-1, x, 1, z).items():
                row[(z, k)] = c
        rows.append(row)
    return _rank(rows)


def test_criterion_8_negative_controls_caught():
    # a non-pseudo-minuscule weight is rejected before any comparison runs
    with pytest.raises(ValueError,
                       match="pseudo-minuscule precondition fails"):
        iso.check_isomorphism(CartanData(_a(1), lam=(2,)))

    # a corrupted structure constant is caught by the Jacobi suite
    loc = _local("a2")
    key = sorted(loc.bpm)[0]
    vec = dict(loc.bpm[key])
    target = sorted(vec)[0]
    vec[target] = vec[target] + 1
    corrupted = replace(loc, bpm={**loc.bpm, key: vec})
    report = check_local_axioms(corrupted)
    assert not report["passed"]
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "jacobi_in_range" in failed

    # the peripheral quotient is observable (candidates were removed) and
    # leaves a degree -1 part acting with trivial kernel on degree +1;
    # skipping the quotient leaves silent minus directions, which the
    # kernel-triviality invariant flags
    cart = cartanify(_local("a2"), degree_range=(-2, 1))
    assert cart.kernel_dim > 0
    assert _minus_action_rank(cart.local) == cart.local.nneg
    padded = replace(
        cart.local,
        neg_names=list(cart.local.neg_names) + [("silent",)],
        neg_weights=list(cart.local.neg_weights)
        + [cart.local.neg_weights[0]],
        neg_parities=list(cart.local.neg_parities) + [1],
    )
    assert _minus_action_rank(padded) == padded.nneg - 1 < padded.nneg
