"""Generator/relation presentations and the enumerated degree -1 module."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedlie import iso, tha
from gradedlie.contragredient import build_graded
from gradedlie.linalg import mat_apply, vadd, vscale
from gradedlie.rootsys import (CartanData, chevalley_realization,
                               weyl_dimension, weyl_reflect)
from gradedlie.tha import EXT

import canonical
import structure

A1 = [[2]]
A2 = [[2, -1], [-1, 2]]
A4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
G2 = [[2, -1], [-3, 2]]
C3 = [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
D5 = [[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1],
      [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]]
E6 = [[2, 0, -1, 0, 0, 0], [0, 2, 0, -1, 0, 0], [-1, 0, 2, -1, 0, 0],
      [0, -1, -1, 2, -1, 0], [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 2]]
F1 = Fraction(1)

_DATA = {
    "a2": lambda: CartanData(A2, lam=(1, 0)),
    "a4": lambda: CartanData(A4, lam=(0, 1, 0, 0)),
    "d4": lambda: CartanData(D4, lam=(1, 0, 0, 0)),
    "d4w4": lambda: CartanData(D4, lam=(0, 0, 0, 1)),
    "c3": lambda: CartanData(C3, epsilon=(1, 1, 2), lam=(1, 0, 0)),
    "g2": lambda: CartanData(G2, epsilon=(1, 3), lam=(1, 0)),
    "d5": lambda: CartanData(D5, lam=(0, 0, 0, 0, 1)),
    "e6": lambda: CartanData(E6, lam=(1, 0, 0, 0, 0, 0)),
}
_CACHE: dict = {}


def _mod(name, variant="W", **kw):
    key = (name, variant, tuple(sorted(kw.items())))
    if key not in _CACHE:
        pres = tha.presentation(_DATA[name](), variant)
        _CACHE[key] = tha.build_minus1(pres, **kw)
    return _CACHE[key]


class _Span:
    """Incremental row reduction over sparse Fraction vectors."""

    def __init__(self):
        self.rows = []

    def add(self, vec):
        work = dict(vec)
        for row in self.rows:
            if not work:
                return False
            piv = max(row)
            if piv in work:
                c = Fraction(work[piv], row[piv])
                for t, v in row.items():
                    s = work.get(t, Fraction(0)) - c * v
                    if s:
                        work[t] = s
                    else:
                        work.pop(t, None)
        if work:
            self.rows.append(work)
            return True
        return False

    @property
    def rank(self):
        return len(self.rows)


# -- presentations -------------------------------------------------------


def test_presentation_generators_and_family():
    pres = tha.presentation(CartanData(A2, lam=(1, 0)), "W")
    assert pres.j_nodes == (0,) and pres.k_nodes == (1,)
    assert pres.family == (EXT, 1)
    assert not pres.k_empty
    names = [g.name for g in pres.generators]
    assert ("e0",) in names and ("h0",) in names
    assert ("f0", EXT) in names and ("f0", 1) in names
    e0 = structure.generator(pres, ("e0",))
    assert (e0.degree, e0.parity) == (1, 1)
    for i in pres.family:
        f0 = structure.generator(pres, ("f0", i))
        assert (f0.degree, f0.parity) == (-1, 1)
        assert f0.labels == (1, 0)  # every family member carries lambda


def test_presentation_relation_counts():
    pres = tha.presentation(CartanData(A2, lam=(1, 0)), "W")
    # raise-lower instances: |K|^2 family members each
    assert len(structure.relations_tagged(pres, "f0-raise-lower")) == 2
    # the isotropic square [e0, e0] = 0 is an explicit instance
    squares = [r for r in structure.relations_tagged(pres, "serre-e")
               if r.indices == (EXT, EXT)]
    assert len(squares) == 1
    assert (squares[0].ops, squares[0].target) == ((("e0",),), ("e0",))
    # lowering by a J node iterates 1 + lambda_j times
    low = structure.relations_tagged(pres, "f0-lower-j")[0]
    assert (low.ops, low.target) == ((("f", 0),) * 2, ("f0", EXT))


def test_presentation_s_variant_drops_extension():
    pres = tha.presentation(CartanData(A2, lam=(1, 0)), "S")
    names = [g.name for g in pres.generators]
    assert ("h0",) not in names and ("f0", EXT) not in names
    assert pres.family == (1,)
    for rel in pres.relations:
        flat = repr(rel)
        assert "'h0'" not in flat and "('f0', -1)" not in flat


def test_presentation_rejects_unknown_variant():
    with pytest.raises(ValueError, match="variant"):
        tha.presentation(CartanData(A2, lam=(1, 0)), "B")


def test_extended_entries():
    data = CartanData(A2, epsilon=(2, 1), lam=(3, 0))
    assert data.extended_entry(EXT, EXT) == 0
    assert data.extended_entry(EXT, 0) == Fraction(-3, 2)
    assert data.extended_entry(0, EXT) == -3
    assert data.extended_entry(0, 1) == -1


# -- relation checking ---------------------------------------------------


def _identity_assignment(data, pres):
    g = chevalley_realization(data)
    assign = {}
    for i in range(data.r):
        assign[("e", i)] = (0, {g.index[("e", g.simple_root_index(i))]: F1})
        assign[("f", i)] = (0, {g.index[("f", g.simple_root_index(i))]: F1})
        assign[("h", i)] = (0, {g.index[("h", i)]: F1})
    assign[("e0",)] = (1, {0: F1})
    if ("h0",) in [gen.name for gen in pres.generators]:
        assign[("h0",)] = (0, {g.dim: F1})
    if ("f0", EXT) in [gen.name for gen in pres.generators]:
        assign[("f0", EXT)] = (-1, {0: -F1})
    return assign


def test_check_relations_identity_embedding():
    data = CartanData(A1, lam=(1,))
    pres = tha.presentation(data, "W")
    assert pres.k_empty and pres.family == (EXT,)
    target = build_graded(data, (-1, 1))
    report = tha.check_relations(pres, target,
                                 _identity_assignment(data, pres))
    assert report["passed"]
    by_name = {c["name"]: c for c in report["checks"]}
    # the instances leaving degree +1 are skipped, not guessed at
    assert by_name["serre-e"]["skipped"] == 2
    assert by_name["e0-f0"]["skipped"] == 0


def test_check_relations_on_graded_target():
    data = CartanData(A1, lam=(1,))
    pres = tha.presentation(data, "W")
    target = build_graded(data, (-2, 1))
    report = tha.check_relations(pres, target,
                                 _identity_assignment(data, pres))
    assert report["passed"]


def test_check_relations_flags_corruption():
    data = CartanData(A1, lam=(1,))
    pres = tha.presentation(data, "W")
    target = build_graded(data, (-1, 1))
    assign = _identity_assignment(data, pres)
    assign[("f0", EXT)] = (-1, {0: F1})  # wrong sign
    report = tha.check_relations(pres, target, assign)
    assert not report["passed"]
    bad = [c for c in report["checks"] if not c["passed"]]
    assert any(c["name"] == "e0-f0" for c in bad)
    witness = bad[0]["violations"][0]
    assert witness["residual"]


def test_check_relations_requires_full_assignment():
    data = CartanData(A1, lam=(1,))
    pres = tha.presentation(data, "W")
    target = build_graded(data, (-1, 1))
    assign = _identity_assignment(data, pres)
    del assign[("h0",)]
    with pytest.raises(ValueError, match="not assigned"):
        tha.check_relations(pres, target, assign)
    # a nonzero element at another degree than its generator's
    assign = _identity_assignment(data, pres)
    assign[("e0",)] = (0, assign[("e", 0)][1])
    with pytest.raises(ValueError, match=r"\('e0',\) is assigned at degree 0"):
        tha.check_relations(pres, target, assign)


# -- the enumerated degree -1 module -------------------------------------


def test_minus1_smallest_example():
    mod = _mod("a2")
    assert mod.status == "complete"
    assert mod.dim == 9
    assert mod.decompose() == [((1, 0), 1, 3), ((0, 2), 1, 6)]
    assert mod.certificate["complete"]


def test_minus1_matches_structure_prediction():
    for name, dim in (("a2", 9), ("a4", 65), ("d4", 64)):
        mod = _mod(name)
        assert mod.status == "complete"
        assert mod.dim == dim
        assert mod.decompose() == structure.expected_minus1_decomposition(
            mod.data, "W")


def test_minus1_frozen_decompositions():
    assert _mod("a4").decompose() == [
        ((0, 1, 0, 0), 1, 10), ((2, 0, 0, 0), 1, 15), ((0, 0, 1, 1), 1, 40)]
    assert _mod("d4").decompose() == [
        ((1, 0, 0, 0), 1, 8), ((0, 0, 1, 1), 1, 56)]


def test_minus1_s_variant_omits_lambda_module():
    assert _mod("a2", "S").decompose() == [((0, 2), 1, 6)]
    a4 = _mod("a4", "S")
    assert a4.dim == 55
    assert a4.decompose() == [((2, 0, 0, 0), 1, 15), ((0, 0, 1, 1), 1, 40)]
    assert _mod("d4", "S").decompose() == [((0, 0, 1, 1), 1, 56)]
    for name in ("a2", "a4", "d4"):
        assert _mod(name, "S").decompose() == \
            structure.expected_minus1_decomposition(_DATA[name](), "S")


def test_minus1_k_empty_is_the_lambda_module():
    data = CartanData(A2, lam=(1, 1))
    pres = tha.presentation(data, "W")
    assert pres.k_empty
    mod = tha.build_minus1(pres)
    assert mod.status == "complete"
    assert mod.decompose() == [((1, 1), 1, 8)]


def test_minus1_family_spans_the_lambda_weight_space():
    for name in ("a2", "a4", "d4"):
        mod = _mod(name)
        lam = tuple(int(x) for x in mod.data.lam)
        assert mod.dims()[lam] == len(mod.seed_vecs)
        span = _Span()
        for vec in mod.seed_vecs.values():
            assert span.add(vec)  # family members stay independent


def test_minus1_extension_seed_generates_lambda_module():
    mod = _mod("a4")
    seed = mod.seed_vecs[("f0", EXT)]
    for i in range(mod.data.r):
        assert mod.apply("e", i, seed) == {}
    span = _Span()
    span.add(seed)
    frontier = [seed]
    while frontier:
        nxt = []
        for v in frontier:
            for kind in ("e", "f"):
                for i in range(mod.data.r):
                    w = mod.apply(kind, i, v)
                    if w and span.add(w):
                        nxt.append(w)
        frontier = nxt
    assert span.rank == weyl_dimension(mod.data, mod.data.lam) == 10


def test_minus1_inconclusive_on_small_cap():
    mod = _mod("a4", cell_cap=50)
    assert mod.status == "inconclusive"
    assert "cell budget" in mod.certificate["reason"]
    with pytest.raises(ValueError, match="did not stabilize"):
        mod.decompose()


@pytest.mark.parametrize("cell_cap", [50, 300])
def test_cell_cap_is_a_hard_bound(cell_cap):
    # the budget is checked where cells are created, not once per round
    mod = _mod("a4", cell_cap=cell_cap)
    cert = mod.certificate
    assert mod.status == "inconclusive"
    assert cert["cells_created"] <= cell_cap
    assert cert["reason"] == "cell budget %d exhausted" % cell_cap
    assert cert["cell_cap"] == cell_cap


def test_cell_cap_below_the_family_is_rejected():
    pres = tha.presentation(_DATA["a4"](), "W")
    with pytest.raises(ValueError, match="smaller than the 4 family seeds"):
        tha.build_minus1(pres, cell_cap=3)


def test_minus1_e6_omega1_completes_under_defaults():
    mod = tha.build_minus1(tha.presentation(_DATA["e6"](), "W"))
    assert mod.status == "complete"
    assert mod.certificate["cells_created"] <= 6000
    assert mod.dim == 378
    expected = structure.expected_minus1_decomposition(mod.data, "W")
    assert mod.decompose() == expected
    # L(omega_1) + L(theta_K + omega_1), dimensions by the Weyl formula
    assert [(m, d) for _, m, d in expected] == [(1, 27), (1, 351)]


def test_minus1_d5_spinor_matches_weyl_formula():
    for variant in ("W", "S"):
        mod = _mod("d5", variant)
        assert mod.status == "complete"
        assert mod.decompose() == structure.expected_minus1_decomposition(
            mod.data, variant)
    assert (_mod("d5").dim, _mod("d5", "S").dim) == (160, 144)


# finite types of rank <= 3 with their canonical symmetrizers, in the
# package's convention a[i][j] = <alpha_i^vee, alpha_j>
_FINITE = {
    "A1": ([[2]], (1,)),
    "A2": (A2, (1, 1)),
    "A3": ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], (1, 1, 1)),
    "B2": ([[2, -2], [-1, 2]], (2, 1)),
    "B3": ([[2, -1, 0], [-1, 2, -2], [0, -1, 2]], (2, 2, 1)),
    "C3": (C3, (1, 1, 2)),
    "G2": (G2, (1, 3)),
}


def _pseudo_minuscule(data):
    try:
        iso.require_pseudo_minuscule(data)
    except ValueError:
        return False
    return True


_GENERATED = st.sampled_from(sorted(_FINITE)).flatmap(
    lambda name: st.lists(st.integers(0, 1), min_size=len(_FINITE[name][0]),
                          max_size=len(_FINITE[name][0])).map(
        lambda lam: CartanData(*_FINITE[name], lam=lam))
).filter(_pseudo_minuscule)


def _zero_label_components(data):
    """The connected components of the nodes with label 0."""
    left = [i for i in range(data.r) if data.lam[i] == 0]
    comps = []
    while left:
        comp, frontier = set(), [left[0]]
        while frontier:
            i = frontier.pop()
            if i not in comp:
                comp.add(i)
                frontier.extend(j for j in left if data.a[i][j])
        comps.append(comp)
        left = [i for i in left if i not in comp]
    return comps


def _structure_dimension(data):
    """dim L(lambda) + sum over zero-label components C of dim L(theta_C +
    lambda), theta_C the highest root supported on C."""
    total = weyl_dimension(data, data.lam)
    for comp in _zero_label_components(data):
        theta = max((rt for rt in data.positive_roots
                     if all(c == 0 or t in comp
                            for t, c in enumerate(rt.coords))),
                    key=lambda rt: sum(rt.coords))
        total += weyl_dimension(
            data, [a + b for a, b in zip(theta.labels, data.lam)])
    return total


def _assert_relations_well_formed(pres):
    """Every name is a generator, both sides sit at one degree, and the
    module relations are words of e/f on a seed equal to seeds."""
    degree = {g.name: g.degree for g in pres.generators}
    for rel in pres.relations:
        rhs_names = [name for _, name in rel.rhs]
        assert all(name in degree
                   for name in rel.ops + (rel.target,) + tuple(rhs_names))
        lhs_degree = sum(degree[op] for op in rel.ops) + degree[rel.target]
        assert all(degree[name] == lhs_degree for name in rhs_names)
        if rel.tag in tha._MODULE_TAGS:
            assert all(op[0] in ("e", "f") for op in rel.ops)
            assert rel.target[0] == "f0"
            assert all(name[0] == "f0" for name in rhs_names)


@settings(max_examples=25, deadline=None)
@given(_GENERATED)
def test_minus1_generated_data_matches_the_structure_theorem(data):
    for variant in ("W", "S"):
        _assert_relations_well_formed(tha.presentation(data, variant))
    mod = tha.build_minus1(tha.presentation(data, "W"))
    assert mod.status == "complete"
    assert mod.dim == _structure_dimension(data)
    assert mod.decompose() == structure.expected_minus1_decomposition(
        data, "W")
    g = chevalley_realization(data)
    canonical.assert_normal_form([mod.weights, mod.e_act, mod.f_act,
                                  mod.seed_vecs, g.weights, g._table])


def test_serre_instances_once_per_commuting_pair():
    # for a_ij = 0 the (j, i) operator is minus the (i, j) one
    insts = tha._serre_instances(CartanData(D4, lam=(1, 0, 0, 0)))
    assert len(insts) == 18
    pairs = {(kind, i, j) for kind, i, j, _ in insts}
    for i in range(4):
        for j in range(4):
            if i != j:
                kept = ("e", i, j) in pairs
                assert kept == (D4[i][j] != 0 or i < j)
                assert kept == (("f", i, j) in pairs)
    insts = tha._serre_instances(CartanData(G2, epsilon=(1, 3)))
    assert [(i, j, terms) for kind, i, j, terms in insts if kind == "e"] == [
        (0, 1, [(1, 2, 0), (-2, 1, 1), (1, 0, 2)]),
        (1, 0, [(1, 4, 0), (-4, 3, 1), (6, 2, 2), (-4, 1, 3), (1, 0, 4)])]


def test_word_plan_stores_each_word_once():
    data = CartanData(G2, epsilon=(1, 3))
    instances = tha._serre_instances(data)
    steps, commutators, serres = tha._word_plan(data.r, instances)
    words = [()]
    for op, suffix in steps[1:]:
        assert suffix < len(words)
        words.append((op,) + words[suffix])
    assert len(set(words)) == len(words)
    assert [(i, j, words[ef], words[fe]) for i, j, ef, fe in commutators] \
        == [(i, j, (("e", i), ("f", j)), (("f", j), ("e", i)))
            for i in range(2) for j in range(2)]
    assert [(tag, i, j, [(c, words[w]) for c, w in terms])
            for tag, i, j, terms in serres] == [
        ("serre-" + kind, i, j,
         [(c, ((kind, i),) * left + ((kind, j),) + ((kind, i),) * right)
          for c, left, right in terms])
        for kind, i, j, terms in instances]


def test_minus1_dimension_history_stabilizes():
    mod = _mod("a2")
    hist = mod.certificate["dims_by_depth"]
    assert len(hist) >= 2 and hist[-1] == hist[-2]
    assert sum(hist[-1].values()) == mod.dim


# sha256 of the certificate, weights, action tables and seed vectors.  On
# the complete cases everything but the certificate's budget key is as the
# enumeration by full sweeps produced it; the inconclusive cases stop on
# the cell budget, which is never overrun.
_DIGESTS = {
    ("d4w4", "W"): "05a0c9c64ca8f0fdcf341e7660131a0f"
                   "870c00219ae672f8f21264f1ba64fd2e",
    ("d4w4", "S"): "6ae2e67690c64d0201be0829ba9383a9"
                   "896bc1b715beeb244d25178ee2a5041b",
    ("a4", "W"): "7a2c2716f32ff0d6ba580c27de4d8847"
                 "a1376672cce04ac50ca0102e53acb42c",
    ("d4", "W"): "1a4cdf89438980e1f96e31acba8df6a2"
                 "b2b01afaec598ab582be74f38328e340",
    ("d4", "S"): "075bdd0771a58dd5f1fe3e5d9a88134f"
                 "6c7469d1d99972b0046012c0d0a31855",
    ("c3", "W"): "b4fc298b5578459f94899d8705c423ed"
                 "40ba638c4815e3adbb7268f50dfbe551",
    ("g2", "W"): "f9d3fb6e60d6e62d26a2226890ba1fa8"
                 "2ba9def3538a3e204c77247da8ead32e",
    ("d5", "W"): "5bfdbd7274372449012c31e50e523e88"
                 "1a0b40107963a54e6921868f0b90b8f8",
    ("d5", "S"): "0e93c87fa213241f277b1633125c8953"
                 "627d6c02fd20990b24fa481bd6b424d5",
    ("a4", "W", "cell_cap", 50): "5761c19b87d0e67bcb069b6be1aab9e7"
                                 "aa537c9d6000a28745a81888785eaf11",
    ("a4", "W", "cell_cap", 300): "085fb12e5a8bf5b78e6a4623ff946d2e"
                                  "1d55d4da348ad03acd2fe815536674ce",
    ("a2", "squares dropped", "cell_cap", 300):
        "4dc75b93aea80bfcf0c7e13190f546e2"
        "2410b45d89e665a8fbce1d840925c2ec",
}


@pytest.mark.parametrize("case", list(_DIGESTS),
                         ids=["-".join(map(str, c)) for c in _DIGESTS])
def test_certificate_digests(case):
    name, variant, *kw = case
    kw = dict(zip(kw[::2], kw[1::2]))
    if variant == "squares dropped":
        pres = structure.reduced_presentation(
            tha.presentation(_DATA[name](), "W"),
            drop=("f0-raise-kk", "f0-lower-kk"))
        mod = tha.build_minus1(pres, **kw)
    else:
        mod = _mod(name, variant, **kw)
    tables = {"weights": mod.weights, "e_act": mod.e_act, "f_act": mod.f_act,
              "seed_vecs": mod.seed_vecs}
    assert canonical.digest({"certificate": mod.certificate, **tables}) \
        == _DIGESTS[case]
    canonical.assert_normal_form(tables)


def test_queue_without_requeueing_never_completes(monkeypatch):
    # negative control: with rewritten cells and new table entries not
    # sending their readers back to the queue, deductions are missed; the
    # run must then stay inconclusive or fail its certifying pass
    monkeypatch.setattr(tha._Enumeration, "touch", lambda self, c: None)
    for name in ("a2", "d4"):
        try:
            mod = tha.build_minus1(tha.presentation(_DATA[name](), "W"))
        except ValueError as exc:
            assert "certifying pass" in str(exc)
        else:
            assert mod.status == "inconclusive"
            assert mod.certificate["cells_created"] <= 6000


def test_certifying_pass_catches_a_missed_deduction(monkeypatch):
    # the drain never imposes one seed instance; the tables still close,
    # and the full pass that certifies them must find it
    missed = ("f0-raise-lower", (1, 1, 1))
    impose = tha._Enumeration.impose

    def skip_one(self, vec, instance):
        if instance == missed and not self.certifying:
            return False
        return impose(self, vec, instance)

    monkeypatch.setattr(tha._Enumeration, "impose", skip_one)
    with pytest.raises(ValueError, match=re.escape(
            "certifying pass imposed a new relation: instance %s"
            % (missed,))):
        tha.build_minus1(tha.presentation(_DATA["a2"](), "W"))


# -- derived identities in the module -------------------------------------


def test_family_proportionality_relations():
    # B_ji [x_i, f0_k] == B_ki [x_i, f0_j] for x in {e, f}, i in K
    for name in ("a2", "a4", "d4"):
        mod = _mod(name)
        data = mod.data
        fam = (EXT,) + mod.k_nodes
        for i in mod.k_nodes:
            for j in fam:
                for k in fam:
                    for kind in ("e", "f"):
                        lhs = vscale(mod.apply(kind, i,
                                               mod.seed_vecs[("f0", k)]),
                                     data.extended_entry(j, i))
                        rhs = vscale(mod.apply(kind, i,
                                               mod.seed_vecs[("f0", j)]),
                                     data.extended_entry(k, i))
                        assert vadd(lhs, rhs, -F1) == {}


def _sub_and_funds(mod):
    sub = mod.data.restrict(mod.k_nodes)
    return sub, [sub.fundamental(l) for l in range(sub.r)]


def test_root_square_annihilates_the_family_span():
    mod = _mod("a4")
    _, funds = _sub_and_funds(mod)
    for p in structure._k_supported_roots(mod):
        for kind in ("e", "f"):
            op = structure.root_op(mod, kind, p)
            for mu in funds:
                v = structure.f0_weight_combination(mod, mu)
                assert mat_apply(op, mat_apply(op, v)) == {}


def test_opposite_root_action_recovers_the_family():
    # [e_a, [e_-a, f0_{mu}]] = (mu, a) f0_{a vee} for every root a
    mod = _mod("a4")
    g = structure.realization(mod.data)
    sub, funds = _sub_and_funds(mod)
    for p in structure._k_supported_roots(mod):
        labels_k = structure._k_labels(mod, g.pos_roots[p].labels)
        kap = g.kappa(g.index[("e", p)], g.index[("f", p)])
        for kind, sign in (("e", 1), ("f", -1)):
            op = structure.root_op(mod, kind, p)
            opp = structure.root_op(mod, "f" if kind == "e" else "e", p)
            for mu in funds:
                f0mu = structure.f0_weight_combination(mod, mu)
                lhs = mat_apply(op, mat_apply(opp, f0mu))
                pairing = sign * sub.bilinear(mu, labels_k)
                avee = tuple(sign * kap * x for x in labels_k)
                rhs = vscale(structure.f0_weight_combination(mod, avee),
                             pairing)
                assert vadd(lhs, rhs, -F1) == {}


def test_weight_exchange_identity():
    # (mu, a) [e_a, f0_{nu}] == (nu, a) [e_a, f0_{mu}]
    mod = _mod("a4")
    g = structure.realization(mod.data)
    sub, funds = _sub_and_funds(mod)
    for p in structure._k_supported_roots(mod):
        labels_k = structure._k_labels(mod, g.pos_roots[p].labels)
        for kind, sign in (("e", 1), ("f", -1)):
            op = structure.root_op(mod, kind, p)
            for mu in funds:
                for nu in funds:
                    pm = sign * sub.bilinear(mu, labels_k)
                    pn = sign * sub.bilinear(nu, labels_k)
                    lhs = vscale(mat_apply(
                        op, structure.f0_weight_combination(mod, nu)), pm)
                    rhs = vscale(mat_apply(
                        op, structure.f0_weight_combination(mod, mu)), pn)
                    assert vadd(lhs, rhs, -F1) == {}


def test_raising_annihilates_small_pairings():
    # j in J and (alpha_j vee, alpha) in {0, +-1} kill [e_alpha, f0_mu]
    mod = _mod("a4")
    g = structure.realization(mod.data)
    sub, funds = _sub_and_funds(mod)
    checked = 0
    for p in structure._k_supported_roots(mod):
        rt = g.pos_roots[p]
        for j in range(mod.data.r):
            if not mod.data.lam[j] or rt.labels[j] not in (-1, 0, 1):
                continue
            for mu in funds:
                v = mat_apply(structure.root_op(mod, "e", p),
                              structure.f0_weight_combination(mod, mu))
                assert mod.apply("e", j, v) == {}
                checked += 1
    assert checked >= 4


def test_highest_root_bracket_recovers_its_coroot_member():
    # [f_theta, [e_theta, f0_mu]] = (mu, theta) f0_{theta vee}
    mod = _mod("a4")
    g = structure.realization(mod.data)
    sub, funds = _sub_and_funds(mod)
    # theta of the two-node component: coords (0, 0, 1, 1)
    p = next(p for p in range(len(g.pos_roots))
             if g.pos_roots[p].coords == (0, 0, 1, 1))
    labels_k = structure._k_labels(mod, g.pos_roots[p].labels)
    mu = funds[1]  # fundamental of the component's first node
    pairing = sub.bilinear(mu, labels_k)
    assert pairing != 0
    lhs = mat_apply(structure.root_op(mod, "f", p), mat_apply(
        structure.root_op(mod, "e", p),
        structure.f0_weight_combination(mod, mu)))
    rhs = vscale(structure.f0_weight_combination(mod, labels_k), pairing)
    assert vadd(lhs, rhs, -F1) == {}


# -- sharp assignment ------------------------------------------------------


def test_sharp_entries_cover_the_subalgebra():
    mod = _mod("a4")
    g = structure.realization(mod.data)
    img = structure.sharp_image(mod)
    kroots = structure._k_supported_roots(mod)
    assert len(img.entries) == 2 * len(kroots) + len(mod.k_nodes)
    for t in mod.k_nodes:
        assert img.entries[g.index[("h", t)]] == vscale(
            mod.seed_vecs[("f0", t)], -F1)


def test_sharp_is_equivariant():
    for name in ("a2", "a4"):
        mod = _mod(name)
        g = structure.realization(mod.data)
        img = structure.sharp_image(mod)
        basis = sorted(img.entries)
        for xi in basis:
            x = {xi: F1}
            for yi in basis:
                lhs = structure.apply_element(mod, x, img.entries[yi])
                rhs = img.sharp(dict(g.bracket_vec(x, {yi: F1})))
                assert vadd(lhs, rhs, -F1) == {}


def test_sharp_rejects_unsupported_elements():
    mod = _mod("a2")
    g = structure.realization(mod.data)
    img = structure.sharp_image(mod)
    outside = g.index[("h", 0)]  # node 0 carries lambda, not in K
    with pytest.raises(ValueError, match="not supported"):
        img.sharp({outside: F1})


def test_sharp_requires_a_complete_module():
    mod = _mod("a4", cell_cap=50)
    with pytest.raises(ValueError, match="did not stabilize"):
        structure.sharp_image(mod)


# -- weight combinations and reflections ----------------------------------


def test_f0_combination_coefficients():
    data = _DATA["a4"]()
    # theta vee of the two-node component: sub-labels (0, 1, 1)
    coeffs = structure.f0_combination_coeffs(data, (0, 2, 3), (0, 1, 1))
    assert coeffs == {2: F1, 3: F1}
    # simple coroot alpha_0 vee: sub-labels = its Cartan column (2, 0, 0)
    assert structure.f0_combination_coeffs(
        data, (0, 2, 3), (2, 0, 0)) == {0: F1}


def test_f0_combination_rejects_bad_input():
    data = _DATA["a4"]()
    with pytest.raises(ValueError, match="expected 3"):
        structure.f0_combination_coeffs(data, (0, 2, 3), (1, 0))
    # a singular zero-label block: affine 2x2 inside a 3-node diagram
    aff = CartanData([[2, -2, 0], [-2, 2, 0], [0, 0, 2]], lam=(0, 0, 1))
    with pytest.raises(ValueError, match="singular"):
        structure.f0_combination_coeffs(aff, (0, 1), (1, 0))


def test_coroot_combination_matches_simple_coroots():
    data = _DATA["a4"]()
    g = chevalley_realization(data)
    h = structure.coroot_combination(g, (0, 2, 3), (2, 0, 0))
    assert h == {g.index[("h", 0)]: F1}


def test_weyl_reflection_on_cartan_elements():
    mod = _mod("a4")
    g = structure.realization(mod.data)
    sub, funds = _sub_and_funds(mod)
    for kpos, knode in enumerate(mod.k_nodes):
        alpha_k = tuple(Fraction(sub.a[t][kpos]) for t in range(sub.r))
        for mu in funds:
            h = structure.coroot_combination(g, mod.k_nodes, mu)
            out = structure.weyl_automorphism(g, knode, h)
            c = sub.bilinear(alpha_k, mu)
            expect = vadd(h, {g.index[("h", knode)]: F1}, -c)
            assert vadd(out, expect, -F1) == {}
        si = g.simple_root_index(knode)
        out = structure.weyl_automorphism(g, knode, {g.index[("e", si)]: F1})
        assert out == {g.index[("f", si)]: -F1}


def test_weyl_reflection_transports_the_family():
    for name in ("a2", "a4"):
        mod = _mod(name)
        sub, funds = _sub_and_funds(mod)
        for kpos, knode in enumerate(mod.k_nodes):
            for mu in funds:
                lhs = structure.weyl_automorphism(
                    mod, knode, structure.f0_weight_combination(mod, mu))
                rhs = structure.f0_weight_combination(
                    mod, weyl_reflect(sub, kpos, mu))
                assert vadd(lhs, rhs, -F1) == {}


def test_weyl_automorphism_rejects_other_targets():
    with pytest.raises(TypeError, match="target"):
        structure.weyl_automorphism("nope", 0, {})


def test_exp_nilpotent_bound():
    with pytest.raises(ValueError, match="nilpotency bound"):
        structure._exp_nilpotent(lambda v: v, {0: F1})


# -- reduced relation sets -------------------------------------------------


def test_mixed_raising_relations_are_redundant_simply_laced():
    for name in ("a2", "a4"):
        pres = tha.presentation(_DATA[name](), "W")
        red = structure.reduced_presentation(pres)
        mod = tha.build_minus1(red)
        assert mod.status == "complete"
        assert mod.decompose() == _mod(name).decompose()
        # the dropped instances already evaluate to zero
        for rel in structure.relations_tagged(pres, "f0-raise-jk"):
            vec = dict(mod.seed_vecs[rel.target])
            for op in reversed(rel.ops):
                vec = mod.apply(op[0], op[1], vec)
            assert not rel.rhs and vec == {}


def test_square_relations_are_independent_at_module_level():
    # without them the span closure grows without bound
    pres = tha.presentation(_DATA["a2"](), "W")
    red = structure.reduced_presentation(pres,
                                   drop=("f0-raise-kk", "f0-lower-kk"))
    mod = tha.build_minus1(red, cell_cap=300)
    assert mod.status == "inconclusive"
    hist = mod.certificate["dims_by_depth"]
    assert sum(hist[-1].values()) > sum(hist[-2].values())


def test_reduced_presentation_requires_simply_laced():
    pres = tha.presentation(CartanData(G2, epsilon=(3, 1), lam=(0, 1)), "W")
    with pytest.raises(ValueError, match="simply-laced"):
        structure.reduced_presentation(pres)


# -- structure hypotheses ---------------------------------------------------


def test_structure_hypotheses_met_on_examples():
    for name in ("a2", "a4", "d4"):
        gate = structure.structure_hypotheses(_DATA[name]())
        assert gate["hypotheses_met"]


def test_structure_hypotheses_flag_large_labels():
    gate = structure.structure_hypotheses(CartanData(A1, lam=(2,)))
    assert not gate["hypotheses_met"]
    assert not gate["labels_ok"]


def test_structure_hypotheses_flag_deep_pairings():
    data = CartanData(G2, epsilon=(3, 1), lam=(0, 1))
    gate = structure.structure_hypotheses(data)
    assert not gate["hypotheses_met"]
    assert gate["labels_ok"]
    assert any(w.get("pairing", 0) < -1 for w in gate["witnesses"])
    with pytest.raises(ValueError, match="hypotheses fail"):
        structure.expected_minus1_decomposition(data, "W")


def test_expected_decomposition_counts_components():
    data = _DATA["a4"]()
    exp = structure.expected_minus1_decomposition(data, "W")
    assert [d for _, _, d in exp] == [10, 15, 40]
    assert sum(m * d for _, m, d in exp) == 65
    exp_s = structure.expected_minus1_decomposition(data, "S")
    assert sum(m * d for _, m, d in exp_s) == 55
