"""Cartan data, root systems, weight arithmetic, and Chevalley tables."""

import itertools
from fractions import Fraction

import pytest

import oracles

from gradedlie import rootsys
from gradedlie.rootsys import (
    CartanData,
    chevalley_realization,
    enumerate_roots,
    highest_roots,
    jk_partition,
    pseudo_minuscule_failure,
    root_action,
    validate_cartan,
    weyl_dimension,
    weyl_reflect,
)

A1 = [[2]]
A2 = [[2, -1], [-1, 2]]
A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
A4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
B2 = [[2, -2], [-1, 2]]
G2 = [[2, -1], [-3, 2]]
D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]


def chain(n):
    """The A_n Cartan matrix."""
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
             for j in range(n)] for i in range(n)]


def test_validate_a2():
    rep = validate_cartan(CartanData(A2))
    assert rep["valid"]
    assert rep["components"] == [{"nodes": [0, 1], "type": "finite"}]


def e_mat(n):
    """The E_n Cartan matrix: a chain of n - 1 nodes plus a branch node
    on the third."""
    a = chain(n - 1)
    for row in a:
        row.append(0)
    a.append([0] * n)
    a[n - 1][n - 1] = 2
    a[n - 1][2] = a[2][n - 1] = -1
    return a


@pytest.mark.parametrize("a, eps, count", [
    (A1, None, 1),
    (G2, [1, 3], 6),
    (B2, [2, 1], 4),
    (D4, None, 12),
    ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], [1, 1, 2], 9),
    ([[2, -1, 0], [-1, 2, -2], [0, -1, 2]], [2, 2, 1], 9),
    ([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
     [2, 2, 1, 1], 24),
    (e_mat(6), None, 36),
    (e_mat(7), None, 63),
    (e_mat(8), None, 120),
], ids=["A1", "G2", "B2", "D4", "B3", "C3", "F4", "E6", "E7", "E8"])
def test_positive_root_counts(a, eps, count):
    data = CartanData(a, eps)
    assert validate_cartan(data)["valid"]
    assert len(data.positive_roots) == count
    assert len(enumerate_roots(data)) == 2 * count


def test_roots_and_validation_once_per_datum(monkeypatch):
    calls = []
    original = rootsys.validate_cartan

    def counted(data):
        calls.append(data)
        return original(data)

    monkeypatch.setattr(rootsys, "validate_cartan", counted)
    data = CartanData(A4, lam=[0, 1, 0, 0])
    assert [weyl_dimension(data, mu) for mu in
            [(0, 1, 0, 0), (2, 0, 0, 0), (0, 0, 1, 1)]] == [10, 15, 40]
    roots = enumerate_roots(data)
    assert len(calls) == 1
    assert len(roots) == 20
    # the list handed out is the caller's own
    want = list(roots)
    roots[0] = None
    roots.clear()
    assert enumerate_roots(data) == want
    assert len(calls) == 1


def test_affine_and_invertibility():
    rep = validate_cartan(CartanData([[2, -2], [-2, 2]]))
    assert rep["components"][0]["type"] == "affine"
    assert not rep["valid"]
    assert [c for c in rep["checks"] if c["name"] == "invertible"][0][
        "passed"] is False


def test_epsilon_zero_message():
    rep = validate_cartan(CartanData(A2, [0, 1]))
    bad = [c for c in rep["checks"] if c["name"] == "epsilon_nonzero"][0]
    assert not bad["passed"]
    assert bad["detail"] == "symmetrizer entries must be nonzero"


def test_nonsymmetrizable_cycle():
    a = [[2, -1, -1], [-1, 2, -1], [-2, -1, 2]]
    rep = validate_cartan(CartanData(a))
    assert not [c for c in rep["checks"]
                if c["name"] == "symmetrizable"][0]["passed"]
    assert rep["components"][0]["type"] == "indefinite"


@pytest.mark.parametrize("a", [[[2, 0], [-1, 2]], [[2, -1], [0, 2]]],
                         ids=["lower", "upper"])
def test_one_sided_zero_is_reported_not_raised(a):
    data = CartanData(a)
    rep = validate_cartan(data)
    failed = {c["name"] for c in rep["checks"] if not c["passed"]}
    assert "zero_symmetry" in failed
    nodes = sorted(i for comp in rep["components"] for i in comp["nodes"])
    assert nodes == [0, 1]
    with pytest.raises(ValueError, match="zero pattern must be symmetric"):
        weyl_dimension(data, (0, 0))


def test_wrong_symmetrizer_rejected():
    # epsilon = 1 does not symmetrize B2
    rep = validate_cartan(CartanData(B2))
    assert not rep["valid"]
    with pytest.raises(ValueError):
        weyl_dimension(CartanData(B2), (1, 0))


def test_bilinear_a2():
    d = CartanData(A2)
    assert d.bilinear((1, 0), (1, 0)) == Fraction(2, 3)
    assert d.bilinear((1, 0), (0, 1)) == Fraction(1, 3)
    a1 = d.labels_of_root((1, 0))
    assert a1 == (2, -1)
    assert d.bilinear(a1, a1) == 2
    # wedge/vee round trip
    dm = CartanData(B2, [2, 1])
    lam = (1, 1)
    assert dm.vee(dm.wedge(lam)) == dm.weight(lam)


def test_root_counts():
    for a, eps, count in [(A2, None, 6), (B2, [2, 1], 8), (G2, [1, 3], 12),
                          (A4, None, 20), (D4, None, 24)]:
        assert len(enumerate_roots(CartanData(a, eps))) == count
    # E6: 72 roots
    e6 = [[2, -1, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0], [0, -1, 2, -1, 0, -1],
          [0, 0, -1, 2, -1, 0], [0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 2]]
    assert len(enumerate_roots(CartanData(e6))) == 72


def test_root_order_and_negation():
    roots = enumerate_roots(CartanData(A2))
    pos = [r for r in roots if r.height > 0]
    assert [r.coords for r in pos] == [(0, 1), (1, 0), (1, 1)]
    assert [r.coords for r in roots[3:]] == [(0, -1), (-1, 0), (-1, -1)]


def test_root_norms_b2():
    pos = [r for r in enumerate_roots(CartanData(B2, [2, 1]))
           if r.height > 0]
    norms = sorted(r.norm for r in pos)
    assert norms == [1, 1, 2, 2]


def test_highest_roots_d4():
    (theta,) = highest_roots(CartanData(D4))
    assert theta.coords == (1, 2, 1, 1)
    assert theta.labels == (0, 1, 0, 0)


def test_highest_roots_restricted_a4():
    data = CartanData(A4, lam=[0, 1, 0, 0])
    tops = highest_roots(data, nodes=[0, 2, 3])
    assert [t.coords for t in tops] == [(1, 0, 0, 0), (0, 0, 1, 1)]
    assert [t.labels for t in tops] == [(2, -1, 0, 0), (0, -1, 1, 1)]


def test_weyl_reflect():
    d = CartanData(A2)
    assert weyl_reflect(d, 0, (1, 0)) == (-1, 1)
    assert weyl_reflect(d, 1, (1, 0)) == (1, 0)
    # involution
    assert weyl_reflect(d, 0, weyl_reflect(d, 0, (2, 5))) == (2, 5)


_B3 = [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]
_B4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]]
_C3 = [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
_F4 = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]


@pytest.mark.parametrize("a, eps", [
    (A1, None), (A2, None), (A3, None), (A4, None), (B2, [2, 1]),
    (_B3, [2, 2, 1]), (_B4, [2, 2, 2, 1]), (_C3, [1, 1, 2]), (D4, None),
    (G2, [1, 3]),
], ids=["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2"])
def test_orbit_size_matches_enumeration(a, eps):
    data = CartanData(a, eps)
    for mu in itertools.product(range(3), repeat=data.r):
        assert data.orbit_size(mu) == len(oracles.weyl_orbit(data, mu)), mu


@pytest.mark.parametrize("a, eps, order", [
    (_F4, [2, 2, 1, 1], 1152),
    (e_mat(6), None, 51840),
    (e_mat(7), None, 2903040),
    (e_mat(8), None, 696729600),
], ids=["F4", "E6", "E7", "E8"])
def test_weyl_group_order(a, eps, order):
    assert CartanData(a, eps).weyl_order() == order


@pytest.mark.parametrize("a, eps", [
    (A1, None), (A3, None), (B2, [2, 1]), (_B3, [2, 2, 1]),
    (_C3, [1, 1, 2]), (D4, None), (G2, [1, 3]),
], ids=["A1", "A3", "B2", "B3", "C3", "D4", "G2"])
def test_dominant_conjugate_is_constant_on_orbits(a, eps):
    """The tests' dominant conjugate, which checks which blocks the
    extension values, against the orbits it walks up."""
    data = CartanData(a, eps)
    for mu in itertools.product(range(2), repeat=data.r):
        for nu in oracles.weyl_orbit(data, mu):
            assert oracles.dominant_conjugate(data, nu) == mu, nu


def test_dominant_conjugate_needs_integral_labels():
    with pytest.raises(ValueError, match="not integral"):
        oracles.dominant_conjugate(CartanData(A2), (Fraction(1, 2), -1))


def _orbit_cases():
    """Every dominant weight with labels <= 1 on the generated data of rank
    at most 4, and the fundamental weights of E6 and F4."""
    for name in sorted(_GENERATED):
        a, eps = _GENERATED[name]
        if len(a) <= 4:
            for mu in itertools.product(range(2), repeat=len(a)):
                yield name, a, eps, mu
    for name in ("E6", "F4"):
        a, eps = _GENERATED[name]
        for i in range(len(a)):
            yield name, a, eps, tuple(int(j == i) for j in range(len(a)))


def test_orbit_matches_enumeration():
    """``CartanData.orbit`` lists each weight of the orbit once, the
    dominant one first: the closure under all simple reflections, of
    size ``orbit_size``."""
    cases = list(_orbit_cases())
    assert {name for name, *_ in cases} >= {"A4", "B4", "C4", "D4", "F4",
                                            "G2", "E6"}
    for name, a, eps, mu in cases:
        data = CartanData(a, eps)
        orbit = data.orbit(mu)
        assert orbit[0] == mu, (name, mu)
        assert len(set(orbit)) == len(orbit) == data.orbit_size(mu)
        assert set(orbit) == oracles.weyl_orbit(data, mu), (name, mu)


@pytest.mark.parametrize("mu", [(1, -1), (Fraction(1, 2), 0)],
                         ids=["not-dominant", "not-integral"])
def test_orbit_needs_dominant_integral_labels(mu):
    with pytest.raises(ValueError, match="not dominant integral"):
        CartanData(A2).orbit(mu)


def test_orbit_size_needs_a_dominant_weight():
    with pytest.raises(ValueError, match="not dominant"):
        CartanData(A2).orbit_size((1, -1))


def test_pseudo_minuscule():
    assert pseudo_minuscule_failure(CartanData(A1), (1,)) is None
    rt, val = pseudo_minuscule_failure(CartanData(A1), (2,))
    assert rt.coords == (1,) and val == 2

    a4 = CartanData(A4)
    assert pseudo_minuscule_failure(a4, (0, 1, 0, 0)) is None
    rt, val = pseudo_minuscule_failure(a4, (2, 0, 0, 0))
    assert rt.coords == (1, 0, 0, 0) and val == 2
    rt, val = pseudo_minuscule_failure(a4, (0, 0, 1, 1))
    assert val == 2

    assert pseudo_minuscule_failure(CartanData(D4), (1, 0, 0, 0)) is None
    # non-dominant weights are reported against the first positive root
    rt, val = pseudo_minuscule_failure(a4, (-1, 0, 0, 0))
    assert rt.coords == (0, 0, 0, 1)


def test_weyl_dimension():
    assert weyl_dimension(CartanData(A1), (0,)) == 1
    assert weyl_dimension(CartanData(A1), (1,)) == 2
    assert weyl_dimension(CartanData(A1), (2,)) == 3
    a2 = CartanData(A2)
    assert weyl_dimension(a2, (1, 1)) == 8
    assert weyl_dimension(a2, (3, 0)) == 10
    a4 = CartanData(A4)
    assert weyl_dimension(a4, (0, 1, 0, 0)) == 10
    assert weyl_dimension(a4, (2, 0, 0, 0)) == 15
    assert weyl_dimension(a4, (0, 0, 1, 1)) == 40
    assert weyl_dimension(a4, (0, 2, 0, 0)) == 50
    d4 = CartanData(D4)
    assert weyl_dimension(d4, (1, 0, 0, 0)) == 8
    assert weyl_dimension(d4, (0, 0, 1, 1)) == 56
    b2 = CartanData(B2, [2, 1])
    assert weyl_dimension(b2, (1, 0)) == 4
    assert weyl_dimension(b2, (0, 1)) == 5
    # negated symmetrizer: same root strings, same dimensions
    b2n = CartanData(B2, [-2, -1])
    assert weyl_dimension(b2n, (1, 0)) == 4
    with pytest.raises(ValueError):
        weyl_dimension(a2, (-1, 0))


def test_jk_partition():
    j, k = jk_partition(CartanData(A4, lam=[0, 1, 0, 0]))
    assert j == (1,) and k == (0, 2, 3)


# -- Chevalley realizations -------------------------------------------------


def _jacobi_failure(g):
    # [[x,y],z] = [x,[y,z]] - [y,[x,z]] (all basis elements are even)
    one = Fraction(1)
    for i in range(g.dim):
        for j in range(g.dim):
            for k in range(g.dim):
                lhs = g.bracket_vec(dict(g.bracket(i, j)), {k: one})
                rhs = g.bracket_vec({i: one}, dict(g.bracket(j, k)))
                for t, c in g.bracket_vec({j: one},
                                          dict(g.bracket(i, k))).items():
                    rhs[t] = rhs.get(t, Fraction(0)) - c
                diff = dict(lhs)
                for t, c in rhs.items():
                    diff[t] = diff.get(t, Fraction(0)) - c
                if any(diff.values()):
                    return (i, j, k)
    return None


def test_chevalley_sl2():
    g = chevalley_realization(CartanData(A1))
    assert g.dim == 3
    f, h, e = g.index[("f", 0)], g.index[("h", 0)], g.index[("e", 0)]
    assert g.bracket(e, f) == {h: 1}
    assert g.bracket(h, e) == {e: 2}
    assert g.bracket(h, f) == {f: -2}
    assert g.kappa(e, f) == 1
    assert g.kappa(h, h) == 2


def test_chevalley_dims_and_jacobi():
    for a, eps in [(A1, None), (A2, None), (B2, [2, 1]), (G2, [1, 3]),
                   (A3, None), (D4, None), (A4, None)]:
        data = CartanData(a, eps)
        g = chevalley_realization(data)
        assert g.dim == len(enumerate_roots(data)) + data.r
        assert _jacobi_failure(g) is None, a


def test_chevalley_extraspecial_sign():
    g = chevalley_realization(CartanData(A2))
    s0, s1 = g.simple_root_index(0), g.simple_root_index(1)
    (top,) = [k for k, rt in enumerate(g.pos_roots) if rt.height == 2]
    assert g.bracket(g.index[("e", s0)], g.index[("e", s1)]) == {
        g.index[("e", top)]: 1}


def _classical(series, n):
    """Cartan matrix and symmetrizer of A_n, B_n, C_n or D_n: B_n has
    A_{n-2,n-1} = -2, C_n its transpose, D_n its last node on node n - 3."""
    a = chain(n)
    if series == "B":
        a[n - 2][n - 1] = -2
    elif series == "C":
        a[n - 1][n - 2] = -2
    elif series == "D":
        a[n - 2][n - 1] = a[n - 1][n - 2] = 0
        a[n - 3][n - 1] = a[n - 1][n - 3] = -1
    eps = {"B": [2] * (n - 1) + [1], "C": [1] * (n - 1) + [2]}
    return a, eps.get(series)


_GENERATED = {"%s%d" % (series, n): _classical(series, n)
              for series, ranks in (("A", range(2, 6)), ("B", range(2, 5)),
                                    ("C", range(3, 5)), ("D", range(4, 6)))
              for n in ranks}
_GENERATED.update(E6=(e_mat(6), None), F4=(_F4, [2, 2, 1, 1]),
                  G2=(G2, [1, 3]))


@pytest.mark.parametrize("name", sorted(_GENERATED))
def test_extraspecial_decomposition(name):
    """gamma = alpha_i + beta with i the first node leaving a positive
    root, n - 1 the length of the alpha_i-string below beta, and the
    Chevalley table has [e_{alpha_i}, e_beta] = n e_gamma."""
    data = CartanData(*_GENERATED[name])
    positives = data.positive_roots
    roots = {rt.coords for rt in positives}
    roots |= {tuple(-c for c in coords) for coords in roots}

    def minus(coords, i, k):
        return tuple(c - k * (j == i) for j, c in enumerate(coords))

    g = chevalley_realization(data)
    for k, rt in enumerate(positives):
        split = data.extraspecial[k]
        if rt.height == 1:
            assert split is None
            continue
        i, b, n = split
        beta = positives[b].coords
        assert beta == minus(rt.coords, i, 1)
        assert all(minus(rt.coords, j, 1) not in roots for j in range(i))
        assert all(minus(beta, i, p) in roots for p in range(1, n))
        assert minus(beta, i, n) not in roots
        assert g.bracket(g.index[("e", g.simple_root_index(i))],
                         g.index[("e", b)]) == {g.index[("e", k)]: n}


def test_chevalley_corrupted_table_fails_jacobi():
    g = chevalley_realization(CartanData(A2))
    # flip one structure constant; the Jacobi scan must notice
    key = next(k for k, v in g._table.items() if v)
    tgt = next(iter(g._table[key]))
    g._table[key] = dict(g._table[key])
    g._table[key][tgt] = -g._table[key][tgt]
    assert _jacobi_failure(g) is not None


@pytest.mark.parametrize("corrupt", ["wrong-target", "zero"])
def test_root_action_rejects_corrupted_constant(corrupt):
    """The action of e_{a1+a2} divides by the constant of [e_a1, e_a2];
    a table where that bracket is no nonzero multiple of e_{a1+a2} is
    refused with an error, not an assert that python -O would strip."""
    g = chevalley_realization(CartanData(A2))
    s0, s1 = g.simple_root_index(0), g.simple_root_index(1)
    (top,) = [k for k, rt in enumerate(g.pos_roots) if rt.height == 2]
    key = (g.index[("e", s0)], g.index[("e", s1)])
    g._table[key] = ({g.index[("h", 0)]: Fraction(1)}
                     if corrupt == "wrong-target"
                     else {g.index[("e", top)]: Fraction(0)})
    simple = {"e": [{0: {1: Fraction(1)}}, {1: {0: Fraction(1)}}],
              "f": [{}, {}]}
    assert root_action(g, simple, "f", top, {}) == {}
    with pytest.raises(ValueError, match="structure constants of g"):
        root_action(g, simple, "e", top, {})


def test_chevalley_kappa_epsilon():
    data = CartanData(B2, [2, 1])
    g = chevalley_realization(data)
    for i in range(2):
        si = g.simple_root_index(i)
        assert g.kappa(g.index[("e", si)], g.index[("f", si)]) \
            == data.epsilon[i]
    # h-block: kappa(h_i, h_j) = epsilon_i A_ji
    assert g.kappa(g.index[("h", 0)], g.index[("h", 1)]) == \
        data.epsilon[0] * data.a[1][0]
    assert g.kappa(g.index[("h", 0)], g.index[("h", 1)]) == \
        g.kappa(g.index[("h", 1)], g.index[("h", 0)])


def test_chevalley_coroot_theta():
    data = CartanData(A2)
    g = chevalley_realization(data)
    (theta,) = highest_roots(data)
    coords = g.coroot_coords(theta)
    assert coords == {g.index[("h", 0)]: 1, g.index[("h", 1)]: 1}
    # [e_theta, f_theta] = h_theta
    (ti,) = [k for k, rt in enumerate(g.pos_roots) if rt.coords == theta.coords]
    assert g.bracket(g.index[("e", ti)], g.index[("f", ti)]) == coords


def test_chevalley_weights_additive():
    g = chevalley_realization(CartanData(B2, [2, 1]))
    for i in range(g.dim):
        for j in range(g.dim):
            for k, c in g.bracket(i, j).items():
                assert c
                assert g.weights[k] == tuple(
                    a + b for a, b in zip(g.weights[i], g.weights[j]))
