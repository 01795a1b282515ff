"""Tests for the contragredient construction B(g, lambda, kappa).

The degree-0 part is g extended by the new Cartan generator h_0, degree 1
carries the lowest-weight module R(-lambda) with e_0 its lowest vector, and
degree -1 the dual basis with f_0 = -x^0.  Small cases have known shapes:
(A_1, L_1) gives sl(2|1) with dimensions 2/4/2, (A_2, L_1) gives sl(3|1),
and (A_4, L_2) has one-parameter wings of dimension 5 at degrees +-2.
"""

from fractions import Fraction

from gradedlie.contragredient import build_graded, build_local
from gradedlie.graded import check_local_axioms, decompose_at_degree
from gradedlie.rootsys import CartanData

A1 = [[2]]
A2 = [[2, -1], [-1, 2]]
A4 = [
    [2, -1, 0, 0],
    [-1, 2, -1, 0],
    [0, -1, 2, -1],
    [0, 0, -1, 2],
]
D4 = [
    [2, -1, 0, 0],
    [-1, 2, -1, -1],
    [0, -1, 2, 0],
    [0, -1, 0, 2],
]

ONE = Fraction(1)


def test_extended_matrix_grading_coords():
    # B = [[0, -1], [-1, 2]] for (A_1, L_1), so L = -2 h_0 - h_1
    local = build_local(CartanData(A1, lam=[1]))
    h0 = local.zero_names.index(("h0",))
    h1 = local.zero_names.index(("h", 0))
    assert local.grading == {h0: Fraction(-2), h1: Fraction(-1)}


def test_extended_matrix_singular():
    # lambda = 0 bordered onto A_1 gives a singular B.
    try:
        build_local(CartanData(A1, lam=[0]))
    except ValueError as exc:
        assert "singular" in str(exc)
    else:
        raise AssertionError("expected singular extended matrix error")


def test_local_axioms():
    for a, lam in [(A1, [1]), (A2, [1, 0])]:
        local = build_local(CartanData(a, lam=lam))
        report = check_local_axioms(local)
        assert report["passed"], report["checks"]


def test_local_shape():
    data = CartanData(A2, lam=[1, 0])
    local = build_local(data)
    # zero part is sl(3) + h_0, odd wings are 3-dimensional duals.
    assert local.nzero == 9 and local.npos == 3 and local.nneg == 3
    assert local.zero_names[-1] == ("h0",)
    assert all(p == 1 for p in local.pos_parities)
    assert all(p == 1 for p in local.neg_parities)
    # <x^p|v_q> is the dual pairing.
    assert local.pairing == {(p, p): ONE for p in range(3)}


def test_bracket_e0_f0():
    data = CartanData(A1, lam=[1])
    local = build_local(data)
    ext = build_graded(data, (-2, 2))
    h0 = local.zero_names.index(("h0",))
    # f_0 = -x^0, and [e_0, f_0] = h_0.
    deg, vec = ext.bracket((1, {0: ONE}), (-1, {0: -ONE}))
    assert deg == 0 and vec == {h0: ONE}
    # the raw pairing bracket [x^0, v_0] = -h_0.
    assert local.bpm[(0, 0)] == {h0: -ONE}


def test_dimensions_sl_2_1():
    ext = build_graded(CartanData(A1, lam=[1]), (-3, 3))
    assert ext.dims() == {-3: 0, -2: 0, -1: 2, 0: 4, 1: 2, 2: 0, 3: 0}


def test_dimensions_sl_3_1():
    ext = build_graded(CartanData(A2, lam=[1, 0]), (-2, 2))
    assert ext.dims() == {-2: 0, -1: 3, 0: 9, 1: 3, 2: 0}


def test_dimensions_a4_weight2():
    ext = build_graded(CartanData(A4, lam=[0, 1, 0, 0]), (-2, 2))
    assert ext.dims() == {-2: 5, -1: 10, 0: 25, 1: 10, 2: 5}


def test_dimensions_d4_vector():
    ext = build_graded(CartanData(D4, lam=[1, 0, 0, 0]), (-2, 2))
    assert ext.dims() == {-2: 1, -1: 8, 0: 29, 1: 8, 2: 1}


def test_serre_relations_hold():
    data = CartanData(A2, lam=[1, 0])
    ext = build_graded(data, (-2, 2))
    e0 = (1, {0: ONE})
    lamw = data.wedge(data.lam)
    for j in range(2):
        cur = (0, ext.zero_coords_of(("e", j)))
        for _ in range(1 + int(lamw[j])):
            cur = ext.bracket(e0, cur)
        assert cur[1] == {}, (j, cur)
    # e_0 is odd with [e_0, e_0] = 0.
    assert ext.bracket(e0, e0)[1] == {}


def test_decompose_wings():
    data = CartanData(A2, lam=[1, 0])
    ext = build_graded(data, (-2, 2))
    assert decompose_at_degree(ext, 1) == [
        ((Fraction(0), Fraction(1)), 1, 3)
    ]
    assert decompose_at_degree(ext, -1) == [
        ((Fraction(1), Fraction(0)), 1, 3)
    ]


def test_decompose_degree_two():
    data = CartanData(A4, lam=[0, 1, 0, 0])
    ext = build_graded(data, (-2, 2))
    lam4 = tuple(Fraction(x) for x in (0, 0, 0, 1))
    lam1 = tuple(Fraction(x) for x in (1, 0, 0, 0))
    assert decompose_at_degree(ext, -2) == [(lam4, 1, 5)]
    assert decompose_at_degree(ext, 2) == [(lam1, 1, 5)]
