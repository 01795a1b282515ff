"""Tests for the comparison map between the relations model and the
cartanification."""

from __future__ import annotations

import functools
from fractions import Fraction

import pytest

from gradedlie import iso, tha
from gradedlie.cartan import (
    cartanify,
    local_cartanification,
    products,
    root_subalgebra,
)
from gradedlie.contragredient import build_local
from gradedlie.linalg import Span, vadd
from gradedlie.rootsys import CartanData, chevalley_realization, jk_partition

import structure

F1 = Fraction(1)


def _a(n):
    return [
        [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
        for i in range(n)
    ]


_D4 = [[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]]

_DATA = {
    "a1": lambda: CartanData(_a(1), lam=(1,)),
    "a2": lambda: CartanData(_a(2), lam=(1, 0)),
    "a3": lambda: CartanData(_a(3), lam=(1, 0, 0)),
    "a4": lambda: CartanData(_a(4), lam=(1, 0, 0, 0)),
    "a4l2": lambda: CartanData(_a(4), lam=(0, 1, 0, 0)),
    "d4": lambda: CartanData(_D4, lam=(1, 0, 0, 0)),
    "c3": lambda: CartanData([[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
                             epsilon=(1, 1, 2), lam=(1, 0, 0)),
    # non-integral weight blocks in the extension to degree -2
    "b3": lambda: CartanData([[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
                             epsilon=(2, 2, 1), lam=(0, 0, 1)),
}

# lambda meets two simple components, so B^W is larger than W
_PARTING = {
    "a1xa1": lambda: CartanData([[2, 0], [0, 2]], lam=(1, 1)),
    "a1xa2": lambda: CartanData([[2, 0, 0], [0, 2, -1], [0, -1, 2]],
                                lam=(1, 1, 0)),
}

_VERDICTS: dict = {}


def _verdict(name):
    if name not in _VERDICTS:
        _VERDICTS[name] = iso.check_isomorphism(_DATA[name]())
    return _VERDICTS[name]


class TestVerdicts:
    @pytest.mark.parametrize("name",
                             ["a1", "a2", "a3", "a4", "a4l2", "d4", "c3",
                              "b3"])
    def test_isomorphic(self, name):
        verdict = _verdict(name)
        assert verdict.verdict == "isomorphic"
        assert verdict.surjective is True
        assert verdict.injective is True
        assert verdict.homomorphism["passed"]
        assert verdict.identities["passed"]

    @pytest.mark.parametrize("name",
                             ["a1", "a2", "a3", "a4", "a4l2", "d4", "c3",
                              "b3"])
    def test_no_homomorphism_violations(self, name):
        verdict = _verdict(name)
        for check in verdict.homomorphism["checks"]:
            assert check["violations"] == [], check["name"]

    def test_a4_second_fundamental_sides(self):
        verdict = _verdict("a4l2")
        assert verdict.sides["relations_model"]["dim"] == 65
        assert verdict.sides["cartanification"]["minus1_dim"] == 65
        expected = [
            ((0, 0, 1, 1), 1, 40),
            ((0, 1, 0, 0), 1, 10),
            ((2, 0, 0, 0), 1, 15),
        ]
        assert verdict.sides["relations_model"]["decomposition"] == sorted(expected)
        assert verdict.sides["cartanification"]["decomposition"] == sorted(expected)

    def test_d4_sides(self):
        verdict = _verdict("d4")
        assert verdict.sides["relations_model"]["dim"] == 64
        assert verdict.sides["cartanification"]["minus1_dim"] == 64

    def test_hypotheses_recorded(self):
        verdict = _verdict("a4l2")
        assert verdict.hypotheses == {
            "simple": True,
            "lambda_pseudo_minuscule": True,
            "wedge_pseudo_minuscule": True,
            "lambda_equals_wedge": True,
        }

    def test_k_empty_direct_comparison(self):
        verdict = _verdict("a1")
        assert "contragredient" in verdict.sides
        assert (
            verdict.sides["contragredient"]["dims"]
            == verdict.sides["cartanification"]["dims"]
        )


class TestPrecondition:
    def test_error_names_failing_root(self):
        data = CartanData(_a(1), lam=(2,))
        with pytest.raises(ValueError, match="pseudo-minuscule precondition"):
            iso.phi_assignment(data)
        with pytest.raises(ValueError, match=r"\(1,\) to 2"):
            iso.check_isomorphism(data)

    def test_error_on_sum_of_fundamentals(self):
        data = CartanData(_a(2), lam=(1, 1))
        with pytest.raises(ValueError, match=r"\(1, 1\) to 2"):
            iso.check_isomorphism(data)

    def test_error_names_non_integral_completed_weight(self):
        # B3 with lambda = omega_1: the completion omega_1 / 2 is not integral
        data = CartanData([[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
                          epsilon=(2, 2, 1), lam=(1, 0, 0))
        with pytest.raises(ValueError) as err:
            iso.require_pseudo_minuscule(data)
        message = str(err.value)
        assert message.startswith("pseudo-minuscule precondition fails")
        assert "labels (1/2, 0, 0), which are not dominant integral" in message
        assert "root" not in message

    def test_require_helper_passes_quietly(self):
        iso.require_pseudo_minuscule(_DATA["a2"]())


class TestPhiAssignment:
    def test_degrees_and_family(self):
        data = _DATA["a2"]()
        phi = iso.phi_assignment(data)
        assert phi.assignment[("e0",)][0] == 1
        assert phi.assignment[("h0",)][0] == 0
        for i in range(data.r):
            for kind in ("e", "f", "h"):
                assert phi.assignment[(kind, i)][0] == 0
        assert {name[1] for name in phi.assignment if name[0] == "f0"} \
            == set(phi.presentation.family)
        for i in phi.presentation.family:
            degree, vec = phi.assignment[("f0", i)]
            assert degree == -1
            assert vec  # images are nonzero

    @pytest.mark.parametrize("name", ["a2", "a4l2"])
    def test_e0_bracket_recovers_coroots(self, name):
        data = _DATA[name]()
        phi = iso.phi_assignment(data)
        cart = phi.cartanification
        g = chevalley_realization(data)
        e0 = phi.assignment[("e0",)]
        for i in phi.presentation.family:
            degree, out = cart.graded.bracket(e0, phi.assignment[("f0", i)])
            assert degree == 0
            if i == tha.EXT:
                expected = cart.zero_class({g.dim: F1})
            else:
                expected = cart.zero_class({g.index[("h", i)]: F1})
            assert out == expected


class TestIdentities:
    def test_report_shape_a2(self):
        data = _DATA["a2"]()
        phi = iso.phi_assignment(data)
        report = iso.pseudo_minuscule_identities(data, phi.cartanification)
        assert report["passed"]
        names = [check["name"] for check in report["checks"]]
        assert names == [
            "f0-annihilates-h0-plus-grading",
            "f0-annihilates-unit-pairing-raisers",
            "f0-lowering-exchange",
        ]
        by_name = {check["name"]: check for check in report["checks"]}
        assert by_name["f0-annihilates-unit-pairing-raisers"]["instances"] == 2
        assert by_name["f0-lowering-exchange"]["instances"] == 1

    def test_unit_pairing_count_a4l2(self):
        data = _DATA["a4l2"]()
        phi = iso.phi_assignment(data)
        report = iso.pseudo_minuscule_identities(data, phi.cartanification)
        assert report["passed"]
        by_name = {check["name"]: check for check in report["checks"]}
        # roots beta of A4 with (Lambda_2, beta) = 1: those whose support
        # contains node 1, i.e. beta = alpha_i + ... + alpha_j with i <= 1 <= j
        assert by_name["f0-annihilates-unit-pairing-raisers"]["instances"] == 6


class TestIdentityControls:
    """The parts each identity compares are nonzero where they should be,
    so no identity check passes vacuously."""

    @pytest.mark.parametrize("name", ["a2", "a4l2", "c3"])
    def test_identity_parts_are_nonzero(self, name):
        data = _DATA[name]()
        local = build_local(data)
        cart = local_cartanification(local)
        f0 = {0: -F1}

        def cls(x, u):
            return cart.minus1_class(products(x, u))

        raisers = [k for k, n in enumerate(local.zero_names) if n[0] == "e"]
        assert raisers
        for k in raisers:
            pairing = data.bilinear(data.lam, local.zero_weights[k])
            assert bool(cls(f0, {k: F1})) == (pairing == 0), k
        h0 = cls(f0, local.zero_coords_of(("h0",)))
        grading = cls(f0, local.grading)
        assert h0 and grading
        assert vadd(h0, grading) == {}
        j_nodes, _ = jk_partition(data)
        assert j_nodes
        for j in j_nodes:
            f_j = local.zero_coords_of(("f", j))
            lower = cls(f0, f_j)
            exchanged = cls(local.bracket_vec(-1, f0, 0, f_j),
                            local.zero_coords_of(("h", j)))
            assert lower and exchanged
            assert vadd(lower, exchanged, -F1) == {}


class TestPhiCheck:
    """The homomorphism check of phi, as ``check_isomorphism`` reports it."""

    def test_passes_and_covers_all_tags(self):
        pres = tha.presentation(_DATA["a2"](), "W")
        report = _verdict("a2").homomorphism
        assert report["passed"]
        names = {check["name"] for check in report["checks"]}
        assert names == set(structure.tags(pres))

    def test_returns_assignment(self):
        data = _DATA["a1"]()
        phi = iso.phi_assignment(data)
        assert isinstance(phi, iso.PhiAssignment)
        report = tha.check_relations(
            phi.presentation, phi.cartanification.graded, phi.assignment)
        assert report == _verdict("a1").homomorphism


class TestWindow:
    def test_counted_layer_matches_the_built_one(self):
        # check-iso builds degrees -2..1 and counts degree -3
        data = _DATA["c3"]()
        verdict = iso.check_isomorphism(data, (-3, 1))
        built = cartanify(build_local(data), degree_range=(-3, 1))
        dims = verdict.sides["cartanification"]["dims"]
        assert list(dims.items()) == list(built.graded.dims().items())


class TestOutsideHypotheses:
    def test_non_simple_diagram_reports_data(self):
        data = CartanData([[2, 0], [0, 2]], lam=(1, 0))
        verdict = iso.check_isomorphism(data)
        assert verdict.verdict == "hypotheses not met"
        assert verdict.hypotheses["simple"] is False
        assert verdict.hypotheses["wedge_pseudo_minuscule"] is True
        assert verdict.sides["relations_model"]["dim"] == 8
        assert verdict.sides["cartanification"]["minus1_dim"] == 8

    @pytest.mark.parametrize("name, cart_dim, module_dim, rank", [
        ("a1xa1", 8, 4, 4),
        ("a1xa2", 24, 18, 18),
    ])
    def test_surjectivity_fails_when_lambda_meets_two_components(
            self, name, cart_dim, module_dim, rank):
        """The images f0 h_i generate a submodule of B^W_-1 as large as
        W_-1, and no more."""
        data = _PARTING[name]()
        verdict = iso.check_isomorphism(data)
        assert verdict.verdict == "hypotheses not met"
        assert verdict.surjective is False
        assert verdict.sides["cartanification"]["minus1_dim"] == cart_dim
        assert verdict.sides["relations_model"]["dim"] == module_dim
        assert _generation_rank(iso.phi_assignment(data)) == rank

    def test_inconclusive_when_enumeration_capped(self, monkeypatch):
        monkeypatch.setattr(tha, "build_minus1", functools.partial(
            tha.build_minus1, cell_cap=50))
        verdict = iso.check_isomorphism(_DATA["a4l2"]())
        assert verdict.verdict == "inconclusive"
        assert verdict.injective is None
        assert verdict.certificate["complete"] is False
        assert verdict.certificate["cells_created"] <= 50
        assert verdict.sides["relations_model"]["status"] != "complete"


def _generation_rank(phi):
    """Surjectivity's rank: the classes f0 h_i closed under the generators
    of degree 0 (``Cartanification.closure``)."""
    cart = phi.cartanification
    family = iso._family_products(phi.presentation, cart.source)
    return cart.closure(family.values()).dim()


def _rank_under_all_of_degree0(phi):
    """The family images closed under every degree-0 basis vector of the
    quotient, through its own brackets: the definition, kept as the
    oracle of the closure under generators."""
    local = phi.cartanification.local
    span = Span()
    images = [phi.assignment[("f0", i)][1] for i in phi.presentation.family]
    queue = [v for v in images if span.add(v)]
    while queue:
        vec = queue.pop()
        for u in range(local.nzero):
            out = local.bracket_vec(0, {u: 1}, -1, vec)
            if out and span.add(out):
                queue.append(out)
    return span.rank


@pytest.mark.parametrize("data", [
    CartanData(_a(3), lam=(0, 1, 0)),
    CartanData([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], epsilon=(1, 1, 2),
               lam=(1, 0, 0)),
    CartanData([[2, -2], [-1, 2]], epsilon=(2, 1), lam=(0, 1)),
    _PARTING["a1xa1"](),
    _PARTING["a1xa2"](),
], ids=["A3w2", "C3w1", "B2w2", "A1xA1", "A1xA2"])
def test_generation_rank_matches_closure_under_all_of_degree0(data):
    """On a weak cartanification the minus basis is the pivots and h0
    acts diagonally on weight vectors, so closing the family under the
    generators of degree 0 gives the rank of closing it under all of it,
    also where surjectivity fails (A1xA1, A1xA2)."""
    phi = iso.phi_assignment(data)
    assert _generation_rank(phi) == _rank_under_all_of_degree0(phi)


class TestSharedModule:
    def test_shared_module_gives_the_same_verdict(self):
        data = _DATA["a2"]()
        module = tha.build_minus1(tha.presentation(data, "W"))
        shared = iso.check_isomorphism(data, module=module)
        assert shared == _verdict("a2")

    @pytest.mark.parametrize("make, message", [
        (lambda data: tha.presentation(data, "S"), "variant S"),
        (lambda data: tha.presentation(_DATA["a1"](), "W"),
         "other Cartan data"),
    ], ids=["strong-module", "other-data"])
    def test_rejects_a_module_built_from_other_input(self, make, message):
        data = _DATA["a2"]()
        module = tha.build_minus1(make(data))
        with pytest.raises(ValueError, match=message):
            iso.check_isomorphism(data, module=module)

    @pytest.mark.parametrize("name", ["a2", "a1"])
    def test_shared_cartanification_gives_the_same_verdict(self, name):
        """The handed-in cartanification is extended over check-iso's own
        window, whatever window it carries; on A1 K is empty, so the
        comparison also extends its source, the contragredient local
        part."""
        data = _DATA[name]()
        cart = cartanify(build_local(data), degree_range=(-4, 1))
        shared = iso.check_isomorphism(data, cartanification=cart)
        assert shared == _verdict(name)
        assert cart.graded.degrees() == [-4, -3, -2, -1, 0, 1]

    @pytest.mark.parametrize("make, message", [
        (lambda data: local_cartanification(
            build_local(data), restriction=root_subalgebra(
                build_local(data), jk_partition(data)[1])),
         "restricted"),
        (lambda data: local_cartanification(build_local(_DATA["a3"]())),
         "other data"),
    ], ids=["strong", "other-data"])
    def test_rejects_a_cartanification_built_from_other_input(
            self, make, message):
        data = _DATA["a2"]()
        cart = make(data)
        with pytest.raises(ValueError, match=message):
            iso.check_isomorphism(data, cartanification=cart)
        # the mismatch is named before the precondition is checked
        with pytest.raises(ValueError, match=message):
            iso.phi_assignment(CartanData(_a(2), lam=(2, 0)),
                               cartanification=cart)


class TestHypothesisRecord:
    def test_simple_pm_case(self):
        record = iso.hypothesis_record(_DATA["a2"]())
        assert record == {
            "simple": True,
            "lambda_pseudo_minuscule": True,
            "wedge_pseudo_minuscule": True,
            "lambda_equals_wedge": True,
        }

    def test_large_label(self):
        record = iso.hypothesis_record(CartanData(_a(1), lam=(2,)))
        assert record["lambda_pseudo_minuscule"] is False
        assert record["wedge_pseudo_minuscule"] is False
        assert record["lambda_equals_wedge"] is True
