"""Comparison map between the relations model and the cartanification.

For Cartan data (A, epsilon, lambda) two graded superalgebras are built
elsewhere in this package: the degree-(-1) slice of the relations model
(:mod:`gradedlie.tha`) and the cartanification of the local contragredient
superalgebra (:mod:`gradedlie.cartan`).  This module constructs the
comparison homomorphism between them and verifies, mechanically and with
exact arithmetic, whether it is an isomorphism in degree -1.

The comparison map ``phi`` sends each lowering generator of the relations
model to a product inside the cartanification,

    phi(f0_i) = class of f0 * h_i        (i in {ext} or i in K),

where ``f0`` is the canonical degree-(-1) generator of the local algebra,
``h_ext`` means the distinguished degree-0 Cartan element ``h0``, and all
degree-0 and degree-(+1) generators map to themselves.  The map respects
degree and parity by construction.

Precondition.  The map is only defined when the completed weight
``lambda^`` (the image of lambda under the extension of the weight lattice
by the grading character) is pseudo-minuscule, i.e. when ``(lambda, beta)``
lies in {0, 1} for every root beta.  When the precondition fails the
functions here raise ``ValueError`` naming the offending root and pairing
value; no verdict is guessed.

Verification is split into independent checks:

* homomorphism -- every defining relation of the relations model evaluates
  to zero in the cartanification under the assignment;
* pseudo-minuscule identities -- the auxiliary identities that make the
  map well defined hold as stated: ``f0 (h0 + L) = 0``, ``f0 e_beta = 0``
  for every positive root beta with ``(lambda, beta) = 1``, and, when
  lambda equals its completion, ``f0 f_j - [f0, f_j] h_j = 0`` for all
  j with lambda_j != 0;
* surjectivity -- the degree-(-1) layer of the cartanification is spanned
  by the images ``phi(f0_i)`` together with their iterated brackets with
  the generators of degree 0 (``Cartanification.closure``, the closure
  that also builds a restricted cartanification);
* injectivity -- the dimension and weight decomposition of the
  independently enumerated relations-model slice agree with those of the
  cartanification's degree-(-1) layer.

``check_isomorphism`` aggregates the checks into a verdict: "isomorphic"
when every check passes and the structural hypotheses (simple diagram,
pseudo-minuscule lambda, lambda equal to its completion) hold;
"hypotheses not met" when the checks are reported as data but the
hypotheses fail, so no isomorphism claim is made; "mismatch" when the
hypotheses hold but a check fails; "inconclusive" when the enumeration of
the relations model did not stabilize within its cell budget, in which
case no boolean is invented for injectivity.

When K is empty the relations model coincides with the contragredient
model, and the comparison additionally checks the full degree range of
the cartanification against the contragredient construction directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cartan, graded, tha
from .cartan import Cartanification, products
from .contragredient import build_local
from .graded import count_next_layer, decompose_at_degree
from .linalg import vadd
# chevalley_realization stays bound here for tracers that wrap it by name.
from .rootsys import (
    CartanData,
    chevalley_realization,
    jk_partition,
    pseudo_minuscule_failure,
)


def require_pseudo_minuscule(data: CartanData) -> None:
    """Raise unless the completed weight of ``data`` is pseudo-minuscule.

    The completed weight pairs with a root beta to ``(lambda, beta)``, so
    the condition is that this number lies in {0, 1} for every root.  The
    error names the completed weight's labels when they are not dominant
    integral, and the first offending root otherwise.
    """
    mu = data.wedge(data.lam)
    if not data.is_dominant_integral(mu):
        raise ValueError(
            "pseudo-minuscule precondition fails: the completed weight has "
            "labels (%s), which are not dominant integral"
            % ", ".join(str(m) for m in mu))
    failure = pseudo_minuscule_failure(data, mu)
    if failure is not None:
        root, value = failure
        raise ValueError(
            "pseudo-minuscule precondition fails: the completed weight "
            "pairs with root %s to %s, expected 0 or 1"
            % (tuple(root.coords), value)
        )


@dataclass(frozen=True)
class PhiAssignment:
    """The comparison assignment from relations-model generators.

    ``assignment`` maps each generator name to a ``(degree, vector)`` pair
    in the cartanification's graded algebra; the lowering family
    ``f0_i`` maps to the degree-(-1) classes of the products ``f0 * h_i``.
    """

    presentation: tha.Presentation
    cartanification: Cartanification
    assignment: dict


def phi_assignment(
    data: CartanData,
    degree_range: tuple[int, int] = (-2, 1),
    *,
    cartanification: Cartanification | None = None,
) -> PhiAssignment:
    """Construct the comparison assignment into the cartanification.

    Requires the pseudo-minuscule precondition; raises ``ValueError``
    naming the failing root otherwise.  ``cartanification`` hands in the
    weak local cartanification of ``build_local(data)`` when it is already
    built; omitted, it is built here.  Either way it is extended here over
    ``degree_range``.  A restricted one, or one built from other data,
    raises ``ValueError`` naming the mismatch, before the precondition.
    """
    if cartanification is not None:
        if cartanification.restricted:
            raise ValueError(
                "cartanification is restricted; the comparison needs the "
                "weak local cartanification")
        if cartanification.source.data != data:
            raise ValueError(
                "cartanification was built from other data than the "
                "contragredient local part of the data being compared")
    require_pseudo_minuscule(data)
    pres = tha.presentation(data, "W")
    if cartanification is None:
        cartanification = cartan.local_cartanification(build_local(data))
    cart = cartanification.over(degree_range)
    local = cart.source

    assignment: dict = {}
    for i in range(data.r):
        for kind in ("e", "f", "h"):
            assignment[(kind, i)] = (
                0, cart.zero_class(local.zero_coords_of((kind, i))))
    assignment[("h0",)] = (0, cart.zero_class(local.zero_coords_of(("h0",))))
    assignment[("e0",)] = (1, {0: 1})

    for i, coords in _family_products(pres, local).items():
        assignment[("f0", i)] = (-1, cart.minus1_class(coords))
    return PhiAssignment(pres, cart, assignment)


def _family_products(pres: tha.Presentation,
                     local: graded.LocalSuperalgebra) -> dict:
    """Candidate coordinates of f0 * h_i per family member i, h_ext = h0."""
    return {i: products({0: -1}, local.zero_coords_of(
        ("h0",) if i == tha.EXT else ("h", i))) for i in pres.family}


def pseudo_minuscule_identities(
    data: CartanData, cart: Cartanification
) -> dict:
    """Verify the identities that make the comparison map well defined.

    Each product x u is a sum of candidates (``cartan.products``) whose
    class in the cartanification must vanish.  Checks:

    * ``f0 (h0 + L) = 0`` with ``L`` the grading element;
    * ``f0 e_beta = 0`` for every positive root beta with
      ``(lambda, beta) = 1`` (negative roots pair nonpositively with a
      dominant weight, so only positive roots occur);
    * when lambda equals its completion, ``f0 f_j - [f0, f_j] h_j = 0``
      for every node j with lambda_j != 0.
    """
    local = cart.source
    f0 = {0: -1}
    checks = []

    h0_plus_l = vadd(local.zero_coords_of(("h0",)), local.grading)
    residual = cart.minus1_class(products(f0, h0_plus_l))
    checks.append(
        {"name": "f0-annihilates-h0-plus-grading", "instances": 1,
         "violations": [] if not residual else [{"residual": residual}]}
    )

    raise_violations = []
    instances = 0
    for k, name in enumerate(local.zero_names):
        if name[0] != "e" or data.bilinear(
                data.lam, local.zero_weights[k]) != 1:
            continue
        instances += 1
        residual = cart.minus1_class(products(f0, {k: 1}))
        if residual:
            raise_violations.append(
                {"root": tuple(int(c) for c in
                               data.root_coords(local.zero_weights[k])),
                 "residual": residual}
            )
    checks.append(
        {"name": "f0-annihilates-unit-pairing-raisers",
         "instances": instances, "violations": raise_violations}
    )

    if data.wedge(data.lam) == data.lam:
        j_nodes, _ = jk_partition(data)
        j_violations = []
        for j in j_nodes:
            f_j = local.zero_coords_of(("f", j))
            h_j = local.zero_coords_of(("h", j))
            diff = vadd(
                products(f0, f_j),
                products(local.bracket_vec(-1, f0, 0, f_j), h_j),
                -1,
            )
            residual = cart.minus1_class(diff)
            if residual:
                j_violations.append({"node": j, "residual": residual})
        checks.append(
            {"name": "f0-lowering-exchange", "instances": len(j_nodes),
             "violations": j_violations}
        )

    for check in checks:
        check["passed"] = not check["violations"]
    return {"passed": all(c["passed"] for c in checks), "checks": checks}


def hypothesis_record(data: CartanData) -> dict:
    """Record the structural hypotheses of the comparison theorem.

    The verdict "isomorphic" is only issued when all three hold: the
    diagram is connected (the Lie algebra is simple), lambda itself is
    pseudo-minuscule, and lambda equals its completion.  The record also
    stores whether the completion is pseudo-minuscule, which is the
    precondition for the map to exist at all.
    """
    wedge = data.wedge(data.lam)
    return {
        "simple": len(data.components()) == 1,
        "lambda_pseudo_minuscule":
            pseudo_minuscule_failure(data, data.lam) is None,
        "wedge_pseudo_minuscule":
            pseudo_minuscule_failure(data, wedge) is None,
        "lambda_equals_wedge": wedge == data.lam,
    }


def _normalize_decomposition(entries) -> list:
    return sorted(
        (tuple(int(label) for label in labels), int(mult), int(dim))
        for labels, mult, dim in entries
    )


def _dims_down_to(g_alg, lo: int) -> dict:
    """The stored dimensions of ``g_alg``, in ascending degree, preceded
    by the counted one of degree ``lo`` when that is one step below the
    lowest stored degree."""
    dims = g_alg.dims()
    if lo < min(dims):
        dims = {lo: count_next_layer(g_alg, -1), **dims}
    return dims


@dataclass(frozen=True)
class IsoVerdict:
    """Outcome of the degree-(-1) comparison for one set of Cartan data.

    ``verdict`` is one of "isomorphic", "mismatch", "hypotheses not met",
    or "inconclusive".  ``injective`` is ``None`` exactly when the verdict
    is "inconclusive": the enumeration did not stabilize, so no dimension
    comparison is available and none is invented.  ``sides`` holds the
    per-side data (dimensions and weight decompositions) so that failed or
    out-of-hypothesis runs still report what was computed.
    """

    verdict: str
    homomorphism: dict
    identities: dict
    surjective: bool
    injective: bool | None
    hypotheses: dict
    sides: dict
    certificate: dict


def check_isomorphism(
    data: CartanData,
    degree_range: tuple[int, int] = (-2, 1),
    *,
    module: tha.MinusOneModule | None = None,
    cartanification: Cartanification | None = None,
) -> IsoVerdict:
    """Decide whether the comparison map is an isomorphism in degree -1.

    Raises ``ValueError`` when the pseudo-minuscule precondition fails.
    Otherwise runs the homomorphism and identity checks, the surjectivity
    closure, and the injectivity comparison against the independently
    enumerated relations model, and aggregates them into a verdict.  The
    degree range defaults to the smallest window containing every defining
    relation and the compared layer; widening it only adds layers to the
    reported dimensions.  Of the window's lowest layer only the dimension
    is read, so when that degree is -2 or below the models are built from
    one degree above it and that layer is counted
    (``graded.count_next_layer``), not built.

    ``module`` hands in the relations module of
    ``tha.presentation(data, "W")``, and ``cartanification`` the weak
    local cartanification of ``build_local(data)``; omitted, each is
    built here.  A caller that builds them first checks the precondition
    first (``require_pseudo_minuscule``), so that its error still comes
    before any build.  A handed-in cartanification is extended here over
    the window this function builds, whatever window it was extended
    over before, so the verdict is the same either way.  A module or
    cartanification built from other input, or a restricted
    cartanification, raises ``ValueError`` naming the mismatch.
    """
    if module is not None:
        if module.variant != "W":
            raise ValueError(
                "module is the relations model of variant %s; the comparison "
                "needs variant W" % module.variant)
        if module.data != data:
            raise ValueError(
                "module was built for other Cartan data than the data "
                "being compared")
    hypotheses = hypothesis_record(data)
    lo, hi = degree_range
    built = (lo + 1, hi) if lo <= -2 else degree_range
    phi = phi_assignment(data, degree_range=built,
                         cartanification=cartanification)
    cart = phi.cartanification
    homomorphism = tha.check_relations(
        phi.presentation, cart.graded, phi.assignment
    )
    identities = pseudo_minuscule_identities(data, cart)

    cart_dims = _dims_down_to(cart.graded, lo)
    minus1_dim = cart_dims[-1]
    surjective = cart.closure(_family_products(
        phi.presentation, cart.source).values()).dim() == minus1_dim

    cart_decomposition = _normalize_decomposition(
        decompose_at_degree(cart.graded, -1)
    )
    sides: dict = {
        "cartanification": {
            "dims": dict(cart_dims),
            "minus1_dim": minus1_dim,
            "decomposition": cart_decomposition,
        },
    }

    if module is None:
        module = tha.build_minus1(phi.presentation)
    if module.status != "complete":
        sides["relations_model"] = {"status": module.status}
        verdict, injective = "inconclusive", None
    else:
        module_decomposition = _normalize_decomposition(module.decompose())
        sides["relations_model"] = {
            "status": module.status,
            "dim": module.dim,
            "decomposition": module_decomposition,
        }
        injective = (
            module.dim == minus1_dim
            and module_decomposition == cart_decomposition
        )

        direct = True
        if not jk_partition(data)[1]:
            contragredient_dims = _dims_down_to(
                graded.minimal_extension(cart.source, built), lo)
            sides["contragredient"] = {"dims": dict(contragredient_dims)}
            direct = contragredient_dims == cart_dims

        passed = (
            homomorphism["passed"]
            and identities["passed"]
            and surjective
            and injective
            and direct
        )
        hypotheses_met = (
            hypotheses["simple"]
            and hypotheses["lambda_pseudo_minuscule"]
            and hypotheses["lambda_equals_wedge"]
        )
        if not hypotheses_met:
            verdict = "hypotheses not met"
        elif passed:
            verdict = "isomorphic"
        else:
            verdict = "mismatch"
    return IsoVerdict(
        verdict=verdict,
        homomorphism=homomorphism,
        identities=identities,
        surjective=surjective,
        injective=injective,
        hypotheses=hypotheses,
        sides=sides,
        certificate=dict(module.certificate),
    )
