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
  by the images ``phi(f0_i)`` together with their iterated degree-0
  brackets with the simple root vectors;
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

from . import tha
from .cartan import Cartanification, cartanify, products
from .contragredient import build_local
from .graded import decompose_at_degree, minimal_extension
from .linalg import Span, vadd
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
    in the cartanification's graded algebra; ``family_images`` restricts it
    to the lowering family ``f0_i`` whose images are the degree-(-1)
    classes of the products ``f0 * h_i``.
    """

    data: CartanData
    presentation: tha.Presentation
    cartanification: Cartanification
    assignment: dict
    family_images: dict


def phi_assignment(
    data: CartanData,
    degree_range: tuple[int, int] = (-2, 1),
) -> PhiAssignment:
    """Construct the comparison assignment into the cartanification.

    Requires the pseudo-minuscule precondition; raises ``ValueError``
    naming the failing root otherwise.
    """
    require_pseudo_minuscule(data)
    pres = tha.presentation(data, "W")
    cart = cartanify(build_local(data), degree_range=degree_range)
    local = cart.source

    assignment: dict = {}
    for i in range(data.r):
        for kind in ("e", "f", "h"):
            assignment[(kind, i)] = (
                0, cart.zero_class(local.zero_coords_of((kind, i))))
    assignment[("h0",)] = (0, cart.zero_class(local.zero_coords_of(("h0",))))
    assignment[("e0",)] = (1, {0: 1})

    f0 = {0: -1}
    family_images: dict = {}
    for i in pres.family:
        h_i = local.zero_coords_of(("h0",) if i == tha.EXT else ("h", i))
        image = cart.minus1_class(products(f0, h_i))
        family_images[i] = image
        assignment[("f0", i)] = (-1, image)
    return PhiAssignment(data, pres, cart, assignment, family_images)


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


def _generation_rank(phi: PhiAssignment) -> int:
    """Rank of the span of the family images under the degree-0 action."""
    cart = phi.cartanification
    span = Span()
    frontier = [v for v in phi.family_images.values() if span.add(v)]
    actions = [
        phi.assignment[(kind, i)][1]
        for i in range(phi.data.r)
        for kind in ("e", "f")
    ]
    while frontier:
        next_frontier = []
        for vec in frontier:
            for action in actions:
                _, out = cart.graded.bracket((0, action), (-1, vec))
                if out and span.add(out):
                    next_frontier.append(out)
        frontier = next_frontier
    return span.rank


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
) -> IsoVerdict:
    """Decide whether the comparison map is an isomorphism in degree -1.

    Raises ``ValueError`` when the pseudo-minuscule precondition fails.
    Otherwise runs the homomorphism and identity checks, the surjectivity
    span closure, and the injectivity comparison against the independently
    enumerated relations model, and aggregates them into a verdict.  The
    degree range defaults to the smallest window containing every defining
    relation and the compared layer; widening it only adds layers to the
    cartanification.

    ``module`` hands in the relations module of
    ``tha.presentation(data, "W")`` when it is already built; omitted, it
    is built here.  One built from other input raises ``ValueError``
    naming the mismatch.
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
    phi = phi_assignment(data, degree_range=degree_range)
    cart = phi.cartanification
    homomorphism = tha.check_relations(
        phi.presentation, cart.graded, phi.assignment
    )
    identities = pseudo_minuscule_identities(data, cart)

    cart_dims = cart.graded.dims()
    minus1_dim = cart_dims[-1]
    surjective = _generation_rank(phi) == minus1_dim

    cart_decomposition = _normalize_decomposition(
        decompose_at_degree(cart.graded, -1, data)
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
        return IsoVerdict(
            verdict="inconclusive",
            homomorphism=homomorphism,
            identities=identities,
            surjective=surjective,
            injective=None,
            hypotheses=hypotheses,
            sides=sides,
            certificate=dict(module.certificate),
        )

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
    if phi.presentation.k_empty:
        contragredient_dims = minimal_extension(
            cart.source, degree_range).dims()
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
