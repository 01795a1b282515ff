"""The structure theorem for the degree -1 module of the relations model,
kept as test oracles beside the package's ``tha``.

``tha.build_minus1`` realizes the degree -1 module; the functions here
check what the paper proves about it.  The structure theorem predicts its
decomposition (``structure_hypotheses``, ``expected_minus1_decomposition``):
the module of highest weight lambda (W variant only) plus one module of
highest weight theta + lambda per component of the zero-label subdiagram K.

The sharp assignment sends h_k to -f0_k and a root vector e_alpha of the
subalgebra generated by the K-nodes to [e_alpha, f0_{mu vee}]/(mu, alpha)
for any weight mu with (mu, alpha) nonzero; the choice of mu drops out,
which is checked, not assumed.  Reflection automorphisms are realized as
exp(ad f_k) exp(-ad e_k) exp(ad f_k) with a hard iteration bound so that
a non-nilpotent action surfaces as an error instead of a hang.

Every function takes the module or presentation it reads.  The one cache
is ``realization``'s: g for a datum, which nothing here modifies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction

from gradedlie.linalg import mat_apply, vadd, vadd_into, vscale
from gradedlie.rootsys import (CartanData, ChevalleyAlgebra,
                               chevalley_realization, highest_roots,
                               jk_partition, root_action, weyl_dimension)
from gradedlie.tha import GenInfo, MinusOneModule, Presentation

_ONE = Fraction(1)


# -- presentations ------------------------------------------------------------


def generator(pres: Presentation, name: tuple) -> GenInfo:
    for g in pres.generators:
        if g.name == name:
            return g
    raise KeyError(name)


def relations_tagged(pres: Presentation, tag: str) -> list:
    return [rel for rel in pres.relations if rel.tag == tag]


def tags(pres: Presentation) -> tuple:
    """The relation tags in order of first appearance."""
    return tuple(dict.fromkeys(rel.tag for rel in pres.relations))


def is_simply_laced(data: CartanData) -> bool:
    return all(data.a[i][j] in (0, -1) and data.a[i][j] == data.a[j][i]
               for i in range(data.r) for j in range(data.r) if i != j)


def reduced_presentation(pres: Presentation,
                         drop: tuple = ("f0-raise-jk",)) -> Presentation:
    """The presentation with a family of relations removed.

    The default drops the mixed-raising relations, which on simply-laced
    diagrams follow from the remaining ones inside the span closure (for
    equal lower indices by rearranging [e_j, e_k, e_k, f_k, f0_k] with the
    Serre identity, for distinct ones through the raise-lower relations);
    building the degree -1 module from the reduced set must then
    reproduce the full one, which is the redundancy check.  The square
    relations are NOT redundant at that level -- without them the span
    closure contains unbounded Verma-type strings and the enumeration
    reports inconclusive -- so probing them with this function documents
    their status empirically rather than certifying anything.
    """
    if not is_simply_laced(pres.data):
        raise ValueError("reduced relation set requires a simply-laced "
                         "diagram")
    dropped = set(drop)
    return replace(pres, relations=[rel for rel in pres.relations
                                    if rel.tag not in dropped])


# -- g acting on the module ---------------------------------------------------


@functools.cache
def realization(data: CartanData) -> ChevalleyAlgebra:
    return chevalley_realization(data)


def root_op(module: MinusOneModule, kind: str, root_index: int) -> dict:
    """Column-sparse action of e_alpha (kind 'e') or f_alpha ('f')."""
    return root_action(realization(module.data),
                       {"e": module.e_act, "f": module.f_act},
                       kind, root_index, {})


def apply_element(module: MinusOneModule, x: dict, vec: dict) -> dict:
    """Action of a g element given over the realization basis."""
    g = realization(module.data)
    out: dict = {}
    for idx, co in x.items():
        kind, arg = g.names[idx]
        if kind == "h":
            part = {c: v * module.weights[c][arg]
                    for c, v in vec.items() if module.weights[c][arg]}
        else:
            part = mat_apply(root_op(module, kind, arg), vec)
        vadd_into(out, part, co)
    return out


# -- weight combinations of the family ----------------------------------------


def f0_combination_coeffs(data: CartanData, k_nodes, mu) -> dict:
    """Coefficients c with mu = sum c_l alpha_l-vee over the K nodes.

    ``mu`` is given by its Dynkin labels with respect to the subdiagram
    on the K nodes, in their order.  As alpha_l-vee = eps_l alpha_l, c_l
    is mu's l-th simple-root coordinate over the subdiagram divided by
    eps_l.
    """
    k_nodes = tuple(k_nodes)
    if len(mu) != len(k_nodes):
        raise ValueError("weight has %d labels, expected %d"
                         % (len(mu), len(k_nodes)))
    if not k_nodes:
        return {}
    sub = data.restrict(k_nodes)
    try:
        coords = sub.root_coords(mu)
    except ValueError:
        raise ValueError("the Cartan matrix of the zero-label subdiagram "
                         "is singular") from None
    return {k_nodes[l]: Fraction(c, sub.epsilon[l])
            for l, c in enumerate(coords) if c}


def f0_weight_combination(module: MinusOneModule, mu) -> dict:
    """The degree -1 element f0_{mu vee} in the realized module."""
    coeffs = f0_combination_coeffs(module.data, module.k_nodes, mu)
    out: dict = {}
    for node, c in coeffs.items():
        vadd_into(out, module.seed_vecs[("f0", node)], c)
    return out


def coroot_combination(g: ChevalleyAlgebra, k_nodes, mu) -> dict:
    """h_{mu vee} over the realization basis, for a K-subdiagram weight."""
    coeffs = f0_combination_coeffs(g.data, k_nodes, mu)
    return {g.index[("h", node)]: c for node, c in coeffs.items()}


# -- the sharp assignment -----------------------------------------------------


@dataclass
class SharpImage:
    """Basis assignment from the K-node subalgebra into the module.

    ``entries`` maps realization basis indices (h_k and the root vectors
    supported on the K nodes) to module vectors.
    """

    module: MinusOneModule
    entries: dict

    def sharp(self, x: dict) -> dict:
        out: dict = {}
        for idx, co in x.items():
            if idx not in self.entries:
                raise ValueError("element is not supported on the zero-label "
                                 "subalgebra")
            vadd_into(out, self.entries[idx], co)
        return out


def _k_supported_roots(module: MinusOneModule) -> list:
    g = realization(module.data)
    kset = set(module.k_nodes)
    return [p for p, rt in enumerate(g.pos_roots)
            if all(c == 0 or t in kset for t, c in enumerate(rt.coords))]


def _k_labels(module: MinusOneModule, labels) -> tuple:
    return tuple(Fraction(labels[t]) for t in module.k_nodes)


def sharp_image(module: MinusOneModule) -> SharpImage:
    """The sharp assignment h_k -> -f0_k, e_alpha -> its scaled bracket.

    For every root the defining weight is chosen among the fundamental
    weights of the K subdiagram; a second admissible choice is evaluated
    as well and must agree, so independence of the choice is checked
    rather than assumed.
    """
    module.require_complete()
    g = realization(module.data)
    sub = module.data.restrict(module.k_nodes)
    entries: dict = {}
    for t in module.k_nodes:
        entries[g.index[("h", t)]] = vscale(
            module.seed_vecs[("f0", t)], -_ONE)
    for p in _k_supported_roots(module):
        labels_k = _k_labels(module, g.pos_roots[p].labels)
        for kind, sign in (("e", 1), ("f", -1)):
            op = root_op(module, kind, p)
            vals = []
            for l in range(sub.r):
                mu = sub.fundamental(l)
                pairing = sign * sub.bilinear(mu, labels_k)
                if not pairing:
                    continue
                vals.append(vscale(mat_apply(
                    op, f0_weight_combination(module, mu)), _ONE / pairing))
                if len(vals) == 2:
                    break
            if not vals:
                raise ValueError("no weight pairs with root %s"
                                 % (g.pos_roots[p].coords,))
            if len(vals) == 2 and vadd(vals[0], vals[1], -_ONE):
                raise ValueError("sharp image differs between admissible "
                                 "weights for root %s"
                                 % (g.pos_roots[p].coords,))
            entries[g.index[(kind, p)]] = vals[0]
    return SharpImage(module=module, entries=entries)


# -- reflection automorphisms -------------------------------------------------


def _exp_nilpotent(apply_fn, vec: dict, scale: Fraction = _ONE) -> dict:
    out = dict(vec)
    term = vec
    n = 0
    while term:
        n += 1
        if n > 64:
            raise ValueError("nilpotency bound of 64 iterations exceeded")
        term = vscale(apply_fn(term), Fraction(scale, n))
        out = vadd(out, term)
    return out


def weyl_automorphism(target, k: int, x: dict) -> dict:
    """exp(ad f_k) exp(-ad e_k) exp(ad f_k) applied to x.

    ``target`` is either a ChevalleyAlgebra (adjoint action on algebra
    elements over its basis) or a MinusOneModule (action on module
    vectors); ``k`` is a node index.
    """
    if isinstance(target, ChevalleyAlgebra):
        si = target.simple_root_index(k)
        ei = {target.index[("e", si)]: _ONE}
        fi = {target.index[("f", si)]: _ONE}
        ade = lambda v: target.bracket_vec(ei, v)
        adf = lambda v: target.bracket_vec(fi, v)
    elif isinstance(target, MinusOneModule):
        ade = lambda v: target.apply("e", k, v)
        adf = lambda v: target.apply("f", k, v)
    else:
        raise TypeError("target must be a ChevalleyAlgebra or a "
                        "MinusOneModule")
    out = _exp_nilpotent(adf, x)
    out = _exp_nilpotent(ade, out, -_ONE)
    return _exp_nilpotent(adf, out)


# -- structure hypotheses and the expected decomposition ----------------------


def structure_hypotheses(data: CartanData) -> dict:
    """Record whether every label is 0 or 1 and every component's highest
    root pairs with every simple coroot no lower than -1."""
    _, k_nodes = jk_partition(data)
    lam_ok = all(l in (0, 1) for l in data.lam)
    tops = highest_roots(data, k_nodes) if k_nodes else []
    witnesses = []
    for rt in tops:
        for i in range(data.r):
            if rt.labels[i] < -1:
                witnesses.append({"root": rt.coords, "node": i,
                                  "pairing": rt.labels[i]})
    if not lam_ok:
        witnesses.append({"labels": tuple(data.lam)})
    return {"hypotheses_met": lam_ok and not witnesses,
            "labels_ok": lam_ok,
            "tops": [rt.coords for rt in tops],
            "witnesses": witnesses}


def expected_minus1_decomposition(data: CartanData,
                                  variant: str = "W") -> list:
    """Highest weights and dimensions the structure theorem predicts.

    The W variant carries the module with highest weight lambda plus one
    module of highest weight theta + lambda per component of the K
    subdiagram; the S variant omits the lambda module.
    """
    gate = structure_hypotheses(data)
    if not gate["hypotheses_met"]:
        raise ValueError("structure hypotheses fail: %s"
                         % (gate["witnesses"],))
    _, k_nodes = jk_partition(data)
    weights = []
    if variant == "W":
        weights.append(tuple(int(l) for l in data.lam))
    for rt in highest_roots(data, k_nodes) if k_nodes else []:
        weights.append(tuple(int(a + b) for a, b in
                             zip(rt.labels, data.lam)))
    found: dict = {}
    for w in weights:
        found[w] = found.get(w, 0) + 1
    out = [(w, m, weyl_dimension(data, w)) for w, m in found.items()]
    out.sort(key=lambda t: (t[2], t[0]))
    return out
