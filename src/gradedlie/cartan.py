"""The cartanification: the degree -1 words x_{-1} y_0 over a local
superalgebra, modulo the peripheral ideal, and its minimal graded extension.

The paper defines the cartanification through words in the basis letters
of degrees -1, 0, 1 with restricted associativity; that word model is
``tests/wordmodel.py``, the oracle this module is checked against.  Here a
degree -1 element is a sum of candidates x_p u_j of basis letters, held as
candidate coordinates {(p, j): c} (``products``), and the quotient is by
the kernel of the action on the plus wing (the maximal peripheral ideal).
A candidate's action on the plus wing has the closed form

    [x u, z] = x [u, z] - (-1)^{|u||z|} <x|z> u ,
    x z'     = -[[x, z']] + <x|z'> L ,

the second being the word model's reduction of two opposite-wing letters,
with [[-,-]] the bracket of the local part and L the grading element (for
two odd letters [[x, z']] = [[z', x]], and the rule holds for every
parity, so degree 0 may have odd letters); so
the cartanification reads only the local brackets, the pairing and L, and
builds no words.  The quotient keeps pivot candidates and writes every
degree -1 element as a class over them.  Degree 0 moves classes by the
derivation rule [u, x_p u_j] = [u, x_p] u_j + (-1)^{|u||x_p|} x_p [u, u_j],
which needs only the local brackets and the candidates' classes.  The
degree-0 part of the quotient is the bracket closure of the image of the
action map; the grading element survives exactly when it lies in that span.

A restriction to a degree-0 subalgebra keeps, in place of all classes, only
the submodule generated by the classes of the words f_0 y_0 with y_0 in the
restriction, where f_0 is the distinguished minus generator dual to the
lowest vector of the plus wing.  This matches the presentations in which
the single minus generator is replaced by one generator per restriction
direction, and reproduces the divergence-free subalgebra of the
Grassmann-derivation model when the restriction is the semisimple part
complementary to the weight labels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

# rref and kernel_basis stay bound here for tracers that wrap them by name.
from .linalg import Span, kernel_basis, qnorm, rref, vadd, vadd_into
from .graded import (
    GradedSuperalgebra,
    LocalSuperalgebra,
    minimal_extension,
    weight_block_quotient,
    wsum,
)


# ---------------------------------------------------------------------------
# Sparse weight-blocked linear algebra


class WeightedSolver:
    """Per-weight span of sparse vectors, one ``Span`` per weight, that
    also expresses vectors over its basis.

    Vectors of one weight only ever involve the basis vectors of that
    weight, so each expression reduces against one small span.
    """

    def __init__(self):
        self.by_weight: dict = {}
        self._offsets: dict | None = None

    def add(self, vec: dict, weight) -> bool:
        if not vec:
            return False
        self._offsets = None
        return self.by_weight.setdefault(tuple(weight), Span()).add(vec)

    def dim(self) -> int:
        return sum(sp.rank for sp in self.by_weight.values())

    def basis(self) -> list:
        """(weight, vector) pairs in deterministic order, scaled to unit
        leading coefficient."""
        return [(w, v) for w in sorted(self.by_weight)
                for v in self.by_weight[w].basis()]

    def express(self, vec: dict, weight) -> dict | None:
        """Coefficients over the positions in ``basis()``, or None."""
        if not vec:
            return {}
        weight = tuple(weight)
        span = self.by_weight.get(weight)
        coords = span.express(vec) if span is not None else None
        if coords is None:
            return None
        if self._offsets is None:
            self._offsets, base = {}, 0
            for w in sorted(self.by_weight):
                self._offsets[w] = base
                base += self.by_weight[w].rank
        base = self._offsets[weight]
        return {base + k: c for k, c in coords.items()}


# ---------------------------------------------------------------------------
# Restriction helpers


def root_subalgebra(data, local: LocalSuperalgebra, nodes) -> list:
    """Degree-0 basis vectors of the subalgebra spanned by the Cartan
    generators of the given nodes and the root vectors of roots supported
    on them.

    Expects a local part built from Cartan data, whose degree-0 names are
    the Chevalley names followed by the extension generator.
    """
    nodes = set(nodes)
    out = []
    for i, name in enumerate(local.zero_names):
        if name[0] == "h" and len(name) == 2 and name[1] in nodes:
            out.append({i: 1})
        elif name[0] in ("e", "f") and len(name) == 2:
            coords = data.root_coords(local.zero_weights[i])
            if all(c == 0 for j, c in enumerate(coords) if j not in nodes):
                out.append({i: 1})
    return out


def _vec_weight(local: LocalSuperalgebra, vec: dict) -> tuple:
    weights = {tuple(local.zero_weights[i]) for i in vec}
    if len(weights) != 1:
        raise ValueError("vector is not weight-homogeneous")
    return weights.pop()


# ---------------------------------------------------------------------------
# Cartanification


def products(xvec: dict, uvec: dict) -> dict:
    """Candidate coordinates ``{(p, j): c}`` of x u for a degree -1 vector
    x and a degree-0 vector u, meaning the sum of c x_p u_j."""
    return {(p, j): qnorm(a * b) for p, a in xvec.items() if a
            for j, b in uvec.items() if b}


@dataclass
class Cartanification:
    """A local cartanification: quotient local part plus class maps.

    ``minus1_class`` sends a degree -1 element, given by its candidate
    coordinates (see ``products``), to its coordinates over the quotient
    minus basis; ``zero_class`` a degree-0 vector of ``source``, the
    original local part, to the quotient's degree-0 coordinates.
    """

    local: LocalSuperalgebra | None
    candidate_count: int
    kernel_dim: int
    source: LocalSuperalgebra = field(repr=False)
    graded: GradedSuperalgebra | None = None
    zero_basis: list | None = field(repr=False, default=None)
    _classes: dict | None = field(repr=False, default=None)
    _minus_solver: WeightedSolver | None = field(repr=False, default=None)
    _zero_solver: WeightedSolver | None = field(repr=False, default=None)

    def action_coords(self, p: int, j: int) -> dict:
        """Action of the candidate x_p u_j on the plus wing, in the closed
        form of the module docstring: keys (plus index q, 1 + k) for the
        k-th degree-0 coordinate of [x_p u_j, z_q]."""
        local = self.source
        pairing = local.pairing or {}
        out: dict = {}
        for q in range(local.npos):
            val: dict = {}
            for q2, c in local.bracket(0, j, 1, q).items():
                vadd_into(val, local.bracket(-1, p, 1, q2), -c)
                pv = pairing.get((p, q2))
                if pv:
                    vadd_into(val, local.grading, c * pv)
            pv = pairing.get((p, q))
            if pv:
                odd = local.zero_parities[j] and local.pos_parities[q]
                vadd_into(val, {j: pv if odd else -pv})
            for k, c in val.items():
                out[(q, 1 + k)] = c
        return out

    def _pivot_class(self, coords: dict) -> tuple[dict, tuple | None]:
        """Class over the pivot candidates of an element given by its
        candidate coordinates, and the element's weight (None for the
        zero class); a nonzero class needs a weight-homogeneous element."""
        local = self.source
        cls: dict = {}
        weights = set()
        for (p, j), c in coords.items():
            if c:
                weights.add(wsum(local.neg_weights[p], local.zero_weights[j]))
                vadd_into(cls, self._classes[(p, j)], c)
        if not cls:
            return {}, None
        if len(weights) != 1:
            raise ValueError("element is not weight-homogeneous")
        return cls, weights.pop()

    def minus1_class(self, coords: dict) -> dict:
        """Class of a degree -1 element, given by its candidate coordinates,
        over the quotient minus basis."""
        cls, weight = self._pivot_class(coords)
        if not cls:
            return {}
        sol = self._minus_solver.express(cls, weight)
        if sol is None:
            raise ValueError("element acts outside the cartanification")
        return sol

    def zero_class(self, vec: dict) -> dict:
        """Quotient degree-0 coordinates of an original degree-0 vector."""
        sol = self._zero_coords(vec)
        if sol is None:
            raise ValueError("vector lies outside the degree-0 image span")
        return sol

    def _zero_coords(self, vec: dict) -> dict | None:
        """As ``zero_class``, but None for a vector outside the span."""
        vec = {i: qnorm(c) for i, c in vec.items() if c}
        if not vec:
            return {}
        return self._zero_solver.express(vec, _vec_weight(self.source, vec))


def local_cartanification(local: LocalSuperalgebra,
                          restriction=None) -> Cartanification:
    """Quotient of the degree -1 words x_{-1} y_0 by the kernel of their
    action on the plus wing, packaged as a local superalgebra.

    ``restriction``: degree-0 vectors spanning a subalgebra; keeps the
    submodule generated by the classes of f_0 y_0 over it, f_0 being the
    minus basis vector of index 0.
    """
    if local.grading is None:
        raise ValueError("local part has no grading element")
    nneg, nzero, npos = local.nneg, local.nzero, local.npos

    rbasis = None
    if restriction is not None:
        rbasis = [{i: qnorm(c) for i, c in v.items() if c}
                  for v in restriction]
        rsolver = WeightedSolver()
        for v in rbasis:
            rsolver.add(v, _vec_weight(local, v))
        for a in rbasis:
            for b in rbasis:
                br = local.bracket_vec(0, a, 0, b)
                if br and rsolver.express(
                        br, _vec_weight(local, br)) is None:
                    raise ValueError("restriction is not a subalgebra")

    result = Cartanification(
        local=None, candidate_count=nneg * nzero, kernel_dim=0,
        source=local)

    # Each candidate x_p u_j gets its action once; the action matrix, its
    # kernel and its pivots all decompose by weight because every map in
    # sight is weight-homogeneous.
    cands = [(p, j) for p in range(nneg) for j in range(nzero)]
    actions = {c: result.action_coords(*c) for c in cands}
    kept, classes = weight_block_quotient(
        cands, [wsum(local.neg_weights[p], local.zero_weights[j])
                for p, j in cands], [[actions[c]] for c in cands])
    pivots = [c for _, c in kept]
    result.kernel_dim = len(cands) - len(pivots)
    result._classes = classes

    # From here on a degree -1 element is its class over the pivots, and
    # degree 0 moves classes by the derivation rule
    #   [u, x_p u_j] = [u, x_p] u_j + (-1)^{|u||x_p|} x_p [u, u_j].
    @functools.cache
    def moved(u: int, c: tuple) -> dict:
        """Class of [u_u, candidate c]."""
        p, j = c
        out: dict = {}
        for k, a in local.bracket(0, u, -1, p).items():
            vadd_into(out, classes[(k, j)], a)
        sign = -1 if local.zero_parities[u] and local.neg_parities[p] else 1
        for m, a in local.bracket(0, u, 0, j).items():
            vadd_into(out, classes[(p, m)], sign * a)
        return out

    def move(uvec: dict, cls: dict) -> dict:
        """Class of [u, el] for a degree-0 vector u and el of class cls."""
        out: dict = {}
        for u, a in uvec.items():
            for t, c in cls.items():
                vadd_into(out, moved(u, pivots[t]), a * c)
        return out

    # The kernel is the peripheral ideal, spanned by each candidate minus
    # its class; it must be stable under the degree-0 action for the
    # quotient to close, so each candidate must move as its class does.
    for c, cls in classes.items():
        for u in range(nzero):
            if vadd(moved(u, c), move({u: 1}, cls), -1):
                raise ValueError("peripheral kernel is not invariant "
                                 "under degree-0 brackets")

    # kept is sorted by weight, so the unit classes keep their positions
    minus_solver = WeightedSolver()
    if rbasis is None:
        for t, (w, _) in enumerate(kept):
            minus_solver.add({t: 1}, w)
    else:
        # Seed with f_0 y_0 and close under the degree-0 action inside the
        # weak quotient.
        queue = []
        for y in rbasis:
            cls, w = result._pivot_class(products({0: 1}, y))
            if cls and minus_solver.add(cls, w):
                queue.append((w, cls))
        while queue:
            w, cls = queue.pop()
            for u in range(nzero):
                mcls = move({u: 1}, cls)
                if not mcls:
                    continue
                mw = wsum(local.zero_weights[u], w)
                if minus_solver.add(mcls, mw):
                    queue.append((mw, mcls))
    minus_basis = [(v, w) for w, v in minus_solver.basis()]

    neg_names = [("w", t) for t in range(len(minus_basis))]
    neg_weights = [tuple(w) for _, w in minus_basis]
    neg_parities = []
    for v, _ in minus_basis:
        p, j = pivots[min(v)]
        neg_parities.append(
            (local.neg_parities[p] + local.zero_parities[j]) % 2)

    # Degree-0 part: bracket closure of the action image, [w_t, z_q] being
    # images[t][q] over the original degree-0 basis; w_t acts as the same
    # combination of the pivots' actions.
    images = []
    for v, _ in minus_basis:
        act: dict = {}
        for t, c in v.items():
            vadd_into(act, actions[pivots[t]], c)
        per_q: dict = {}
        for (q, k), c in act.items():
            per_q.setdefault(q, {})[k - 1] = c
        images.append(per_q)
    zero_solver = WeightedSolver()
    zqueue = []
    for per_q in images:
        for vec in per_q.values():
            w = _vec_weight(local, vec)
            if zero_solver.add(vec, w):
                zqueue.append((w, dict(vec)))
    while zqueue:
        w, vec = zqueue.pop()
        others = [v for sp in zero_solver.by_weight.values()
                  for v in sp.rows]
        for vec2 in others:
            br = local.bracket_vec(0, vec, 0, vec2)
            if br:
                bw = _vec_weight(local, br)
                if zero_solver.add(br, bw):
                    zqueue.append((bw, dict(br)))
    zero_pairs = zero_solver.basis()
    zero_basis = [v for _, v in zero_pairs]
    zero_wts = [tuple(w) for w, _ in zero_pairs]

    def in_zero(vec: dict, weight) -> dict:
        out = zero_solver.express(vec, weight)
        if out is None:
            raise ValueError("degree-0 image span is not closed")
        return out

    # Structure constants of the quotient local part.
    b00 = {}
    for s, us in enumerate(zero_basis):
        for t, ut in enumerate(zero_basis):
            br = local.bracket_vec(0, us, 0, ut)
            if br:
                b00[(s, t)] = in_zero(br, wsum(zero_wts[s], zero_wts[t]))
    b0p = {}
    for s, us in enumerate(zero_basis):
        for q in range(npos):
            br = local.bracket_vec(0, us, 1, {q: 1})
            if br:
                b0p[(s, q)] = br
    b0m = {}
    for s, us in enumerate(zero_basis):
        for t, (v, _) in enumerate(minus_basis):
            target = move(us, v)
            if not target:
                continue
            w = wsum(zero_wts[s], neg_weights[t])
            cls = minus_solver.express(target, w)
            if cls is None:
                raise ValueError("degree -1 classes are not closed under "
                                 "the degree-0 action")
            if cls:
                b0m[(s, t)] = cls
    # [z_q, w_t] from the stored action [w_t, z_q] by super-antisymmetry.
    bpm = {}
    for t, per_q in enumerate(images):
        for q, vec in per_q.items():
            cls = in_zero(vec, _vec_weight(local, vec))
            if cls:
                sign = -1 if (local.pos_parities[q]
                              and neg_parities[t]) else 1
                bpm[(q, t)] = {k: -sign * c for k, c in cls.items()}

    result.zero_basis = zero_basis
    result._minus_solver = minus_solver
    result._zero_solver = zero_solver

    # The grading element and named elements outside the degree-0 span
    # are dropped; any other fault propagates.
    grading = None
    if local.grading:
        grading = result._zero_coords(local.grading)

    embedding = None
    if local.embedding:
        embedding = {}
        for name, vec in local.embedding.items():
            coords = result._zero_coords(vec)
            if coords is not None:
                embedding[name] = coords

    result.local = LocalSuperalgebra(
        neg_names=neg_names, neg_weights=neg_weights,
        neg_parities=neg_parities,
        zero_names=[("u", t) for t in range(len(zero_basis))],
        zero_weights=zero_wts,
        zero_parities=[local.zero_parities[min(v)] for v in zero_basis],
        pos_names=list(local.pos_names),
        pos_weights=[tuple(w) for w in local.pos_weights],
        pos_parities=list(local.pos_parities),
        b00=b00, b0m=b0m, b0p=b0p, bpm=bpm,
        pairing=None, grading=grading, embedding=embedding)
    return result


def cartanify(local: LocalSuperalgebra, degree_range=(-4, 1),
              restriction=None) -> Cartanification:
    """Local cartanification followed by the minimal graded extension."""
    result = local_cartanification(local, restriction=restriction)
    result.graded = minimal_extension(result.local, degree_range)
    return result
