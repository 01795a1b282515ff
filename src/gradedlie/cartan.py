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
degree -1 element as a class over them.  Every map here is
weight-homogeneous, so each span keeps one block per weight
(``WeightedSolver``) and reads a vector's weight off its coordinates,
degree-0 basis vectors or pivots.  Degree 0 moves classes by the
derivation rule [u, x_p u_j] = [u, x_p] u_j + (-1)^{|u||x_p|} x_p [u, u_j],
which needs only the candidates' classes and the columns [u, -] of the
local part's layers (``LocalSuperalgebra.brackets``), read in place; a
candidate's action reads the plus layer's columns [u_j, -] and [x_p, -]
the same way.  A move lands on the pivots of the summed weight, so the
quotient's degree-0 action ``b0m`` visits the minus basis one weight
class at a time and skips a class outright when no pivot has that sum;
its ``b00`` and ``b0p`` come from one column-sparse ad u_s
(``graded.zero_action``) per degree-0 basis vector u_s.  The
quotient is well defined only if the kernel is stable under that action,
and this is checked under a generating set S of degree 0 alone.
``degree0_generators`` builds the one tree of brackets that closes S to a
basis and checks each vector as it enters: the generators' brackets
respect parity, and every edge v = [s, w] satisfies ad v = [ad s, ad w]
on degree -1 and on degree 0.  The action on x_p u_j is then a
representation, so v preserves the kernel when s and w do, and by
induction along the tree, then by linearity, all of degree 0 does.  The
degree-0 part of the quotient is the span of the image of the action map,
which the Jacobi identity makes a subalgebra (the quotient's degree-0
brackets check that it is closed); the grading element survives exactly
when it lies in that span.

A restriction to a degree-0 subalgebra keeps, in place of all classes, only
the submodule generated by the classes of the words f_0 y_0 with y_0 in the
restriction, where f_0 is the distinguished minus generator dual to the
lowest vector of the plus wing.  This matches the presentations in which
the single minus generator is replaced by one generator per restriction
direction, and reproduces the divergence-free subalgebra of the
Grassmann-derivation model when the restriction is the semisimple part
complementary to the weight labels.  One closure of classes under S
(``Cartanification.closure``) builds that submodule and gives check-iso
its surjectivity rank, the span of the classes f_0 h_i closed under S.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

# rref and kernel_basis stay bound here for tracers that wrap them by name.
from .linalg import Span, kernel_basis, mat_apply, qnorm, rref, vadd, vadd_into
from .graded import (
    GradedSuperalgebra,
    LocalSuperalgebra,
    minimal_extension,
    weight_block_quotient,
    wsum,
    zero_action,
)


# ---------------------------------------------------------------------------
# Sparse weight-blocked linear algebra


class WeightedSolver:
    """Per-weight span of sparse vectors, one ``Span`` per weight, that
    also expresses vectors over its basis.

    ``weights[i]`` is the weight of coordinate i, and a vector's weight is
    read off its keys: vectors of one weight only ever involve the basis
    vectors of that weight, so each expression reduces against one small
    span.  ``add`` and ``express`` raise ``ValueError`` on a vector whose
    keys carry more than one weight.
    """

    def __init__(self, weights):
        self.weights = [tuple(w) for w in weights]
        self.by_weight: dict = {}
        self._offsets: dict | None = None

    def _weight(self, vec: dict) -> tuple:
        weights = {self.weights[i] for i in vec}
        if len(weights) != 1:
            raise ValueError("vector is not weight-homogeneous")
        return weights.pop()

    def add(self, vec: dict) -> bool:
        if not vec:
            return False
        self._offsets = None
        return self.by_weight.setdefault(self._weight(vec), Span()).add(vec)

    def dim(self) -> int:
        return sum(sp.rank for sp in self.by_weight.values())

    def basis(self) -> list:
        """(weight, vector) pairs in deterministic order, scaled to unit
        leading coefficient."""
        return [(w, v) for w in sorted(self.by_weight)
                for v in self.by_weight[w].basis()]

    def express(self, vec: dict) -> dict | None:
        """Coefficients over the positions in ``basis()``, or None."""
        if not vec:
            return {}
        weight = self._weight(vec)
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


def root_subalgebra(local: LocalSuperalgebra, nodes) -> list:
    """Degree-0 basis vectors of the subalgebra spanned by the Cartan
    generators of the given nodes and the root vectors of roots supported
    on them.

    Expects a local part built from Cartan data (``local.data``), whose
    degree-0 names are the Chevalley names followed by the extension
    generator.
    """
    nodes = set(nodes)
    out = []
    for i, name in enumerate(local.zero_names):
        if name[0] == "h" and len(name) == 2 and name[1] in nodes:
            out.append({i: 1})
        elif name[0] in ("e", "f") and len(name) == 2:
            coords = local.data.root_coords(local.zero_weights[i])
            if all(c == 0 for j, c in enumerate(coords) if j not in nodes):
                out.append({i: 1})
    return out


def degree0_generators(local: LocalSuperalgebra) -> list:
    """A generating set S of degree 0 and the tree of brackets that closes
    it to a basis, each vector checked as it enters (module docstring).

    A greedy pass over the degree-0 basis, vectors of nonzero weight first,
    takes a basis vector into S when it lies outside the span built so far,
    then closes that span under ad s for s in S.  Returns the closure
    vectors, a basis of degree 0, in the order they entered, as
    ``(vec, s, k)``: a generator has its unit vector, its basis index s and
    k None; any other vector is [u_s, w] for the generator s and the
    earlier closure vector w at position k.  On a contragredient local part
    S is the simple e_i and f_i and the grading element h0 (in basis order
    every h_i would enter too).  Raises ``ValueError`` naming the first
    bracket that breaks parity or the representation identity.
    """
    basis = [(d, x) for d, n in ((-1, local.nneg), (0, local.nzero))
             for x in range(n)]
    parities = {-1: local.neg_parities, 0: local.zero_parities}
    names = {-1: local.neg_names, 0: local.zero_names}
    solver = WeightedSolver(local.zero_weights)
    closure: list = []
    parity: list = []
    images: list = []           # images[k][(d, x)] = [vector k, x at d]
    position: dict = {}         # generator -> its closure position
    pending: list = []          # (generator, closure position) to bracket

    def ad(k: int, d: int, vec: dict) -> dict:
        out: dict = {}
        for y, c in vec.items():
            vadd_into(out, images[k][(d, y)], c)
        return out

    def word(k: int) -> str:
        _, s, w = closure[k]
        name = str(local.zero_names[s])
        return name if w is None else "[%s, %s]" % (name, word(w))

    def enter(vec: dict, s: int, w: int | None) -> None:
        direct = {(d, x): local.bracket_vec(0, vec, d, {x: 1})
                  for d, x in basis}
        if w is None:
            position[s] = len(closure)
            pending.extend((s, k) for k in range(len(closure)))
            parity.append(local.zero_parities[s])
            for (d, x), img in direct.items():
                want = (parity[-1] + parities[d][x]) % 2
                if any(parities[d][y] != want for y in img):
                    raise ValueError(
                        "degree-0 brackets do not respect parity at "
                        "s = %s, x = %s in degree %d"
                        % (local.zero_names[s], names[d][x], d))
        else:
            g = position[s]
            sign = -1 if parity[g] and parity[w] else 1
            for d, x in basis:
                expected = ad(g, d, images[w][(d, x)])
                vadd_into(expected, ad(w, d, images[g][(d, x)]), -sign)
                if vadd(direct[(d, x)], expected, -1):
                    raise ValueError(
                        "degree-0 brackets are not a representation: "
                        "[[s, w], x] != [s, [w, x]] -+ [w, [s, x]] at "
                        "s = %s, w = %s, x = %s in degree %d"
                        % (local.zero_names[s], word(w), names[d][x], d))
            parity.append((parity[g] + parity[w]) % 2)
        closure.append((vec, s, w))
        images.append(direct)
        pending.extend((t, len(closure) - 1) for t in position)

    for u in sorted(range(local.nzero),
                    key=lambda u: not any(local.zero_weights[u])):
        if solver.add({u: 1}):
            enter({u: 1}, u, None)
        while pending:
            s, k = pending.pop()
            # [u_s, w] is read off the generator's degree-0 images
            vec = ad(position[s], 0, closure[k][0])
            if solver.add(vec):
                enter(vec, s, k)
    return closure


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
    original local part, to the quotient's degree-0 coordinates; and
    ``closure`` closes the classes of degree -1 elements under degree 0.
    ``restricted`` says whether a restriction cut the minus part down.
    ``graded`` is the minimal extension over a window (``over``), None
    until one is taken.
    """

    local: LocalSuperalgebra
    candidate_count: int
    kernel_dim: int
    source: LocalSuperalgebra = field(repr=False)
    restricted: bool
    zero_basis: list = field(repr=False)
    _pivot_class: Callable = field(repr=False)
    _close: Callable = field(repr=False)
    _minus_solver: WeightedSolver = field(repr=False)
    _zero_solver: WeightedSolver = field(repr=False)
    graded: GradedSuperalgebra | None = None

    def over(self, degree_range) -> Cartanification:
        """This cartanification extended over ``degree_range``: a copy
        whose ``graded`` is that minimal extension, sharing everything
        else, so one local cartanification serves every window."""
        return replace(
            self, graded=minimal_extension(self.local, degree_range))

    @staticmethod
    def action_coords(local: LocalSuperalgebra, p: int, j: int) -> dict:
        """Action of the candidate x_p u_j of ``local`` on the plus wing,
        in the closed form of the module docstring: ``{q: vec}`` with vec
        the degree-0 coordinates of [x_p u_j, z_q], the zero ones left
        out.  Reads the columns [u_j, z_q] and [x_p, z_q] of the plus
        layer of ``local.brackets()``."""
        plus = local.brackets().layers[1]
        act_j = plus.act0[j]            # q -> [u_j, z_q]
        opp_p = plus.opp_map[p]         # q -> [x_p, z_q]
        pairing = local.pairing or {}
        out: dict = {}
        for q in range(local.npos):
            val: dict = {}
            for q2, c in act_j.get(q, {}).items():
                img = opp_p.get(q2)
                if img:
                    vadd_into(val, img, -c)
                pv = pairing.get((p, q2))
                if pv:
                    vadd_into(val, local.grading, c * pv)
            pv = pairing.get((p, q))
            if pv:
                odd = local.zero_parities[j] and local.pos_parities[q]
                vadd_into(val, {j: pv if odd else -pv})
            if val:
                out[q] = val
        return out

    def closure(self, elements) -> WeightedSolver:
        """Classes of the degree -1 ``elements`` (candidate coordinates)
        closed under degree 0, one span per weight: its ``dim()`` is the
        dimension of the submodule they generate."""
        return self._close(elements)

    def minus1_class(self, coords: dict) -> dict:
        """Class of a degree -1 element, given by its candidate coordinates,
        over the quotient minus basis."""
        sol = self._minus_solver.express(self._pivot_class(coords))
        if sol is None:
            raise ValueError("element acts outside the cartanification")
        return sol

    def zero_class(self, vec: dict) -> dict:
        """Quotient degree-0 coordinates of an original degree-0 vector."""
        sol = self._zero_solver.express(vec)
        if sol is None:
            raise ValueError("vector lies outside the degree-0 image span")
        return sol


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

    rbasis = None
    if restriction is not None:
        rbasis = [{i: qnorm(c) for i, c in v.items() if c}
                  for v in restriction]
        rsolver = WeightedSolver(local.zero_weights)
        for v in rbasis:
            rsolver.add(v)
        for a in rbasis:
            for b in rbasis:
                if rsolver.express(local.bracket_vec(0, a, 0, b)) is None:
                    raise ValueError("restriction is not a subalgebra")

    # Each candidate x_p u_j gets its action once, when its weight block is
    # reduced: the action matrix, its kernel and its pivots all decompose
    # by weight because every map in sight is weight-homogeneous.
    cands = [(p, j) for p in range(local.nneg) for j in range(local.nzero)]
    kept, classes = weight_block_quotient(
        cands, lambda c: wsum(local.neg_weights[c[0]],
                              local.zero_weights[c[1]]),
        lambda c: Cartanification.action_coords(local, *c))
    pivots = [c for _, c, _ in kept]
    pivot_weights = [w for w, _, _ in kept]

    # From here on a degree -1 element is its class over the pivots, and
    # degree 0 moves classes by the derivation rule
    #   [u, x_p u_j] = [u, x_p] u_j + (-1)^{|u||x_p|} x_p [u, u_j].
    gens = [s for _, s, k in degree0_generators(local) if k is None]
    moves: dict = {}            # u -> {t: class of [u_u, pivots[t]]}
    layers = local.brackets().layers
    act_m = layers[-1].act0     # act_m[u][p] = [u_u, x_p]
    act_0 = layers[0].act0      # act_0[u][j] = [u_u, u_j]

    def moved(u: int, c: tuple) -> dict:
        """Class of [u_u, candidate c]."""
        p, j = c
        out: dict = {}
        for k, a in act_m[u].get(p, {}).items():
            vadd_into(out, classes[(k, j)], a)
        sign = -1 if local.zero_parities[u] and local.neg_parities[p] else 1
        for m, a in act_0[u].get(j, {}).items():
            vadd_into(out, classes[(p, m)], sign * a)
        return out

    def move(uvec: dict, cls: dict, out: dict | None = None) -> dict:
        """Class of [u, el] for a degree-0 vector u and el of class cls,
        added into ``out`` when one is given; every class is a sum of
        pivots, so their moves are cached."""
        if out is None:
            out = {}
        for u, a in uvec.items():
            row = moves.setdefault(u, {})
            for t, c in cls.items():
                if t not in row:
                    row[t] = moved(u, pivots[t])
                vadd_into(out, row[t], a * c)
        return out

    def pivot_class(coords: dict) -> dict:
        """Class of an element given by its candidate coordinates."""
        cls: dict = {}
        for c, a in coords.items():
            vadd_into(cls, classes[c], a)
        return cls

    def close(elements) -> WeightedSolver:
        """The classes of ``elements`` closed under the generators S, one
        span per weight; the action is a representation, so this closes
        them under all of degree 0."""
        solver = WeightedSolver(pivot_weights)
        queue = []
        for coords in elements:
            cls = pivot_class(coords)
            if solver.add(cls):
                queue.append(cls)
        while queue:
            cls = queue.pop()
            for u in gens:
                mcls = move({u: 1}, cls)
                if solver.add(mcls):
                    queue.append(mcls)
        return solver

    # The kernel is the peripheral ideal, spanned by each candidate minus
    # its class; it is stable under degree 0 when each candidate moves as
    # its class does under each generator (module docstring).  A pivot's
    # class is its unit vector, so a pivot moves as its class does.
    pivot_set = set(pivots)
    for c, cls in classes.items():
        if c in pivot_set:
            continue
        for u in gens:
            if move({u: -1}, cls, moved(u, c)):
                raise ValueError("peripheral kernel is not invariant "
                                 "under degree-0 brackets")

    if rbasis is None:
        # kept is sorted by weight, so the unit classes keep their positions
        minus_solver = WeightedSolver(pivot_weights)
        for t in range(len(kept)):
            minus_solver.add({t: 1})
    else:
        # the submodule generated by the classes of f_0 y_0
        minus_solver = close(products({0: 1}, y) for y in rbasis)
    minus_basis = [(v, w) for w, v in minus_solver.basis()]

    neg_weights = [w for _, w in minus_basis]
    neg_parities = [(local.neg_parities[p] + local.zero_parities[j]) % 2
                    for p, j in (pivots[min(v)] for v, _ in minus_basis)]

    # Degree-0 part: the span of the action image, [w_t, z_q] being
    # images[t][q] over the original degree-0 basis; w_t acts as the same
    # combination of the pivots' actions.  The span is already a
    # subalgebra: for a = [x, z], Jacobi gives [a, [x', z']] = [[a, x'], z']
    # +- [x', [a, z']], with [a, x'] in degree -1 (the kernel is invariant,
    # checked above) and [a, z'] in degree 1.  b00 below brackets every pair
    # of basis vectors and raises if that ever fails.
    images = []
    zero_solver = WeightedSolver(local.zero_weights)
    for v, _ in minus_basis:
        act: dict = {}
        for t, c in v.items():
            for q, vec in kept[t][2].items():
                vadd_into(act.setdefault(q, {}), vec, c)
        images.append(act)
        for vec in act.values():
            zero_solver.add(vec)
    zero_pairs = zero_solver.basis()
    zero_basis = [v for _, v in zero_pairs]
    zero_wts = [w for w, _ in zero_pairs]

    def in_zero(vec: dict) -> dict:
        out = zero_solver.express(vec)
        if out is None:
            raise ValueError("degree-0 image span is not closed")
        return out

    # Structure constants of the quotient local part, from the column-sparse
    # ad u_s on degrees 0 and 1, once per basis vector u_s.
    b00 = {}
    b0p = {}
    for s, us in enumerate(zero_basis):
        ad0 = zero_action(layers[0], us)
        for t, ut in enumerate(zero_basis):
            br = mat_apply(ad0, ut)
            if br:
                b00[(s, t)] = in_zero(br)
        ad1 = zero_action(layers[1], us)
        for q in range(local.npos):
            br = ad1.get(q)
            if br:
                b0p[(s, q)] = br
    # A move from weight w lands at the weight of u_s plus w, on a sum of
    # pivots of that weight, so it is {} for a whole weight class of the
    # minus basis when no pivot has that weight.  The weak minus basis is
    # the pivots' unit classes in kept order, so a move is its own class
    # there; a restricted one solves, which checks that it is closed.
    pivot_weight_set = set(pivot_weights)
    minus_by_weight: dict = {}
    for t, (v, w) in enumerate(minus_basis):
        minus_by_weight.setdefault(w, []).append((t, v))
    b0m = {}
    for s, us in enumerate(zero_basis):
        for w, members in minus_by_weight.items():
            if wsum(zero_wts[s], w) not in pivot_weight_set:
                continue
            for t, v in members:
                cls = move(us, v)
                if rbasis is not None:
                    cls = minus_solver.express(cls)
                    if cls is None:
                        raise ValueError("degree -1 classes are not closed "
                                         "under the degree-0 action")
                if cls:
                    b0m[(s, t)] = cls
    # [z_q, w_t] from the stored action [w_t, z_q] by super-antisymmetry.
    bpm = {}
    for t, act in enumerate(images):
        for q, vec in act.items():
            cls = in_zero(vec)
            if cls:
                sign = -1 if (local.pos_parities[q]
                              and neg_parities[t]) else 1
                bpm[(q, t)] = {k: -sign * c for k, c in cls.items()}

    # The grading element and named elements outside the degree-0 span
    # are dropped; any other fault propagates.
    grading = None
    if local.grading:
        grading = zero_solver.express(local.grading)

    embedding = None
    if local.embedding:
        embedding = {name: coords for name, vec in local.embedding.items()
                     if (coords := zero_solver.express(vec)) is not None}

    # The closure reads only the moves under the generators.
    for u in set(moves).difference(gens):
        del moves[u]
    return Cartanification(
        local=LocalSuperalgebra(
            neg_names=[("w", t) for t in range(len(minus_basis))],
            neg_weights=neg_weights,
            neg_parities=neg_parities,
            zero_names=[("u", t) for t in range(len(zero_basis))],
            zero_weights=zero_wts,
            zero_parities=[local.zero_parities[min(v)] for v in zero_basis],
            pos_names=list(local.pos_names),
            pos_weights=[tuple(w) for w in local.pos_weights],
            pos_parities=list(local.pos_parities),
            b00=b00, b0m=b0m, b0p=b0p, bpm=bpm,
            pairing=None, grading=grading, embedding=embedding,
            data=local.data),
        candidate_count=len(cands), kernel_dim=len(cands) - len(pivots),
        source=local, restricted=rbasis is not None, zero_basis=zero_basis,
        _pivot_class=pivot_class, _close=close, _minus_solver=minus_solver,
        _zero_solver=zero_solver)


def cartanify(local: LocalSuperalgebra, degree_range=(-4, 1),
              restriction=None) -> Cartanification:
    """Local cartanification followed by the minimal graded extension."""
    return local_cartanification(local, restriction=restriction).over(
        degree_range)
