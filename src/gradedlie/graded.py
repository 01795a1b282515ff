"""Local Lie superalgebras, minimal graded extensions, and decompositions.

A local superalgebra is the degree -1/0/1 slice of a Z-graded Lie
superalgebra: bases with weights and parities, the brackets that land
back inside the slice, optionally an invariant pairing between the
degree -1 and +1 parts and a grading element.

The minimal extension is built degree by degree.  Candidates for degree
-(k+1) are tensors u (x) x with u at degree -k and x at degree -1; the
value of a candidate under every degree +1 element z,

    T(u (x) x)(z) = [[z,u],x] + (-1)^{|z||u|} [u,[z,x]],

is computable from the previous layer, and the new layer is the candidate
space modulo ker T.  This successive quotient equals the quotient of the
free Lie superalgebra on the degree -1 part by the maximal graded ideal
meeting the local part trivially: anything the free algebra adds beyond
the tensor candidates (super-antisymmetry and Jacobi combinations) is
annihilated by every z and lands in the kernel automatically.  Kernels
are computed per weight block; bases are ordered by (weight, candidate),
so outputs are deterministic.

At degree -2 (k = 1) both factors sit at degree -1, and a candidate
u (x) x with u > x has T-values -(-1)^{|u||x|} times those of x (x) u,
which comes earlier in its block: it is never a pivot, and dropping it
changes no pivot and no class.  So only u <= x are candidates there, and
the bracket [u, x] for u > x is filled in from [x, u] with that sign.
The diagonal u = x stays, since [x, x] need not vanish for odd x.

A candidate's T-values read tables gathered once per layer, per u and
per x.  The second term needs [u, [z, x]], and [u, a] = -(-1)^{|u||a|}
[a, u] for a at degree 0, so the images [a, u] of the previous layer's
degree-0 action are gathered per u; with the sign (-1)^{|z||u|} of T an
image enters negated unless |u| = 1 and |a| != |z|, so a term adds it
scaled by c or by -c, and a sign costs no multiplication.  Only the z
with [z, u] != 0 or [z, x] != 0 are visited, and zero T-values are not
stored.  The weight blocks are keyed by the summed weights, integer tuples
on Cartan data, each computed once per pair of distinct weights of the
two layers; the weight of a new basis element is brought to normal form
(``linalg.qnorm``) only for the kept candidates.

That quotient step -- candidates modulo the kernel of their T-values, one
weight block at a time -- is the one function ``weight_block_quotient``.
It values a block only when it reduces it (``linalg.reduce_columns``),
reads every class off the reduced pivot rows and keeps the T-values of
the pivots alone, so at most one block's other T-values are held at any
time.  It also builds the
irreducible module R(-lambda) level by level (``lowest_weight_module``),
the degree -1 part of the cartanification
(``cartan.local_cartanification``) and the multiplicities of
``decompose_module``.  The extension reads only the ``Layer`` tables;
``_local_layers`` turns the local brackets into them, once per local
part, and the local part answers its own brackets from those three
layers through the same evaluator, ``GradedSuperalgebra``.

On Cartan data every layer of the extension is a finite-dimensional
module of the diagram's algebra, whose weight multiplicities -- the
ranks of the weight blocks -- are invariant under the Weyl group.  One
gate, ``_weyl_check``, says when that is a theorem and not an
assumption; it reads only the three layers of a local part and the
datum the local part carries (``LocalSuperalgebra.data``, the one home
of a model's datum), so it is checked once per local part
(``_weyl_gate``).  Past the gate the extension hands the datum to the
quotient, which reduces the dominant blocks first and then values only
the blocks in the Weyl orbits (``CartanData.orbit``) of the dominant
blocks that kept something; the layers are the same without it.
``count_next_layer`` gives the dimension of the layer one step beyond
the outermost stored one without building it, from the ranks of the
blocks of dominant summed weight and their orbit sizes
(``CartanData.orbit_size``).  The count and ``decompose_at_degree``
require the gate.  The extension and the count take their candidates,
weights and T-values from ``_tensor_candidates``.

A zero layer stops the side: further layers are generated by bracketing
the zero layer with degree -+1, hence zero as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from types import MappingProxyType
from typing import Callable, Iterable, Sequence

# rref and kernel_basis stay bound here for tracers that wrap them by name.
from .linalg import (
    kernel_basis,
    mat_apply,
    qnorm,
    reduce_columns,
    rref,
    vadd,
    vadd_into,
    vscale,
)
from .rootsys import CartanData, root_action, weyl_dimension

__all__ = [
    "LocalSuperalgebra",
    "GradedSuperalgebra",
    "Layer",
    "ModuleRep",
    "check_local_axioms",
    "minimal_extension",
    "count_next_layer",
    "decompose_module",
    "decompose_at_degree",
    "lowest_weight_module",
]

# sparse coefficient vector: index -> value, in linalg's normal form (an
# ``int`` when integral, a ``Fraction`` otherwise; ``linalg.qnorm``), and
# divided only through ``linalg.qdiv``
Vec = dict

# the bracket of a basis pair that no table holds: shared, so read-only
_EMPTY: Vec = MappingProxyType({})


def wsum(wa: tuple, wb: tuple) -> tuple:
    """The sum of two weights, in normal form."""
    return tuple(map(qnorm, map(add, wa, wb)))


def _normalize(vecs: Iterable[Vec]) -> None:
    """Bring every value of the given sparse vectors to normal form, in
    place."""
    for vec in vecs:
        for k, c in vec.items():
            if type(c) is not int:
                vec[k] = qnorm(c)


@dataclass
class LocalSuperalgebra:
    """Bases and brackets of a degree -1/0/1 slice.

    Bracket tables are sparse and one-sided; the other orientation is
    derived through super-antisymmetry.  Conventions:

    * ``b00[(a, b)]`` = [x0_a, x0_b] as a degree-0 vector;
    * ``b0m[(a, x)]`` = [x0_a, y_x] with y at degree -1;
    * ``b0p[(a, z)]`` = [x0_a, y_z] with y at degree +1;
    * ``bpm[(z, x)]`` = [y_z, y_x], degree +1 with degree -1, landing at 0;
    * ``pairing[(x, z)]`` = <y_x | y_z> for x at -1, z at +1 (optional);
    * ``grading`` = degree-0 coordinates of the grading element (optional);
    * ``embedding`` optionally records degree-0 coordinates of named
      elements when the degree-0 basis is synthetic (cartanifications);
    * ``data`` is the Cartan datum a contragredient local part was built
      from (``contragredient.build_local``), or that of the local part a
      cartanification was taken of, None for any other.

    Construction brings every weight entry and table value to normal form
    and makes the four bracket tables read-only copies, so assigning an
    entry raises ``TypeError``; ``dataclasses.replace`` builds a local
    part with other tables.  On first use (``brackets``) the tables become
    three ``Layer``s, once, and every bracket is evaluated over them as in
    any graded algebra.
    """

    neg_names: list
    neg_weights: list
    neg_parities: list
    zero_names: list
    zero_weights: list
    zero_parities: list
    pos_names: list
    pos_weights: list
    pos_parities: list
    b00: dict
    b0m: dict
    b0p: dict
    bpm: dict
    pairing: dict | None = None
    grading: Vec | None = None
    embedding: dict | None = None
    data: CartanData | None = None

    def __post_init__(self):
        self.neg_weights = [tuple(map(qnorm, w)) for w in self.neg_weights]
        self.zero_weights = [tuple(map(qnorm, w)) for w in self.zero_weights]
        self.pos_weights = [tuple(map(qnorm, w)) for w in self.pos_weights]
        _normalize([*self.b00.values(), *self.b0m.values(),
                    *self.b0p.values(), *self.bpm.values(),
                    *(self.embedding or {}).values(),
                    *(v for v in (self.pairing, self.grading)
                      if v is not None)])
        # the layers share these tables' vectors, read once
        self.b00 = MappingProxyType(dict(self.b00))
        self.b0m = MappingProxyType(dict(self.b0m))
        self.b0p = MappingProxyType(dict(self.b0p))
        self.bpm = MappingProxyType(dict(self.bpm))
        self._brackets: GradedSuperalgebra | None = None
        self._weyl: tuple | None = None   # 1-tuple: _weyl_gate's outcome

    def brackets(self) -> GradedSuperalgebra:
        """The three local layers and the bracket evaluator over them,
        built on first use; the evaluator holds no reference back to this
        local part."""
        if self._brackets is None:
            self._brackets = GradedSuperalgebra(None, _local_layers(self))
        return self._brackets

    @property
    def nneg(self) -> int:
        return len(self.neg_names)

    @property
    def nzero(self) -> int:
        return len(self.zero_names)

    @property
    def npos(self) -> int:
        return len(self.pos_names)

    def dims(self) -> dict[int, int]:
        return {-1: self.nneg, 0: self.nzero, 1: self.npos}

    def names_at(self, d: int) -> list:
        return {-1: self.neg_names, 0: self.zero_names, 1: self.pos_names}[d]

    def parities_at(self, d: int) -> list:
        return {-1: self.neg_parities, 0: self.zero_parities, 1: self.pos_parities}[d]

    def zero_coords_of(self, name) -> Vec | None:
        """Degree-0 coordinates of a named element, if representable."""
        if self.embedding is not None and name in self.embedding:
            return dict(self.embedding[name])
        if name in self.zero_names:
            return {self.zero_names.index(name): 1}
        return None

    # -- local brackets ----------------------------------------------------

    def bracket(self, da: int, a: int, db: int, b: int) -> Vec:
        """[basis_a at degree da, basis_b at degree db]; |da + db| <= 1.
        The result is the stored vector itself, a table entry, a memo
        entry or one shared empty mapping, not a copy: read it only."""
        if not -1 <= da + db <= 1:
            raise ValueError("bracket of degrees %d and %d leaves the slice"
                             % (da, db))
        return self.brackets()._bb(da, a, db, b)

    def bracket_vec(self, da: int, va: Vec, db: int, vb: Vec) -> Vec:
        """[va at degree da, vb at degree db]; for two basis vectors with
        coefficient 1 it is ``bracket``'s stored vector, so read it only."""
        if len(va) == 1 == len(vb):
            (a, ca), = va.items()
            (b, cb), = vb.items()
            if ca * cb == 1:
                return self.bracket(da, a, db, b)
        out: Vec = {}
        for a, ca in va.items():
            for b, cb in vb.items():
                vadd_into(out, self.bracket(da, a, db, b), ca * cb)
        return out

    def pair(self, x: int, z: int) -> int | Fraction:
        return self.pairing.get((x, z), 0)


def check_local_axioms(local: LocalSuperalgebra) -> dict:
    """Itemized report: Jacobi-in-range, grading element, pairing axioms."""
    checks = []

    def record(name, failures, detail=""):
        checks.append({
            "name": name,
            "passed": not failures,
            "detail": detail,
            "witnesses": failures[:3],
        })

    # Jacobi for degree patterns whose three pairwise brackets stay in range
    patterns = [(0, 0, 0)]
    for d in (1, -1):
        patterns += [(d, 0, 0), (0, d, 0), (0, 0, d)]
    patterns += [(0, 1, -1), (0, -1, 1), (1, 0, -1),
                 (-1, 0, 1), (1, -1, 0), (-1, 1, 0)]
    failures = []
    for pat in patterns:
        d1, d2, d3 = pat
        n1 = len(local.names_at(d1))
        n2 = len(local.names_at(d2))
        n3 = len(local.names_at(d3))
        p1 = local.parities_at(d1)
        p2 = local.parities_at(d2)
        for i in range(n1):
            for j in range(n2):
                for k in range(n3):
                    # [[x,y],z] = [x,[y,z]] - (-1)^{|x||y|} [y,[x,z]]
                    lhs = local.bracket_vec(
                        d1 + d2, local.bracket(d1, i, d2, j), d3, {k: 1})
                    rhs = local.bracket_vec(
                        d1, {i: 1}, d2 + d3, local.bracket(d2, j, d3, k))
                    sgn = -1 if (p1[i] and p2[j]) else 1
                    rhs = vadd(rhs, local.bracket_vec(
                        d2, {j: 1}, d1 + d3, local.bracket(d1, i, d3, k)),
                        -sgn)
                    if vadd(lhs, rhs, -1):
                        failures.append({"degrees": list(pat),
                                         "indices": [i, j, k]})
    record("jacobi_in_range", failures,
           "[[x,y],z] = [x,[y,z]] - (-1)^{|x||y|}[y,[x,z]] whenever defined")

    if local.grading is not None:
        failures = []
        for d in (-1, 0, 1):
            for k in range(len(local.names_at(d))):
                got = local.bracket_vec(0, local.grading, d, {k: 1})
                want = {k: d} if d else {}
                if vadd(got, want, -1):
                    failures.append({"degree": d, "index": k})
        record("grading_element", failures, "[L, x_k] = k x_k")

    if local.pairing is not None:
        failures = []
        for x in range(local.nneg):
            for z in range(local.npos):
                if local.pair(x, z) and \
                        local.neg_parities[x] != local.pos_parities[z]:
                    failures.append({"neg": x, "pos": z})
        record("pairing_homogeneity", failures,
               "pairing vanishes across different parities")

        failures = []
        for a in range(local.nzero):
            for x in range(local.nneg):
                xy = local.bracket(-1, x, 0, a)
                for z in range(local.npos):
                    lhs = sum(c * local.pair(x2, z) for x2, c in xy.items())
                    yz = local.bracket(0, a, 1, z)
                    rhs = sum(c * local.pair(x, z2) for z2, c in yz.items())
                    if lhs != rhs:
                        failures.append({"zero": a, "neg": x, "pos": z})
        record("pairing_invariance", failures,
               "<[x,y0]|z> = <x|[y0,z]>")

    return {"passed": all(c["passed"] for c in checks), "checks": checks}


@dataclass
class Layer:
    """One stored degree of a graded superalgebra."""

    degree: int
    names: list
    weights: list
    parities: list
    # tensor definition for |degree| >= 2: basis elt = [parent, unit] with
    # parent in the adjacent inner layer and unit at degree sign(degree)
    tensor_parent: list | None = None
    reduce: dict | None = None     # (parent, unit) -> Vec over this layer
    # action of the opposite-sign degree-1 basis, landing one step inward
    opp_map: list | None = None    # opp_map[j][src] = Vec in inner layer
    act0: list | None = None       # act0[a][src] = Vec in this layer

    @property
    def dim(self) -> int:
        return len(self.names)


class GradedSuperalgebra:
    """Per-degree bases with bracket structure constants.

    Brackets between arbitrary stored degrees are evaluated recursively
    from the stored layer data (tensor definitions, degree +-1 actions,
    degree-0 actions) and memoized per basis pair.  ``local`` is the
    local part the algebra extends, which carries its Cartan datum; the
    evaluator a local part holds over its own three layers has None there.

    A basis bracket (``_bb``) is a stored vector itself -- a layer's
    entry, a memo entry, or one shared read-only empty mapping -- never a
    copy, and every caller only reads it: ``bracket`` and the recursion
    sum basis brackets into new vectors, and ``LocalSuperalgebra``
    passes them on under the same contract.
    """

    def __init__(self, local: LocalSuperalgebra | None,
                 layers: dict[int, Layer]):
        self.local = local
        self.layers = layers
        self._memo: dict[tuple, Vec] = {}

    def degrees(self) -> list[int]:
        return sorted(self.layers)

    def layer(self, d: int) -> Layer:
        if d not in self.layers:
            raise KeyError("degree %d not stored" % d)
        return self.layers[d]

    def dims(self) -> dict[int, int]:
        return {d: self.layers[d].dim for d in self.degrees()}

    def parity(self, d: int, i: int) -> int:
        return self.layers[d].parities[i]

    def zero_coords_of(self, name) -> Vec | None:
        return self.local.zero_coords_of(name)

    # -- brackets ----------------------------------------------------------

    def bracket(self, a: tuple[int, Vec], b: tuple[int, Vec]) -> tuple[int, Vec]:
        """[a, b] for (degree, sparse coefficient vector) pairs."""
        da, va = a
        db, vb = b
        out: Vec = {}
        for i, ci in va.items():
            for j, cj in vb.items():
                vadd_into(out, self._bb(da, i, db, j), ci * cj)
        return da + db, out

    def _anti(self, da: int, i: int, db: int, j: int) -> Vec:
        sign = -1 if (self.parity(da, i) and self.parity(db, j)) else 1
        return vscale(self._bb(db, j, da, i), -sign)

    def _bb(self, da: int, i: int, db: int, j: int) -> Vec:
        """Basis bracket, memoized unless it is a stored degree-0 action
        entry; raises if the result degree is unstored.  Returns the stored
        or memoized vector itself, read-only (class docstring)."""
        d = da + db
        if d not in self.layers:
            raise ValueError("bracket lands at unstored degree %d" % d)
        if da == 0:
            return self.layers[db].act0[i].get(j, _EMPTY)
        key = (da, i, db, j)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._bb_raw(da, i, db, j)
        return hit

    def _bb_raw(self, da: int, i: int, db: int, j: int) -> Vec:
        if db == 0 or da < 0 < db:
            return self._anti(da, i, db, j)

        # s is the sign of da; layer da is spanned by tensors [u, x_s]
        s = 1 if da > 0 else -1
        if db < 0 < da:
            if da == 1:
                return self.layers[db].opp_map[i].get(j, _EMPTY)
            if db == -1:
                # positive layers store [x_{-1}, u] directly
                sign = -1 if (self.parity(da, i)
                              and self.parity(-1, j)) else 1
                return vscale(self.layers[da].opp_map[j].get(i, {}), -sign)
        else:
            if da == s:
                if db == s:
                    return self.layers[2 * s].reduce[(i, j)]
                # [x_s, v_q] = -(-1)^{|x||v|} [v_q, x_s]
                sign = -1 if (self.parity(s, i)
                              and self.parity(db, j)) else 1
                return vscale(self.layers[db + s].reduce[(j, i)], -sign)
            if db == s:
                # [u, x_s] is the tensor definition of the next layer
                return self.layers[da + s].reduce[(i, j)]
        # expand a = [u, x] with x at degree s via its tensor definition:
        # [[u,x],b] = [u,[x,b]] - (-1)^{|u||x|} [x,[u,b]]
        u, x = self.layers[da].tensor_parent[i]
        pu = self.parity(da - s, u)
        px = self.parity(s, x)
        out = self._bracket_vec_left(da - s, u, db + s, self._bb(s, x, db, j))
        out2 = self._bracket_vec_left(s, x, da - s + db,
                                      self._bb(da - s, u, db, j))
        sgn = -1 if (pu and px) else 1
        return vadd_into(out, out2, -sgn)

    def _bracket_vec_left(self, da: int, i: int, db: int, vb: Vec) -> Vec:
        out: Vec = {}
        for j, c in vb.items():
            vadd_into(out, self._bb(da, i, db, j), c)
        return out


def _local_layers(local: LocalSuperalgebra) -> dict[int, Layer]:
    """Wrap the three local degrees in the uniform Layer shape, sharing
    the tables' vectors: nothing changes a stored vector in place."""
    def columns(table: dict, n: int) -> list:
        """table[(a, x)] as cols[a][x], the empty vectors left out."""
        cols = [dict() for _ in range(n)]
        for (a, x), vec in table.items():
            if vec:
                cols[a][x] = vec
        return cols

    act0_m = columns(local.b0m, local.nzero)
    act0_p = columns(local.b0p, local.nzero)
    act0_0 = columns(local.b00, local.nzero)
    opp_m = columns(local.bpm, local.npos)   # [z, x] for x at degree -1
    opp_p = [dict() for _ in range(local.nneg)]   # [x, z], z at degree +1
    for (z, x), vec in local.bpm.items():
        sign = -1 if (local.pos_parities[z]
                      and local.neg_parities[x]) else 1
        w = vscale(vec, -sign)
        if w:
            opp_p[x][z] = w

    return {
        -1: Layer(-1, list(local.neg_names), list(local.neg_weights),
                  list(local.neg_parities), opp_map=opp_m, act0=act0_m),
        0: Layer(0, list(local.zero_names), list(local.zero_weights),
                 list(local.zero_parities), act0=act0_0),
        1: Layer(1, list(local.pos_names), list(local.pos_weights),
                 list(local.pos_parities), opp_map=opp_p, act0=act0_p),
    }


def weight_block_quotient(cands: Iterable, weight: Callable,
                          values: Callable,
                          data: CartanData | None = None) -> tuple[list, dict]:
    """Candidates modulo the kernel of their T-values, one weight block at
    a time.

    ``weight(cand)`` is a candidate's weight, any hashable ordered key, and
    ``values(cand)`` its T-values, ``{acting element: sparse vector}``.
    The candidates are grouped by weight first; then, block by block in
    sorted weight order, each block is valued, in candidate order, and
    reduced (``linalg.reduce_columns``), and only its pivots' values are
    kept.
    Returns the kept ``(weight, candidate, values)`` triples, the pivots of
    each block in sorted weight order, and the class of every candidate
    over them, ``{kept position: coefficient}``, read off the block's
    reduced pivot rows, so a kept candidate's class is its unit vector.  A
    block whose T-values are all zero keeps nothing, and each of its
    candidates has the class ``{}``.

    ``data`` says that the quotient is a finite-dimensional module of the
    diagram's algebra with integral weights (``_weyl_gate``), so that
    each block's rank, a weight multiplicity, is that of the dominant
    block in its Weyl orbit.  The dominant blocks, every label >= 0, are
    then reduced first, and a block is valued only when its weight lies
    in the orbit (``CartanData.orbit``) of a dominant block that kept
    something; any other block's candidates get the class ``{}``.  Every
    weight of such an orbit is a weight of the quotient, so the orbits
    together never hold more weights than there are blocks, and an orbit
    weight without candidates raises ``ValueError`` naming it.  The
    triples and classes are those of the quotient without ``data``.
    """
    def reduce(blk: list) -> tuple[list, list, list]:
        """The block's pivots, reduced pivot rows and pivots' values."""
        vals = [values(cand) for cand in blk]
        # one column per candidate, keyed (acting element, index)
        piv, red = reduce_columns([
            {(z, t): c for z, vec in v.items() for t, c in vec.items()}
            for v in vals])
        return piv, red, [vals[col] for col in piv]

    blocks: dict = {}
    for cand in cands:
        blocks.setdefault(weight(cand), []).append(cand)
    order = sorted(blocks)
    first: dict = {}        # the dominant blocks, reduced before the others
    if data is not None:
        first = {w: reduce(blocks[w]) for w in order if min(w) >= 0}
        orbits = set()      # the weights of nonzero multiplicity
        for mu, (piv, _, _) in first.items():
            if piv:
                orbits.update(data.orbit(mu))
        missing = orbits.difference(blocks)
        if missing:
            raise ValueError(
                "weight %s lies in the Weyl orbit of a kept dominant weight "
                "but has no candidates, so the quotient is no module of the "
                "diagram's algebra" % (min(missing),))
    kept: list = []
    classes: dict = {}
    for w in order:
        blk = blocks.pop(w)
        if w in first:
            piv, red, vals = first.pop(w)
        elif data is None or w in orbits:
            piv, red, vals = reduce(blk)
        else:
            piv = red = vals = ()   # rank 0: in no kept dominant orbit
        cls = [classes.setdefault(cand, {}) for cand in blk]
        for r, row in enumerate(red, len(kept)):
            for col, c in row.items():
                cls[col][r] = c
        kept.extend((w, blk[col], v) for col, v in zip(piv, vals))
    return kept, classes


def _tensor_candidates(layers: dict[int, Layer], side: int,
                       k: int) -> tuple[Iterable, Callable, Callable]:
    """The tensor candidates (u, x) for degree side*(k+1), with their
    summed weight and their T-values, ``{z: vec}`` with the zero vectors
    left out: ``weight_block_quotient``'s three arguments."""
    prev = layers[side * k]
    unit = layers[side]         # degree +-1: [z, x] and [a, x] for its x
    zero = layers[0]

    # [v, x] for v one step inside the previous layer, per x and v
    inner: list[dict] = [dict() for _ in range(unit.dim)]
    if k == 1:
        for p, col in enumerate(unit.act0):
            for x, vec in col.items():
                inner[x][p] = vec
    else:
        for (p, x), vec in prev.reduce.items():
            if vec:
                inner[x][p] = vec
    # the acting z with [z, u] != 0, per u, and with [z, x] != 0, per x
    opp_u = _by_source(prev.opp_map, prev.dim)
    opp_x = _by_source(unit.opp_map, unit.dim)
    z_odd = layers[-side].parities
    # the images [a, u] != 0 of the degree-0 a, per u
    act_u = [dict(pairs) for pairs in _by_source(prev.act0, prev.dim)]
    # the summed weight once per pair of distinct weights, by their ids
    u_ids, n_u = _weight_ids(prev.weights)
    x_ids, n_x = _weight_ids(unit.weights)
    sums = [[None] * n_x for _ in range(n_u)]

    def weight(cand: tuple) -> tuple:
        u, x = cand
        row, j = sums[u_ids[u]], x_ids[x]
        w = row[j]
        if w is None:
            w = row[j] = tuple(map(add, prev.weights[u], unit.weights[x]))
        return w

    def values(cand: tuple) -> dict:
        u, x = cand
        ix = inner[x]
        vals: dict = {}
        # [[z, u], x]
        for z, vec in opp_u[u]:
            out: dict = {}
            for p, c in vec.items():
                t = ix.get(p)
                if t:
                    vadd_into(out, t, c)
            vals[z] = out
        # (-1)^{|z||u|} [u, [z, x]], signed as in the module docstring
        pu = prev.parities[u]
        imgs = act_u[u]
        for z, vec in opp_x[x]:
            out = vals.get(z)
            if out is None:
                out = vals[z] = {}
            pz = z_odd[z]
            for a, c in vec.items():
                img = imgs.get(a)
                if img:
                    vadd_into(out, img, c if pu and zero.parities[a] != pz
                              else -c)
        return {z: vec for z, vec in vals.items() if vec}

    # at k = 1, [u, x] with u > x is a multiple of [x, u]: never a pivot
    cands = ((u, x) for u in range(prev.dim)
             for x in range(u if k == 1 else 0, unit.dim))
    return cands, weight, values


def _weight_ids(weights: list) -> tuple[list, int]:
    """An integer id per entry of ``weights``, shared by equal entries,
    and the number of distinct ones."""
    ids: dict = {}
    return [ids.setdefault(w, len(ids)) for w in weights], len(ids)


def _extend_one(layers: dict[int, Layer], side: int, k: int,
                data: CartanData | None = None) -> Layer:
    """Build the layer at degree side*(k+1) from the one at side*k;
    ``data`` as in ``weight_block_quotient``."""
    prev = layers[side * k]
    unit = layers[side]
    acting = layers[-side]
    zero = layers[0]

    kept, reduce_map = weight_block_quotient(
        *_tensor_candidates(layers, side, k), data)
    if k == 1:
        for u in range(prev.dim):
            for x in range(u):
                vec = reduce_map[(x, u)]
                reduce_map[(u, x)] = dict(vec) if (
                    prev.parities[u] and unit.parities[x]) \
                    else {t: -c for t, c in vec.items()}
    new_deg = side * (k + 1)
    tensor_parent = [cand for _, cand, _ in kept]
    layer = Layer(new_deg, [("w", new_deg, t) for t in range(len(kept))],
                  [tuple(map(qnorm, w)) for w, _, _ in kept],
                  [(prev.parities[u] + unit.parities[x]) % 2
                   for u, x in tensor_parent],
                  tensor_parent=tensor_parent, reduce=reduce_map)

    # opposite action on the new basis: the kept T-values of the pivots
    opp = [dict() for _ in range(acting.dim)]
    for idx, (_, _, vals) in enumerate(kept):
        for z, vec in vals.items():
            opp[z][idx] = vec
    layer.opp_map = opp

    # degree-0 action: [a, [u,x]] = [[a,u],x] + (-1)^{|a||u|}[u,[a,x]]
    act_u = _by_source(prev.act0, prev.dim)
    act_x = _by_source(unit.act0, unit.dim)
    act0 = [dict() for _ in range(zero.dim)]
    for idx, (u, x) in enumerate(tensor_parent):
        pu = prev.parities[u]
        rows: dict = {}
        for a, au in act_u[u]:
            vec = rows[a] = {}
            for v, c in au.items():
                vadd_into(vec, reduce_map[(v, x)], c)
        for a, ax in act_x[x]:
            vec = rows.get(a)
            if vec is None:
                vec = rows[a] = {}
            odd = zero.parities[a] and pu
            for y, c in ax.items():
                vadd_into(vec, reduce_map[(u, y)], -c if odd else c)
        for a, vec in rows.items():
            if vec:
                act0[a][idx] = vec
    layer.act0 = act0
    return layer


def _by_source(action: list, dim: int) -> list[list]:
    """Per source element, the (acting index, image) pairs of an action
    stored as ``action[acting][source]``, in acting order."""
    out: list[list] = [[] for _ in range(dim)]
    for z, col in enumerate(action):
        for src, vec in col.items():
            if vec:
                out[src].append((z, vec))
    return out


def minimal_extension(local: LocalSuperalgebra,
                      degree_range: tuple[int, int]) -> GradedSuperalgebra:
    """Minimal Z-graded extension of a local part over the given degrees.

    When the local part carries its Cartan datum and passes the gate
    ``_weyl_gate``, every new layer is a finite-dimensional module of
    the diagram's algebra, and its quotient skips the weight blocks that
    Weyl symmetry proves empty (``weight_block_quotient``); the layers are
    the same either way.  A failed sl_2 bracket raises ``ValueError``
    naming it.
    """
    d_min, d_max = degree_range
    if d_min > -1 or d_max < 1:
        raise ValueError("degree_range must contain [-1, 1]")
    g_alg = GradedSuperalgebra(local, dict(local.brackets().layers))
    gated = local.data is not None and _weyl_gate(local) is None
    for side, stop in ((-1, -d_min), (1, d_max)):
        for k in range(1, stop):
            g_alg.layers[side * (k + 1)] = _extend_one(
                g_alg.layers, side, k, local.data if gated else None)
    return g_alg


def _weyl_gate(local: LocalSuperalgebra) -> tuple | str | None:
    """The outcome of ``_weyl_check`` on ``local``, kept on it once checked,
    a failure as well as a pass; a failed bracket raises each time."""
    if local._weyl is None:
        local._weyl = (_weyl_check(local),)
    return local._weyl[0]


def _weyl_check(local: LocalSuperalgebra) -> tuple | str | None:
    """The gate's checks on ``local``: degree 0 names every ("e", i),
    ("f", i) and ("h", i) of ``local.data``, the weights of degrees -1, 0
    and 1 are integral, [e_i, f_i] = h_i, and h_j acts on e_i and f_i by
    +-(alpha_i)_j and on each basis vector of degrees +-1 by its j-th
    label.  Each layer of an extension is then spanned by brackets of
    degree +-1 vectors, on which h_j acts by the j-th label of their
    weight, and e_i, f_i shift weights by +-alpha_i, so each
    alpha_i-string of its weights is a finite-dimensional sl_2-module and
    reflection s_i keeps multiplicities (Humphreys, Introduction to Lie
    Algebras and Representation Theory, 21.2).  Returns None then, else
    the (kind, node) of the first missing name or why a weight is not
    integral; a failed bracket raises ``ValueError`` naming it."""
    data = local.data
    layers = local.brackets().layers
    coords = {(kind, node): local.zero_coords_of((kind, node))
              for node in range(data.r) for kind in ("e", "f", "h")}
    missing = [name for name, vec in coords.items() if vec is None]
    if missing:
        return missing[0]
    # weights are in normal form, so an integral one holds only ints
    for d in (-1, 0, 1):
        for w in layers[d].weights:
            if any(type(m) is not int for m in w):
                return ("weight %s at degree %d is not integral, so it is "
                        "no weight of a finite-dimensional module"
                        % (list(w), d))
    for i in range(data.r):
        e, f = coords[("e", i)], coords[("f", i)]
        if vadd(local.bracket_vec(0, e, 0, f), coords[("h", i)], -1):
            raise ValueError("[e_%d, f_%d] is not h_%d in degree 0"
                             % (i, i, i))
    for j in range(data.r):
        h_j = coords[("h", j)]
        for i, labels in enumerate(data.simple_labels):
            for kind, by in (("e", labels[j]), ("f", -labels[j])):
                vec = coords[(kind, i)]
                if vadd(local.bracket_vec(0, h_j, 0, vec), vec, -by):
                    raise ValueError("[h_%d, %s_%d] is not %d %s_%d in "
                                     "degree 0" % (j, kind, i, by, kind, i))
        for d in (-1, 1):
            action = zero_action(layers[d], h_j)
            for k, w in enumerate(layers[d].weights):
                if action.get(k, {}) != ({k: w[j]} if w[j] else {}):
                    raise ValueError(
                        "h_%d does not act on basis vector %d of degree %d "
                        "by its label %d" % (j, k, d, w[j]))
    return None


def zero_action(layer: Layer, vec: Vec) -> dict:
    """The action of the degree-0 vector ``vec`` on ``layer``, column-sparse
    {src: [vec, src]} with the zero columns left out."""
    mat: dict = {}
    for a, c in vec.items():
        for src, img in layer.act0[a].items():
            col = vadd_into(mat.setdefault(src, {}), img, c)
            if not col:
                del mat[src]
    return mat


def _gated_datum(g_alg: GradedSuperalgebra, consequence: str) -> CartanData:
    """The Cartan datum of the local part ``g_alg`` extends, which must
    pass the gate (``_weyl_gate``); ``ValueError`` otherwise, saying why
    and "so ``consequence``" where the gate's reason does not."""
    local = g_alg.local
    failure = ("this model carries no Cartan datum, so %s" % consequence
               if local.data is None else _weyl_gate(local))
    if isinstance(failure, tuple):
        failure = ("degree 0 of this model holds no %s_%d, so %s: a strong "
                   "or restricted cartanification keeps in degree 0 only the "
                   "action of degree 0 on its degree -1 part"
                   % (*failure, consequence))
    if failure is not None:
        raise ValueError(failure)
    return local.data


def count_next_layer(g_alg: GradedSuperalgebra, side: int) -> int:
    """Dimension of the layer one step beyond the outermost stored layer on
    ``side`` (+1 or -1), counted and not built.

    The layer is a finite-dimensional module over the diagram's algebra
    (``_weyl_gate``, which must pass), so its weight multiplicities are
    invariant under the Weyl group: the dimension is the sum over dominant
    weights mu of mult(mu) |W mu|.  Only the candidates whose summed
    weight is dominant get T-values, and the quotient of the block of mu
    keeps mult(mu) of them, for the datum of the model's local part.  A
    missing datum or root vector, a weight that is not integral or a
    failed sl_2 bracket raises ``ValueError`` naming it.
    """
    k = max(side * d for d in g_alg.layers)
    data = _gated_datum(g_alg, "degree %d cannot be counted"
                        % (side * (k + 1)))
    cands, weight, values = _tensor_candidates(g_alg.layers, side, k)
    kept, _ = weight_block_quotient(
        (c for c in cands if min(weight(c)) >= 0), weight, values)
    return sum(data.orbit_size(w) for w, _, _ in kept)


# -- decomposition ----------------------------------------------------------


def decompose_module(weights: list, raisers: list, data) -> list[tuple]:
    """Decompose a finite g-module given its simple-raising matrices.

    ``weights``: Dynkin-label tuple per basis element; ``raisers``: one
    column-sparse matrix {src: {tgt: c}} per simple root of ``data``.
    Returns [(highest weight, multiplicity, dimension)] with the
    dimensions from the Weyl formula; their weighted sum must equal the
    module dimension (checked).
    """
    weights = [tuple(w) for w in weights]
    kept, _ = weight_block_quotient(
        range(len(weights)), weights.__getitem__,
        lambda src: {i: raiser[src] for i, raiser in enumerate(raisers)
                     if src in raiser})
    # highest-weight vectors of weight w: the raisers' kernel on its block
    mults: dict = {}
    for w in weights:
        mults[w] = mults.get(w, 0) + 1
    for w, _, _ in kept:
        mults[w] -= 1
    found = [(w, m, weyl_dimension(data, w)) for w, m in mults.items() if m]
    total = sum(m * d for _, m, d in found)
    if total != len(weights):
        raise ValueError(
            "decomposition mismatch: highest-weight content %d != dim %d"
            % (total, len(weights)))
    found.sort(key=lambda t: (t[2], t[0]))
    return found


def decompose_at_degree(g_alg: GradedSuperalgebra, d: int) -> list[tuple]:
    """Decompose the degree-d component under the degree-0 action of the
    algebra of the datum of the model's local part, which must pass
    ``_weyl_gate``: degree 0 holds every simple raising operator e_i."""
    data = _gated_datum(g_alg, "degree %d cannot be decomposed" % d)
    layer = g_alg.layer(d)
    raisers = [zero_action(layer, g_alg.zero_coords_of(("e", node)))
               for node in range(data.r)]
    return decompose_module(layer.weights, raisers, data)


# -- irreducible lowest-weight modules --------------------------------------


@dataclass
class ModuleRep:
    """A finite-dimensional g-module with explicit action matrices.

    ``act[i]`` is the column-sparse matrix {src: {tgt: c}} of the i-th
    basis element of g; weights are Dynkin labels per module basis
    element.  ``lowest`` indexes the generating vector, when one exists.
    """

    weights: list
    act: list
    lowest: int = 0

    @property
    def dim(self) -> int:
        return len(self.weights)

    def apply(self, i: int, vec: Vec) -> Vec:
        return mat_apply(self.act[i], vec)


def lowest_weight_module(g, lam: Sequence) -> ModuleRep:
    """The irreducible g-module generated by a lowest-weight vector.

    ``lam`` gives the Dynkin labels of -(lowest weight): the generator
    has weight -lam, is killed by all lowerings, and the module is
    R(-lam), of dimension weyl_dimension(lam).  Levels are built by
    raising; a candidate is zero in the irreducible module exactly when
    every single lowering kills it, so each level is the raising-candidate
    space modulo the kernel of the stacked lowering map.
    """
    data = g.data
    r = data.r
    lam_w = data.weight(lam)
    if not data.is_dominant_integral(lam_w):
        raise ValueError("labels %s are not dominant integral" % (list(lam),))

    weights: list[tuple] = [tuple(-x for x in lam_w)]
    # per simple node: raising/lowering as {src: {tgt: c}}
    raise_m: list[dict] = [dict() for _ in range(r)]
    lower_m: list[dict] = [dict() for _ in range(r)]

    def weight(cand: tuple) -> tuple:
        i, u = cand
        return wsum(weights[u], data.simple_labels[i])

    def values(cand: tuple) -> dict:
        """f_j (e_i u) for each node j, the zero ones left out."""
        i, u = cand
        vals = {}
        for j in range(r):
            # f_j (e_i u) = e_i (f_j u) + delta_ij (alpha_i^vee, w_u) u
            vec = mat_apply(raise_m[i], lower_m[j].get(u, {}))
            if i == j and weights[u][i]:
                vadd_into(vec, {u: -weights[u][i]})
            if vec:
                vals[j] = vec
        return vals

    level = [0]
    while level:
        kept, classes = weight_block_quotient(
            [(i, u) for u in level for i in range(r)], weight, values)
        base = len(weights)
        for (i, u), cls in classes.items():
            if cls:
                raise_m[i][u] = {base + t: c for t, c in cls.items()}
        for t, (w, _, vals) in enumerate(kept):
            weights.append(w)
            for j, vec in vals.items():
                lower_m[j][base + t] = vec
        level = range(base, len(weights))

    dim = len(weights)
    # assemble the action of every Chevalley basis element
    act: list[dict] = [dict() for _ in range(g.dim)]
    for i in range(r):
        hmat = {}
        for src in range(dim):
            c = weights[src][i]
            if c:
                hmat[src] = {src: c}
        act[g.index[("h", i)]] = hmat
    simple = {"e": raise_m, "f": lower_m}
    memo: dict = {}
    for k in range(len(g.pos_roots)):
        for kind in ("e", "f"):
            act[g.index[(kind, k)]] = root_action(g, simple, kind, k, memo)

    return ModuleRep(weights=weights, act=act, lowest=0)
