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

The T-values are built per u, not per (u, x, z).  The second term needs
[u, [z, x]], and [u, a] = -(-1)^{|u||a|} [a, u] for a at degree 0, so the
images [a, u] of the previous layer's degree-0 action are gathered once
per u, each with a flag: whether it enters T negated, which with the sign
(-1)^{|z||u|} depends only on |u|, |a| and |z|.  A term then adds the
image scaled by c or by -c, so a sign costs no multiplication.  Only the
z with [z, u] != 0 or [z, x] != 0 are visited, and zero T-values are not
stored.  The weight blocks are keyed by the summed weights, integer tuples
on Cartan data (every weight entry is in ``linalg``'s normal form); the
weight of a new basis element is brought to normal form only for the kept
candidates.

That quotient step -- candidates modulo the kernel of their T-values, one
weight block at a time -- is the one function ``weight_block_quotient``.
It also builds the irreducible module R(-lambda) level by level
(``lowest_weight_module``) and the degree -1 part of the cartanification
(``cartan.local_cartanification``).  The extension reads only the
``Layer`` tables; ``_local_layers`` turns the local brackets into them.

A zero layer stops the side: further layers are generated by bracketing
the zero layer with degree -+1, hence zero as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Sequence

from .linalg import (
    kernel_basis,
    mat_apply,
    qnorm,
    rref,
    stack_columns,
    vadd,
    vadd_into,
    vscale,
)
from .rootsys import root_action, weyl_dimension

__all__ = [
    "LocalSuperalgebra",
    "GradedSuperalgebra",
    "Layer",
    "ModuleRep",
    "check_local_axioms",
    "minimal_extension",
    "decompose_module",
    "decompose_at_degree",
    "lowest_weight_module",
]

# sparse coefficient vector: index -> value, in linalg's normal form (an
# ``int`` when integral, a ``Fraction`` otherwise; ``linalg.qnorm``), and
# divided only through ``linalg.qdiv``
Vec = dict


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
      elements when the degree-0 basis is synthetic (cartanifications).

    Construction brings every weight entry and table value to normal form.
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

    def __post_init__(self):
        self.neg_weights = [tuple(map(qnorm, w)) for w in self.neg_weights]
        self.zero_weights = [tuple(map(qnorm, w)) for w in self.zero_weights]
        self.pos_weights = [tuple(map(qnorm, w)) for w in self.pos_weights]
        _normalize([*self.b00.values(), *self.b0m.values(),
                    *self.b0p.values(), *self.bpm.values(),
                    *(self.embedding or {}).values(),
                    *(v for v in (self.pairing, self.grading)
                      if v is not None)])

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
        """[basis_a at degree da, basis_b at degree db]; |da + db| <= 1."""
        key = (da, db)
        if key == (0, 0):
            return dict(self.b00.get((a, b), {}))
        if key == (0, -1):
            return dict(self.b0m.get((a, b), {}))
        if key == (0, 1):
            return dict(self.b0p.get((a, b), {}))
        if key == (1, -1):
            return dict(self.bpm.get((a, b), {}))
        if da + db > 1 or da + db < -1:
            raise ValueError("bracket of degrees %d and %d leaves the slice"
                             % (da, db))
        sign = -1 if (self.parities_at(da)[a] and self.parities_at(db)[b]) \
            else 1
        return vscale(self.bracket(db, b, da, a), -sign)

    def bracket_vec(self, da: int, va: Vec, db: int, vb: Vec) -> Vec:
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
    degree-0 actions) and memoized per basis pair.
    """

    def __init__(self, local: LocalSuperalgebra, layers: dict[int, Layer]):
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

    def weight(self, d: int, i: int) -> tuple:
        return self.layers[d].weights[i]

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
        """Basis bracket, memoized; raises if the result degree is unstored."""
        d = da + db
        if d not in self.layers:
            raise ValueError("bracket lands at unstored degree %d" % d)
        key = (da, i, db, j)
        hit = self._memo.get(key)
        if hit is not None:
            return dict(hit)
        val = self._bb_raw(da, i, db, j)
        self._memo[key] = val
        return dict(val)

    def _bb_raw(self, da: int, i: int, db: int, j: int) -> Vec:
        if da == 0:
            return dict(self.layers[db].act0[i].get(j, {}))
        if db == 0 or da < 0 < db:
            return self._anti(da, i, db, j)

        # s is the sign of da; layer da is spanned by tensors [u, x_s]
        s = 1 if da > 0 else -1
        if db < 0 < da:
            if da == 1:
                return dict(self.layers[db].opp_map[i].get(j, {}))
            if db == -1:
                # positive layers store [x_{-1}, u] directly
                sign = -1 if (self.parity(da, i)
                              and self.parity(-1, j)) else 1
                return vscale(self.layers[da].opp_map[j].get(i, {}), -sign)
        else:
            if da == s:
                if db == s:
                    return dict(self.layers[2 * s].reduce[(i, j)])
                # [x_s, v_q] = -(-1)^{|x||v|} [v_q, x_s]
                sign = -1 if (self.parity(s, i)
                              and self.parity(db, j)) else 1
                return vscale(self.layers[db + s].reduce[(j, i)], -sign)
            if db == s:
                # [u, x_s] is the tensor definition of the next layer
                return dict(self.layers[da + s].reduce[(i, j)])
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
    """Wrap the three local degrees in the uniform Layer shape."""
    nneg, nzero, npos = local.nneg, local.nzero, local.npos

    act0_m = [dict() for _ in range(nzero)]
    act0_p = [dict() for _ in range(nzero)]
    for (a, x), vec in local.b0m.items():
        if vec:
            act0_m[a][x] = dict(vec)
    for (a, z), vec in local.b0p.items():
        if vec:
            act0_p[a][z] = dict(vec)
    act0_0 = [dict() for _ in range(nzero)]
    for (a, b), vec in local.b00.items():
        if vec:
            act0_0[a][b] = dict(vec)

    opp_m = [dict() for _ in range(npos)]   # [z, x] for x at degree -1
    for (z, x), vec in local.bpm.items():
        if vec:
            opp_m[z][x] = dict(vec)
    opp_p = [dict() for _ in range(nneg)]   # [x, z] for z at degree +1
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


def weight_block_quotient(cands: Iterable, weights: Iterable,
                          t_vals: Iterable) -> tuple[list, dict]:
    """Candidates modulo the kernel of their T-values, one weight block at
    a time.

    ``weights`` and ``t_vals`` run parallel to ``cands``: each candidate's
    weight, any hashable ordered key, and its T-values, one sparse vector
    per acting element, as a list or as a dict that may leave out the zero
    vectors.  Returns
    the kept ``(weight, candidate)`` pairs, the rref pivots of each weight
    block in sorted weight order, and the class of every candidate over
    them, ``{kept position: coefficient}``, read off the unique RREF, so a
    kept candidate's class is its unit vector.
    """
    blocks: dict = {}
    for cand, w, vals in zip(cands, weights, t_vals):
        blocks.setdefault(w, []).append((cand, vals))
    kept: list = []
    classes: dict = {}
    for w in sorted(blocks):
        blk = blocks[w]
        red, piv = rref(stack_columns([_flatten(v) for _, v in blk])[0])
        base = len(kept)
        kept.extend((w, blk[col][0]) for col in piv)
        for col, (cand, _) in enumerate(blk):
            classes[cand] = {base + r: red[r, col] for r in range(len(piv))
                             if red[r, col]}
    return kept, classes


def _extend_one(layers: dict[int, Layer], side: int, k: int) -> Layer:
    """Build the layer at degree side*(k+1) from the one at side*k."""
    prev = layers[side * k]
    unit = layers[side]         # degree +-1: [z, x] and [a, x] for its x
    acting = layers[-side]
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
    z_odd = acting.parities
    # the degree-0 a with [a, u] != 0, per u, and with [a, x] != 0, per x
    act_u = _by_source(prev.act0, prev.dim)
    act_x = _by_source(unit.act0, unit.dim)

    # at k = 1, [u, x] with u > x is a multiple of [x, u]: never a pivot
    cands = []
    t_vals: dict[tuple, dict] = {}
    for u in range(prev.dim):
        # [u, a] = -(-1)^{|u||a|} [a, u]; with the sign (-1)^{|z||u|} of
        # T the image enters negated unless |u| = 1 and |a| != |z|
        pu = prev.parities[u]
        images = [{}, {}]           # per parity of z: a -> (vec, negated)
        for a, vec in act_u[u]:
            pa = zero.parities[a]
            images[0][a] = (vec, not pu or not pa)
            images[1][a] = (vec, not pu or bool(pa))
        for x in range(u if k == 1 else 0, unit.dim):
            cand = (u, x)
            cands.append(cand)
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
            # (-1)^{|z||u|} [u, [z, x]]
            for z, vec in opp_x[x]:
                out = vals.get(z)
                if out is None:
                    out = vals[z] = {}
                imgs = images[z_odd[z]]
                for a, c in vec.items():
                    hit = imgs.get(a)
                    if hit:
                        vadd_into(out, hit[0], -c if hit[1] else c)
            t_vals[cand] = {z: vec for z, vec in vals.items() if vec}

    kept, reduce_map = weight_block_quotient(
        cands, (tuple(map(add, prev.weights[u], unit.weights[x]))
                for u, x in cands),
        (t_vals[cand] for cand in cands))
    if k == 1:
        for u in range(prev.dim):
            for x in range(u):
                vec = reduce_map[(x, u)]
                reduce_map[(u, x)] = dict(vec) if (
                    prev.parities[u] and unit.parities[x]) \
                    else {t: -c for t, c in vec.items()}
    new_deg = side * (k + 1)
    tensor_parent = [cand for _, cand in kept]
    layer = Layer(new_deg, [("w", new_deg, t) for t in range(len(kept))],
                  [wsum(prev.weights[u], unit.weights[x])
                   for u, x in tensor_parent],
                  [(prev.parities[u] + unit.parities[x]) % 2
                   for u, x in tensor_parent],
                  tensor_parent=tensor_parent, reduce=reduce_map)

    # opposite action on the new basis: the stored T-values of the pivots
    opp = [dict() for _ in range(acting.dim)]
    for idx, cand in enumerate(tensor_parent):
        for z, vec in t_vals[cand].items():
            opp[z][idx] = vec
    layer.opp_map = opp

    # degree-0 action: [a, [u,x]] = [[a,u],x] + (-1)^{|a||u|}[u,[a,x]]
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


def _flatten(vecs) -> dict:
    """The vectors of a list, or of a dict keyed by acting element, as one
    column keyed (list position or key, index)."""
    items = vecs.items() if isinstance(vecs, dict) else enumerate(vecs)
    return {(n, tgt): c for n, vec in items for tgt, c in vec.items()}


def minimal_extension(local: LocalSuperalgebra,
                      degree_range: tuple[int, int]) -> GradedSuperalgebra:
    """Minimal Z-graded extension of a local part over the given degrees."""
    d_min, d_max = degree_range
    if d_min > -1 or d_max < 1:
        raise ValueError("degree_range must contain [-1, 1]")
    layers = _local_layers(local)
    for side, stop in ((-1, -d_min), (1, d_max)):
        for k in range(1, stop):
            layers[side * (k + 1)] = _extend_one(layers, side, k)
    return GradedSuperalgebra(local, layers)


# -- decomposition ----------------------------------------------------------


def decompose_module(weights: list, raisers: list, data) -> list[tuple]:
    """Decompose a finite g-module given its simple-raising matrices.

    ``weights``: Dynkin-label tuple per basis element; ``raisers``: one
    column-sparse matrix {src: {tgt: c}} per simple root of ``data``.
    Returns [(highest weight, multiplicity, dimension)] with the
    dimensions from the Weyl formula; their weighted sum must equal the
    module dimension (checked).
    """
    blocks: dict[tuple, list[int]] = {}
    for idx, w in enumerate(weights):
        blocks.setdefault(tuple(w), []).append(idx)

    found = []
    for w in sorted(blocks):
        blk = blocks[w]
        mat, _ = stack_columns(
            [_flatten([raiser.get(src, {}) for raiser in raisers])
             for src in blk])
        mult = len(kernel_basis(mat))
        if mult:
            dim = weyl_dimension(data, w)
            found.append((w, mult, dim))
    total = sum(m * d for _, m, d in found)
    if total != len(weights):
        raise ValueError(
            "decomposition mismatch: highest-weight content %d != dim %d"
            % (total, len(weights)))
    found.sort(key=lambda t: (t[2], t[0]))
    return found


def decompose_at_degree(g_alg: GradedSuperalgebra, d: int,
                        data) -> list[tuple]:
    """Decompose the degree-d component under the degree-0 action of the
    diagram's algebra.

    ``data`` is the CartanData the stored weights refer to.  The simple
    raising operators are located in the degree-0 basis by their Chevalley
    names ("e", i) via the local embedding.
    """
    raisers = []
    for node in range(data.r):
        # simple raising operators are embedded under node-keyed names
        coords = g_alg.zero_coords_of(("e", node))
        if coords is None:
            raise ValueError(
                "raising operator for node %d not defined on the degree-0 "
                "part" % node)
        mat: dict = {}
        for a, c in coords.items():
            for src, vec in g_alg.layers[d].act0[a].items():
                vadd_into(mat.setdefault(src, {}), vec, c)
        raisers.append(mat)
    return decompose_module(g_alg.layer(d).weights, raisers, data)


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
    alpha = [data.labels_of_root([1 if j == i else 0 for j in range(r)])
             for i in range(r)]

    level = [0]
    while level:
        cands = [(i, u) for u in level for i in range(r)]
        t_vals: dict[tuple, list[Vec]] = {}
        for (i, u) in cands:
            vals = []
            for j in range(r):
                # f_j (e_i u) = e_i (f_j u) + delta_ij (alpha_i^vee, w_u) u
                vec = mat_apply(raise_m[i], lower_m[j].get(u, {}))
                if i == j and weights[u][i]:
                    vadd_into(vec, {u: -weights[u][i]})
                vals.append(vec)
            t_vals[(i, u)] = vals

        kept, classes = weight_block_quotient(
            cands, (wsum(weights[u], alpha[i]) for i, u in cands),
            (t_vals[cand] for cand in cands))
        base = len(weights)
        for (i, u), cls in classes.items():
            if cls:
                raise_m[i][u] = {base + t: c for t, c in cls.items()}
        for t, (w, cand) in enumerate(kept):
            weights.append(w)
            for j, vec in enumerate(t_vals[cand]):
                if vec:
                    lower_m[j][base + t] = vec
        level = list(range(base, len(weights)))

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
