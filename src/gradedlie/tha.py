"""Tensor hierarchy presentations and the degree -1 module they define.

Cartan data (A, epsilon, lambda) splits the node set I into J = {j :
lambda_j != 0} and K = {k : lambda_k = 0}.  The presentation keeps the
Chevalley generators e_i, f_i, h_i of g together with the odd raising
generator e0 and its Cartan partner h0 from the extended diagram, and
replaces the odd lowering generator f0 by a family f0_i indexed by the
extension node (written -1) together with the nodes of K.  The S variant
drops h0 and the extension member f0_{-1} and every relation involving
them.

With B the extended matrix (extension row/column written with index -1),
the relations are, over all indices for which the named generators exist:

  chevalley-ef     [e_i, f_j] = delta_ij h_j
  chevalley-he     [h_i, e_j] = B_ij e_j
  chevalley-hf     [h_i, f_j] = -B_ij f_j
  e0-f0            [e0, f0_i] = h_i
  h-f0             [h_i, f0_j] = -B_{i,-1} f0_j
  serre-e          (ad e_i)^(1-B_ij) e_j = 0   (i != j, and the isotropic
                                                square [e0, e0] = 0)
  serre-f          (ad f_i)^(1-B_ij) f_j = 0   (i != j in I)
  f0-raise-lower   [e_k, [f_l, f0_i]] = delta_kl B_il f0_k   (k, l in K)
  f0-lower-j       (ad f_j)^(1-B_{j,-1}) f0_i = 0            (j in J)
  f0-raise-j       [e_j, f0_i] = 0                           (j in J)
  f0-raise-kk      [e_k, [e_k, f0_i]] = 0                    (k in K)
  f0-lower-kk      [f_k, [f_k, f0_i]] = 0                    (k in K)
  f0-raise-jk      [e_j, [e_k, f0_i]] = 0                    (j in J, k in K)

Every relation has the form (ad x_1 ... ad x_n)(y) = sum c * z with
generators x_1..x_n, y and z, and a ``Relation`` stores exactly that: the
word (x_1, ..., x_n), the generator y and the pairs (c, z).  A Serre
relation (ad e_i)^n e_j is the word (e_i,) * n applied to e_j.

No relation quadratic in the f0 family is imposed.  When K is empty the
family degenerates to the single extension member and the presentation
coincides with the contragredient one; the Presentation carries a flag
for that case.

The degree -1 component of the presented algebra is the module over g
generated by the family f0_i subject to the degree -1 relations above
(the h-f0 relations fix the weight of every family member to lambda).
``build_minus1`` realizes it by vector enumeration: cells name candidate
basis vectors, partial tables hold the simple raising and lowering
actions, and relation instances -- the presentation's own at the seeds,
the commutator axioms [e_i, f_j] = delta_ij h_j on every cell, and the
Serre operators of g as operator identities on every cell -- are imposed
as exact linear algebra, each new consequence rewriting the newest cell
involved into older ones.  Rewrites are kept fully reduced, so a normal
form is one substitution pass.  Deductions are driven by a queue, as in
Felsch-style coset enumeration (Havas, ISSAC 1991): a cell's instance
group records the cells whose table entries it looked up, and runs again
only when one of them is rewritten or gains an entry; the seed relations
and the transfer of entries off rewritten cells are re-imposed on every
pass until a pass changes nothing.  The fixpoint at each depth depends
only on the span of the imposed relations, not on their order.

When every action is defined on every surviving cell, one certifying
pass runs every seed relation and every cell's group; if it imposes
anything the queue missed a deduction and ``ValueError`` names the
instance.  After a clean pass the span *is* the presented module: any
module generated by the seeds in which the seed relations hold is a
quotient of it, and every rewrite performed lies in the relation
submodule, so nothing was collapsed beyond it.  That state is the
stabilization certificate, and the enumeration stops on it.  The only
budget is the number of cells: the next cell past ``cell_cap`` is never
created, and the result is then explicitly marked inconclusive --
dimensions are reported, but nothing is certified.

What the paper proves about this module -- the structure theorem's
decomposition, the sharp assignment and the reflection automorphisms --
is checked by the test oracles in ``tests/structure.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .graded import GradedSuperalgebra, Vec
from .graded import decompose_module
from .linalg import mat_apply, qdiv, vadd, vadd_into, vscale
# chevalley_realization stays bound here for tracers that wrap it by name.
from .rootsys import EXT, CartanData, chevalley_realization, jk_partition


# -- presentation ------------------------------------------------------------


@dataclass(frozen=True)
class GenInfo:
    """One generator: name tuple, consistent degree, parity, weight.

    The weight is the tuple of g Dynkin labels; ``h0`` is the eigenvalue
    of the extension Cartan generator.
    """

    name: tuple
    degree: int
    parity: int
    labels: tuple
    h0: int | Fraction


@dataclass(frozen=True)
class Relation:
    """[ops[0], [ops[1], ... [ops[-1], target]]] = sum of c * name.

    The left side is a word of generators applied to the generator
    ``target`` by the adjoint action; ``rhs`` holds (coefficient, name)
    pairs, empty for a relation whose right side is zero.
    """

    tag: str
    indices: tuple
    ops: tuple
    target: tuple
    rhs: tuple


@dataclass
class Presentation:
    """Generators and relations for one choice of Cartan data and variant."""

    data: CartanData
    variant: str
    generators: list
    relations: list
    j_nodes: tuple
    k_nodes: tuple
    family: tuple          # indices of the f0 family (EXT first when present)
    k_empty: bool


def presentation(data: CartanData, variant: str = "W") -> Presentation:
    """The full enumerated relation list for the given data and variant."""
    if variant not in ("W", "S"):
        raise ValueError("variant must be 'W' or 'S'")
    j_nodes, k_nodes = jk_partition(data)
    r = data.r
    family = (k_nodes if variant == "S"
              else (EXT,) + k_nodes)
    has_h0 = variant == "W"
    k_empty = not k_nodes

    def e_name(i):
        return ("e0",) if i == EXT else ("e", i)

    def h_name(i):
        return ("h0",) if i == EXT else ("h", i)

    zero = tuple(0 for _ in range(r))
    lam = tuple(int(x) for x in data.lam)
    gens: list[GenInfo] = []
    for i in range(r):
        col = tuple(data.a[t][i] for t in range(r))
        b = data.extended_entry(EXT, i)
        gens.append(GenInfo(("e", i), 0, 0, col, b))
        gens.append(GenInfo(("f", i), 0, 0, tuple(-c for c in col), -b))
        gens.append(GenInfo(("h", i), 0, 0, zero, 0))
    gens.append(GenInfo(("e0",), 1, 1, tuple(-l for l in lam), 0))
    if has_h0:
        gens.append(GenInfo(("h0",), 0, 0, zero, 0))
    for i in family:
        gens.append(GenInfo(("f0", i), -1, 1, lam, 0))

    h_range = ([EXT] if has_h0 else []) + list(range(r))
    e_range = [EXT] + list(range(r))
    rels: list[Relation] = []

    for i in e_range:
        for j in range(r):
            rhs = ((1, h_name(j)),) if i == j else ()
            rels.append(Relation("chevalley-ef", (i, j), (e_name(i),),
                                 ("f", j), rhs))
    for i in h_range:
        for j in e_range:
            b = data.extended_entry(i, j)
            rhs = ((b, e_name(j)),) if b else ()
            rels.append(Relation("chevalley-he", (i, j), (h_name(i),),
                                 e_name(j), rhs))
        for j in range(r):
            b = data.extended_entry(i, j)
            rhs = ((-b, ("f", j)),) if b else ()
            rels.append(Relation("chevalley-hf", (i, j), (h_name(i),),
                                 ("f", j), rhs))
    for i in family:
        rels.append(Relation("e0-f0", (i,), (("e0",),), ("f0", i),
                             ((1, h_name(i)),)))
    for i in h_range:
        for j in family:
            b = data.extended_entry(i, EXT)
            rhs = ((-b, ("f0", j)),) if b else ()
            rels.append(Relation("h-f0", (i, j), (h_name(i),), ("f0", j),
                                 rhs))
    for i in e_range:
        for j in e_range:
            if i == j and i != EXT:
                continue
            n = 1 - data.extended_entry(i, j)
            if n < 1 or n != int(n):
                continue
            rels.append(Relation("serre-e", (i, j), (e_name(i),) * int(n),
                                 e_name(j), ()))
    for i in range(r):
        for j in range(r):
            if i == j:
                continue
            n = 1 - data.a[i][j]
            rels.append(Relation("serre-f", (i, j), (("f", i),) * n,
                                 ("f", j), ()))
    for k in k_nodes:
        for l in k_nodes:
            for i in family:
                rhs = ()
                if k == l:
                    b = data.extended_entry(i, l)
                    if b:
                        rhs = ((b, ("f0", k)),)
                rels.append(Relation("f0-raise-lower", (k, l, i),
                                     (("e", k), ("f", l)), ("f0", i), rhs))
    for j in j_nodes:
        for i in family:
            n = int(1 - data.extended_entry(j, EXT))
            rels.append(Relation("f0-lower-j", (j, i), (("f", j),) * n,
                                 ("f0", i), ()))
            rels.append(Relation("f0-raise-j", (j, i), (("e", j),),
                                 ("f0", i), ()))
    for k in k_nodes:
        for i in family:
            rels.append(Relation("f0-raise-kk", (k, i), (("e", k),) * 2,
                                 ("f0", i), ()))
            rels.append(Relation("f0-lower-kk", (k, i), (("f", k),) * 2,
                                 ("f0", i), ()))
    for j in j_nodes:
        for k in k_nodes:
            for i in family:
                rels.append(Relation("f0-raise-jk", (j, k, i),
                                     (("e", j), ("e", k)), ("f0", i), ()))

    return Presentation(data=data, variant=variant, generators=gens,
                        relations=rels, j_nodes=j_nodes, k_nodes=k_nodes,
                        family=family, k_empty=k_empty)


# -- relation checking in a realized target ----------------------------------


def check_relations(pres: Presentation, target: GradedSuperalgebra,
                    assignment: dict) -> dict:
    """Evaluate every relation under the assignment; list violations.

    ``assignment`` maps every generator name to a (degree, vec) element
    of the graded algebra ``target``; a nonzero element must sit at its
    generator's degree.  A relation's word is applied to its target one
    bracket at a time, innermost first, and a relation whose evaluation
    reaches a degree the target does not store is counted as skipped.
    The report groups the outcome per relation tag.
    """
    for g in pres.generators:
        if g.name not in assignment:
            raise ValueError("generator %s is not assigned" % (g.name,))
        degree, vec = assignment[g.name]
        if vec and degree != g.degree:
            raise ValueError("generator %s is assigned at degree %d, "
                             "expected %d" % (g.name, degree, g.degree))
    groups: dict[str, dict] = {}
    for rel in pres.relations:
        grp = groups.setdefault(rel.tag, {"name": rel.tag, "instances": 0,
                                          "skipped": 0, "violations": []})
        grp["instances"] += 1
        value = assignment[rel.target]
        for op in reversed(rel.ops):
            x = assignment[op]
            if x[0] + value[0] not in target.layers:
                grp["skipped"] += 1
                break
            value = target.bracket(x, value)
        else:
            residual = value[1]
            for c, name in rel.rhs:
                residual = vadd(residual, assignment[name][1], -c)
            if residual:
                grp["violations"].append(
                    {"indices": rel.indices, "residual": residual})
    checks = list(groups.values())
    for grp in checks:
        grp["passed"] = not grp["violations"]
    return {"passed": all(c["passed"] for c in checks), "checks": checks}


# -- the degree -1 module by vector enumeration ------------------------------


class _CellBudgetExhausted(Exception):
    """The enumeration needs a cell beyond its budget."""


class _Enumeration:
    """Cells, partial action tables, fully reduced rewrites, and the queue
    of instance groups that a new deduction can affect.

    Every rewrite names alive cells only: ``impose`` substitutes each new
    rewrite into the older ones that name its pivot, found through
    ``users``.  ``readers`` maps a cell to the cells whose instance group
    looked its table entries up; ``touch`` puts them back on ``queue``.
    """

    def __init__(self, data: CartanData, cell_cap: int):
        self.data = data
        self.r = data.r
        self.cell_cap = cell_cap
        # labels of alpha_j as an integer tuple (column j of A)
        self.alpha = [tuple(data.a[t][j] for t in range(data.r))
                      for j in range(data.r)]
        self.wt: list[tuple] = []
        self.ops = ([("e", i) for i in range(data.r)]
                    + [("f", i) for i in range(data.r)])
        self.tab: dict[tuple, dict[int, Vec]] = {op: {} for op in self.ops}
        self.rw: dict[int, Vec] = {}
        self.users: dict[int, set] = {}
        self.readers: dict[int, set] = {}
        self.queue: set = set()
        self.running: int | None = None   # cell whose group is running
        self.reads: set | None = None     # cells that group looked up
        self.certifying = False
        self.changed = False

    def new_cell(self, weight: tuple) -> int:
        if len(self.wt) == self.cell_cap:
            raise _CellBudgetExhausted
        self.wt.append(weight)
        cell = len(self.wt) - 1
        self.queue.add(cell)
        return cell

    def alive(self, c: int) -> bool:
        return c not in self.rw

    def nf(self, vec: Vec) -> Vec:
        """One substitution pass; the result may be ``vec`` itself."""
        rw = self.rw
        dead = [c for c in vec if c in rw]
        if not dead:
            return vec
        out = {c: co for c, co in vec.items() if c not in rw}
        for c in dead:
            vadd_into(out, rw[c], vec[c])
        return out

    def touch(self, c: int) -> None:
        """Queue the groups that looked cell c up: it died or gained an
        entry."""
        group = self.readers.pop(c, None)
        if group:
            self.queue.update(group)
        if self.reads is not None and c in self.reads:
            self.queue.add(self.running)

    def act(self, op: tuple, vec: Vec, create: bool) -> Vec | None:
        if not vec:
            return {}
        vec = self.nf(vec)
        if self.reads is not None:
            self.reads.update(vec)
        table = self.tab[op]
        out: Vec = {}
        for c, co in vec.items():
            ent = table.get(c)
            if ent is None:
                if not create:
                    return None
                kind, i = op
                shift = self.alpha[i]
                sign = 1 if kind == "e" else -1
                w2 = tuple(a + sign * b for a, b in zip(self.wt[c], shift))
                ent = {self.new_cell(w2): 1}
                table[c] = ent
                self.touch(c)
            vadd_into(out, ent, co)
        return self.nf(out)

    def word(self, ops: tuple, vec: Vec, create: bool) -> Vec | None:
        for op in reversed(ops):
            vec = self.act(op, vec, create)
            if vec is None:
                return None
        return vec

    def impose(self, vec: Vec | None, instance: tuple) -> bool:
        """Assert vec == 0; rewrite its newest cell when it is not.

        In the certifying pass a nonzero normal form is an error: the
        queue missed the deduction ``instance`` names.
        """
        if vec is None:
            return False
        vec = self.nf(vec)
        if not vec:
            return False
        if self.certifying:
            raise ValueError("certifying pass imposed a new relation: "
                             "instance %s" % (instance,))
        piv = max(vec)
        new = vscale(vec, -qdiv(1, vec[piv]))
        del new[piv]
        users = self.users
        for y in users.pop(piv, ()):
            old = self.rw[y]
            co = old.pop(piv, None)
            if co is None:
                continue
            vadd_into(old, new, co)
            for c in new:
                users.setdefault(c, set()).add(y)
        self.rw[piv] = new
        for c in new:
            users.setdefault(c, set()).add(piv)
        self.changed = True
        self.touch(piv)
        return True


def _serre_instances(data: CartanData) -> list:
    """(kind, i, j, terms) with terms = [(coeff, a, b)]: X_i^a X_j X_i^b.

    A pair with a_ij = 0 appears once, as i < j: its (j, i) operator is
    the negation of the (i, j) one on the same words.
    """
    out = []
    for i in range(data.r):
        for j in range(data.r):
            if i == j or (i > j and data.a[i][j] == 0):
                continue
            n = 1 - data.a[i][j]
            terms = [((-1) ** t * comb(n, t), n - t, t)
                     for t in range(n + 1)]
            out.append(("e", i, j, terms))
            out.append(("f", i, j, terms))
    return out


_UNSET = object()    # a word of the plan not yet applied to the cell


def _word_plan(r: int, serres: list) -> tuple:
    """The words of a cell's instance group, each distinct word once.

    Returns (steps, commutators, serres).  Word 0 is the cell itself;
    word w >= 1 is ``steps[w]`` = (op, s), the letter op applied to word
    s, where s < w.  ``commutators`` holds (i, j, id of e_i f_j, id of
    f_j e_i) and ``serres`` (tag, i, j, ((coeff, id), ...)), in the order
    the group imposes them.
    """
    ids: dict = {}
    steps: list = [None]

    def word_id(word: tuple) -> int:
        w = 0
        for op in reversed(word):
            step = (op, w)
            if step not in ids:
                ids[step] = len(steps)
                steps.append(step)
            w = ids[step]
        return w

    commutators = tuple(
        (i, j, word_id((("e", i), ("f", j))), word_id((("f", j), ("e", i))))
        for i in range(r) for j in range(r))
    groups = tuple(
        ("serre-" + kind, i, j,
         tuple((coeff, word_id(((kind, i),) * left + ((kind, j),)
                                + ((kind, i),) * right))
               for coeff, left, right in terms))
        for kind, i, j, terms in serres)
    return tuple(steps), commutators, groups


@dataclass
class MinusOneModule:
    """The realized degree -1 component, as a module over g.

    ``weights`` lists the Dynkin labels per basis vector; ``e_act`` and
    ``f_act`` hold one column-sparse matrix {src: {tgt: c}} per node.
    ``seed_vecs`` locates the family members; ``status`` is "complete"
    or "inconclusive" and ``certificate`` records the enumeration run.
    """

    data: CartanData
    variant: str
    status: str
    weights: list
    e_act: list
    f_act: list
    seed_vecs: dict
    k_nodes: tuple
    certificate: dict

    @property
    def dim(self) -> int:
        return len(self.weights)

    def dims(self) -> dict:
        out: dict = {}
        for w in self.weights:
            out[w] = out.get(w, 0) + 1
        return out

    def require_complete(self) -> None:
        if self.status != "complete":
            raise ValueError("the enumeration did not stabilize within the "
                             "cell budget; nothing is certified")

    def decompose(self) -> list:
        self.require_complete()
        return decompose_module(self.weights, self.e_act, self.data)

    def apply(self, kind: str, i: int, vec: Vec) -> Vec:
        return mat_apply((self.e_act if kind == "e" else self.f_act)[i], vec)


# the relations among the family seeds: every one is a word of simple
# raisings and lowerings applied to a seed, equal to a sum of seeds
_MODULE_TAGS = frozenset({"f0-raise-lower", "f0-lower-j", "f0-raise-j",
                          "f0-raise-kk", "f0-lower-kk", "f0-raise-jk"})


def build_minus1(pres: Presentation, cell_cap: int = 6000) -> MinusOneModule:
    """Realize the degree -1 component of the presented algebra.

    Words of simple raising/lowering actions applied to the family seeds
    are enumerated breadth-first, one letter longer per round.  After each
    round the deduction queue is drained: the instance group of a cell
    runs again only when a cell it looked up was rewritten or gained a
    table entry, and the seed relations and the transfer of entries off
    rewritten cells are re-imposed on every pass until nothing changes.
    When the tables are total, one certifying pass runs every seed
    relation and every alive cell's group; if it imposes anything it
    raises ``ValueError`` naming the instance.  The result is marked
    "complete" only after that pass came out clean.  If a round would
    create a cell beyond ``cell_cap`` the run stops there, "inconclusive",
    never a guess, with at most ``cell_cap`` cells created.
    """
    data = pres.data
    if cell_cap < len(pres.family):
        raise ValueError("cell budget %d is smaller than the %d family seeds"
                         % (cell_cap, len(pres.family)))
    enum = _Enumeration(data, cell_cap)
    lam = tuple(int(x) for x in data.lam)
    seeds = {("f0", i): enum.new_cell(lam) for i in pres.family}
    seed_rels = [rel for rel in pres.relations if rel.tag in _MODULE_TAGS]
    plan = _word_plan(data.r, _serre_instances(data))
    history = []
    status = "inconclusive"
    reason = "cell budget %d exhausted" % cell_cap
    depth_used = 0

    try:
        while True:
            depth_used += 1
            # the range is fixed here: this round's new cells wait for the next
            for c in range(len(enum.wt)):
                if enum.alive(c):
                    for op in enum.ops:
                        if c not in enum.tab[op]:
                            enum.act(op, {c: 1}, True)
            _drain(enum, seeds, seed_rels, plan)
            dims: dict = {}
            for c in range(len(enum.wt)):
                if enum.alive(c):
                    dims[enum.wt[c]] = dims.get(enum.wt[c], 0) + 1
            history.append(dims)
            if _tables_total(enum):
                _certify(enum, seeds, seed_rels, plan)
                status = "complete"
                reason = "action tables total and every instance clean"
                break
    except _CellBudgetExhausted:
        pass

    alive = [c for c in range(len(enum.wt)) if enum.alive(c)]
    index = {c: t for t, c in enumerate(alive)}

    def compact(vec: Vec) -> Vec:
        return {index[c]: v for c, v in enum.nf(vec).items()}

    e_act = [dict() for _ in range(data.r)]
    f_act = [dict() for _ in range(data.r)]
    for (kind, i), table in enum.tab.items():
        mats = e_act if kind == "e" else f_act
        for c, vec in table.items():
            if not enum.alive(c):
                continue
            img = compact(vec)
            if img:
                mats[i][index[c]] = img
    seed_vecs = {name: compact({cell: 1}) for name, cell in seeds.items()}
    certificate = {"complete": status == "complete", "reason": reason,
                   "cell_cap": cell_cap, "depth_used": depth_used,
                   "cells_created": len(enum.wt),
                   "dims_by_depth": history}
    return MinusOneModule(data=data, variant=pres.variant, status=status,
                          weights=[enum.wt[c] for c in alive],
                          e_act=e_act, f_act=f_act, seed_vecs=seed_vecs,
                          k_nodes=pres.k_nodes, certificate=certificate)


def _drain(enum: _Enumeration, seeds: dict, seed_rels: list,
           plan: tuple) -> None:
    """Run queued instance groups, then the seed relations and the dead
    entries, until a pass of the latter two imposes nothing (only an
    imposition queues a group, so the queue is then empty)."""
    while True:
        while enum.queue:
            batch = sorted(enum.queue)
            enum.queue.clear()
            for c in batch:
                if enum.alive(c):
                    _cell_instances(enum, c, plan)
        enum.changed = False
        _seed_instances(enum, seeds, seed_rels)
        _dead_entry_consequences(enum)
        if not enum.changed:
            return


def _certify(enum: _Enumeration, seeds: dict, seed_rels: list,
             plan: tuple) -> None:
    """One full pass of every instance; raises if it imposes anything."""
    enum.certifying = True
    _seed_instances(enum, seeds, seed_rels)
    for c in range(len(enum.wt)):
        if enum.alive(c):
            _cell_instances(enum, c, plan)
    _dead_entry_consequences(enum)


def _seed_instances(enum: _Enumeration, seeds: dict,
                    seed_rels: list) -> None:
    for rel in seed_rels:
        vec = enum.word(rel.ops, {seeds[rel.target]: 1}, False)
        if vec is None:
            continue
        for c, name in rel.rhs:
            vec = vadd(vec, {seeds[name]: 1}, -c)
        enum.impose(vec, (rel.tag, rel.indices))


def _cell_instances(enum: _Enumeration, c: int, plan: tuple) -> None:
    """Impose the commutator axioms [e_i, f_j] = delta_ij h_j and the
    Serre operators on cell c, recording the cells the group looked up
    as its reads.  Each word of the plan is applied to c at most once,
    when an instance first needs it."""
    enum.running, enum.reads = c, set()
    unit = {c: 1}
    steps, commutators, serres = plan
    images = [unit] + [_UNSET] * (len(steps) - 1)
    wt = enum.wt[c]
    for i, j, ef, fe in commutators:
        a = _word_image(enum, steps, images, ef)
        if a is None:
            continue
        b = _word_image(enum, steps, images, fe)
        if b is None:
            continue
        res = vadd(a, b, -1)
        if i == j and wt[i]:
            vadd_into(res, unit, -wt[i])
        enum.impose(res, ("commutator", c, i, j))
    for tag, i, j, terms in serres:
        acc: Vec = {}
        for coeff, w in terms:
            vec = _word_image(enum, steps, images, w)
            if vec is None:
                break
            vadd_into(acc, vec, coeff)
        else:
            enum.impose(acc, (tag, c, i, j))
    readers = enum.readers
    for x in enum.reads:
        readers.setdefault(x, set()).add(c)
    enum.running = enum.reads = None


def _word_image(enum: _Enumeration, steps: tuple, images: list,
                w: int) -> Vec | None:
    """Word w applied to the group's cell, or None when a table entry is
    missing; ``images`` holds every word computed so far, by id."""
    vec = images[w]
    if vec is _UNSET:
        op, suffix = steps[w]
        vec = _word_image(enum, steps, images, suffix)
        if vec is not None:
            vec = enum.act(op, vec, False)
        images[w] = vec
    return vec


def _dead_entry_consequences(enum: _Enumeration) -> None:
    """Transfer action knowledge recorded on cells that were rewritten."""
    for op, table in enum.tab.items():
        for c in list(table):
            if enum.alive(c):
                continue
            target = enum.act(op, enum.rw[c], False)
            if target is None:
                continue
            enum.impose(vadd(enum.nf(table.pop(c)), target, -1),
                        ("dead entry", op, c))


def _tables_total(enum: _Enumeration) -> bool:
    for c in range(len(enum.wt)):
        if not enum.alive(c):
            continue
        for op in enum.ops:
            if enum.tab[op].get(c) is None:
                return False
    return True
