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
actions, and relation instances are imposed as exact linear algebra,
each new consequence rewriting the newest cell involved into older ones.
Every instance is one of the presentation's relations whose letters are
all simple root vectors of g: its relations on the f0 family at the
seeds, and its relations among g's root vectors -- the commutators
[e_i, f_j] = delta_ij h_j and the Serre relations -- as operator
identities on every cell (the others name h_i, h0 or e0).  Rewrites
and table entries are kept fully reduced, so a normal form is one
substitution pass and an action is a sum of entries.  Each round
defines the actions on the frontier, the cells the round before made that
are still alive, and then drains in passes, as in vector enumeration
(Linton, 1993): a pass runs, in cell order, the group of every alive cell
that has joined a frontier and still has an instance not imposed, then
the waiting seed relations, then the transfers of entries off rewritten
cells.  A dead cell and a finished group stay so, so a pass visits only
the cells that were alive with an instance left after the pass before;
a round's first pass adds its frontier.  Every relation instance is
imposed once, in the first pass that can evaluate it; one waiting on a
missing entry is tried again in the next pass.  A waiting group keeps
the images of the words it has applied to its cell, so a later pass
computes only the images that were missing, each by one action on its
suffix's kept image; a kept image is the same element of the presented
module, perhaps naming cells rewritten since.
Entries are made only at the start of a round, so within a drain only a
rewrite can make a waiting instance evaluable, and the drain stops after
a pass that rewrites nothing.  An imposed instance's value can later
change only by images of span elements under the actions, and those
transfers impose them.  The fixpoint at each depth depends only on the
span of the imposed relations, not on their order.

When the frontier comes out empty every action is defined on every
surviving cell, and one certifying pass runs every cell's group and
every seed relation in full, from no kept image: each word is applied
to the cell itself.  If it imposes anything the drain missed a
deduction and ``ValueError`` names the instance.  After a clean pass the
span *is* the presented module: any module generated by the seeds in which the
seed relations hold is a quotient of it, and every rewrite performed
lies in the relation submodule, so nothing was collapsed beyond it.
That state is the stabilization certificate, and the enumeration stops
on it.  The only budget is the number of cells: the next cell past
``cell_cap`` is never created, and the result is then explicitly marked
inconclusive -- dimensions are reported, but nothing is certified.

What the paper proves about this module -- the structure theorem's
decomposition, the sharp assignment and the reflection automorphisms --
is checked by the test oracles in ``tests/structure.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graded import GradedSuperalgebra, Vec
from .graded import decompose_module
from .linalg import mat_apply, qdiv, vadd, vadd_into, vscale
# chevalley_realization stays bound here for tracers that wrap it by name.
from .rootsys import EXT, CartanData, chevalley_realization, jk_partition


# -- presentation ------------------------------------------------------------


@dataclass(frozen=True)
class GenInfo:
    """One generator: name tuple, consistent degree and parity."""

    name: tuple
    degree: int
    parity: int


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
    family: tuple          # indices of the f0 family (EXT first when present)


def presentation(data: CartanData, variant: str = "W") -> Presentation:
    """The full enumerated relation list for the given data and variant."""
    if variant not in ("W", "S"):
        raise ValueError("variant must be 'W' or 'S'")
    j_nodes, k_nodes = jk_partition(data)
    r = data.r
    family = (k_nodes if variant == "S"
              else (EXT,) + k_nodes)
    has_h0 = variant == "W"

    def e_name(i):
        return ("e0",) if i == EXT else ("e", i)

    def h_name(i):
        return ("h0",) if i == EXT else ("h", i)

    gens = [GenInfo((kind, i), 0, 0) for i in range(r)
            for kind in ("e", "f", "h")]
    gens.append(GenInfo(("e0",), 1, 1))
    if has_h0:
        gens.append(GenInfo(("h0",), 0, 0))
    gens += [GenInfo(("f0", i), -1, 1) for i in family]

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
                        relations=rels, family=family)


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
    """Cells, partial action tables and fully reduced rewrites.

    Every rewrite and every table entry names alive cells only: ``impose``
    substitutes each new rewrite into the vectors that name its pivot,
    found through ``users`` (cell -> {id: vector}).  ``done[c]`` is the
    bitmask of cell c's group instances already imposed, and ``images[c]``
    keeps the word images of an alive cell whose group still waits.
    ``orphans`` lists the (op, cell) entries that rewritten cells still
    hold, and ``alive_by_wt`` counts the alive cells of each weight.
    A vector that ``nf`` or ``act`` returns may be a rewrite or a table
    entry itself, which ``impose`` keeps reduced in place; callers only
    read it.
    """

    def __init__(self, data: CartanData, cell_cap: int):
        self.data = data
        self.cell_cap = cell_cap
        self.wt: list[tuple] = []
        self.done: list[int] = []
        self.alive_by_wt: dict[tuple, int] = {}
        self.ops = ([("e", i) for i in range(data.r)]
                    + [("f", i) for i in range(data.r)])
        self.tab: dict[tuple, dict[int, Vec]] = {op: {} for op in self.ops}
        self.rw: dict[int, Vec] = {}
        self.users: dict[int, dict] = {}
        self.images: dict[int, list] = {}
        self.orphans: list = []
        self.certifying = False

    def new_cell(self, weight: tuple) -> int:
        if len(self.wt) == self.cell_cap:
            raise _CellBudgetExhausted
        self.wt.append(weight)
        self.done.append(0)
        self.alive_by_wt[weight] = self.alive_by_wt.get(weight, 0) + 1
        return len(self.wt) - 1

    def alive(self, c: int) -> bool:
        return c not in self.rw

    def nf(self, vec: Vec) -> Vec:
        """One substitution pass; the result may be ``vec`` itself, or the
        rewrite of its one cell."""
        rw = self.rw
        if len(vec) == 1:
            (c, co), = vec.items()
            if c not in rw:
                return vec
            return rw[c] if co == 1 else vscale(rw[c], co)
        dead = [c for c in vec if c in rw]
        if not dead:
            return vec
        out = {c: co for c, co in vec.items() if c not in rw}
        for c in dead:
            vadd_into(out, rw[c], vec[c])
        return out

    def use(self, vec: Vec, cells) -> None:
        """Record that ``vec`` names each of ``cells``."""
        for c in cells:
            self.users.setdefault(c, {})[id(vec)] = vec

    def define(self, op: tuple, c: int) -> None:
        """Define op on cell c as a new cell of the shifted weight."""
        kind, i = op
        shift = self.data.simple_labels[i]
        sign = 1 if kind == "e" else -1
        ent = {self.new_cell(tuple(a + sign * b
                                   for a, b in zip(self.wt[c], shift))): 1}
        self.use(ent, ent)
        self.tab[op][c] = ent

    def act(self, op: tuple, vec: Vec) -> Vec | None:
        """op applied to vec, or None when an entry is missing; the image
        of one cell with coefficient 1 is its entry itself."""
        if not vec:
            return {}
        vec = self.nf(vec)
        table = self.tab[op]
        if len(vec) == 1:
            (c, co), = vec.items()
            ent = table.get(c)
            if ent is None or co == 1:
                return ent
            return vscale(ent, co)
        out: Vec = {}
        for c, co in vec.items():
            ent = table.get(c)
            if ent is None:
                return None
            vadd_into(out, ent, co)
        return out

    def word(self, ops: tuple, vec: Vec) -> Vec | None:
        for op in reversed(ops):
            vec = self.act(op, vec)
            if vec is None:
                return None
        return vec

    def impose(self, vec: Vec | None, instance: tuple) -> bool:
        """Assert vec == 0; rewrite its newest cell when it is not.

        In the certifying pass a nonzero normal form is an error: the
        drain missed the deduction ``instance`` names.
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
        for old in self.users.pop(piv, {}).values():
            co = old.pop(piv, None)
            if co is not None:
                vadd_into(old, new, co)
                self.use(old, new)
        self.rw[piv] = new
        self.use(new, new)
        self.images.pop(piv, None)
        self.alive_by_wt[self.wt[piv]] -= 1
        self.orphans += [(op, piv) for op in self.ops if piv in self.tab[op]]
        return True


_UNSET = object()    # a word of the plan not yet applied to the cell


def _word_plan(rels: list) -> tuple:
    """The words and instances of a cell's group, each distinct word once.

    ``rels`` are relations among g's simple root vectors, (ad x_1 ... ad
    x_n)(y) = sum c h_k.  Each holds on the module as an operator
    identity: expanded by [x, T] = xT - Tx its left side is a sum of coeff
    * word, and h_k acts on a cell of weight mu as mu_k.  An identity equal
    to one already planned or to its negation -- the (j, i) Serre relation
    of a commuting pair gives minus the (i, j) operator -- is planned once.

    Returns (steps, instances).  Word 0 is the cell itself; word w >= 1
    is ``steps[w]`` = (op, s), the letter op applied to word s, where
    s < w.  ``instances`` holds (rel, ((coeff, id), ...)) in the order the
    group imposes them: the commutators [e_i, f_j] first, then each pair's
    e and f Serre operators.
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

    seen: set = set()
    instances = []
    for rel in sorted(rels, key=lambda rel: (rel.tag != "chevalley-ef",
                                             rel.indices)):
        terms = {(rel.target,): 1}
        for op in reversed(rel.ops):
            expanded: dict = {}
            for word, c in terms.items():
                expanded[(op,) + word] = expanded.get((op,) + word, 0) + c
                expanded[word + (op,)] = expanded.get(word + (op,), 0) - c
            terms = {word: c for word, c in expanded.items() if c}
        words = tuple((c, word_id(word)) for word, c in terms.items())
        identity = frozenset(words + tuple((-c, h) for c, h in rel.rhs))
        if identity in seen:
            continue
        seen.update((identity, frozenset((-c, x) for c, x in identity)))
        instances.append((rel, words))
    return tuple(steps), tuple(instances)


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


def build_minus1(pres: Presentation, cell_cap: int = 6000) -> MinusOneModule:
    """Realize the degree -1 component of the presented algebra.

    Words of simple raising/lowering actions applied to the family seeds
    are enumerated breadth-first: a round applies every action to each
    frontier cell, then imposes the relation instances in passes until
    one rewrites nothing, each instance once (see the module docstring).
    An empty frontier means the tables are total; the result is "complete" only
    after the certifying pass then came out clean, and it raises
    ``ValueError`` naming any instance that pass imposes.  If a round
    would create a cell beyond ``cell_cap`` the run stops there,
    "inconclusive", never a guess, with at most ``cell_cap`` cells
    created.
    """
    data = pres.data
    if cell_cap < len(pres.family):
        raise ValueError("cell budget %d is smaller than the %d family seeds"
                         % (cell_cap, len(pres.family)))
    enum = _Enumeration(data, cell_cap)
    seeds = {("f0", i): enum.new_cell(data.lam) for i in pres.family}
    # the relations whose ops are all simple root vectors of g: on a family
    # member they are the seed relations, among g's root vectors they are
    # operator identities on every cell
    roots = set(enum.ops)
    ours = [rel for rel in pres.relations if roots.issuperset(rel.ops)]
    seed_rels = [rel for rel in ours if rel.target in seeds]
    plan = _word_plan([rel for rel in ours if rel.target in roots])
    history = []
    frontier = list(seeds.values())
    waiting = seed_rels
    cells: list = []    # earlier frontiers' cells whose group still waits
    depth_used = 0

    try:
        while frontier:
            depth_used += 1
            made = len(enum.wt)
            for c in frontier:
                for op in enum.ops:
                    enum.define(op, c)
            waiting, cells = _drain(enum, seeds, waiting, plan,
                                    cells + frontier)
            history.append({w: n for w, n in enum.alive_by_wt.items() if n})
            frontier = [c for c in range(made, len(enum.wt))
                        if enum.alive(c)]
    except _CellBudgetExhausted:
        pass

    alive = [c for c in range(len(enum.wt)) if enum.alive(c)]
    if frontier:
        status, reason = "inconclusive", "cell budget %d exhausted" % cell_cap
    else:
        _certify(enum, seeds, seed_rels, plan, alive)
        status = "complete"
        reason = "action tables total and every instance clean"
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
                          certificate=certificate)


def _drain(enum: _Enumeration, seeds: dict, seed_rels: list,
           plan: tuple, cells: range | list) -> list:
    """Impose instances in passes until a pass rewrites nothing: within a
    drain only a rewrite lets a waiting instance be evaluated.  ``cells``
    are the cells that have joined a frontier and may still wait, in cell
    order; a pass runs the group of each one that is alive and has an
    instance not imposed, then the waiting seed relations and entry
    transfers.  A cell whose group is done, or that is dead, stays so, so
    the next pass visits only the cells that were alive with an instance
    left after their run in this one, still testing ``alive`` at visit
    time.  Returns the seed relations still waiting and those cells of
    the last pass, for the next round's drain."""
    full = (1 << len(plan[1])) - 1
    while True:
        rewrites = len(enum.rw)
        waiting = []
        for c in cells:
            if enum.alive(c) and enum.done[c] != full:
                _cell_instances(enum, c, plan)
                if enum.done[c] != full and enum.alive(c):
                    waiting.append(c)
        cells = waiting
        seed_rels = _seed_instances(enum, seeds, seed_rels)
        _dead_entry_consequences(enum)
        if len(enum.rw) == rewrites:
            return seed_rels, cells


def _certify(enum: _Enumeration, seeds: dict, seed_rels: list,
             plan: tuple, alive: list) -> None:
    """One pass of every instance, every ``done`` mask cleared and no word
    image kept, so each word is applied to the cell itself; raises if it
    imposes anything, so the drain stops after that pass."""
    enum.certifying = True
    enum.done = [0] * len(enum.wt)
    enum.images.clear()
    _drain(enum, seeds, seed_rels, plan, alive)


def _seed_instances(enum: _Enumeration, seeds: dict,
                    seed_rels: list) -> list:
    """Impose each seed relation that can be evaluated; return the ones
    waiting on a missing entry."""
    waiting = []
    for rel in seed_rels:
        vec = enum.word(rel.ops, {seeds[rel.target]: 1})
        if vec is None:
            waiting.append(rel)
            continue
        for c, name in rel.rhs:
            vec = vadd(vec, {seeds[name]: 1}, -c)
        enum.impose(vec, (rel.tag, rel.indices))
    return waiting


def _cell_instances(enum: _Enumeration, c: int, plan: tuple) -> None:
    """Impose the plan's operator identities on cell c that are not
    imposed yet; one waiting on a missing entry is left for the next
    pass.  Each word of the plan is applied at most once per run, when an
    instance first needs it.  While the group waits, the cell keeps its
    word images in ``enum.images``: the next run reuses every one that
    was computed and retries only the missing ones, each by one action
    on its suffix's image.  A kept image may name cells rewritten since;
    ``act`` and ``impose`` bring it to normal form."""
    steps, instances = plan
    done = enum.done[c]
    unit = {c: 1}
    images = enum.images.pop(c, None)
    if images is None:
        images = [unit] + [_UNSET] * (len(steps) - 1)
    else:
        images = [_UNSET if vec is None else vec for vec in images]
    wt = enum.wt[c]
    for bit, (rel, terms) in enumerate(instances):
        if done >> bit & 1:
            continue
        acc: Vec = {}
        for coeff, w in terms:
            vec = images[w]
            if vec is _UNSET:
                vec = _word_image(enum, steps, images, w)
            if vec is None:
                break
            if vec:
                vadd_into(acc, vec, coeff)
        else:
            for coeff, (_, k) in rel.rhs:     # coeff * h_k on the cell
                if wt[k]:
                    vadd_into(acc, unit, -coeff * wt[k])
            enum.impose(acc, (rel.tag, c) + rel.indices)
            done |= 1 << bit
    enum.done[c] = done
    if done != (1 << len(instances)) - 1 and enum.alive(c):
        enum.images[c] = images


def _word_image(enum: _Enumeration, steps: tuple, images: list,
                w: int) -> Vec | None:
    """Word w applied to the group's cell, or None when a table entry is
    missing, stored as ``images[w]``; ``images`` holds every word
    computed so far, by id, kept from an earlier run or made in this one,
    and w is not among them.  A word whose suffix's image is zero is
    zero, with no action applied."""
    op, suffix = steps[w]
    vec = images[suffix]
    if vec is _UNSET:
        vec = _word_image(enum, steps, images, suffix)
    if vec:
        vec = enum.act(op, vec)
    images[w] = vec
    return vec


def _dead_entry_consequences(enum: _Enumeration) -> None:
    """Transfer the entries that rewritten cells still hold; one whose
    image under the rewrite needs a missing entry waits for the next
    pass."""
    pending, enum.orphans = enum.orphans, []
    for op, c in pending:
        target = enum.act(op, enum.rw[c])
        if target is None:
            enum.orphans.append((op, c))
        else:
            enum.impose(vadd(enum.tab[op].pop(c), target, -1),
                        ("dead entry", op, c))
