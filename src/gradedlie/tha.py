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

The sharp assignment sends h_k to -f0_k and a root vector e_alpha of the
subalgebra generated by the K-nodes to [e_alpha, f0_{mu vee}]/(mu, alpha)
for any weight mu with (mu, alpha) nonzero; the choice of mu drops out,
which is checked, not assumed.  Reflection automorphisms are realized as
exp(ad f_k) exp(-ad e_k) exp(ad f_k) with a hard iteration bound so that
a non-nilpotent action surfaces as an error instead of a hang.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .graded import GradedSuperalgebra, Vec
from .graded import decompose_module
from .linalg import RatMatrix, mat_apply, solve, vadd, vadd_into, vscale
from .rootsys import (CartanData, ChevalleyAlgebra, chevalley_realization,
                      highest_roots, jk_partition, root_action,
                      weyl_dimension)

_ZERO = Fraction(0)
_ONE = Fraction(1)

EXT = -1  # index of the extension node in family and matrix positions


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
    h0: Fraction


@dataclass(frozen=True)
class Relation:
    """lhs = rhs, both sides sums of nested brackets of generators.

    Terms are (coefficient, tree) pairs; a tree is a generator name or a
    pair (tree, tree) meaning the bracket of its parts.  Names are tuples
    starting with a string, bracket nodes are pairs of tuples, so the two
    shapes never collide.
    """

    tag: str
    indices: tuple
    lhs: tuple
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

    def generator(self, name: tuple) -> GenInfo:
        for g in self.generators:
            if g.name == name:
                return g
        raise KeyError(name)

    def relations_tagged(self, tag: str) -> list:
        return [rel for rel in self.relations if rel.tag == tag]

    @property
    def tags(self) -> tuple:
        out = []
        for rel in self.relations:
            if rel.tag not in out:
                out.append(rel.tag)
        return tuple(out)


def _nest(actor, tree, n: int):
    for _ in range(n):
        tree = (actor, tree)
    return tree


def extended_entry(data: CartanData, i: int, j: int) -> Fraction:
    """Entry of the extended matrix; EXT = -1 addresses the new row/column."""
    if i == EXT and j == EXT:
        return _ZERO
    if i == EXT:
        return -Fraction(data.lam[j]) / data.epsilon[j]
    if j == EXT:
        return -Fraction(data.lam[i])
    return Fraction(data.a[i][j])


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
        wedge = Fraction(data.lam[i]) / data.epsilon[i]
        gens.append(GenInfo(("e", i), 0, 0, col, -wedge))
        gens.append(GenInfo(("f", i), 0, 0, tuple(-c for c in col), wedge))
        gens.append(GenInfo(("h", i), 0, 0, zero, _ZERO))
    gens.append(GenInfo(("e0",), 1, 1, tuple(-l for l in lam), _ZERO))
    if has_h0:
        gens.append(GenInfo(("h0",), 0, 0, zero, _ZERO))
    for i in family:
        gens.append(GenInfo(("f0", i), -1, 1, lam, _ZERO))

    h_range = ([EXT] if has_h0 else []) + list(range(r))
    e_range = [EXT] + list(range(r))
    rels: list[Relation] = []

    for i in e_range:
        for j in range(r):
            rhs = ((_ONE, h_name(j)),) if i == j else ()
            rels.append(Relation("chevalley-ef", (i, j),
                                 ((_ONE, (e_name(i), ("f", j))),), rhs))
    for i in h_range:
        for j in e_range:
            b = extended_entry(data, i, j)
            rhs = ((b, e_name(j)),) if b else ()
            rels.append(Relation("chevalley-he", (i, j),
                                 ((_ONE, (h_name(i), e_name(j))),), rhs))
        for j in range(r):
            b = extended_entry(data, i, j)
            rhs = ((-b, ("f", j)),) if b else ()
            rels.append(Relation("chevalley-hf", (i, j),
                                 ((_ONE, (h_name(i), ("f", j))),), rhs))
    for i in family:
        rels.append(Relation("e0-f0", (i,),
                             ((_ONE, (("e0",), ("f0", i))),),
                             ((_ONE, h_name(i)),)))
    for i in h_range:
        for j in family:
            b = extended_entry(data, i, EXT)
            rhs = ((-b, ("f0", j)),) if b else ()
            rels.append(Relation("h-f0", (i, j),
                                 ((_ONE, (h_name(i), ("f0", j))),), rhs))
    for i in e_range:
        for j in e_range:
            if i == j and i != EXT:
                continue
            n = 1 - extended_entry(data, i, j)
            if n < 1 or n != int(n):
                continue
            rels.append(Relation("serre-e", (i, j),
                                 ((_ONE, _nest(e_name(i), e_name(j), int(n))),),
                                 ()))
    for i in range(r):
        for j in range(r):
            if i == j:
                continue
            n = 1 - data.a[i][j]
            rels.append(Relation("serre-f", (i, j),
                                 ((_ONE, _nest(("f", i), ("f", j), n)),), ()))
    for k in k_nodes:
        for l in k_nodes:
            for i in family:
                rhs = ()
                if k == l:
                    b = extended_entry(data, i, l)
                    if b:
                        rhs = ((b, ("f0", k)),)
                rels.append(Relation("f0-raise-lower", (k, l, i),
                                     ((_ONE, (("e", k),
                                              (("f", l), ("f0", i)))),), rhs))
    for j in j_nodes:
        for i in family:
            n = int(1 - extended_entry(data, j, EXT))
            rels.append(Relation("f0-lower-j", (j, i),
                                 ((_ONE, _nest(("f", j), ("f0", i), n)),), ()))
            rels.append(Relation("f0-raise-j", (j, i),
                                 ((_ONE, (("e", j), ("f0", i))),), ()))
    for k in k_nodes:
        for i in family:
            rels.append(Relation("f0-raise-kk", (k, i),
                                 ((_ONE, (("e", k),
                                          (("e", k), ("f0", i)))),), ()))
            rels.append(Relation("f0-lower-kk", (k, i),
                                 ((_ONE, (("f", k),
                                          (("f", k), ("f0", i)))),), ()))
    for j in j_nodes:
        for k in k_nodes:
            for i in family:
                rels.append(Relation("f0-raise-jk", (j, k, i),
                                     ((_ONE, (("e", j),
                                              (("e", k), ("f0", i)))),), ()))

    return Presentation(data=data, variant=variant, generators=gens,
                        relations=rels, j_nodes=j_nodes, k_nodes=k_nodes,
                        family=family, k_empty=k_empty)


def is_simply_laced(data: CartanData) -> bool:
    for i in range(data.r):
        for j in range(data.r):
            if i != j and data.a[i][j] not in (0, -1):
                return False
            if i != j and data.a[i][j] != data.a[j][i]:
                return False
    return True


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
    rels = [rel for rel in pres.relations if rel.tag not in dropped]
    return Presentation(data=pres.data, variant=pres.variant,
                        generators=list(pres.generators), relations=rels,
                        j_nodes=pres.j_nodes, k_nodes=pres.k_nodes,
                        family=pres.family, k_empty=pres.k_empty)


# -- relation checking in a realized target ----------------------------------


def _is_name(tree) -> bool:
    return isinstance(tree, tuple) and bool(tree) and isinstance(tree[0], str)


def _target_bracket(target, a, b):
    """Bracket of (degree, vec) pairs, or None when the degree is absent."""
    da, va = a
    db, vb = b
    if isinstance(target, GradedSuperalgebra):
        if da + db not in target.layers:
            return None
        return target.bracket((da, va), (db, vb))
    if abs(da + db) > 1:
        return None
    return da + db, target.bracket_vec(da, va, db, vb)


def _eval_tree(target, assignment, tree):
    if _is_name(tree):
        return assignment[tree]
    a = _eval_tree(target, assignment, tree[0])
    b = _eval_tree(target, assignment, tree[1])
    if a is None or b is None:
        return None
    return _target_bracket(target, a, b)


def _eval_terms(target, assignment, terms, degree):
    vec: Vec = {}
    for coeff, tree in terms:
        val = _eval_tree(target, assignment, tree)
        if val is None:
            return None
        d, v = val
        if v and d != degree:
            raise ValueError("term lands at degree %d, expected %d"
                             % (d, degree))
        vadd_into(vec, v, coeff)
    return vec


def _tree_degree(pres, tree) -> int:
    if _is_name(tree):
        return pres.generator(tree).degree
    return _tree_degree(pres, tree[0]) + _tree_degree(pres, tree[1])


def check_relations(pres: Presentation, target, assignment: dict) -> dict:
    """Evaluate every relation under the assignment; list violations.

    ``assignment`` maps generator names to (degree, vec) elements of the
    target (a LocalSuperalgebra or a GradedSuperalgebra).  Relations whose
    evaluation leaves the degrees the target carries are counted as
    skipped.  The report groups the outcome per relation tag.
    """
    for g in pres.generators:
        if g.name not in assignment:
            raise ValueError("generator %s is not assigned" % (g.name,))
    groups: dict[str, dict] = {}
    for rel in pres.relations:
        grp = groups.setdefault(rel.tag, {"name": rel.tag, "instances": 0,
                                          "skipped": 0, "violations": []})
        grp["instances"] += 1
        degree = _tree_degree(pres, rel.lhs[0][1])
        lhs = _eval_terms(target, assignment, rel.lhs, degree)
        rhs = _eval_terms(target, assignment, rel.rhs, degree)
        if lhs is None or rhs is None:
            grp["skipped"] += 1
            continue
        residual = vadd(lhs, rhs, -_ONE)
        if residual:
            grp["violations"].append(
                {"indices": rel.indices, "residual": residual})
    checks = []
    for tag in [r.tag for r in pres.relations]:
        if tag in groups:
            grp = groups.pop(tag)
            grp["passed"] = not grp["violations"]
            checks.append(grp)
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
                ent = {self.new_cell(w2): _ONE}
                table[c] = ent
                self.touch(c)
            vadd_into(out, ent, co)
        return self.nf(out)

    def word(self, ops: list, vec: Vec, create: bool) -> Vec | None:
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
        inv = -_ONE / vec[piv]
        new = {c: co * inv for c, co in vec.items() if c != piv}
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
    """(kind, i, j, terms) with terms = [(coeff, a, b)]: X_i^a X_j X_i^b."""
    out = []
    for i in range(data.r):
        for j in range(data.r):
            if i == j:
                continue
            n = 1 - data.a[i][j]
            terms = [(Fraction((-1) ** t * comb(n, t)), n - t, t)
                     for t in range(n + 1)]
            out.append(("e", i, j, terms))
            out.append(("f", i, j, terms))
    return out


def _seed_relations(pres: Presentation) -> list:
    """Translate the degree -1 relations into (ops, seed, rhs-terms)."""
    module_tags = {"f0-raise-lower", "f0-lower-j", "f0-raise-j",
                   "f0-raise-kk", "f0-lower-kk", "f0-raise-jk"}
    out = []
    for rel in pres.relations:
        if rel.tag not in module_tags:
            continue
        (coeff, tree), = rel.lhs
        if coeff != 1:
            raise ValueError("module relation with a scaled left side")
        ops = []
        t = tree
        while not _is_name(t):
            actor, t = t
            if not (_is_name(actor) and actor[0] in ("e", "f")):
                raise ValueError("module relation actor must be a simple "
                                 "raising or lowering")
            ops.append(actor)
        rhs = []
        for c, name in rel.rhs:
            if not (_is_name(name) and name[0] == "f0"):
                raise ValueError(
                    "module relation right side must live on the family")
            rhs.append((c, name))
        out.append((rel.tag, rel.indices, ops, t, rhs))
    return out


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
    g: ChevalleyAlgebra = field(repr=False, default=None)
    _root_ops: dict = field(repr=False, default_factory=dict)
    _sharp: object = field(repr=False, default=None)

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

    def root_op(self, kind: str, root_index: int) -> dict:
        """Column-sparse action of e_alpha (kind 'e') or f_alpha ('f')."""
        return root_action(self.realization(),
                           {"e": self.e_act, "f": self.f_act},
                           kind, root_index, self._root_ops)

    def apply_element(self, x: dict, vec: Vec) -> Vec:
        """Action of a g element given over the realization basis."""
        g = self.realization()
        out: Vec = {}
        for idx, co in x.items():
            kind, arg = g.names[idx]
            if kind == "h":
                part = {c: v * self.weights[c][arg]
                        for c, v in vec.items() if self.weights[c][arg]}
            else:
                part = mat_apply(self.root_op(kind, arg), vec)
            vadd_into(out, part, co)
        return out

    def realization(self) -> ChevalleyAlgebra:
        if self.g is None:
            self.g = chevalley_realization(self.data)
        return self.g


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
    seed_rels = _seed_relations(pres)
    serres = _serre_instances(data)
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
                        enum.act(op, {c: _ONE}, True)
            _drain(enum, seeds, seed_rels, serres)
            dims: dict = {}
            for c in range(len(enum.wt)):
                if enum.alive(c):
                    dims[enum.wt[c]] = dims.get(enum.wt[c], 0) + 1
            history.append(dims)
            if _tables_total(enum):
                _certify(enum, seeds, seed_rels, serres)
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
    seed_vecs = {name: compact({cell: _ONE}) for name, cell in seeds.items()}
    certificate = {"complete": status == "complete", "reason": reason,
                   "cell_cap": cell_cap, "depth_used": depth_used,
                   "cells_created": len(enum.wt),
                   "dims_by_depth": history}
    return MinusOneModule(data=data, variant=pres.variant, status=status,
                          weights=[enum.wt[c] for c in alive],
                          e_act=e_act, f_act=f_act, seed_vecs=seed_vecs,
                          k_nodes=pres.k_nodes, certificate=certificate)


def _drain(enum: _Enumeration, seeds: dict, seed_rels: list,
           serres: list) -> None:
    """Run queued instance groups, then the seed relations and the dead
    entries, until a pass of the latter two imposes nothing (only an
    imposition queues a group, so the queue is then empty)."""
    while True:
        while enum.queue:
            batch = sorted(enum.queue)
            enum.queue.clear()
            for c in batch:
                if enum.alive(c):
                    _cell_instances(enum, c, serres)
        enum.changed = False
        _seed_instances(enum, seeds, seed_rels)
        _dead_entry_consequences(enum)
        if not enum.changed:
            return


def _certify(enum: _Enumeration, seeds: dict, seed_rels: list,
             serres: list) -> None:
    """One full pass of every instance; raises if it imposes anything."""
    enum.certifying = True
    _seed_instances(enum, seeds, seed_rels)
    for c in range(len(enum.wt)):
        if enum.alive(c):
            _cell_instances(enum, c, serres)
    _dead_entry_consequences(enum)


def _seed_instances(enum: _Enumeration, seeds: dict,
                    seed_rels: list) -> None:
    for tag, indices, ops, seed_name, rhs in seed_rels:
        vec = enum.word(ops, {seeds[seed_name]: _ONE}, False)
        if vec is None:
            continue
        for c, name in rhs:
            vec = vadd(vec, {seeds[name]: _ONE}, -c)
        enum.impose(vec, (tag, indices))


def _cell_instances(enum: _Enumeration, c: int, serres: list) -> None:
    """Impose the commutator axioms [e_i, f_j] = delta_ij h_j and the
    Serre operators on cell c, recording the cells the group looked up
    as its reads."""
    enum.running, enum.reads = c, set()
    unit = {c: _ONE}
    images: dict = {(): unit}
    for i in range(enum.r):
        for j in range(enum.r):
            a = _image(enum, images, (("e", i), ("f", j)))
            if a is None:
                continue
            b = _image(enum, images, (("f", j), ("e", i)))
            if b is None:
                continue
            res = vadd(a, b, -_ONE)
            if i == j and enum.wt[c][i]:
                res = vadd(res, unit, -Fraction(enum.wt[c][i]))
            enum.impose(res, ("commutator", c, i, j))
    for kind, i, j, terms in serres:
        acc: Vec = {}
        for coeff, left, right in terms:
            vec = _image(enum, images, ((kind, i),) * left + ((kind, j),)
                         + ((kind, i),) * right)
            if vec is None:
                break
            vadd_into(acc, vec, coeff)
        else:
            enum.impose(acc, ("serre-" + kind, c, i, j))
    readers = enum.readers
    for x in enum.reads:
        readers.setdefault(x, set()).add(c)
    enum.running = enum.reads = None


def _image(enum: _Enumeration, images: dict, word: tuple) -> Vec | None:
    """The word applied to the group's cell, or None when a table entry is
    missing; ``images`` holds every suffix computed so far."""
    k = 0
    while word[k:] not in images:
        k += 1
    vec = images[word[k:]]
    for t in range(k - 1, -1, -1):
        if vec is not None:
            vec = enum.act(word[t], vec, False)
        images[word[t:]] = vec
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
            enum.impose(vadd(enum.nf(table.pop(c)), target, -_ONE),
                        ("dead entry", op, c))


def _tables_total(enum: _Enumeration) -> bool:
    for c in range(len(enum.wt)):
        if not enum.alive(c):
            continue
        for op in enum.ops:
            if enum.tab[op].get(c) is None:
                return False
    return True


# -- weight combinations of the family ---------------------------------------


def f0_combination_coeffs(data: CartanData, k_nodes, mu) -> dict:
    """Coefficients c with mu = sum c_l alpha_l-vee over the K nodes.

    ``mu`` is given by its Dynkin labels with respect to the subdiagram
    on the K nodes, in their order.
    """
    k_nodes = tuple(k_nodes)
    mu = tuple(Fraction(x) for x in mu)
    if len(mu) != len(k_nodes):
        raise ValueError("weight has %d labels, expected %d"
                         % (len(mu), len(k_nodes)))
    if not k_nodes:
        return {}
    sub = data.restrict(k_nodes)
    ent = {}
    for t in range(sub.r):
        for l in range(sub.r):
            v = Fraction(sub.a[t][l]) * sub.epsilon[l]
            if v:
                ent[(t, l)] = v
    sol = solve(RatMatrix(sub.r, sub.r, ent), mu)
    if sol is None:
        raise ValueError("the Cartan matrix of the zero-label subdiagram "
                         "is singular")
    return {k_nodes[l]: c for l, c in enumerate(sol) if c}


def f0_weight_combination(module: MinusOneModule, mu) -> Vec:
    """The degree -1 element f0_{mu vee} in the realized module."""
    coeffs = f0_combination_coeffs(module.data, module.k_nodes, mu)
    out: Vec = {}
    for node, c in coeffs.items():
        vadd_into(out, module.seed_vecs[("f0", node)], c)
    return out


# -- the sharp assignment ----------------------------------------------------


@dataclass
class SharpImage:
    """Basis assignment from the K-node subalgebra into the module.

    ``entries`` maps realization basis indices (h_k and the root vectors
    supported on the K nodes) to module vectors.
    """

    module: MinusOneModule
    entries: dict

    def sharp(self, x: dict) -> Vec:
        out: Vec = {}
        for idx, co in x.items():
            if idx not in self.entries:
                raise ValueError("element is not supported on the zero-label "
                                 "subalgebra")
            vadd_into(out, self.entries[idx], co)
        return out


def _k_supported_roots(module: MinusOneModule) -> list:
    g = module.realization()
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
    if module._sharp is not None:
        return module._sharp
    module.require_complete()
    g = module.realization()
    sub = module.data.restrict(module.k_nodes)
    entries: dict = {}
    for t in module.k_nodes:
        entries[g.index[("h", t)]] = vscale(
            module.seed_vecs[("f0", t)], -_ONE)
    for p in _k_supported_roots(module):
        labels_k = _k_labels(module, g.pos_roots[p].labels)
        for kind, sign in (("e", 1), ("f", -1)):
            op = module.root_op(kind, p)
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
    module._sharp = SharpImage(module=module, entries=entries)
    return module._sharp


# -- reflection automorphisms -------------------------------------------------


def _exp_nilpotent(apply_fn, vec: Vec, scale: Fraction = _ONE) -> Vec:
    out = dict(vec)
    term = vec
    n = 0
    while term:
        n += 1
        if n > 64:
            raise ValueError("nilpotency bound of 64 iterations exceeded")
        term = vscale(apply_fn(term), scale / n)
        out = vadd(out, term)
    return out


def weyl_automorphism(target, k: int, x: Vec) -> Vec:
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


def coroot_combination(g: ChevalleyAlgebra, k_nodes, mu) -> dict:
    """h_{mu vee} over the realization basis, for a K-subdiagram weight."""
    coeffs = f0_combination_coeffs(g.data, k_nodes, mu)
    return {g.index[("h", node)]: c for node, c in coeffs.items()}


# -- structure hypotheses and the expected decomposition ----------------------


def structure_hypotheses(data: CartanData) -> dict:
    """Record whether every label is 0 or 1 and every component's highest
    root pairs with every simple coroot no lower than -1."""
    j_nodes, k_nodes = jk_partition(data)
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
