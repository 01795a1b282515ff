"""Cartan matrices, bilinear forms, root systems, and Chevalley realizations.

Weights are plain tuples of rationals in the fundamental-weight basis
(Dynkin labels), each entry in ``linalg``'s normal form (an ``int`` when
integral); roots carry their simple-root coordinates together with
their norm under the invariant form.  Conventions:

* ``A`` is the Cartan matrix, ``epsilon`` the symmetrizer making
  ``D^{-1} A`` symmetric where ``D = diag(epsilon)``;
* ``(alpha_i, alpha_j) = A_ij / epsilon_i`` and the coroot is
  ``alpha_i^vee = epsilon_i alpha_i``, so ``(alpha_i^vee, alpha_j) = A_ij``;
* a weight ``mu`` has root coordinates ``c = A^{-1} m`` for its label
  vector ``m``, and ``(mu, nu) = m^T A^{-T} D^{-1} n = sum_i c_i n_i /
  epsilon_i``.

``CartanData`` owns the facts derived from one datum.  ``validate_cartan``
is the one gate for a datum: it checks its seven rules, each worded for
a user, and types each component; ``cartan_failures`` lists what keeps a
datum from finite type, for the command line's spec errors and for the
positive roots.  The validation (``CartanData.validation``), the
positive roots, their index by coordinates (``root_index``) and the
extraspecial decomposition of each (``extraspecial``) are cached
properties: the validation and the reflection closure run once per
datum, and ``enumerate_roots``, ``weyl_dimension``, ``highest_roots``,
``pseudo_minuscule_failure``, ``chevalley_realization`` and
``root_action`` all read them.  So does ``weyl_order``, the
order of a parabolic subgroup of the Weyl group from the exponents,
memoised per node set, which gives ``orbit_size``, |W mu| of a dominant
weight, without enumerating the group; ``orbit`` lists the orbit of a
dominant integral weight by simple reflections at its positive labels.
``extended_entry(i, j)`` is the one copy of the matrix extended by an odd
node, index ``EXT = -1``: B_EXT,j = -lambda_j/epsilon_j, B_i,EXT =
-lambda_i, B_EXT,EXT = 0 and B_ij = A_ij otherwise.

The Chevalley realization normalizes ``[e_gamma, e_{-gamma}] = h_gamma``
with ``h_gamma = (2/(gamma,gamma)) phi^{-1}(gamma)``, and fixes signs by
the extraspecial decomposition gamma = alpha_i + beta, i the first node
for which beta is a positive root: [e_{alpha_i}, e_beta] = (p + 1)
e_gamma, p the length of the alpha_i-string below beta.  ``root_action``
builds the action of each root vector on a g-module from the same
decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .linalg import (
    RatMatrix,
    inverse,
    mat_compose,
    mat_scale,
    mat_sub,
    qdiv,
    qnorm,
    rank,
    vadd_into,
)

__all__ = [
    "CartanData",
    "EXT",
    "Root",
    "ChevalleyAlgebra",
    "validate_cartan",
    "cartan_failures",
    "enumerate_roots",
    "weyl_reflect",
    "highest_roots",
    "pseudo_minuscule_failure",
    "weyl_dimension",
    "jk_partition",
    "chevalley_realization",
    "root_action",
]

EXT = -1  # index of the odd node in ``CartanData.extended_entry``


@dataclass(frozen=True)
class Root:
    """A root: simple-root coordinates plus norm data under the form."""

    coords: tuple[int, ...]
    labels: tuple[int | Fraction, ...]
    norm: int | Fraction

    @property
    def height(self) -> int:
        return sum(self.coords)

    def __neg__(self) -> Root:
        return Root(tuple(-c for c in self.coords),
                    tuple(-l for l in self.labels), self.norm)


class CartanData:
    """The triple (Cartan matrix A, symmetrizer epsilon, labels lambda)."""

    def __init__(self, a: Sequence[Sequence[int]],
                 epsilon: Sequence | None = None,
                 lam: Sequence[int] | None = None):
        self.a = tuple(tuple(int(x) for x in row) for row in a)
        self.r = len(self.a)
        if any(len(row) != self.r for row in self.a):
            raise ValueError("Cartan matrix must be square")
        if epsilon is None:
            epsilon = [1] * self.r
        self.epsilon = tuple(qnorm(e) for e in epsilon)
        if lam is None:
            lam = [0] * self.r
        self.lam = tuple(int(x) for x in lam)
        if len(self.epsilon) != self.r or len(self.lam) != self.r:
            raise ValueError("epsilon/lambda length must match the rank")
        self._weyl_orders: dict = {}

    def __eq__(self, other) -> bool:
        return (isinstance(other, CartanData) and self.a == other.a
                and self.epsilon == other.epsilon and self.lam == other.lam)

    def __hash__(self) -> int:
        return hash((self.a, self.epsilon, self.lam))

    def __repr__(self) -> str:
        return "CartanData(r=%d, lambda=%s)" % (self.r, list(self.lam))

    # -- derived matrices ---------------------------------------------------

    @cached_property
    def a_mat(self) -> RatMatrix:
        return RatMatrix.from_rows(self.a)

    @cached_property
    def a_inv(self) -> RatMatrix:
        return inverse(self.a_mat)

    @cached_property
    def simple_labels(self) -> tuple[tuple[int, ...], ...]:
        """Label vector of each simple root alpha_i: column i of A."""
        return tuple(tuple(row[i] for row in self.a) for i in range(self.r))

    # -- weight arithmetic ----------------------------------------------

    def fundamental(self, i: int) -> tuple[int, ...]:
        return tuple(1 if j == i else 0 for j in range(self.r))

    def weight(self, labels: Sequence) -> tuple[int | Fraction, ...]:
        if len(labels) != self.r:
            raise ValueError("label vector has wrong length")
        return tuple(map(qnorm, labels))

    def bilinear(self, mu: Sequence, nu: Sequence) -> int | Fraction:
        """(mu, nu) = sum c_i nu_i / epsilon_i with c = A^{-1} m."""
        nu = self.weight(nu)
        return qnorm(sum(qdiv(c * n, e) for c, n, e in
                         zip(self.root_coords(mu), nu, self.epsilon)
                         if c and n))

    def root_coords(self, mu: Sequence) -> tuple[int | Fraction, ...]:
        """Coordinates of mu in the simple-root basis: A^{-1} m."""
        return self.a_inv.mul_vec(self.weight(mu))

    def labels_of_root(self, coords: Sequence) -> tuple[int | Fraction, ...]:
        """Label vector of sum c_i alpha_i: m = A c."""
        return self.a_mat.mul_vec(coords)

    def wedge(self, mu: Sequence) -> tuple[int | Fraction, ...]:
        """mu^wedge = sum (mu_i / epsilon_i) Lambda_i."""
        return tuple(qdiv(m, e) for m, e in zip(mu, self.epsilon))

    def vee(self, mu: Sequence) -> tuple[int | Fraction, ...]:
        """mu^veecheck = sum (epsilon_i mu_i) Lambda_i."""
        return tuple(qnorm(m * e) for m, e in zip(mu, self.epsilon))

    def is_dominant_integral(self, mu: Sequence) -> bool:
        return all(type(m) is int and m >= 0 for m in map(qnorm, mu))

    def root_pairing(self, mu: Sequence, root: Root) -> int | Fraction:
        """(mu^veecheck, alpha) = sum_k c_k mu_k for a root alpha."""
        return qnorm(sum(m * c for m, c in zip(map(qnorm, mu), root.coords)))

    # -- Weyl group -----------------------------------------------------

    def weyl_order(self, nodes: Sequence[int] | None = None) -> int:
        """Order of the Weyl group of the subdiagram on ``nodes`` (all
        nodes by default), memoised per node set.

        The order is the product of m + 1 over the exponents m, and the
        exponents are the partition dual to the height counts of the
        positive roots supported on the nodes: as many exponents are at
        least i as there are heights with at least i such roots.  Both
        sides add over components, so a reducible node set needs no
        split.  No group element is enumerated.
        """
        key = frozenset(range(self.r) if nodes is None else nodes)
        order = self._weyl_orders.get(key)
        if order is None:
            counts: dict = {}       # height -> roots of that height
            for rt in self.positive_roots:
                if all(j in key for j, c in enumerate(rt.coords) if c):
                    counts[rt.height] = counts.get(rt.height, 0) + 1
            order = 1
            for i in range(1, len(key) + 1):
                order *= 1 + sum(1 for n in counts.values() if n >= i)
            self._weyl_orders[key] = order
        return order

    def orbit_size(self, mu: Sequence) -> int:
        """Size of the Weyl orbit of a dominant weight: |W| / |W_mu|, the
        stabilizer W_mu being the parabolic subgroup on the nodes where
        mu's label is 0."""
        m = self.weight(mu)
        if any(x < 0 for x in m):
            raise ValueError("weight %s is not dominant" % (list(mu),))
        return self.weyl_order() // self.weyl_order(
            [i for i, x in enumerate(m) if x == 0])

    def orbit(self, mu: Sequence) -> tuple[tuple[int, ...], ...]:
        """The Weyl orbit of a dominant integral weight mu, mu first.

        Each weight reached is reflected by s_k wherever its label k is
        positive (``weyl_reflect``'s rule, s_k nu = nu - nu_k alpha_k), so
        every step goes down by a positive multiple of alpha_k.  Every
        other weight of the orbit has a negative label k, and s_k takes it
        one such step closer to mu, so the steps down from mu reach the
        whole orbit (Humphreys, Introduction to Lie Algebras and
        Representation Theory, 13.2).  The datum must be of finite type.
        """
        m = self.weight(mu)
        if not self.is_dominant_integral(m):
            raise ValueError("weight %s is not dominant integral"
                             % (list(mu),))
        _require_finite(self)
        seen = {m}
        out = [m]
        for nu in out:
            for k, x in enumerate(nu):
                if x > 0:
                    image = tuple(y - x * c
                                  for y, c in zip(nu, self.simple_labels[k]))
                    if image not in seen:
                        seen.add(image)
                        out.append(image)
        return tuple(out)

    # -- diagram structure ------------------------------------------------

    def components(self) -> list[tuple[int, ...]]:
        """Connected components of the Dynkin diagram, each sorted; i and
        j are linked when A_ij or A_ji is nonzero."""
        seen: set[int] = set()
        comps = []
        for start in range(self.r):
            if start in seen:
                continue
            stack, comp = [start], set()
            while stack:
                i = stack.pop()
                if i in comp:
                    continue
                comp.add(i)
                for j in range(self.r):
                    if j not in comp and (self.a[i][j] or self.a[j][i]):
                        stack.append(j)
            seen |= comp
            comps.append(tuple(sorted(comp)))
        return comps

    def restrict(self, nodes: Sequence[int]) -> CartanData:
        nodes = list(nodes)
        sub = [[self.a[i][j] for j in nodes] for i in nodes]
        return CartanData(sub, [self.epsilon[i] for i in nodes],
                          [self.lam[i] for i in nodes])

    def extended_entry(self, i: int, j: int) -> int | Fraction:
        """Entry B_ij of the matrix extended by one odd node; EXT = -1
        addresses the new row and column."""
        if i == EXT and j == EXT:
            return 0
        if i == EXT:
            return -qdiv(self.lam[j], self.epsilon[j])
        if j == EXT:
            return -self.lam[i]
        return self.a[i][j]

    # -- root system ----------------------------------------------------

    @cached_property
    def validation(self) -> dict:
        """``validate_cartan``'s report on this datum, made once."""
        return validate_cartan(self)

    @cached_property
    def positive_roots(self) -> tuple[Root, ...]:
        """The positive roots sorted by (height, coords), by reflection
        closure of the simple roots; the datum must be of finite type."""
        _require_finite(self)
        r = self.r
        simple = [tuple(1 if j == i else 0 for j in range(r))
                  for i in range(r)]
        seen = set(simple)
        frontier = list(simple)
        while frontier:
            new = []
            for c in frontier:
                for k in range(r):
                    # r_k(beta) = beta - (alpha_k^vee, beta) alpha_k
                    pair = sum(self.a[k][j] * c[j] for j in range(r))
                    refl = tuple(c[j] - (pair if j == k else 0)
                                 for j in range(r))
                    if refl not in seen and all(x >= 0 for x in refl):
                        seen.add(refl)
                        new.append(refl)
            frontier = new
        out = []
        for c in sorted(seen, key=lambda c: (sum(c), c)):
            labels = self.labels_of_root(c)
            out.append(Root(c, labels, self.bilinear(labels, labels)))
        return tuple(out)

    @cached_property
    def root_index(self) -> dict[tuple[int, ...], int]:
        """Position in ``positive_roots`` of each positive root's coords."""
        return {rt.coords: k for k, rt in enumerate(self.positive_roots)}

    @cached_property
    def extraspecial(self) -> tuple[tuple[int, int, int] | None, ...]:
        """The extraspecial decomposition gamma = alpha_i + beta of each
        positive root (Carter, Simple Groups of Lie Type, 4.2): None for
        a simple root, otherwise (i, b, n) with i the first node for which
        gamma - alpha_i is a positive root, b that root's position and
        n = p + 1, p the largest k with beta - k alpha_i a root."""
        index = self.root_index
        out = []
        for rt in self.positive_roots:
            if rt.height == 1:
                out.append(None)
                continue
            i = next(i for i in range(self.r)
                     if _shift(rt.coords, i, -1) in index)
            beta = _shift(rt.coords, i, -1)
            n = 1
            while _shift(beta, i, -n) in index:
                n += 1
            out.append((i, index[beta], n))
        return tuple(out)


def _shift(coords: tuple[int, ...], i: int, k: int) -> tuple[int, ...]:
    """coords + k alpha_i."""
    return coords[:i] + (coords[i] + k,) + coords[i + 1:]


# -- validation ------------------------------------------------------------


def _canonical_symmetrizer(a, nodes) -> list[int | Fraction] | None:
    """Positive d with d_i A_ij = d_j A_ji on the component, or None;
    None also when A_ij = 0 but A_ji != 0 for some pair."""
    d = {nodes[0]: 1}
    queue = [nodes[0]]
    while queue:
        i = queue.pop()
        for j in nodes:
            if j == i or not (a[i][j] or a[j][i]):
                continue
            if not (a[i][j] and a[j][i]):
                return None
            val = qdiv(d[i] * a[i][j], a[j][i])
            if j in d:
                if d[j] != val:
                    return None
            else:
                d[j] = val
                queue.append(j)
    for i in nodes:
        for j in nodes:
            if a[i][j] and d[i] * a[i][j] != d[j] * a[j][i]:
                return None
    return [d[i] for i in nodes]


def _component_type(a, nodes) -> str:
    """'finite' / 'affine' / 'indefinite' for one indecomposable block.

    Sylvester's test on the symmetrized matrix: the block is finite when
    every leading principal minor is positive, and affine (positive
    semidefinite of corank 1, being indecomposable) when all but the last
    are positive and the last is zero.  Row p of the symmetrized matrix,
    d_p A, is scaled by the denominator of d_p, a positive integer, which
    keeps the sign of every leading minor and leaves integer rows.  The
    fraction-free (Bareiss) elimination without row exchanges then has
    the k-th leading minor as its k-th pivot, each step dividing exactly
    by the previous pivot.
    """
    d = _canonical_symmetrizer(a, nodes)
    if d is None:
        return "indefinite"
    n = len(nodes)
    rows = [[d[p].numerator * a[i][j] for j in nodes]
            for p, i in enumerate(nodes)]
    prev = 1
    for k in range(n):
        piv = rows[k][k]
        if piv <= 0:
            return "affine" if piv == 0 and k == n - 1 else "indefinite"
        top = rows[k]
        for row in rows[k + 1:]:
            f = row[k]
            for c in range(k + 1, n):
                row[c] = (row[c] * piv - f * top[c]) // prev
        prev = piv
    return "finite"


def validate_cartan(data: CartanData) -> dict:
    """Report-style validation of all CartanData invariants.

    Returns {"valid": bool, "checks": [{"name", "passed", "detail"}...],
    "components": [{"nodes", "type"}...]}.  Each ``detail`` says what the
    check requires, in words fit to show a user when it fails.
    """
    checks = []

    def check(name, passed, detail=""):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    a, r = data.a, data.r
    eps = data.epsilon
    check("diagonal_two", all(a[i][i] == 2 for i in range(r)),
          "diagonal entries must be 2")
    check("offdiag_nonpositive",
          all(a[i][j] <= 0 for i in range(r) for j in range(r) if i != j),
          "off-diagonal entries must be non-positive")
    check("zero_symmetry",
          all((a[i][j] == 0) == (a[j][i] == 0)
              for i in range(r) for j in range(r)),
          "zero pattern must be symmetric")
    check("epsilon_nonzero", all(e != 0 for e in eps),
          "symmetrizer entries must be nonzero")
    # A_ij / eps_i = A_ji / eps_j multiplied out: a zero eps divides nothing
    check("symmetrizable",
          all(eps[j] * a[i][j] == eps[i] * a[j][i]
              for i in range(r) for j in range(i + 1, r)),
          "entries do not symmetrize the Cartan matrix")
    check("invertible", rank(data.a_mat) == r,
          "the Cartan matrix is singular")
    check("lambda_nonnegative", all(x >= 0 for x in data.lam),
          "lambda entries must be non-negative")

    components = [{"nodes": list(nodes), "type": _component_type(a, nodes)}
                  for nodes in data.components()]

    return {
        "valid": all(c["passed"] for c in checks),
        "checks": checks,
        "components": components,
    }


def cartan_failures(data: CartanData) -> list[str]:
    """Why ``data`` is not a finite-type Cartan datum, one line per cause:
    the detail of each failed check or, when none fails, each component
    that is not of finite type.  Empty for a good datum."""
    report = data.validation
    return [c["detail"] for c in report["checks"] if not c["passed"]] or [
        "component %s of the Cartan matrix has %s type; finite type "
        "required" % (comp["nodes"], comp["type"])
        for comp in report["components"] if comp["type"] != "finite"]


def _require_finite(data: CartanData) -> None:
    failures = cartan_failures(data)
    if failures:
        raise ValueError("invalid Cartan data: %s" % "; ".join(failures))


# -- root systems ----------------------------------------------------------


def enumerate_roots(data: CartanData) -> list[Root]:
    """All roots of a finite-type Cartan datum: the positive roots sorted
    by (height, coords), then the negatives in the mirrored order."""
    pos = data.positive_roots
    return list(pos) + [-root for root in pos]


def weyl_reflect(data: CartanData, k: int,
                 mu: Sequence) -> tuple[int | Fraction, ...]:
    """Simple reflection on Dynkin labels: (r_k mu)_j = mu_j - mu_k A_jk."""
    if not 0 <= k < data.r:
        raise IndexError("node index %d out of range" % k)
    m = data.weight(mu)
    return tuple(qnorm(m[j] - m[k] * data.a[j][k]) for j in range(data.r))


def highest_roots(data: CartanData, nodes: Sequence[int] | None = None) -> list[Root]:
    """Highest root of each indecomposable component of the subdiagram.

    Roots come back in the full datum's coordinates (labels included),
    ordered by the smallest node of their component.
    """
    if nodes is None:
        nodes = list(range(data.r))
    else:
        nodes = sorted(set(nodes))
    if not all(0 <= i < data.r for i in nodes):
        raise IndexError("subdiagram node out of range")
    result = []
    if not nodes:
        return result
    sub = data.restrict(nodes)
    for comp in sub.components():
        comp_nodes = [nodes[i] for i in comp]
        positives = data.restrict(comp_nodes).positive_roots
        top_height = max(rt.height for rt in positives)
        top = [rt for rt in positives if rt.height == top_height]
        if len(top) != 1:
            raise ValueError(
                "finite component must have a unique highest root")
        coords = [0] * data.r
        for local, node in enumerate(comp_nodes):
            coords[node] = top[0].coords[local]
        labels = data.labels_of_root(coords)
        norm = data.bilinear(labels, labels)
        result.append(Root(tuple(coords), labels, norm))
    return result


def pseudo_minuscule_failure(data: CartanData,
                             mu: Sequence) -> tuple[Root, int | Fraction] | None:
    """First root alpha with (mu^veecheck, alpha) outside {0, 1}, if any.

    Non-dominant or non-integral mu is reported against the first positive
    root as a failure of the dominance requirement (value = the pairing).
    """
    positives = data.positive_roots
    if not data.is_dominant_integral(mu):
        rt = positives[0]
        return rt, data.root_pairing(mu, rt)
    for rt in positives:
        val = data.root_pairing(mu, rt)
        if val not in (0, 1):
            return rt, val
    return None


def weyl_dimension(data: CartanData, mu: Sequence) -> int:
    """dim of the irreducible module with highest weight mu (Weyl formula)."""
    positives = data.positive_roots
    m = data.weight(mu)
    if not data.is_dominant_integral(m):
        raise ValueError("weight %s is not dominant integral" % (list(mu),))
    num = den = 1
    for rt in positives:
        # (nu, alpha) = sum_k c_k nu_k / epsilon_k
        num *= sum(qdiv(c * (mk + 1), e) for c, mk, e in
                   zip(rt.coords, m, data.epsilon))
        den *= sum(qdiv(c, e) for c, e in zip(rt.coords, data.epsilon) if c)
    val = qdiv(num, den)
    if type(val) is not int or val <= 0:
        raise ValueError("Weyl dimension formula gives %s, not a positive "
                         "integer" % val)
    return val


def jk_partition(data: CartanData) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """J = {i : lambda_i != 0}, K = its complement."""
    j = tuple(i for i in range(data.r) if data.lam[i] != 0)
    k = tuple(i for i in range(data.r) if data.lam[i] == 0)
    return j, k


# -- Chevalley realization -------------------------------------------------


class ChevalleyAlgebra:
    """Finite-dimensional g in a Chevalley basis {f_beta, h_i, e_beta}.

    Basis names are ("f", i_root), ("h", i_node), ("e", i_root) where
    i_root indexes the positive roots in (height, lex) order.  The full
    structure-constant table is stored; weights (Dynkin labels) per basis
    element make weight-block computations downstream cheap.
    """

    def __init__(self, data: CartanData, table: dict):
        self.data = data
        self.pos_roots = pos_roots = data.positive_roots
        self.names: list[tuple] = (
            [("f", i) for i in range(len(pos_roots))]
            + [("h", i) for i in range(data.r)]
            + [("e", i) for i in range(len(pos_roots))])
        self.index = {name: k for k, name in enumerate(self.names)}
        self.dim = len(self.names)
        zero = (0,) * data.r
        self.weights: list[tuple] = (
            [tuple(-l for l in rt.labels) for rt in pos_roots]
            + [zero for _ in range(data.r)]
            + [rt.labels for rt in pos_roots])
        self._table = table              # (i, j) -> {k: coeff}, all pairs

    def __repr__(self) -> str:
        return "ChevalleyAlgebra(dim=%d, r=%d)" % (self.dim, self.data.r)

    def simple_root_index(self, i: int) -> int:
        return self.data.root_index[_shift((0,) * self.data.r, i, 1)]

    def bracket(self, i: int, j: int) -> dict:
        return self._table.get((i, j), {})

    def bracket_vec(self, va: dict, vb: dict) -> dict:
        out: dict = {}
        for i, ca in va.items():
            for j, cb in vb.items():
                vadd_into(out, self._table.get((i, j), {}), ca * cb)
        return out

    def kappa(self, i: int, j: int) -> int | Fraction:
        """Invariant form with kappa(e_i, f_i) = epsilon_i."""
        na, nb = self.names[i], self.names[j]
        if na[0] == "h" and nb[0] == "h":
            # kappa(h_a, h_b) = epsilon_a A_ba (= epsilon_b A_ab)
            return qnorm(self.data.epsilon[na[1]] * self.data.a[nb[1]][na[1]])
        if {na[0], nb[0]} == {"e", "f"} and na[1] == nb[1]:
            # kappa(e_beta, f_beta) = 2 / (beta, beta)
            return qdiv(2, self.pos_roots[na[1]].norm)
        return 0

    def coroot_coords(self, rt: Root) -> dict:
        """h_alpha = (2/(alpha,alpha)) sum c_i h_i / epsilon_i, as coords."""
        return {self.index[("h", i)]: _coroot_entry(rt, i, self.data)
                for i, c in enumerate(rt.coords) if c}


def _coroot_entry(rt: Root, i: int, data: CartanData) -> int | Fraction:
    """Coefficient of h_i in h_alpha: 2 c_i / ((alpha, alpha) epsilon_i)."""
    return qdiv(2 * rt.coords[i], rt.norm * data.epsilon[i])


def root_action(g: ChevalleyAlgebra, simple: dict, kind: str,
                root_index: int, memo: dict) -> dict:
    """Column-sparse action {src: {tgt: c}} of e_gamma (``kind`` "e") or
    f_gamma ("f") on a g-module, gamma the positive root ``root_index``.

    ``simple[kind][node]`` is the action of the simple root vector of a
    node.  A compound root gamma = alpha_node + beta, its extraspecial
    decomposition (``CartanData.extraspecial``), acts by the commutator
    of the actions of x_node and x_beta divided by the structure constant
    of [x_node, x_beta] = c x_gamma in g.  Actions are built on demand
    and memoized in ``memo`` under (kind, root_index).
    """
    key = (kind, root_index)
    op = memo.get(key)
    if op is not None:
        return op
    split = g.data.extraspecial[root_index]
    if split is None:
        op = simple[kind][g.pos_roots[root_index].coords.index(1)]
    else:
        node, bidx, _ = split
        a = g.index[(kind, g.simple_root_index(node))]
        b = g.index[(kind, bidx)]
        tgt = g.index[(kind, root_index)]
        prod = g.bracket(a, b)
        if set(prod) != {tgt} or not prod[tgt]:
            raise ValueError(
                "structure constants of g: [%s, %s] is not a nonzero "
                "multiple of %s" % (g.names[a], g.names[b], g.names[tgt]))
        x = simple[kind][node]
        y = root_action(g, simple, kind, bidx, memo)
        op = mat_scale(mat_sub(mat_compose(x, y), mat_compose(y, x)),
                       qdiv(1, prod[tgt]))
    memo[key] = op
    return op


def chevalley_realization(data: CartanData) -> ChevalleyAlgebra:
    """Concrete structure constants for finite-type g.

    The algebra is produced as the minimal graded extension of its
    principal local part (h at degree 0, simple root vectors at degree
    +-1), which guarantees the Jacobi identity by construction; the layer
    bases are then rescaled to the Chevalley normalization
    [e_gamma, e_{-gamma}] = h_gamma with positive extraspecial constants.
    """
    positives = data.positive_roots
    from . import graded  # deferred: graded imports rootsys at module level

    r = data.r
    max_h = max(rt.height for rt in positives)

    zero_w = (0,) * r
    local = graded.LocalSuperalgebra(
        neg_names=[("f", i) for i in range(r)],
        neg_weights=[tuple(-x for x in w) for w in data.simple_labels],
        neg_parities=[0] * r,
        zero_names=[("h", i) for i in range(r)],
        zero_weights=[zero_w] * r,
        zero_parities=[0] * r,
        pos_names=[("e", i) for i in range(r)],
        pos_weights=data.simple_labels,
        pos_parities=[0] * r,
        b00={},
        b0m={(i, j): {j: -data.a[i][j]} for i in range(r)
             for j in range(r) if data.a[i][j]},
        b0p={(i, j): {j: data.a[i][j]} for i in range(r)
             for j in range(r) if data.a[i][j]},
        bpm={(i, i): {i: 1} for i in range(r)},
        pairing={(i, i): data.epsilon[i] for i in range(r)},
    )
    ext = graded.minimal_extension(local, (-max_h, max_h))

    # map each engine layer basis element to its root (weight spaces are
    # one-dimensional in finite type)
    by_height: dict[int, list[Root]] = {}
    for rt in positives:
        by_height.setdefault(rt.height, []).append(rt)
    for h in range(1, max_h + 1):
        want = sorted(rt.labels for rt in by_height.get(h, []))
        got_pos = sorted(ext.layer(h).weights)
        got_neg = sorted(tuple(-x for x in w) for w in ext.layer(-h).weights)
        if not want == got_pos == got_neg:
            raise ValueError("layer/root mismatch at height %d" % h)

    # engine coordinates of the normalized e_gamma / f_gamma
    e_vec: list[dict] = [None] * len(positives)
    f_vec: list[dict] = [None] * len(positives)
    for k, (rt, split) in enumerate(zip(positives, data.extraspecial)):
        h = rt.height
        if split is None:
            i = rt.coords.index(1)
            e_vec[k] = {i: 1}
            f_vec[k] = {i: 1}
            continue
        i, b, n_const = split
        # e_{alpha_i} is engine coordinate i of degree 1
        _, vec = ext.bracket((1, {i: 1}), (h - 1, e_vec[b]))
        e_vec[k] = {p: qdiv(c, n_const) for p, c in vec.items()}
        # f_gamma: normalize the 1-dim weight space so [e_g, f_g] = h_g
        layer = ext.layer(-h)
        target_w = tuple(-x for x in rt.labels)
        cand = {p: 1 for p, w in enumerate(layer.weights) if w == target_w}
        if len(cand) != 1:
            raise ValueError("root space of %s is not one-dimensional"
                             % (rt.coords,))
        _, hv = ext.bracket((h, e_vec[k]), (-h, cand))
        h_g = {i2: _coroot_entry(rt, i2, data)
               for i2, c in enumerate(rt.coords) if c}
        ratios = {i2: qdiv(hv[i2], v) for i2, v in h_g.items()}
        t = next(iter(ratios.values()))
        if any(v != t for v in ratios.values()) or set(hv) != set(h_g):
            raise ValueError("[e, f] of root %s is not a multiple of its "
                             "coroot" % (rt.coords,))
        f_vec[k] = {p: qdiv(c, t) for p, c in cand.items()}

    # assemble the full structure-constant table in the Chevalley basis
    npos = len(positives)
    dim = 2 * npos + r

    def basis_vec(idx: int) -> tuple[int, dict]:
        if idx < npos:
            return -positives[idx].height, f_vec[idx]
        if idx < npos + r:
            return 0, {idx - npos: 1}
        return positives[idx - npos - r].height, e_vec[idx - npos - r]

    # per-layer inverse: engine coordinate p at degree d -> (basis idx, scale)
    convert: dict[int, dict[int, tuple]] = {}
    for k, rt in enumerate(positives):
        h = rt.height
        for deg, vec, bidx in ((h, e_vec[k], npos + r + k),
                               (-h, f_vec[k], k)):
            (p, c), = vec.items()
            convert.setdefault(deg, {})[p] = (bidx, c)
    convert[0] = {i: (npos + i, 1) for i in range(r)}

    table: dict[tuple[int, int], dict] = {}
    for i in range(dim):
        di, vi = basis_vec(i)
        for j in range(dim):
            dj, vj = basis_vec(j)
            if abs(di + dj) > max_h:
                continue
            d, vec = ext.bracket((di, vi), (dj, vj))
            if not vec:
                continue
            out = {}
            for p, c in vec.items():
                bidx, scale = convert[d][p]
                out[bidx] = qdiv(c, scale)
            table[(i, j)] = out

    return ChevalleyAlgebra(data, table)
