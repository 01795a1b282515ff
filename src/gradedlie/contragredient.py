"""Contragredient superalgebras from an extended Cartan matrix.

Extending a Cartan datum (A, epsilon, lambda) by one odd node attached
through lambda yields the (r+1) x (r+1) matrix

    B_00 = 0,   B_0j = -lambda_j / epsilon_j,
    B_i0 = -lambda_i,   B_ij = A_ij,

whose contragredient superalgebra is Z-graded by the e_0-degree.  Its
degree-0 part is g extended by the Cartan element h_0; degree +1 is the
irreducible g-module generated by e_0 (lowest weight -lambda), degree -1
its dual.  The local slice determines the rest: the graded algebra is
the minimal extension of the local part.

The entries of B are ``CartanData.extended_entry``, with the odd node
at index ``EXT``.  The degree -1 basis is dual-orthonormal against
degree +1, <x_p|z_q> = delta_pq, and the bracket of opposite degree-1
elements is recovered from invariance of the (super-symmetric) form:
B([x,z], y_0) = -<x|[y_0,z]> for all y_0, with the degree-0 Gram block
assembled from <h_i|h_j> = B_ji eps_i (eps_0 = 1) and kappa(e_beta,
f_beta) = 2/(beta,beta).  The Gram block is invertible exactly when B
is, and its inverse also gives the grading element L = sum (B^-1)_0i
h_i: <L|h_j> = delta_0j, so L is the h_0 column of the inverse.
"""

from __future__ import annotations

from fractions import Fraction

from .graded import GradedSuperalgebra, LocalSuperalgebra, minimal_extension
from .linalg import RatMatrix, inverse, qnorm
from .rootsys import EXT, CartanData, chevalley_realization
from . import graded

__all__ = ["build_local", "build_graded"]


def _h0_eigenvalue(data: CartanData, mu) -> int | Fraction:
    """h_0 eigenvalue on a vector whose g-weight is nu = mu - lambda.

    mu = nu + lambda is a sum of simple roots, mu = sum c_j alpha_j, and
    each raising step along alpha_j contributes B_0j = -lambda_j/eps_j.
    """
    return qnorm(sum(c * data.extended_entry(EXT, j)
                     for j, c in enumerate(data.root_coords(mu))))


def build_local(data: CartanData) -> LocalSuperalgebra:
    """The degree -1/0/1 slice of the contragredient superalgebra.

    Degree 0: the Chevalley basis of g followed by h_0.  Degree +1: the
    lowest-weight module R(-lambda) generated by e_0 = v_0 (odd).
    Degree -1: its dual basis (odd), with f_0 = -x_0.  Simple Chevalley
    elements of g are also exposed under node-keyed embedding names
    ("e", i) / ("f", i) / ("h", i).
    """
    g = chevalley_realization(data)
    mod = graded.lowest_weight_module(g, data.lam)
    r = data.r
    n0 = g.dim + 1          # degree-0 dimension; h_0 is the last element
    h0 = g.dim
    nm = mod.dim

    zero_names = list(g.names) + [("h0",)]
    zero_weights = list(g.weights) + [(0,) * r]
    pos_weights = [tuple(w) for w in mod.weights]
    h0_eig = [_h0_eigenvalue(data, tuple(w + l for w, l in zip(nu, data.lam)))
              for nu in pos_weights]

    b00: dict = {}
    for (i, j), vec in g._table.items():
        b00[(i, j)] = dict(vec)
    for k in range(g.dim):
        eig = _h0_eigenvalue(data, g.weights[k])
        if eig:
            b00[(h0, k)] = {k: eig}
            b00[(k, h0)] = {k: -eig}

    b0p: dict = {}
    b0m: dict = {}
    for a in range(g.dim):
        for src, vec in mod.act[a].items():
            b0p[(a, src)] = dict(vec)
            for tgt, c in vec.items():
                cur = b0m.setdefault((a, tgt), {})
                cur[src] = cur.get(src, 0) - c
    for p in range(nm):
        if h0_eig[p]:
            b0p[(h0, p)] = {p: h0_eig[p]}
            b0m[(h0, p)] = {p: -h0_eig[p]}
    b0m = {k: {q: c for q, c in v.items() if c} for k, v in b0m.items()}
    b0m = {k: v for k, v in b0m.items() if v}

    # Gram matrix of the invariant form on degree 0
    gram_ent = {}
    for i in range(g.dim):
        for j in range(g.dim):
            v = g.kappa(i, j)
            if v:
                gram_ent[(i, j)] = v
    for i in range(r):
        # <h_0|h_i> = B_i0 eps_0 = <h_i|h_0> = B_0i eps_i
        border = data.extended_entry(i, EXT)
        if border:
            hi = g.index[("h", i)]
            gram_ent[(h0, hi)] = gram_ent[(hi, h0)] = border
    try:
        gram_inv = inverse(RatMatrix(n0, n0, gram_ent))
    except ValueError:
        raise ValueError("extended matrix is singular; lambda does not "
                         "extend this Cartan matrix") from None

    # [z_q, x_p] via invariance: B([x_p, z_q], y) = -<x_p|[y, z_q]>
    bpm: dict = {}
    for q in range(nm):
        col_acts = [(y, b0p.get((y, q), {})) for y in range(n0)]
        for p in range(nm):
            rhs = [0] * n0
            for y, vec in col_acts:
                c = vec.get(p)
                if c:
                    rhs[y] = -c
            u = gram_inv.mul_vec(rhs)
            vec = {t: c for t, c in enumerate(u) if c}
            if vec:
                bpm[(q, p)] = vec

    embedding = {("h0",): {h0: 1}}
    for i in range(r):
        si = g.simple_root_index(i)
        embedding[("e", i)] = {g.index[("e", si)]: 1}
        embedding[("f", i)] = {g.index[("f", si)]: 1}
        embedding[("h", i)] = {g.index[("h", i)]: 1}

    grading = {}
    for k in [h0] + [g.index[("h", i)] for i in range(r)]:
        c = gram_inv[k, h0]
        if c:
            grading[k] = c

    return LocalSuperalgebra(
        neg_names=[("x", p) for p in range(nm)],
        neg_weights=[tuple(-w for w in pw) for pw in pos_weights],
        neg_parities=[1] * nm,
        zero_names=zero_names,
        zero_weights=zero_weights,
        zero_parities=[0] * n0,
        pos_names=[("v", p) for p in range(nm)],
        pos_weights=pos_weights,
        pos_parities=[1] * nm,
        b00=b00, b0m=b0m, b0p=b0p, bpm=bpm,
        pairing={(p, p): 1 for p in range(nm)},
        grading=grading,
        embedding=embedding,
    )


def build_graded(data: CartanData,
                 degree_range: tuple[int, int]) -> GradedSuperalgebra:
    """The contragredient superalgebra over the given degree window."""
    return minimal_extension(build_local(data), degree_range)
