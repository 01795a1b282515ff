"""Brute-force oracles built from the Grassmann-derivation model.

A derivation of the Grassmann algebra on n odd generators has basis
xi_S d_i with S a subset of {0..n-1}; its internal degree is |S| - 1,
which corresponds to cartanification degree -(|S| - 1).  The
divergence-free subalgebra is the kernel of xi_S d_i -> d_i(xi_S) with
the usual contraction signs, computed here by exact rank.

W(m|n) is the superalgebra of derivations of the polynomial algebra in
m Grassmann and n polynomial variables (Kac, Lie superalgebras, Adv.
Math. 26 (1977), section 3); with n > 0 it has no lowest degree, so it
is counted on a window.

``weyl_orbit`` enumerates the Weyl orbit of a weight by closing it under
the simple reflections, the brute-force count behind
``CartanData.orbit_size`` and the set behind ``CartanData.orbit``;
``dominant_conjugate`` finds the dominant weight in an orbit by walking
up from the other side.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from gradedlie.linalg import RatMatrix, rank
from gradedlie.rootsys import weyl_reflect


def w_model_dims(n):
    """{cartanification degree: dim} of the full derivation algebra."""
    dims = {}
    for size in range(0, n + 1):
        g = size - 1
        basis = [(s, i) for s in combinations(range(n), size)
                 for i in range(n)]
        if basis:
            dims[-g] = len(basis)
    return dims


def w_super_dims(m, n, lo):
    """{cartanification degree: dim} of W(m|n) on degrees lo..1.

    At degree -k a derivation is a monomial of degree k + 1 times one of
    the m + n partial derivatives; a monomial takes each Grassmann
    variable at most once and the polynomial ones freely."""
    def monomials(d):
        return sum(comb(m, j) * (comb(n + d - j - 1, d - j) if n else d == j)
                   for j in range(min(m, d) + 1))
    return {-k: (m + n) * monomials(k + 1) for k in range(-1, -lo + 1)}


def _contract_sign(s, i):
    """Sign of d_i acting on xi_S (letters of S multiplied in order)."""
    pos = s.index(i)
    return (-1) ** pos


def s_model_dims(n):
    """{cartanification degree: dim} of the divergence-free subalgebra."""
    dims = {}
    for size in range(0, n + 1):
        g = size - 1
        basis = [(s, i) for s in combinations(range(n), size)
                 for i in range(n)]
        if not basis:
            continue
        targets = {}
        entries = {}
        for col, (s, i) in enumerate(basis):
            if i not in s:
                continue
            rest = tuple(x for x in s if x != i)
            row = targets.setdefault(rest, len(targets))
            entries[(row, col)] = Fraction(_contract_sign(s, i))
        if entries:
            mat = RatMatrix(len(targets), len(basis), entries)
            dim = len(basis) - rank(mat)
        else:
            dim = len(basis)
        if dim:
            dims[-g] = dim
    return dims


def levi_civita(n):
    """Dense sign table eps[p] for all permutation tuples p of range(n)."""
    from itertools import permutations
    table = {}
    for p in permutations(range(n)):
        s = 1
        pl = list(p)
        for i in range(n):
            for j in range(i + 1, n):
                if pl[i] > pl[j]:
                    s = -s
        table[p] = s
    return table


def weyl_orbit(data, mu):
    """The Weyl orbit of ``mu``: the closure of {mu} under the simple
    reflections ``rootsys.weyl_reflect``."""
    orbit = {tuple(mu)}
    frontier = list(orbit)
    while frontier:
        new = []
        for w in frontier:
            for k in range(data.r):
                image = weyl_reflect(data, k, w)
                if image not in orbit:
                    orbit.add(image)
                    new.append(image)
        frontier = new
    return orbit


def dominant_conjugate(data, mu):
    """The dominant weight in the Weyl orbit of integral labels ``mu`` on
    finite-type ``data``, reached by simple reflections at negative
    labels, each of which raises the weight by a multiple of a simple
    root."""
    m = tuple(mu)
    if any(Fraction(x).denominator != 1 for x in m):
        raise ValueError("weight %s is not integral" % (list(mu),))
    while True:
        negative = [k for k, x in enumerate(m) if x < 0]
        if not negative:
            return m
        m = weyl_reflect(data, negative[0], m)
