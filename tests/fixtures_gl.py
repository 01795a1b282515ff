"""Hand-built gl(n) local superalgebras in tensor conventions.

Independent of the Chevalley-basis construction: degree 0 is gl(n) with
basis K^a_b, the plus wing carries odd lowest-weight tensors E (vectors
E_a or two-forms E_ab), the minus wing their odd duals F, and the grading
element is the appropriate multiple of K = sum_a K^a_a.  All structure
constants are entered from the tensor formulas, so these serve as oracles
for the word-algebra and cartanification code.
"""

from __future__ import annotations

from fractions import Fraction

from gradedlie.graded import LocalSuperalgebra

F0 = Fraction(0)
F1 = Fraction(1)


def _kbasis(n):
    pairs = [(a, b) for a in range(n) for b in range(n)]
    idx = {p: i for i, p in enumerate(pairs)}
    b00 = {}
    for (a, b) in pairs:
        for (c, d) in pairs:
            vec = {}
            if b == c:
                vec[idx[(a, d)]] = vec.get(idx[(a, d)], F0) + 1
            if d == a:
                vec[idx[(c, b)]] = vec.get(idx[(c, b)], F0) - 1
            vec = {k: v for k, v in vec.items() if v}
            if vec:
                b00[(idx[(a, b)], idx[(c, d)])] = vec
    kweights = [tuple(F1 * ((a == c) - (b == c)) for c in range(n))
                for (a, b) in pairs]
    return pairs, idx, b00, kweights


def glvec_local(n):
    """gl(n) with odd vectors: E_a at degree +1 of weight -e_a, duals F^a
    at degree -1, [K^a_b, E_c] = -delta_c^a E_b, [K^a_b, F^c] =
    delta_b^c F^a, [E_a, F^b] = -K^b_a + delta_a^b K, <E_a|F^b> =
    delta_a^b, grading element L = -K."""
    pairs, idx, b00, kweights = _kbasis(n)
    b0p = {}
    b0m = {}
    for (a, b) in pairs:
        b0p[(idx[(a, b)], a)] = {b: -F1}
        b0m[(idx[(a, b)], b)] = {a: F1}
    bpm = {}
    for a in range(n):
        for b in range(n):
            vec = {idx[(b, a)]: -F1}
            if a == b:
                for c in range(n):
                    vec[idx[(c, c)]] = vec.get(idx[(c, c)], F0) + 1
            bpm[(a, b)] = {k: v for k, v in vec.items() if v}
    return LocalSuperalgebra(
        neg_names=[("F", a) for a in range(n)],
        neg_weights=[tuple(F1 * (a == c) for c in range(n))
                     for a in range(n)],
        neg_parities=[1] * n,
        zero_names=[("K", a, b) for (a, b) in pairs],
        zero_weights=kweights,
        zero_parities=[0] * len(pairs),
        pos_names=[("E", a) for a in range(n)],
        pos_weights=[tuple(-F1 * (a == c) for c in range(n))
                     for a in range(n)],
        pos_parities=[1] * n,
        b00=b00, b0m=b0m, b0p=b0p, bpm=bpm,
        pairing={(a, a): -F1 for a in range(n)},
        grading={idx[(a, a)]: -F1 for a in range(n)},
    )


def glvec_super_local(m, n):
    """gl(m|n) with a vector wing: indices a < m even and a >= m odd,
    |a| their parity.  K^a_b has parity |a| + |b|, E_a at degree +1
    (weight -e_a) and its dual F^a at degree -1 have parity |a| + 1.
    The brackets are those of the matrix units of gl(m|n+1) modulo the
    identity, with one more odd index *: K^a_b = e_ab, E_a = e_*a,
    F^a = -e_a*, e_** = -K, the grading element is L = -K and the pairing
    is the supertrace form.  Writing s(a, b) = (-1)^{|a||b|},

        [K^a_b, K^c_d] = delta_b^c K^a_d
                         - s(|a|+|b|, |c|+|d|) delta_d^a K^c_b ,
        [K^a_b, E_c] = -s(|a|+|b|, |a|+1) delta_c^a E_b ,
        [K^a_b, F^c] = delta_b^c F^a ,
        [E_a, F^b] = s(|a|+1, |b|+1) K^b_a + delta_a^b K ,
        <F^a|E_b> = -(-1)^{|a|} delta_a^b .

    With n = 0 this is ``glvec_local(m)``.
    """
    size = m + n
    par = [int(a >= m) for a in range(size)]

    def sign(p, q):
        return -F1 if p % 2 and q % 2 else F1

    pairs = [(a, b) for a in range(size) for b in range(size)]
    idx = {p: i for i, p in enumerate(pairs)}
    b00 = {}
    for (a, b) in pairs:
        for (c, d) in pairs:
            vec = {}
            if b == c:
                vec[idx[(a, d)]] = vec.get(idx[(a, d)], F0) + 1
            if d == a:
                vec[idx[(c, b)]] = vec.get(idx[(c, b)], F0) \
                    - sign(par[a] + par[b], par[c] + par[d])
            vec = {k: v for k, v in vec.items() if v}
            if vec:
                b00[(idx[(a, b)], idx[(c, d)])] = vec
    b0p = {}
    b0m = {}
    for (a, b) in pairs:
        b0p[(idx[(a, b)], a)] = {b: -sign(par[a] + par[b], par[a] + 1)}
        b0m[(idx[(a, b)], b)] = {a: F1}
    bpm = {}
    for a in range(size):
        for b in range(size):
            vec = {idx[(b, a)]: sign(par[a] + 1, par[b] + 1)}
            if a == b:
                for c in range(size):
                    vec[idx[(c, c)]] = vec.get(idx[(c, c)], F0) + 1
            bpm[(a, b)] = {k: v for k, v in vec.items() if v}
    return LocalSuperalgebra(
        neg_names=[("F", a) for a in range(size)],
        neg_weights=[tuple(F1 * (a == c) for c in range(size))
                     for a in range(size)],
        neg_parities=[1 - p for p in par],
        zero_names=[("K", a, b) for (a, b) in pairs],
        zero_weights=[tuple(F1 * ((a == c) - (b == c)) for c in range(size))
                      for (a, b) in pairs],
        zero_parities=[(par[a] + par[b]) % 2 for (a, b) in pairs],
        pos_names=[("E", a) for a in range(size)],
        pos_weights=[tuple(-F1 * (a == c) for c in range(size))
                     for a in range(size)],
        pos_parities=[1 - p for p in par],
        b00=b00, b0m=b0m, b0p=b0p, bpm=bpm,
        pairing={(a, a): -sign(par[a], 1) for a in range(size)},
        grading={idx[(a, a)]: -F1 for a in range(size)},
    )


def graded_gl_local(parities, degrees):
    """The degree -1/0/1 slice of pgl(V) = gl(V) modulo the identity, for
    V with basis v_i of parity ``parities[i]`` and degree ``degrees[i]``.
    The matrix unit e_ij has parity |i| + |j|, degree deg(i) - deg(j) and
    weight e_i - e_j, and

        [e_ij, e_kl] = delta_jk e_il - (-1)^{(|i|+|j|)(|k|+|l|)} delta_li e_kj .

    Degree 0 has the basis e_ij with deg(i) = deg(j) except the last
    diagonal unit, which is minus the sum of the others modulo the
    identity; the grading element is sum_i deg(i) e_ii.  Its minimal
    extension is pgl(V) again, with nonzero degrees up to the spread of
    ``degrees``; there is no pairing.
    """
    size = len(parities)
    last = size - 1
    units = {d: [(i, j) for i in range(size) for j in range(size)
                 if degrees[i] - degrees[j] == d and (i, j) != (last, last)]
             for d in (-1, 0, 1)}
    index = {d: {u: t for t, u in enumerate(units[d])} for d in units}

    def unit_parity(i, j):
        return (parities[i] + parities[j]) % 2

    def coords(d, i, j, coeff, out):
        if (i, j) == (last, last):
            for k in range(last):
                out[index[d][(k, k)]] = out.get(index[d][(k, k)], F0) - coeff
        else:
            out[index[d][(i, j)]] = out.get(index[d][(i, j)], F0) + coeff

    def table(da, db):
        out = {}
        for s, (i, j) in enumerate(units[da]):
            for t, (k, l) in enumerate(units[db]):
                vec = {}
                if j == k:
                    coords(da + db, i, l, F1, vec)
                if l == i:
                    odd = unit_parity(i, j) and unit_parity(k, l)
                    coords(da + db, k, j, F1 if odd else -F1, vec)
                vec = {key: c for key, c in vec.items() if c}
                if vec:
                    out[(s, t)] = vec
        return out

    def names(d):
        return [("e", i, j) for i, j in units[d]]

    def weights(d):
        return [tuple(F1 * ((i == c) - (j == c)) for c in range(size))
                for i, j in units[d]]

    def unit_parities(d):
        return [unit_parity(i, j) for i, j in units[d]]

    grading = {}
    for i in range(size):
        if degrees[i]:
            coords(0, i, i, F1 * degrees[i], grading)
    return LocalSuperalgebra(
        neg_names=names(-1), neg_weights=weights(-1),
        neg_parities=unit_parities(-1),
        zero_names=names(0), zero_weights=weights(0),
        zero_parities=unit_parities(0),
        pos_names=names(1), pos_weights=weights(1),
        pos_parities=unit_parities(1),
        b00=table(0, 0), b0m=table(0, -1), b0p=table(0, 1), bpm=table(1, -1),
        grading={key: c for key, c in grading.items() if c},
    )


def gl2form_local(n=5):
    """gl(n) with odd two-forms: E_ab (a<b) at degree +1 of weight
    -e_a-e_b, duals F^ab at degree -1, grading element L = -K/2, and

        [K^a_b, E_cd] = delta_c^a E_db - delta_d^a E_cb ,
        [K^a_b, F^cd] = -delta_b^c F^da + delta_b^d F^ca ,
        [E_ab, F^cd] = -delta_a^c K^d_b + delta_b^c K^d_a
                       + delta_a^d K^c_b - delta_b^d K^c_a
                       + (delta_a^c delta_b^d - delta_b^c delta_a^d) K ,
        <E_ab|F^cd> = delta_a^c delta_b^d - delta_b^c delta_a^d .
    """
    pairs, idx, b00, kweights = _kbasis(n)
    duos = [(a, b) for a in range(n) for b in range(a + 1, n)]
    didx = {p: i for i, p in enumerate(duos)}

    def dput(vec, i, j, coeff):
        if i == j or not coeff:
            return
        if i < j:
            vec[didx[(i, j)]] = vec.get(didx[(i, j)], F0) + coeff
        else:
            vec[didx[(j, i)]] = vec.get(didx[(j, i)], F0) - coeff

    b0p = {}
    b0m = {}
    for (a, b) in pairs:
        for t, (c, d) in enumerate(duos):
            vec: dict = {}
            if c == a:
                dput(vec, d, b, F1)
            if d == a:
                dput(vec, c, b, -F1)
            vec = {k: v for k, v in vec.items() if v}
            if vec:
                b0p[(idx[(a, b)], t)] = vec
            vec = {}
            if b == c:
                dput(vec, d, a, -F1)
            if b == d:
                dput(vec, c, a, F1)
            vec = {k: v for k, v in vec.items() if v}
            if vec:
                b0m[(idx[(a, b)], t)] = vec
    bpm = {}
    for q, (a, b) in enumerate(duos):
        for t, (c, d) in enumerate(duos):
            vec: dict = {}
            for (up, lo, s) in (((d, b), a == c, -F1), ((d, a), b == c, F1),
                                ((c, b), a == d, F1), ((c, a), b == d, -F1)):
                if lo:
                    k = idx[up]
                    vec[k] = vec.get(k, F0) + s
            delta = (F1 if (a, b) == (c, d) else F0)
            if delta:
                for e in range(n):
                    k = idx[(e, e)]
                    vec[k] = vec.get(k, F0) + delta
            vec = {k: v for k, v in vec.items() if v}
            if vec:
                bpm[(q, t)] = vec
    half = Fraction(1, 2)
    return LocalSuperalgebra(
        neg_names=[("F", a, b) for (a, b) in duos],
        neg_weights=[tuple(F1 * ((a == c) + (b == c)) for c in range(n))
                     for (a, b) in duos],
        neg_parities=[1] * len(duos),
        zero_names=[("K", a, b) for (a, b) in pairs],
        zero_weights=kweights,
        zero_parities=[0] * len(pairs),
        pos_names=[("E", a, b) for (a, b) in duos],
        pos_weights=[tuple(-F1 * ((a == c) + (b == c)) for c in range(n))
                     for (a, b) in duos],
        pos_parities=[1] * len(duos),
        b00=b00, b0m=b0m, b0p=b0p, bpm=bpm,
        pairing={(t, t): -F1 for t in range(len(duos))},
        grading={idx[(a, a)]: -half for a in range(n)},
    )


def sl_block(n, block):
    """Basis of the traceless block subalgebra of gl(n) on the given
    index set, as sparse vectors over the K^a_b basis."""
    pairs, idx, _, _ = _kbasis(n)
    block = sorted(block)
    out = []
    for a in block:
        for b in block:
            if a != b:
                out.append({idx[(a, b)]: F1})
    for a, b in zip(block, block[1:]):
        out.append({idx[(a, a)]: F1, idx[(b, b)]: -F1})
    return out
