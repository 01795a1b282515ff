"""Words over a local superalgebra with restricted associativity: the
paper's definition of the cartanification, kept as the oracle that
``gradedlie.cartan``'s closed form is checked against.

Given a local superalgebra with grading element L and an invariant pairing
between the wings, the span of words in basis letters of degrees -1, 0, 1
carries a product: words of one sign multiply by concatenation (with the
enveloping-algebra reordering of degree-0 letters), and a product of
opposite wings reduces pairwise through

    x_{-1} y_{1} = -[[x_-1, y_1]] + <x_-1|y_1> L ,
    x_{1} y_{-1} =  [[x_1, y_-1]] + <x_1|y_-1> L + <x_1|y_-1> ,

where [[-,-]] is the bracket of the local part, applied innermost first.
For two odd letters [[x, y]] = [[y, x]]; written with x first, the rules
hold for letters of either parity, which is what makes the product
associative on x_{-1} u_0 z_1 when degree 0 has odd letters.
The pairing changes sign under swapping its arguments when both are odd and
keeps it when both are even.  The product is associative for X z Y with X a
left-canonical word, Y right-canonical of the opposite wing and z a single
letter, which is exactly enough for the commutator to define a local Lie
superalgebra on the words of degrees -1, 0, 1.  The cartanification
quotients the degree -1 words x_{-1} y_0 by the kernel of their action on
degree +1.
"""

from __future__ import annotations

from fractions import Fraction

from gradedlie.graded import LocalSuperalgebra
from gradedlie.linalg import vadd_into

_ONE = Fraction(1)
_HALF = Fraction(1, 2)

# A letter is (degree, basis index) with degree in {-1, 0, 1}; a word is a
# tuple of letters, () being the scalar 1; an element maps words to
# coefficients.  Canonical words have all degree-0 letters first, sorted by
# index, followed by letters of a single nonzero degree.


class LocAlgebra:
    """Product engine on words over a local superalgebra."""

    def __init__(self, local: LocalSuperalgebra, cap: int = 8):
        if local.grading is None:
            raise ValueError("local part has no grading element")
        self.local = local
        self.cap = cap
        self._norm_cache: dict = {}
        self._prod_cache: dict = {}

    # -- letters and words ------------------------------------------------

    def letter_parity(self, letter) -> int:
        deg, idx = letter
        return self.local.parities_at(deg)[idx]

    def word_parity(self, word) -> int:
        return sum(self.letter_parity(l) for l in word) % 2

    def from_vec(self, deg: int, vec) -> dict:
        return {((deg, i),): Fraction(c) for i, c in vec.items() if c}

    def grading_element(self) -> dict:
        return self.from_vec(0, self.local.grading)

    # -- pairing with swap signs -------------------------------------------

    def _pair_np(self, i: int, j: int) -> Fraction:
        pairing = self.local.pairing or {}
        return Fraction(pairing.get((i, j), 0))

    def _pair_pn(self, i: int, j: int) -> Fraction:
        # <x_1|y_-1> from the stored <y_-1|x_1>: sign -(-1)^((p+1)(q+1)).
        val = self._pair_np(j, i)
        if not val:
            return val
        p = self.local.parities_at(1)[i]
        q = self.local.parities_at(-1)[j]
        return -val if (p + 1) * (q + 1) % 2 == 0 else val

    # -- normal form ---------------------------------------------------------

    def _norm(self, word) -> dict:
        cached = self._norm_cache.get(word)
        if cached is not None:
            return cached
        if len(word) > self.cap:
            raise ValueError(
                "word length exceeds the cap of %d letters" % self.cap)
        out = None
        for i in range(len(word) - 1):
            (da, ia), (db, ib) = word[i], word[i + 1]
            swap = (da != 0 and db == 0) or (da == 0 == db and ia > ib)
            if swap:
                sign = -_ONE if self.letter_parity(word[i]) and \
                    self.letter_parity(word[i + 1]) else _ONE
                swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2:]
                out = {w: sign * c for w, c in self._norm(swapped).items()}
                br = self.local.bracket(da, ia, db, ib)
                for k, c in br.items():
                    rep = word[:i] + ((da, k),) + word[i + 2:]
                    vadd_into(out, self._norm(rep), c)
                break
            if da == 0 == db and ia == ib and self.letter_parity(word[i]):
                out = {}
                br = self.local.bracket(0, ia, 0, ia)
                for k, c in br.items():
                    rep = word[:i] + ((0, k),) + word[i + 2:]
                    vadd_into(out, self._norm(rep), c * _HALF)
                break
        if out is None:
            signs = {deg for deg, _ in word if deg != 0}
            if len(signs) > 1:
                raise ValueError("mixed wings in a canonical word")
            out = {word: _ONE}
        self._norm_cache[word] = out
        return out

    def _tail_sign(self, word) -> int:
        for deg, _ in word:
            if deg != 0:
                return deg
        return 0

    def _tu(self, word) -> dict:
        """Rewrite a canonical word with the degree-0 block on the right."""
        for i in range(len(word) - 1):
            (da, ia), (db, ib) = word[i], word[i + 1]
            if da == 0 and db != 0:
                sign = -_ONE if self.letter_parity(word[i]) and \
                    self.letter_parity(word[i + 1]) else _ONE
                swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2:]
                out = {w: sign * c for w, c in self._tu(swapped).items()}
                br = self.local.bracket(da, ia, db, ib)
                for k, c in br.items():
                    rep = word[:i] + ((db, k),) + word[i + 2:]
                    vadd_into(out, self._tu(rep), c)
                return out
        return {word: _ONE}

    # -- product ---------------------------------------------------------------

    def _core(self, x, y) -> dict:
        """The two-letter reduction of opposite-wing letters x y."""
        (dx, ix), (_, iy) = x, y
        out: dict = {}
        if dx == -1:
            br = self.local.bracket(-1, ix, 1, iy)
            for k, c in br.items():
                vadd_into(out, {((0, k),): -c})
            pv = self._pair_np(ix, iy)
        else:
            br = self.local.bracket(1, ix, -1, iy)
            for k, c in br.items():
                vadd_into(out, {((0, k),): c})
            pv = self._pair_pn(ix, iy)
            if pv:
                vadd_into(out, {(): pv})
        if pv:
            for k, c in self.local.grading.items():
                vadd_into(out, {((0, k),): pv * c})
        return out

    def _wprod(self, w1, w2) -> dict:
        if not w1 or not w2:
            return {w1 + w2: _ONE}
        key = (w1, w2)
        cached = self._prod_cache.get(key)
        if cached is not None:
            return cached
        s1 = self._tail_sign(w1)
        s2 = self._tail_sign(w2)
        if s1 == 0 or s2 == 0 or s1 == s2:
            out = self._norm(w1 + w2)
        else:
            out = {}
            x = w1[-1]
            head = w1[:-1]
            for tu_word, c in self._tu(w2).items():
                if not tu_word or tu_word[0][0] == 0:
                    vadd_into(out, self._norm(w1 + tu_word), c)
                    continue
                y = tu_word[0]
                rest = self._norm(tu_word[1:])
                for cw, cc in self._core(x, y).items():
                    for hw, hc in self._norm(head + cw).items():
                        for rw, rc in rest.items():
                            vadd_into(out, self._wprod(hw, rw),
                                      c * cc * hc * rc)
        self._prod_cache[key] = out
        return out

    def product(self, a: dict, b: dict) -> dict:
        out: dict = {}
        for w1, c1 in a.items():
            for w2, c2 in b.items():
                c = c1 * c2
                if c:
                    vadd_into(out, self._wprod(w1, w2), c)
        return out

    def commutator(self, a: dict, b: dict) -> dict:
        out: dict = {}
        for w1, c1 in a.items():
            p1 = self.word_parity(w1)
            for w2, c2 in b.items():
                c = c1 * c2
                if not c:
                    continue
                vadd_into(out, self._wprod(w1, w2), c)
                sign = -_ONE if p1 and self.word_parity(w2) else _ONE
                vadd_into(out, self._wprod(w2, w1), -sign * c)
        return out

    def associator(self, x: dict, z: dict, y: dict) -> dict:
        left = self.product(self.product(x, z), y)
        return vadd_into(left, self.product(x, self.product(z, y)), -_ONE)

    # -- degree-0 values ---------------------------------------------------

    def zero_coords(self, el: dict) -> dict:
        """Sparse coordinates of an element supported on words of length at
        most one, keys 0..nzero with 0 the scalar slot."""
        coords: dict = {}
        for w, c in el.items():
            if not w:
                coords[0] = coords.get(0, 0) + c
            elif len(w) == 1 and w[0][0] == 0:
                k = 1 + w[0][1]
                coords[k] = coords.get(k, 0) + c
            else:
                raise ValueError(
                    "value is not supported on degree-0 letters")
        return {k: c for k, c in coords.items() if c}
