"""Exact rational sparse linear algebra shared by every engine.

A matrix is a mapping ``(row, col) -> Fraction`` with no explicit zeros;
iteration over entries is always in sorted ``(row, col)`` order, so every
derived object (echelon forms, kernel bases, solved coordinates) is
reproducible run to run.  All arithmetic is exact: values are
``fractions.Fraction`` throughout, reduced by construction, and no
floating-point path exists anywhere in the package.  The one elimination
kernel behind ``rref``, ``rank`` and ``kernel_basis`` clears
denominators and works on integer rows, returning ``Fraction``s.

The engines also share the helpers below on sparse objects without a
fixed shape: sparse vectors ``{index: Fraction}`` (``vadd_into``,
``vadd``, ``vscale``), column-sparse matrices ``{src: {tgt: Fraction}}``
(``mat_apply``, ``mat_compose``, ``mat_sub``, ``mat_scale``), the
incremental ``Span`` of sparse vectors, which also gives a vector's
coordinates over its basis, and ``stack_columns``, which
turns one weight block of sparse columns into a ``RatMatrix``.  None of
them stores a zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Mapping, Sequence

Rational = Fraction

__all__ = [
    "Rational",
    "RatMatrix",
    "rref",
    "rank",
    "kernel_basis",
    "inverse",
    "dot",
    "vadd_into",
    "vadd",
    "vscale",
    "mat_apply",
    "mat_compose",
    "mat_sub",
    "mat_scale",
    "Span",
    "stack_columns",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def dot(u: Sequence, v: Sequence) -> Fraction:
    """Exact dot product of two equal-length coefficient vectors."""
    if len(u) != len(v):
        raise ValueError("dot: length mismatch %d vs %d" % (len(u), len(v)))
    total = _ZERO
    for a, b in zip(u, v):
        if a and b:
            total += _frac(a) * _frac(b)
    return total


# -- sparse vectors {index: Fraction} -----------------------------------------


def vadd_into(out: dict, b: Mapping, scale=_ONE) -> dict:
    """out += scale * b, in place, dropping entries that cancel; returns out.

    A scale of 1 or -1 adds ``b`` or ``-b`` without a multiplication."""
    unit = scale == 1
    negate = not unit and scale == -1
    for k, v in b.items():
        if negate:
            v = -v
        elif not unit:
            v = scale * v
        s = out.get(k)
        if s is None:
            if v:
                out[k] = _frac(v)
        else:
            s += v
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def vadd(a: Mapping, b: Mapping, scale=_ONE) -> dict:
    """a + scale * b as a new vector."""
    return vadd_into(dict(a), b, scale)


def vscale(a: Mapping, c) -> dict:
    """c * a as a new vector."""
    if not c:
        return {}
    return {k: c * v for k, v in a.items()}


# -- column-sparse matrices {src: {tgt: Fraction}} ----------------------------


def mat_apply(mat: Mapping, vec: Mapping) -> dict:
    """The image of a sparse vector under a column-sparse matrix."""
    out: dict = {}
    for src, c in vec.items():
        col = mat.get(src)
        if col:
            vadd_into(out, col, c)
    return out


def mat_compose(ma: Mapping, mb: Mapping) -> dict:
    """ma after mb."""
    out: dict = {}
    for src, vec in mb.items():
        col = mat_apply(ma, vec)
        if col:
            out[src] = col
    return out


def mat_sub(ma: Mapping, mb: Mapping) -> dict:
    """ma - mb."""
    out = {src: dict(vec) for src, vec in ma.items()}
    for src, vec in mb.items():
        if not vadd_into(out.setdefault(src, {}), vec, -_ONE):
            del out[src]
    return out


def mat_scale(mat: Mapping, c) -> dict:
    """c * mat."""
    if not c:
        return {}
    return {src: {tgt: v * c for tgt, v in vec.items()}
            for src, vec in mat.items()}


class RatMatrix:
    """Sparse matrix over the rationals.  Immutable after construction.

    Entries are held in a dict keyed by (row, col); zeros are never stored.
    All public accessors that enumerate entries do so in sorted key order.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int,
                 entries: Mapping[tuple[int, int], object] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        clean: dict[tuple[int, int], Fraction] = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError("entry (%d,%d) outside %dx%d matrix"
                                     % (i, j, rows, cols))
                fv = _frac(v)
                if fv:
                    clean[(i, j)] = fv
        self.entries = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> RatMatrix:
        rows = len(data)
        cols = len(data[0]) if rows else 0
        ent = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    ent[(i, j)] = _frac(v)
        return cls(rows, cols, ent)

    @classmethod
    def identity(cls, n: int) -> RatMatrix:
        return cls(n, n, {(i, i): _ONE for i in range(n)})

    @classmethod
    def zeros(cls, rows: int, cols: int) -> RatMatrix:
        return cls(rows, cols)

    @classmethod
    def vstack(cls, blocks: Sequence[RatMatrix]) -> RatMatrix:
        if not blocks:
            return cls(0, 0)
        cols = blocks[0].cols
        ent = {}
        off = 0
        for b in blocks:
            if b.cols != cols:
                raise ValueError("vstack: column count mismatch")
            for (i, j), v in b.entries.items():
                ent[(off + i, j)] = v
            off += b.rows
        return cls(off, cols, ent)

    @classmethod
    def hstack(cls, blocks: Sequence[RatMatrix]) -> RatMatrix:
        if not blocks:
            return cls(0, 0)
        rows = blocks[0].rows
        ent = {}
        off = 0
        for b in blocks:
            if b.rows != rows:
                raise ValueError("hstack: row count mismatch")
            for (i, j), v in b.entries.items():
                ent[(i, off + j)] = v
            off += b.cols
        return cls(rows, off, ent)

    # -- accessors ---------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries.get((i, j), _ZERO)

    def items(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        """Nonzero entries in sorted (row, col) order."""
        for key in sorted(self.entries):
            yield key, self.entries[key]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return tuple(self.entries.get((i, j), _ZERO) for j in range(self.cols))

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.entries.get((i, j), _ZERO) for i in range(self.rows))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    __hash__ = None

    def __repr__(self) -> str:
        return "RatMatrix(%d, %d, %d nonzero)" % (
            self.rows, self.cols, len(self.entries))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: RatMatrix) -> RatMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in +")
        ent = dict(self.entries)
        for k, v in other.entries.items():
            s = ent.get(k, _ZERO) + v
            if s:
                ent[k] = s
            else:
                ent.pop(k, None)
        return RatMatrix(self.rows, self.cols, ent)

    def __neg__(self) -> RatMatrix:
        return RatMatrix(self.rows, self.cols,
                         {k: -v for k, v in self.entries.items()})

    def __sub__(self, other: RatMatrix) -> RatMatrix:
        return self + (-other)

    def scale(self, c) -> RatMatrix:
        fc = _frac(c)
        if not fc:
            return RatMatrix(self.rows, self.cols)
        return RatMatrix(self.rows, self.cols,
                         {k: fc * v for k, v in self.entries.items()})

    def __matmul__(self, other: RatMatrix) -> RatMatrix:
        if self.cols != other.rows:
            raise ValueError("shape mismatch in @: %dx%d @ %dx%d" % (
                self.rows, self.cols, other.rows, other.cols))
        # group the right factor by row once, then sweep the left entries
        by_row: dict[int, list[tuple[int, Fraction]]] = {}
        for (i, j), v in other.entries.items():
            by_row.setdefault(i, []).append((j, v))
        acc: dict[tuple[int, int], Fraction] = {}
        for (i, k), a in self.entries.items():
            hits = by_row.get(k)
            if not hits:
                continue
            for j, b in hits:
                key = (i, j)
                s = acc.get(key, _ZERO) + a * b
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        return RatMatrix(self.rows, other.cols, acc)

    def mul_vec(self, v: Sequence) -> tuple[Fraction, ...]:
        """Matrix-vector product, returning a dense tuple."""
        if len(v) != self.cols:
            raise ValueError("mul_vec: length %d != cols %d" % (len(v), self.cols))
        out = [_ZERO] * self.rows
        for (i, j), a in self.entries.items():
            x = v[j]
            if x:
                out[i] += a * _frac(x)
        return tuple(out)

    def transpose(self) -> RatMatrix:
        return RatMatrix(self.cols, self.rows,
                         {(j, i): v for (i, j), v in self.entries.items()})


# -- echelon forms and derived data ---------------------------------------


def _row_dicts(m: RatMatrix) -> list[dict[int, Fraction]]:
    rows: list[dict[int, Fraction]] = [dict() for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    return rows


def _reduce(rows: list[dict[int, Fraction]], cols: int) -> list[int]:
    """In-place Gauss-Jordan reduction; returns the pivot column list.

    Pivot selection is deterministic: scan columns left to right, take the
    first not-yet-used row with a nonzero entry.  Rows are fully reduced
    (eliminated above and below, pivots scaled to 1), so the result is the
    unique RREF of the row space.

    The elimination runs over ``int``.  Each row is first scaled by the
    lcm of its denominators, which leaves the row space and hence the RREF
    unchanged.  A row with entry ``f`` in the column of a pivot ``p``
    becomes ``(p * row - f * pivot_row) / gcd(p, f)`` and is then divided
    by the gcd of its entries, so every row stays primitive and its
    integers stay small.  Only the returned rows are turned back into
    ``Fraction``s, each divided by its pivot entry.
    """
    nrows = len(rows)
    irows: list[dict[int, int]] = []
    for row in rows:
        den = lcm(*[v.denominator for v in row.values()])
        irows.append(_primitive(
            {k: v.numerator * (den // v.denominator) for k, v in row.items()}))
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        sel = -1
        for i in range(r, nrows):
            if c in irows[i]:
                sel = i
                break
        if sel < 0:
            continue
        irows[r], irows[sel] = irows[sel], irows[r]
        piv = irows[r]
        pc = piv[c]
        for i in range(nrows):
            if i == r:
                continue
            row = irows[i]
            f = row.get(c)
            if f is None:
                continue
            g = gcd(pc, f)
            a, b = pc // g, f // g
            if a != 1:
                for k in row:
                    row[k] *= a
            for k, v in piv.items():
                s = row.get(k, 0) - b * v
                if s:
                    row[k] = s
                else:
                    del row[k]
            irows[i] = _primitive(row)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i, row in enumerate(irows):
        if i < r:
            pc = row[pivots[i]]
            rows[i] = {k: Fraction(v, pc) for k, v in row.items()}
        else:
            rows[i] = {}
    return pivots


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        return {k: v // g for k, v in row.items()}
    return row


def rref(m: RatMatrix) -> tuple[RatMatrix, list[int]]:
    """Reduced row-echelon form and the (strictly increasing) pivot columns."""
    rows = _row_dicts(m)
    pivots = _reduce(rows, m.cols)
    ent = {}
    for i, row in enumerate(rows):
        for j, v in row.items():
            ent[(i, j)] = v
    return RatMatrix(m.rows, m.cols, ent), pivots


def rank(m: RatMatrix) -> int:
    rows = _row_dicts(m)
    return len(_reduce(rows, m.cols))


def kernel_basis(m: RatMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space {v : M v = 0}.

    One vector per free column, in increasing free-column order, with a 1 in
    the free coordinate — the standard back-substitution basis off the RREF,
    hence canonical for a given matrix.
    """
    rows = _row_dicts(m)
    pivots = _reduce(rows, m.cols)
    pivot_set = set(pivots)
    prow = {c: i for i, c in enumerate(pivots)}
    basis = []
    for fc in range(m.cols):
        if fc in pivot_set:
            continue
        v = [_ZERO] * m.cols
        v[fc] = _ONE
        for c in pivots:
            val = rows[prow[c]].get(fc)
            if val:
                v[c] = -val
        basis.append(tuple(v))
    return basis


def stack_columns(columns: Sequence[Mapping]) -> tuple[RatMatrix, dict]:
    """One weight block of sparse columns ``{row key: value}`` as a matrix.

    Returns the matrix and the row index ``{row key: row}``, rows numbered
    in first-seen order.  The matrix has at least one row, so a block of
    zero columns keeps its columns.  Row order changes no result read off
    the unique RREF: pivots, reduced columns, kernel bases and solutions.
    """
    row_index: dict = {}
    entries = {}
    for col, vec in enumerate(columns):
        for key, c in vec.items():
            entries[(row_index.setdefault(key, len(row_index)), col)] = c
    return (RatMatrix(max(len(row_index), 1), len(columns), entries),
            row_index)


class Span:
    """Incremental span of sparse vectors, in echelon form.

    Each row is reduced on its minimum index against the rows held, which
    stay sorted by that index; a vector that reduces to zero is dependent.
    """

    def __init__(self):
        self.rows: list[dict] = []

    def add(self, vec: Mapping) -> bool:
        """Add vec if it is independent of the rows; report whether it was."""
        v = dict(vec)
        for b in self.rows:
            lead = min(b)
            if v.get(lead):
                vadd_into(v, b, -(v[lead] / b[lead]))
        if not v:
            return False
        self.rows.append(v)
        self.rows.sort(key=min)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def express(self, vec: Mapping) -> dict | None:
        """Coordinates ``{k: c}`` of vec over ``basis()``, or None when vec
        is outside the span."""
        v = dict(vec)
        out = {}
        for k, b in enumerate(self.rows):
            lead = min(b)
            c = v.get(lead)
            if c:
                vadd_into(v, b, -(c / b[lead]))
                out[k] = c
        return None if v else out

    def basis(self) -> list[dict]:
        """The rows scaled to unit leading coefficient."""
        out = []
        for v in self.rows:
            lead = v[min(v)]
            out.append({i: c / lead for i, c in v.items()})
        return out


def inverse(m: RatMatrix) -> RatMatrix:
    """Exact inverse of a square matrix; raises ValueError if singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    aug = RatMatrix.hstack([m, RatMatrix.identity(n)])
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    ent = {}
    for (i, j), v in red.entries.items():
        if j >= n:
            ent[(i, j - n)] = v
    return RatMatrix(n, n, ent)
