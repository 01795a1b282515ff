"""Exact rational sparse linear algebra shared by every engine.

Every scalar the package stores is an exact rational in one normal form:
an ``int`` when it is integral, and otherwise a ``fractions.Fraction``
with denominator greater than 1.  ``qnorm`` brings a value to that form
and ``qdiv`` is the package's one division, exact and in normal form
(``int / int`` would be a float).  On Cartan data almost every structure
constant, class coefficient and weight is a small integer, so the
arithmetic runs on ``int`` and a ``Fraction`` appears only where a value
is not integral.  No floating-point path exists anywhere in the package.

A ``RatMatrix`` is a mapping ``(row, col) -> value`` with no explicit
zeros.  What is derived from it (echelon forms, kernel bases, inverses)
is read off the unique reduced row-echelon form, so it depends on the
entries alone and is reproducible run to run.  The one elimination
kernel behind ``rref``, ``rank``, ``kernel_basis`` and ``inverse`` clears
denominators and works on integer rows.

The engines also share the helpers below on sparse objects without a
fixed shape: sparse vectors ``{index: value}`` (``vadd_into``, ``vadd``,
``vscale``), column-sparse matrices ``{src: {tgt: value}}``
(``mat_apply``, ``mat_compose``, ``mat_sub``, ``mat_scale``), the
incremental ``Span`` of sparse vectors, which also gives a vector's
coordinates over its basis, and ``stack_columns``, which
turns one weight block of sparse columns into a ``RatMatrix``.  None of
them stores a zero, and each stores only normal-form values.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

__all__ = [
    "qnorm",
    "qdiv",
    "RatMatrix",
    "rref",
    "rank",
    "kernel_basis",
    "inverse",
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

# -- exact scalars ---------------------------------------------------------


def qnorm(x) -> int | Fraction:
    """The normal form of an exact rational: an ``int`` when it is
    integral, a ``Fraction`` otherwise.  Accepts what ``Fraction`` does,
    so a ``bool`` or a "p/q" string comes back as a number."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def qdiv(a, b) -> int | Fraction:
    """a / b, exact and in normal form."""
    if type(a) is Fraction or type(b) is Fraction:
        q = a / b
        return q.numerator if q.denominator == 1 else q
    q, rem = divmod(a, b)
    return Fraction(a, b) if rem else q


# -- sparse vectors {index: value} --------------------------------------------


def vadd_into(out: dict, b: Mapping, scale=1) -> dict:
    """out += scale * b, in place, dropping entries that cancel; returns out.

    A scale of 1 or -1 adds ``b`` or ``-b`` without a multiplication.
    Each stored value is brought to normal form."""
    unit = scale == 1
    negate = not unit and scale == -1
    for k, v in b.items():
        if negate:
            v = -v
        elif not unit:
            v = scale * v
        s = out.get(k)
        if s is not None:
            v += s
            if not v:
                del out[k]
                continue
        elif not v:
            continue
        if type(v) is Fraction and v.denominator == 1:
            v = v.numerator
        out[k] = v
    return out


def vadd(a: Mapping, b: Mapping, scale=1) -> dict:
    """a + scale * b as a new vector."""
    return vadd_into(dict(a), b, scale)


def vscale(a: Mapping, c) -> dict:
    """c * a as a new vector; a scale of 1 or -1 copies or negates ``a``
    without a multiplication."""
    if c == 1:
        return dict(a)
    if c == -1:
        return {k: -v for k, v in a.items()}
    if not c:
        return {}
    return {k: qnorm(c * v) for k, v in a.items()}


# -- column-sparse matrices {src: {tgt: value}} -------------------------------


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
        if not vadd_into(out.setdefault(src, {}), vec, -1):
            del out[src]
    return out


def mat_scale(mat: Mapping, c) -> dict:
    """c * mat."""
    if not c:
        return {}
    return {src: vscale(vec, c) for src, vec in mat.items()}


class RatMatrix:
    """Sparse matrix over the rationals.  Immutable after construction.

    Entries are held in a dict keyed by (row, col); zeros are never stored.
    A matrix is built (``from_rows``, ``identity``, ``stack_columns``),
    read by entry (``m[i, j]``), applied to a dense vector (``mul_vec``)
    and reduced (``rref``, ``rank``, ``kernel_basis``, ``inverse``); no
    engine needs matrix arithmetic beyond that.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int,
                 entries: Mapping[tuple[int, int], object] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        clean: dict[tuple[int, int], int | Fraction] = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError("entry (%d,%d) outside %dx%d matrix"
                                     % (i, j, rows, cols))
                if v:
                    clean[(i, j)] = qnorm(v)
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
                ent[(i, j)] = v
        return cls(rows, cols, ent)

    @classmethod
    def identity(cls, n: int) -> RatMatrix:
        return cls(n, n, {(i, i): 1 for i in range(n)})

    # -- accessors ---------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> int | Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries.get((i, j), 0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    __hash__ = None

    def __repr__(self) -> str:
        return "RatMatrix(%d, %d, %d nonzero)" % (
            self.rows, self.cols, len(self.entries))

    def mul_vec(self, v: Sequence) -> tuple[int | Fraction, ...]:
        """Matrix-vector product, returning a dense tuple."""
        if len(v) != self.cols:
            raise ValueError("mul_vec: length %d != cols %d" % (len(v), self.cols))
        out = [0] * self.rows
        for (i, j), a in self.entries.items():
            x = v[j]
            if x:
                out[i] += a * x
        return tuple(map(qnorm, out))


# -- echelon forms and derived data ---------------------------------------


def _row_dicts(m: RatMatrix) -> list[dict]:
    rows: list[dict] = [dict() for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    return rows


def _reduce(rows: list[dict], cols: int) -> list[int]:
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
    integers stay small.  Only the returned rows are divided by their
    pivot entries, back to normal-form rationals.
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
            rows[i] = row if pc == 1 else {k: qdiv(v, pc)
                                            for k, v in row.items()}
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


def kernel_basis(m: RatMatrix) -> list[tuple[int | Fraction, ...]]:
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
        v = [0] * m.cols
        v[fc] = 1
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
                vadd_into(v, b, -qdiv(v[lead], b[lead]))
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
                vadd_into(v, b, -qdiv(c, b[lead]))
                out[k] = c
        return None if v else out

    def basis(self) -> list[dict]:
        """The rows scaled to unit leading coefficient."""
        out = []
        for v in self.rows:
            lead = v[min(v)]
            out.append({i: qdiv(c, lead) for i, c in v.items()})
        return out


def inverse(m: RatMatrix) -> RatMatrix:
    """Exact inverse of a square matrix; raises ValueError if singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    aug = dict(m.entries)
    for i in range(n):
        aug[(i, n + i)] = 1
    red, pivots = rref(RatMatrix(n, 2 * n, aug))
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    ent = {}
    for (i, j), v in red.entries.items():
        if j >= n:
            ent[(i, j - n)] = v
    return RatMatrix(n, n, ent)
