import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canonical
from gradedlie.linalg import (
    RatMatrix,
    Span,
    inverse,
    kernel_basis,
    mat_apply,
    mat_compose,
    mat_scale,
    mat_sub,
    qdiv,
    qnorm,
    rank,
    rref,
    stack_columns,
    vadd,
    vadd_into,
    vscale,
)


def det(rows):
    """Cofactor-expansion determinant, exact; oracle-only (tiny sizes)."""
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        a = rows[0][j]
        if not a:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * Fraction(a) * det(minor)
    return total


def minor_rank(rows, ncols):
    """Largest k admitting a nonzero k x k minor."""
    from itertools import combinations

    nrows = len(rows)
    for k in range(min(nrows, ncols), 0, -1):
        for ri in combinations(range(nrows), k):
            for ci in combinations(range(ncols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if det(sub):
                    return k
    return 0


def _rows(m):
    """A RatMatrix as dense rows, read entry by entry."""
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


def _matmul(a, b):
    """Product of two matrices given as dense rows."""
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def test_rref_identity():
    r, pivots = rref(RatMatrix.identity(2))
    assert r == RatMatrix.identity(2)
    assert pivots == [0, 1]


def test_rref_rank_one():
    r, pivots = rref(RatMatrix.from_rows([[2, 4], [1, 2]]))
    assert r == RatMatrix.from_rows([[1, 2], [0, 0]])
    assert pivots == [0]


def test_rref_matches_minor_rank_oracle():
    rng = random.Random(20260818)
    for _ in range(12):
        # product of 5x3 and 3x7 has rank at most 3
        a = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(5)]
        b = [[rng.randint(-3, 3) for _ in range(7)] for _ in range(3)]
        prod = [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(7)]
                for i in range(5)]
        m = RatMatrix.from_rows(prod)
        assert rank(m) == minor_rank(prod, 7) <= 3


def test_kernel_identity_empty():
    assert kernel_basis(RatMatrix.identity(4)) == []


def test_kernel_zero_matrix_full():
    vecs = kernel_basis(RatMatrix(3, 3))
    assert len(vecs) == 3
    assert vecs[0] == (1, 0, 0) and vecs[1] == (0, 1, 0) and vecs[2] == (0, 0, 1)


def test_kernel_single_relation():
    vecs = kernel_basis(RatMatrix.from_rows([[1, 1]]))
    assert vecs == [(Fraction(-1), Fraction(1))]


def _random_matrix(rng, rows, cols):
    ent = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < 0.5:
                ent[(i, j)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return RatMatrix(rows, cols, ent)


def test_rank_nullity_and_kernel_exactness():
    rng = random.Random(7)
    for _ in range(60):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        vecs = kernel_basis(m)
        assert rank(m) + len(vecs) == m.cols
        for v in vecs:
            assert all(x == 0 for x in m.mul_vec(v))


def test_rref_idempotent():
    rng = random.Random(8)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        r1, p1 = rref(m)
        r2, p2 = rref(r1)
        assert r1 == r2 and p1 == p2
        assert p1 == sorted(p1)


def test_inverse_round_trip_and_singular():
    m = RatMatrix.from_rows([[2, 1], [1, 1]])
    assert inverse(m) == RatMatrix.from_rows([[1, -1], [-1, 2]])
    with pytest.raises(ValueError):
        inverse(RatMatrix.from_rows([[1, 2], [2, 4]]))
    # against dense products: a full-rank matrix is inverted on both
    # sides, any other is singular
    rng = random.Random(9)
    inverted = 0
    for _ in range(40):
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n, n)
        identity = _rows(RatMatrix.identity(n))
        if rank(m) < n:
            with pytest.raises(ValueError, match="singular"):
                inverse(m)
            continue
        inv = _rows(inverse(m))
        assert _matmul(_rows(m), inv) == identity
        assert _matmul(inv, _rows(m)) == identity
        inverted += 1
    assert inverted >= 10


def test_no_stored_zeros():
    m = RatMatrix(2, 2, {(0, 0): Fraction(0), (0, 1): Fraction(5)})
    assert (0, 0) not in m.entries and m[0, 0] == 0 and m[0, 1] == 5


# -- the sparse helpers against RatMatrix -------------------------------------

# small rationals, half of them zero, so that sums cancel often
_RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))


@st.composite
def _matrices(draw, rows=None, cols=None):
    rows = draw(st.integers(1, 4)) if rows is None else rows
    cols = draw(st.integers(1, 4)) if cols is None else cols
    return RatMatrix.from_rows(
        [[draw(_RATIONALS) for _ in range(cols)] for _ in range(rows)])


@st.composite
def _matrix_pairs(draw, chained=False):
    """Two matrices; for ``chained`` the second has as many rows as the
    first has columns, else both have one shape."""
    a = draw(_matrices())
    b = draw(_matrices(rows=a.cols) if chained
             else _matrices(rows=a.rows, cols=a.cols))
    return a, b


def _columns(m):
    """A RatMatrix as a column-sparse matrix {col: {row: c}}."""
    out = {}
    for (i, j), v in m.entries.items():
        out.setdefault(j, {})[i] = v
    return out


def _dense_columns(rows):
    """Dense rows as a column-sparse matrix {col: {row: c}}."""
    out = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                out.setdefault(j, {})[i] = v
    return out


def _sparse(values):
    return {i: v for i, v in enumerate(values) if v}


def _no_zeros(mat):
    return all(v for vec in mat.values() for v in vec.values())


@settings(max_examples=60, deadline=None)
@given(_matrices(), st.data())
def test_mat_apply_matches_mul_vec(m, data):
    vec = [data.draw(_RATIONALS) for _ in range(m.cols)]
    got = mat_apply(_columns(m), _sparse(vec))
    assert got == _sparse(m.mul_vec(vec))
    assert all(got.values())


@settings(max_examples=60, deadline=None)
@given(_matrix_pairs(chained=True))
def test_mat_compose_matches_matmul(pair):
    a, b = pair
    got = mat_compose(_columns(a), _columns(b))
    assert got == _dense_columns(_matmul(_rows(a), _rows(b)))
    assert _no_zeros(got)


@settings(max_examples=60, deadline=None)
@given(_matrix_pairs(), _RATIONALS)
def test_mat_sub_and_scale_match_ratmatrix(pair, c):
    a, b = pair
    diff = mat_sub(_columns(a), _columns(b))
    assert diff == _dense_columns(
        [[x - y for x, y in zip(ra, rb)]
         for ra, rb in zip(_rows(a), _rows(b))])
    scaled = mat_scale(_columns(a), c)
    assert scaled == _dense_columns([[c * x for x in row]
                                     for row in _rows(a)])
    assert _no_zeros(diff) and _no_zeros(scaled)


@settings(max_examples=60, deadline=None)
@given(_matrices(rows=2), _RATIONALS)
def test_vadd_and_vscale_match_dense(m, c):
    u, v = _rows(m)
    total = vadd(_sparse(u), _sparse(v), c)
    assert total == _sparse([x + c * y for x, y in zip(u, v)])
    assert vscale(_sparse(u), c) == _sparse([c * x for x in u])
    assert all(total.values())


@pytest.mark.parametrize("scale", [1, -1, Fraction(-1), Fraction(-2, 3)])
def test_vadd_into_stores_normal_form(scale):
    out = vadd_into({0: Fraction(1), 1: Fraction(2)},
                    {0: 1, 1: Fraction(-2), 2: 3}, scale)
    assert out == {k: v for k, v in {0: 1 + scale, 1: 2 - 2 * scale,
                                     2: 3 * scale}.items() if v}
    assert all(out.values())
    canonical.assert_normal_form(out)


@settings(max_examples=100, deadline=None)
@given(_RATIONALS, _RATIONALS.filter(bool),
       st.dictionaries(st.integers(0, 3), _RATIONALS.filter(bool)))
def test_scalar_helpers_return_normal_form(a, b, vec):
    """qnorm and qdiv agree with Fraction arithmetic, in normal form, on
    both representations of an integral value; vscale and mat_scale keep
    a normal-form vector so, also through the copy and negation shortcuts."""
    vec = {k: qnorm(v) for k, v in vec.items()}
    for x in (a, qnorm(a)):
        for y in (b, qnorm(b)):
            assert qdiv(x, y) == a / b
            canonical.assert_normal_form([qnorm(x), qdiv(x, y)])
    assert qnorm(True) == 1 and type(qnorm(True)) is int
    for c in (a, b, 1, -1, Fraction(-1)):
        assert vscale(vec, c) == {k: c * v for k, v in vec.items() if c}
        canonical.assert_normal_form([vscale(vec, c), mat_scale({0: vec}, c)])


@settings(max_examples=60, deadline=None)
@given(_matrices())
def test_span_rank_matches_rank(m):
    span = Span()
    for row in _rows(m):
        span.add(_sparse(row))
    assert span.rank == rank(m)
    leads = [min(v) for v in span.basis()]
    assert leads == sorted(set(leads))
    assert all(v[lead] == 1 for v, lead in zip(span.basis(), leads))


@settings(max_examples=60, deadline=None)
@given(_matrices(), st.data())
def test_span_express_inverts_combinations(m, data):
    """Coordinates over ``basis()`` for vectors in the span, None for the
    others; the last row is outside exactly when it raises the rank."""
    *rows, last = _rows(m)
    span = Span()
    for row in rows:
        span.add(_sparse(row))
    basis = span.basis()
    coeffs = [data.draw(_RATIONALS) for _ in basis]
    combo: dict = {}
    for c, b in zip(coeffs, basis):
        vadd_into(combo, b, c)
    assert span.express(combo) == _sparse(coeffs)
    last = _sparse(last)
    got = span.express(last)
    assert (got is None) == (span.rank < rank(m))
    if got is not None:
        back: dict = {}
        for k, c in got.items():
            vadd_into(back, basis[k], c)
        assert back == last


@settings(max_examples=60, deadline=None)
@given(_matrices(), st.randoms(use_true_random=False))
def test_stacked_block_rref_ignores_row_key_order(m, rng):
    """Row keys numbered in a shuffled first-seen order give the same
    pivots and reduced columns."""
    keys = ["r%d" % i for i in range(m.rows)]
    cols = [{keys[i]: m[i, j] for i in range(m.rows) if m[i, j]}
            for j in range(m.cols)]
    order = list(keys)
    rng.shuffle(order)
    shuffled = [{k: col[k] for k in order if k in col} for col in cols]

    def reduced(columns):
        mat, row_index = stack_columns(columns)
        assert set(row_index) <= set(keys) and mat.rows >= 1
        red, piv = rref(mat)
        return piv, [[red[r, c] for r in range(len(piv))]
                     for c in range(mat.cols)]

    assert reduced(cols) == reduced(shuffled)


# -- the integer elimination kernel against a dense Fraction oracle -----------

# mixed signs and denominators up to 12, so that the rows are scaled to
# integers and the row contents are divided out
_FRACTIONS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)))


@st.composite
def _dependent_matrices(draw):
    """Matrices up to 6 x 7 whose later rows are often combinations of the
    earlier ones, so that ranks below full are common."""
    cols = draw(st.integers(1, 7))
    rows = [[draw(_FRACTIONS) for _ in range(cols)]
            for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        ca, cb = draw(_FRACTIONS), draw(_FRACTIONS)
        rows.append([ca * x + cb * y for x, y in zip(a, b)])
    return RatMatrix.from_rows(rows)


def dense_rref(rows, ncols):
    """Textbook Gauss-Jordan on dense Fraction rows: (RREF rows, pivots)."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


@settings(max_examples=150, deadline=None)
@given(_dependent_matrices())
def test_elimination_matches_dense_fraction_oracle(m):
    want, pivots = dense_rref(_rows(m), m.cols)

    red, got_pivots = rref(m)
    assert got_pivots == pivots
    assert _rows(red) == want
    canonical.assert_normal_form(red.entries)

    kernel = []
    for fc in range(m.cols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -want[i][fc]
        kernel.append(tuple(v))
    assert kernel_basis(m) == kernel
    canonical.assert_normal_form(kernel_basis(m))
