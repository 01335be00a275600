from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leibniz_rb.errors import NotInvertible, ShapeMismatch
from leibniz_rb.fields import PrimeField, RationalField
from leibniz_rb.linalg import Matrix, span_rank

from conftest import (KERNEL_FIELDS, is_canonical, kernel_scalars,
                      random_matrix, seeded)
from fraction_rref import fraction_rref

FIELDS = st.sampled_from([RationalField(), PrimeField(5)])
# mostly zeros, so that elimination meets zero columns and dependent rows
SCALAR_VALUES = [0, 0, 0, 0, 1, -1, 2, -3, Fraction(1, 2)]
SCALARS = st.sampled_from(SCALAR_VALUES)
PROPERTY = settings(max_examples=80, deadline=None)
# the rref oracle also runs in characteristic 2 and 3; 1/3, 7/6 and +-5
# give the integer rows content gcds and growing entries
RREF_FIELDS = st.sampled_from([RationalField(), PrimeField(2), PrimeField(3),
                               PrimeField(5)])
RREF_SCALARS = [0, 0, 0, 0, 1, -1, 2, -3, 5, -5, Fraction(1, 2),
                Fraction(1, 3), Fraction(7, 6)]


@st.composite
def matrices(draw):
    field = draw(FIELDS)
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(0, 5))
    return Matrix(field, [[draw(SCALARS) for _ in range(ncols)]
                          for _ in range(nrows)])


@st.composite
def systems(draw):
    """(M, b) with b in the column span of M about half the time."""
    m = draw(matrices())
    if draw(st.booleans()):
        b = m.mul_vec([m.field.coerce(draw(SCALARS)) for _ in range(m.ncols)])
    else:
        b = [m.field.coerce(draw(SCALARS)) for _ in range(m.nrows)]
    return m, b


# ---------------------------------------------------------------------------
# Dense oracle: the elimination the sparse rref replaced


def dense_rref(m):
    """First nonzero row as pivot, every row updated at every pivot."""
    rows = [list(r) for r in m.rows]
    pivots = []
    r = 0
    for c in range(m.ncols):
        pivot_row = None
        for i in range(r, m.nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = m.field.one / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(m.nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.nrows:
            break
    return rows, pivots


def dense_kernel(m):
    rows, pivots = dense_rref(m)
    basis = []
    for f in range(m.ncols):
        if f in pivots:
            continue
        v = [m.field.zero] * m.ncols
        v[f] = m.field.one
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(v)
    return basis


def dense_solve(m, b):
    aug = Matrix(m.field, [row + [x] for row, x in zip(m.rows, b)], m.ncols + 1)
    rows, pivots = dense_rref(aug)
    if m.ncols in pivots:
        return None
    x = [m.field.zero] * m.ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][m.ncols]
    return x


def dense_inverse(m):
    n = m.nrows
    aug = Matrix(m.field, [row + [m.field.one if i == j else m.field.zero
                                  for j in range(n)]
                           for i, row in enumerate(m.rows)], 2 * n)
    rows, pivots = dense_rref(aug)
    if pivots != list(range(n)):
        return None
    return Matrix(m.field, [row[n:] for row in rows[:n]], n)


def dense_mul_vec(m, v):
    """Element-wise: every row times v, summed from field.zero."""
    return [sum((row[j] * v[j] for j in range(m.ncols)), m.field.zero)
            for row in m.rows]


def dense_matmul(a, b):
    return [[sum((a.rows[i][k] * b.rows[k][j] for k in range(a.ncols)),
                 a.field.zero) for j in range(b.ncols)]
            for i in range(a.nrows)]


@st.composite
def sparse_matrices(draw, square=False, fields=FIELDS,
                    scalars=SCALAR_VALUES):
    """Mostly-zero matrices up to 10x10, 0 rows and 0 columns included,
    with forced zero rows, zero columns and duplicate rows.  Only the
    scalars that exist in the drawn field are used."""
    field = draw(fields)
    p = field.characteristic
    entries = st.sampled_from([x for x in scalars
                               if not p or Fraction(x).denominator % p])
    ncols = draw(st.integers(0, 10))
    nrows = ncols if square else draw(st.integers(0, 10))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    if square and draw(st.booleans()):
        # a nonzero diagonal makes invertible matrices common
        for i in range(nrows):
            rows[i][i] += draw(st.sampled_from([1, -1, 2]))
    if rows and ncols:
        for c in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
            for row in rows:
                row[c] = 0
        for k in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
            if draw(st.booleans()):
                rows[k] = [0] * ncols
            else:
                rows[k] = list(rows[draw(st.integers(0, nrows - 1))])
    return Matrix(field, rows, ncols)


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(fields=RREF_FIELDS, scalars=RREF_SCALARS))
def test_rref_matches_dense_oracle(m):
    want = dense_rref(m)
    assert m.rref() == want
    # and the reference elimination on sparse rows of field elements
    assert fraction_rref(m) == want
    assert m.rank() == len(want[1])
    assert m.kernel_basis() == dense_kernel(m)


@PROPERTY
@given(st.data())
def test_int_rows_match_the_dense_matrix(data):
    # entries a / den; the ints include multiples of 2, 3 and 5
    field = data.draw(RREF_FIELDS)
    p = field.characteristic
    den = data.draw(st.sampled_from([d for d in (1, 2, 3, 6)
                                     if not p or d % p]))
    nrows, ncols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    ints = []
    for _ in range(nrows):
        ints.append({})
        for j in range(ncols):
            a = data.draw(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5, -10]))
            if a:
                ints[-1][j] = a
    m = Matrix.from_int_rows(field, ints, ncols, den)
    want = Matrix(field, [[Fraction(row.get(j, 0), den) for j in range(ncols)]
                          for row in ints], ncols)
    assert m.shape == want.shape
    assert m.rank() == want.rank()
    assert m.rref() == want.rref() == dense_rref(want)
    assert "rows" not in vars(m)
    assert m.rows == want.rows and m.raw == want.raw and m == want
    assert all(is_canonical(field, row) for row in m.rows)
    v = [field.coerce(data.draw(st.integers(-3, 3))) for _ in range(ncols)]
    assert m.mul_vec(v) == want.mul_vec(v)


def test_rref_matches_field_rows_on_growing_entries():
    # dense rows of mixed denominators: the integer rows grow and shrink
    rng = seeded(11)
    pool = [Fraction(n, d) for n in range(-7, 8) for d in (1, 2, 3, 6, 35)]
    for field in (RationalField(), PrimeField(2), PrimeField(3),
                  PrimeField(7)):
        p = field.characteristic
        entries = [x for x in pool if not p or x.denominator % p]
        for _ in range(6):
            nrows, ncols = rng.randint(5, 14), rng.randint(5, 14)
            rank = rng.randint(1, min(nrows, ncols))
            a = Matrix(field, [[rng.choice(entries) for _ in range(rank)]
                               for _ in range(nrows)])
            b = Matrix(field, [[rng.choice(entries) for _ in range(ncols)]
                               for _ in range(rank)])
            m = a * b
            assert m.rref() == fraction_rref(m) == dense_rref(m)


def test_rref_builds_one_gf_element_per_output_entry(gf_news):
    rng = seeded(5)
    for p in (2, 3, 5, 7):
        field = PrimeField(p)
        for nrows, ncols in ((1, 2), (2, 2), (6, 4), (9, 3), (8, 12)):
            m = random_matrix(field, nrows, ncols, rng)
            gf_news.clear()
            rows, pivots = m.rref()
            # the zeros and the leading 1s are the field's shared elements
            assert len(gf_news) <= sum(1 for row in rows for x in row
                                       if x) - len(pivots)
            assert (rows, pivots) == fraction_rref(m)
            # once every residue has been met, from_raw builds none
            field.from_raw(range(p))
            gf_news.clear()
            assert m.rref() == (rows, pivots) and gf_news == []


@PROPERTY
@given(sparse_matrices(), st.data())
def test_solve_matches_dense_oracle(m, data):
    b = [m.field.coerce(data.draw(SCALARS)) for _ in range(m.nrows)]
    if m.ncols and data.draw(st.booleans()):
        b = m.mul_vec([m.field.coerce(data.draw(SCALARS))
                       for _ in range(m.ncols)])
    x, ker = m.solve(b)
    assert x == dense_solve(m, b)
    assert ker == dense_kernel(m)


@PROPERTY
@given(sparse_matrices(square=True))
def test_inverse_matches_dense_oracle(m):
    want = dense_inverse(m)
    if want is None:
        with pytest.raises(NotInvertible):
            m.inverse()
    else:
        assert m.inverse() == want


@PROPERTY
@given(st.data())
def test_products_match_dense_over_every_field(data):
    field = data.draw(st.sampled_from(KERNEL_FIELDS))
    scalars = st.sampled_from(kernel_scalars(field))

    def mat(nrows, ncols):
        return Matrix(field, [[data.draw(scalars) for _ in range(ncols)]
                              for _ in range(nrows)], ncols)

    n, k, m = (data.draw(st.integers(0, 4)) for _ in range(3))
    a, b = mat(n, k), mat(k, m)
    v = [field.coerce(data.draw(scalars)) for _ in range(k)]
    got = a.mul_vec(v)
    assert got == dense_mul_vec(a, v)
    assert is_canonical(field, got)
    prod = a * b
    assert prod.shape == (n, m)
    assert prod.rows == dense_matmul(a, b)
    assert all(is_canonical(field, row) for row in prod.rows)


def test_mul_vec_builds_one_gf_element_per_entry(gf_news):
    for p in (2, 3, 5, 7):
        field = PrimeField(p)
        m = Matrix(field, [[3 * i + j - 4 for j in range(3)]
                           for i in range(4)])
        v = [field.coerce(x) for x in (2, -1, 5)]
        gf_news.clear()
        out = m.mul_vec(v)
        assert len(gf_news) <= m.nrows
        assert out == dense_mul_vec(m, v)
        # once every residue has been met, from_raw builds none
        field.from_raw(range(p))
        gf_news.clear()
        assert m.mul_vec(v) == out and gf_news == []


@pytest.mark.parametrize("cols", [[[1, 2], [1, 2, 3]], [[1, 2], [1]]])
def test_from_cols_refuses_a_column_of_another_length(Q, cols):
    # a longer column is not cut to nrows, a shorter one no IndexError
    with pytest.raises(ShapeMismatch, match="^a column's length is not"):
        Matrix.from_cols(Q, cols, 2)


def test_zero_row_and_zero_column_shapes(Q):
    assert Matrix.zeros(Q, 0, 2).shape == (0, 2)
    assert Matrix.from_cols(Q, [[], []], 0).shape == (0, 2)
    assert Matrix.from_cols(Q, [], 3).shape == (3, 0)
    assert Matrix.zeros(Q, 2, 0).transpose().shape == (0, 2)
    assert Matrix.zeros(Q, 0, 2) != Matrix.zeros(Q, 0, 3)
    m = Matrix.zeros(Q, 0, 2)
    assert m.rref() == ([], [])
    assert m.kernel_basis() == [[Q.one, Q.zero], [Q.zero, Q.one]]
    assert Matrix.zeros(Q, 2, 0).rref() == ([[], []], [])
    assert Matrix.zeros(Q, 2, 0).solve([Q.one, Q.zero]) == (None, [])


def test_rref_is_reduced_and_deterministic(Q):
    m = Matrix(Q, [[2, 4, 6], [1, 2, 4], [0, 0, 1]])
    rows1, piv1 = m.rref()
    rows2, piv2 = m.rref()
    assert rows1 == rows2 and piv1 == piv2
    for r, c in enumerate(piv1):
        assert rows1[r][c] == Q.one
        assert all(rows1[k][c] == Q.zero for k in range(len(rows1)) if k != r)


def test_rank_transpose_invariance():
    rng = seeded(7)
    for F in (RationalField(), PrimeField(7)):
        for _ in range(25):
            m = random_matrix(F, rng.randint(1, 4), rng.randint(1, 4), rng)
            assert m.rank() == m.transpose().rank()


@PROPERTY
@given(matrices())
def test_kernel_basis_in_kernel(m):
    ker = m.kernel_basis()
    assert m.rank() + len(ker) == m.ncols
    for v in ker:
        assert all(not x for x in m.mul_vec(v))


@PROPERTY
@given(systems())
def test_solve_residual_and_kernel(system):
    m, b = system
    x, ker = m.solve(b)
    if x is None:
        aug = Matrix(m.field, [row + [bx] for row, bx in zip(m.rows, b)])
        assert aug.rank() > m.rank()
    else:
        assert m.mul_vec(x) == b
    assert ker == m.kernel_basis()


def test_solve_eliminates_once(Q, rref_calls):
    m = Matrix(Q, [[1, 2], [2, 4]])
    for b in ([3, 6], [1, 0]):
        rref_calls.clear()
        m.solve([Q.coerce(x) for x in b])
        assert len(rref_calls) == 1


def test_solve_particular_and_kernel(Q):
    m = Matrix(Q, [[1, 2], [2, 4]])
    sol, ker = m.solve([Fraction(3), Fraction(6)])
    assert m.mul_vec(sol) == [Fraction(3), Fraction(6)]
    assert len(ker) == 1
    sol2, _ = m.solve([Fraction(1), Fraction(0)])
    assert sol2 is None


def test_inverse_roundtrip():
    rng = seeded(3)
    F = PrimeField(7)
    found = 0
    while found < 10:
        m = random_matrix(F, 3, 3, rng)
        if not m.is_invertible():
            continue
        found += 1
        assert m * m.inverse() == Matrix.identity(F, 3)
    with pytest.raises(NotInvertible):
        Matrix(F, [[1, 1], [1, 1]]).inverse()


def test_span_rank_and_quotient(Q):
    e1, e2 = [Q.one, Q.zero], [Q.zero, Q.one]
    assert span_rank(Q, [e1, e2, [Q.one, Q.one]]) == 2


def test_matrix_arithmetic(Q):
    a = Matrix(Q, [[1, 2], [3, 4]])
    b = Matrix(Q, [[0, 1], [1, 0]])
    assert a + b - b == a
    assert (a * b).entry(0, 0) == Fraction(2)
    assert (-a).scale(Q.coerce(-1)) == a
    assert a.mul_vec([Q.one, Q.zero]) == [Fraction(1), Fraction(3)]
