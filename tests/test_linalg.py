from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leibniz_rb.errors import NotInvertible
from leibniz_rb.fields import PrimeField, RationalField
from leibniz_rb.linalg import Matrix, span_rank

from conftest import random_matrix, seeded

FIELDS = st.sampled_from([RationalField(), PrimeField(5)])
# mostly zeros, so that elimination meets zero columns and dependent rows
SCALARS = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, Fraction(1, 2)])
PROPERTY = settings(max_examples=80, deadline=None)


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
