"""Shared construction helpers for the test suite."""

import random
from fractions import Fraction

import pytest

from leibniz_rb.core import (ActionPair, LeibnizAlgebra, LeibnizGRep,
                             adjoint_grep, change_of_basis_algebra,
                             validate_leibniz_g_rep)
from leibniz_rb.fields import GFElement, PrimeField, RationalField
from leibniz_rb.linalg import Matrix
from leibniz_rb.multimap import MultiMap


@pytest.fixture
def Q():
    return RationalField()


@pytest.fixture
def gf5():
    return PrimeField(5)


@pytest.fixture
def gf7():
    return PrimeField(7)


@pytest.fixture
def gf2():
    return PrimeField(2)


@pytest.fixture
def rref_calls(monkeypatch):
    """Shapes of the matrices eliminated while the test runs, whether by
    Matrix.rref or by Matrix.rank (both run Matrix._eliminate once)."""
    calls = []
    real = Matrix._eliminate

    def counted(self):
        calls.append(self.shape)
        return real(self)

    monkeypatch.setattr(Matrix, "_eliminate", counted)
    return calls


def dim2_nonlie(field):
    """[e1, e1] = e2, the smallest non-Lie Leibniz algebra."""
    return LeibnizAlgebra.from_entries(field, 2, {(0, 0, 1): 1})


def heisenberg(field):
    """Three-dimensional Heisenberg Lie algebra."""
    return LeibnizAlgebra.from_entries(field, 3, {(0, 1, 2): 1, (1, 0, 2): -1})


def sl2(field):
    """sl2 in the basis H, E, F: [H, E] = 2E, [H, F] = -2F, [E, F] = H."""
    return LeibnizAlgebra.from_entries(field, 3, {
        (0, 1, 1): 2, (1, 0, 1): -2, (0, 2, 2): -2, (2, 0, 2): 2,
        (1, 2, 0): 1, (2, 1, 0): -1})


def dense_heisenberg_gf3():
    """Heisenberg over GF(3) in the basis of the search-gf3 benchmark.

    All 18 constants [e_i, e_j]_k with i != j are nonzero in this basis.
    """
    gf3 = PrimeField(3)
    s = Matrix(gf3, [[1, 1, 0], [1, 2, 1], [1, 1, 1]])
    a = change_of_basis_algebra(heisenberg(gf3), s)
    assert sum(1 for plane in a.c for row in plane for x in row if x) == 18
    return a


def rho_r_context(field):
    """Dims (1,1), zero brackets, rho^R(e1, e1) = e1.

    Not a representation (it breaks the third axiom); useful for raw
    operator-identity and enumeration tests that do not assume validity.
    """
    g = LeibnizAlgebra.zero(field, 1)
    h = LeibnizAlgebra.zero(field, 1)
    pair = ActionPair(field, 1, 1, [[[field.zero]]], [[[field.one]]])
    return LeibnizGRep(g, h, pair)


def rho_l_context(field):
    """Dims (1,1), zero brackets, rho^L(e1, e1) = e1; a valid context."""
    g = LeibnizAlgebra.zero(field, 1)
    h = LeibnizAlgebra.zero(field, 1)
    pair = ActionPair(field, 1, 1, [[[field.one]]], [[[field.zero]]])
    return LeibnizGRep(g, h, pair)


def small_contexts(field, dims):
    """A list of validated Leibniz g-representations of the given dims."""
    ng, nh = dims
    out = [LeibnizGRep(LeibnizAlgebra.zero(field, ng),
                       LeibnizAlgebra.zero(field, nh),
                       ActionPair.zero(field, ng, nh))]
    if dims == (1, 1):
        out.append(rho_l_context(field))
        g = LeibnizAlgebra.zero(field, 1)
        h = LeibnizAlgebra.zero(field, 1)
        two = field.coerce(2)
        out.append(LeibnizGRep(g, h, ActionPair(
            field, 1, 1, [[[two]]], [[[field.zero]]])))
    elif dims == (2, 2):
        out.append(adjoint_grep(dim2_nonlie(field)))
    elif dims == (2, 1):
        g = dim2_nonlie(field)
        h = LeibnizAlgebra.zero(field, 1)
        # g acting on its ideal span{e2}: all products vanish
        left = [[[field.zero]], [[field.zero]]]
        right = [[[field.zero], [field.zero]]]
        out.append(LeibnizGRep(g, h, ActionPair(field, 2, 1, left, right)))
        # rho^L(e1, u) = u on an abelian pair
        ga = LeibnizAlgebra.zero(field, 2)
        left2 = [[[field.one]], [[field.zero]]]
        out.append(LeibnizGRep(ga, h, ActionPair(field, 2, 1, left2, right)))
    elif dims == (1, 2):
        g = LeibnizAlgebra.zero(field, 1)
        h = dim2_nonlie(field)
        # rho^L(e1, -) = bracket-with-e1 fails rep axioms in general; use
        # the regular action of h on itself transported along h -> g = 0
        out.append(LeibnizGRep(g, h, ActionPair.zero(field, 1, 2)))
        hz = LeibnizAlgebra.zero(field, 2)
        left = [[[field.zero, field.zero], [field.one, field.zero]]]
        right = [[[field.zero, field.zero]], [[field.zero, field.zero]]]
        out.append(LeibnizGRep(g, hz, ActionPair(field, 1, 2, left, right)))
    for d in out:
        assert validate_leibniz_g_rep(d).ok
    return out


def random_multimap(field, arity, src, tgt, rng, lo=-3, hi=4):
    m = MultiMap(field, arity, src, tgt)
    if field.characteristic:
        draw = lambda: field.coerce(rng.randrange(field.p))
    else:
        draw = lambda: field.coerce(rng.randrange(lo, hi))
    for idx in m.tuples():
        m.set_(idx, [draw() for _ in range(tgt)])
    return m


def random_matrix(field, nrows, ncols, rng, lo=-3, hi=4):
    if field.characteristic:
        draw = lambda: field.coerce(rng.randrange(field.p))
    else:
        draw = lambda: field.coerce(rng.randrange(lo, hi))
    return Matrix(field, [[draw() for _ in range(ncols)]
                          for _ in range(nrows)])


def seeded(n=0):
    return random.Random(n)


def two_loop_samples(d, count, max_arity, seed):
    """The draw of ``graded.dgla_samples`` with largest arity max_arity: one
    loop of (P, Q) pairs, then one of (P, Q, R) triples."""
    rng, fld = seeded(seed), d.field

    def draw(arity):
        m = MultiMap(fld, arity, d.h.dim, d.g.dim)
        for idx in m.tuples():
            m.set_(idx, [fld.coerce(rng.randrange(-2, 3))
                         for _ in range(d.g.dim)])
        return m

    out = []
    for _ in range(count):
        out.append((draw(rng.randint(1, max_arity)),
                    draw(rng.randint(1, max_arity))))
    for _ in range(count):
        out.append((draw(rng.randint(1, max_arity)),
                    draw(rng.randint(1, max_arity)),
                    draw(rng.randint(1, max_arity))))
    return out


# The fields the GF(p) kernels are checked over, and the scalars they see:
# mostly zeros, negative ints and fractions.
KERNEL_FIELDS = (RationalField(), PrimeField(2), PrimeField(3), PrimeField(5),
                 PrimeField(7))
_KERNEL_SCALARS = (0, 0, 0, 0, 1, -1, 2, -3, -8, 11, Fraction(1, 2),
                   Fraction(-2, 3), Fraction(5, 7), Fraction(-9, 4))


def kernel_scalars(field):
    """The scalars above that exist in field: no denominator divisible by p."""
    p = field.characteristic
    return [x for x in _KERNEL_SCALARS
            if not p or Fraction(x).denominator % p]


def is_canonical(field, vec):
    """Fractions over Q, never bare ints; reduced GFElements of GF(p)."""
    if not field.characteristic:
        return all(type(x) is Fraction for x in vec)
    return all(type(x) is GFElement and x.p == field.p and 0 <= x.v < field.p
               for x in vec)


@pytest.fixture
def gf_news(monkeypatch):
    """A list that grows by one for every GFElement built."""
    built = []
    init = GFElement.__init__

    def counted(self, v, p):
        built.append(v)
        init(self, v, p)

    monkeypatch.setattr(GFElement, "__init__", counted)
    return built
