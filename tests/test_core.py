from fractions import Fraction

import pytest

from leibniz_rb.core import (ActionPair, LeibnizAlgebra, LeibnizGRep,
                             adjoint_grep, adjoint_pair, basis_vec,
                             change_of_basis_algebra, is_algebra_morphism,
                             leibniz_differential, semidirect_product,
                             semidirect_product_unchecked, validate_leibniz,
                             validate_leibniz_g_rep, validate_representation)
from leibniz_rb import core
from leibniz_rb.errors import (InvalidInput, ResourceLimit, ShapeMismatch,
                               WrongField)
from leibniz_rb.fields import PrimeField
from leibniz_rb.linalg import Matrix
from leibniz_rb.multimap import MultiMap

from conftest import dim2_nonlie, heisenberg, random_matrix, seeded


def test_dim2_nonlie_is_leibniz_not_lie(Q):
    a = dim2_nonlie(Q)
    assert validate_leibniz(a).ok
    # [e1, e1] = e2 != 0 rules out antisymmetry
    assert a.bracket_basis(0, 0) != [Q.zero, Q.zero]


def test_leibniz_violation_reported(Q):
    bad = LeibnizAlgebra.from_entries(Q, 2, {(0, 1, 0): 1, (1, 0, 0): 1})
    rep = validate_leibniz(bad)
    assert not rep.ok
    assert rep.laws_violated() == ["leibniz-identity"]


def test_adjoint_representation_valid(Q):
    for a in (dim2_nonlie(Q), heisenberg(Q)):
        assert validate_representation(a, adjoint_pair(a)).ok
        assert validate_leibniz_g_rep(adjoint_grep(a)).ok


def test_representation_axiom_failure(gf5):
    # rho^R(e1, e1) = e1 on abelian dims (1,1) breaks the third axiom
    pair = ActionPair(gf5, 1, 1, [[[gf5.zero]]], [[[gf5.one]]])
    g = LeibnizAlgebra.zero(gf5, 1)
    rep = validate_representation(g, pair)
    assert rep.laws_violated() == ["rep-axiom-4"]


def test_semidirect_product_is_leibniz(Q):
    d = adjoint_grep(dim2_nonlie(Q))
    for lam in (Q.zero, Q.one, Q.coerce(-1)):
        s = semidirect_product(d, lam)
        assert s.dim == 4
        assert validate_leibniz(s).ok


def test_semidirect_block_structure(Q):
    a = dim2_nonlie(Q)
    d = adjoint_grep(a)
    s = semidirect_product_unchecked(d, Q.coerce(3))
    # g-block bracket embeds
    x = basis_vec(Q, 4, 0)
    assert s.bracket(x, x)[:2] == a.bracket_basis(0, 0)
    # h-block bracket is scaled by the weight
    u = basis_vec(Q, 4, 2)
    assert s.bracket(u, u)[2:] == [3 * c for c in a.bracket_basis(0, 0)]


def test_semidirect_rejects_invalid_context(gf5):
    pair = ActionPair(gf5, 1, 1, [[[gf5.zero]]], [[[gf5.one]]])
    g = LeibnizAlgebra.zero(gf5, 1)
    d = LeibnizGRep(g, g, pair)
    with pytest.raises(InvalidInput):
        semidirect_product(d, gf5.zero)


def test_algebra_morphism_check(Q):
    a = dim2_nonlie(Q)
    assert is_algebra_morphism(a, a, Matrix.identity(Q, 2))
    assert is_algebra_morphism(a, a, Matrix.zeros(Q, 2, 2))
    # e1 -> e1, e2 -> 2 e2 is not a morphism ([e1,e1] scales once, e2 twice)
    assert not is_algebra_morphism(a, a, Matrix(Q, [[1, 0], [0, 2]]))
    # x -> (t x, t^2 y) conjugates correctly: phi[e1,e1] = t^2 e2 = [phi e1, phi e1]
    assert is_algebra_morphism(a, a, Matrix(Q, [[2, 0], [0, 4]]))


def test_differential_squares_to_zero_adjoint(Q):
    a = dim2_nonlie(Q)
    pair = adjoint_pair(a)
    rng = seeded(5)
    for arity in (1, 2):
        f = MultiMap(Q, arity, 2, 2)
        for idx in f.tuples():
            f.set_(idx, [Fraction(rng.randrange(-3, 4)) for _ in range(2)])
        df = leibniz_differential(a, pair, f)
        assert df.arity == arity + 1
        assert leibniz_differential(a, pair, df).is_zero()


@pytest.mark.parametrize("other", ["cochain", "actions", "algebra"])
def test_differential_refuses_mixed_fields(Q, other):
    # one of f, g and the actions over GF(5), the others over Q
    fields = {k: PrimeField(5) if k == other else Q
              for k in ("cochain", "actions", "algebra")}
    a = dim2_nonlie(fields["algebra"])
    pair = adjoint_pair(dim2_nonlie(fields["actions"]))
    f = MultiMap(fields["cochain"], 1, 2, 2, [[1, 0], [0, 1]])
    with pytest.raises(WrongField):
        leibniz_differential(a, pair, f)


def test_change_of_basis_preserves_validity(Q):
    a = heisenberg(Q)
    rng = seeded(9)
    while True:
        s = random_matrix(Q, 3, 3, rng)
        if s.is_invertible():
            break
    b = change_of_basis_algebra(a, s)
    assert validate_leibniz(b).ok


def test_shape_mismatch_detected(Q):
    with pytest.raises(ShapeMismatch):
        ActionPair(Q, 2, 1, [[[Q.zero]]], [[[Q.zero], [Q.zero]]])


@pytest.mark.parametrize("x, y", [([1], [0, 1]), ([1, 0, 1], [0, 1]),
                                  ([1, 0], [0])])
def test_contract_refuses_vectors_off_the_tensor_shape(Q, x, y):
    # [e_1, e_2] = e_2: a short x or y is not read as zero-padded, a long
    # one not as cut
    a = LeibnizAlgebra.from_entries(Q, 2, {(0, 1, 1): 1})
    assert a.bracket([Q.one, Q.zero], [Q.zero, Q.one]) == [Q.zero, Q.one]
    with pytest.raises(ShapeMismatch, match="^vectors of lengths"):
        a.bracket([Q.coerce(v) for v in x], [Q.coerce(v) for v in y])


def test_law_work_is_bounded_before_any_product(Q, monkeypatch):
    # a dense dim-10 bracket: each Leibniz identity term needs 10^5
    # multiply-adds, 3 * 10^5 for the law, over MAX_LAW_WORK
    a = LeibnizAlgebra(Q, 10, [[[Q.one] * 10] * 10] * 10)

    def scatter(*args):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(core, "_scatter", scatter)
    with pytest.raises(ResourceLimit, match="^leibniz-identity needs 300000 "):
        validate_leibniz(a)
    # dim 8: 3 * 8^5 multiply-adds, under the limit
    monkeypatch.undo()
    assert validate_leibniz(LeibnizAlgebra(Q, 8, [[[Q.one] * 8] * 8] * 8)).violations
