"""The one-contraction validators against the composed reference ones.

Arbitrary tensors over Q, GF(2), GF(3) and GF(5) in dimensions 0-3, most
of them breaking the laws: every validator must report the same
violations (law, where, lhs, rhs) in the same order as its composed
counterpart in ``composed_validators``.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from leibniz_rb import core, postleibniz
from leibniz_rb.fields import PrimeField, RationalField

import composed_validators as ref

FIELDS = st.sampled_from([RationalField(), PrimeField(2), PrimeField(3),
                          PrimeField(5)])
DIMS = st.integers(0, 3)


def tensors(field, d0, d1, d2):
    """d0 x d1 x d2 nested lists, about half of the entries zero."""
    if field.characteristic:
        nonzero = st.integers(1, field.p - 1)
    else:
        nonzero = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
    row = st.lists(st.one_of(st.just(0), nonzero), min_size=d2, max_size=d2)
    plane = st.lists(row, min_size=d1, max_size=d1)
    return st.lists(plane, min_size=d0, max_size=d0)


def algebra(data, field, n):
    return core.LeibnizAlgebra(field, n, data.draw(tensors(field, n, n, n)))


def actions(data, field, ng, nv):
    return core.ActionPair(field, ng, nv, data.draw(tensors(field, ng, nv, nv)),
                           data.draw(tensors(field, nv, ng, nv)))


def same(new, old):
    assert new.subject == old.subject
    assert new.violations == old.violations


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_leibniz_identity_matches_composed(data):
    a = algebra(data, data.draw(FIELDS), data.draw(DIMS))
    same(core.validate_leibniz(a), ref.validate_leibniz(a))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_representation_axioms_match_composed(data):
    f, ng, nv = data.draw(FIELDS), data.draw(DIMS), data.draw(DIMS)
    g, pair = algebra(data, f, ng), actions(data, f, ng, nv)
    same(core.validate_representation(g, pair),
         ref.validate_representation(g, pair))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_leibniz_g_rep_axioms_match_composed(data):
    f, ng, nh = data.draw(FIELDS), data.draw(DIMS), data.draw(DIMS)
    d = core.LeibnizGRep(algebra(data, f, ng), algebra(data, f, nh),
                         actions(data, f, ng, nh))
    same(core.validate_leibniz_g_rep(d), ref.validate_leibniz_g_rep(d))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_post_leibniz_identities_match_composed(data):
    f, n = data.draw(FIELDS), data.draw(DIMS)
    p = postleibniz.PostLeibnizAlgebra(
        f, n, *(data.draw(tensors(f, n, n, n)) for _ in range(3)))
    same(postleibniz.validate_post_leibniz(p), ref.validate_post_leibniz(p))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pre_leibniz_identities_match_composed(data):
    f, n = data.draw(FIELDS), data.draw(DIMS)
    left, right = (data.draw(tensors(f, n, n, n)) for _ in range(2))
    same(postleibniz.validate_pre_leibniz(f, n, left, right),
         ref.validate_pre_leibniz(f, n, left, right))
