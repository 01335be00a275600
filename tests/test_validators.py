"""The law-table validators against the composed reference ones.

Arbitrary tensors over Q, GF(2), GF(3) and GF(5), most of them breaking
the laws: in dimensions 0-3 about half of the entries are zero, in
dimensions 4-8 only a few are nonzero.  Every validator must report the
same violations (law, where, lhs, rhs) in the same order as its composed
counterpart in ``composed_validators``.  A sign flipped in one term of a
law table must make that comparison fail.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leibniz_rb import core, postleibniz
from leibniz_rb.fields import PrimeField, RationalField

import composed_validators as ref

FIELDS = st.sampled_from([RationalField(), PrimeField(2), PrimeField(3),
                          PrimeField(5)])
DIMS = st.one_of(st.integers(0, 3), st.integers(4, 8))


def nonzeros(field):
    if field.characteristic:
        return st.integers(1, field.p - 1)
    return st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])


def tensors(field, d0, d1, d2):
    """d0 x d1 x d2 nested lists: about half of the entries zero up to
    dimension 3, else at most 2 max(d0, d1, d2) nonzero entries."""
    if d0 * d1 * d2 == 0 or max(d0, d1, d2) <= 3:
        row = st.lists(st.one_of(st.just(0), nonzeros(field)),
                       min_size=d2, max_size=d2)
        plane = st.lists(row, min_size=d1, max_size=d1)
        return st.lists(plane, min_size=d0, max_size=d0)
    cells = st.tuples(*(st.integers(0, d - 1) for d in (d0, d1, d2)))
    return st.dictionaries(cells, nonzeros(field),
                           max_size=2 * max(d0, d1, d2)).map(
        lambda nz: [[[nz.get((a, b, c), 0) for c in range(d2)]
                     for b in range(d1)] for a in range(d0)])


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


def skewed(right, bracket):
    """(left, right, bracket) with u<v = -v>u and [u,v] = -[v,u]."""
    n = len(right)
    left = [[[-x for x in right[j][i]] for j in range(n)] for i in range(n)]
    bracket = [[[x - y for x, y in zip(bracket[i][j], bracket[j][i])]
                for j in range(n)] for i in range(n)]
    return left, right, bracket


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_post_lie_laws_match_composed(data):
    f, n = data.draw(FIELDS), data.draw(DIMS)
    drawn = [data.draw(tensors(f, n, n, n)) for _ in range(3)]
    if data.draw(st.booleans()):
        drawn = skewed(*drawn[1:])
    p = postleibniz.PostLeibnizAlgebra(f, n, *drawn)
    red = postleibniz.check_skewsymmetric_reduction(p)
    assert (red.skew_pair, red.skew_bracket) == ref.skew_flags(p)
    if red.is_skewsymmetric:
        same(red.post_lie, ref.validate_post_lie(p))
    else:
        assert red.post_lie is None


def dense(field, d0, d1, d2, seed):
    """A fixed d0 x d1 x d2 tensor with no zero entry."""
    return [[[field.coerce(1 + (seed + 3 * a + 5 * b + 7 * c) % 4)
              for c in range(d2)] for b in range(d1)] for a in range(d0)]


def _grep(f):
    return core.LeibnizGRep(
        core.LeibnizAlgebra(f, 2, dense(f, 2, 2, 2, 0)),
        core.LeibnizAlgebra(f, 3, dense(f, 3, 3, 3, 1)),
        core.ActionPair(f, 2, 3, dense(f, 2, 3, 3, 2), dense(f, 3, 2, 3, 3)))


def _post(f):
    return postleibniz.PostLeibnizAlgebra(
        f, 2, *(dense(f, 2, 2, 2, seed) for seed in range(3)))


def _post_lie(f):
    return postleibniz.PostLeibnizAlgebra(
        f, 2, *skewed(dense(f, 2, 2, 2, 0), dense(f, 2, 2, 2, 1)))


MUTANTS = {
    "leibniz": (core, "LEIBNIZ_LAWS", lambda f: _grep(f).h,
                core.validate_leibniz, ref.validate_leibniz),
    "representation": (core, "REPRESENTATION_LAWS", _grep,
                       lambda d: core.validate_representation(d.g, d.actions),
                       lambda d: ref.validate_representation(d.g, d.actions)),
    "coupling": (core, "COUPLING_LAWS", _grep, core.validate_leibniz_g_rep,
                 ref.validate_leibniz_g_rep),
    "post-leibniz": (postleibniz, "POST_LEIBNIZ_LAWS", _post,
                     postleibniz.validate_post_leibniz,
                     ref.validate_post_leibniz),
    "post-lie": (postleibniz, "POST_LIE_LAWS", _post_lie,
                 lambda p: postleibniz.check_skewsymmetric_reduction(p).post_lie,
                 ref.validate_post_lie),
}


@pytest.mark.parametrize("table,law", [
    (table, law) for table, (module, name, *_) in sorted(MUTANTS.items())
    for law in range(len(getattr(module, name)))])
def test_flipped_term_sign_is_caught(table, law, monkeypatch):
    # the sign of the last right-hand term of one law is flipped
    module, name, build, validate, reference = MUTANTS[table]
    obj = build(RationalField())
    same(validate(obj), reference(obj))
    laws = list(getattr(module, name))
    law_name, lhs, rhs = laws[law]
    sign, *rest = rhs[-1]
    laws[law] = (law_name, lhs, rhs[:-1] + [(-sign, *rest)])
    monkeypatch.setattr(module, name, tuple(laws))
    assert validate(obj).violations != reference(obj).violations
