"""Sparse MultiMap, the contraction kernel, circ_i, the Leibniz
differential and the explicit derived bracket against dense oracles.

The oracles below are the dense formulas the sparse code replaced: a
MultiMap as a full list of rows in lexicographic tuple order, the
row-by-row bilinear contraction, the partial composition that visits
every output tuple and every shuffle, the differential that contracts
with unit vectors and scales and adds every term, and the derived
bracket that evaluates every shuffle term at every output tuple.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from leibniz_rb.core import (ActionPair, LeibnizAlgebra, LeibnizGRep,
                             _as_store, basis_vec, contract,
                             leibniz_differential)
from leibniz_rb.errors import ShapeMismatch, WrongField
from leibniz_rb.fields import ZZ, PrimeField, RationalField
from leibniz_rb.graded import circ_i, derived_bracket_explicit
from leibniz_rb.linalg import (Matrix, axpy, vec_add, vec_is_zero, vec_scale,
                               zero_vec)
from leibniz_rb.multimap import MultiMap
from leibniz_rb.postleibniz import PostLeibnizAlgebra

from conftest import KERNEL_FIELDS, is_canonical, kernel_scalars

Q = RationalField()
GF5 = PrimeField(5)
FIELDS = st.sampled_from([Q, GF5])
# mostly zeros, so that the sparse paths see empty rows and empty supports
SCALARS = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, Fraction(1, 2),
                           Fraction(-2, 3)])
INT_SCALARS = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3])

PROPERTY = settings(max_examples=60, deadline=None)


def _vec(draw, field, n):
    pool = INT_SCALARS if field is ZZ else SCALARS
    return [field.coerce(draw(pool)) for _ in range(n)]


def _rows(draw, field, arity, src, tgt):
    return [_vec(draw, field, tgt) for _ in range(src ** arity)]


@st.composite
def maps(draw, field=None, arity=None, src=None, tgt=None):
    field = field or draw(FIELDS)
    arity = arity or draw(st.integers(1, 3))
    src = src or draw(st.integers(1, 3))
    tgt = tgt or draw(st.integers(1, 3))
    return MultiMap(field, arity, src, tgt, _rows(draw, field, arity, src, tgt))


# ---------------------------------------------------------------------------
# Dense reference


def _flat(idx, src):
    f = 0
    for i in idx:
        f = f * src + i
    return f


def dense_apply(field, arity, src, tgt, rows, args):
    vec_slots = [k for k, a in enumerate(args) if not isinstance(a, int)]
    if not vec_slots:
        return list(rows[_flat(args, src)])
    out = [field.zero] * tgt
    ranges = [range(src) if k in vec_slots else (args[k],)
              for k in range(arity)]
    for idx in product(*ranges):
        c = field.one
        for k in vec_slots:
            c = c * args[k][idx[k]]
        row = rows[_flat(idx, src)]
        for t in range(tgt):
            out[t] = out[t] + c * row[t]
    return out


def dense_contract(field, tensor, x, y, n):
    out = [field.zero] * n
    for i in range(len(x)):
        for j in range(len(y)):
            cij = x[i] * y[j]
            if cij:
                out = [a + cij * b for a, b in zip(out, tensor[i][j])]
    return out


def _parity(field, perm):
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return field.one if inv % 2 == 0 else -field.one


def dense_circ_i(f, g, i):
    """The former dense loop: every output tuple, every (i-1, n)-shuffle."""
    fld, dim = f.field, f.src_dim
    m, n = f.arity - 1, g.arity - 1
    frows, grows = f.coeffs, g.coeffs
    shs = []
    for first in combinations(range(i - 1 + n), i - 1):
        perm = list(first) + [k for k in range(i - 1 + n) if k not in first]
        shs.append((perm, _parity(fld, perm)))
    out = []
    for idx in product(range(dim), repeat=m + n + 1):
        acc = [fld.zero] * dim
        for perm, sign in shs:
            gval = grows[_flat([idx[perm[k]] for k in range(i - 1, i - 1 + n)]
                               + [idx[i + n - 1]], dim)]
            if not any(gval):
                continue
            args = [idx[perm[k]] for k in range(i - 1)] + [gval] \
                + list(idx[i + n:])
            fval = dense_apply(fld, f.arity, dim, dim, frows, args)
            acc = [a + sign * b for a, b in zip(acc, fval)]
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# MultiMap


@PROPERTY
@given(st.data())
def test_apply_matches_dense(data):
    # over ZZ too: the cohomology probe applies int maps
    m = data.draw(maps(data.draw(st.sampled_from([Q, GF5, ZZ]))))
    args = [data.draw(st.one_of(st.integers(0, m.src_dim - 1),
                                st.just(None)))
            for _ in range(m.arity)]
    args = [a if a is not None else _vec(data.draw, m.field, m.src_dim)
            for a in args]
    want = dense_apply(m.field, m.arity, m.src_dim, m.tgt_dim, m.coeffs, args)
    assert m.apply(args) == want


@pytest.mark.parametrize("field", [Q, GF5, ZZ], ids=["Q", "GF5", "ZZ"])
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_apply_with_a_vector_in_every_slot(field, arity):
    # every third row is absent and every vector has a zero entry
    src, tgt = 3, 2
    rows = [[field.coerce(f - 4), field.coerce(0)] if f % 3 else
            [field.coerce(0)] * tgt for f in range(src ** arity)]
    m = MultiMap(field, arity, src, tgt, rows)
    assert len(m.nz) < src ** arity
    args = [[field.coerce(x) for x in (k + 2, 0, -1 - k)]
            for k in range(arity)]
    want = dense_apply(field, arity, src, tgt, rows, args)
    assert any(want) and m.apply(args) == want


@pytest.mark.parametrize("args", [(0, [1, 1, 1]), (5, [1, 0]), (-1, [1, 0]),
                                  ([1, 0], [1])],
                         ids=["long-vector", "index-5", "index-minus-1",
                              "short-vector"])
def test_apply_refuses_a_slot_outside_the_source(args):
    # a 2-ary map on a 2-dim source, each argument list with one slot that
    # names no vector of the source
    m = MultiMap(Q, 2, 2, 1, [[1], [1], [1], [1]])
    with pytest.raises(ShapeMismatch):
        m.apply(args)


@PROPERTY
@given(st.data())
def test_linear_operations_match_dense(data):
    a = data.draw(maps())
    b = data.draw(maps(a.field, a.arity, a.src_dim, a.tgt_dim))
    fld = a.field
    c = fld.coerce(data.draw(SCALARS))
    assert (a + b).coeffs == [[x + y for x, y in zip(r, s)]
                              for r, s in zip(a.coeffs, b.coeffs)]
    assert (a - b).coeffs == [[x - y for x, y in zip(r, s)]
                              for r, s in zip(a.coeffs, b.coeffs)]
    for k in (c, fld.zero, fld.one, -fld.one):
        assert a.scale(k).coeffs == [[k * x for x in r] for r in a.coeffs]
    assert (-a).coeffs == [[-x for x in r] for r in a.coeffs]
    assert (a - a).is_zero() and a.scale(0).is_zero()
    assert a.is_zero() == all(not x for r in a.coeffs for x in r)


@PROPERTY
@given(maps())
def test_flatten_round_trip(m):
    flat = m.flatten()
    assert flat == [x for row in m.coeffs for x in row]
    back = MultiMap.from_flat(m.field, m.arity, m.src_dim, m.tgt_dim, flat)
    assert back == m and back.flatten() == flat


@PROPERTY
@given(st.data())
def test_equal_maps_hash_equal(data):
    a = data.draw(maps())
    b = data.draw(maps(a.field, a.arity, a.src_dim, a.tgt_dim))
    same = [(a + b) - b, a.scale(1), MultiMap(a.field, a.arity, a.src_dim,
                                               a.tgt_dim, a.coeffs),
            -(-a), a + b.scale(0)]
    for other in same:
        assert other == a and hash(other) == hash(a)
    if a != b:
        assert a.coeffs != b.coeffs


def test_get_returns_a_copy():
    rows = [[1, 0], [0, 0], [2, -1], [0, 3]]
    m = MultiMap(Q, 2, 2, 2, rows)
    before = MultiMap(Q, 2, 2, 2, rows)
    m.get((0, 0))[0] = Fraction(99)
    m.get((0, 1))[1] = Fraction(7)   # a zero row
    m.coeffs[2][0] = Fraction(5)
    m.flatten()[0] = Fraction(-4)
    assert m == before and m.coeffs == before.coeffs
    assert hash(m) == hash(before)


@pytest.mark.parametrize("idx", [(5,), (2,), (-1,), (0, 1), ()],
                         ids=["index-5", "index-2", "index-minus-1",
                              "two-indices", "no-index"])
def test_set_refuses_an_index_outside_the_source(idx):
    # set_((5,), ...) on a 2-dim source stored the row: is_zero() was False
    # while flatten() and to_matrix() were zero
    m = MultiMap(Q, 1, 2, 2)
    with pytest.raises(ShapeMismatch):
        m.set_(idx, [1, 0])
    assert m.is_zero() and m.nz == {}


def test_zero_rows_are_never_stored():
    m = MultiMap(GF5, 1, 3, 2, [[0, 0], [0, 5], [2, 3]])
    assert set(m.nz) == {(2,)}
    m2 = MultiMap(GF5, 1, 3, 2)
    m2.set_((2,), [2, 3])
    m2.set_((1,), [1, 0])
    assert m2 != m
    m2.set_((1,), [0, 5])            # zero mod 5: the stored row is dropped
    m2.set_((0,), [0, 0])
    assert set(m2.nz) == {(2,)}
    assert m2 == m and hash(m2) == hash(m)
    assert (m2 - m).nz == {} and (m2 + m.scale(-1)).is_zero()


# ---------------------------------------------------------------------------
# Contraction kernel


@st.composite
def contraction_case(draw):
    # one to three terms (tensor, x, y) with their own d0 x d1, one n
    field = draw(st.sampled_from(KERNEL_FIELDS))
    scalars = st.sampled_from(kernel_scalars(field))
    vec = lambda k: [field.coerce(draw(scalars)) for _ in range(k)]
    n = draw(st.integers(0, 3))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        d0, d1 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        terms.append(([[vec(n) for _ in range(d1)] for _ in range(d0)],
                      vec(d0), vec(d1)))
    return field, terms, n


def dense_sum(field, terms, n):
    """The dense oracle summed over terms (tensor, x, y)."""
    out = [field.zero] * n
    for tensor, x, y in terms:
        out = vec_add(out, dense_contract(field, tensor, x, y, n))
    return out


@PROPERTY
@given(contraction_case())
def test_contract_matches_dense(case):
    field, terms, n = case
    got = contract(field, [(_store(field, t, x, y, n), x, y)
                           for t, x, y in terms], n)
    assert got == dense_sum(field, terms, n)
    assert is_canonical(field, got)


def _store(field, t, x, y, n):
    """The store of the dense tensor t of a (t, x, y) term."""
    return _as_store(field, (len(x), len(y), n), t)


def test_contract_builds_one_gf_element_per_entry(gf_news):
    # one term or three: the terms share one accumulator
    for p in (2, 3, 5, 7):
        field = PrimeField(p)
        n = 3
        tensors = [[[[field.coerce(i + 2 * j + k + s) for k in range(n)]
                     for j in range(n)] for i in range(n)] for s in (1, 2, 4)]
        x = [field.coerce(v) for v in (1, -1, 2)]
        y = [field.coerce(v) for v in (2, 0, 1)]
        for terms in ([(tensors[0], x, x)],
                      [(tensors[0], x, x), (tensors[1], x, y),
                       (tensors[2], y, x)]):
            stores = [(_store(field, t, a, b, n), a, b) for t, a, b in terms]
            gf_news.clear()
            out = contract(field, stores, n)
            assert len(gf_news) <= n
            assert out == dense_sum(field, terms, n)
            # once every residue has been met, from_raw builds none
            field.from_raw(range(p))
            gf_news.clear()
            assert contract(field, stores, n) == out and gf_news == []


def test_kernels_reject_another_prime_field():
    # residues of GF(3) read as residues mod 5 would be silently wrong
    x = [PrimeField(3).coerce(v) for v in (1, 2)]
    a = LeibnizAlgebra.from_entries(GF5, 2, {(0, 1, 1): 1})
    with pytest.raises(WrongField):
        a.bracket(x, x)
    with pytest.raises(WrongField):
        Matrix(GF5, [[1, 2], [3, 4]]).mul_vec(x)


@PROPERTY
@given(st.data())
def test_structure_products_use_the_kernel(data):
    field = data.draw(FIELDS)
    ng, nv = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    t3 = lambda a, b, c: [[_vec(data.draw, field, c) for _ in range(b)]
                          for _ in range(a)]
    c, left, right = t3(ng, ng, ng), t3(ng, nv, nv), t3(nv, ng, nv)
    x, x2 = _vec(data.draw, field, ng), _vec(data.draw, field, ng)
    v = _vec(data.draw, field, nv)
    act = ActionPair(field, ng, nv, left, right)
    assert LeibnizAlgebra(field, ng, c).bracket(x, x2) == \
        dense_contract(field, c, x, x2, ng)
    assert act.left_act(x, v) == dense_contract(field, left, x, v, nv)
    assert act.right_act(v, x) == dense_contract(field, right, v, x, nv)
    p = PostLeibnizAlgebra(field, ng, c, c, c)
    assert p.lt(x, x2) == p.rt(x, x2) == p.br(x, x2) == \
        dense_contract(field, c, x, x2, ng)
    assert p.star(x, x2) == dense_sum(field, [(c, x, x2)] * 3, ng)


# ---------------------------------------------------------------------------
# circ_i


@st.composite
def composable(draw):
    field = draw(FIELDS)
    dim = draw(st.integers(1, 3))
    top = 2 if dim == 3 else 3
    f = draw(maps(field, draw(st.integers(1, top)), dim, dim))
    g = draw(maps(field, draw(st.integers(1, top)), dim, dim))
    return f, g, draw(st.integers(1, f.arity))


@PROPERTY
@given(composable())
def test_circ_i_matches_dense_loop(case):
    f, g, i = case
    out = circ_i(f, g, i)
    assert out.arity == f.arity + g.arity - 1
    assert out.coeffs == dense_circ_i(f, g, i)


def test_circ_i_shuffle_signs():
    # f(x, y) = x_2 y_1 e_1 and g(x, y) = x_1 y_2 e_1 on a 2-dim space, so
    # (f o_2 g)(a, b, c) = f(a, g(b, c)) - f(b, g(a, c)): the second
    # (1,1)-shuffle swaps a and b and carries the sign -1
    f = MultiMap(Q, 2, 2, 2, [[0, 0], [0, 0], [1, 0], [0, 0]])
    g = MultiMap(Q, 2, 2, 2, [[0, 0], [1, 0], [0, 0], [0, 0]])
    out = circ_i(f, g, 2)
    assert set(out.nz) == {(1, 0, 1), (0, 1, 1)}
    assert out.get((1, 0, 1)) == [1, 0] and out.get((0, 1, 1)) == [-1, 0]
    assert circ_i(g, g, 2).is_zero()   # the two shuffles cancel
    assert out.coeffs == dense_circ_i(f, g, 2)


# ---------------------------------------------------------------------------
# Leibniz differential


def old_leibniz_differential(g, actions, f):
    """The former loop: unit-vector contractions, every term scaled and added."""
    fld = g.field
    n = f.arity
    sign = lambda k: fld.one if k % 2 == 0 else -fld.one
    out = MultiMap(fld, n + 1, g.dim, actions.dim_v)
    for idx in out.tuples():
        acc = zero_vec(fld, actions.dim_v)
        for i in range(1, n + 1):
            rest = idx[:i - 1] + idx[i:]
            val = actions.left_act(basis_vec(fld, g.dim, idx[i - 1]),
                                   f.get(rest))
            acc = vec_add(acc, vec_scale(sign(i + 1), val))
        val = actions.right_act(f.get(idx[:n]),
                                basis_vec(fld, g.dim, idx[n]))
        acc = vec_add(acc, vec_scale(sign(n + 1), val))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 2):
                bij = g.bracket_basis(idx[i - 1], idx[j - 1])
                args = (list(idx[:i - 1]) + list(idx[i:j - 1]) + [bij]
                        + list(idx[j:]))
                acc = vec_add(acc, vec_scale(sign(i), f.apply(args)))
        out.set_(idx, acc)
    return out


@PROPERTY
@given(st.data())
def test_leibniz_differential_matches_old_loop(data):
    # arbitrary (mostly zero) tensors: the formula needs no axioms
    field = data.draw(FIELDS)
    ng, nv = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    t3 = lambda a, b, c: [[_vec(data.draw, field, c) for _ in range(b)]
                          for _ in range(a)]
    g = LeibnizAlgebra(field, ng, t3(ng, ng, ng))
    act = ActionPair(field, ng, nv, t3(ng, nv, nv), t3(nv, ng, nv))
    arity = data.draw(st.integers(1, 3))
    if data.draw(st.booleans()):
        f = data.draw(maps(field, arity, ng, nv))
    else:
        # 0, 1 or 2 nonzero rows, so that most terms read absent rows
        f = MultiMap(field, arity, ng, nv)
        tuples = list(product(range(ng), repeat=arity))
        for idx in data.draw(st.lists(st.sampled_from(tuples), max_size=2,
                                      unique=True)):
            row = _vec(data.draw, field, nv)
            row[data.draw(st.integers(0, nv - 1))] = field.one
            f.set_(idx, row)
    assert leibniz_differential(g, act, f) == \
        old_leibniz_differential(g, act, f)


# ---------------------------------------------------------------------------
# Explicit derived bracket


def _sign(field, k):
    return field.one if k % 2 == 0 else -field.one


@lru_cache(maxsize=None)
def _shuffles(field, *blocks):
    """Shuffles of range(sum(blocks)), increasing on each block, with sign."""
    n = sum(blocks)
    out = []
    for perm in permutations(range(n)):
        starts = [sum(blocks[:b]) for b in range(len(blocks))]
        if all(list(perm[s:s + k]) == sorted(perm[s:s + k])
               for s, k in zip(starts, blocks)):
            out.append((list(perm), _parity(field, perm)))
    return out


def old_derived_bracket_explicit(d, p, q):
    """The former loop: every output tuple, both halves evaluated there."""
    fld = d.field
    m, n = p.arity, q.arity
    out = MultiMap(fld, m + n, d.h.dim, d.g.dim)
    for idx in out.tuples():
        acc = old_derived_half(d, p, q, idx)
        axpy(acc, -_sign(fld, m * n), old_derived_half(d, q, p, idx))
        out.set_(idx, acc)
    return out


def old_derived_half(d, p, q, idx):
    """The three P-outer sums, with rho^L/rho^R on unit vectors."""
    fld = d.field
    act = d.actions
    m, n = p.arity, q.arity
    acc = zero_vec(fld, d.g.dim)
    for i in range(1, m + 1):
        block_sign = _sign(fld, (i - 1) * n)
        for perm, sign in _shuffles(fld, i - 1, n):
            qval = q.get(tuple(idx[perm[k]] for k in range(i - 1, i - 1 + n)))
            if vec_is_zero(qval):
                continue
            lval = act.left_act(qval, basis_vec(fld, d.h.dim, idx[i + n - 1]))
            args = [idx[perm[k]] for k in range(i - 1)] + [lval] \
                + list(idx[i + n:])
            axpy(acc, block_sign * sign, p.apply(args))
        mid_sign = _sign(fld, n - 1)
        for perm, sign in _shuffles(fld, i - 1, 1, n - 1):
            qval = q.get(tuple([idx[perm[k]] for k in range(i, i + n - 1)]
                               + [idx[i + n - 1]]))
            if vec_is_zero(qval):
                continue
            rval = act.right_act(basis_vec(fld, d.h.dim, idx[perm[i - 1]]),
                                 qval)
            args = [idx[perm[k]] for k in range(i - 1)] + [rval] \
                + list(idx[i + n:])
            axpy(acc, block_sign * sign * mid_sign, p.apply(args))
    outer = _sign(fld, m * n)
    for perm, sign in _shuffles(fld, m, n - 1):
        pval = p.get(tuple(idx[perm[k]] for k in range(m)))
        if vec_is_zero(pval):
            continue
        qval = q.get(tuple([idx[perm[k]] for k in range(m, m + n - 1)]
                           + [idx[m + n - 1]]))
        axpy(acc, outer * sign, d.g.bracket(pval, qval))
    return acc


@PROPERTY
@given(st.data())
def test_derived_bracket_explicit_matches_old_loop(data):
    # arbitrary (mostly zero) tensors with dim g and dim h drawn apart, so
    # that a slot or index mix-up between g and h cannot cancel out
    field = data.draw(FIELDS)
    ng, nh = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    t3 = lambda a, b, c: [[_vec(data.draw, field, c) for _ in range(b)]
                          for _ in range(a)]
    d = LeibnizGRep(LeibnizAlgebra(field, ng, t3(ng, ng, ng)),
                    LeibnizAlgebra(field, nh, t3(nh, nh, nh)),
                    ActionPair(field, ng, nh, t3(ng, nh, nh), t3(nh, ng, nh)))
    top = 2 if nh == 3 else 3
    p = data.draw(maps(field, data.draw(st.integers(1, top)), nh, ng))
    q = data.draw(maps(field, data.draw(st.integers(1, top)), nh, ng))
    assert derived_bracket_explicit(d, p, q) == \
        old_derived_bracket_explicit(d, p, q)
