"""The one store of each structure tensor against its dense tensor.

Over Q, GF(2), GF(3) and GF(5), for every way a structure tensor is
built, the store must hold exactly the nonzero cells of the dense tensor
the construction describes, as raw values (Fractions over Q, residues in
[0, p) over GF(p), ints over ZZ) with no empty row; its by-index lists
must list exactly its rows; and the dense property must be that tensor.
The dense tensors below are built cell by cell, as the library built
them before it kept stores.  ``core.transport`` is held to the same
reference: the dense tensor of out(T(s e_a, t e_b)) built pair by pair
from contractions and ``mul_vec``, as the library built it before.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from leibniz_rb.cohomology import IntegerView
from leibniz_rb.core import (ActionPair, LeibnizAlgebra, LeibnizGRep,
                             _as_store, adjoint_grep, adjoint_pair,
                             change_of_basis_algebra, change_of_basis_grep,
                             contract, semidirect_product,
                             semidirect_product_unchecked, transport)
from leibniz_rb.errors import InvalidInput, ShapeMismatch
from leibniz_rb.fields import ZZ, PrimeField, RationalField
from leibniz_rb.linalg import Matrix
from leibniz_rb.manifest import parse_manifest
from leibniz_rb.operators import ideal_context
from leibniz_rb.postleibniz import PostLeibnizAlgebra

from conftest import dim2_nonlie, kernel_scalars

FIELDS = st.sampled_from([RationalField(), PrimeField(2), PrimeField(3),
                          PrimeField(5)])


def dense(fld, dims, cells):
    """Nested tuples of field elements: the sums of the (i, j, k) cells."""
    t = [[[fld.zero] * dims[2] for _ in range(dims[1])]
         for _ in range(dims[0])]
    for (i, j, k), x in cells:
        t[i][j][k] = t[i][j][k] + fld.coerce(x)
    return tuple(tuple(tuple(row) for row in plane) for plane in t)


def cells_of(t):
    return [((i, j, k), x) for i, plane in enumerate(t)
            for j, row in enumerate(plane) for k, x in enumerate(row)]


def assert_store_is(store, want):
    fld, p = store.field, store.field.characteristic
    rows = {}
    for (i, j, k), x in cells_of(want):
        if x:
            rows.setdefault((i, j), {})[k] = fld.to_raw([x])[0]
    assert store.rows == rows
    for x in (x for row in store.rows.values() for x in row.values()):
        if p:
            assert type(x) is int and 0 < x < p
        else:
            assert type(x) is (int if fld is ZZ else Fraction) and x
    assert sorted((i, j) for i, pairs in store.by_first.items()
                  for j, row in pairs if row is store.rows[i, j]) == \
        sorted(rows)
    assert sorted((i, j) for j, pairs in store.by_second.items()
                  for i, row in pairs if row is store.rows[i, j]) == \
        sorted(rows)
    assert store.dense() == want


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_store_is_the_nonzero_cells_of_the_dense_tensor(data):
    fld = data.draw(FIELDS)
    raw = st.sampled_from(kernel_scalars(fld))
    n, nv = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))

    def tensor(*dims):
        return [[[data.draw(raw) for _ in range(dims[2])]
                 for _ in range(dims[1])] for _ in range(dims[0])]

    def coerced(t, dims):
        return dense(fld, dims, cells_of(t))

    # dense input, explicit zero cells included
    tc, tl, tr = tensor(n, n, n), tensor(n, nv, nv), tensor(nv, n, nv)
    a = LeibnizAlgebra(fld, n, tc)
    assert_store_is(a.c_nz, coerced(tc, (n, n, n)))
    assert a.c == coerced(tc, (n, n, n))
    h = LeibnizAlgebra(fld, nv, tensor(nv, nv, nv))
    pair = ActionPair(fld, n, nv, tl, tr)
    assert_store_is(pair.left_nz, coerced(tl, (n, nv, nv)))
    assert_store_is(pair.right_nz, coerced(tr, (nv, n, nv)))
    assert (pair.left, pair.right) == (coerced(tl, (n, nv, nv)),
                                       coerced(tr, (nv, n, nv)))
    post = [tensor(n, n, n) for _ in range(3)]
    p = PostLeibnizAlgebra(fld, n, *post)
    for store, t in zip((p.left_nz, p.right_nz, p.bracket_nz), post):
        assert_store_is(store, coerced(t, (n, n, n)))
    assert (p.left, p.right, p.bracket) == tuple(coerced(t, (n, n, n))
                                                 for t in post)

    # from_entries
    entries = data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, n - 1)] * 3), raw, max_size=8))
    assert_store_is(LeibnizAlgebra.from_entries(fld, n, entries).c_nz,
                    dense(fld, (n, n, n), entries.items()))

    # parsed text: repeated cells add up, and one line cancels to zero
    kws = ("bracket", "left", "right", "pleft", "pright", "pbracket")
    cells = {kw: data.draw(st.lists(st.tuples(
        st.tuples(*[st.integers(0, n - 1)] * 3), raw), max_size=8))
        for kw in kws}
    lines = ["field " + ("gf %d" % fld.p if fld.characteristic
                         else "rational"),
             "algebra g dim %d" % n, "actions act on g g", "post P dim %d" % n]
    for kw, name in zip(kws, ("g", "act", "act", "P", "P", "P")):
        lines += ["%s %s e%d e%d -> %s e%d" % (kw, name, i + 1, j + 1, x,
                                               k + 1)
                  for (i, j, k), x in cells[kw] + cells[kw][:2]]
        lines.append("%s %s e1 e1 -> 1 e1 -1 e1" % (kw, name))
    m = parse_manifest("\n".join(lines) + "\n")
    got = [m.algebras["g"].c_nz, m.actions["act"][2].left_nz,
           m.actions["act"][2].right_nz, m.posts["P"].left_nz,
           m.posts["P"].right_nz, m.posts["P"].bracket_nz]
    for store, kw in zip(got, kws):
        assert_store_is(store, dense(fld, (n, n, n),
                                     cells[kw] + cells[kw][:2]))

    # semidirect_product (on a valid context and, unchecked, on any),
    # adjoint_pair and the post-Leibniz star
    lam = data.draw(raw)
    for d, build in ((LeibnizGRep(a, h, pair), semidirect_product_unchecked),
                     (adjoint_grep(dim2_nonlie(fld)), semidirect_product)):
        ng, size = d.g.dim, d.g.dim + d.h.dim
        blocks = ((d.g.c, 0, 0, 0, 1), (d.actions.left, 0, ng, ng, 1),
                  (d.actions.right, ng, 0, ng, 1), (d.h.c, ng, ng, ng, lam))
        assert_store_is(build(d, lam).c_nz, dense(fld, (size,) * 3, [
            ((i0 + i, j0 + j, k0 + k), fld.coerce(s) * x)
            for t, i0, j0, k0, s in blocks for (i, j, k), x in cells_of(t)]))
    for store in (adjoint_pair(a).left_nz, adjoint_pair(a).right_nz):
        assert_store_is(store, a.c)
    assert_store_is(p.star_nz, dense(fld, (n, n, n), [
        (ijk, x) for t in (p.left, p.right, p.bracket)
        for ijk, x in cells_of(t)]))

    # ideal_context: the bracket restricted to the span of the indices
    idx = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    closed = all(k in idx for (i, j, k), x in cells_of(a.c)
                 if x and (i in idx or j in idx))
    try:
        ctx, _ = ideal_context(a, idx)
    except InvalidInput:
        assert not closed
    else:
        assert closed
        m = len(idx)
        pick = lambda t, dims, axes: dense(fld, dims, [
            (tuple(idx.index(v) if ax else v for v, ax in zip(key, axes)), x)
            for key, x in cells_of(t)
            if all(v in idx for v, ax in zip(key, axes) if ax)])
        assert_store_is(ctx.h.c_nz, pick(a.c, (m, m, m), (1, 1, 1)))
        assert_store_is(ctx.actions.left_nz, pick(a.c, (n, m, m), (0, 1, 1)))
        assert_store_is(ctx.actions.right_nz,
                        pick(a.c, (m, n, m), (1, 0, 1)))

    # the int scaling of IntegerView: D times each cell, as ints over ZZ
    view = IntegerView(a, ActionPair(fld, n, n, tc, tc))
    ints = [a.c, view.rho.left, view.rho.right]
    nonzero = [x for t in ints for _, x in cells_of(t) if x]
    if fld.characteristic:
        assert view.den == 1
        scale = lambda x: x.v
    else:
        assert view.den == lcm(*(x.denominator for x in nonzero))
        scale = lambda x: int(view.den * x)
    for store, t in zip((view.h_z.c_nz, view.rho_z.left_nz,
                         view.rho_z.right_nz), ints):
        assert store.field is ZZ
        assert_store_is(store, tuple(tuple(tuple(scale(x) for x in row)
                                           for row in plane) for plane in t))

    # transport: 1-3 terms of random stores moved by random rectangular
    # matrices (zero and rank-one ones among them) into one store
    def matrix(nrows, ncols):
        rows = [[data.draw(raw) for _ in range(ncols)] for _ in range(nrows)]
        kind = data.draw(st.sampled_from(["any", "zero", "rank-one"]))
        if kind == "zero":
            rows = [[0] * ncols for _ in range(nrows)]
        elif kind == "rank-one":
            rows = [rows[0]] * nrows
        return Matrix(fld, rows, ncols)

    shape = [data.draw(st.integers(1, 3)) for _ in range(3)]
    terms, cells = [], []
    for _ in range(data.draw(st.integers(1, 3))):
        dims = tuple(data.draw(st.integers(1, 3)) for _ in range(3))
        store = _as_store(fld, dims, tensor(*dims))
        s, t, out = (matrix(dims[0], shape[0]), matrix(dims[1], shape[1]),
                     matrix(shape[2], dims[2]))
        terms.append((store, s, t, out))
        cells += [((a, b, m), x) for a in range(shape[0])
                  for b in range(shape[1]) for m, x in enumerate(out.mul_vec(
                      contract(fld, ((store, s.col(a), t.col(b)),),
                               dims[2])))]
    assert_store_is(transport(terms), dense(fld, shape, cells))
    # a term that does not fit its store, on each axis, is refused
    store, s, t, out = terms[-1]
    for axis in range(3):
        bad = [s, t, out]
        nrows, ncols = bad[axis].shape
        bad[axis] = matrix(nrows + (axis < 2), ncols + (axis == 2))
        with pytest.raises(ShapeMismatch):
            transport(terms[:-1] + [(store, *bad)])

    # basis changes by a matrix of the wrong size
    wrong = Matrix.identity(fld, n + 1)
    with pytest.raises(ShapeMismatch):
        change_of_basis_algebra(a, wrong)
    for sg, sh in ((wrong, Matrix.identity(fld, nv)),
                   (Matrix.identity(fld, n), Matrix.identity(fld, nv + 1))):
        with pytest.raises(ShapeMismatch):
            change_of_basis_grep(LeibnizGRep(a, h, pair), sg, sh)
