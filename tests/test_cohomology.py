import glob
import io
import os
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leibniz_rb import cohomology as cohomology_module
from leibniz_rb.cli import run_command
from leibniz_rb.cohomology import (DegreeData, IntegerView, cochain_dim,
                                   cohomology, d_T, delta_T, delta_T_0,
                                   delta_matrix, delta_rows,
                                   induced_representation)
from leibniz_rb.core import (ActionPair, LeibnizAlgebra, adjoint_grep,
                             basis_vec, change_of_basis_algebra,
                             change_of_basis_grep, leibniz_differential,
                             validate_representation)
from leibniz_rb.errors import (ContainmentViolated, InvalidOperator,
                               OracleDisagreement, ResourceLimit)
from leibniz_rb.fields import PrimeField, RationalField
from leibniz_rb.graded import _pow_sign
from leibniz_rb.linalg import Matrix, span_rank, vec_is_zero
from leibniz_rb.manifest import load_manifest
from leibniz_rb.multimap import MultiMap
from leibniz_rb.operators import WeightedRBO, induced_algebra
from leibniz_rb.postleibniz import compatible_structure, from_rbo

from conftest import (dim2_nonlie, heisenberg, random_matrix, random_multimap,
                      seeded, small_contexts)
from fraction_rref import fraction_rref
from golden_cases import CASES, ROOT


def cochain_basis(r, n):
    """Unit cochains of C^n in the pinned flattening order."""
    d, fld = r.context, r.field
    if n == 0:
        return [basis_vec(fld, d.g.dim, i) for i in range(d.g.dim)]
    dim = cochain_dim(r, n)
    return [MultiMap.from_flat(fld, n, d.h.dim, d.g.dim,
                               basis_vec(fld, dim, k)) for k in range(dim)]


def _rbo_id(fld):
    return WeightedRBO.on_algebra(dim2_nonlie(fld), fld.coerce(-1),
                                  Matrix.identity(fld, 2))


def test_induced_representation_is_valid(Q):
    r = _rbo_id(Q)
    pair = induced_representation(r)
    assert validate_representation(induced_algebra(r), pair).ok


def test_induced_representation_rejects_invalid_operator(Q):
    r = WeightedRBO.on_algebra(dim2_nonlie(Q), Q.one, Matrix.identity(Q, 2))
    with pytest.raises(InvalidOperator):
        induced_representation(r)


@pytest.mark.parametrize("call", [
    induced_algebra,
    induced_representation,
    lambda r: cohomology(r, 1),
    lambda r: delta_matrix(r, 1),
    from_rbo,
    lambda r: compatible_structure(r.context.g, r),
], ids=["induced_algebra", "induced_representation", "cohomology",
        "delta_matrix", "from_rbo", "compatible_structure"])
def test_invalid_operator_is_refused(Q, call):
    r = WeightedRBO.on_algebra(dim2_nonlie(Q), Q.one, Matrix.identity(Q, 2))
    with pytest.raises(InvalidOperator,
                       match="^operator fails the weighted identity"):
        call(r)


def test_induced_representation_nonsquare_dims(gf5):
    # regression: carrier and acting algebra dims differ
    d = small_contexts(gf5, (2, 1))[2]
    r = WeightedRBO(d, gf5.zero, Matrix(gf5, [[0], [1]]))
    pair = induced_representation(r)
    assert (pair.dim_g, pair.dim_v) == (1, 2)
    assert validate_representation(induced_algebra(r), pair).ok
    for f in (MultiMap.from_matrix(delta_T_0(r, [gf5.one, gf5.zero])),
              MultiMap.from_matrix(delta_T_0(r, [gf5.zero, gf5.one]))):
        assert delta_T(r, f).is_zero()


def test_delta_squares_to_zero(Q):
    r = _rbo_id(Q)
    rng = seeded(31)
    for i in range(2):
        x = [Q.coerce(rng.randrange(-3, 4)) for _ in range(2)]
        f1 = MultiMap.from_matrix(delta_T_0(r, x))
        assert delta_T(r, f1).is_zero()
    for arity in (1, 2):
        f = random_multimap(Q, arity, 2, 2, rng)
        assert delta_T(r, delta_T(r, f)).is_zero()


def test_d_T_is_signed_delta(Q, gf7):
    for fld in (Q, gf7):
        # rho^R_T vanishes for T = id; T = diag(0, 1) of weight 0 has a
        # nonzero one
        for lam, t in ((-1, Matrix.identity(fld, 2)),
                       (0, Matrix(fld, [[0, 0], [0, 1]]))):
            r = WeightedRBO.on_algebra(dim2_nonlie(fld), fld.coerce(lam), t)
            assert r.is_valid
            rng = seeded(37)
            for arity in (1, 2):
                f = random_multimap(fld, arity, 2, 2, rng)
                lhs = d_T(r, f)
                rhs = delta_T(r, f).scale(_pow_sign(fld, arity))
                assert lhs == rhs


def test_cochain_dims_and_flattening(Q):
    r = _rbo_id(Q)
    assert [cochain_dim(r, n) for n in range(4)] == [2, 4, 8, 16]
    basis = cochain_basis(r, 1)
    assert len(basis) == 4
    # pinned order: (source tuple, target index) lexicographic
    assert basis[0].apply((basis_vec(Q, 2, 0),)) == [Q.one, Q.zero]
    assert basis[1].apply((basis_vec(Q, 2, 0),)) == [Q.zero, Q.one]
    assert basis[2].apply((basis_vec(Q, 2, 1),)) == [Q.one, Q.zero]


def test_delta_matrix_composes_to_zero(Q):
    r = _rbo_id(Q)
    for n in range(2):
        prod = delta_matrix(r, n + 1) * delta_matrix(r, n)
        assert prod.rank() == 0


def test_golden_betti_dim2_identity(Q):
    r = _rbo_id(Q)
    rep = cohomology(r, 2)
    d0, d1, d2 = rep.degrees[0], rep.degrees[1], rep.degrees[2]
    assert (d0.dim_c, d0.dim_z, d0.dim_b, d0.dim_h) == (2, 2, 0, 2)
    assert (d1.dim_c, d1.dim_z, d1.dim_b, d1.dim_h) == (4, 2, 0, 2)
    assert (d2.dim_c, d2.dim_z, d2.dim_b, d2.dim_h) == (8, 4, 2, 2)
    assert rep.betti() == [2, 2, 2]


def test_betti_invariant_under_basis_change(Q):
    r = _rbo_id(Q)
    base = cohomology(r, 2).betti()
    rng = seeded(41)
    for _ in range(3):
        while True:
            sg = random_matrix(Q, 2, 2, rng)
            sh = random_matrix(Q, 2, 2, rng)
            if sg.is_invertible() and sh.is_invertible():
                break
        d2 = change_of_basis_grep(r.context, sg, sh)
        t2 = sg.inverse() * r.t * sh
        r2 = WeightedRBO(d2, r.weight, t2)
        assert r2.is_valid
        assert cohomology(r2, 2).betti() == base


def test_representatives_are_cocycles(Q):
    r = _rbo_id(Q)
    rep = cohomology(r, 2, representatives=True)
    for n in (1, 2):
        m = delta_matrix(r, n)
        for z in rep.degrees[n].cocycles:
            assert all(x == Q.zero for x in m.mul_vec(z))


def _delta_by_columns(r, n):
    """Oracle: delta_T_0 or one delta_T call per unit cochain of C^n."""
    if n == 0:
        cols = [MultiMap.from_matrix(delta_T_0(r, x)).flatten()
                for x in cochain_basis(r, 0)]
    else:
        cols = [delta_T(r, f).flatten() for f in cochain_basis(r, n)]
    return Matrix.from_cols(r.field, cols, cochain_dim(r, n + 1))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_delta_matrix_matches_column_oracle(n):
    for field_spec in ("rational", "gf 5"):
        for name, label, r in _manifest_operators(field_spec):
            m = delta_matrix(r, n)
            assert m.shape == (cochain_dim(r, n + 1), cochain_dim(r, n))
            assert m == _delta_by_columns(r, n), (name, label, r.weight)


def test_delta_matrix_is_delta_itself_when_d_exceeds_1(Q):
    # the dense Heisenberg basis (det 2) gives h_T and rho_T halves, D = 2;
    # the int rows are 2 delta, the matrix must be delta
    s = Matrix(Q, [[2, -1, 0], [-1, -1, -1], [-2, 2, 0]])
    a = change_of_basis_algebra(heisenberg(Q), s)
    for t in (Matrix.identity(Q, 3), Matrix.zeros(Q, 3, 3)):
        r = WeightedRBO(adjoint_grep(a), Q.coerce(-1), t)
        view = IntegerView(induced_algebra(r), induced_representation(r))
        assert view.den == 2
        for n in range(3):
            assert delta_matrix(r, n, cap=10 ** 5) == _delta_by_columns(r, n)
            assert delta_matrix(r, n, cap=10 ** 5, view=view) == \
                _delta_by_columns(r, n)


def _dense(rows, ncols, fld):
    out = []
    for row in rows:
        out.append([fld.zero] * ncols)
        for j, x in row.items():
            out[-1][j] = x
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_delta_rows_match_the_column_oracle(data):
    # arbitrary tensors: the assembly, like the Leibniz differential,
    # needs no axiom; dim V and dim h vary independently and may be 0
    fld = data.draw(st.sampled_from([RationalField(), PrimeField(2),
                                     PrimeField(3), PrimeField(5)]))
    nh, nv = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    n = data.draw(st.integers(0, 3 if nh < 3 else 2))
    scalar = st.sampled_from([0, 0, 0, 1, -1, 2, -3]).map(fld.coerce)

    def tensor(a, b, c):
        return [[data.draw(st.lists(scalar, min_size=c, max_size=c))
                 for _ in range(b)] for _ in range(a)]

    h = LeibnizAlgebra(fld, nh, tensor(nh, nh, nh))
    rho = ActionPair(fld, nh, nv, tensor(nh, nv, nv), tensor(nv, nh, nv))
    ncols = nv * nh ** n
    if n == 0:
        # delta_0 x = -rho^R(x, .)
        cols = [[-y for a in range(nh)
                 for y in rho.right_act(basis_vec(fld, nv, k),
                                        basis_vec(fld, nh, a))]
                for k in range(nv)]
    else:
        cols = [leibniz_differential(h, rho, MultiMap.from_flat(
            fld, n, nh, nv, basis_vec(fld, ncols, k))).flatten()
            for k in range(ncols)]
    rows = delta_rows(h.c, rho.left, rho.right, n)
    assert len(rows) == nv * nh ** (n + 1)
    assert all(x and 0 <= j < ncols for row in rows for j, x in row.items())
    assert _dense(rows, ncols, fld) == \
        Matrix.from_cols(fld, cols, len(rows)).rows


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_rows_are_exactly_scaled(data):
    # over Q the int rows are D times the Fraction rows, entry for entry;
    # over GF(p) the residue rows reduce to the element rows
    fld = data.draw(st.sampled_from([RationalField(), PrimeField(2),
                                     PrimeField(3), PrimeField(5)]))
    nh, nv = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    n = data.draw(st.integers(0, 3 if nh < 3 else 2))
    dens = [1] if fld.characteristic else [1, 2, 3, 6]
    scalar = st.builds(Fraction, st.sampled_from([0, 0, 1, -1, 2, -5]),
                       st.sampled_from(dens)).map(fld.coerce)

    def tensor(a, b, c):
        return [[data.draw(st.lists(scalar, min_size=c, max_size=c))
                 for _ in range(b)] for _ in range(a)]

    h = LeibnizAlgebra(fld, nh, tensor(nh, nh, nh))
    rho = ActionPair(fld, nh, nv, tensor(nh, nv, nv), tensor(nv, nh, nv))
    view = IntegerView(h, rho)
    rows, den = view.rows(n), view.den
    assert all(type(x) is int for row in rows for x in row.values())
    want = delta_rows(h.c, rho.left, rho.right, n)
    p = fld.characteristic
    if p:
        assert den == 1
        assert [{j: x % p for j, x in row.items() if x % p}
                for row in rows] == [{j: x.v for j, x in row.items()}
                                     for row in want]
    else:
        assert 6 % den == 0
        assert rows == [{j: den * x for j, x in row.items()}
                        for row in want]


@pytest.mark.parametrize("p", [0, 2, 5])
def test_wrong_assembly_is_caught(p, monkeypatch):
    fld = PrimeField(p) if p else RationalField()
    r = _rbo_id(fld)
    assert r.is_valid
    real = cohomology_module.delta_rows

    def corrupted(c, left, right, n):
        # one int entry changes: the last column of the last row
        rows = real(c, left, right, n)
        j = len(right) * len(c) ** n - 1
        rows[-1][j] = rows[-1].get(j, 0) + 1
        return rows

    monkeypatch.setattr(cohomology_module, "delta_rows", corrupted)
    for n in range(3):
        with pytest.raises(OracleDisagreement, match="^delta_%d " % n):
            delta_matrix(r, n)
    out, err = io.StringIO(), io.StringIO()
    code = run_command(["cohomology", os.path.join(ROOT, "manifests",
                                                   "dim2-nonlie.lra"),
                        "--operator", "id", "--field",
                        "gf %d" % p if p else "rational"], out=out, err=err)
    assert (code, out.getvalue()) == (2, "")
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: delta_")


def _dense_heisenberg(fld, t="id"):
    """T = id or T = 0 of weight -1 on Heisenberg in a dense basis.

    All 18 constants [e_i, e_j]_k with i != j are nonzero in this basis
    (det 2).
    """
    s = Matrix(fld, [[2, -1, 0], [-1, -1, -1], [-2, 2, 0]])
    a = change_of_basis_algebra(heisenberg(fld), s)
    assert sum(1 for plane in a.c for row in plane for x in row if x) == 18
    op = Matrix.identity(fld, 3) if t == "id" else Matrix.zeros(fld, 3, 3)
    return WeightedRBO(adjoint_grep(a), fld.coerce(-1), op)


def test_heisenberg_degree_4_in_a_dense_basis(Q):
    # delta_4 is 729 x 243, past the default cap
    r = _dense_heisenberg(Q)
    assert cohomology(r, 4, cap=200_000).betti() == [3, 6, 15, 30, 66]


@pytest.mark.slow
def test_heisenberg_degree_5_in_a_dense_basis(Q):
    # delta_5 is 2,187 x 729 cells
    r = _dense_heisenberg(Q)
    assert cohomology(r, 5, cap=1_600_000).betti() == \
        [3, 6, 15, 30, 66, 141]


@pytest.mark.parametrize("p", [0, 5])
@pytest.mark.parametrize("t", ["id", "zero"])
def test_rref_of_dense_deltas_matches_field_rows(p, t):
    # the integer-row elimination against the one on Fraction/GFElement rows
    r = _dense_heisenberg(PrimeField(p) if p else RationalField(), t)
    for n in range(4):
        m = delta_matrix(r, n)
        assert m.rref() == fraction_rref(m)


def test_cap_enforced(Q):
    r = _rbo_id(Q)
    with pytest.raises(ResourceLimit):
        cohomology(r, 3, cap=8)
    # the cap bounds the cells of each delta matrix, not each dimension
    assert delta_matrix(r, 2, cap=16 * 8).shape == (16, 8)
    with pytest.raises(ResourceLimit):
        delta_matrix(r, 2, cap=16 * 8 - 1)


def _kernel_quotient_route(r, max_degree):
    """Oracle: the route cohomology() took before rank-nullity.

    Z^n is the kernel of delta_n and B^n the column span of delta_{n-1};
    dim H^n is rank Z - rank B after checking rank(Z + B) = rank Z.
    """
    fld = r.field
    out = []
    for n in range(max_degree + 1):
        z_basis = delta_matrix(r, n).kernel_basis()
        b_basis = []
        if n:
            prev = delta_matrix(r, n - 1)
            b_basis = [prev.col(j) for j in range(prev.ncols)]
        rz = span_rank(fld, z_basis)
        if b_basis and span_rank(fld, z_basis + b_basis) != rz:
            raise ContainmentViolated("coboundaries not contained in cocycles")
        rb = span_rank(fld, b_basis)
        out.append(DegreeData(cochain_dim(r, n), len(z_basis), rb, rz - rb,
                              z_basis))
    return out


def _manifest_operators(field_spec):
    """Every valid operator on every context of manifests/*.lra.

    Each manifest is read as `leibniz-rb --field field_spec` reads it.  The
    contexts are the adjoint one of each algebra and each action pair; the
    operators are zero, id (square contexts) and the named maps from h to
    g, of weight 0, 1, -1 and the manifest's lambda.
    """
    out = []
    for path in sorted(glob.glob(os.path.join(ROOT, "manifests", "*.lra"))):
        m = load_manifest(path, field=field_spec)
        fld = m.field
        contexts = [(name, name, adjoint_grep(a))
                    for name, a in m.algebras.items()]
        contexts += [(g, h, m.grep(name))
                     for name, (g, h, _) in m.actions.items()]
        weights = {fld.zero, fld.one, -fld.one}
        if "lambda" in m.scalars:
            weights.add(m.scalars["lambda"])
        for g, h, d in contexts:
            ops = [("zero", Matrix.zeros(fld, d.g.dim, d.h.dim))]
            if d.g.dim == d.h.dim:
                ops.append(("id", Matrix.identity(fld, d.g.dim)))
            ops += [(name, t) for name, (src, dst, t) in m.maps.items()
                    if (src, dst) == (h, g)]
            for label, t in ops:
                for lam in sorted(weights, key=str):
                    r = WeightedRBO(d, lam, t)
                    if r.is_valid:
                        out.append((os.path.basename(path), label, r))
    return out


@pytest.mark.parametrize("field_spec", ["rational", "gf 5"])
def test_cohomology_matches_kernel_quotient_oracle(field_spec):
    cases = _manifest_operators(field_spec)
    assert {label for _, label, _ in cases} >= {"zero", "id", "incl", "zz"}
    for name, label, r in cases:
        want = _kernel_quotient_route(r, 2)
        got = cohomology(r, 2, representatives=True)
        assert [got.degrees[n] for n in range(3)] == want, (name, label)
        plain = cohomology(r, 2)
        assert list(plain.degrees.values()) == \
            [replace(dd, cocycles=[]) for dd in want]


def test_corrupted_delta_raises_containment_violated(Q, monkeypatch):
    r = _rbo_id(Q)
    n = 2
    dn, dprev = delta_matrix(r, n), delta_matrix(r, n - 1)
    # a row of delta_{n-1} whose delta_n column is nonzero
    i = next(k for k in range(dn.ncols) if not vec_is_zero(dn.col(k)))
    # x_k at column j and -x_j at column k leave the image of the probe
    # cochain x (x_j = 1 + j over Q) unchanged, so only the trap can see it
    j, k = 0, dprev.ncols - 1
    real = cohomology_module.delta_rows

    def corrupted(c, left, right, m):
        rows = real(c, left, right, m)
        if m == n - 1:
            rows[i][j] = rows[i].get(j, 0) + (1 + k)
            rows[i][k] = rows[i].get(k, 0) - (1 + j)
        return rows

    monkeypatch.setattr(cohomology_module, "delta_rows", corrupted)
    assert delta_matrix(r, n - 1) != dprev
    with pytest.raises(ContainmentViolated,
                       match="^delta_2 . delta_1 is nonzero on column"):
        cohomology(r, n)


def _int_rows(m, den):
    """The int rows of den * m: numerators over Q, residues over GF(p)."""
    raw = (lambda x: x.v) if m.field.characteristic else \
        (lambda x: int(x * den))
    return [{j: raw(x) for j, x in enumerate(row) if x} for row in m.rows]


@pytest.mark.parametrize("p", [0, 5])
def test_square_zero_trap_is_exact_and_names_the_first_column(p):
    fld = PrimeField(p) if p else RationalField()
    half = fld.half()
    dn = Matrix(fld, [[1, 2, 0], [0, 0, 0], [half, 1, 3]])
    # column 0 cancels exactly (2 e_0 - e_1), columns 2 and 3 do not
    dprev = Matrix(fld, [[2, 0, 1, 1], [-1, 0, 0, 1], [0, 0, 0, 0]])
    # over Q the rows are scaled by D = 2, so the 1/2 entry is the int 1
    rows = _int_rows(dn, 2)
    assert rows[2][0] == (1 if not p else 3)
    square_zero = cohomology_module._require_square_zero
    first = Matrix.from_cols(fld, [dprev.col(0), dprev.col(1)], 3)
    square_zero(1, rows, _int_rows(first, 2), p)
    with pytest.raises(ContainmentViolated, match="column 2$"):
        square_zero(1, rows, _int_rows(dprev, 2), p)


@pytest.mark.parametrize("representatives", [False, True])
def test_cohomology_eliminates_each_delta_once(Q, rref_calls, representatives):
    r = _rbo_id(Q)
    for k in range(4):
        rref_calls.clear()
        cohomology(r, k, representatives=representatives)
        assert len(rref_calls) == k + 1


def test_cohomology_builds_the_induced_structure_once(Q, monkeypatch):
    r = _rbo_id(Q)
    validations, builds = [], []
    real_validate = WeightedRBO.validate
    real_rep = cohomology_module.induced_representation

    def validate(self):
        validations.append(self)
        return real_validate(self)

    def rep(r):
        builds.append(r)
        return real_rep(r)

    monkeypatch.setattr(WeightedRBO, "validate", validate)
    monkeypatch.setattr(cohomology_module, "induced_representation", rep)
    for k in range(4):
        validations.clear()
        builds.clear()
        cohomology(r, k)
        # once in induced_algebra, once in induced_representation
        assert (len(validations), len(builds)) == (2, 1)


@pytest.mark.parametrize("name", ["obstruct-frozen", "extend-frozen"])
def test_obstruction_builds_the_induced_structure_once(name, monkeypatch):
    validations = []
    real_validate = WeightedRBO.validate

    def validate(self):
        validations.append(self)
        return real_validate(self)

    monkeypatch.setattr(WeightedRBO, "validate", validate)
    monkeypatch.chdir(ROOT)
    out, err = io.StringIO(), io.StringIO()
    run_command(dict(CASES)[name], out=out, err=err)
    assert err.getvalue() == ""
    # one IntegerView serves the 2-cocycle check and delta_1
    assert len(validations) == 2


def test_invalid_operator_is_refused_before_the_cap(Q):
    r = WeightedRBO.on_algebra(dim2_nonlie(Q), Q.one, Matrix.identity(Q, 2))
    with pytest.raises(InvalidOperator):
        cohomology(r, 3, cap=1)
    with pytest.raises(ResourceLimit):
        cohomology(_rbo_id(Q), 3, cap=1)
