from fractions import Fraction
from itertools import product as iproduct

import pytest

from leibniz_rb import deformations, graded
from leibniz_rb.cohomology import delta_T_0
from leibniz_rb.core import (ActionPair, LeibnizAlgebra, LeibnizGRep,
                             adjoint_grep, change_of_basis_grep,
                             validate_leibniz_g_rep)
from leibniz_rb.deformations import (Deformation, check_deformation,
                                     check_equivalence, check_nijenhuis,
                                     conjugate_deformation, extend,
                                     infinitesimal, obstruction,
                                     rigidity_certificate)
from leibniz_rb.errors import (BaseMismatch, ContainmentViolated,
                               InvalidDeformation, OracleDisagreement,
                               ResourceLimit, ShapeMismatch, WrongField)
from leibniz_rb.fields import PrimeField, RationalField
from leibniz_rb.linalg import Matrix
from leibniz_rb.multimap import MultiMap
from leibniz_rb.operators import WeightedRBO, search_rbos

from conftest import (dim2_nonlie, heisenberg, rho_l_context, seeded,
                      sl2 as make_sl2, small_contexts)
from deformation_reference import (direct_violations, nijenhuis_failures,
                                   nijenhuis_reference,
                                   set_difference_certificate)


def _rbo_id(fld):
    return WeightedRBO.on_algebra(dim2_nonlie(fld), fld.coerce(-1),
                                  Matrix.identity(fld, 2))


def _shear(fld, n):
    return Matrix(fld, [[1, 0], [3, 1]] if n == 2 else [[1]])


def _small_operators(fld):
    """Up to two operators of each weight 0, 1, -1 on each small context.

    Each context comes also in a sheared basis, where a cocycle basis
    read off delta_1 is not in echelon form.
    """
    out = []
    for dims in ((1, 1), (2, 1), (1, 2), (2, 2)):
        for d0 in small_contexts(fld, dims):
            for d, lam in iproduct((d0, change_of_basis_grep(
                    d0, _shear(fld, dims[0]), _shear(fld, dims[1]))),
                    (0, 1, -1)):
                for k, t in enumerate(search_rbos(d, lam)):
                    out.append(WeightedRBO(d, lam, t))
                    if k == 1:
                        break
    return out


def _tensor(fld, dims, entries):
    """The dense tensor of shape dims with the entries {(i, j, k): x}."""
    t = [[[fld.zero] * dims[2] for _ in range(dims[1])]
         for _ in range(dims[0])]
    for (i, j, k), x in entries.items():
        t[i][j][k] = fld.coerce(x)
    return t


def _pair(fld, ng, nv, left, right):
    """The action pair with the nonzero entries left and right."""
    return ActionPair(fld, ng, nv, _tensor(fld, (ng, nv, nv), left),
                      _tensor(fld, (nv, ng, nv), right))


def _nijenhuis_contexts(fld):
    """Contexts on which the Nijenhuis verdict varies with x0.

    Each comes with the conditions some x0 fails and the number of
    Nijenhuis x0 as a power of p:
    - sl2 (basis H, E, F) acting by zero on a line: condition 1 alone;
    - the line acting on sl2 by ad_H, rho^R = -rho^L: condition 2 alone;
    - r2 = <e1, e2>, [e1, e2] = e2, on the abelian plane by
      rho^L(e1) = diag(0, -1), rho^L(e2) = E_12: condition 3 alone with
      rho^R = 0, conditions 3 and 4 with rho^R = -rho^L;
    - sl2 in its adjoint context: all four;
    - dim2_nonlie on the abelian plane by rho^L(e1) = [[-1, 1], [0, -1]],
      rho^L(e2) = 0, rho^R(-, e1) = diag(0, 1) and rho^R(-, e2) = E_12:
      condition 4 alone, though condition 3 reads the same A and B.
    Matrices act on columns: E_12 sends the second basis vector to the
    first.
    """
    sl2 = make_sl2(fld)
    r2 = LeibnizAlgebra.from_entries(fld, 2, {(0, 1, 1): 1, (1, 0, 1): -1})
    line, plane = LeibnizAlgebra.zero(fld, 1), LeibnizAlgebra.zero(fld, 2)
    ad_h = {(0, 1, 1): 2, (0, 2, 2): -2}
    r2_left = {(0, 1, 1): -1, (1, 1, 0): 1}
    minus = {(a, i, b): -x for (i, a, b), x in r2_left.items()}
    out = [
        (LeibnizGRep(sl2, line, ActionPair.zero(fld, 3, 1)), {1}, 0),
        (LeibnizGRep(line, sl2, _pair(fld, 1, 3, ad_h, {
            (a, i, b): -x for (i, a, b), x in ad_h.items()})), {2}, 0),
        (LeibnizGRep(r2, plane, _pair(fld, 2, 2, r2_left, {})), {3}, 1),
        (LeibnizGRep(r2, plane, _pair(fld, 2, 2, r2_left, minus)), {3, 4}, 1),
        (adjoint_grep(sl2), {1, 2, 3, 4}, 0),
        (LeibnizGRep(dim2_nonlie(fld), plane, _pair(
            fld, 2, 2, {(0, 0, 0): -1, (0, 1, 0): 1, (0, 1, 1): -1},
            {(1, 0, 1): 1, (1, 1, 0): 1})), {4}, 1)]
    for d, _, _ in out:
        assert validate_leibniz_g_rep(d).ok
    return out


def _nijenhuis_operators(fld):
    """T = 0 of weight 0 and one nonzero operator on each context of
    ``_nijenhuis_contexts``: the identity of weight -1 on adjoint sl2,
    else the first of weight 1 that ``search_rbos`` finds."""
    out = []
    for d, _, _ in _nijenhuis_contexts(fld):
        shape = d.g.dim, d.h.dim
        out.append(WeightedRBO(d, fld.zero, Matrix.zeros(fld, *shape)))
        if d.g == d.h:
            out.append(WeightedRBO(d, -fld.one, Matrix.identity(fld, 3)))
        else:
            out.append(WeightedRBO(d, fld.one, next(
                t for t in search_rbos(d, fld.one) if not t.is_zero())))
    return out


def _all_x0(fld, n):
    return [[fld.coerce(x) for x in digits]
            for digits in iproduct(range(fld.p), repeat=n)]


def _frozen_nonextensible(gf5):
    """Order-1 deformation over GF(5) whose obstruction is not a coboundary."""
    d = rho_l_context(gf5)
    base = WeightedRBO(d, gf5.zero, Matrix.zeros(gf5, 1, 1))
    return Deformation(base, [base.t, Matrix(gf5, [[1]])])


def test_trivial_deformation_validates(Q):
    r = _rbo_id(Q)
    defm = Deformation.trivial(r, 2)
    assert check_deformation(defm).ok
    assert defm.order == 2


def test_base_mismatch_rejected(Q):
    r = _rbo_id(Q)
    with pytest.raises(BaseMismatch):
        Deformation(r, [Matrix.zeros(Q, 2, 2)])
    with pytest.raises(ShapeMismatch):
        Deformation(r, [r.t, Matrix.zeros(Q, 1, 1)])


def test_invalid_deformation_reported(Q):
    r = _rbo_id(Q)
    defm = Deformation(r, [r.t, Matrix.identity(Q, 2)])
    rep = check_deformation(defm)
    assert not rep.ok
    assert rep.laws_violated() == ["deformation-equation"]


@pytest.mark.parametrize("p", [0, 2, 3, 5, 7])
@pytest.mark.parametrize("t1", [[[1, 0], [0, 1]], [[1, 0], [0, 0]]],
                         ids=["failing", "valid"])
def test_dgla_cross_check_runs_where_2_is_invertible(p, t1, monkeypatch):
    fld = PrimeField(p) if p else RationalField()
    r = WeightedRBO.on_algebra(dim2_nonlie(fld), fld.one,
                               Matrix.zeros(fld, 2, 2))
    defm = Deformation(r, [r.t, Matrix(fld, t1)])
    calls = []
    real = graded.differential_d_explicit

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(graded, "differential_d_explicit", counted)
    rep = check_deformation(defm)
    assert rep.ok == (t1[1][1] == 0)
    assert len(calls) == 1


@pytest.mark.parametrize("p", [0, 2, 5])
def test_split_dgla_form_is_trapped_where_2_is_invertible(p, monkeypatch):
    # the dgLa form forced to read zero on a deformation whose equation
    # fails at order 1: the verdicts split, over GF(2) too
    fld = PrimeField(p) if p else RationalField()
    r = WeightedRBO.on_algebra(dim2_nonlie(fld), fld.one,
                               Matrix.zeros(fld, 2, 2))
    defm = Deformation(r, [r.t, Matrix.identity(fld, 2)])
    # at order 1 both terms of d_T(T_1) are arity-2 maps h x h -> g
    zero = lambda d, *args: MultiMap(d.field, 2, d.h.dim, d.g.dim)
    monkeypatch.setattr(graded, "differential_d_explicit", zero)
    monkeypatch.setattr(graded, "derived_bracket_explicit", zero)
    with pytest.raises(OracleDisagreement):
        check_deformation(defm)


def test_infinitesimal_is_cocycle(gf5):
    defm = _frozen_nonextensible(gf5)
    assert check_deformation(defm).ok
    t1, is_cocycle = infinitesimal(defm)
    assert is_cocycle
    assert t1.to_matrix() == defm.coeffs[1]


def test_infinitesimal_requires_order_and_validity(Q):
    r = _rbo_id(Q)
    with pytest.raises(InvalidDeformation):
        infinitesimal(Deformation.trivial(r, 0))
    bad = Deformation(r, [r.t, Matrix.identity(Q, 2)])
    with pytest.raises(InvalidDeformation):
        infinitesimal(bad)


def test_conjugate_is_equivalent(Q):
    r = _rbo_id(Q)
    defm = Deformation.trivial(r, 2)
    x0 = [Q.one, Q.coerce(2)]
    other = conjugate_deformation(defm, x0)
    assert check_deformation(other).ok
    assert check_equivalence(defm, other, x0)
    # conjugating back with -x0 is not an inverse in general, but the
    # round-trip through the same maps is the identity on coefficients
    assert check_equivalence(defm, defm, [Q.zero, Q.zero])


def test_equivalence_rejects_wrong_map(gf5):
    d = small_contexts(gf5, (2, 1))[2]
    r = WeightedRBO(d, gf5.zero, Matrix(gf5, [[0], [1]]))
    defm = Deformation.trivial(r, 1)
    other = conjugate_deformation(defm, [gf5.one, gf5.zero])
    assert other.coeffs[1] != defm.coeffs[1]
    assert check_equivalence(defm, other, [gf5.one, gf5.zero])
    assert not check_equivalence(defm, other, [gf5.zero, gf5.one])


def test_equivalence_infinitesimal_disagreement(gf5, monkeypatch):
    # the morphism conditions hold, but delta(x0) is made to differ
    d = small_contexts(gf5, (2, 1))[2]
    r = WeightedRBO(d, gf5.zero, Matrix(gf5, [[0], [1]]))
    defm = Deformation.trivial(r, 1)
    x0 = [gf5.one, gf5.zero]
    other = conjugate_deformation(defm, x0)
    monkeypatch.setattr(deformations, "delta_T_0",
                        lambda r, x0: Matrix.zeros(gf5, 2, 1))
    with pytest.raises(OracleDisagreement):
        check_equivalence(defm, other, x0)


def test_nijenhuis_conditions(Q):
    r = _rbo_id(Q)
    assert check_nijenhuis(r, [Q.zero, Q.zero])
    assert check_nijenhuis(r, [Q.zero, Q.one])  # e2 brackets to zero
    with pytest.raises(ShapeMismatch):
        check_nijenhuis(r, [Q.zero])


def test_x0_must_live_in_g(gf5):
    r = WeightedRBO(small_contexts(gf5, (2, 1))[2], gf5.zero,
                    Matrix(gf5, [[0], [1]]))
    defm = Deformation.trivial(r, 1)
    for n in (1, 3):
        x0 = [gf5.one] * n
        for call in (lambda: check_equivalence(defm, defm, x0),
                     lambda: conjugate_deformation(defm, x0),
                     lambda: delta_T_0(r, x0),
                     lambda: check_nijenhuis(r, x0)):
            with pytest.raises(ShapeMismatch, match="x0 must live in g"):
                call()


@pytest.mark.parametrize("fld,other", [
    (RationalField(), PrimeField(5)), (PrimeField(5), PrimeField(3))],
    ids=["gf5-on-q", "gf3-on-gf5"])
def test_x0_over_another_field_is_wrong_field(fld, other):
    # a GF(5) x0 on a Q context ended in a bare TypeError
    r = _rbo_id(fld)
    defm = Deformation.trivial(r, 1)
    x0 = [other.one, other.zero]
    for call in (lambda: check_nijenhuis(r, x0),
                 lambda: delta_T_0(r, x0),
                 lambda: check_equivalence(defm, defm, x0)):
        with pytest.raises(WrongField):
            call()


def _nijenhuis_cases(fld):
    """The contexts where the verdict varies, then every small context."""
    return _nijenhuis_contexts(fld) + [
        (d, None, None) for dims in ((1, 1), (2, 1), (1, 2), (2, 2))
        for d in small_contexts(fld, dims)]


def _nijenhuis_verdicts_match(fld, cases, sample):
    """check_nijenhuis == nijenhuis_reference == no failed condition on
    each x0 of sample(context); returns the verdicts seen, and checks the
    conditions failed and the Nijenhuis count where cases give them."""
    verdicts = set()
    for d, failing, count in cases:
        r = WeightedRBO(d, fld.zero, Matrix.zeros(fld, d.g.dim, d.h.dim))
        seen, nij = set(), 0
        for x0 in sample(d):
            fails = nijenhuis_failures(r, x0)
            assert check_nijenhuis(r, x0) == nijenhuis_reference(r, x0) \
                == (not fails)
            seen |= fails
            nij += not fails
            verdicts.add(not fails)
        if failing is not None:
            assert seen == failing and nij == fld.p ** count
    return verdicts


def test_nijenhuis_matches_reference(gf5):
    # every x0 over GF(5), on the contexts where the verdict varies and
    # on every small context
    assert _nijenhuis_verdicts_match(gf5, _nijenhuis_cases(gf5), lambda d:
                                     _all_x0(gf5, d.g.dim)) == {True, False}


@pytest.mark.parametrize("p", [2, 3, 7])
def test_nijenhuis_matches_reference_mod_p(p):
    # the raw sums are reduced mod p in every characteristic; over GF(2)
    # sl2 has [H, E] = 2E = 0 and ad_H = 0, so the conditions its contexts
    # fail and their Nijenhuis counts differ there and are not checked
    fld = PrimeField(p)
    cases = [(d, failing, count) if p > 2 or 3 not in (d.g.dim, d.h.dim)
             else (d, None, None)
             for d, failing, count in _nijenhuis_cases(fld)]
    assert _nijenhuis_verdicts_match(fld, cases, lambda d: _all_x0(
        fld, d.g.dim)) == {True, False}


def test_nijenhuis_matches_reference_over_q(Q):
    # a seeded sample of x0 over Q, with the lattice {0, 1}^dim g, which
    # holds the Nijenhuis lines of the contexts where the verdict varies
    rng = seeded(53)
    values = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]

    def sample(d):
        return [[Q.coerce(x) for x in digits]
                for digits in iproduct((0, 1), repeat=d.g.dim)] + [
            [Q.coerce(rng.choice(values)) for _ in range(d.g.dim)]
            for _ in range(12)]

    cases = [(d, None, None) for d, _, _ in _nijenhuis_cases(Q)]
    assert _nijenhuis_verdicts_match(Q, cases, sample) == {True, False}


def _equivalence_matches_nijenhuis(operators):
    """Order 1 of the morphism conditions holds on every valid context;
    order 2 of the conjugate by x0 holds iff x0 is a Nijenhuis element.
    Returns the Nijenhuis verdicts seen."""
    verdicts = set()
    for r in operators:
        d1, d2 = Deformation.trivial(r, 1), Deformation.trivial(r, 2)
        for x0 in _all_x0(r.field, r.context.g.dim):
            assert check_equivalence(d1, conjugate_deformation(d1, x0), x0)
            nij = check_nijenhuis(r, x0)
            assert check_equivalence(d2, conjugate_deformation(d2, x0),
                                     x0) == nij
            verdicts.add(nij)
    return verdicts


def test_equivalence_is_nijenhuis(gf5):
    assert _equivalence_matches_nijenhuis(
        _nijenhuis_operators(gf5)) == {True, False}


@pytest.mark.slow
@pytest.mark.parametrize("p", [5, 7])
def test_equivalence_is_nijenhuis_on_small_operators(p):
    # over GF(5) every x0 of every small context is a Nijenhuis element
    fld = PrimeField(p)
    _equivalence_matches_nijenhuis(
        _small_operators(fld) + (_nijenhuis_operators(fld) if p == 7 else []))


def test_obstruction_trivial_deformation_extends(Q):
    r = _rbo_id(Q)
    defm = Deformation.trivial(r, 1)
    cls = obstruction(defm)
    assert cls.ob.is_zero() and cls.is_coboundary
    ext = extend(defm)
    assert ext is not None and ext.order == 2
    assert check_deformation(ext).ok


def test_frozen_instance_is_obstructed(gf5):
    defm = _frozen_nonextensible(gf5)
    cls = obstruction(defm)
    assert not cls.ob.is_zero()
    assert not cls.is_coboundary
    assert extend(defm) is None
    # exhaustive confirmation: no T_2 over GF(5) satisfies order 2
    for c in range(5):
        cand = Deformation(defm.base,
                           defm.coeffs + [Matrix(gf5, [[c]])])
        assert not check_deformation(cand).ok


def test_rigidity_satisfied_instance(gf5):
    d = small_contexts(gf5, (2, 1))[2]
    r = WeightedRBO(d, gf5.zero, Matrix(gf5, [[0], [1]]))
    cert = rigidity_certificate(r)
    assert cert.satisfied
    assert cert.witness is None
    assert cert.dim_z1 == 1 and cert.nijenhuis_count == 25


def test_rigidity_applies_one_delta_0(gf5, monkeypatch):
    # delta_0 is one matrix, checked once against delta_T_0 by its probe,
    # then applied to each of the 25 Nijenhuis elements
    from leibniz_rb import cohomology
    calls = []
    real = cohomology.delta_T_0

    def counted(r, x):
        calls.append(x)
        return real(r, x)

    for module in (cohomology, deformations):
        monkeypatch.setattr(module, "delta_T_0", counted)
    d = small_contexts(gf5, (2, 1))[2]
    cert = rigidity_certificate(WeightedRBO(d, gf5.zero,
                                            Matrix(gf5, [[0], [1]])))
    assert cert.satisfied and cert.nijenhuis_count == 25
    assert len(calls) == 1


def test_rigidity_honest_failure(gf5):
    r = WeightedRBO(rho_l_context(gf5), gf5.zero, Matrix.zeros(gf5, 1, 1))
    cert = rigidity_certificate(r)
    assert not cert.satisfied
    assert cert.witness is not None
    assert cert == set_difference_certificate(r)


@pytest.mark.parametrize("p", [5, 7])
def test_rigidity_matches_set_difference(p):
    # counting delta_0 images decides as comparing Z^1 with the image set,
    # and reports the same smallest witness
    certs = []
    for r in _small_operators(PrimeField(p)):
        cert = rigidity_certificate(r)
        assert cert == set_difference_certificate(r)
        certs.append(cert)
    assert any(c.satisfied for c in certs)
    assert any(c.witness is not None for c in certs)


@pytest.mark.slow
def test_rigidity_matches_set_difference_on_a_3_dim_g():
    # 343 candidates x0 over GF(7): all Nijenhuis on Heisenberg acting by
    # zero on a line, 49 on r2 + a line acting on the plane (rho^R =
    # -rho^L), only x0 = 0 on adjoint sl2; the set route shares no code
    # with the scan
    fld = PrimeField(7)
    r2_line = LeibnizAlgebra.from_entries(fld, 3, {(0, 1, 1): 1,
                                                   (1, 0, 1): -1})
    left = {(0, 1, 1): -1, (1, 1, 0): 1}
    contexts = [
        LeibnizGRep(heisenberg(fld), LeibnizAlgebra.zero(fld, 1),
                    ActionPair.zero(fld, 3, 1)),
        LeibnizGRep(r2_line, LeibnizAlgebra.zero(fld, 2), _pair(
            fld, 3, 2, left, {(a, i, b): -x for (i, a, b), x in left.items()}))]
    operators = [WeightedRBO(adjoint_grep(make_sl2(fld)), -1,
                             Matrix.identity(fld, 3))] + [
        WeightedRBO(d, lam, t) for d in contexts for lam in (0, 1)
        for t in (Matrix.zeros(fld, 3, d.h.dim),
                  Matrix.from_cols(fld, [[0, 0, 1]] * d.h.dim, 3))]
    counts = set()
    for r in operators:
        cert = rigidity_certificate(r)
        assert cert == set_difference_certificate(r)
        counts.add(cert.nijenhuis_count)
    assert counts == {1, 49, 343}


@pytest.mark.parametrize("p", [5, 7])
def test_deformation_matches_term_by_term_route(p):
    fld = PrimeField(p)
    rng = seeded(41)
    bad = 0
    for r in _small_operators(fld):
        ng, nh = r.t.shape
        draws = [[[fld.coerce(rng.randrange(p)) for _ in range(nh)]
                  for _ in range(ng)] for _ in range(2)]
        for defm in (Deformation.trivial(r, 2),
                     Deformation(r, [r.t] + [Matrix(fld, m) for m in draws])):
            got = [(v.where, v.lhs, v.rhs)
                   for v in check_deformation(defm).violations]
            assert got == direct_violations(defm)
            bad += bool(got)
    assert bad


def test_rigidity_field_gate(Q, gf2):
    from leibniz_rb.fields import PrimeField
    for fld in (Q, gf2, PrimeField(3)):
        r = WeightedRBO(rho_l_context(fld), fld.zero,
                        Matrix.zeros(fld, 1, 1))
        with pytest.raises(WrongField):
            rigidity_certificate(r)


def test_rigidity_cap(gf5, monkeypatch):
    # p^dim g > cap is refused before any delta is built
    calls = []
    real = deformations.delta_matrix

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(deformations, "delta_matrix", spy)
    r = _rbo_id(gf5)
    for cap in (3, 24):
        with pytest.raises(ResourceLimit):
            rigidity_certificate(r, cap=cap)
    assert calls == []
    # the cap bounds the cells of delta_0 (4 x 2) and delta_1 (8 x 4) too:
    # the 25 candidates fit a cap of 31, delta_1 does not
    with pytest.raises(ResourceLimit) as exc:
        rigidity_certificate(r, cap=31)
    assert "delta_1" in str(exc.value) and len(calls) == 2
    rigidity_certificate(r, cap=32)
    assert len(calls) == 4


def test_rigidity_cap_reaches_delta_0_and_delta_1(gf5):
    # dim g = 1, dim h = 28: 5 candidates, and delta_1 has 28^2 x 28 =
    # 21,952 cells, past delta_matrix's default cap of 20,000
    h = LeibnizAlgebra.from_entries(gf5, 28, {(0, 1, 2): 1})
    d = LeibnizGRep(LeibnizAlgebra.zero(gf5, 1), h,
                    ActionPair.zero(gf5, 1, 28))
    r = WeightedRBO(d, 0, Matrix.zeros(gf5, 1, 28))
    with pytest.raises(ResourceLimit) as exc:
        rigidity_certificate(r, cap=21951)
    assert "delta_1" in str(exc.value)
    cert = rigidity_certificate(r, cap=21952)
    assert (cert.satisfied, cert.dim_z1, cert.nijenhuis_count) == (False, 28, 5)


def test_rigidity_traps_images_outside_z1(gf5, monkeypatch):
    # an injective delta_0 gives 25 images, but Z^1 has 5 elements
    real = deformations.delta_matrix
    monkeypatch.setattr(deformations, "delta_matrix",
                        lambda r, n, **k: Matrix.identity(gf5, 2) if n == 0
                        else real(r, n, **k))
    d = small_contexts(gf5, (2, 1))[2]
    with pytest.raises(ContainmentViolated):
        rigidity_certificate(WeightedRBO(d, gf5.zero,
                                         Matrix(gf5, [[0], [1]])))


def test_gf2_obstruction_predicts_extension_by_brute_force(gf2):
    # every order-1 deformation over GF(2) of the small contexts, weights 0
    # and 1: Ob is a coboundary exactly when some T_2 extends it
    counts = [0, 0]
    for dims in ((1, 1), (2, 1), (1, 2), (2, 2)):
        ng, nh = dims
        maps = [Matrix(gf2, [cells[i * nh:(i + 1) * nh] for i in range(ng)],
                       nh)
                for cells in iproduct(gf2.elements(), repeat=ng * nh)]
        for d, lam, t0 in iproduct(small_contexts(gf2, dims), (0, 1), maps):
            r = WeightedRBO(d, lam, t0)
            if not r.is_valid:
                continue
            for t1 in maps:
                defm = Deformation(r, [t0, t1])
                if not check_deformation(defm).ok:
                    continue
                extends = any(check_deformation(
                    Deformation(r, [t0, t1, t2])).ok for t2 in maps)
                assert obstruction(defm).is_coboundary == extends
                assert (extend(defm) is not None) == extends
                counts[extends] += 1
    assert counts == [50, 670]


def test_obstruction_at_order_zero_is_zero(Q):
    cls = obstruction(Deformation.trivial(_rbo_id(Q), 0))
    assert cls.ob.arity == 2 and cls.ob.is_zero()
    assert cls.is_coboundary
