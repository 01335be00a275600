from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from leibniz_rb.cohomology import d_T
from leibniz_rb.core import (ActionPair, LeibnizAlgebra, LeibnizGRep,
                             adjoint_grep, change_of_basis_grep, over_ints,
                             validate_leibniz_g_rep)
from leibniz_rb.errors import OracleDisagreement, ShapeMismatch, WrongField
from leibniz_rb.fields import ZZ, GFElement, PrimeField, RationalField
from leibniz_rb.graded import (SAMPLE_MAX_ARITY, balavoine_bracket,
                               check_dgla, derived_bracket,
                               derived_bracket_explicit,
                               derived_bracket_lifted, dgla_samples,
                               differential_d, differential_d_explicit,
                               differential_d_lifted, lift, make_theta,
                               make_theta_prime, maurer_cartan_residual,
                               restrict, shuffles2, shuffles3)
from leibniz_rb.linalg import Matrix
from leibniz_rb.multimap import MultiMap
from leibniz_rb.operators import WeightedRBO, check_weighted_relative_rbo

from conftest import (dim2_nonlie, heisenberg, random_multimap, rho_l_context,
                      seeded, sl2, small_contexts, two_loop_samples)


def _ctx(field):
    return adjoint_grep(dim2_nonlie(field))


def _both_actions(field):
    """dim g = 1 acting on an abelian dim h = 2 by rho^L = A, rho^R = -A.

    A = [[1, 1], [0, 2]] is not symmetric, so a transposed action slice
    or a swapped rho^L/rho^R changes the bracket.
    """
    a = [[1, 1], [0, 2]]
    left = [[[field.coerce(a[u][v]) for v in range(2)] for u in range(2)]]
    right = [[[-field.coerce(a[u][v]) for v in range(2)]] for u in range(2)]
    d = LeibnizGRep(LeibnizAlgebra.zero(field, 1),
                    LeibnizAlgebra.zero(field, 2),
                    ActionPair(field, 1, 2, left, right))
    assert validate_leibniz_g_rep(d).ok
    return d


def test_theta_encodes_structure(Q):
    d = _ctx(Q)
    th = make_theta(d)
    # theta is arity 2 on V = g + h with [[theta, theta]] = 0 (Leibniz identity)
    assert th.arity == 2
    assert balavoine_bracket(th, th).is_zero()


def test_theta_prime_master_equation(Q):
    d = _ctx(Q)
    for lam in (Q.zero, Q.one, Q.coerce(-1)):
        thp = make_theta_prime(d, lam)
        assert balavoine_bracket(thp, thp).is_zero()


@pytest.mark.parametrize("table, mid", [(shuffles2, 0), (shuffles3, 1)])
def test_shuffle_tables_match_brute_force(table, mid):
    # a (p,q)- or (p,1,q)-shuffle s is increasing on s[:p] and s[p+mid:];
    # its gather puts vals[k] at position s[k]
    for n in range(mid, 6):
        for p in range(n - mid + 1):
            want = []
            for s in permutations(range(n)):
                if list(s[:p]) != sorted(s[:p]) \
                        or list(s[p + mid:]) != sorted(s[p + mid:]):
                    continue
                out = [None] * n
                for k, x in enumerate(s):
                    out[x] = "v%d" % k
                inversions = sum(s[a] > s[b] for a in range(n)
                                 for b in range(a + 1, n))
                want.append((tuple(out), (-1) ** inversions))
            vals = tuple("v%d" % k for k in range(n))
            got = [(gather(vals), sign)
                   for gather, sign in table(p, n - mid - p)]
            assert sorted(got) == sorted(want)


def test_lift_restrict_roundtrip(Q, gf7):
    for fld in (Q, gf7):
        d = _ctx(fld)
        rng = seeded(3)
        for arity in (1, 2):
            p = random_multimap(fld, arity, d.h.dim, d.g.dim, rng)
            assert restrict(lift(p, d.g.dim, d.h.dim), d.g.dim, d.h.dim) == p


def test_derived_bracket_routes_agree(Q, gf7):
    for fld in (Q, gf7):
        # the adjoint context, then dim g != dim h with a nonzero g bracket
        # or nonzero actions
        contexts = [_ctx(fld), _both_actions(fld)] \
            + small_contexts(fld, (2, 1))
        rng = seeded(11)
        for d in contexts:
            arities = [(rng.randint(1, 2), rng.randint(1, 2))
                       for _ in range(6)] + [(3, 1), (1, 3)]
            for m, n in arities:
                p = random_multimap(fld, m, d.h.dim, d.g.dim, rng)
                q = random_multimap(fld, n, d.h.dim, d.g.dim, rng)
                a = derived_bracket_explicit(d, p, q)
                b = derived_bracket_lifted(d, p, q)
                assert a == b
                assert derived_bracket(d, p, q) == a


def test_explicit_route_is_independent(Q, monkeypatch):
    import leibniz_rb.graded as gr

    def refuse(*args, **kwargs):
        raise AssertionError("the explicit route used the lifted route")

    d = _both_actions(Q)
    rng = seeded(29)
    p = random_multimap(Q, 2, d.h.dim, d.g.dim, rng)
    q = random_multimap(Q, 1, d.h.dim, d.g.dim, rng)
    want = derived_bracket_lifted(d, p, q)
    monkeypatch.setattr(gr, "circ_i", refuse)
    monkeypatch.setattr(gr, "balavoine_bracket", refuse)
    got = gr.derived_bracket_explicit(d, p, q)
    assert got == want and not got.is_zero()


def test_differential_routes_agree(Q, gf7):
    for fld in (Q, gf7):
        # the adjoint context, then dim g != dim h with nonzero actions or
        # a nonzero h bracket
        contexts = [_ctx(fld), _both_actions(fld)] \
            + small_contexts(fld, (2, 1)) + small_contexts(fld, (1, 2))
        rng = seeded(13)
        for d in contexts:
            for lam in (0, 1, -1, 2):
                for arity in (1, 2, 3):
                    p = random_multimap(fld, arity, d.h.dim, d.g.dim, rng)
                    a = differential_d_explicit(d, lam, p)
                    b = differential_d_lifted(d, lam, p)
                    assert a == b
                    assert differential_d(d, lam, p) == a


def test_explicit_differential_is_independent(Q, monkeypatch):
    import leibniz_rb.graded as gr

    def refuse(*args, **kwargs):
        raise AssertionError("the explicit route used the lifted route")

    d = _ctx(Q)
    p = random_multimap(Q, 2, d.h.dim, d.g.dim, seeded(31))
    want = differential_d_lifted(d, 2, p)
    monkeypatch.setattr(gr, "circ_i", refuse)
    monkeypatch.setattr(gr, "balavoine_bracket", refuse)
    got = gr.differential_d_explicit(d, 2, p)
    assert got == want and not got.is_zero()


@pytest.mark.parametrize("fields", [(RationalField(), PrimeField(5)),
                                    (PrimeField(5), RationalField()),
                                    (PrimeField(3), PrimeField(5))])
def test_maps_over_another_field_are_wrong_field(fields):
    # context over the first field, one map over the second: every entry
    # point refuses with one line that names both fields
    ctx_field, map_field = fields
    d = _ctx(ctx_field)
    good = random_multimap(ctx_field, 1, 2, 2, seeded(1))
    bad = random_multimap(map_field, 1, 2, 2, seeded(1))
    for call in (lambda: derived_bracket(d, bad, good),
                 lambda: derived_bracket(d, good, bad),
                 lambda: differential_d(d, -1, bad),
                 lambda: check_dgla(d, -1, [(good, bad)]),
                 lambda: maurer_cartan_residual(d, -1, bad),
                 lambda: maurer_cartan_residual(d, -1, bad.to_matrix())):
        with pytest.raises(WrongField) as exc:
            call()
        msg = str(exc.value)
        assert "\n" not in msg
        assert repr(ctx_field) in msg and repr(map_field) in msg


def test_differential_squares_to_zero(Q):
    d = _ctx(Q)
    rng = seeded(17)
    for lam in (Q.zero, Q.coerce(-1)):
        for arity in (1, 2):
            p = random_multimap(Q, arity, d.h.dim, d.g.dim, rng)
            assert differential_d(d, lam, differential_d(d, lam, p)).is_zero()


def test_dgla_laws_on_samples(Q, gf7):
    for fld in (Q, gf7):
        d = _ctx(fld)
        samples = dgla_samples(d, count=4, seed=2)
        rep = check_dgla(d, fld.coerce(-1), samples, cross_check=True)
        assert rep.ok, rep.laws_violated()


def test_dgla_samples_deterministic(Q):
    d = _ctx(Q)
    assert dgla_samples(d, count=3, seed=7) == dgla_samples(d, count=3, seed=7)


def test_mc_residual_characterizes_operators(Q):
    d = _ctx(Q)
    lam = Q.coerce(-1)
    # T = id is a (-1)-weighted RBO on the adjoint context
    tid = MultiMap(Q, 1, 2, 2)
    tid.set_((0,), [Q.one, Q.zero])
    tid.set_((1,), [Q.zero, Q.one])
    assert maurer_cartan_residual(d, lam, tid).is_zero()
    # T = 2 id is not
    assert not maurer_cartan_residual(d, lam, tid.scale(Q.coerce(2))).is_zero()


def test_mc_residual_gf2(gf2):
    d = rho_l_context(gf2)
    # the zero operator is an operator of every weight
    t = MultiMap(gf2, 1, 1, 1)
    assert maurer_cartan_residual(d, gf2.zero, t).is_zero()


def test_dgla_samples_match_the_two_loop_draw(Q):
    # the dgla-cross benchmark template is drawn from dgla_samples
    for d in (_ctx(Q), _both_actions(PrimeField(3))):
        for count, seed in product((0, 1, 3), (0, 5)):
            got = dgla_samples(d, count=count, seed=seed)
            assert [type(s) for s in got] == [tuple] * (2 * count)
            assert got == two_loop_samples(d, count, SAMPLE_MAX_ARITY, seed)


def _hand_written_mc(d, lam, ts, n):
    """The t^n coefficient of 2 (dT_t + 1/2 [[T_t, T_t]]) as the library
    wrote it out before ``_mc_coefficient``, one explicit bracket per
    ordered pair and T_k zero past the end: 2 dT + [[T, T]] at n = 0 (the
    doubled ``maurer_cartan_residual``), else check_deformation's
    2 (dT_n + [[T_0, T_n]]) + sum_{i+j=n, i,j>=1} [[T_i, T_j]]."""
    two = d.field.coerce(2)
    ts = ts + [MultiMap(d.field, 1, d.h.dim, d.g.dim)] * (n + 1 - len(ts))
    dt = differential_d_explicit(d, lam, ts[n])
    if n == 0:
        return dt.scale(two) + derived_bracket_explicit(d, ts[0], ts[0])
    out = (dt + derived_bracket_explicit(d, ts[0], ts[n])).scale(two)
    for i in range(1, n):
        out = out + derived_bracket_explicit(d, ts[i], ts[n - i])
    return out


def _over(fld, m):
    """The map m over Q (GF(p) entries as their residues) carried into fld:
    the int lifts of a GF(p) map, or their coefficients reduced mod p."""
    rows = [[x.v if isinstance(x, GFElement) else x for x in row]
            for row in m.coeffs]
    return MultiMap(fld, m.arity, m.src_dim, m.tgt_dim,
                    [[fld.coerce(x) for x in row] for row in rows])


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_mc_coefficient_matches_the_hand_written_forms(p):
    import leibniz_rb.graded as gr
    fld = PrimeField(p) if p else RationalField()
    Q, half = RationalField(), Fraction(1, 2)
    rng, nonzero = seeded(83 + p), []
    for make in (_ctx, _both_actions):
        d, dq = make(fld), make(Q)
        for lam in (-1, 2):
            # an order-3 series: n = 4 is past its end (the obstruction)
            ts = [random_multimap(fld, 1, d.h.dim, d.g.dim, rng)
                  for _ in range(4)]
            lifts = [_over(Q, t) for t in ts]
            for n in range(5):
                got = gr._mc_coefficient(d, lam, ts, n)
                nonzero.append(not got.is_zero())
                if p != 2:
                    assert got.scale(2) == _hand_written_mc(d, lam, ts, n)
                # in every field: half the 2-scaled form of the int lifts
                # over Q, an int map, reduced mod p
                assert got == _over(fld, _hand_written_mc(
                    dq, lam, lifts, n).scale(half))
            # maurer_cartan_residual: dT + 1/2 [[T, T]]
            residual = maurer_cartan_residual(d, lam, ts[0])
            assert residual == gr._mc_coefficient(d, lam, ts, 0)
            if p != 2:
                dt = differential_d_explicit(d, lam, ts[0])
                br = derived_bracket_explicit(d, ts[0], ts[0])
                assert residual == dt + br.scale(half)
                # past the end, the obstruction's coefficient, from checked
                # brackets: 1/2 sum_{i+j=4, i,j>=1} [[T_i, T_j]]
                want = MultiMap(fld, 2, d.h.dim, d.g.dim)
                for i in range(1, 4):
                    want = want + derived_bracket(d, ts[i], ts[4 - i])
                assert gr._mc_coefficient(d, lam, ts, 4).scale(2) == want
    # the comparisons are not of zero maps, over GF(2) too
    assert sum(nonzero) > len(nonzero) // 2


@pytest.mark.parametrize("p", [0, 2, 5])
def test_odd_mc_sum_is_trapped(p, monkeypatch):
    # a bracket off by one entry breaks [[T, T]] = 2 H(T, T): the int sum
    # is odd there, and halving it would floor
    import leibniz_rb.graded as gr
    fld = PrimeField(p) if p else RationalField()
    real, d = gr.derived_bracket_explicit, _ctx(fld)

    def off_by_one(d_, a, b):
        e = MultiMap(d_.field, 2, d_.h.dim, d_.g.dim)
        e.set_((0, 0), [1, 0])
        return real(d_, a, b) + e

    monkeypatch.setattr(gr, "derived_bracket_explicit", off_by_one)
    with pytest.raises(OracleDisagreement, match="odd"):
        maurer_cartan_residual(d, -1, Matrix.identity(fld, 2))


def test_mc_coefficient_divides_back_every_scale(Q):
    # over Q the context, lambda and each T_k carry their own denominators:
    # the int sum is D_d k s^2 times the coefficient, s the series' scale
    import leibniz_rb.graded as gr
    d, rng = _det2(_ctx(Q)), seeded(97)
    ts = [random_multimap(Q, 1, 2, 2, rng).scale(Fraction(1, k))
          for k in (2, 3, 5)]
    for lam in (Fraction(1, 2), Fraction(-2, 3)):
        for n in range(5):
            want = _hand_written_mc(d, lam, ts, n)
            assert not want.is_zero()
            assert gr._mc_coefficient(d, lam, ts, n).scale(2) == want


def test_mc_residual_is_the_operator_identity_over_gf2(gf2):
    # every map of each context, weights 0 and 1: the residual dT + H(T, T)
    # is zero exactly when the direct identity holds
    contexts = [_ctx(gf2)] + [d for dims in ((1, 1), (2, 1), (1, 2), (2, 2))
                              for d in small_contexts(gf2, dims)]
    verdicts = []
    for d in contexts:
        ng, nh = d.g.dim, d.h.dim
        for lam, cells in product(gf2.elements(),
                                  product(gf2.elements(), repeat=ng * nh)):
            t = Matrix(gf2, [cells[i * nh:(i + 1) * nh] for i in range(ng)],
                       nh)
            valid = check_weighted_relative_rbo(d, lam, t).ok
            assert maurer_cartan_residual(d, lam, t).is_zero() == valid
            verdicts.append(valid)
    assert len(verdicts) == 2 * (16 + 3 * 2 + 3 * 4 + 3 * 4 + 2 * 16)
    assert verdicts.count(False) == 64  # 24 of them on dim2-nonlie


def _forced_split(real):
    """A lifted route returning 3 times the true value where it is nonzero.

    Over GF(2) the split is 2 times the true value, which vanishes mod 2:
    only a comparison of the int results sees it.
    """
    def split(d_, *args):
        got = real(d_, *args)
        return got if got.is_zero() else got.scale(d_.field.coerce(2)) + got
    return split


@pytest.mark.parametrize("p", [0, 2, 5])
def test_only_the_coefficient_past_the_series_runs_the_lifted_bracket(
        p, monkeypatch):
    # within the series the dgLa form is checked against the direct
    # equations; past its end (the obstruction) each bracket runs both
    # routes, compared over ZZ before the halving, over GF(2) too
    import leibniz_rb.graded as gr
    fld = PrimeField(p) if p else RationalField()
    d, rng = _ctx(fld), seeded(89)
    ts = [random_multimap(fld, 1, 2, 2, rng) for _ in range(3)]
    want = [gr._mc_coefficient(d, -1, ts, n) for n in range(4)]
    assert not want[3].is_zero()
    monkeypatch.setattr(gr, "derived_bracket_lifted",
                        _forced_split(gr.derived_bracket_lifted))
    assert [gr._mc_coefficient(d, -1, ts, n) for n in range(3)] == want[:3]
    with pytest.raises(OracleDisagreement):
        gr._mc_coefficient(d, -1, ts, 3)


def _identity_operator(fld):
    return WeightedRBO.on_algebra(dim2_nonlie(fld), fld.coerce(-1),
                                  Matrix.identity(fld, 2))


def test_oracle_disagreement_raised_on_forced_split(Q, gf2, monkeypatch):
    import leibniz_rb.graded as gr
    monkeypatch.setattr(gr, "derived_bracket_lifted",
                        _forced_split(gr.derived_bracket_lifted))
    for fld in (Q, gf2):
        d = _ctx(fld)
        rng = seeded(23)
        p = random_multimap(fld, 2, d.h.dim, d.g.dim, rng)
        q = random_multimap(fld, 1, d.h.dim, d.g.dim, rng)
        assert not gr.derived_bracket_explicit(d, p, q).is_zero()
        with pytest.raises(OracleDisagreement):
            gr.derived_bracket(d, p, q)
        # d_T's [[T, -]] term runs the same check
        with pytest.raises(OracleDisagreement):
            d_T(_identity_operator(fld), q)


def test_oracle_disagreement_raised_on_forced_differential_split(
        Q, gf2, monkeypatch):
    import leibniz_rb.graded as gr
    monkeypatch.setattr(gr, "differential_d_lifted",
                        _forced_split(gr.differential_d_lifted))
    for fld in (Q, gf2):
        d = _ctx(fld)
        p = random_multimap(fld, 2, d.h.dim, d.g.dim, seeded(41))
        assert not gr.differential_d_explicit(d, -1, p).is_zero()
        with pytest.raises(OracleDisagreement):
            gr.differential_d(d, -1, p)
        # d_T's d term runs the same check
        with pytest.raises(OracleDisagreement):
            d_T(_identity_operator(fld), p)


# ---------------------------------------------------------------------------
# Both routes run over ZZ: the scales and the mod-p reduction


def _det2(d):
    """d in bases with the last vector doubled when the dim is 2 or more:
    over Q its constants get the denominator 2."""
    def basis(n):
        diag = [1] * (n - 1) + [2] if n > 1 else [1]
        return Matrix(d.field, [[diag[i] if i == j else 0 for j in range(n)]
                                for i in range(n)])
    return change_of_basis_grep(d, basis(d.g.dim), basis(d.h.dim))


def _int_route_contexts(fld):
    out = [_ctx(fld), _both_actions(fld)]
    if fld.characteristic != 2:
        out += [_det2(_ctx(fld)), _det2(_both_actions(fld)),
                _det2(adjoint_grep(heisenberg(fld)))]
    if not fld.characteristic:
        assert all(any(x.denominator > 1 for t in (d.g.c, d.actions.left)
                       for pl in t for row in pl for x in row)
                   for d in out[2:])
    return out


INT_ROUTE_FIELDS = [RationalField()] + [PrimeField(p) for p in (2, 3, 5, 7)]
CONTEXTS = {fld: _int_route_contexts(fld) for fld in INT_ROUTE_FIELDS}
# mostly small ints, some halves and thirds, and the weights -3/2 and 1/2
ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, -3, Fraction(1, 2),
                           Fraction(-2, 3)])
WEIGHTS = st.sampled_from([Fraction(1, 2), Fraction(-3, 2), 0, -1, 2])


@st.composite
def int_route_cases(draw):
    fld = draw(st.sampled_from(INT_ROUTE_FIELDS))
    d = draw(st.sampled_from(CONTEXTS[fld]))
    p = fld.characteristic

    def scalar(values):
        x = draw(values.filter(lambda x: not p or Fraction(x).denominator % p))
        return fld.coerce(x)

    def element():
        m = MultiMap(fld, draw(st.integers(1, 2)), d.h.dim, d.g.dim)
        for idx in m.tuples():
            m.set_(idx, [scalar(ENTRIES) for _ in range(d.g.dim)])
        return m

    return d, scalar(WEIGHTS), element(), element()


def _fixed_case(d, lam, seed):
    """P with denominators 2 and Q with denominators 3 over Q."""
    rng = seeded(seed)
    p, q = (random_multimap(d.field, a, d.h.dim, d.g.dim, rng).scale(
        Fraction(1, k)) for a, k in ((2, 2), (1, 3)))
    return d, d.field.coerce(lam), p, q


@settings(max_examples=60, deadline=None)
@given(int_route_cases())
@example(_fixed_case(CONTEXTS[RationalField()][2], Fraction(1, 2), 47))
@example(_fixed_case(CONTEXTS[RationalField()][4], Fraction(-3, 2), 53))
def test_int_routes_equal_the_explicit_routes_on_the_field(case):
    d, lam, p, q = case
    assert derived_bracket(d, p, q) == derived_bracket_explicit(d, p, q)
    assert differential_d(d, lam, p) == differential_d_explicit(d, lam, p)


def _residues(m):
    out = MultiMap(ZZ, m.arity, m.src_dim, m.tgt_dim)
    out.nz = {idx: tuple(x.v for x in row) for idx, row in m.nz.items()}
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_int_rows_that_vanish_mod_p_are_dropped(p):
    # residue products and sums leave [0, p): some int rows of the bracket
    # of random maps are nonzero multiples of p and must not be kept
    fld = PrimeField(p)
    d = _ctx(fld)
    rng = seeded(43)
    for _ in range(50):
        a = random_multimap(fld, rng.randint(1, 2), d.h.dim, d.g.dim, rng)
        b = random_multimap(fld, rng.randint(1, 2), d.h.dim, d.g.dim, rng)
        ints = derived_bracket_explicit(_ctx(ZZ), _residues(a), _residues(b))
        if any(not any(x % p for x in row) for row in ints.nz.values()):
            break
    else:
        raise AssertionError("no int row vanished mod %d" % p)
    got = derived_bracket(d, a, b)
    assert got == derived_bracket_explicit(d, a, b)
    assert all(any(row) for row in got.nz.values())


def test_int_context_and_theta_are_built_once_per_context(
        Q, gf7, monkeypatch):
    import leibniz_rb.core as core
    for d in (_det2(_ctx(Q)), _ctx(gf7)):
        den, stores = over_ints((d.g.c_nz, d.h.c_nz, d.actions.left_nz,
                                 d.actions.right_nz))
        got, dz = d.int_context
        assert got == den and dz.field is ZZ
        assert [dz.g.c_nz, dz.h.c_nz, dz.actions.left_nz,
                dz.actions.right_nz] == stores
        assert d.int_context[1] is dz
        assert make_theta(dz) is make_theta(dz)
    # a fresh context scales once for all its brackets and differentials
    scaled = []
    monkeypatch.setattr(core, "over_ints",
                        lambda s: scaled.append(s) or over_ints(s))
    d = _det2(_ctx(Q))
    assert check_dgla(d, -1, dgla_samples(d, count=1, seed=5),
                      cross_check=True).ok
    assert len(scaled) == 1


def test_alternating_contexts_match_fresh_contexts(Q, gf7):
    # each context keeps its own int context and theta: brackets and
    # differentials on two contexts in turn equal those on fresh copies
    makers = (lambda: _det2(_ctx(Q)), lambda: _ctx(gf7))
    kept = [make() for make in makers]
    rng = seeded(61)
    for _ in range(3):
        for make, d in zip(makers, kept):
            p = random_multimap(d.field, rng.randint(1, 2), d.h.dim,
                                d.g.dim, rng).scale(Fraction(1, 2))
            q = random_multimap(d.field, rng.randint(1, 2), d.h.dim,
                                d.g.dim, rng)
            assert derived_bracket(d, p, q) == derived_bracket(make(), p, q)
            assert differential_d(d, -1, p) == differential_d(make(), -1, p)


def test_theta_prime_is_kept_per_weight(Q, gf7):
    # one context, its theta' built once per lambda: differentials for
    # lambdas in turn equal those on fresh contexts
    makers = (lambda: _det2(_ctx(Q)), lambda: _ctx(gf7))
    rng = seeded(73)
    for make in makers:
        d = make()
        fld = d.field
        for _ in range(2):
            for lam in (0, 1, -1, Fraction(1, 2)):
                p = random_multimap(fld, rng.randint(1, 2), d.h.dim, d.g.dim,
                                    rng)
                assert differential_d_lifted(d, lam, p) == \
                    differential_d_lifted(make(), lam, p)
                assert differential_d(d, lam, p) == \
                    differential_d(make(), lam, p)
                assert make_theta_prime(d, lam) is make_theta_prime(d, lam)


def test_check_dgla_builds_theta_and_theta_prime_once(Q, monkeypatch):
    import leibniz_rb.graded as gr
    built = []
    real = gr.block_tensor
    monkeypatch.setattr(gr, "block_tensor",
                        lambda *args: built.append(args[1:]) or real(*args))
    d = _det2(_ctx(Q))
    assert check_dgla(d, -1, dgla_samples(d, count=2, seed=0)).ok
    # on the int context: theta (mu 1, lambda 0) and theta' (mu 0)
    assert len(built) == 2
    assert [mu for mu, _ in built] == [1, 0]


def test_check_dgla_refuses_a_single_route(Q):
    d = _ctx(Q)
    with pytest.raises(ValueError, match="always runs both routes"):
        check_dgla(d, -1, dgla_samples(d, count=1, seed=0),
                   cross_check=False)


def test_lifted_routes_receive_an_int_context(monkeypatch):
    import leibniz_rb.graded as gr
    seen = []

    def spy(real):
        def route(d_, *args):
            seen.append((d_.field, {m.field for m in args
                                    if isinstance(m, MultiMap)}))
            return real(d_, *args)
        return route

    for name in ("derived_bracket_lifted", "differential_d_lifted"):
        monkeypatch.setattr(gr, name, spy(getattr(gr, name)))
    for fld in (RationalField(), PrimeField(7)):
        d = _ctx(fld)
        assert check_dgla(d, -1, dgla_samples(d, count=1, seed=3),
                          cross_check=True).ok
    assert len(seen) > 10
    assert all(fld is ZZ and fields == {ZZ} for fld, fields in seen)


def test_cross_checked_dgla_coerces_few_scalars(Q, monkeypatch):
    # the Fraction routes coerced 781 scalars per dgla-cross benchmark job
    d = _ctx(Q)
    samples = dgla_samples(d, count=2, seed=0)
    calls = []
    real = RationalField.coerce

    def counted(self, value):
        calls.append(None)
        return real(self, value)

    monkeypatch.setattr(RationalField, "coerce", counted)
    assert check_dgla(d, -1, samples, cross_check=True).ok
    assert len(calls) < 100


# ---------------------------------------------------------------------------
# check_dgla on the int maps


@pytest.mark.parametrize("bad", ["single", "quadruple", "not-a-map"])
def test_malformed_sample_is_shape_mismatch(bad, monkeypatch):
    import leibniz_rb.graded as gr

    def refuse(*args, **kwargs):
        raise AssertionError("a bracket ran before the samples were checked")

    for name in ("derived_bracket_explicit", "derived_bracket_lifted",
                 "differential_d_explicit", "differential_d_lifted"):
        monkeypatch.setattr(gr, name, refuse)
    d = _ctx(RationalField())
    p = random_multimap(d.field, 1, d.h.dim, d.g.dim, seeded(67))
    sample = {"single": (p,), "quadruple": (p, p, p, p),
              "not-a-map": (p, "q")}[bad]
    with pytest.raises(ShapeMismatch) as exc:
        gr.check_dgla(d, -1, [(p, p), sample])
    msg = str(exc.value)
    assert "\n" not in msg and "sample 1" in msg


@pytest.mark.parametrize("p", [5, 7])
def test_dgla_laws_hold_mod_p_on_adjoint_sl2(p):
    # the constant -2 of sl2 is 3 in GF(5) and 5 in GF(7); the nested int
    # results are compared mod p: unreduced, sums of residues such as
    # 3 + 3 and 1 differ as ints though equal in GF(5)
    d = adjoint_grep(sl2(PrimeField(p)))
    samples = dgla_samples(d, count=2, seed=0)
    assert max(f.arity for sample in samples for f in sample) == 2
    rep = check_dgla(d, -1, samples, cross_check=True)
    assert rep.ok, rep.laws_violated()


def _broken_context(fld, rng, values):
    """Random constants on dims (2, 2): no Leibniz g-representation."""
    def tensor():
        return [[[fld.coerce(rng.choice(values)) if rng.random() < 0.4
                  else fld.zero for _ in range(2)] for _ in range(2)]
                for _ in range(2)]

    d = LeibnizGRep(LeibnizAlgebra(fld, 2, tensor()),
                    LeibnizAlgebra(fld, 2, tensor()),
                    ActionPair(fld, 2, 2, tensor(), tensor()))
    assert not validate_leibniz_g_rep(d).ok
    return d


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dgla_report_matches_the_field_level_reference(seed):
    from dgla_reference import reference_dgla
    rng = seeded(seed)
    # over Q: constants with denominators 2 and 3, lambda = 1/3 and
    # samples scaled by 1/2, 1/3 and 1/4
    q = _broken_context(RationalField(), rng,
                        [Fraction(1, 2), Fraction(-2, 3), 1, -1, 2])
    assert q.int_context[0] > 1
    q_samples = [tuple(f.scale(Fraction(1, 2 + i)) for i, f in enumerate(s))
                 for s in dgla_samples(q, count=2, seed=seed)]
    f5 = _broken_context(PrimeField(5), rng, [1, 2, 3, 4])
    cases = [(q, Fraction(1, 3), q_samples),
             (f5, 2, dgla_samples(f5, count=2, seed=seed))]
    for d, lam, samples in cases:
        want = reference_dgla(d, lam, samples)
        assert not want.ok
        assert check_dgla(d, lam, samples) == want
