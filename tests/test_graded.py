import pytest

from leibniz_rb.core import (ActionPair, LeibnizAlgebra, LeibnizGRep,
                             adjoint_grep, validate_leibniz_g_rep)
from leibniz_rb.errors import OracleDisagreement
from leibniz_rb.graded import (balavoine_bracket, check_dgla, derived_bracket,
                               derived_bracket_explicit,
                               derived_bracket_lifted, dgla_samples,
                               differential_d, differential_d_explicit,
                               differential_d_lifted, lift, make_theta,
                               make_theta_prime, maurer_cartan_residual,
                               restrict)
from leibniz_rb.linalg import Matrix
from leibniz_rb.multimap import MultiMap
from leibniz_rb.operators import WeightedRBO

from conftest import (dim2_nonlie, random_multimap, rho_l_context, seeded,
                      small_contexts)


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
                assert derived_bracket(d, p, q, cross_check=True) == a


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
                    assert differential_d(d, lam, p, cross_check=True) == a


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


def test_negated_bracket_term_is_trapped(Q, monkeypatch):
    # a one-line mutant of leibniz_differential: its bracket term negated
    import inspect

    from leibniz_rb import cohomology, core, graded
    line = "acc = (vec_sub if i % 2 else vec_add)(acc, f.apply(args))"
    src = inspect.getsource(core.leibniz_differential)
    assert src.count(line) == 1
    space = dict(vars(core))
    exec(src.replace(line, "acc = (vec_add if i % 2 else vec_sub)"
                           "(acc, f.apply(args))"), space)
    for module in (core, graded, cohomology):
        monkeypatch.setattr(module, "leibniz_differential",
                            space["leibniz_differential"])
    d = _ctx(Q)
    p = random_multimap(Q, 2, d.h.dim, d.g.dim, seeded(37))
    with pytest.raises(OracleDisagreement):
        differential_d(d, -1, p, cross_check=True)
    r = WeightedRBO.on_algebra(dim2_nonlie(Q), -1, Matrix.identity(Q, 2))
    with pytest.raises(OracleDisagreement):
        cohomology.delta_matrix(r, 1)


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
    # zero operator always satisfies the 2-scaled residual
    t = MultiMap(gf2, 1, 1, 1)
    assert maurer_cartan_residual(d, gf2.zero, t).is_zero()


def test_oracle_disagreement_raised_on_forced_split(Q, monkeypatch):
    d = _ctx(Q)
    rng = seeded(23)
    p = random_multimap(Q, 2, d.h.dim, d.g.dim, rng)
    q = random_multimap(Q, 1, d.h.dim, d.g.dim, rng)
    import leibniz_rb.graded as gr
    real = gr.derived_bracket_lifted
    monkeypatch.setattr(gr, "derived_bracket_lifted",
                        lambda d_, a, b:
                        real(d_, a, b).scale(Q.coerce(2)) + real(d_, a, b)
                        if not real(d_, a, b).is_zero()
                        else real(d_, a, b))
    with pytest.raises(OracleDisagreement):
        gr.derived_bracket(d, p, q, cross_check=True)
