import glob
import os
import random
import tracemalloc
from itertools import islice, product

import pytest

from leibniz_rb import operators
from leibniz_rb.core import (ActionPair, LeibnizAlgebra, LeibnizGRep,
                             ValidationReport, adjoint_grep, basis_vec,
                             change_of_basis_algebra, change_of_basis_grep)
from leibniz_rb.errors import (InvalidInput, InvalidOperator,
                               NotAdjointContext, NotInvertible,
                               OracleDisagreement,
                               ResourceLimit, ShapeMismatch, WrongField)
from leibniz_rb.fields import PrimeField, RationalField
from leibniz_rb.graded import maurer_cartan_residual
from leibniz_rb.linalg import Matrix, vec_add, vec_scale
from leibniz_rb.operators import (WeightedRBO, OperatorMorphism,
                                  check_crossed_homomorphism,
                                  check_operator_morphism,
                                  check_weighted_rbo,
                                  check_weighted_relative_rbo,
                                  derived_operators, graph_check,
                                  ideal_context, induced_algebra,
                                  invert_crossed, search_rbos)
from leibniz_rb.core import is_adjoint_grep, validate_leibniz
from leibniz_rb.manifest import load_manifest

from conftest import (KERNEL_FIELDS, dense_heisenberg_gf3, dim2_nonlie,
                      heisenberg, is_canonical, random_matrix, rho_l_context,
                      seeded, small_contexts)
from golden_cases import ROOT
from operator_reference import crossed_reference, reference_check


def test_identity_is_minus_one_weighted_rbo(Q):
    a = dim2_nonlie(Q)
    t = Matrix.identity(Q, 2)
    assert check_weighted_rbo(a, Q.coerce(-1), t).ok
    assert not check_weighted_rbo(a, Q.one, t).ok


def test_zero_operator_weight_zero(Q):
    a = heisenberg(Q)
    assert check_weighted_rbo(a, Q.zero, Matrix.zeros(Q, 3, 3)).ok


def test_report_names_violated_law(Q):
    a = dim2_nonlie(Q)
    rep = check_weighted_rbo(a, Q.one, Matrix.identity(Q, 2))
    assert rep.laws_violated() == ["operator-identity"]


def test_graph_check_agrees_with_direct_identity(gf5):
    # exhaustive over small contexts: graph criterion == operator identity
    ctxs = (small_contexts(gf5, (1, 1)) + small_contexts(gf5, (2, 1))
            + small_contexts(gf5, (1, 2)))
    for d in ctxs:
        for lam in (gf5.zero, gf5.one):
            n, m = d.g.dim, d.h.dim
            for t in _all_matrices(gf5, n, m):
                direct = check_weighted_relative_rbo(d, lam, t).ok
                assert graph_check(d, lam, t) == direct


def test_graph_check_ranks_twice(rref_calls):
    # two span ranks whatever dim h is; the verdict still matches the
    # identity on every 2 x 2 operator over GF(3)
    gf3 = PrimeField(3)
    for d in small_contexts(gf3, (2, 2)):
        for t in _all_matrices(gf3, 2, 2):
            rref_calls.clear()
            verdict = graph_check(d, gf3.one, t)
            assert len(rref_calls) == 2
            assert verdict == check_weighted_relative_rbo(d, gf3.one, t).ok
    rref_calls.clear()
    assert graph_check(adjoint_grep(heisenberg(gf3)), -gf3.one,
                       Matrix.identity(gf3, 3))
    assert len(rref_calls) == 2


def _all_matrices(fld, rows, cols):
    """Every rows x cols matrix, lexicographic in the row-major entries."""
    for digits in product(fld.elements(), repeat=rows * cols):
        yield Matrix(fld, [[digits[r * cols + c] for c in range(cols)]
                           for r in range(rows)])


def test_induced_algebra_is_leibniz(Q):
    r = WeightedRBO.on_algebra(dim2_nonlie(Q), Q.coerce(-1),
                               Matrix.identity(Q, 2))
    b = induced_algebra(r)
    assert validate_leibniz(b).ok
    # [u, v]_T with T = id, lambda = -1 collapses to [u,v] + [u,v] - [u,v]
    assert b.bracket_basis(0, 0) == dim2_nonlie(Q).bracket_basis(0, 0)


def test_induced_algebra_rejects_invalid(Q):
    r = WeightedRBO.on_algebra(dim2_nonlie(Q), Q.one, Matrix.identity(Q, 2))
    assert not r.is_valid
    with pytest.raises(InvalidOperator):
        induced_algebra(r)


def test_operator_morphism_identity_and_failure(Q):
    a = dim2_nonlie(Q)
    r = WeightedRBO.on_algebra(a, Q.coerce(-1), Matrix.identity(Q, 2))
    ident = OperatorMorphism(Matrix.identity(Q, 2), Matrix.identity(Q, 2))
    assert check_operator_morphism(r, r, ident)
    # weight mismatch fails outright
    r0 = WeightedRBO.on_algebra(a, Q.zero, Matrix.zeros(Q, 2, 2))
    assert not check_operator_morphism(r, r0, ident)
    # non-morphism phi fails
    bad = OperatorMorphism(Matrix(Q, [[1, 0], [0, 2]]), Matrix.identity(Q, 2))
    assert not check_operator_morphism(r, r, bad)


def test_operator_morphism_validates_each_operator_once(Q, monkeypatch):
    r = WeightedRBO.on_algebra(dim2_nonlie(Q), Q.coerce(-1),
                               Matrix.identity(Q, 2))
    ident = OperatorMorphism(Matrix.identity(Q, 2), Matrix.identity(Q, 2))
    validations = []
    real = WeightedRBO.validate

    def validate(self):
        validations.append(self)
        return real(self)

    monkeypatch.setattr(WeightedRBO, "validate", validate)
    assert check_operator_morphism(r, r, ident)
    assert validations == [r, r]


def test_operator_morphism_induced_bracket_disagreement(Q, monkeypatch):
    # the five conditions hold, but the induced brackets are made to differ
    a = dim2_nonlie(Q)
    r = WeightedRBO.on_algebra(a, Q.coerce(-1), Matrix.identity(Q, 2))
    ident = OperatorMorphism(Matrix.identity(Q, 2), Matrix.identity(Q, 2))
    induced = iter([a, LeibnizAlgebra.zero(Q, 2)])
    monkeypatch.setattr(operators, "induced_algebra_unchecked",
                        lambda r: next(induced))
    with pytest.raises(OracleDisagreement):
        check_operator_morphism(r, r, ident)


def test_operator_morphism_rejects_wrong_shapes(Q):
    r = WeightedRBO.on_algebra(dim2_nonlie(Q), Q.coerce(-1),
                               Matrix.identity(Q, 2))
    i2, i3 = Matrix.identity(Q, 2), Matrix.identity(Q, 3)
    for phi, psi in ((i3, i2), (i2, i3), (Matrix.zeros(Q, 2, 3), i2),
                     (i2, Matrix.zeros(Q, 3, 2))):
        with pytest.raises(ShapeMismatch):
            check_operator_morphism(r, r, OperatorMorphism(phi, psi))


def _action_loop_morphism(r, rp, m):
    """The five morphism conditions written out apart from
    ``core.expands``: brackets of basis vectors read with bracket_basis,
    actions read off the dense tensors in one loop."""
    d, dp, phi, psi = r.context, rp.context, m.phi, m.psi

    def algebra(src, dst, f):
        return all(f.mul_vec(src.bracket_basis(i, j))
                   == dst.bracket(f.col(i), f.col(j))
                   for i, j in product(range(src.dim), repeat=2))

    if r.weight != rp.weight or not (algebra(d.g, dp.g, phi)
                                     and algebra(d.h, dp.h, psi)):
        return False
    if phi * r.t != rp.t * psi:
        return False
    act, act2 = d.actions, dp.actions
    for i, a in product(range(d.g.dim), range(d.h.dim)):
        x, u = phi.col(i), psi.col(a)
        if psi.mul_vec(act.left[i][a]) != act2.left_act(x, u) or \
                psi.mul_vec(act.right[a][i]) != act2.right_act(u, x):
            return False
    return True


def test_operator_morphism_matches_action_loop():
    # pairs of operators on a small context and on its sheared copy over
    # GF(3); maps: identities, doubled identities, the inverse shears that
    # carry the context to its copy, and random matrices
    fld, rng = PrimeField(3), seeded(25)
    verdicts = {}
    for dims in ((1, 1), (2, 1), (1, 2), (2, 2)):
        sg, sh = (Matrix(fld, [[1, 0], [1, 1]]) if n == 2
                  else Matrix.identity(fld, 1) for n in dims)
        pools = [[Matrix.identity(fld, n), Matrix.identity(fld, n).scale(2),
                  s.inverse(), random_matrix(fld, n, n, rng)]
                 for s, n in ((sg, dims[0]), (sh, dims[1]))]
        for d in small_contexts(fld, dims):
            moved = change_of_basis_grep(d, sg, sh)
            for lam in (0, 1, -1):
                ts = list(islice(search_rbos(d, lam), 2))
                rs = [WeightedRBO(d, lam, t) for t in ts]
                rs += [WeightedRBO(moved, lam, sg.inverse() * t * sh)
                       for t in ts]
                for r, rp, phi, psi in product(rs[:len(ts)], rs, *pools):
                    m = OperatorMorphism(phi, psi)
                    got = check_operator_morphism(r, rp, m)
                    assert got == _action_loop_morphism(r, rp, m)
                    verdicts[got] = verdicts.get(got, 0) + 1
    assert verdicts[True] > 50 and verdicts[False] > 50


def test_crossed_homomorphism_inverse(Q):
    # D = T^{-1} of an invertible weighted RBO is a crossed homomorphism
    a = dim2_nonlie(Q)
    d = adjoint_grep(a)
    t = Matrix.identity(Q, 2)
    assert check_crossed_homomorphism(d, Q.coerce(-1), t.inverse()).ok
    r = invert_crossed(d, Q.coerce(-1), t.inverse())
    assert r.t == t and r.is_valid
    # something that is not one
    assert not check_crossed_homomorphism(d, Q.coerce(-1),
                                          Matrix(Q, [[2, 0], [0, 2]])).ok
    with pytest.raises(InvalidInput):
        invert_crossed(d, Q.coerce(-1), Matrix(Q, [[2, 0], [0, 2]]))


def test_crossed_homomorphism_matches_pair_loop():
    # random D: g -> h and the inverses D = T^{-1} of invertible operators
    # on the small GF(3) contexts: the same violations, in the same order
    fld, rng = PrimeField(3), seeded(27)
    verdicts = {}
    for dims in ((1, 1), (2, 1), (1, 2), (2, 2)):
        for d, lam in product(small_contexts(fld, dims), (0, 1, -1)):
            maps = [random_matrix(fld, dims[1], dims[0], rng)
                    for _ in range(4)] + [Matrix.zeros(fld, *dims[::-1])]
            for t in islice(search_rbos(d, lam), 4):
                try:
                    maps.append(t.inverse())
                except NotInvertible:
                    pass
            for dmap in maps:
                got, want = (check(d, lam, dmap).violations for check in (
                    check_crossed_homomorphism, crossed_reference))
                assert [(v.law, v.where, v.lhs, v.rhs) for v in got] == \
                    [(v.law, v.where, v.lhs, v.rhs) for v in want]
                verdicts[not got] = verdicts.get(not got, 0) + 1
    assert verdicts[True] > 20 and verdicts[False] > 20


def test_derived_operators_are_valid(Q):
    a = dim2_nonlie(Q)
    r = WeightedRBO.on_algebra(a, Q.coerce(-1), Matrix.identity(Q, 2))
    for nu in (Q.coerce(2), Q.coerce(-3)):
        first, second = derived_operators(r, nu)
        assert first.weight == nu * r.weight and first.is_valid
        assert second.weight == r.weight and second.is_valid
        assert second.t == Matrix.identity(Q, 2) - r.t


def test_derived_operators_need_adjoint_context(Q):
    d = rho_l_context(Q)
    r = WeightedRBO(d, Q.zero, Matrix.zeros(Q, 1, 1))
    with pytest.raises(NotAdjointContext):
        derived_operators(r, Q.one)


def test_ideal_context_inclusion_is_rbo(Q):
    a = heisenberg(Q)  # span(e3) is a two-sided ideal (the center)
    ctx, incl = ideal_context(a, [2])
    assert ctx.h.dim == 1
    assert check_weighted_relative_rbo(ctx, Q.coerce(-1), incl).ok
    # graph criterion agrees
    assert graph_check(ctx, Q.coerce(-1), incl)


def test_ideal_context_rejects_non_ideal(Q):
    a = dim2_nonlie(Q)  # span(e1) is not an ideal: [e1,e1] = e2
    with pytest.raises(InvalidInput):
        ideal_context(a, [0])


def _last_cell_degree(d, lam):
    """The highest power of the last cell in the compiled identity.

    2 if it enters squared, 1 if only linearly or times another cell, 0
    if not at all; None when there are no polynomials.
    """
    polys = operators._compile_identity(d, lam)
    if not polys:
        return None
    last = d.g.dim * d.h.dim - 1
    quad = [(u, v) for q, _ in polys for _, u, v in q]
    lin = [u for _, l in polys for _, u in l]
    if (last, last) in quad:
        return 2
    return int(any(last in uv for uv in quad) or last in lin)


def test_search_matches_brute_force(gf5, gf7):
    # the same hits in the same (lexicographic) order as filtering every
    # matrix with the product-by-product reference check, so no operator
    # is missed or reordered;
    # the contexts cover the last cell entering squared, only linearly and
    # not at all, 1 x 1 operators and primes larger than 5, which take the
    # per-prefix screen
    gf2, gf3, gf13 = PrimeField(2), PrimeField(3), PrimeField(13)
    pair = load_manifest(os.path.join(ROOT, "manifests",
                                      "gf5-abelian-pair.lra")).grep("act")
    contexts = ([rho_l_context(gf5), pair] + small_contexts(gf2, (2, 2))
                + small_contexts(gf3, (2, 2)) + small_contexts(gf5, (1, 1))
                + small_contexts(gf3, (1, 2)) + small_contexts(gf3, (2, 1))
                + small_contexts(gf7, (1, 1)) + small_contexts(gf7, (2, 1))
                + [adjoint_grep(dim2_nonlie(gf7))]
                + small_contexts(gf13, (1, 1)) + small_contexts(gf13, (2, 1)))
    degrees = set()
    for d in contexts:
        fld = d.field
        for lam in (fld.zero, fld.one, -fld.one):
            degrees.add(_last_cell_degree(d, lam))
            found = [t.rows for t in search_rbos(d, lam)]
            brute = [t.rows for t in _all_matrices(fld, d.g.dim, d.h.dim)
                     if reference_check(d, lam, t).ok]
            assert found == brute
    assert degrees == {None, 0, 1, 2}


def _random_system(rng, p, cells, count, last_degree):
    """count random polynomials mod p in the format of _compile_identity.

    The last cell enters squared (last_degree 2), only linearly or times
    another cell (1) or not at all (0).
    """
    last, polys = cells - 1, []
    for k in range(count):
        quad = {tuple(sorted(rng.randrange(cells) for _ in "uv")):
                rng.randrange(1, p) for _ in range(rng.randrange(1, 5))}
        lin = {rng.randrange(cells): rng.randrange(1, p)
               for _ in range(rng.randrange(3))}
        if last_degree < 2:
            quad.pop((last, last), None)
        if last_degree == 0:
            quad = {uv: c for uv, c in quad.items() if last not in uv}
            lin.pop(last, None)
        if k == 0 and last_degree == 2:
            quad[last, last] = 1
        if k == 0 and last_degree == 1:
            lin[last] = 1
        if quad or lin:
            polys.append(([(c, u, v) for (u, v), c in quad.items()],
                          [(c, u) for u, c in lin.items()]))
    return polys


def _brute_screen(polys, p, cells):
    return [x for x in product(range(p), repeat=cells)
            if all((sum(c * x[u] * x[v] for c, u, v in quad)
                    + sum(c * x[u] for c, u in lin)) % p == 0
                   for quad, lin in polys)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_screen_forms_match_brute_force(p):
    # each form, called by name, on the empty system, on one that only the
    # zero candidate passes (no system in this format is unsatisfiable:
    # every term vanishes at zero) and on seeded random systems with the
    # last cell squared, only linear and absent
    rng = seeded(p)
    for cells in range(5):
        systems = [[]]
        if cells:
            systems.append([([(1, u, u)], []) for u in range(cells)])
            systems += [_random_system(rng, p, cells, rng.randrange(1, 5),
                                       degree) for degree in (2, 1, 0)]
        brutes = [_brute_screen(polys, p, cells) for polys in systems]
        for polys, brute in zip(systems, brutes):
            assert list(operators._screen_bitset(polys, p, cells)) == brute
            assert list(operators._screen_prefix(polys, p, cells)) == brute
        assert brutes[0] == list(product(range(p), repeat=cells))
        if cells:
            assert brutes[1] == [(0,) * cells]


def _spied_forms(monkeypatch):
    taken = []
    for name in ("_screen_bitset", "_screen_prefix"):
        form = getattr(operators, name)
        monkeypatch.setattr(operators, name,
                            lambda *args, name=name, form=form:
                            taken.append(name) or form(*args))
    return taken


def test_screen_takes_the_bitset_form_within_its_range(monkeypatch):
    # p <= 5 and p^cells <= 2^20: the most cells per prime, none past 5
    taken = _spied_forms(monkeypatch)
    most = {2: 20, 3: 12, 5: 8, 7: -1, 11: -1, 13: -1}
    for p, top in most.items():
        for cells in range(22):
            del taken[:]
            operators._screen([], p, cells)
            assert taken == [("_screen_bitset" if cells <= top
                              else "_screen_prefix")]


def test_smaller_size_bound_takes_the_prefix_form(monkeypatch):
    # 81 candidates past a bound of 80 take the per-prefix form, which
    # yields the same operators
    gf3 = PrimeField(3)
    d = adjoint_grep(dim2_nonlie(gf3))
    taken = _spied_forms(monkeypatch)
    wide = [t.rows for t in search_rbos(d, -gf3.one)]
    monkeypatch.setattr(operators, "BITSET_MAX_BITS", 80)
    narrow = [t.rows for t in search_rbos(d, -gf3.one)]
    assert taken == ["_screen_bitset", "_screen_prefix"]
    assert wide and narrow == wide


@pytest.mark.slow
@pytest.mark.parametrize("p,cells,count", [(2, 20, 12), (3, 12, 8)])
def test_bitset_screen_memory_at_the_size_bound(p, cells, count):
    # the largest spaces the bitset form takes (2^20 and 3^12 candidates)
    # stay within 16 MB whatever --cap allows; the per-prefix form agrees
    assert p ** cells <= operators.BITSET_MAX_BITS < p ** (cells + 1)
    polys = _random_system(seeded(cells), p, cells, count, 2)
    tracemalloc.start()
    try:
        found = list(operators._screen_bitset(polys, p, cells))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert found == list(operators._screen_prefix(polys, p, cells))


def test_search_raises_when_direct_check_disagrees(gf5, monkeypatch):
    def reject(d, lam, t, memo=None):
        rep = ValidationReport("weighted-relative-rbo")
        rep.add("operator-identity", (0, 0), [], [])
        return rep

    monkeypatch.setattr(operators, "check_weighted_relative_rbo", reject)
    with pytest.raises(OracleDisagreement):
        list(search_rbos(rho_l_context(gf5), gf5.zero))


def test_search_recheck_is_independent_of_the_screen(gf5, monkeypatch):
    # a screen that accepts every candidate: the direct check alone must
    # reject the non-operators, and the search reports the disagreement
    monkeypatch.setattr(operators, "_compile_identity", lambda d, lam: [])
    with pytest.raises(OracleDisagreement):
        list(search_rbos(rho_l_context(gf5), gf5.zero))


def test_search_without_polynomials_rechecks_every_candidate(monkeypatch):
    # no polynomials: every candidate, in lexicographic order, reaches the
    # re-check, which alone decides
    gf3 = PrimeField(3)
    seen = []

    def accept(d, lam, t, memo=None):
        seen.append(t.rows)
        return ValidationReport("weighted-relative-rbo")

    monkeypatch.setattr(operators, "_compile_identity", lambda d, lam: [])
    monkeypatch.setattr(operators, "check_weighted_relative_rbo", accept)
    d = adjoint_grep(dim2_nonlie(gf3))
    found = [t.rows for t in search_rbos(d, gf3.zero)]
    assert found == seen == [t.rows for t in _all_matrices(gf3, 2, 2)]


def test_search_rechecks_each_operator_once(monkeypatch):
    # the screen neither skips nor repeats the direct check
    gf3 = PrimeField(3)
    calls = []
    real = operators.check_weighted_relative_rbo

    def counted(d, lam, t, memo=None):
        calls.append(t.rows)
        return real(d, lam, t, memo)

    monkeypatch.setattr(operators, "check_weighted_relative_rbo", counted)
    d = adjoint_grep(heisenberg(gf3))
    found = [t.rows for t in search_rbos(d, -gf3.one)]
    assert found and calls == found


def _memo_spy(monkeypatch):
    """Rebind the re-check to one that keeps each memo it is passed, by id,
    and the most entries one held after a call."""
    memos, most, real = {}, [0], operators.check_weighted_relative_rbo

    def spy(d, lam, t, memo=None):
        rep = real(d, lam, t, memo)
        memos[id(memo)] = memo
        most[0] = max(most[0], len(memo))
        return rep

    monkeypatch.setattr(operators, "check_weighted_relative_rbo", spy)
    return memos, most


@pytest.mark.parametrize("p", [2, 3, 5])
def test_shared_memo_gives_the_reports_without_it(p):
    # one memo per context, shared over a seeded sample of maps and the
    # weights: the reports equal those without a memo and the reference;
    # over GF(3) and GF(5) Heisenberg's bracket is not symmetric, so a
    # swapped pair shows
    fld, rng = PrimeField(p), seeded(p)
    contexts = [adjoint_grep(heisenberg(fld))] + [
        c for dims in ((2, 1), (1, 2), (2, 2))
        for c in small_contexts(fld, dims)]
    valid = invalid = 0
    for d in contexts:
        memo, evals = {}, 0
        for t in _reference_operators(d, rng):
            for lam in (0, 1, -1):
                got = check_weighted_relative_rbo(d, lam, t, memo)
                assert got == check_weighted_relative_rbo(d, lam, t) == \
                    reference_check(d, lam, t)
                valid, invalid = valid + got.ok, invalid + (not got.ok)
                evals += d.h.dim ** 2
        assert 0 < len(memo) < evals
    assert valid and invalid


def test_search_under_a_small_memo_cap(monkeypatch):
    # with room for 4 g-brackets the search finds the same operators, and
    # the one memo it shares never holds more than 4
    gf3 = PrimeField(3)
    d = adjoint_grep(heisenberg(gf3))
    want = [t.rows for t in search_rbos(d, -gf3.one)]
    monkeypatch.setattr(operators, "MEMO_MAX", 4)
    memos, most = _memo_spy(monkeypatch)
    assert [t.rows for t in search_rbos(d, -gf3.one)] == want
    assert len(memos) == 1 and most == [4]


@pytest.mark.slow
def test_all_accepting_search_keeps_the_memo_bounded(monkeypatch):
    # abelian g of dim 15, dim h = 1, zero actions, weight 0 over GF(2):
    # each of the 2^15 candidates is a hit with a new column, so an
    # uncapped memo takes one entry per hit (13.9 MB traced on Python
    # 3.11; 7.4 MB at MEMO_MAX = 2^14)
    gf2 = PrimeField(2)
    d = LeibnizGRep(LeibnizAlgebra.zero(gf2, 15), LeibnizAlgebra.zero(gf2, 1),
                    ActionPair.zero(gf2, 15, 1))
    memos, most = _memo_spy(monkeypatch)
    tracemalloc.start()
    try:
        hits = sum(1 for _ in search_rbos(d, gf2.zero))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits == 2 ** 15
    assert len(memos) == 1 and most == [operators.MEMO_MAX]
    assert peak < 10 * 2 ** 20


def _manifest_contexts(spec):
    """The adjoint context of every manifest algebra and every manifest
    action pair, over the field spec."""
    out = []
    for path in sorted(glob.glob(os.path.join(ROOT, "manifests", "*.lra"))):
        m = load_manifest(path, field=spec)
        out += [adjoint_grep(a) for a in m.algebras.values()]
        out += [m.grep(name) for name in m.actions]
    return out


def test_operator_rhs_matches_three_products():
    # the one-pass right-hand side on basis indices against its three
    # separate products, on every basis pair of every manifest context
    # over Q and GF(5), with random raw columns and weights (0 included)
    rng = random.Random(11)
    for spec in ("rational", "gf 5"):
        for d in _manifest_contexts(spec):
            fld, act, nh = d.field, d.actions, d.h.dim
            vec = lambda n: [fld.coerce(rng.randrange(-3, 4))
                             for _ in range(n)]
            for a, b, lam in product(range(nh), range(nh),
                                     [0] + [rng.randrange(-3, 4)
                                            for _ in range(3)]):
                lam = fld.coerce(lam)
                ea, eb = basis_vec(fld, nh, a), basis_vec(fld, nh, b)
                tu, tv = vec(d.g.dim), vec(d.g.dim)
                want = vec_add(vec_add(act.left_act(tu, eb),
                                       act.right_act(ea, tv)),
                               vec_scale(lam, d.h.bracket(ea, eb)))
                got = operators.operator_rhs(
                    d, fld.to_raw([lam])[0], a, fld.to_raw(tu), b,
                    fld.to_raw(tv))
                assert got == want
                assert is_canonical(fld, got)


def _reference_operators(d, rng):
    """Zero, identity when square, every 40th search hit of weight +-1
    over GF(p) when the search space is small, and random matrices."""
    fld, ng, nh = d.field, d.g.dim, d.h.dim
    ops = [Matrix.zeros(fld, ng, nh)]
    if ng == nh:
        ops.append(Matrix.identity(fld, ng))
    if fld.characteristic and fld.p ** (ng * nh) <= 3 ** 9:
        for lam in (-1, 1):
            ops += list(search_rbos(d, fld.coerce(lam)))[::40]
    return ops + [random_matrix(fld, ng, nh, rng) for _ in range(4)]


def test_check_matches_reference():
    # whole reports (law, where, lhs, rhs) of the library check against the
    # product-by-product reference, on valid and invalid operators of the
    # small contexts, the non-adjoint manifest pairs and the dense GF(3)
    # Heisenberg algebra of the search benchmark
    rng = seeded(19)
    valid = invalid = 0
    for fld in KERNEL_FIELDS:
        contexts = [c for dims in ((1, 1), (2, 1), (1, 2), (2, 2))
                    for c in small_contexts(fld, dims)]
        spec = "gf %d" % fld.p if fld.characteristic else "rational"
        contexts += [d for d in _manifest_contexts(spec)
                     if not is_adjoint_grep(d)]
        if fld == PrimeField(3):
            contexts.append(adjoint_grep(dense_heisenberg_gf3()))
        for d in contexts:
            for t in _reference_operators(d, rng):
                for lam in (0, 1, -1, 2):
                    want = reference_check(d, lam, t)
                    got = check_weighted_relative_rbo(d, lam, t)
                    assert got == want
                    valid += got.ok
                    invalid += not got.ok
    assert valid > 100 and invalid > 100


@pytest.mark.parametrize("fields", [(PrimeField(3), PrimeField(5)),
                                    (RationalField(), PrimeField(5)),
                                    (PrimeField(5), RationalField())])
def test_operator_over_another_field_is_wrong_field(fields):
    # context over the first field, T (or D, or a basis change) over the
    # second: every entry point refuses with one line that names both fields
    ctx_field, t_field = fields
    d = adjoint_grep(dim2_nonlie(ctx_field))
    t = Matrix.identity(t_field, 2)
    for call in (lambda: WeightedRBO(d, 0, t),
                 lambda: check_weighted_relative_rbo(d, 0, t),
                 lambda: graph_check(d, 0, t),
                 lambda: check_crossed_homomorphism(d, 0, t),
                 lambda: change_of_basis_algebra(d.g, t)):
        with pytest.raises(WrongField) as exc:
            call()
        msg = str(exc.value)
        assert "\n" not in msg
        assert repr(ctx_field) in msg and repr(t_field) in msg


@pytest.mark.parametrize("entry", [check_weighted_relative_rbo, WeightedRBO,
                                   graph_check, maurer_cartan_residual])
@pytest.mark.parametrize("t", [[[1, 0], [0, 1]], ((1, 0), (0, 1)), None],
                         ids=["list", "tuple", "none"])
def test_an_operator_that_is_no_matrix_is_invalid_input(entry, t):
    # each ended in a bare AttributeError on t.field
    with pytest.raises(InvalidInput) as exc:
        entry(adjoint_grep(dim2_nonlie(PrimeField(5))), 0, t)
    assert "\n" not in str(exc.value)


def test_check_converts_each_column_once(monkeypatch):
    # the check reads T raw once per operator: to_raw runs for the two
    # bracket arguments and the T image of each basis pair, plus once for
    # the weight, not again for basis vectors and columns inside every sum
    d = adjoint_grep(dense_heisenberg_gf3())
    t = next(search_rbos(d, PrimeField(3).coerce(-1)))
    calls = []
    real = PrimeField.to_raw

    def counted(self, vec):
        calls.append(len(vec))
        return real(self, vec)

    monkeypatch.setattr(PrimeField, "to_raw", counted)
    assert check_weighted_relative_rbo(d, -1, t).ok
    assert len(calls) <= 3 * d.h.dim ** 2 + 1


def test_search_deterministic_order(gf5):
    d = rho_l_context(gf5)
    a = [t.rows for t in search_rbos(d, gf5.zero)]
    b = [t.rows for t in search_rbos(d, gf5.zero)]
    assert a == b


def test_search_requires_finite_field(Q):
    d = rho_l_context(Q)
    with pytest.raises(WrongField):
        list(search_rbos(d, Q.zero))


def test_search_resource_limit(gf5):
    d = adjoint_grep(dim2_nonlie(gf5))
    with pytest.raises(ResourceLimit):
        list(search_rbos(d, gf5.zero, cap=10))


def test_weighted_rbo_validate_consistency(gf5):
    for d in small_contexts(gf5, (1, 1)):
        for lam in (gf5.zero, gf5.coerce(2)):
            for t in _all_matrices(gf5, 1, 1):
                r = WeightedRBO(d, lam, t)
                assert r.is_valid == r.validate().ok
