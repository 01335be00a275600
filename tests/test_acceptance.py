"""End-to-end acceptance suite.

Each test covers one acceptance criterion and finishes by printing a
single pass line; pytest raising marks the criterion failed.
"""

import glob
import os
from itertools import product

from leibniz_rb.cohomology import cohomology, d_T, delta_matrix, delta_T
from leibniz_rb.core import (adjoint_grep, change_of_basis_grep,
                             validate_leibniz)
from leibniz_rb.deformations import (Deformation, check_deformation, extend,
                                     infinitesimal, obstruction)
from leibniz_rb.graded import (check_dgla, derived_bracket_explicit,
                               derived_bracket_lifted, dgla_samples,
                               differential_d_explicit, differential_d_lifted,
                               maurer_cartan_residual, _pow_sign)
from leibniz_rb.linalg import Matrix
from leibniz_rb.manifest import load_manifest
from leibniz_rb.operators import (WeightedRBO, check_crossed_homomorphism,
                                  check_weighted_relative_rbo, graph_check,
                                  ideal_context, induced_algebra,
                                  invert_crossed, derived_operators)
from leibniz_rb.postleibniz import (PostLeibnizAlgebra, from_rbo,
                                    total_algebra, validate_post_leibniz,
                                    validate_pre_leibniz)

from conftest import (dim2_nonlie, heisenberg, random_matrix,
                      random_multimap, seeded, small_contexts)

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def _all_matrices(fld, rows, cols):
    for digits in product(range(fld.p), repeat=rows * cols):
        yield Matrix(fld, [[fld.coerce(digits[r * cols + c])
                            for c in range(cols)] for r in range(rows)])


def _operator_pool(fld, limit):
    """Valid weighted operators harvested from exhaustive enumeration."""
    pool = []
    for dims in ((1, 1), (2, 1), (1, 2)):
        for d in small_contexts(fld, dims):
            for lam in (fld.zero, fld.one, fld.coerce(2), fld.coerce(-1)):
                for t in _all_matrices(fld, d.g.dim, d.h.dim):
                    r = WeightedRBO(d, lam, t)
                    if r.is_valid:
                        pool.append(r)
                        if len(pool) >= limit:
                            return pool
    return pool


def test_criterion_1_oracle_equivalence(gf5):
    checked = 0
    for dims in ((1, 1), (2, 1), (1, 2)):
        for d in small_contexts(gf5, dims):
            for lam in (gf5.zero, gf5.one, gf5.coerce(2)):
                for t in _all_matrices(gf5, d.g.dim, d.h.dim):
                    direct = check_weighted_relative_rbo(d, lam, t).ok
                    graph = graph_check(d, lam, t)
                    mc = maurer_cartan_residual(d, lam, t).is_zero()
                    assert direct == graph == mc
                    checked += 1
    assert checked >= 3 * 3 * 5
    print("criterion 1 (axiom/graph/Maurer-Cartan equivalence, "
          "%d instances): PASS" % checked)


def test_criterion_2_dgla_laws(Q):
    total = 0
    plan = [((1, 1), 3, 35), ((2, 1), 3, 35), ((1, 2), 2, 20), ((2, 2), 2, 10)]
    for dims, max_arity, count in plan:
        d = small_contexts(Q, dims)[-1]
        samples = dgla_samples(d, count=count, max_arity=max_arity, seed=42)
        rep = check_dgla(d, Q.coerce(-1), samples)
        assert rep.ok, rep.laws_violated()
        total += len(samples)
    assert total == 200
    print("criterion 2 (dgLa laws on %d random samples over Q): PASS" % total)


def test_criterion_3_dual_route_bracket(Q, gf7):
    arities = [(1, 1), (1, 2), (2, 1), (2, 2)]
    for fld in (gf7, Q):
        d = adjoint_grep(dim2_nonlie(fld))
        rng = seeded(101)
        for k in range(100):
            m, n = arities[k % 4]
            p = random_multimap(fld, m, d.h.dim, d.g.dim, rng)
            q = random_multimap(fld, n, d.h.dim, d.g.dim, rng)
            assert derived_bracket_explicit(d, p, q) == \
                derived_bracket_lifted(d, p, q)
            lam = fld.coerce(rng.randrange(-2, 3))
            assert differential_d_explicit(d, lam, p) == \
                differential_d_lifted(d, lam, p)
    print("criterion 3 (dual-route bracket agreement, 100 pairs over "
          "GF(7) and Q): PASS")


def test_criterion_4_cohomology(gf5):
    pool = _operator_pool(gf5, 50)
    assert len(pool) == 50
    rng = seeded(7)
    for r in pool:
        mats = [delta_matrix(r, n) for n in range(3)]
        for n in range(2):
            assert (mats[n + 1] * mats[n]).rank() == 0
        base = cohomology(r, 2).betti()  # raises on containment violation
        d = r.context
        while True:
            sg = random_matrix(gf5, d.g.dim, d.g.dim, rng, lo=0, hi=5)
            sh = random_matrix(gf5, d.h.dim, d.h.dim, rng, lo=0, hi=5)
            if sg.is_invertible() and sh.is_invertible():
                break
        r2 = WeightedRBO(change_of_basis_grep(d, sg, sh), r.weight,
                         sg.inverse() * r.t * sh)
        assert cohomology(r2, 2).betti() == base
        for arity in (1, 2):
            f = random_multimap(gf5, arity, d.h.dim, d.g.dim, rng, lo=0, hi=5)
            assert d_T(r, f) == \
                delta_T(r, f).scale(_pow_sign(gf5, arity))
    print("criterion 4 (cohomology well-formedness on 50 operators): PASS")


def _valid_order1_deformations(fld, limit):
    out = []
    for dims in ((1, 1), (2, 1), (1, 2)):
        for d in small_contexts(fld, dims):
            for lam in (fld.zero, fld.one, fld.coerce(-1)):
                for t0 in _all_matrices(fld, d.g.dim, d.h.dim):
                    base = WeightedRBO(d, lam, t0)
                    if not base.is_valid:
                        continue
                    for t1 in _all_matrices(fld, d.g.dim, d.h.dim):
                        defm = Deformation(base, [t0, t1])
                        if check_deformation(defm).ok:
                            out.append(defm)
                            if len(out) >= limit:
                                return out
    return out


def test_criterion_5_deformations(gf5):
    defms = _valid_order1_deformations(gf5, 50)
    assert len(defms) == 50
    for defm in defms:
        _, is_cocycle = infinitesimal(defm)
        assert is_cocycle
        cls = obstruction(defm)  # asserts delta(Ob) = 0 internally
        ext = extend(defm)
        assert (ext is not None) == cls.is_coboundary
        if ext is not None:
            assert check_deformation(ext).ok
            # one order-2 instance per base exercises the same laws again
            cls2 = obstruction(ext)
            assert (extend(ext) is not None) == cls2.is_coboundary
    # frozen non-extensible instance, confirmed exhaustively
    from conftest import rho_l_context
    d = rho_l_context(gf5)
    base = WeightedRBO(d, gf5.zero, Matrix.zeros(gf5, 1, 1))
    frozen = Deformation(base, [base.t, Matrix(gf5, [[1]])])
    assert check_deformation(frozen).ok
    assert not obstruction(frozen).is_coboundary
    assert extend(frozen) is None
    for t2 in _all_matrices(gf5, 1, 1):
        assert not check_deformation(
            Deformation(base, frozen.coeffs + [t2])).ok
    print("criterion 5 (deformation/obstruction suite, 50 deformations "
          "+ frozen non-extensible instance): PASS")


def test_criterion_6_post_leibniz(Q, gf5):
    pool = _operator_pool(gf5, 100)
    assert len(pool) == 100
    for r in pool:
        p = from_rbo(r)  # raises if any of the seven identities fails
        assert validate_post_leibniz(p).ok
        assert total_algebra(p) == induced_algebra(r)
    rng = seeded(55)
    agree = 0
    for _ in range(100):
        n = rng.choice((1, 2))
        left = [[[gf5.coerce(rng.randrange(5)) for _ in range(n)]
                 for _ in range(n)] for _ in range(n)]
        right = [[[gf5.coerce(rng.randrange(5)) for _ in range(n)]
                  for _ in range(n)] for _ in range(n)]
        pre = validate_pre_leibniz(gf5, n, left, right)  # raises on split
        zero = [[[gf5.zero] * n for _ in range(n)] for _ in range(n)]
        post = validate_post_leibniz(PostLeibnizAlgebra(gf5, n, left, right,
                                                        zero))
        assert pre.ok == post.ok
        agree += 1
    assert agree == 100
    # compatible-structure sum identity on an invertible weight-1 operator
    a = dim2_nonlie(Q)
    r = WeightedRBO.on_algebra(a, Q.one, Matrix.identity(Q, 2).scale(-Q.one))
    from leibniz_rb.postleibniz import compatible_structure
    assert total_algebra(compatible_structure(a, r)) == a
    print("criterion 6 (post-Leibniz suite, 100 operators + 100 tensor "
          "pairs): PASS")


def test_criterion_7_corpus_goldens(Q):
    paths = sorted(glob.glob(os.path.join(ROOT, "manifests", "*.lra")))
    assert paths
    algebras = 0
    for path in paths:
        m = load_manifest(path)
        fld = m.field
        for a in m.algebras.values():
            assert validate_leibniz(a).ok
            # the identity is a (-1)-weighted Rota-Baxter operator
            r = WeightedRBO.on_algebra(a, fld.coerce(-1),
                                       Matrix.identity(fld, a.dim))
            assert r.is_valid
            # derived operators: nu T with weight nu lambda, -lambda id - T
            for nu in (fld.coerce(2), fld.coerce(-3)):
                first, second = derived_operators(r, nu)
                assert first.weight == nu * r.weight
                assert first.is_valid and second.is_valid
            algebras += 1
    # ideal inclusion is a (-1)-weighted relative operator
    a = heisenberg(Q)
    ctx, incl = ideal_context(a, [2])
    assert check_weighted_relative_rbo(ctx, Q.coerce(-1), incl).ok
    m = load_manifest(os.path.join(ROOT, "manifests", "heisenberg-ideal.lra"))
    _, _, incl2 = m.maps["incl"]
    assert check_weighted_relative_rbo(m.grep("ideal"), Q.coerce(-1),
                                       incl2).ok
    # an invertible crossed homomorphism inverts to a valid operator
    d = adjoint_grep(dim2_nonlie(Q))
    dmap = Matrix.identity(Q, 2)
    assert check_crossed_homomorphism(d, Q.coerce(-1), dmap).ok
    r = invert_crossed(d, Q.coerce(-1), dmap)
    assert r.is_valid
    print("criterion 7 (corpus golden examples, %d algebras): PASS"
          % algebras)


def test_criterion_8_cli_byte_identity():
    from golden_cases import CASES, GOLDEN_DIR, run_case
    for name, argv in CASES:
        with open(os.path.join(GOLDEN_DIR, name + ".rpt"),
                  encoding="utf-8") as fh:
            text = fh.read()
        first, _, want_out = text.partition("\n")
        want_code = int(first.split()[1])
        assert run_case(argv) == (want_code, want_out), name
        assert run_case(argv, extra=("--jobs", "3")) == (want_code, want_out)
    print("criterion 8 (CLI byte-identity across runs and --jobs): PASS")
