"""One-line mutants of the library and the calls that catch them.

Each row of ``MUTANTS`` gives the module, the function (``Class.method``
for a method), the exact line and its replacement, a call, and the
exception the call must raise once the mutant is in; ``test_mutants.py``
applies the rows.  A call aims at one trap (``OracleDisagreement``, an
input check) or compares with a reference in ``tests/`` (an
``AssertionError``, or ``Failed`` from a ``pytest.raises`` that a removed
check no longer satisfies).  A call reaches the library through module
attributes, so that it meets the mutant.
"""

from collections import namedtuple
from fractions import Fraction
from functools import partial

import pytest

import test_cohomology
import test_deformations
import test_fields
import test_graded
import test_multimap
import test_operators
from conftest import (dim2_nonlie, heisenberg, random_matrix, random_multimap,
                      seeded, sl2)
from deformation_reference import set_difference_certificate
from dgla_reference import reference_dgla
from operator_reference import reference_check
from leibniz_rb import (cohomology, core, deformations, graded, manifest,
                        operators)
from leibniz_rb.errors import OracleDisagreement, WrongField
from leibniz_rb.fields import PrimeField, RationalField
from leibniz_rb.linalg import Matrix

Mutant = namedtuple("Mutant", "module function line mutant call raises")
Failed = pytest.fail.Exception
Q, GF2, GF3, GF5, GF7 = (RationalField(), PrimeField(2), PrimeField(3),
                         PrimeField(5), PrimeField(7))


def _ctx(fld=Q):
    return core.adjoint_grep(dim2_nonlie(fld))


def _rbo_id(fld):
    """T = id of weight -1 on dim2-nonlie."""
    return operators.WeightedRBO.on_algebra(dim2_nonlie(fld), -1,
                                            Matrix.identity(fld, 2))


def patched(test, *args):
    """test(*args, monkeypatch) with a monkeypatch of its own."""
    with pytest.MonkeyPatch.context() as mp:
        test(*args, mp)


def refuses(error, call, *args):
    """AssertionError unless call(*args) raises error."""
    try:
        call(*args)
    except error:
        return
    except Exception as exc:
        raise AssertionError("%r, not %s" % (exc, error.__name__)) from exc
    raise AssertionError("%s not raised" % error.__name__)


def bracket(seed, m=2, n=1):
    """Both routes of [[P, Q]] on random maps of arities m and n."""
    d, rng = _ctx(), seeded(seed)
    p, q = (random_multimap(Q, k, 2, 2, rng) for k in (m, n))
    graded.derived_bracket(d, p, q)


def differential(seed):
    """Both routes of dP for a random arity-2 P, lambda = -1."""
    d = _ctx()
    graded.differential_d(d, -1, random_multimap(Q, 2, 2, 2, seeded(seed)))


def dgla_laws():
    """Both routes of each bracket and differential in the dgLa laws."""
    d = _ctx()
    graded.check_dgla(d, -1, graded.dgla_samples(d, count=2, seed=0))


def probe():
    """delta_1 of T = id, weight -1: the gather probe against delta_rows."""
    cohomology.delta_matrix(_rbo_id(Q), 1)


def old_loop():
    """The Leibniz differential of a random arity-2 cochain for sparse
    random (axiom-free) tensors of dims 2, against the old loop of
    ``tests/test_multimap.py``; some output rows are zero."""
    rng = seeded(46)
    t3 = lambda: [[[Q.coerce(rng.randrange(-2, 3)) if rng.random() < 0.4
                    else Q.zero for _ in range(2)] for _ in range(2)]
                  for _ in range(2)]
    g, act = core.LeibnizAlgebra(Q, 2, t3()), core.ActionPair(Q, 2, 2, t3(),
                                                             t3())
    f = random_multimap(Q, 2, 2, 2, rng)
    assert core.leibniz_differential(g, act, f) == \
        test_multimap.old_leibniz_differential(g, act, f)


def dgla_mod_p():
    """The laws on adjoint sl2 over GF(5), where -2 is 3: sums of residues
    such as 3 + 3 and 1 differ as ints though equal mod 5."""
    d = core.adjoint_grep(sl2(GF5))
    assert graded.check_dgla(d, -1, graded.dgla_samples(d, count=1)).ok


def dgla_reference():
    """check_dgla on a broken context with denominators, against the report
    of ``tests/dgla_reference.py``."""
    d = test_graded._broken_context(Q, seeded(1), [Fraction(1, 2),
                                                   Fraction(-2, 3), 1, -1, 2])
    samples = [tuple(f.scale(Fraction(1, 2 + i)) for i, f in enumerate(s))
               for s in graded.dgla_samples(d, count=1, seed=1)]
    want = reference_dgla(d, Fraction(1, 3), samples)
    assert not want.ok
    assert graded.check_dgla(d, Fraction(1, 3), samples) == want


def split_dgla_form():
    """The dgLa form forced to read zero on a deformation failing at order
    1 over GF(5): check_deformation must see the split."""
    r = operators.WeightedRBO.on_algebra(dim2_nonlie(GF5), 1,
                                         Matrix.zeros(GF5, 2, 2))
    defm = deformations.Deformation(r, [r.t, Matrix.identity(GF5, 2)])
    zero = lambda d, *args: graded.MultiMap(d.field, 2, d.h.dim, d.g.dim)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graded, "differential_d_explicit", zero)
        mp.setattr(graded, "derived_bracket_explicit", zero)
        refuses(OracleDisagreement, deformations.check_deformation, defm)


def identity_reference():
    """The weighted identity of random maps on Heisenberg, whose bracket is
    not symmetric, against ``tests/operator_reference.py``."""
    d, rng = core.adjoint_grep(heisenberg(Q)), seeded(47)
    for lam in (0, 1, -1):
        t = random_matrix(Q, 3, 3, rng)
        assert operators.check_weighted_relative_rbo(d, lam, t) == \
            reference_check(d, lam, t)


def scales():
    """Brackets and differentials of maps with denominators, against the
    same quantities of the maps without them, divided back by hand."""
    d, rng = _ctx(), seeded(41)
    p, q = (random_multimap(Q, k, 2, 2, rng) for k in (2, 1))
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert graded.derived_bracket(d, p.scale(half), q.scale(third)) == \
        graded.derived_bracket(d, p, q).scale(half * third)
    assert graded.differential_d(d, third, p) == \
        graded.differential_d(d, 1, p).scale(third)


def shuffle_tables():
    """The brute-force shuffle reference on tables built afresh."""
    for table in (graded.shuffles2, graded.shuffles3):
        table.cache_clear()
    try:
        test_graded.test_shuffle_tables_match_brute_force(graded.shuffles2, 0)
        test_graded.test_shuffle_tables_match_brute_force(graded.shuffles3, 1)
    finally:
        for table in (graded.shuffles2, graded.shuffles3):
            table.cache_clear()


def transport_reference():
    """A store moved along random 2 x 2 matrices, against contract and
    mul_vec per basis pair (the reference of ``tests/test_store.py``)."""
    rng = seeded(43)
    store = core._as_store(Q, (2, 2, 2), [[[rng.randrange(-3, 4)
                                             for _ in range(2)]
                                            for _ in range(2)]
                                           for _ in range(2)])
    s, t, out = (random_matrix(Q, 2, 2, rng) for _ in range(3))
    cells = [((a, b, m), x) for a in range(2) for b in range(2)
             for m, x in enumerate(out.mul_vec(core.contract(
                 Q, ((store, s.col(a), t.col(b)),), 2)))]
    assert core.transport([(store, s, t, out)]) == \
        core._Store(Q, (2, 2, 2), cells)


def delta_0_by_columns():
    """delta_0 x against the column oracle, on the manifest operators and
    on a random T of a context whose rho^L is not ad (``delta_T_0`` needs
    no valid operator)."""
    rng = seeded(61)
    d = test_graded._broken_context(Q, rng, [1, -1, 2])
    rs = [r for _, _, r in test_cohomology._manifest_operators("rational")]
    for r in [operators.WeightedRBO(d, 1, random_matrix(Q, 2, 2, rng))] + rs:
        ng = r.context.g.dim
        for x in [[Q.coerce(int(i == j)) for j in range(ng)]
                  for i in range(ng)] + [[Q.coerce(1 + i % 4)
                                          for i in range(ng)]]:
            assert cohomology.delta_T_0(r, x) == \
                test_cohomology._delta_0_by_columns(r, x)


def search():
    """Every hit of the GF(3) screen re-checked on dim2-nonlie, weight 1."""
    list(operators.search_rbos(_ctx(GF3), 1))


def search_heisenberg():
    """Every hit of the GF(3) screen re-checked on Heisenberg, weight -1;
    its bracket is not symmetric, unlike dim2-nonlie's [e1, e1] = e2."""
    list(operators.search_rbos(core.adjoint_grep(heisenberg(GF3)), -1))


def extends():
    """T_1 = e1 e1^* on [e1, e1] = e2, T_0 = 0, weight 1, over Q: Ob is
    nonzero and a coboundary, and extend re-validates the extension."""
    r = operators.WeightedRBO.on_algebra(dim2_nonlie(Q), 1,
                                         Matrix.zeros(Q, 2, 2))
    defm = deformations.Deformation(r, [r.t, Matrix(Q, [[1, 0], [0, 0]])])
    assert deformations.extend(defm) is not None


def rigidity_by_sets():
    """The rigidity certificate of each small operator over GF(5) against
    the set route of ``tests/deformation_reference.py``."""
    for r in test_deformations._small_operators(GF5):
        assert deformations.rigidity_certificate(r) == \
            set_difference_certificate(r)


def manifest_map():
    """A map that is not symmetric, parsed, against its matrix by hand:
    T e1 = e2 is the column (0, 1) of T."""
    m = manifest.parse_manifest("field rational\nalgebra g dim 2\n"
                                "map T from g to g\nentry T e1 -> 1 e2\n")
    assert m.maps["T"] == ("g", "g", Matrix(Q, [[0, 0], [1, 0]]))


wrong_field_sample = partial(refuses, WrongField, lambda: graded.check_dgla(
    _ctx(), -1, graded.dgla_samples(_ctx(GF5), count=1)))
nijenhuis_reference = partial(test_deformations.test_nijenhuis_matches_reference,
                              GF5)
screens_by_brute_force = partial(
    test_operators.test_screen_forms_match_brute_force, 3)
hand_written_mc = partial(
    test_graded.test_mc_coefficient_matches_the_hand_written_forms, 0)
lifted_past_the_series = partial(
    patched, test_graded.
    test_only_the_coefficient_past_the_series_runs_the_lifted_bracket, 0)

MUTANTS = [
    # the bracket term of the gather probe negated
    Mutant("core", "leibniz_differential", "acc[k] += x if p % 2 else -x",
           "acc[k] += -x if p % 2 else x", partial(differential, 37),
           OracleDisagreement),
    Mutant("core", "leibniz_differential", "acc[k] += x if p % 2 else -x",
           "acc[k] += -x if p % 2 else x", probe, OracleDisagreement),
    # the g o f half of the Balavoine bracket with its sign flipped
    Mutant("graded", "balavoine_bracket",
           "terms += [(g, f, i, m * n + (i - 1) * m + 1) for i in",
           "terms += [(g, f, i, m * n + (i - 1) * m) for i in",
           partial(bracket, 59), OracleDisagreement),
    Mutant("graded", "balavoine_bracket",
           "terms += [(g, f, i, m * n + (i - 1) * m + 1) for i in",
           "terms += [(g, f, i, m * n + (i - 1) * m) for i in",
           partial(differential, 59), OracleDisagreement),
    # the rho^R block sign of the explicit scatter flipped
    Mutant("graded", "_scatter_half",
           "False: (shuffles3(i - 1, n - 1), block * (-1) ** (n - 1))}",
           "False: (shuffles3(i - 1, n - 1), -block * (-1) ** (n - 1))}",
           partial(bracket, 71), OracleDisagreement),
    Mutant("graded", "_scatter_half",
           "False: (shuffles3(i - 1, n - 1), block * (-1) ** (n - 1))}",
           "False: (shuffles3(i - 1, n - 1), -block * (-1) ** (n - 1))}",
           dgla_laws, OracleDisagreement),
    # the shuffle gathers by the permutation, not its inverse; no int
    # context cache
    Mutant("graded", "_table",
           "out.append((itemgetter(*inv) if len(inv) > 1 else tuple,",
           "out.append((itemgetter(*perm) if len(inv) > 1 else tuple,",
           shuffle_tables, AssertionError),
    Mutant("core", "LeibnizGRep.int_context", "@cached_property", "@property",
           partial(patched, test_graded.
                   test_int_context_and_theta_are_built_once_per_context,
                   Q, GF7), AssertionError),
    # transport's s and t swapped, out read transposed; the minus of -T
    # dropped in the induced representation
    Mutant("core", "transport", "for store, s, t, out in terms:",
           "for store, t, s, out in terms:", transport_reference,
           AssertionError),
    Mutant("core", "transport", "for m, row in enumerate(out.raw) if row[k]]",
           "for m, row in enumerate(zip(*out.raw)) if row[k]]",
           transport_reference, AssertionError),
    Mutant("cohomology", "induced_representation",
           "d, t, nt = r.context, r.t, -r.t", "d, t, nt = r.context, r.t, r.t",
           partial(test_cohomology.test_d_T_is_signed_delta, Q, GF7),
           AssertionError),
    # the route comparison, the dgLa block of check_deformation and
    # four input checks removed
    Mutant("graded", "_checked", "if out != lifted(dz, *args):", "if False:",
           partial(patched, test_graded.
                   test_oracle_disagreement_raised_on_forced_split, Q, GF2),
           Failed),
    Mutant("deformations", "check_deformation",
           "if _mc_coefficient(d, r.weight, maps, n).is_zero() == (n in bad):",
           "if False:", split_dgla_form, AssertionError),
    Mutant("core", "transport", "if other:", "if False:",
           partial(refuses, WrongField, lambda: core.change_of_basis_algebra(
               dim2_nonlie(Q), Matrix.identity(GF5, 2))), AssertionError),
    Mutant("graded", "check_dgla", "_check_samples(d, samples)", "None",
           wrong_field_sample, AssertionError),
    Mutant("graded", "_check_samples",
           "_check_maps(d, [f for sample in samples for f in sample])", "None",
           wrong_field_sample, AssertionError),
    Mutant("graded", "maurer_cartan_residual", "_check_operator_shape(d, t)",
           "None", partial(refuses, WrongField, lambda: graded.
                           maurer_cartan_residual(_ctx(), -1,
                                                  Matrix.identity(GF5, 2))),
           AssertionError),
    # signs and scales of the explicit scatter and of the int laws
    Mutant("graded", "_scatter_half",
           "shs = {True: (shuffles2(i - 1, n), block),",
           "shs = {True: (shuffles2(i - 1, n), -block),",
           partial(bracket, 71), OracleDisagreement),
    Mutant("graded", "_scatter_half",
           "shs, c = shuffles2(m, n - 1), half * (-1) ** (m * n)",
           "shs, c = shuffles2(m, n - 1), half",
           partial(bracket, 71, 1, 1), OracleDisagreement),
    Mutant("graded", "_spread", "accs[t][idx] -= x", "accs[t][idx] += x",
           partial(bracket, 71), OracleDisagreement),
    Mutant("graded", "_spread", "accs[t][idx] += x", "accs[t][idx] += 2 * x",
           partial(bracket, 71), OracleDisagreement),
    Mutant("graded", "derived_bracket",
           "d, s * s, derived_bracket_explicit",
           "d, s, derived_bracket_explicit", scales, AssertionError),
    Mutant("graded", "differential_d",
           "d, k * sp, differential_d_explicit",
           "d, sp, differential_d_explicit", scales, AssertionError),
    Mutant("graded", "_reduced",
           "out.nz = {idx: r for idx, r in rows if any(r)}",
           "out.nz = dict(rows)", dgla_mod_p, AssertionError),
    Mutant("graded", "check_dgla",
           "return _reduced(fld, (a[0], a[1] + (-b[1] if k % 2 else b[1])))",
           "return (a[0], a[1] + (-b[1] if k % 2 else b[1]))",
           dgla_mod_p, AssertionError),
    Mutant("graded", "check_dgla", "return _from_ints(fld, *a).flatten()",
           "return _from_ints(fld, 1, a[1]).flatten()", dgla_reference,
           AssertionError),
    # the gather probe's signs, pairs and zero rows; transport's
    # factors dropped where they are not 1
    Mutant("core", "leibniz_differential",
           "x = -frow[a] if (p + (p == n)) % 2 else frow[a]",
           "x = -frow[a] if p % 2 else frow[a]", old_loop, AssertionError),
    Mutant("core", "leibniz_differential",
           "key = idx[:p] + idx[p + 1:q], (idx[p], idx[q]), idx[q + 1:]",
           "key = idx[:p] + idx[p + 1:q], (idx[q], idx[p]), idx[q + 1:]",
           old_loop, AssertionError),
    Mutant("core", "leibniz_differential", "for q in range(1, n + 1):",
           "for q in range(2, n + 1):", probe, OracleDisagreement),
    Mutant("core", "leibniz_differential", "if any(acc):", "if True:",
           old_loop, AssertionError),
    Mutant("core", "transport", "for xy in (x if y == 1 else x * y,)",
           "for xy in (x,)", transport_reference, AssertionError),
    Mutant("core", "transport", "for xyz in (xy if z == 1 else xy * z,)",
           "for xyz in (xy,)", transport_reference, AssertionError),
    Mutant("core", "transport",
           "cells += [((a, b, m), xyz if row[k] == 1 else xyz * row[k])",
           "cells += [((a, b, m), xyz)", transport_reference, AssertionError),
    # theta' kept per mu alone, or not kept
    Mutant("graded", "_block_map", "key = tuple(fld.to_raw([mu, lam]))",
           "key = tuple(fld.to_raw([mu]))", partial(
               test_graded.test_theta_prime_is_kept_per_weight, Q, GF7),
           AssertionError),
    Mutant("graded", "_block_map", "if key not in d._blocks:", "if True:",
           partial(patched, test_graded.
                   test_check_dgla_builds_theta_and_theta_prime_once, Q),
           AssertionError),
    # the bitset screen and its selection
    Mutant("operators", "_screen_bitset",
           "new[(r + c * t) % p] |= val[r] & mono[t]",
           "new[(r + c * t + 1) % p] |= val[r] & mono[t]",
           screens_by_brute_force, AssertionError),
    Mutant("operators", "_screen_bitset",
           "ind.append([(x & full) << a * s for a in range(p)])",
           "ind.append([(x & full) << a * s + 1 for a in range(p)])",
           screens_by_brute_force, AssertionError),
    Mutant("operators", "_screen_bitset", "for c, u, *v in quad + lin:",
           "for c, u, *v in quad:",
           screens_by_brute_force, AssertionError),
    Mutant("operators", "_screen_bitset",
           "yield tuple(i // s % p for s in strides)",
           "yield tuple(i // s % p for s in reversed(strides))",
           screens_by_brute_force, AssertionError),
    Mutant("operators", "_screen",
           "if p <= BITSET_MAX_P and p ** cells <= BITSET_MAX_BITS:",
           "if not (p <= BITSET_MAX_P and p ** cells <= BITSET_MAX_BITS):",
           partial(patched, test_operators.
                   test_screen_takes_the_bitset_form_within_its_range),
           AssertionError),
    # the re-check's right-hand side, the shared elements, contract
    Mutant("operators", "operator_rhs", "if lam and (a, b) in ch:",
           "if False:", identity_reference, AssertionError),
    Mutant("operators", "operator_rhs",
           "for i, row in act.left_nz.by_second.get(b, ()):",
           "for i, row in act.left_nz.by_first.get(b, ()):",
           identity_reference, AssertionError),
    Mutant("fields", "PrimeField.from_raw",
           "return [els[s % p] for s in sums]",
           "return [els[s] for s in sums]", partial(
               test_fields.test_from_raw_matches_plain_reduction, GF5),
           AssertionError),
    Mutant("core", "contract", "if not yj:", "if yj:", search,
           OracleDisagreement),
    # the search's g-bracket memo read with the columns swapped, or keyed
    # by Te_a alone
    Mutant("operators", "check_weighted_relative_rbo",
           "lhs = memo.get(key) if key else None",
           "lhs = memo.get(key[::-1]) if key else None", search_heisenberg,
           OracleDisagreement),
    Mutant("operators", "check_weighted_relative_rbo",
           "key = keys and (keys[a], keys[b])", "key = keys and keys[a]",
           search_heisenberg, OracleDisagreement),
    # delta_0 = T B - A T with a flipped sign, swapped terms, B for A
    Mutant("cohomology", "delta_T_0", "return r.t * b - a * r.t",
           "return r.t * b + a * r.t", delta_0_by_columns, AssertionError),
    Mutant("cohomology", "delta_T_0", "return r.t * b - a * r.t",
           "return a * r.t - r.t * b", delta_0_by_columns, AssertionError),
    Mutant("cohomology", "delta_T_0", "return r.t * b - a * r.t",
           "return r.t * b - b * r.t", delta_0_by_columns, AssertionError),
    # the Maurer-Cartan coefficient and its callers
    Mutant("graded", "_mc_coefficient",
           "out = differential_d_explicit(dz, lz, zs[n]).scale(2 * s)",
           "out = differential_d_explicit(dz, lz, zs[n]).scale(s)",
           hand_written_mc, OracleDisagreement),
    Mutant("graded", "_mc_coefficient",
           "out = out + br.scale(k if 2 * i == n else 2 * k)",
           "out = out + br.scale(k)",
           hand_written_mc, AssertionError),
    Mutant("graded", "_mc_coefficient",
           "for i in range(max(0, n + 1 - len(zs)), n // 2 + 1):",
           "for i in range(max(1, n + 1 - len(zs)), n // 2 + 1):",
           hand_written_mc, AssertionError),
    Mutant("graded", "_mc_coefficient", "if n < len(zs) \\", "if True \\",
           lifted_past_the_series, Failed),
    Mutant("graded", "_mc_coefficient", "if n < len(zs) \\", "if False \\",
           lifted_past_the_series, OracleDisagreement),
    Mutant("graded", "_mc_coefficient",
           "return _from_ints(fld, den * k * s * s, out)",
           "return _from_ints(fld, den * k * s, out)", partial(
               test_graded.test_mc_coefficient_divides_back_every_scale, Q),
           AssertionError),
    Mutant("graded", "_mc_coefficient",
           "if any(x % 2 for row in out.nz.values() for x in row):",
           "if False:", partial(
               patched, test_graded.test_odd_mc_sum_is_trapped, 0), Failed),
    Mutant("cohomology", "x0_columns", "x0 = [fld.coerce(x) for x in x0]",
           "x0 = list(x0)", partial(refuses, WrongField, lambda: deformations.
                                    check_nijenhuis(_rbo_id(Q), [GF5.one,
                                                                 GF5.zero])),
           AssertionError),
    # the Nijenhuis scan: rho^L read from the rho^R store, condition 1 on
    # the store of h, a term of delta_0 x0 dropped; the manifest map
    # matrix transposed
    Mutant("cohomology", "x0_sums",
           "return [row_sums(store, x0) for store in (d.g.c_nz, "
           "d.actions.left_nz)]",
           "return [row_sums(store, x0) for store in (d.g.c_nz, "
           "d.actions.right_nz)]", nijenhuis_reference, AssertionError),
    Mutant("deformations", "_nijenhuis_raw",
           "for store, xs, ys in ((d.g.c_nz, ad, ad), (d.h.c_nz, lu, lu),",
           "for store, xs, ys in ((d.h.c_nz, ad, ad), (d.h.c_nz, lu, lu),",
           nijenhuis_reference, AssertionError),
    Mutant("deformations", "rigidity_certificate",
           "images.add(tuple(sum(map(mul, row, digits)) % fld.p",
           "images.add(tuple(sum(map(mul, row[1:], digits[1:])) % fld.p",
           rigidity_by_sets, AssertionError),
    Mutant("manifest", "_build",
           "Matrix.from_cols(field, stores[0].dense()[0], dims[1]))",
           "Matrix(field, stores[0].dense()[0], dims[1]))", manifest_map,
           AssertionError),
    Mutant("multimap", "MultiMap.set_",
           "if len(idx) != self.arity or not all(a in src for a in idx):",
           "if len(idx) != self.arity:", partial(
               test_multimap.test_set_refuses_an_index_outside_the_source,
               (5,)), Failed),
    Mutant("deformations", "obstruction",
           "ob = -_mc_coefficient(d, r.weight, maps, defm.order + 1)",
           "ob = _mc_coefficient(d, r.weight, maps, defm.order + 1)", extends,
           OracleDisagreement),
]
