import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import dim2_nonlie, is_canonical
from leibniz_rb.core import (ActionPair, LeibnizAlgebra, LeibnizGRep,
                             _as_store, adjoint_grep, contract)
from leibniz_rb.errors import InvalidInput, WrongField
from leibniz_rb.fields import (RESIDUE_TABLE_MAX, ZZ, GFElement, PrimeField,
                               RationalField, field_from_spec)
from leibniz_rb.linalg import Matrix
from leibniz_rb.graded import maurer_cartan_residual
from leibniz_rb.operators import (WeightedRBO, check_weighted_relative_rbo,
                                  graph_check, operator_rhs)


def test_rational_parse_format_roundtrip(Q):
    for text in ["0", "5", "-3", "2/3", "-7/2"]:
        assert Q.format(Q.parse(text)) == text
    assert Q.parse("4/2") == Fraction(2)


def test_integer_ring_holds_only_plain_ints():
    assert (ZZ.zero, ZZ.one, ZZ.raw_zero, ZZ.characteristic) == (0, 1, 0, 0)
    assert ZZ.coerce(-3) == -3 and ZZ.from_raw(ZZ.to_raw([2, 0])) == [2, 0]
    for x in (Fraction(1), Fraction(1, 2), True, 1.0, GFElement(1, 5)):
        with pytest.raises(TypeError):
            ZZ.coerce(x)


@pytest.mark.parametrize("entry", [check_weighted_relative_rbo, graph_check,
                                   maurer_cartan_residual, WeightedRBO])
@pytest.mark.parametrize("field, weight", [
    (field, weight) for field in (RationalField(), PrimeField(5))
    for weight in ("x", None, 0.5)] + [(PrimeField(5), Fraction(1, 5))])
def test_a_weight_that_is_no_scalar_is_invalid_input(entry, field, weight):
    # each ended in a bare TypeError (or ZeroDivisionError for 1/5 in GF(5))
    d = adjoint_grep(dim2_nonlie(field))
    with pytest.raises(InvalidInput) as exc:
        entry(d, weight, Matrix.identity(field, 2))
    assert "\n" not in str(exc.value)


def test_prime_field_rejects_composites():
    for n in (0, 1, 4, 9, 15):
        with pytest.raises(InvalidInput):
            PrimeField(n)
    PrimeField(2), PrimeField(97)


def test_gf_arithmetic():
    F = PrimeField(7)
    a, b = F.coerce(3), F.coerce(5)
    assert a + b == F.coerce(1)
    assert a * b == F.coerce(1)
    assert -a == F.coerce(4)
    assert a / b == a * F.coerce(3)  # 5 * 3 = 1 mod 7
    assert (a - a) == F.zero and not F.zero
    assert bool(a)


def test_gf_parse_fraction_notation():
    F = PrimeField(5)
    assert F.parse("1/2") == F.coerce(3)  # 2 * 3 = 1 mod 5
    assert F.parse("-1") == F.coerce(4)


def test_field_from_spec():
    assert isinstance(field_from_spec("rational"), RationalField)
    F = field_from_spec("gf 11")
    assert isinstance(F, PrimeField) and F.p == 11
    with pytest.raises(InvalidInput):
        field_from_spec("complex")


def test_gf_element_hash_consistency():
    F = PrimeField(5)
    assert len({F.coerce(1), F.coerce(6), F.coerce(11)}) == 1


def test_enumeration():
    F = PrimeField(3)
    assert sorted(x.v for x in F.elements()) == [0, 1, 2]


# The kernels against plain sums of ints (Fractions over Q) reduced mod p,
# over primes inside the shared-element table and one above its bound.
REFERENCE_FIELDS = (RationalField(),) + tuple(
    PrimeField(p) for p in (2, 3, 5, 7, 13, 97, 1000003))


def _draw(field, rng):
    """A plain scalar: often zero, negative, at or above p."""
    p = field.characteristic
    pool = [0, 0, 0, 1, -1, -7, p - 1, p, 2 * p + 3, -p - 2, 10 ** 6 + 11]
    if not p:
        pool += [Fraction(1, 2), Fraction(-5, 3)]
    return rng.choice(pool)


def _tensor(field, rng, d0, d1, d2):
    return [[[_draw(field, rng) for _ in range(d2)] for _ in range(d1)]
            for _ in range(d0)]


def _plain(field, vec):
    """The residues (Fractions over Q) of a kernel result, which must be
    canonical."""
    assert is_canonical(field, vec)
    return [x.v for x in vec] if field.characteristic else list(vec)


def _reduced(field, sums):
    p = field.characteristic
    return [s % p for s in sums] if p else list(sums)


def _coerced(field, vec):
    return [field.coerce(x) for x in vec]


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=repr)
def test_from_raw_matches_plain_reduction(field):
    rng, p = random.Random(1), field.characteristic
    for _ in range(60):
        sums = [_draw(field, rng) for _ in range(rng.randint(0, 6))]
        if not p:
            sums = [Fraction(s) for s in sums]
        got = field.from_raw(sums)
        assert _plain(field, got) == _reduced(field, sums)
        if p and p <= RESIDUE_TABLE_MAX:  # one shared element per residue
            assert all(x is field.from_raw([x.v])[0] for x in got)
            assert all(x is field.zero for x in got if not x)


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=repr)
def test_contract_matches_plain_reference(field):
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(1, 3)
        terms, want = [], [0] * n
        for _ in range(rng.randint(1, 3)):
            n0, n1 = rng.randint(1, 3), rng.randint(1, 3)
            t = _tensor(field, rng, n0, n1, n)
            x = [_draw(field, rng) for _ in range(n0)]
            y = [_draw(field, rng) for _ in range(n1)]
            for i, j, k in product(range(n0), range(n1), range(n)):
                want[k] += x[i] * y[j] * t[i][j][k]
            terms.append((_as_store(field, (n0, n1, n), t),
                          _coerced(field, x), _coerced(field, y)))
        got = contract(field, terms, n)
        assert _plain(field, got) == _reduced(field, want)


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=repr)
def test_mul_vec_matches_plain_reference(field):
    rng = random.Random(3)
    for _ in range(40):
        nrows, ncols = rng.randint(0, 4), rng.randint(0, 4)
        m = _tensor(field, rng, 1, nrows, ncols)[0]
        v = [_draw(field, rng) for _ in range(ncols)]
        want = [sum((a * x for a, x in zip(row, v)), 0) for row in m]
        got = Matrix(field, m, ncols).mul_vec(_coerced(field, v))
        assert _plain(field, got) == _reduced(field, want)


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=repr)
def test_operator_rhs_matches_plain_reference(field):
    # lam c_h[a][b] + sum_i tu_i rho^L[i][b] + sum_i tv_i rho^R[a][i] on
    # random stores; operator_rhs reads only the stores, so the context
    # need not be a representation
    rng = random.Random(4)
    for _ in range(12):
        ng, nh = rng.randint(1, 3), rng.randint(1, 3)
        c, left, right = (_tensor(field, rng, *dims) for dims in
                          ((nh, nh, nh), (ng, nh, nh), (nh, ng, nh)))
        d = LeibnizGRep(LeibnizAlgebra.zero(field, ng),
                        LeibnizAlgebra(field, nh, c),
                        ActionPair(field, ng, nh, left, right))
        for a, b in product(range(nh), repeat=2):
            lam = _draw(field, rng)
            tu, tv = ([_draw(field, rng) for _ in range(ng)]
                      for _ in range(2))
            want = [lam * c[a][b][k]
                    + sum(tu[i] * left[i][b][k] + tv[i] * right[a][i][k]
                          for i in range(ng)) for k in range(nh)]
            raw = lambda vec: field.to_raw(_coerced(field, vec))
            got = operator_rhs(d, raw([lam])[0], a, raw(tu), b, raw(tv))
            assert _plain(field, got) == _reduced(field, want)


def test_residue_table_is_bounded():
    # a prime above the bound keeps RESIDUE_TABLE_MAX shared elements and
    # builds the other residues per entry, still canonical
    field, n = PrimeField(1000003), RESIDUE_TABLE_MAX + 100
    sums = [field.p - 1 - s for s in range(n)] + [field.p + 5, -3]
    got = field.from_raw(sums)
    assert _plain(field, got) == _reduced(field, sums)
    assert len(field._els) == RESIDUE_TABLE_MAX


@pytest.mark.parametrize("p, q", [(3, 5), (97, 1000003), (1000003, 2)])
def test_kernels_reject_an_element_of_another_prime(p, q):
    field, other = PrimeField(p), PrimeField(q)
    x = other.from_raw([1, 0])  # shared elements of GF(q)
    store = _as_store(field, (2, 2, 2), [[[1, 1]] * 2] * 2)
    with pytest.raises(WrongField):
        field.to_raw(x)
    with pytest.raises(WrongField):
        contract(field, [(store, x, x)], 2)
    with pytest.raises(WrongField):
        Matrix(field, [[1, 2], [3, 4]]).mul_vec(x)


def test_kernels_reject_an_entry_that_is_no_gf_element(gf5):
    # a plain int or Fraction entry: WrongField, not AttributeError
    a = LeibnizAlgebra.from_entries(gf5, 2, {(0, 1, 1): 1})
    for vec in ([1, 0], [gf5.one, 0], [Fraction(1), gf5.zero]):
        with pytest.raises(WrongField, match="^entry not in GF"):
            gf5.to_raw(vec)
    with pytest.raises(WrongField):
        a.bracket([1, 0], [0, 1])
    assert gf5.to_raw([]) == []


def test_coerce_and_elements_build_their_elements(gf_news):
    # per call, not per entry: they stay off the shared table, so a GF(p)
    # run keeps building some elements
    field = PrimeField(5)
    field.from_raw(range(5))
    gf_news.clear()
    assert field.coerce(3) is not field.from_raw([3])[0]
    assert len(field.elements()) == 5
    assert len(gf_news) == 6
