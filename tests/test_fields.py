from fractions import Fraction

import pytest

from leibniz_rb.errors import CharacteristicTwo, InvalidInput
from leibniz_rb.fields import (ZZ, GFElement, PrimeField, RationalField,
                               field_from_spec)


def test_rational_parse_format_roundtrip(Q):
    for text in ["0", "5", "-3", "2/3", "-7/2"]:
        assert Q.format(Q.parse(text)) == text
    assert Q.parse("4/2") == Fraction(2)


def test_rational_half(Q):
    assert Q.half() * 2 == Q.one


def test_integer_ring_holds_only_plain_ints():
    assert (ZZ.zero, ZZ.one, ZZ.raw_zero, ZZ.characteristic) == (0, 1, 0, 0)
    assert ZZ.coerce(-3) == -3 and ZZ.from_raw(ZZ.to_raw([2, 0])) == [2, 0]
    for x in (Fraction(1), Fraction(1, 2), True, 1.0, GFElement(1, 5)):
        with pytest.raises(TypeError):
            ZZ.coerce(x)
    with pytest.raises(TypeError):  # no division: 1/2 is no int
        ZZ.half()


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


def test_gf_half_and_char2():
    assert PrimeField(5).half() * 2 == PrimeField(5).one
    with pytest.raises(CharacteristicTwo):
        PrimeField(2).half()


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
