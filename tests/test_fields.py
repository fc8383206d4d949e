from fractions import Fraction

import pytest

from factlab.errors import NotPrime
from factlab.fields import GF, QQ, FieldSpec, is_prime, parse_field_spec


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 101, 10007, 2147483647}
    for n in range(2, 200):
        assert is_prime(n) == all(n % d for d in range(2, n))
    for n in primes:
        assert is_prime(n)
    assert not is_prime(1000003 * 1103)  # composite below the cap


def test_field_construction_limits():
    with pytest.raises(NotPrime):
        GF(4)
    with pytest.raises(NotPrime):
        GF(2)  # p must exceed 2
    with pytest.raises(NotPrime):
        GF(2**31 + 11)  # beyond the 64-bit-safe cap
    assert GF(3).p == 3


def test_prime_arithmetic():
    F = GF(7)
    assert F.add(3, 5) == 1
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.div(1, 3) == 5
    assert F.power(3, 6) == 1
    assert F.neg(0) == 0


def test_rational_arithmetic():
    F = QQ
    a, b = Fraction(2, 3), Fraction(3, 2)
    assert F.mul(a, b) == 1
    assert F.inv(a) == b
    assert F.sub(a, a) == 0


def test_sqrt_prime():
    F = GF(101)
    for a in range(101):
        r = F.sqrt(a)
        if r is None:
            assert all((x * x) % 101 != a for x in range(101))
        else:
            assert (r * r) % 101 == a
            assert r <= 101 - r  # canonical: the smaller root


def test_sqrt_prime_3mod4():
    F = GF(103)
    r = F.sqrt(F.mul(5, 5))
    assert (r * r) % 103 == 25 % 103


def test_sqrt_rational():
    assert QQ.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert QQ.sqrt(Fraction(2, 1)) is None
    assert QQ.sqrt(Fraction(-1, 1)) is None


def test_parse_format_roundtrip():
    F = GF(10007)
    assert F.parse_scalar("15") == 15
    assert F.parse_scalar("1/2") == F.div(1, 2)
    assert F.parse_scalar(str(F.div(1, 2))) == F.div(1, 2)
    assert QQ.parse_scalar("-3/4") == Fraction(-3, 4)
    assert QQ.parse_scalar(str(Fraction(-3, 4))) == Fraction(-3, 4)


def test_parse_field_spec():
    assert parse_field_spec("Fp:10007") == GF(10007)
    assert parse_field_spec("QQ") == QQ
    assert parse_field_spec("Fp:101").spec_string() == "Fp:101"
    with pytest.raises(Exception):
        parse_field_spec("GF:4")
