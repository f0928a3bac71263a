from fractions import Fraction

import pytest

from lforge.fields import GF, QQ, FieldError, field_from_name, is_prime
from lforge.rng import Rng
from oracles import field_sub


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-3, 32):
        assert is_prime(n) == (n in primes)


def test_is_prime_larger():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 3)
    assert not is_prime(341)  # base-2 pseudoprime


def test_gf_rejects_composite_and_range():
    with pytest.raises(FieldError):
        GF(15)
    with pytest.raises(FieldError):
        GF(2**31 + 11)


def test_gf17_arithmetic():
    F = GF(17)
    assert F.add(10, 10) == 3
    assert field_sub(F, 3, 5) == 15
    assert F.neg(1) == 16
    assert F.mul(5, 7) == 1
    assert F.inv(5) == 7
    assert F.div(1, 5) == 7
    assert F.of(-1) == 16
    assert F.of(Fraction(1, 5)) == 7
    with pytest.raises(FieldError):
        F.inv(0)


def test_gf_inverses_exhaustive():
    F = GF(17)
    for a in range(1, 17):
        assert F.mul(a, F.inv(a)) == 1


def test_gf_flyweight():
    assert GF(17) is GF(17)
    assert GF(17) == GF(17)
    assert GF(17) != GF(19)


def test_qq_arithmetic():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.char == 0
    with pytest.raises(FieldError):
        QQ.inv(0)


def test_random_elements_in_range():
    F = GF(17)
    rng = Rng(1)
    vals = {F.random(rng) for _ in range(200)}
    assert vals == set(range(17))
    for _ in range(50):
        assert F.random_nonzero(rng) != 0


def test_field_from_name():
    assert field_from_name("GF(17)") is GF(17)
    assert field_from_name("gf17") is GF(17)
    assert field_from_name("QQ") is QQ
    with pytest.raises(ValueError):
        field_from_name("GF(abc)")
    with pytest.raises(ValueError):
        field_from_name("ring")
