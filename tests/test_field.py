"""Exact scalar arithmetic: rationals and prime fields."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from stratalg.field import (MAX_PRIME, Field, FieldElement, format_scalar,
                            is_prime, xgcd)

PRIMES = (2, 3, 5, 7, 19, 23, 101)


@given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))
def test_xgcd_bezout(x, y):
    g, a, b = xgcd(x, y)
    assert a * x + b * y == g


def test_is_prime_small():
    primes = {n for n in range(200) if is_prime(n)}
    assert primes == {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103,
                      107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163,
                      167, 173, 179, 181, 191, 193, 197, 199}


def trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(10 ** 5) if is_prime(n)] == \
        [n for n in range(10 ** 5) if trial_division(n)]
    # a Carmichael number and strong pseudoprimes to the bases 2; 2, 3, 5, 7;
    # and 2 through 11
    for n in (561, 2047, 3215031751, 3474749660383):
        assert not is_prime(n)


def test_field_accepts_a_61_bit_prime_quickly():
    start = time.perf_counter()
    assert Field(2 ** 61 - 1).p == 2 ** 61 - 1
    assert time.perf_counter() - start < 1


def test_field_construction_validation():
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(1)
    with pytest.raises(ValueError):
        Field(MAX_PRIME * 2)
    assert Field().p is None
    assert Field(7).p == 7


def test_element_coercion():
    f7 = Field(7)
    assert f7.element(10).value == 3
    assert f7.element(-1).value == 6
    assert f7.element(Fraction(1, 2)).value == 4  # 2 * 4 = 8 = 1 mod 7
    assert f7.element(f7.element(3)).value == 3
    q = Field()
    assert q.element(3).value == Fraction(3)
    with pytest.raises(ValueError):
        q.element(f7.element(3))
    with pytest.raises(ZeroDivisionError):
        f7.element(Fraction(1, 7))


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        Field(7).element(0.5)  # int() would truncate it to 0; 1/2 is 4
    with pytest.raises(TypeError):
        Field().element(0.1)  # a binary Fraction, not 1/10
    with pytest.raises(TypeError):
        Field(7.0)


def test_from_string():
    q = Field()
    assert q.from_string("3/2").value == Fraction(3, 2)
    assert q.from_string(" -7 ").value == Fraction(-7)
    f5 = Field(5)
    assert f5.from_string("3/2").value == 4  # 2 * 4 = 8 = 3 mod 5


def test_format_scalar():
    assert format_scalar(Field(7).element(12)) == "5"
    assert format_scalar(Field().element(Fraction(3, 2))) == "3/2"
    assert format_scalar(Fraction(-7)) == "-7"


@pytest.mark.parametrize("p", PRIMES)
def test_prime_field_laws(p):
    f = Field(p)
    elems = [f.element(v) for v in range(p)]
    one, zero = f.one(), f.zero()
    for a in elems:
        assert a + zero == a and a * one == a
        assert a - a == zero
        if a != zero:
            assert a * a.inverse() == one
            assert (one / a) * a == one
        assert a ** p == a  # Fermat
    for a in elems[: min(p, 5)]:
        for b in elems[: min(p, 5)]:
            assert a + b == b + a and a * b == b * a


@given(st.fractions(), st.fractions(), st.fractions())
def test_rational_field_ring_laws(x, y, z):
    q = Field()
    a, b, c = q.element(x), q.element(y), q.element(z)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


def test_division_and_errors():
    f7 = Field(7)
    assert (f7.element(3) / f7.element(5)).value == 2  # 5 * 2 = 10 = 3
    with pytest.raises(ZeroDivisionError):
        f7.element(1) / f7.element(0)
    with pytest.raises(ZeroDivisionError):
        f7.element(0).inverse()
    with pytest.raises(ValueError):
        f7.element(1) + Field(5).element(1)


def test_mixed_scalar_operations():
    f7 = Field(7)
    a = f7.element(3)
    assert (2 * a).value == 6 and (a * 2).value == 6
    assert (1 + a).value == 4 and (a - 1).value == 2
    assert (1 - a).value == 5
    assert (-a).value == 4
    assert bool(a) and not bool(f7.element(0))


def test_sampling_deterministic():
    import random
    f = Field(19)
    a = [f.sample(random.Random(5)) for _ in range(10)]
    b = [f.sample(random.Random(5)) for _ in range(10)]
    assert a == b
    r = random.Random(3)
    assert all(f.sample_nonzero(r) != f.zero() for _ in range(50))


def test_field_json_round_trip():
    for f in (Field(), Field(23)):
        assert Field.from_json(f.to_json()) == f


def test_element_hash_consistency():
    f7 = Field(7)
    assert hash(f7.element(10)) == hash(f7.element(3))
    assert len({f7.element(v) for v in range(14)}) == 7
