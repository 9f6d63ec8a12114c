"""Exact scalar arithmetic: rationals and prime fields."""

import hashlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from stratalg.field import (MAX_PRIME, Field, FieldElement, format_scalar,
                            is_prime)

PRIMES = (2, 3, 5, 7, 19, 23, 101)


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


# SHA-256 of one line per seeded Fraction a/b: "a/b element inverse", with
# "ZeroDivisionError: <message>" where the denominator vanishes mod p (every
# tenth draw multiplies b by p) or the element is zero; 200 draws of
# |a|, b < 10**14 each, frozen from the extended-Euclid inverse
GOLDEN_INVERSES = [
    (7, "13ff3a35313bf6a18bcf8666359cd87b59147f491f6c19ce81be3c4da51d2c1d"),
    (1000000000039,
     "9fac762555ba7999e60287af3d8e571724f9d6823bb23593a20bec0bbed5f28b"),
]


@pytest.mark.parametrize("p,digest", GOLDEN_INVERSES,
                         ids=[f"f{g[0]}" for g in GOLDEN_INVERSES])
def test_fraction_elements_and_inverses_match_golden_digest(p, digest):
    f = Field(p)
    rng = random.Random(f"{p}:inverse")
    lines = []
    for k in range(200):
        a = rng.randrange(-10 ** 14, 10 ** 14)
        b = rng.randrange(1, 10 ** 14) * (p if k % 10 == 0 else 1)
        try:
            e = f.element(Fraction(a, b))
        except ZeroDivisionError as exc:
            lines.append(f"{a}/{b} ZeroDivisionError: {exc}")
            continue
        try:
            inv = e.inverse()
        except ZeroDivisionError as exc:
            inv = f"ZeroDivisionError: {exc}"
        lines.append(f"{a}/{b} {e} {inv}")
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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
