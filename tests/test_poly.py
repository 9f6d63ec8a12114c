"""Exact multivariate polynomial arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratalg import Field
from stratalg.poly import MAX_DEGREE, DegreeError, Polynomial, variables

x, y, z = variables("x", "y", "z")


def mono(**exps):
    return tuple(sorted((n, e) for n, e in exps.items() if e))


@st.composite
def polys(draw):
    out = Polynomial()
    for _ in range(draw(st.integers(0, 4))):
        m = mono(**draw(st.dictionaries(st.sampled_from("xyz"),
                                        st.integers(1, 2), max_size=2)))
        c = draw(st.fractions(min_value=-5, max_value=5, max_denominator=4))
        out = out + Polynomial({m: c})
    return out


points = st.fixed_dictionaries({
    n: st.fractions(min_value=-3, max_value=3, max_denominator=3)
    for n in "xyz"
})


@given(polys(), polys(), polys())
@settings(max_examples=60)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a
    assert a * 1 == a
    assert a - a == Polynomial()
    assert a * 0 == Polynomial()


@given(polys(), points)
@settings(max_examples=60)
def test_evaluate_is_a_homomorphism(a, pt):
    b = x * x - y + 2
    assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
    assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)


@given(polys(), points)
@settings(max_examples=60)
def test_substitute_then_evaluate(a, pt):
    # p(x -> g) evaluated at a point equals p evaluated at the shifted point.
    g = y + 1
    shifted = dict(pt, x=g.evaluate(pt))
    assert a.substitute({"x": g}).evaluate(pt) == a.evaluate(shifted)


def test_construction_drops_zero_terms():
    p = Polynomial({mono(x=1): 2, mono(y=1): 0, (): Fraction(0)})
    assert p.terms == {mono(x=1): Fraction(2)}
    assert Polynomial.const(0).is_zero()
    assert Polynomial().is_zero()
    assert not (x + 1).is_zero()
    # is_zero is a method: a bare reference is always truthy.
    assert bool(Polynomial()) is False
    assert bool(x) is True


def test_float_coefficients_are_rejected():
    with pytest.raises(TypeError):
        Polynomial({(): 0.1})
    with pytest.raises(TypeError):
        Polynomial.const(0.5)


def test_degree_and_variables():
    assert Polynomial().degree() == -1
    assert Polynomial.const(5).degree() == 0
    assert (x * y * y + z).degree() == 3
    assert (x + y).variables() == {"x", "y"}
    assert Polynomial.const(3).variables() == set()


def test_substitution_expands_products():
    p = (x + y) * (x - y)
    q = p.substitute({"x": z + 1, "y": 2})
    assert q == (z + 1) * (z + 1) - 4
    assert p.substitute({"x": y}) == Polynomial()
    with pytest.raises(TypeError):
        p.substitute({"x": "nope"})


def test_coefficient_of_both_spellings():
    p = 3 * x * x * y - y + Fraction(1, 2)
    assert p.coefficient_of({"x": 2, "y": 1}) == 3
    assert p.coefficient_of(mono(y=1)) == -1
    assert p.coefficient_of(()) == Fraction(1, 2)
    assert p.coefficient_of({"z": 1}) == 0
    # exponent-zero entries are ignored
    assert p.coefficient_of({"y": 1, "x": 0}) == -1


def test_degree_cap():
    p = x ** MAX_DEGREE
    assert p.degree() == MAX_DEGREE
    with pytest.raises(DegreeError):
        p * x


def test_pow():
    assert x ** 0 == 1
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    with pytest.raises(ValueError):
        x ** -1


def test_scalar_operations_both_sides():
    assert 1 - x == -(x - 1)
    assert 2 + x == x + 2
    assert 2 * x == x * 2
    assert Fraction(1, 2) * x + Fraction(1, 2) * x == x


def test_evaluate_over_a_prime_field():
    f7 = Field(7)
    p = Fraction(1, 2) * x + 3
    v = p.evaluate({"x": f7.element(2)}, field=f7)
    assert v == f7.element(4)  # 1/2 = 4 mod 7, 4*2 + 3 = 11 = 4
    bad = Fraction(1, 7) * x
    with pytest.raises(ZeroDivisionError):
        bad.evaluate({"x": f7.element(1)}, field=f7)


def test_repr_is_canonical():
    assert repr(Polynomial()) == "0"
    assert repr(x - y) == "x - y"
    assert repr(-x) == "-x"
    assert repr(Fraction(3, 2) * x) == "3/2*x"
    assert repr(x * x * y + z + 1) == "x^2*y + z + 1"
    # higher degree first, then lexicographic within a degree
    assert repr(y + x + x * y) == "x*y + x + y"
    # equal polynomials print identically regardless of construction order
    a = x + y * y - 3
    b = -3 + y * y + x
    assert repr(a) == repr(b)


def test_hash_agrees_with_equality():
    a = (x + y) * (x - y)
    b = x * x - y * y
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


# ---------------------------------------------------------------------------
# Differential test against the Fraction-only class that the int-coefficient
# one replaced, kept here verbatim as the reference.

def _ref_mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for name, e in m2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _ref_mono_degree(m):
    return sum(e for _, e in m)


class RefPolynomial:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for mono, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                clean[mono] = coeff
        self.terms = clean

    @staticmethod
    def const(value):
        value = Fraction(value)
        if not value:
            return RefPolynomial()
        return RefPolynomial({(): value})

    @staticmethod
    def var(name):
        return RefPolynomial({((name, 1),): Fraction(1)})

    @staticmethod
    def _lift(other):
        if isinstance(other, RefPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return RefPolynomial.const(other)
        return None

    def degree(self):
        if not self.terms:
            return -1
        return max(_ref_mono_degree(m) for m in self.terms)

    def __add__(self, other):
        other = RefPolynomial._lift(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = out.get(mono, Fraction(0)) + coeff
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        p = RefPolynomial.__new__(RefPolynomial)
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = RefPolynomial.__new__(RefPolynomial)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other):
        other = RefPolynomial._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = RefPolynomial._lift(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = RefPolynomial._lift(other)
        if other is None:
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _ref_mono_mul(m1, m2)
                s = out.get(mono, Fraction(0)) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        for mono in out:
            if _ref_mono_degree(mono) > MAX_DEGREE:
                raise DegreeError(
                    f"expansion reached degree {_ref_mono_degree(mono)} > "
                    f"{MAX_DEGREE}")
        p = RefPolynomial.__new__(RefPolynomial)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = RefPolynomial.const(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        other = RefPolynomial._lift(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def substitute(self, bindings):
        lifted = {}
        for name, val in bindings.items():
            v = RefPolynomial._lift(val)
            if v is None:
                raise TypeError(f"cannot substitute {val!r} for {name}")
            lifted[name] = v
        out = RefPolynomial()
        for mono, coeff in self.terms.items():
            term = RefPolynomial.const(coeff)
            for name, e in mono:
                factor = lifted.get(name, RefPolynomial.var(name))
                term = term * factor ** e
            out = out + term
        return out

    def coefficient_of(self, monomial):
        if isinstance(monomial, dict):
            monomial = tuple(sorted((n, e) for n, e in monomial.items() if e))
        return self.terms.get(tuple(monomial), Fraction(0))

    def evaluate(self, assignment, field=None):
        if field is not None:
            lift = field.element
            total = field.zero()
        else:
            lift = Fraction
            total = Fraction(0)
        for mono, coeff in self.terms.items():
            term = lift(coeff)
            for name, e in mono:
                v = assignment[name]
                for _ in range(e):
                    term = term * v
            total = total + term
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms,
                           key=lambda m: (-_ref_mono_degree(m), m)):
            coeff = self.terms[mono]
            body = "*".join(f"{n}^{e}" if e > 1 else n for n, e in mono)
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")


NAMES = "wxyz"


def random_terms(rng, max_exp=2, max_terms=4):
    """A term dict with int and fractional coefficients, some monomials
    repeated so that sums built from it can cancel."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        names = rng.sample(NAMES, rng.randint(0, 3))
        m = tuple(sorted((n, rng.randint(1, max_exp)) for n in names))
        num = rng.randint(-6, 6)
        terms[m] = num if rng.random() < 0.5 else Fraction(num,
                                                           rng.randint(1, 4))
    return terms


def random_pair(rng, **kw):
    terms = random_terms(rng, **kw)
    return Polynomial(terms), RefPolynomial(terms)


def outcome(fn):
    """Result or the type of the exception raised, for comparing paths."""
    try:
        return fn(), None
    except (DegreeError, ZeroDivisionError, ValueError, TypeError) as exc:
        return None, type(exc)


def assert_same(new, ref):
    """Structural equality, one canonical coefficient form, repr, hash."""
    assert isinstance(new, Polynomial) and isinstance(ref, RefPolynomial)
    assert new.terms == ref.terms
    for c in new.terms.values():
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)
    assert repr(new) == repr(ref)
    assert hash(new) == hash(ref)
    assert new.degree() == ref.degree()


def assert_same_outcome(new_fn, ref_fn):
    new, new_exc = outcome(new_fn)
    ref, ref_exc = outcome(ref_fn)
    assert new_exc == ref_exc
    if ref_exc is None:
        assert_same(new, ref)


@pytest.mark.parametrize("seed", range(8))
def test_arithmetic_matches_the_fraction_only_class(seed):
    rng = random.Random(seed)
    for _ in range(60):
        a, ra = random_pair(rng)
        b, rb = random_pair(rng)
        assert_same(a, ra)
        assert_same(a + b, ra + rb)
        assert_same(a - b, ra - rb)
        assert_same(a * b, ra * rb)
        assert_same(-a, -ra)
        assert_same(a - a, ra - ra)  # cancels to zero
        # integral sums of fractional coefficients collapse to ints
        half = Fraction(1, 2)
        assert_same(half * a + half * a, half * ra + half * ra)
        assert_same((a + b) - b, (ra + rb) - rb)
        for k in (rng.randint(-6, 6), Fraction(rng.randint(-6, 6), 3)):
            assert_same(a + k, ra + k)
            assert_same(k - a, k - ra)
            assert_same(k * a, k * ra)
        k = rng.randint(0, 3)
        assert_same_outcome(lambda: a ** k, lambda: ra ** k)
        assert (a == b) == (ra == rb)
        assert (a == a + 0) and (a * 1 == a)
        c = Polynomial(b.terms)
        assert a + b - a == c and hash(a + b - a) == hash(c)


@pytest.mark.parametrize("seed", range(8))
def test_queries_match_the_fraction_only_class(seed):
    rng = random.Random(100 + seed)
    f7 = Field(7)
    for _ in range(60):
        a, ra = random_pair(rng)
        for m in list(ra.terms) + [(), (("x", 1),), {"y": 1, "z": 0}]:
            got = a.coefficient_of(m)
            assert got == ra.coefficient_of(m)
            assert type(got) is Fraction
        pt = {n: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for n in NAMES}
        assert a.evaluate(pt) == ra.evaluate(pt)
        assert type(a.evaluate(pt)) is type(ra.evaluate(pt))
        pt7 = {n: f7.element(rng.randrange(7)) for n in NAMES}
        assert a.evaluate(pt7, field=f7) == ra.evaluate(pt7, field=f7)
        bad = Fraction(1, 7) * a
        rbad = Fraction(1, 7) * ra
        assert outcome(lambda: bad.evaluate(pt7, field=f7))[1] == \
            outcome(lambda: rbad.evaluate(pt7, field=f7))[1]


def random_bindings(rng, max_exp=2):
    """Bindings for a random subset of NAMES, as Polynomials, ints and
    Fractions (zero among them); names left out stay unbound."""
    new, ref = {}, {}
    for n in rng.sample(NAMES, rng.randint(0, 3)):
        kind = rng.randrange(4)
        if kind == 0:
            new[n] = ref[n] = rng.randint(-2, 2)
        elif kind == 1:
            new[n] = ref[n] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        else:
            terms = random_terms(rng, max_exp=max_exp, max_terms=3)
            new[n], ref[n] = Polynomial(terms), RefPolynomial(terms)
    return new, ref


@pytest.mark.parametrize("seed", range(8))
def test_substitute_matches_the_fraction_only_class(seed):
    rng = random.Random(200 + seed)
    for _ in range(60):
        a, ra = random_pair(rng, max_exp=3, max_terms=5)
        binds, rbinds = random_bindings(rng)
        assert_same_outcome(lambda: a.substitute(binds),
                            lambda: ra.substitute(rbinds))
    with pytest.raises(TypeError):
        Polynomial.var("x").substitute({"x": "nope"})


@pytest.mark.parametrize("seed", range(8))
def test_degree_guard_matches_the_fraction_only_class(seed):
    # high exponents and high-degree bindings put many cases on either side
    # of MAX_DEGREE, including zero factors ahead of or behind them
    rng = random.Random(300 + seed)
    raised = 0
    for _ in range(60):
        a, ra = random_pair(rng, max_exp=7, max_terms=3)
        b, rb = random_pair(rng, max_exp=7, max_terms=3)
        raised += outcome(lambda: ra * rb)[1] is DegreeError
        assert_same_outcome(lambda: a * b, lambda: ra * rb)
        k = rng.randint(0, 5)
        assert_same_outcome(lambda: a ** k, lambda: ra ** k)
        binds, rbinds = random_bindings(rng, max_exp=4)
        assert_same_outcome(lambda: a.substitute(binds),
                            lambda: ra.substitute(rbinds))
    assert raised
