"""Sparse multivariate polynomials over the rationals.

A monomial is a tuple of (name, exponent) pairs sorted by name, exponents
positive; the empty tuple is the constant monomial. Terms map monomials to
nonzero coefficients, each an int when integral and a Fraction otherwise,
so structural equality is still mathematical equality.
"""

from fractions import Fraction
from operator import itemgetter


class DegreeError(Exception):
    """Raised when an expansion exceeds the degree guard."""


MAX_DEGREE = 12  # well above anything the identity suite produces (< 6)


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for name, e in m2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _mono_degree(m, _exponent=itemgetter(1)):
    return sum(map(_exponent, m))


def _mul_terms(t1, t2):
    """Product of two term dicts, unreduced: may hold zeros and integral
    Fractions until _clean."""
    out = {}
    get = out.get
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            mono = _mono_mul(m1, m2)
            out[mono] = get(mono, 0) + c1 * c2
    return out


def _clean(terms):
    """Drop zero coefficients and turn integral Fractions into ints."""
    return {m: c if type(c) is int or c.denominator != 1 else c.numerator
            for m, c in terms.items() if c}


class Polynomial:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        terms = terms or {}
        if any(isinstance(c, float) for c in terms.values()):
            raise TypeError("float coefficients are not exact")
        self.terms = _clean({m: Fraction(c) for m, c in terms.items()})

    @staticmethod
    def _of(terms):
        p = Polynomial.__new__(Polynomial)
        p.terms = terms
        return p

    @staticmethod
    def const(value):
        return Polynomial({(): value})

    @staticmethod
    def var(name):
        return Polynomial._of({((name, 1),): 1})

    @staticmethod
    def _lift(other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.const(other)
        return None

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(map(_mono_degree, self.terms))

    def variables(self):
        names = set()
        for mono in self.terms:
            for name, _ in mono:
                names.add(name)
        return names

    def __add__(self, other):
        other = Polynomial._lift(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, 0) + coeff
        return Polynomial._of(_clean(out))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = Polynomial._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = Polynomial._lift(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = Polynomial._lift(other)
        if other is None:
            return NotImplemented
        # a product of nonzero polynomials has exactly the sum of degrees
        if self.terms and other.terms:
            degree = self.degree() + other.degree()
            if degree > MAX_DEGREE:
                raise DegreeError(
                    f"expansion reached degree {degree} > {MAX_DEGREE}")
        return Polynomial._of(_clean(_mul_terms(self.terms, other.terms)))

    __rmul__ = __mul__

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial.const(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        other = Polynomial._lift(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def substitute(self, bindings):
        """Simultaneous substitution name -> Polynomial/Fraction/int,
        fully expanded. Each (name, exponent) power is computed once per
        call, and every term is summed into one dict."""
        lifted = {}
        for name, val in bindings.items():
            v = Polynomial._lift(val)
            if v is None:
                raise TypeError(f"cannot substitute {val!r} for {name}")
            lifted[name] = v
        powers, out = {}, {}
        for mono, coeff in self.terms.items():
            term = {(): coeff}
            degree = 0
            for name, e in mono:
                if (name, e) not in powers:
                    f = lifted.get(name, Polynomial.var(name)) ** e
                    powers[name, e] = f.terms, f.degree()
                factor, d = powers[name, e]
                if term:  # a zero factor ends the degree count
                    degree += d
                    if degree > MAX_DEGREE:
                        raise DegreeError(
                            f"expansion reached degree {degree} > {MAX_DEGREE}")
                    term = _mul_terms(term, factor)
            for m, c in term.items():
                out[m] = out.get(m, 0) + c
        return Polynomial._of(_clean(out))

    def coefficient_of(self, monomial):
        """Coefficient, as a Fraction, of {name: exp} or ((name, exp), ...)."""
        if isinstance(monomial, dict):
            monomial = tuple(sorted((n, e) for n, e in monomial.items() if e))
        return Fraction(self.terms.get(tuple(monomial), 0))

    def evaluate(self, assignment, field=None):
        """Evaluate with name -> value. Values may be Fractions, ints, or
        FieldElements; with a field given, coefficients are coerced into it
        (rejecting denominators divisible by p)."""
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
        for mono in sorted(self.terms, key=lambda m: (-_mono_degree(m), m)):
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


def variables(*names):
    return tuple(Polynomial.var(n) for n in names)
