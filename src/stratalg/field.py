"""Exact scalar arithmetic over the rationals and over prime fields F_p.

Every value is exact: Fraction for the rationals, canonical residue in
[0, p) for F_p. No floats anywhere.
"""

from fractions import Fraction

MAX_PRIME = 1 << 61  # residue products must fit double-width intermediates


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin with the prime bases 2..37: exact for
    every n < 3.18 * 10**23 (Sorenson & Webster, 2015), far above
    MAX_PRIME; beyond that a strong probable-prime test."""
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """The rationals (p is None) or F_p for prime p."""

    def __init__(self, p=None):
        if p is not None:
            if isinstance(p, float):
                raise TypeError(f"modulus {p!r} is a float")
            p = int(p)
            if p >= MAX_PRIME:
                raise ValueError(f"modulus {p} exceeds 2**61 cap")
            if not is_prime(p):
                raise ValueError(f"modulus {p} is not prime")
        self.p = p

    @property
    def is_prime_field(self):
        return self.p is not None

    def element(self, value):
        """Coerce an int, Fraction, or FieldElement into this field."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise ValueError(f"element of {value.field} used in {self}")
            return value
        if isinstance(value, float):
            raise TypeError(f"float {value!r} is not an exact scalar")
        if self.p is None:
            return FieldElement(self, Fraction(value))
        if isinstance(value, Fraction):
            num = value.numerator % self.p
            den = value.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(
                    f"denominator of {value} vanishes mod {self.p}")
            return FieldElement(self, num * pow(den, -1, self.p) % self.p)
        return FieldElement(self, int(value) % self.p)

    def from_string(self, s):
        """Parse an exact scalar string: "12", "-7", or "3/2". No floats."""
        s = s.strip()
        return self.element(Fraction(s))

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def sample_value(self, rng, bound=50):
        """Uniform residue for F_p; numerator in [-bound, bound] and
        denominator in [1, bound] for the rationals. A plain value: an int
        in [0, p) or a Fraction."""
        if self.p is not None:
            return rng.randrange(self.p)
        return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))

    def sample(self, rng, bound=50):
        """sample_value as a FieldElement."""
        return FieldElement(self, self.sample_value(rng, bound))

    def sample_nonzero(self, rng, bound=50):
        while True:
            x = self.sample(rng, bound)
            if x:
                return x

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Q" if self.p is None else f"F_{self.p}"

    def to_json(self):
        if self.p is None:
            return {"kind": "Q"}
        return {"kind": "Fp", "p": self.p}

    @staticmethod
    def from_json(obj):
        if obj.get("kind") == "Q":
            return Field()
        if obj.get("kind") == "Fp":
            # int("7") or int(True) would make a field of a string or a bool
            if type(obj["p"]) is not int:
                raise TypeError(f"modulus {obj['p']!r} is not an int")
            return Field(obj["p"])
        raise ValueError(f"unknown field spec {obj!r}")


QQ = Field()


class FieldElement:
    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError(f"mixed fields {self.field} and {other.field}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.field.p is None:
            return FieldElement(self.field, self.value + other.value)
        return FieldElement(self.field, (self.value + other.value) % self.field.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.field.p is None:
            return FieldElement(self.field, self.value - other.value)
        return FieldElement(self.field, (self.value - other.value) % self.field.p)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.field.p is None:
            return FieldElement(self.field, self.value * other.value)
        return FieldElement(self.field, (self.value * other.value) % self.field.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        if self.field.p is None:
            return FieldElement(self.field, -self.value)
        return FieldElement(self.field, (-self.value) % self.field.p)

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            return self.inverse() ** (-k)
        if self.field.p is None:
            return FieldElement(self.field, self.value ** k)
        return FieldElement(self.field, pow(self.value, k, self.field.p))

    def inverse(self):
        if not self:
            raise ZeroDivisionError("division by zero")
        if self.field.p is None:
            return FieldElement(self.field, 1 / self.value)
        return FieldElement(self.field, pow(self.value, -1, self.field.p))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.element(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self):
        return hash((self.field, self.value))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return str(self.value)


def format_scalar(x):
    """Exact string form used in JSON: "12", "-7", "3/2"."""
    if isinstance(x, FieldElement):
        x = x.value
    return str(x)


def _vec_json(v):
    return [format_scalar(x) for x in v]


def _elements(field, values):
    return tuple([FieldElement(field, x) for x in values])
