"""Declared strata rules: the ratio labels of a vector and the constraint
set behind a label, on plain values or field elements. Numpy-free, so the
axiom checks, walks and key exchanges over Q and over primes past
SPACE_CAP load no array code."""

import itertools
from fractions import Fraction

from .field import FieldElement

SPACE_CAP = 1 << 24  # p**n above this refuses to enumerate

INFINITY = "inf"
EXCEPTIONAL = "exceptional"

RATIO_RULE_3D = {"kind": "ratio", "coords": (1, 2)}
RATIO_RULE_4D = {"kind": "ratio-pair", "coords": (1, 2, 3)}


class RatioPoint:
    """A point of the projective line: a field value or infinity."""

    __slots__ = ("value",)

    def __init__(self, value=None):
        self.value = value  # None means infinity

    @property
    def is_infinite(self):
        return self.value is None

    def __eq__(self, other):
        return isinstance(other, RatioPoint) and self.value == other.value

    def __hash__(self):
        return hash(("RatioPoint", self.value))

    def __str__(self):
        return INFINITY if self.value is None else str(self.value)

    def __repr__(self):
        return f"RatioPoint({self})"


class RatioPair:
    __slots__ = ("first", "second")

    def __init__(self, first, second):
        self.first = first
        self.second = second

    def __eq__(self, other):
        return (isinstance(other, RatioPair)
                and self.first == other.first and self.second == other.second)

    def __hash__(self):
        return hash(("RatioPair", self.first, self.second))

    def __str__(self):
        return f"({self.first},{self.second})"

    def __repr__(self):
        return f"RatioPair{self}"


def _as_value(x):
    return x.value if isinstance(x, FieldElement) else x


def _ratio(x, y, field):
    """x/y of plain values as a canonical residue or a Fraction."""
    if field is not None and field.is_prime_field:
        return x * pow(y, -1, field.p) % field.p
    return Fraction(x) / Fraction(y)


def ratio_stratum_of(v, rule, field=None):
    """Canonical stratum label of a nonzero vector under a declarative rule.

    For the single-ratio rule on coords (c1, c2): label alpha with
    v[c1] = alpha v[c2], infinity when v[c2] = 0. For the ratio-pair rule on
    (c1, c2, c3): (alpha', alpha'') with v[c1] = alpha' v[c2] and
    v[c2] = alpha'' v[c3]; when a denominator vanishes the slot goes to
    infinity unless the numerator also vanishes, in which case the slot is 0
    (the label then still satisfies the defining proportionality).
    """
    vals = [_as_value(x) for x in v]
    if field is not None and field.is_prime_field:
        vals = [x % field.p for x in vals]  # plain ints may be unreduced
    if all(x == 0 for x in vals):
        raise ValueError("zero vector carries no stratum label")
    coords = rule["coords"]
    if rule["kind"] == "ratio":
        x, y = vals[coords[0]], vals[coords[1]]
        if y == 0:
            return RatioPoint(None)
        return RatioPoint(_ratio(x, y, field))
    if rule["kind"] == "ratio-pair":
        v1, v2, v3 = (vals[c] for c in coords)
        second = RatioPoint(_ratio(v2, v3, field) if v3 != 0 else None)
        if v2 != 0:
            first = RatioPoint(_ratio(v1, v2, field))
        elif v1 != 0 or v3 == 0:
            first = RatioPoint(None)
        else:
            first = second  # 0, as second = v2 / v3 with v2 = 0
        return RatioPair(first, second)
    raise ValueError(f"unknown strata rule {rule!r}")


def directions_proportional(d, e, p=None):
    """Do the coordinate sequences d and e span one line (all pairwise
    cross products vanish)? Field elements vanish in their field; plain
    residues pass their modulus p, since residues that differ in Z can
    still be proportional mod p. Plain rationals compare exactly."""
    for i, j in itertools.combinations(range(len(d)), 2):
        x = d[i] * e[j] - d[j] * e[i]
        if x % p if p else x:
            return False
    return True


def tails_proportional(v, w, rule):
    """Ground truth for co-stratality: the rule coordinates of v and w are
    proportional. Equivalent to equal canonical labels except inside the
    lumped (inf, 0) ratio-pair label, which this predicate splits
    correctly."""
    coords = rule["coords"]
    return directions_proportional([v[c] for c in coords],
                                   [w[c] for c in coords])


def label_index_to_str(idx, p, rule):
    if rule["kind"] == "ratio":
        return INFINITY if idx == p else str(int(idx))
    first, second = divmod(int(idx), p + 1)
    f = INFINITY if first == p else str(first)
    s = INFINITY if second == p else str(second)
    return f"({f},{s})"


def rule_label(v, rule, p):
    """label_index_to_str of strata.label_indices' code for one nonzero
    vector over F_p (residues, plain ints or FieldElements): the label of
    ratio_stratum_of, one pow(y, -1, p) per ratio and no RatioPoints."""
    x, y, *z = (_as_value(v[c]) % p for c in rule["coords"])
    ratio = lambda a, b: str(a * pow(b, -1, p) % p) if b else INFINITY
    if not z:
        return ratio(x, y)
    # a ratio pair's first slot is 0, not inf, on (0, 0, nonzero)
    first = ratio(x, y) if x or y or not z[0] else "0"
    return f"({first},{ratio(y, z[0])})"


def constraint_for_label(rule, label, p):
    """Membership predicate for the constraint set behind a canonical label
    (the paper-style set, which also contains the degenerate vectors whose
    relevant coordinates all vanish)."""
    coords = rule["coords"]
    if rule["kind"] == "ratio":
        c1, c2 = coords

        def check(v):
            x, y = v[c1] % p, v[c2] % p
            if label.is_infinite:
                return y == 0
            return x == int(label.value) * y % p

        return check
    c1, c2, c3 = coords
    first, second = label.first, label.second

    def check(v):
        v1, v2, v3 = v[c1] % p, v[c2] % p, v[c3] % p
        if second.is_infinite:
            ok2 = v3 == 0
        else:
            ok2 = v2 == int(second.value) * v3 % p
        if first.is_infinite:
            ok1 = v2 == 0
        else:
            ok1 = v1 == int(first.value) * v2 % p
        return ok1 and ok2

    return check
