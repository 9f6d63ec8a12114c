"""Strata over F_p^n and Q^n: declarative ratio labels, empirical discovery
by commutant clustering, and closure checks. Over F_p a partition holds one
int32 label code per lex index; the numpy kernels label in bulk."""

import itertools
from collections import namedtuple
from functools import cached_property

import numpy as np

from . import _kernels
from ._kernels import inverse_table
# multiply is unused here; perfbench's tracer tests check its binding
from .algebra import multiply, multiply_values, is_zero_vector, \
    _as_operation, _subexpression_values
# the declared-rule helpers live in the numpy-free rules module and stay
# importable from here as the same objects
from .rules import SPACE_CAP, INFINITY, EXCEPTIONAL, RATIO_RULE_3D, \
    RATIO_RULE_4D, RatioPoint, RatioPair, _as_value, _ratio, \
    ratio_stratum_of, directions_proportional, tails_proportional, \
    label_index_to_str, constraint_for_label

LABEL_BLOCK = 1 << 16  # vectors per space_labels block: bounds the digit rows

# without full=True (the CLI's --full), to_json lists the members of a
# stratum only up to this size and gives just the size of a larger one, so
# a report does not grow with the big strata that hold most of the space
INLINE_MEMBERS = 10 ** 4


def enumerate_space(p, n):
    """All p**n - 1 nonzero residue vectors, lexicographic."""
    if p ** n > SPACE_CAP:
        raise ValueError(f"{p}**{n} exceeds enumeration cap 2**24")
    for v in itertools.product(range(p), repeat=n):
        if any(v):
            yield v


def space_matrix(p, n):
    """enumerate_space as an (p**n - 1, n) int64 matrix."""
    if p ** n > SPACE_CAP:
        raise ValueError(f"{p}**{n} exceeds enumeration cap 2**24")
    return _kernels.lex_digits(np.arange(1, p ** n), p, n)


def to_dense_arrays(op, p):
    """Dense int64 (T, La, Lb) reduced mod p for the kernels: the blocks
    [:n, :n], [:n, n] and [n, :n] of op.plain's rows as one (n+1, n+1, n)
    array, each coefficient divided by op.plain.den."""
    op = _as_operation(op)
    if op.plain is None:
        raise ValueError("dense arrays need an operation over one field")
    _, den, rows = op.plain
    if den % p == 0:
        raise ZeroDivisionError(f"denominator {den} vanishes mod {p}")
    inv, n = pow(den, -1, p), op.n
    T = np.zeros((n + 1, n + 1, n), dtype=np.int64)
    for k, row in enumerate(rows):
        for i, j, c in row:
            T[i, j, k] = c * inv % p
    return T[:n, :n], T[:n, n], T[n, :n]


def label_indices(V, p, rule, inv=None):
    """Numeric stratum label per row of V. Single ratio: index in [0, p],
    p meaning infinity. Ratio pair: first*(p+1) + second with the same
    convention per slot. inv is inverse_table(p), built when not given."""
    inv = inverse_table(p) if inv is None else inv
    coords = rule["coords"]
    if rule["kind"] == "ratio":
        x, y = V[:, coords[0]], V[:, coords[1]]
        return np.where(y != 0, (x * inv[y]) % p, p)
    v1, v2, v3 = V[:, coords[0]], V[:, coords[1]], V[:, coords[2]]
    second = np.where(v3 != 0, (v2 * inv[v3]) % p, p)
    first = np.where(v2 != 0, (v1 * inv[v2]) % p,
                     np.where((v3 != 0) & (v1 == 0), 0, p))
    return first * (p + 1) + second


def space_labels(p, n, rule):
    """label_indices of every vector by lex index as int32, -1 at zero."""
    if p ** n > SPACE_CAP:
        raise ValueError(f"{p}**{n} exceeds enumeration cap 2**24")
    inv = inverse_table(p)
    out = np.empty(p ** n, dtype=np.int32)
    out[0] = -1
    for lo in range(1, p ** n, LABEL_BLOCK):
        idx = np.arange(lo, min(lo + LABEL_BLOCK, p ** n))
        out[lo:lo + LABEL_BLOCK] = label_indices(
            _kernels.lex_digits(idx, p, n), p, rule, inv)
    return out


Landings = namedtuple("Landings", "inside boundary zero outside")

ClosureReport = namedtuple(
    "ClosureReport",
    "closed commutative associative landings witnesses counts")


class StratumPartition:
    """Disjoint labeled strata plus an exceptional ledger covering
    F_p^n minus zero.

    codes[i] is the position in labels of the vector with lex index i (-1
    at the zero vector); a nonempty ledger is the last label, EXCEPTIONAL.
    The constructor keeps the p**n codes it is given, -1 first. The member
    lists strata and exceptional are built on first use, in lex order."""

    def __init__(self, p, n, codes, labels, provenance):
        if len(codes) != p ** n or codes[0] != -1:
            raise ValueError(f"F_{p}^{n} needs {p}**{n} codes, -1 first")
        self.p, self.n = p, n
        self.codes = np.asarray(codes, dtype=np.int32)
        self.labels = labels
        self.provenance = provenance
        self._k = len(labels) - (labels[-1:] == [EXCEPTIONAL])  # strata

    def _grouped(self, as_members):
        """Per label, its members in lex order (the zero vector, code -1,
        is dropped); as_members turns the (p**n, n) digit rows of all
        vectors, sorted by label, into a list."""
        order = np.argsort(self.codes, kind="stable")
        bounds = np.cumsum(np.bincount(self.codes + 1,
                                       minlength=len(self.labels) + 1))
        members = as_members(_kernels.lex_digits(order, self.p, self.n))
        return [members[lo:hi]
                for lo, hi in zip(bounds.tolist(), bounds[1:].tolist())]

    @cached_property
    def _groups(self):
        return self._grouped(lambda rows: list(zip(*rows.T.tolist())))

    @property
    def strata(self):
        """(label, member tuples) per stratum."""
        return list(zip(self.labels[:self._k], self._groups))

    @property
    def exceptional(self):
        return self._groups[-1] if self._k < len(self.labels) else []

    def label_of(self, v):
        idx = 0
        for x in v:
            idx = idx * self.p + int(_as_value(x)) % self.p
        code = self.codes[idx] if len(v) == self.n else -1
        return self.labels[code] if code >= 0 else None

    def sizes(self):
        # per block: bincount casts its input to int64
        counts = sum(np.bincount(self.codes[lo:lo + LABEL_BLOCK],
                                 minlength=len(self.labels))
                     for lo in range(1, len(self.codes), LABEL_BLOCK))
        return dict(zip(self.labels[:self._k], counts.tolist()))

    def total(self):
        """Number of stratum members, excluding the exceptional ledger:
        for every partition, total() + len(exceptional) == p**n - 1."""
        return sum(self.sizes().values())

    def to_json(self, full=False):
        groups = self._grouped(np.ndarray.tolist)
        strata = []
        for label, members in zip(self.labels[:self._k], groups):
            entry = {"label": label, "size": len(members)}
            if full or len(members) <= INLINE_MEMBERS:
                entry["members"] = members
            strata.append(entry)
        exceptional = groups[-1] if self._k < len(self.labels) else []
        return {"p": self.p, "n": self.n, "provenance": self.provenance,
                "strata": strata, "exceptional": exceptional}


def ratio_partition(model, p=None):
    """Enumerated partition of F_p^n by the model's declarative rule."""
    p = p or model.field.p
    if p is None:
        raise ValueError("ratio_partition needs a prime field")
    rule = model.strata_rule
    if rule is None:
        raise ValueError(f"model {model.name} declares no strata rule")
    idx = space_labels(p, model.dimension, rule)
    code = np.zeros(int(idx.max()) + 1, dtype=np.int32)
    code[idx[1:]] = 1  # label indices are small: no sort
    present = np.flatnonzero(code)
    code[present] = np.arange(len(present))
    for lo in range(1, len(idx), LABEL_BLOCK):  # in place: take buffers out
        np.take(code, idx[lo:lo + LABEL_BLOCK], out=idx[lo:lo + LABEL_BLOCK])
    labels = [label_index_to_str(i, p, rule) for i in present.tolist()]
    return StratumPartition(p, model.dimension, idx, labels, "declared-ratio")


def discover_strata(op, p):
    """Cluster nonzero vectors by commutant equality.

    commutant(v) = {w != 0 : v*w = w*v}; equal commutants share a stratum.
    Each commutant is keyed exactly by the reduced row echelon form of the
    affine system it solves (see _kernels.commute_rows). Central vectors
    (zero key: the commutant is the whole space) go to the exceptional
    ledger unless everything is central. Strata are named S0, S1, ... in
    the lex order of their first members.

    Equal keys mean equal commutants for every p, the zero vector included:
    two affine solution sets that differ only in 0 would have p**a and
    p**b + 1 points, which forces p = 2 and the sets {u} and {0, u}, both
    owned by the one vector u. The zero key differs from "commutes with
    every nonzero w" only on F_2^1, whose single vector forms one stratum
    under either rule.
    """
    op = _as_operation(op)
    n = op.n
    T, La, Lb = to_dense_arrays(op, p)
    V = space_matrix(p, n)
    keys = _kernels.commute_rows(T, La, Lb, V, p)
    # group equal keys by a stable row sort (np.unique(axis=0) is ~25x
    # slower at p = 101); residues are nonnegative: the zero key sorts first
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    starts = np.concatenate([[True], (ranked[1:] != ranked[:-1]).any(axis=1)])
    group = np.empty(len(keys), dtype=np.int64)
    group[order] = np.cumsum(starts) - 1
    first = order[starts]  # the least lex index of each group
    central = int(not ranked[0].any() and len(first) > 1)
    rank = np.full(len(first), len(first) - central)  # the ledger goes last
    rank[np.argsort(first[central:]) + central] = range(len(first) - central)
    labels = [f"S{i}" for i in range(len(first) - central)]
    return StratumPartition(p, n, np.concatenate([[-1], rank[group]],
                                                 dtype=np.int32),
                            labels + [EXCEPTIONAL] * central, "discovered")


def partitions_agree(discovered, model):
    """Do the discovered strata and the declarative ratio labels induce the
    same equivalence on the non-exceptional vectors? Returns (bool, detail).
    Strata are checked in order; the first that spans several ratio labels
    or shares its label with an earlier stratum is reported.
    """
    p = discovered.p
    rule = model.strata_rule
    k = discovered._k  # strata, not the ledger
    span = (p + 1) ** 2  # above every ratio label index
    code = discovered.codes[1:].astype(np.int64)
    pairs = code * span + space_labels(p, discovered.n, rule)[1:]
    # distinct (stratum, ratio label) pairs, sorted: strata before `clean`
    # have one ratio label each
    s, r = np.divmod(np.unique(pairs[code < k]), span)
    spans = np.flatnonzero(np.bincount(s, minlength=k) > 1)
    clean = spans[0] if len(spans) else k
    labels = discovered.labels
    seen = {}
    for j, ratio in enumerate(r[:clean].tolist()):
        i = seen.setdefault(ratio, j)
        if i != j:
            return False, (f"ratio label {label_index_to_str(ratio, p, rule)}"
                           f" split across {labels[i]} and {labels[j]}")
    if clean < k:
        return False, (f"discovered stratum {labels[clean]} spans ratio "
                       f"labels {r[s == clean].tolist()}")
    return True, f"{k} strata matched one-to-one"


def verify_closure(op, members, field, constraint=None, rng=None,
                   triple_samples=1000):
    """Closure, commutativity, and associativity verdicts for a member set.

    Pairs are exhaustive while |members|^2 <= 10**6, triples while
    |members|^3 <= 10**7, otherwise seeded sampling with recorded counts.
    closed means no product lands strictly outside: products inside the set
    count as inside; products satisfying the constraint without being
    members (boundary) and exact zeros are tallied separately and do not
    break closure. Witnesses are tuples of values (residues or Fractions),
    keyed in the order commutative, closed, associative.
    """
    members = [tuple(int(_as_value(x)) % field.p if field.is_prime_field
                     else _as_value(x) for x in v) for v in members]
    if not members:
        raise ValueError("empty member set")
    M, product, is_member = _closure_arithmetic(op, members, field)
    m, n = M.shape
    if m * m <= 10 ** 6:
        pair_mode = "exhaustive"
        ia, ib = np.divmod(np.arange(m * m), m)
        AB = product(M[ia], M[ib])
        BA = AB.reshape(m, m, n).transpose(1, 0, 2).reshape(m * m, n)
    else:
        pair_mode = "randomized"
        ia = np.array([rng.randrange(m) for _ in range(10 ** 5)])
        ib = np.array([rng.randrange(m) for _ in range(10 ** 5)])
        AB, BA = product(M[ia], M[ib]), product(M[ib], M[ia])
    inside = is_member(AB)
    zero = ~inside & ~(AB != 0).any(axis=1)
    rest = np.flatnonzero(~(inside | zero))
    outside = [r for r in rest if constraint is None
               or not constraint(tuple(AB[r].tolist()))]
    witnesses = {}
    r = _first_mismatch(AB, BA)
    if r is not None:
        witnesses["commutative"] = (members[ia[r]], members[ib[r]])
    if outside:
        r = outside[0]
        witnesses["closed"] = (members[ia[r]], members[ib[r]],
                               tuple(AB[r].tolist()))
    bad = None
    if m ** 3 <= 10 ** 7:  # so m <= 215 and AB is the whole pair table
        triple_mode, count = "exhaustive", m ** 3
        C = np.tile(M, (m, 1))
        for i in range(m):  # lexicographic (i, j, k), m**2 rows at a time
            r = _first_mismatch(
                product(AB[i * m:(i + 1) * m].repeat(m, axis=0), C),
                product(np.broadcast_to(M[i], AB.shape), AB))
            if r is not None:
                bad = (i, *divmod(r, m))
                break
    else:
        triple_mode, count = "randomized", triple_samples
        # a triple-by-triple loop stops drawing at the first failure, and
        # later checks share rng, so the stream is rewound to just after it
        state = rng.getstate()
        i, j, k = np.array([rng.randrange(m) for _ in range(3 * count)],
                           dtype=np.int64).reshape(count, 3).T
        f = _first_mismatch(product(product(M[i], M[j]), M[k]),
                            product(M[i], product(M[j], M[k])))
        if f is not None:
            bad = i[f], j[f], k[f]
            rng.setstate(state)
            for _ in range(3 * (f + 1)):
                rng.randrange(m)
    if bad is not None:
        witnesses["associative"] = tuple(members[x] for x in bad)
    landings = Landings(int(inside.sum()), len(rest) - len(outside),
                        int(zero.sum()), len(outside))
    counts = {"pairs": len(AB), "pair_mode": pair_mode,
              "triples": count, "triple_mode": triple_mode}
    return ClosureReport("closed" not in witnesses,
                         "commutative" not in witnesses,
                         "associative" not in witnesses,
                         landings, witnesses, counts)


def _closure_arithmetic(op, members, field):
    """(member matrix, row-paired product, membership mask of product rows)
    for verify_closure: the numpy kernel and lex indices over F_p, scalar
    multiply_values and a tuple set over Q."""
    if field.is_prime_field:
        p = field.p
        T, La, Lb = to_dense_arrays(op, p)
        M = np.array(members, dtype=np.int64)
        keys = _kernels.lex_indices(M, p)
        return (M, lambda A, B: _kernels.bulk_multiply(T, La, Lb, A, B, p),
                lambda P: np.isin(_kernels.lex_indices(P, p), keys))
    member_set = set(members)

    def product(A, B):
        rows = [multiply_values(op, a, b)
                for a, b in zip(A.tolist(), B.tolist())]
        return np.array(rows, dtype=object).reshape(-1, op.n)

    return (np.array(members, dtype=object), product,
            lambda P: np.array([tuple(r) in member_set for r in P.tolist()],
                               dtype=bool))


def _first_mismatch(X, Y):
    bad = np.flatnonzero((X != Y).any(axis=1))
    return int(bad[0]) if len(bad) else None


Stability = namedtuple("Stability", "stable outcome final_label labels")

DepthReport = namedtuple("DepthReport", "count labels flags")


def is_stratum_stable(op, tree, leaves, labeler):
    """Does the final value stay inside the union of the operand strata?
    Zero or exceptional landings are distinct outcomes, not booleans."""
    leaf_labels = [labeler(v) for v in leaves]
    vals = _subexpression_values(op, tree, leaves)
    final = vals[-1] if vals else leaves[0]
    if is_zero_vector(final):
        return Stability(None, "zero", None, leaf_labels)
    flabel = labeler(final)
    if flabel in (None, "exceptional"):
        return Stability(None, "exceptional", flabel, leaf_labels)
    stable = flabel in leaf_labels
    return Stability(stable, "stable" if stable else "unstable",
                     flabel, leaf_labels)


def stratified_depth(op, tree, leaves, labeler):
    """Count of distinct strata traversed by leaves and subexpressions."""
    labels = [labeler(v) for v in leaves]
    flags = []
    for v in _subexpression_values(op, tree, leaves):
        if is_zero_vector(v):
            flags.append("zero")
            continue
        lab = labeler(v)
        if lab in (None, "exceptional"):
            flags.append("exceptional")
            continue
        labels.append(lab)
    return DepthReport(len(set(labels)), labels, flags)
