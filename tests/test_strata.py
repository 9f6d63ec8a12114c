"""Stratum labels, enumeration, discovery, closure, stability."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from stratalg import (
    AffineOperation,
    BracketTree,
    Field,
    ModelSpec,
    StructureTensor,
    builtin_model,
    discover_strata,
    enumerate_space,
    is_stratum_stable,
    multiply,
    partitions_agree,
    ratio_partition,
    ratio_stratum_of,
    stratified_depth,
    tails_proportional,
    vector,
    verify_closure,
)
from stratalg import algebra, axioms, strata
from stratalg.algebra import RATIO_RULE_3D, RATIO_RULE_4D
from stratalg.rules import rule_label
from stratalg.strata import (
    INFINITY,
    ClosureReport,
    Landings,
    RatioPair,
    RatioPoint,
    constraint_for_label,
    inverse_table,
    label_index_to_str,
    label_indices,
    space_matrix,
)


def test_ratio_labels_3d(f7):
    rule = RATIO_RULE_3D
    assert ratio_stratum_of((5, 6, 2), rule) == RatioPoint(Fraction(3))
    assert ratio_stratum_of((0, 4, 0), rule) == RatioPoint(None)
    assert ratio_stratum_of((1, 0, 9), rule) == RatioPoint(Fraction(0))
    lab = ratio_stratum_of(vector(f7, (0, 6, 2)), rule, field=f7)
    assert lab == RatioPoint(3)  # 6 * inverse(2) = 3 mod 7
    assert str(ratio_stratum_of((2, 3, 0), rule)) == INFINITY
    with pytest.raises(ValueError):
        ratio_stratum_of((0, 0, 0), rule)


def test_ratio_labels_4d():
    rule = RATIO_RULE_4D
    assert ratio_stratum_of((9, 6, 3, 1), rule) == RatioPair(
        RatioPoint(Fraction(2)), RatioPoint(Fraction(3)))
    # vanishing final coordinate: second slot goes to infinity
    assert ratio_stratum_of((0, 6, 3, 0), rule) == RatioPair(
        RatioPoint(Fraction(2)), RatioPoint(None))
    # middle coordinate zero with live numerator: first slot infinite
    assert ratio_stratum_of((0, 5, 0, 1), rule) == RatioPair(
        RatioPoint(None), RatioPoint(Fraction(0)))
    # both ratio numerators zero but tail alive: slots degrade to 0, not inf
    assert ratio_stratum_of((7, 0, 0, 1), rule) == RatioPair(
        RatioPoint(Fraction(0)), RatioPoint(Fraction(0)))
    assert ratio_stratum_of((7, 0, 0, 0), rule) == RatioPair(
        RatioPoint(None), RatioPoint(None))
    assert str(ratio_stratum_of((9, 6, 3, 1), rule)) == "(2,3)"


def test_tails_proportional_splits_the_lumped_corner():
    rule = RATIO_RULE_4D
    # both carry the lumped (inf, 0) label ...
    a = (1, 5, 0, 1)
    b = (1, 3, 0, 1)
    assert ratio_stratum_of(a, rule) == ratio_stratum_of(b, rule)
    # ... but their tails are not proportional
    assert not tails_proportional(a, b, rule)
    assert tails_proportional(a, (0, 10, 0, 2), rule)
    # equal canonical finite labels always imply proportional tails
    c, d = (9, 6, 3, 1), (0, 12, 6, 2)
    assert ratio_stratum_of(c, rule) == ratio_stratum_of(d, rule)
    assert tails_proportional(c, d, rule)


def test_tails_proportional_reduces_mod_p(f5):
    """(0,1,3) and (0,2,1) share label 2 over F_5: 1*1 = 3*2 mod 5."""
    rule = RATIO_RULE_3D
    v, w = vector(f5, (0, 1, 3)), vector(f5, (0, 2, 1))
    assert str(ratio_stratum_of(v, rule, f5)) == "2"
    assert ratio_stratum_of(v, rule, f5) == ratio_stratum_of(w, rule, f5)
    assert tails_proportional(v, w, rule)
    assert not tails_proportional(v, vector(f5, (0, 1, 1)), rule)
    # one implementation serves the axiom samplers too
    assert axioms.directions_proportional is strata.directions_proportional


def test_enumeration_agrees_with_space_matrix():
    for p, n in [(2, 3), (5, 3), (3, 4)]:
        listed = list(enumerate_space(p, n))
        assert len(listed) == p ** n - 1
        M = space_matrix(p, n)
        assert [tuple(int(x) for x in row) for row in M] == listed
        assert listed == sorted(listed)
    with pytest.raises(ValueError):
        space_matrix(251, 4)  # exceeds the enumeration cap


def test_inverse_table(f7):
    inv = inverse_table(7)
    assert inv[0] == 0
    for a in range(1, 7):
        assert (a * inv[a]) % 7 == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 16_777_213])
def test_inverse_table_matches_pow(p):
    # 16,777,213 is the largest prime below 2**24, the enumeration cap
    inv = inverse_table(p)
    assert inv.dtype == np.int64 and inv.shape == (p,) and inv[0] == 0
    xs = range(1, p) if p < 1000 else np.random.default_rng(p).integers(
        1, p, 2000).tolist() + [1, 2, p - 2, p - 1]
    assert [int(inv[x]) for x in xs] == [pow(x, -1, p) for x in xs]
    if p >= 1000:  # every residue, without a Python loop
        assert not ((np.arange(p, dtype=np.int64) * inv % p)[1:] - 1).any()


def test_label_indices_match_scalar_labels(f7):
    rule = RATIO_RULE_3D
    V = space_matrix(7, 3)
    idx = label_indices(V, 7, rule)
    for row, lab in zip(V, idx):
        want = ratio_stratum_of(tuple(int(x) for x in row), rule, field=f7)
        assert label_index_to_str(int(lab), 7, rule) == str(want)


def test_label_indices_match_scalar_labels_4d(f5):
    rule = RATIO_RULE_4D
    V = space_matrix(5, 4)
    idx = label_indices(V, 5, rule)
    for row, lab in zip(V, idx):
        want = ratio_stratum_of(tuple(int(x) for x in row), rule, field=f5)
        assert label_index_to_str(int(lab), 5, rule) == str(want)


# the tail rules of the built-ins, and rules whose coordinates are off the
# tail and out of order
RULES = [RATIO_RULE_3D, RATIO_RULE_4D, {"kind": "ratio", "coords": (3, 0)},
         {"kind": "ratio-pair", "coords": (2, 0, 3)}]


@pytest.mark.parametrize("rule", RULES,
                         ids=["ratio", "ratio-pair", "ratio-30", "pair-203"])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rule_label_matches_label_indices(p, rule):
    """The scalar labeler is the array labeler's label string, for every
    nonzero vector of F_p^4 given as field elements, as residues and as
    unreduced ints."""
    f = Field(p)
    rng = random.Random(f"{p}:{rule}")
    V = space_matrix(p, 4)
    codes = label_indices(V, p, rule).tolist()
    for row, code in zip(V.tolist(), codes):
        want = label_index_to_str(code, p, rule)
        assert rule_label(row, rule, p) == want
        assert rule_label(vector(f, row), rule, p) == want
        assert rule_label([x + p * rng.randint(-3, 3) for x in row],
                          rule, p) == want


def one_shot_labels(p, n, rule):
    """The whole-space labeling before it went blockwise: one digit row
    per nonzero vector, labeled in one call."""
    return label_indices(space_matrix(p, n), p, rule)


def one_shot_ratio_partition(model, p):
    """(codes, labels) of ratio_partition as built in one shot."""
    rule = model.strata_rule
    idx = one_shot_labels(p, model.dimension, rule)
    present = np.bincount(idx) > 0
    labels = [label_index_to_str(i, p, rule)
              for i in np.flatnonzero(present).tolist()]
    return (np.cumsum(present) - 1)[idx], labels


def rule_cases():
    """(p, n, rule) for p in 2, 3, 5, 7 and n in 2..4: the tail rules of
    both kinds that fit n, and every other rule of RULES that fits."""
    for p in (2, 3, 5, 7):
        for n in (2, 3, 4):
            tail = [{"kind": "ratio", "coords": (n - 2, n - 1)},
                    {"kind": "ratio-pair", "coords": (n - 3, n - 2, n - 1)}]
            for rule in tail[:n - 1] + [r for r in RULES if r not in tail]:
                if max(rule["coords"]) < n:
                    yield p, n, rule


@pytest.mark.parametrize("p,n,rule", list(rule_cases()))
def test_labels_in_blocks_match_the_one_shot_labeling(p, n, rule, monkeypatch):
    """Blocks of 5 lex indices, the last one full or ragged, give the
    one-shot labels, the partition's codes and its label list."""
    monkeypatch.setattr(strata, "LABEL_BLOCK", 5)
    labels = strata.space_labels(p, n, rule)
    assert labels.dtype == np.int32 and labels.shape == (p ** n,)
    assert labels[0] == -1
    assert labels[1:].tolist() == one_shot_labels(p, n, rule).tolist()
    f = Field(p)
    model = ModelSpec("rule", n, f, AffineOperation(StructureTensor(n, {}),
                                                    zero=f.zero()), rule)
    part = ratio_partition(model)
    codes, labels = one_shot_ratio_partition(model, p)
    assert part.codes[0] == -1
    assert part.codes[1:].tolist() == codes.tolist()
    assert part.labels == labels
    assert list(part.sizes().values()) == np.bincount(codes).tolist()


def test_rule_label_matches_ratio_stratum_of_at_a_large_prime():
    p = 1000000000039
    f = Field(p)
    rng = random.Random(0)
    for rule in RULES:
        for _ in range(300):
            v = [rng.choice((0, 1, p - 1, rng.randrange(p), -rng.randrange(p)))
                 for _ in range(4)]
            if any(x % p for x in v):
                assert rule_label(v, rule, p) == str(ratio_stratum_of(v, rule,
                                                                      f))


def test_ratio_partition_counts(f7):
    model = builtin_model("basic3", field=f7)
    part = ratio_partition(model)
    sizes = part.sizes()
    assert len(sizes) == 8  # p + 1 classes
    assert sizes[INFINITY] == 7 ** 2 - 1
    for lab in map(str, range(7)):
        assert sizes[lab] == 7 * (7 - 1)
    assert part.total() == 7 ** 3 - 1
    assert part.exceptional == []
    assert part.label_of((0, 6, 2)) == "3"
    assert part.label_of((3, 2, 0)) == INFINITY
    assert part.provenance == "declared-ratio"


def test_partition_label_of_handles_unknowns(f7):
    model = builtin_model("basic3", field=f7)
    part = ratio_partition(model)
    assert part.label_of((7, 7, 7)) is None  # reduces to the zero vector
    json_obj = part.to_json()
    assert json_obj["p"] == 7
    assert {s["label"] for s in json_obj["strata"]} == set(sizes_keys(part))


def sizes_keys(part):
    return part.sizes().keys()


def test_partition_keeps_one_code_per_vector_zero_first(monkeypatch):
    """The constructor keeps an int32 array of p**n codes as it is, -1 at
    the zero vector, and refuses any other length or first code; sizes()
    counts the codes in blocks of LABEL_BLOCK."""
    codes = np.array([-1, 0, 1, 2, 0, 1, 0, 2], dtype=np.int32)
    part = strata.StratumPartition(2, 3, codes, ["a", "b", "exceptional"],
                                   "test")
    assert part.codes is codes
    monkeypatch.setattr(strata, "LABEL_BLOCK", 3)
    assert part.sizes() == {"a": 3, "b": 2}
    assert part.exceptional == [(0, 1, 1), (1, 1, 1)]
    for bad in (codes[1:], np.append(codes, 0), np.zeros(8, np.int32)):
        with pytest.raises(ValueError, match="needs 2\\*\\*3 codes"):
            strata.StratumPartition(2, 3, bad, ["a", "b"], "test")


def test_discovery_matches_declared_ratios(f7):
    model = builtin_model("nonlinear3", params=(2, 3, 5, 1, 4, 6), field=f7)
    part = discover_strata(model, 7)
    assert part.provenance == "discovered"
    sizes = part.sizes()
    assert len(sizes) == 8
    assert sorted(sizes.values()) == sorted(
        [7 * 6] * 7 + [7 ** 2 - 1 - (7 - 1)])
    # scalings of the identity direction commute with everything
    assert len(part.exceptional) == 7 - 1
    # total() counts stratum members only; the ledger makes up the rest
    assert part.total() == 7 ** 3 - 1 - 6
    assert part.total() + len(part.exceptional) == 7 ** 3 - 1
    ok, detail = partitions_agree(part, model)
    assert ok, detail
    # strata re-exports the rule constants rather than keeping copies
    assert strata.RATIO_RULE_3D is algebra.RATIO_RULE_3D
    assert strata.RATIO_RULE_4D is algebra.RATIO_RULE_4D


def check_partition_views(part):
    """codes, labels, strata, exceptional, sizes and label_of describe one
    partition: members in lex order, each labeled by its own stratum."""
    p, n = part.p, part.n
    assert part.codes.dtype == np.int32 and part.codes.shape == (p ** n,)
    assert part.codes[0] == -1 and part.label_of((0,) * n) is None
    listed = [label for label, _ in part.strata]
    if part.exceptional:
        listed.append("exceptional")
    assert listed == part.labels
    assert part.sizes() == {l: len(m) for l, m in part.strata}
    assert part.total() + len(part.exceptional) == p ** n - 1
    groups = part.strata + [("exceptional", part.exceptional)]
    every = sorted(m for _, ms in groups for m in ms)
    assert every == list(enumerate_space(p, n))
    for label, members in groups:
        assert members == sorted(members)
        assert all(type(x) is int for m in members for x in m)
        assert all(part.label_of(m) == label for m in members)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_ratio_partition_matches_scalar_labels(p):
    f = Field(p)
    for name, params in (("basic3", None),
                         ("parametric4", (2, 3, 5, 7, 11, 13))):
        model = builtin_model(name, params=params, field=f)
        part = ratio_partition(model)
        check_partition_views(part)
        for v in enumerate_space(p, model.dimension):
            want = str(ratio_stratum_of(v, model.strata_rule, f))
            assert part.label_of(vector(f, v)) == want
            assert part.label_of([x + p for x in v]) == want


def test_ratio_partition_over_f2():
    part = ratio_partition(builtin_model("basic3", field=Field(2)))
    assert part.sizes() == {"0": 2, "1": 2, INFINITY: 3}
    assert part.strata[0] == ("0", [(0, 0, 1), (1, 0, 1)])
    assert part.label_of((3, 2, 1)) == "0"  # reduces to (1, 0, 1)
    assert part.label_of((1, 1)) is None  # wrong length


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_discovered_partition_views_agree(p):
    f = Field(p)
    for model in (builtin_model("nonlinear3", params=(2, 3, 5, 1, 4, 6),
                                field=f),
                  builtin_model("parametric4", params=(2, 3, 5, 7, 11, 13),
                                field=f)):
        part = discover_strata(model, p)
        check_partition_views(part)
        firsts = [members[0] for _, members in part.strata]
        assert firsts == sorted(firsts)
        assert [l for l, _ in part.strata] == [
            f"S{i}" for i in range(len(part.strata))]


def test_discovery_over_f2():
    """nonlinear3's parameters reduce to a commutative operation mod 2:
    one stratum, which spans every ratio label."""
    model = builtin_model("nonlinear3", params=(2, 3, 5, 1, 4, 6),
                          field=Field(2))
    part = discover_strata(model, 2)
    assert part.strata == [("S0", list(enumerate_space(2, 3)))]
    assert part.label_of((1, 0, 1)) == "S0"
    assert partitions_agree(part, model) == (
        False, "discovered stratum S0 spans ratio labels [0, 1, 2]")


def agreement_cases(f7):
    """An agreement, a stratum spanning labels and a label split across
    strata, as (discovered partition, model, frozen partitions_agree)."""
    model = builtin_model("nonlinear3", params=(2, 3, 5, 1, 4, 6), field=f7)
    one = f7.one()
    diag = StructureTensor(3, {(i, i, i): one for i in range(3)})
    rng = random.Random(5)
    generic = StructureTensor(3, {
        (i, j, k): f7.element(rng.randrange(7))
        for i in range(3) for j in range(3) for k in range(3)})
    return [
        (discover_strata(model, 7), model,
         (True, "8 strata matched one-to-one")),
        (discover_strata(AffineOperation(diag, zero=f7.zero()), 7), model,
         (False, "discovered stratum S0 spans ratio labels "
                 "[0, 1, 2, 3, 4, 5, 6, 7]")),
        (discover_strata(AffineOperation(generic, zero=f7.zero()), 7), model,
         (False, "ratio label inf split across S1 and S8")),
    ]


def test_partitions_agree_details_are_frozen(f7):
    """The detail strings, frozen from the implementation that kept
    members as tuples in a dict."""
    for part, model, want in agreement_cases(f7):
        assert partitions_agree(part, model) == want


def test_partitions_agree_labels_in_blocks(f7, monkeypatch):
    """Blocks of 5 lex indices give the same agreements and details, over
    F_2 too."""
    monkeypatch.setattr(strata, "LABEL_BLOCK", 5)
    for part, model, want in agreement_cases(f7):
        assert partitions_agree(part, model) == want
    model = builtin_model("nonlinear3", params=(2, 3, 5, 1, 4, 6),
                          field=Field(2))
    assert partitions_agree(discover_strata(model, 2), model) == (
        False, "discovered stratum S0 spans ratio labels [0, 1, 2]")


def test_discovery_of_a_commutative_operation_is_one_group(f5):
    # a*b with a diagonal tensor is commutative: every vector is central,
    # so discovery reports a single stratum and no exceptional ledger
    from stratalg import AffineOperation, ModelSpec, StructureTensor
    one = f5.one()
    diag = StructureTensor(2, {(0, 0, 0): one, (1, 1, 1): one})
    op = AffineOperation(diag, zero=f5.zero())
    part = discover_strata(op, 5)
    assert len(part.strata) == 1
    assert part.exceptional == []
    assert part.total() == 5 ** 2 - 1


def test_verify_closure_closed_stratum(f7):
    model = builtin_model("parametric3", params=(2, 3, 5, 1, 4, 6), field=f7)
    part = ratio_partition(model)
    label = RatioPoint(3)
    members = dict(part.strata)["3"]
    constraint = constraint_for_label(model.strata_rule, label, 7)
    report = verify_closure(model.operation, members, f7,
                            constraint=constraint, rng=random.Random(0))
    assert report.closed
    assert report.landings.outside == 0
    assert report.counts["pair_mode"] == "exhaustive"
    assert report.counts["pairs"] == len(members) ** 2
    assert report.landings.inside + report.landings.boundary \
        + report.landings.zero == report.counts["pairs"]


def test_verify_closure_reports_witnesses(f7):
    model = builtin_model("parametric3", params=(2, 3, 5, 1, 4, 6), field=f7)
    # a deliberately mixed set: members from two different strata
    part = ratio_partition(model)
    members = dict(part.strata)["3"][:6] + dict(part.strata)["2"][:6]
    report = verify_closure(model.operation, members, f7,
                            rng=random.Random(0))
    assert not report.closed
    a, b, prod = report.witnesses["closed"]
    got = multiply(model.operation, vector(f7, a), vector(f7, b))
    assert tuple(int(str(x)) for x in got) == prod
    if not report.commutative:
        u, w = report.witnesses["commutative"]
        uv = multiply(model.operation, vector(f7, u), vector(f7, w))
        vu = multiply(model.operation, vector(f7, w), vector(f7, u))
        assert uv != vu


def scalar_product(entries, linear_a, linear_b, n, p):
    """a*b one term at a time in Python ints (mod p) or Fractions (p None),
    independent of the numpy kernel and of FieldElement."""
    reduce = (lambda x: x % p) if p else (lambda x: x)

    def mul(a, b):
        out = [0] * n
        for (i, j, k), c in entries.items():
            out[k] += c * a[i] * b[j]
        for (i, k), c in linear_a.items():
            out[k] += c * a[i]
        for (j, k), c in linear_b.items():
            out[k] += c * b[j]
        return tuple(reduce(x) for x in out)

    return mul


def closure_reference(mul, members, constraint, rng, triple_samples):
    """The scalar closure check: one product per drawn pair and per triple,
    pairs then triples drawn from rng in that order, and the triple loop
    stops drawing at the first non-associative triple."""
    m = len(members)
    if m * m <= 10 ** 6:
        pair_mode = "exhaustive"
        pairs = list(itertools.product(range(m), repeat=2))
    else:
        pair_mode = "randomized"
        ia = [rng.randrange(m) for _ in range(10 ** 5)]
        ib = [rng.randrange(m) for _ in range(10 ** 5)]
        pairs = list(zip(ia, ib))
    member_set = set(members)
    inside = boundary = zero = outside = 0
    comm = close = assoc = None
    for i, j in pairs:
        t = mul(members[i], members[j])
        if comm is None and t != mul(members[j], members[i]):
            comm = (members[i], members[j])
        if t in member_set:
            inside += 1
        elif not any(t):
            zero += 1
        elif constraint is not None and constraint(t):
            boundary += 1
        else:
            outside += 1
            close = close or (members[i], members[j], t)
    if m ** 3 <= 10 ** 7:
        triple_mode, count = "exhaustive", m ** 3
        triples = itertools.product(range(m), repeat=3)
    else:
        triple_mode, count = "randomized", triple_samples
        triples = ((rng.randrange(m), rng.randrange(m), rng.randrange(m))
                   for _ in range(triple_samples))
    for i, j, k in triples:
        a, b, c = members[i], members[j], members[k]
        if mul(mul(a, b), c) != mul(a, mul(b, c)):
            assoc = (a, b, c)
            break
    witnesses = {k: w for k, w in (("commutative", comm), ("closed", close),
                                   ("associative", assoc)) if w}
    counts = {"pairs": len(pairs), "pair_mode": pair_mode,
              "triples": count, "triple_mode": triple_mode}
    return ClosureReport(close is None, comm is None, assoc is None,
                         Landings(inside, boundary, zero, outside),
                         witnesses, counts)


def random_closure_case(rng, p, n, kind):
    """(entries, linear_a, linear_b) of a seeded operation. "random" is
    dense and rarely commutative or associative; "diag" is the
    coordinatewise product plus (a*b)_0 += a_{n-1} b_{n-1}, commutative and
    non-associative only on triples whose middle factor has b_{n-1} != 0."""
    draw = (lambda: rng.randrange(p)) if p else \
        (lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    if kind == "random":
        entries = {key: draw() for key in itertools.product(range(n), repeat=3)
                   if rng.random() < 0.4}
        entries.setdefault((0, 0, 0), 1)
        lin = lambda: {key: draw() for key in
                       itertools.product(range(n), repeat=2)
                       if rng.random() < 0.2}
        return entries, lin(), lin()
    entries = {(i, i, i): 1 for i in range(n)}
    key = (n - 1, n - 1, 0)
    entries[key] = entries.get(key, 0) + 1
    return entries, {}, {}


def closure_members(rng, p, n, m, kind):
    """m distinct nonzero vectors; for "diag" about an eighth have a nonzero
    last coordinate, so that non-associative triples are rare."""
    if p is None:
        pool = [v for v in itertools.product(range(-2, 3), repeat=n) if any(v)]
        return [tuple(Fraction(x, 2) for x in v) for v in rng.sample(pool, m)]
    if p ** n <= 10 ** 5:
        pool = [v for v in itertools.product(range(p), repeat=n) if any(v)]
        if kind == "diag":
            good = [v for v in pool if not v[-1]]
            bad = [v for v in pool if v[-1]]
            k = max(m // 8, m - len(good))
            return rng.sample(rng.sample(good, m - k) + rng.sample(bad, k), m)
        return rng.sample(pool, m)
    seen = set()
    while len(seen) < m:
        v = tuple(rng.randrange(p) for _ in range(n))
        if any(v):
            seen.add(v)
    return sorted(seen)


def closure_cases():
    """(p, n, m, kind): every (p, n) with p in {2, 3, 5, 7} and n in 1..4;
    member counts that reach both pair modes and both triple modes."""
    for p, n in itertools.product((2, 3, 5, 7), (1, 2, 3, 4)):
        space = p ** n - 1
        for kind in ("random", "diag"):
            yield p, n, min(space, 12), kind
            if space >= 216:
                yield p, n, 216, kind  # 216**3 > 10**7: sampled triples
        if space >= 1001:
            yield p, n, 1001, "random"  # 1001**2 > 10**6: sampled pairs
    big = 2147483659  # above 2**31: exact Python ints from n = 2 on
    for n in (1, 2, 3):
        yield big, n, 10, "random"
    yield big, 1, 1001, "diag"
    yield None, 2, 12, "random"
    yield None, 3, 8, "diag"


@pytest.mark.parametrize("p,n,m,kind", list(closure_cases()))
def test_verify_closure_matches_scalar_reference(p, n, m, kind):
    rng = random.Random(f"{p}:{n}:{m}:{kind}")
    entries, linear_a, linear_b = random_closure_case(rng, p, n, kind)
    members = closure_members(rng, p, n, m, kind)
    field = Field(p)
    el = lambda d: {key: field.element(c) for key, c in d.items()}
    op = AffineOperation(StructureTensor(n, el(entries)), el(linear_a),
                         el(linear_b), zero=field.zero())
    constraint = (lambda t: not t[-1]) if kind == "random" else None
    seed = rng.random()
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    got = verify_closure(op, members, field, constraint=constraint,
                         rng=got_rng, triple_samples=300)
    want = closure_reference(scalar_product(entries, linear_a, linear_b, n, p),
                             members, constraint, want_rng, 300)
    assert got == want
    assert list(got.witnesses) == list(want.witnesses)
    assert got_rng.random() == want_rng.random()


def test_verify_closure_over_q_samples_pairs_past_the_cap(q_field):
    """Q follows the pair modes too: 1001**2 > 10**6 pairs are sampled,
    and witnesses hold values, not FieldElements."""
    op = AffineOperation(StructureTensor(1, {(0, 0, 0): q_field.one()}),
                         zero=q_field.zero())
    members = [(Fraction(k, 2),) for k in range(1, 1002)]
    report = verify_closure(op, members, q_field, rng=random.Random(5))
    assert report.counts == {"pairs": 10 ** 5, "pair_mode": "randomized",
                             "triples": 1000, "triple_mode": "randomized"}
    assert sum(report.landings) == 10 ** 5
    assert report.commutative and report.associative and not report.closed
    (a,), (b,), (prod,) = report.witnesses["closed"]
    assert type(prod) is Fraction and prod == a * b


def test_constraint_sets_contain_their_stratum(f7):
    model = builtin_model("basic3", field=f7)
    part = ratio_partition(model)
    for label_str, members in part.strata:
        if label_str == INFINITY:
            label = RatioPoint(None)
        else:
            label = RatioPoint(int(label_str))
        check = constraint_for_label(model.strata_rule, label, 7)
        assert all(check(m) for m in members)
    # the infinity constraint set also admits the degenerate (x, 0, 0) line
    check_inf = constraint_for_label(model.strata_rule, RatioPoint(None), 7)
    assert check_inf((4, 0, 0))
    check_3 = constraint_for_label(model.strata_rule, RatioPoint(3), 7)
    assert check_3((1, 0, 0))  # 0 = 3*0 holds degenerately
    assert not check_3((1, 2, 5))  # 2 != 3*5 mod 7


def test_stability_and_depth(f19):
    model = builtin_model("parametric3", params=(2, 3, 5, 1, 4, 6), field=f19)
    part = ratio_partition(model)
    labeler = part.label_of
    tree = BracketTree.left_comb(3)
    members = dict(part.strata)["3"]
    leaves = [vector(f19, members[i]) for i in (20, 40, 60)]
    st = is_stratum_stable(model.operation, tree, leaves, labeler)
    assert st.stable is True
    assert st.outcome == "stable"
    assert st.final_label == "3"
    depth = stratified_depth(model.operation, tree, leaves, labeler)
    assert depth.count == 1
    assert depth.flags == []
    # leaves with vanishing lead coordinates push the intermediate product
    # onto the degenerate boundary line, whose canonical label is inf
    edge = [vector(f19, members[i]) for i in (0, 3, 8)]
    st_edge = is_stratum_stable(model.operation, tree, edge, labeler)
    assert st_edge.stable is True  # the final value still returns home
    depth_edge = stratified_depth(model.operation, tree, edge, labeler)
    assert depth_edge.count == 2
    assert INFINITY in depth_edge.labels
