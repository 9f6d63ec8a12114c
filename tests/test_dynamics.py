"""Orbits, chain paths, permutation experiments, transition graphs."""

import hashlib
import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from collections import Counter
from functools import partial

import numpy as np

import pytest

from stratalg import (
    AffineOperation,
    Field,
    SamplingPlan,
    StratumPartition,
    StructureTensor,
    builtin_model,
    chain_path,
    discover_strata,
    lps,
    multiply,
    orbit,
    permutation_invariance,
    ratio_partition,
    ratio_stratum_of,
    return_edge_stats,
    self_loop_report,
    symbolic_model,
    transition_graph,
    vector,
)
from stratalg import dynamics
from stratalg.algebra import coordinate_vars
from stratalg.dynamics import ZERO_LABEL, _labeler
from stratalg.rules import rule_label
from stratalg.field import format_scalar
from stratalg.strata import INFINITY


@pytest.fixture(scope="module")
def zero_divisor_model(f5):
    """Small model with a known zero product across strata:
    (0,1,2) in stratum 3 times (1,0,1) in stratum 0 is exactly zero."""
    return builtin_model("parametric3", params=(2, 3, 1, 4, 1, 2), field=f5)


@pytest.fixture(scope="module")
def zero_divisor_partition(zero_divisor_model):
    return ratio_partition(zero_divisor_model)


def test_orbit_step_invariant(nonlinear19, f19):
    part = ratio_partition(nonlinear19)
    start = vector(f19, (1, 2, 3))
    q = vector(f19, (4, 5, 6))
    t = orbit(nonlinear19, start, q, 8, part)
    assert t.steps[0][0] == start
    for k in range(1, len(t)):
        assert t.steps[k][0] == multiply(nonlinear19.operation,
                                         t.steps[k - 1][0], q)
    assert t.multipliers == [q] * (len(t) - 1)


def test_orbit_cycle_detection(zero_divisor_model, zero_divisor_partition, f5):
    members = dict(zero_divisor_partition.strata)["3"]
    start, q = vector(f5, members[2]), vector(f5, members[7])
    t = orbit(zero_divisor_model, start, q, 50, zero_divisor_partition)
    assert t.cycle_info == (0, 4)
    assert not t.truncated
    # the repeated value is kept as the last step
    entry, period = t.cycle_info
    assert t.steps[-1][0] == t.steps[entry][0]
    assert len(t) == entry + period + 1
    # in-stratum chains only ever leave for the boundary class
    assert set(t.labels) <= {"3", INFINITY}


def test_orbit_zero_truncation(zero_divisor_model, zero_divisor_partition, f5):
    base, q = vector(f5, (0, 1, 2)), vector(f5, (1, 0, 1))
    assert zero_divisor_partition.label_of(base) == "3"
    assert zero_divisor_partition.label_of(q) == "0"
    assert all(not x for x in multiply(zero_divisor_model.operation, base, q))
    t = orbit(zero_divisor_model, base, q, 10, zero_divisor_partition)
    assert t.truncated
    assert t.labels == ["3", ZERO_LABEL]
    assert t.cycle_info is None
    assert len(t.multipliers) == 1  # later multiplications never ran


def test_orbit_zero_steps(zero_divisor_model, zero_divisor_partition, f5):
    start = vector(f5, (0, 1, 2))
    t = orbit(zero_divisor_model, start, vector(f5, (1, 1, 1)), 0,
              zero_divisor_partition)
    assert t.labels == ["3"]
    assert t.final == start
    with pytest.raises(ValueError):
        orbit(zero_divisor_model, vector(f5, (0, 0, 0)), start, 3,
              zero_divisor_partition)


def test_chain_path_truncates(zero_divisor_model, zero_divisor_partition, f5):
    base, q = vector(f5, (0, 1, 2)), vector(f5, (1, 0, 1))
    other = vector(f5, (1, 1, 1))
    t = chain_path(zero_divisor_model, base, [q, other, other],
                   zero_divisor_partition)
    assert t.truncated
    assert t.labels == ["3", ZERO_LABEL]
    assert t.multipliers == [q]  # the rest never applied
    t2 = chain_path(zero_divisor_model, base, [], zero_divisor_partition)
    assert t2.labels == ["3"]


def test_trajectory_json_forms(zero_divisor_model, zero_divisor_partition, f5):
    members = dict(zero_divisor_partition.strata)["3"]
    t = orbit(zero_divisor_model, vector(f5, members[2]),
              vector(f5, members[7]), 6, zero_divisor_partition)
    obj = t.to_json()
    assert obj["steps"][0]["step"] == 0
    assert [s["stratum"] for s in obj["steps"]] == t.labels
    assert obj["cycle"] == [0, 4]
    lines = t.to_json_lines().splitlines()
    head = json.loads(lines[0])
    assert head["type"] == "trajectory"
    assert head["cycle"] == [0, 4]
    assert len(lines) == 1 + len(t)
    assert json.loads(lines[1])["stratum"] == "3"


def reference_walk(op, start, multipliers, label, cycles):
    """The walk as it ran before plain values: algebra.multiply on
    FieldElement tuples, every step labeled by label. Returns (steps,
    applied, cycle_info, truncated)."""
    steps, applied, seen = [(start, label(start))], [], {start: 0}
    for k, q in enumerate(multipliers, 1):
        v = multiply(op, steps[-1][0], q)
        applied.append(q)
        if not any(v):
            steps.append((v, ZERO_LABEL))
            return steps, applied, None, True
        steps.append((v, label(v)))
        if cycles and v in seen:
            return steps, applied, (seen[v], k - seen[v]), False
        seen[v] = k
    return steps, applied, None, False


WALK_MODELS = [  # (name, params, field): ratio and ratio-pair rules, and Q
    ("parametric3", (2, 3, 1, 4, 1, 2), 5),
    ("nonlinear3", (2, 3, 5, 1, 4, 6), 7),
    ("parametric4", (2, 3, 5, 7, 11, 13), 5),
    ("parametric4", (2, 3, 5, 7, 11, 13), 3),
    ("nonlinear3", (2, 3, 5, 1, 4, 6), None),
    ("parametric4", (2, 3, 5, 7, 11, 13), None),
]


@pytest.mark.parametrize("name,params,p", WALK_MODELS,
                         ids=[f"{m[0]}-f{m[2] or 'q'}" for m in WALK_MODELS])
def test_walks_match_the_field_element_reference(name, params, p):
    """orbit and chain_path on plain values against the FieldElement walk,
    labeled by the partition over F_p (and by the rule labeler the CLI
    passes) and by ratio_stratum_of over Q, on seeded starts and
    multipliers."""
    f = Field(p)
    model = builtin_model(name, params=params, field=f)
    op, rule, n = model.operation, model.strata_rule, model.dimension
    rng = random.Random(f"{name}:{p}:walks")
    if p:
        part = ratio_partition(model)
        labelers = [(part, part.label_of), (partial(rule_label, rule=rule,
                                                    p=p), part.label_of)]
        longest = 60
    else:
        by_rule = lambda v: str(ratio_stratum_of(v, rule, f))
        labelers = [(by_rule, by_rule)]
        longest = 8  # entries over Q grow without bound

    def draw():
        while True:
            v = vector(f, [rng.randint(-4, 4) for _ in range(n)])
            if any(v):
                return v

    seen = Counter()
    for trial in range(40):
        start, q = draw(), draw()
        steps = 0 if trial == 0 else rng.randint(1, longest)
        mults = [draw() for _ in range(rng.randint(0, 6))]
        for labeler, reference in labelers:
            for got, (walk, applied, cycle, cut) in [
                    (orbit(model, start, q, steps, labeler),
                     reference_walk(op, start, [q] * steps, reference, True)),
                    (chain_path(model, start, mults, labeler),
                     reference_walk(op, start, mults, reference, False))]:
                assert got.steps == [(v, str(label)) for v, label in walk]
                assert got.labels == [str(label) for _, label in walk]
                assert got.multipliers == applied
                assert got.start == start and got.final == walk[-1][0]
                assert (got.cycle_info, got.truncated) == (cycle, cut)
                seen["cycle" if cycle else "zero" if cut else "open"] += 1
        seen["no steps"] += steps == 0
    assert seen["open"] and seen["no steps"]
    if p:
        assert seen["cycle"]
    if (name, p) in (("parametric3", 5), ("parametric4", 3)):
        assert seen["zero"]


def test_walks_need_an_operation_over_one_field():
    # a symbolic operation has no plain form for multiply_values
    model = symbolic_model("basic3")
    v = coordinate_vars("a", 3)
    for walk in (lambda: orbit(model, v, v, 2, lambda x: "all"),
                 lambda: chain_path(model, v, [v], lambda x: "all")):
        with pytest.raises(ValueError, match="operation over one field"):
            walk()


def test_permutation_invariance_tracks_lps(nonlinear19, f19):
    part = ratio_partition(nonlinear19)
    members = dict(part.strata)["4"]
    start = vector(f19, (3, 1, 1))
    op = nonlinear19.operation
    hits = 0
    for i, j in [(0, 1), (2, 9), (4, 40), (11, 70), (25, 33)]:
        b, c = vector(f19, members[i]), vector(f19, members[j])
        res = permutation_invariance(op, start, [b, c], part)
        assert res["orderings"] == 2
        zero_lps = all(not x for x in lps(op, start, b, c))
        assert res["invariant"] == zero_lps
        hits += res["invariant"]
        if res["invariant"]:
            assert res["final"] == multiply(op, multiply(op, start, b), c)
            assert res["counterexample"] is None
    assert hits == 5  # co-stratal multipliers keep every pair order-free


def test_permutation_invariance_counterexample_branch(f19):
    # mixing strata is rejected, so force a counterexample with a
    # stratum-blind labeler instead
    model = builtin_model("parametric3", params=(2, 3, 5, 1, 4, 6), field=f19)
    op = model.operation
    b, c = vector(f19, (1, 2, 3)), vector(f19, (5, 7, 2))
    start = vector(f19, (2, 1, 4))
    assert any(x != f19.zero() for x in lps(op, start, b, c))
    res = permutation_invariance(op, start, [b, c], lambda v: "all")
    assert not res["invariant"]
    assert res["final"] is None
    ce = res["counterexample"]
    got_a = start
    for q in ce["ordering_a"]:
        got_a = multiply(op, got_a, q)
    assert tuple(got_a) == ce["final_a"]
    assert ce["final_a"] != ce["final_b"]


def test_permutation_invariance_k4(nonlinear19, f19):
    part = ratio_partition(nonlinear19)
    members = dict(part.strata)["4"]
    start = vector(f19, (3, 1, 1))
    mults = [vector(f19, members[i]) for i in (0, 2, 9, 40)]
    res = permutation_invariance(nonlinear19.operation, start, mults, part)
    assert res["orderings"] == 24
    assert res["invariant"]


def test_permutation_invariance_validation(nonlinear19, f19):
    part = ratio_partition(nonlinear19)
    start = vector(f19, (3, 1, 1))
    with pytest.raises(ValueError):
        permutation_invariance(nonlinear19.operation, start, [], part)
    with pytest.raises(ValueError):
        permutation_invariance(nonlinear19.operation, start,
                               [start] * 7, part)
    mixed = [vector(f19, (0, 1, 1)), vector(f19, (0, 1, 2))]
    with pytest.raises(ValueError) as err:
        permutation_invariance(nonlinear19.operation, start, mixed, part)
    assert "span strata" in str(err.value)
    # duplicated multipliers deduplicate the ordering set: 3 entries with a
    # repeat give 3 orderings, not 3! = 6
    part5 = ratio_partition(builtin_model("parametric3",
                                          params=(2, 3, 1, 4, 1, 2),
                                          field=f19))
    q = vector(f19, (0, 2, 1))
    r = vector(f19, (1, 4, 2))
    res = permutation_invariance(nonlinear19.operation, start, [q, q, r],
                                 part5)
    assert res["orderings"] == 3


# (orderings, invariant, SHA-256 of json.dumps(result, sort_keys=True,
# default=format_scalar)) for seeded F_19 multisets, frozen from the loop
# that evaluated every distinct ordering on its own. The last co-stratal set
# and the second blind one repeat entries.
GOLDEN_INVARIANCE = [
    (2, True,
     "aba983562fde2a800a3e8adbd6a1233540cc424acbb24e9a1958d504eec6ef71"),
    (6, True,
     "48633ccfcdb1f1cc5a3b776763d2b4724d860651f4380011ac7853370d886887"),
    (24, True,
     "bbb30290975f801d42965d709b3064c5e1277816944d45a954a3431bf6965050"),
    (120, True,
     "c44eeeceb494ee4fca190d48e06d2aba65a1a3470f96f9cf92e9e93970cbfd5d"),
    (30, True,
     "94e3042010da85af650d080b535c78957a019daf7cbf4aa8d27fb2f680393ef8"),
    (6, False,
     "239f91cf49dadff826f459ce40c34446369cdd6fe8ab2d1c91a57511b311f10e"),
    (12, False,
     "8b043b77461728b079a4f96819129d2f6652b790771047b21483b4e905edfd66"),
    (120, False,
     "efad5b5db838f3c4bab93c317363b4d8583bb8c588902732d2991b4ca1a10277"),
]


def test_permutation_invariance_matches_golden_digests(nonlinear19, f19):
    part = ratio_partition(nonlinear19)
    blind = builtin_model("parametric3", params=(2, 3, 5, 1, 4, 6),
                          field=f19).operation
    rng = random.Random("permutation-golden")

    def start():
        return vector(f19, [rng.randrange(1, 19) for _ in range(3)])

    got = []

    def record(res):
        text = json.dumps(res, sort_keys=True, default=format_scalar)
        got.append((res["orderings"], res["invariant"],
                    hashlib.sha256(text.encode()).hexdigest()))

    for k, m in enumerate((2, 3, 4, 5, 5)):
        _label, members = part.strata[rng.randrange(len(part.strata))]
        mults = [vector(f19, members[rng.randrange(len(members))])
                 for _ in range(m)]
        if k == 4:
            mults[3], mults[4] = mults[0], mults[1]
        record(permutation_invariance(nonlinear19.operation, start(), mults,
                                      part))
    for m in (3, 4, 5):
        mults = [vector(f19, [rng.randrange(19) for _ in range(3)])
                 for _ in range(m)]
        if m == 4:
            mults[2] = mults[0]
        record(permutation_invariance(blind, start(), mults,
                                      lambda v: "all"))
    assert got == GOLDEN_INVARIANCE


@pytest.mark.parametrize("p,name,params", [
    (5, "parametric3", (2, 3, 1, 4, 1, 2)),
    (7, "parametric3", (2, 3, 5, 1, 4, 6)),
    (7, "nonlinear3", (2, 3, 5, 1, 4, 6)),
    (7, "basic3", None),
])
def test_transition_graph_exhaustive_invariants(p, name, params):
    from stratalg import Field
    f = Field(p)
    model = builtin_model(name, params=params, field=f)
    part = ratio_partition(model)
    g = transition_graph(model, part, SamplingPlan(seed=0))
    assert g.mode == "exhaustive"
    nonzero = p ** 3 - 1
    assert g.pairs == nonzero ** 2
    assert sum(g.edges.values()) + g.zero_products == g.pairs
    # every stratum multiplies into itself somewhere
    for label in g.nodes:
        assert (label, label, label) in g.edges
    # in-stratum pairs only ever escape to the boundary class
    for (a, via, c) in g.edges:
        if a == via and c != a:
            assert c == INFINITY
    # cross-stratum products do land back in an operand stratum, but only
    # on thin coincidence sets: the observed fraction tracks 2/p
    stats = return_edge_stats(g)
    assert stats["returning_pairs"] > 0
    assert abs(stats["fraction"] - 2 / p) < 0.05
    assert type(stats["fraction"]) is Fraction  # exact, not a float
    assert stats["fraction"] == Fraction(stats["returning_pairs"],
                                         stats["cross_pairs"])
    loops = self_loop_report(g)
    assert set(loops) == set(g.nodes)
    for label, entry in loops.items():
        assert entry["closed"] > 0
        spill = {k for k in entry if k.startswith("to ")}
        assert spill <= {f"to {INFINITY}"}


def test_transition_graph_sampled_determinism(f23):
    model = builtin_model("nonlinear3", params=(3, 1, 6, 2, 5, 4), field=f23)
    part = ratio_partition(model)
    g1 = transition_graph(model, part, SamplingPlan(seed=10))
    g2 = transition_graph(model, part, SamplingPlan(seed=10))
    g3 = transition_graph(model, part, SamplingPlan(seed=11))
    assert g1.mode == "sampled"
    assert g1.pairs == 10 ** 5
    assert json.dumps(g1.to_json()) == json.dumps(g2.to_json())
    assert json.dumps(g1.to_json()) != json.dumps(g3.to_json())


def test_transition_graph_dot_and_json(zero_divisor_model,
                                       zero_divisor_partition):
    g = transition_graph(zero_divisor_model, zero_divisor_partition,
                         SamplingPlan(seed=0))
    dot = g.to_dot()
    lines = dot.splitlines()
    assert lines[0] == "digraph transitions {"
    assert lines[-1] == "}"
    node_lines = [l for l in lines if l.endswith('";')]
    edge_lines = [l for l in lines if "->" in l]
    assert len(node_lines) == len(g.nodes)
    assert len(edge_lines) == len(g.edges)
    assert any('[label="via' in l for l in edge_lines)
    obj = g.to_json()
    assert obj["zero_products"] == g.zero_products
    listed = [(e["from"], e["via"], e["to"]) for e in obj["edges"]]
    assert listed == sorted(g.edges)


def test_labeler_accepts_callables(f5, zero_divisor_model):
    label = _labeler(lambda v: 9)
    assert label(vector(f5, (1, 2, 3))) == "9"
    assert label(vector(f5, (0, 0, 0))) == ZERO_LABEL
    label_none = _labeler(lambda v: None)
    assert label_none(vector(f5, (1, 2, 3))) == "unlabeled"


def test_transition_graph_with_discovered_partition(f7):
    model = builtin_model("nonlinear3", params=(2, 3, 5, 1, 4, 6), field=f7)
    discovered = discover_strata(model, 7)
    g = transition_graph(model, discovered, SamplingPlan(seed=0))
    assert "exceptional" in g.nodes
    assert sum(g.edges.values()) + g.zero_products == g.pairs


def scalar_transition_counts(op, partition, field):
    """Every ordered pair of nonzero vectors through the scalar multiply
    and label_of: (edge counts, zero products)."""
    space = [vector(field, v) for v in
             itertools.product(range(field.p), repeat=partition.n) if any(v)]
    labels = [partition.label_of(v) for v in space]
    edges = Counter()
    zeros = 0
    for a, la in zip(space, labels):
        for q, lq in zip(space, labels):
            prod = multiply(op, a, q)
            if all(x == 0 for x in prod):
                zeros += 1
            else:
                edges[(la, lq, partition.label_of(prod))] += 1
    return dict(edges), zeros


def random_affine_operation(field, n, seed):
    rng = random.Random(seed)
    p = field.p
    draw = lambda: field.element(rng.randrange(p))
    idx = range(n)
    return AffineOperation(
        StructureTensor(n, {(i, j, k): draw()
                            for i in idx for j in idx for k in idx}),
        {(i, k): draw() for i in idx for k in idx},
        {(j, k): draw() for j in idx for k in idx},
        zero=field.zero())


# at p = 7 nonlinear3 has 342 nonzero vectors: two blocks, the last ragged
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_exhaustive_transition_scan_matches_the_scalar_loop(p):
    """The blocked whole-space scan against multiply and label_of over all
    pairs: declared and discovered partitions of nonlinear3 (affine), and
    the discovered partition of a dense affine operation on K^2."""
    f = Field(p)
    model = builtin_model("nonlinear3", params=(2, 3, 5, 1, 4, 6), field=f)
    dense = random_affine_operation(f, 2, p)
    for op, part in ((model.operation, ratio_partition(model)),
                     (model.operation, discover_strata(model, p)),
                     (dense, discover_strata(dense, p))):
        g = transition_graph(op, part, SamplingPlan(seed=0))
        assert g.mode == "exhaustive"
        assert g.nodes == part.labels
        assert (g.edges, g.zero_products) == scalar_transition_counts(
            op, part, f)


def test_sampled_transition_scan_matches_the_scalar_loop(f23, monkeypatch):
    """Sampled mode labels the scalar products of the pairs drawn from
    numpy's generator with the plan's seed (3,000 pairs here), in scan
    blocks of 7 (the last one ragged), 1,000 (three full blocks) and
    3,000 pairs (one block)."""
    monkeypatch.setattr(dynamics, "SAMPLED_PAIRS", 3000)
    model = builtin_model("nonlinear3", params=(3, 1, 6, 2, 5, 4), field=f23)
    part = ratio_partition(model)
    graphs = []
    for block in (7, 1000, 3000):
        monkeypatch.setattr(dynamics, "SCAN_BLOCK", block)
        graphs.append(transition_graph(model, part, SamplingPlan(seed=4)))
    assert [(g.mode, g.pairs) for g in graphs] == [("sampled", 3000)] * 3
    rng = np.random.default_rng(4)
    ia, iq = (rng.integers(0, 23 ** 3 - 1, size=3000) + 1 for _ in "aq")
    digits = lambda i: vector(f23, (i // 529, i // 23 % 23, i % 23))
    edges = Counter()
    zeros = 0
    for i, j in zip(ia.tolist(), iq.tolist()):
        a, q = digits(i), digits(j)
        prod = multiply(model.operation, a, q)
        if all(x == 0 for x in prod):
            zeros += 1
        else:
            edges[(part.label_of(a), part.label_of(q),
                   part.label_of(prod))] += 1
    for g in graphs:
        assert (g.edges, g.zero_products) == (dict(edges), zeros)


def test_sampled_transition_scan_stays_small(f23):
    """Only the drawn pairs' lex indices and codes are whole; digit rows
    and left tables live one SCAN_BLOCK at a time. At nonlinear3/F_23 the
    scan peaked at 20.5 MiB under tracemalloc when it built all 10^5 pairs'
    rows at once."""
    model = builtin_model("nonlinear3", params=(2, 3, 5, 4, 6, 1), field=f23)
    part = ratio_partition(model)
    tracemalloc.start()
    try:
        g = transition_graph(model, part, SamplingPlan(seed=7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (g.mode, g.pairs) == ("sampled", 10 ** 5)
    assert peak < 8 << 20


def test_transition_tally_is_bounded(f5, monkeypatch):
    """The tally's labels**2 * (labels + 1) bins are checked before any
    array is built: at the bound the graph is drawn, one bin less refuses
    it, and 9,972 singleton strata of F_9973^1 are refused at once."""
    model = builtin_model("nonlinear3", params=(2, 3, 5, 1, 4, 6), field=f5)
    part = ratio_partition(model)
    k = len(part.labels)
    monkeypatch.setattr(dynamics, "MAX_TALLY_BINS", k * k * (k + 1))
    want = transition_graph(model, part, SamplingPlan(seed=0))
    monkeypatch.setattr(dynamics, "MAX_TALLY_BINS", k * k * (k + 1) - 1)
    with pytest.raises(ValueError, match="tally bins"):
        transition_graph(model, part, SamplingPlan(seed=0))
    monkeypatch.undo()
    assert transition_graph(model, part, SamplingPlan(seed=0)).to_json() \
        == want.to_json()
    f = Field(9973)
    op = AffineOperation(StructureTensor(1, {}), {(0, 0): f.one()},
                         {(0, 0): f.element(2)}, zero=f.zero())
    wide = StratumPartition(9973, 1, np.arange(-1, 9972),
                            [f"S{i}" for i in range(9972)], "discovered")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="over 9972 strata"):
            transition_graph(op, wide, SamplingPlan(seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_one_dimensional_discovery_and_dynamics():
    """n = 1: a*b = a + 2b commutes only with itself, so every nonzero
    scalar is its own stratum; F_2^1 has a single vector."""
    f = Field(5)
    op = AffineOperation(StructureTensor(1, {}), {(0, 0): f.one()},
                         {(0, 0): f.element(2)}, zero=f.zero())
    part = discover_strata(op, 5)
    assert part.strata == [(f"S{i}", [(i + 1,)]) for i in range(4)]
    assert part.exceptional == []
    assert [part.label_of((x,)) for x in range(5)] == [None, "S0", "S1",
                                                        "S2", "S3"]
    g = transition_graph(op, part, SamplingPlan(seed=0))
    assert (g.edges, g.zero_products) == scalar_transition_counts(op, part, f)
    tr = orbit(op, vector(f, (1,)), vector(f, (1,)), 10, part)
    assert tr.labels == ["S0", "S2", ZERO_LABEL] and tr.truncated
    f2 = Field(2)
    one = AffineOperation(StructureTensor(1, {(0, 0, 0): f2.one()}),
                          zero=f2.zero())
    part2 = discover_strata(one, 2)
    assert part2.strata == [("S0", [(1,)])] and part2.exceptional == []
    g2 = transition_graph(one, part2, SamplingPlan(seed=0))
    assert g2.edges == {("S0", "S0", "S0"): 1} and g2.zero_products == 0
