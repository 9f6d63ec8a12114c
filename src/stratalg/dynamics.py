"""Chained-product dynamics over prime fields.

Traces left-associated multiplication chains through the stratum
partition: fixed-multiplier orbits with exact cycle detection,
multi-multiplier paths, exhaustive permutation experiments, and
aggregated stratum-transition graphs with DOT/JSON export.
"""

import json
from collections import Counter
from fractions import Fraction

import numpy as np

from .algebra import MAX_CHAIN, chain_orderings, is_zero_vector, multiply
from .field import FieldElement, _vec_json
from .strata import _as_operation, space_matrix, to_dense_arrays
from ._kernels import bulk_multiply, left_tables, lex_digits, \
    lex_indices, space_products

ZERO_LABEL = "zero"
UNLABELED = "unlabeled"

# State-space sizes up to this bound (space_products needs p**n <= 2**16) get
# the all-pairs transition scan; larger spaces are sampled.
EXHAUSTIVE_SPACE = 10 ** 4

# Sampled-mode pair budget (pairs drawn with the plan's seed).
SAMPLED_PAIRS = 10 ** 5

# Longest orbit walk. Every step is kept (~0.5 KB each) until a value
# repeats, which over F_p can take p**n steps: 100,000 steps over a 40-bit
# prime took 3.1 s and 82 MB ru_maxrss on a 2-vCPU host.
MAX_STEPS = 10 ** 5

# Most transition tally bins (labels**2 * (labels + 1)). The tally and each
# scan block's bincount are int64 arrays of this many bins, 512 MiB each at
# the bound, so this protects the host's memory: 406 labels fit.
MAX_TALLY_BINS = 1 << 26


# ---------------------------------------------------------------------------
# labeling helpers


def _labeler(partition):
    """Vector -> stratum label. Accepts a StratumPartition or any
    callable; the zero vector is always labeled ZERO_LABEL."""
    if callable(partition) and not hasattr(partition, "label_of"):
        fn = partition
    else:
        fn = partition.label_of

    def label(v):
        if is_zero_vector(v):
            return ZERO_LABEL
        got = fn(v)
        return UNLABELED if got is None else str(got)

    return label


def _require_nonzero(v, what):
    if is_zero_vector(v):
        raise ValueError(f"{what} must be nonzero")


# ---------------------------------------------------------------------------
# trajectories


class Trajectory:
    """A left-associated chain with per-step stratum labels.

    steps[0] is the start; steps[k+1] is steps[k] * multipliers[k].
    cycle_info = (entry, period) when the walk revisits an exact vector
    value; truncated is set when a zero product cut the chain short.
    """

    def __init__(self, start, multipliers, steps, cycle_info=None,
                 truncated=False):
        self.start = start
        self.multipliers = multipliers
        self.steps = steps
        self.cycle_info = cycle_info
        self.truncated = truncated

    @property
    def labels(self):
        return [label for _, label in self.steps]

    @property
    def final(self):
        return self.steps[-1][0]

    def __len__(self):
        return len(self.steps)

    def to_json(self):
        return {
            "start": _vec_json(self.start),
            "multipliers": [_vec_json(q) for q in self.multipliers],
            "steps": [{"step": k, "value": _vec_json(v), "stratum": label}
                      for k, (v, label) in enumerate(self.steps)],
            "cycle": list(self.cycle_info) if self.cycle_info else None,
            "truncated": self.truncated,
        }

    def to_json_lines(self):
        """One JSON object per line: a header, then one line per step."""
        obj = self.to_json()
        header = {"type": "trajectory",
                  "start": obj["start"],
                  "multipliers": obj["multipliers"],
                  "cycle": obj["cycle"],
                  "truncated": obj["truncated"]}
        dump = lambda o: json.dumps(o, sort_keys=True, separators=(",", ":"))
        return "\n".join([dump(header)] + [dump(s) for s in obj["steps"]])

    def __repr__(self):
        path = " -> ".join(self.labels)
        extra = ""
        if self.cycle_info:
            extra = f" cycle(entry={self.cycle_info[0]}, " \
                    f"period={self.cycle_info[1]})"
        if self.truncated:
            extra += " truncated"
        return f"Trajectory({path}{extra})"


def orbit(op, start, q, steps, partition):
    """Walk start, start*q, (start*q)*q, ... for at most `steps`
    multiplications, labeling each value. Stops early at the first
    exact repeat of a vector value (cycle_info records entry index and
    period; the repeated value is kept as the last step) or at a zero
    product (truncated flag)."""
    if steps > MAX_STEPS:
        raise ValueError(f"orbit steps must be at most {MAX_STEPS}")
    op = _as_operation(op)
    _require_nonzero(start, "orbit start")
    _require_nonzero(q, "orbit multiplier")
    label = _labeler(partition)

    start = tuple(start)
    q = tuple(q)
    walk = [(start, label(start))]
    applied = []
    seen = {start: 0}
    v = start
    for k in range(1, steps + 1):
        v = tuple(multiply(op, v, q))
        applied.append(q)
        if is_zero_vector(v):
            walk.append((v, ZERO_LABEL))
            return Trajectory(start, applied, walk, truncated=True)
        walk.append((v, label(v)))
        if v in seen:
            return Trajectory(start, applied, walk,
                              cycle_info=(seen[v], k - seen[v]))
        seen[v] = k
    return Trajectory(start, applied, walk)


def chain_path(op, start, multipliers, partition):
    """Label sequence of the left-associated chain
    ((start * m_0) * m_1) * ... . A zero product truncates the walk
    and leaves the remaining multipliers unapplied."""
    op = _as_operation(op)
    _require_nonzero(start, "chain start")
    for q in multipliers:
        _require_nonzero(q, "chain multiplier")
    label = _labeler(partition)

    start = tuple(start)
    walk = [(start, label(start))]
    applied = []
    v = start
    for q in multipliers:
        q = tuple(q)
        v = tuple(multiply(op, v, q))
        applied.append(q)
        if is_zero_vector(v):
            walk.append((v, ZERO_LABEL))
            return Trajectory(start, applied, walk, truncated=True)
        walk.append((v, label(v)))
    return Trajectory(start, applied, walk)


# ---------------------------------------------------------------------------
# permutation experiments


def permutation_invariance(op, start, multiset, partition):
    """Evaluate the left chain over every ordering of `multiset`
    (all from one stratum; at most MAX_CHAIN entries) and compare
    the final values exactly.

    Returns {"invariant", "final", "orderings", "counterexample"}.
    The counterexample holds two orderings and their distinct finals.
    Multipliers spanning different strata raise ValueError: the
    order-independence guarantee is per-stratum only.
    """
    op = _as_operation(op)
    if len(multiset) == 0:
        raise ValueError("empty multiplier multiset")
    if len(multiset) > MAX_CHAIN:
        raise ValueError(
            f"multiset of {len(multiset)} needs {len(multiset)}! chain "
            f"evaluations; at most {MAX_CHAIN} supported")
    _require_nonzero(start, "start")
    label = _labeler(partition)

    multiset = [tuple(q) for q in multiset]
    for q in multiset:
        _require_nonzero(q, "multiplier")
    stratum = {label(q) for q in multiset}
    if len(stratum) > 1:
        raise ValueError(
            f"multipliers span strata {sorted(stratum)}; "
            "order independence holds per stratum only")

    # the chains run on plain values; finals and their orderings are
    # reported as field elements
    field = op.plain.field
    values = [tuple(field.element(x).value for x in v)
              for v in (start, *multiset)]
    element_of = dict(zip(values[1:], multiset))
    orderings = chain_orderings(op, values[0], values[1:])
    finals = {}
    for ordering, v in orderings:
        finals.setdefault(v, ordering)
    finals = {tuple(FieldElement(field, x) for x in v):
              tuple(element_of[q] for q in ordering)
              for v, ordering in finals.items()}

    identity_final = next(iter(finals)) if len(finals) == 1 else None
    result = {
        "invariant": len(finals) == 1,
        "final": identity_final,
        "orderings": len(orderings),
        "counterexample": None,
    }
    if not result["invariant"]:
        (va, oa), (vb, ob) = list(finals.items())[:2]
        result["counterexample"] = {
            "ordering_a": list(oa), "final_a": va,
            "ordering_b": list(ob), "final_b": vb,
        }
    return result


# ---------------------------------------------------------------------------
# transition graphs


class TransitionGraph:
    """Aggregated stratum transitions: edge (from, via, to) counts how
    many scanned pairs a in S_from, q in S_via had a*q land in S_to.
    Zero products are tallied separately and create no edge."""

    def __init__(self, p, nodes, edges, mode, pairs, zero_products, seed):
        self.p = p
        self.nodes = nodes
        self.edges = edges  # dict (from, via, to) -> count
        self.mode = mode
        self.pairs = pairs
        self.zero_products = zero_products
        self.seed = seed

    def edge_count(self):
        return len(self.edges)

    def to_json(self):
        return {
            "p": self.p,
            "mode": self.mode,
            "seed": self.seed,
            "pairs": self.pairs,
            "zero_products": self.zero_products,
            "nodes": list(self.nodes),
            "edges": [
                {"from": a, "via": b, "to": c, "count": self.edges[key]}
                for key in sorted(self.edges)
                for a, b, c in [key]
            ],
        }

    def to_dot(self):
        lines = ["digraph transitions {", "  rankdir=LR;"]
        for node in self.nodes:
            lines.append(f'  "{node}";')
        for a, via, c in sorted(self.edges):
            count = self.edges[(a, via, c)]
            lines.append(
                f'  "{a}" -> "{c}" [label="via {via} (x{count})"];')
        lines.append("}")
        return "\n".join(lines)


def transition_graph(op, partition, plan):
    """Scan ordered pairs (a, q) of nonzero vectors and count stratum
    transitions (label(a), label(q)) -> label(a*q). All pairs when the
    state space has at most EXHAUSTIVE_SPACE vectors; otherwise
    SAMPLED_PAIRS pairs drawn with the plan's seed. Deterministic. A
    partition whose tally would pass MAX_TALLY_BINS raises ValueError."""
    op = _as_operation(op)
    p, n = partition.p, partition.n
    space = p ** n
    codes, labels = partition.codes, partition.labels
    nlab = len(labels)
    # one bin per (from, via, to), the zero product being one more "to"
    bins = nlab * nlab * (nlab + 1)
    if bins > MAX_TALLY_BINS:
        raise ValueError(
            f"a transition graph over {nlab} strata needs {bins} tally bins; "
            f"at most {MAX_TALLY_BINS} supported")
    T, La, Lb = to_dense_arrays(op, p)
    nonzero = space - 1

    def count(ca, cq, cprod):
        """Tally by operand codes ca, cq and product codes cprod; a zero
        product (code -1) takes the first bin of its (from, via)."""
        key = ca * (nlab * (nlab + 1)) + (cq * (nlab + 1) + 1) + cprod
        return np.bincount(key.ravel(), minlength=bins)

    if space <= EXHAUSTIVE_SPACE:
        mode = "exhaustive"
        pairs = nonzero ** 2
        V = space_matrix(p, n)
        vcodes = codes[1:]  # V row r has lex index r + 1
        L, C = left_tables(T, Lb, V, p), V @ La % p
        # blocks of about 2**16 products bound the (block, space) arrays
        block = max(1, (1 << 16) // nonzero)
        tally = 0
        for lo in range(0, nonzero, block):
            hi = lo + block
            prods = space_products(L[lo:hi], C[lo:hi], p)[:, 1:]
            tally += count(vcodes[lo:hi, None], vcodes, np.take(codes, prods))
    else:
        mode = "sampled"
        pairs = min(SAMPLED_PAIRS, nonzero ** 2)
        rng = np.random.default_rng(plan.seed)
        ia = rng.integers(0, nonzero, size=pairs) + 1
        iq = rng.integers(0, nonzero, size=pairs) + 1
        prods = lex_indices(bulk_multiply(T, La, Lb, lex_digits(ia, p, n),
                                          lex_digits(iq, p, n), p), p)
        tally = count(codes[ia], codes[iq], codes[prods])

    flat = np.flatnonzero(tally)
    ai, qi, ci = np.unravel_index(flat, (nlab, nlab, nlab + 1))
    edges = {(labels[a], labels[q], labels[c - 1]): k for a, q, c, k in
             zip(ai.tolist(), qi.tolist(), ci.tolist(), tally[flat].tolist())
             if c}
    return TransitionGraph(p, list(labels), edges, mode, pairs,
                           int(tally[::nlab + 1].sum()), plan.seed)


def return_edge_stats(graph):
    """How often do cross-stratum products land back in an operand
    stratum? Counts pairs behind edges (i, j, i) and (i, j, j) with
    i != j against all cross-stratum pairs. These landings are the
    thin coincidence sets that axiom-level rescaling clears; the
    fraction should sit near 2/p, far from generic."""
    cross = 0
    returns = 0
    returning_edges = {}
    for (a, via, c), count in graph.edges.items():
        if a == via:
            continue
        cross += count
        if c == a or c == via:
            returns += count
            returning_edges[(a, via, c)] = count
    # zero products of cross pairs are landings too, but carry no edge;
    # they are reported separately on the graph itself.
    fraction = Fraction(returns, cross) if cross else Fraction(0)
    return {"cross_pairs": cross, "returning_pairs": returns,
            "fraction": fraction, "edges": returning_edges}


def self_loop_report(graph):
    """Per-stratum closure view: count of (i, i, i) pairs next to the
    total of in-stratum pairs (i, i, *)."""
    report = {}
    for (a, via, c), count in graph.edges.items():
        if a != via:
            continue
        entry = report.setdefault(a, Counter())
        entry["total"] += count
        if c == a:
            entry["closed"] += count
        else:
            entry[f"to {c}"] += count
    return {label: dict(counts) for label, counts in report.items()}
