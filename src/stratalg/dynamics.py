"""Chained-product dynamics: left-associated walks on plain values (orbits
with exact cycle detection, chain paths), exhaustive permutation
experiments and aggregated stratum-transition graphs with DOT/JSON
export. Only the transition scan loads numpy (and strata and the kernels)."""

import itertools
import json
from collections import Counter
from fractions import Fraction
from functools import cached_property

from .algebra import MAX_CHAIN, MAX_STEPS, _as_operation, _plain, \
    chain_orderings, is_zero_vector, multiply_values
from .field import _elements, _vec_json

# State-space sizes up to this bound (space_products needs p**n <= 2**16) get
# the all-pairs transition scan; larger spaces are sampled.
EXHAUSTIVE_SPACE = 10 ** 4

# Sampled-mode pair budget (pairs drawn with the plan's seed).
SAMPLED_PAIRS = 10 ** 5

# Most transition tally bins (labels**2 * (labels + 1)). The tally and each
# exhaustive block's bincount are int64 arrays of this many bins, 512 MiB
# each at the bound, so this protects the host's memory: 406 labels fit.
MAX_TALLY_BINS = 1 << 26

SCAN_BLOCK = 1 << 13  # pairs per sampled-scan block: bounds its planes

ZERO_LABEL = "zero"
UNLABELED = "unlabeled"


# ---------------------------------------------------------------------------
# walks


def _labeler(partition):
    """Vector -> stratum label. Accepts a StratumPartition or any
    callable; the zero vector is always labeled ZERO_LABEL."""
    fn = getattr(partition, "label_of", partition)

    def label(v):
        if is_zero_vector(v):
            return ZERO_LABEL
        got = fn(v)
        return UNLABELED if got is None else str(got)

    return label


def _require_nonzero(v, what):
    if is_zero_vector(v):
        raise ValueError(f"{what} must be nonzero")


def _walk(op, v, multipliers, label, seen=None):
    """The left chain v, v*m_0, (v*m_0)*m_1, ... of plain values and their
    labels, cut after the first zero product or, when seen maps values to
    steps, after the first repeated value. Returns (values, labels,
    cycle_info, truncated)."""
    values, labels = [v], [label(v)]
    for k, q in enumerate(multipliers, 1):
        v = tuple(multiply_values(op, v, q))
        values.append(v)
        labels.append(label(v))  # ZERO_LABEL for the zero vector
        if not any(v):
            return values, labels, None, True
        if seen is not None:
            if v in seen:
                return values, labels, (seen[v], k - seen[v]), False
            seen[v] = k
    return values, labels, None, False


class Trajectory:
    """A left-associated chain with per-step stratum labels: steps[0] is
    the start, steps[k+1] is steps[k] * multipliers[k]. cycle_info =
    (entry, period) when the walk revisits an exact vector value; truncated
    is set when a zero product cut the chain short. values and applied hold
    plain values; start, multipliers, steps and final are FieldElements."""

    def __init__(self, field, values, labels, applied, cycle_info=None,
                 truncated=False):
        self.field = field
        self.values = values
        self.labels = labels
        self.applied = applied
        self.cycle_info = cycle_info
        self.truncated = truncated

    @property
    def start(self):
        return _elements(self.field, self.values[0])

    @cached_property
    def multipliers(self):
        return [_elements(self.field, q) for q in self.applied]

    @cached_property
    def steps(self):
        return [(_elements(self.field, v), label)
                for v, label in zip(self.values, self.labels)]

    @property
    def final(self):
        return _elements(self.field, self.values[-1])

    def __len__(self):
        return len(self.values)

    def to_json(self):
        return {
            "start": _vec_json(self.values[0]),
            "multipliers": [_vec_json(q) for q in self.applied],
            "steps": [{"step": k, "value": _vec_json(v), "stratum": label}
                      for k, (v, label) in enumerate(zip(self.values,
                                                         self.labels))],
            "cycle": list(self.cycle_info) if self.cycle_info else None,
            "truncated": self.truncated,
        }

    def to_json_lines(self):
        """One JSON object per line: a header, then one line per step."""
        header = dict(self.to_json(), type="trajectory")
        steps = header.pop("steps")
        dump = lambda o: json.dumps(o, sort_keys=True, separators=(",", ":"))
        return "\n".join(map(dump, [header, *steps]))

    def __repr__(self):
        extra = " truncated" if self.truncated else ""
        if self.cycle_info:
            extra = " cycle(entry={}, period={})".format(*self.cycle_info)
        return f"Trajectory({' -> '.join(self.labels)}{extra})"


def orbit(op, start, q, steps, partition):
    """Walk start, start*q, (start*q)*q, ... for at most `steps`
    multiplications, labeling each value with partition (a StratumPartition
    or a callable on plain values). Stops early at the first exact repeat
    of a value (cycle_info records entry index and period; the repeat is
    kept as the last step) or at a zero product (truncated flag)."""
    if steps < 0:
        raise ValueError("orbit steps must be at least 0")
    if steps > MAX_STEPS:
        raise ValueError(f"orbit steps must be at most {MAX_STEPS}")
    op = _as_operation(op)
    start, q = _plain(op, start), _plain(op, q)
    _require_nonzero(start, "orbit start")
    _require_nonzero(q, "orbit multiplier")
    values, labels, cycle, cut = _walk(op, start, itertools.repeat(q, steps),
                                       _labeler(partition), {start: 0})
    return Trajectory(op.plain.field, values, labels,
                      [q] * (len(values) - 1), cycle, cut)


def chain_path(op, start, multipliers, partition):
    """Label sequence of the left-associated chain
    ((start * m_0) * m_1) * ... . A zero product truncates the walk
    and leaves the remaining multipliers unapplied."""
    op = _as_operation(op)
    start = _plain(op, start)
    multipliers = [_plain(op, q) for q in multipliers]
    _require_nonzero(start, "chain start")
    for q in multipliers:
        _require_nonzero(q, "chain multiplier")
    values, labels, _, cut = _walk(op, start, multipliers,
                                   _labeler(partition))
    return Trajectory(op.plain.field, values, labels,
                      multipliers[:len(values) - 1], truncated=cut)


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
    values = [_plain(op, v) for v in (start, *multiset)]
    element_of = dict(zip(values[1:], multiset))
    orderings = chain_orderings(op, values[0], values[1:])
    finals = {}
    for ordering, v in orderings:
        finals.setdefault(v, ordering)
    finals = {_elements(field, v):
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


def _pair_products(T, La, Lb, ia, iq, p):
    """Lex index of a*q for each pair of lex indices (ia, iq) over K^n, on
    coordinate planes. The digit planes a_i, q_j of ia, iq and a_n = q_n = 1
    meet T+ (n+1, n+1, n), which holds T, La as T+[:n, n] and Lb as
    T+[n, :n]. Coordinate k is the sum of c * a_i * q_j over the nonzero
    c = T+[i, j, k], reduced mod p once, and Horner's rule folds the
    coordinates. A sum has fewer than (n+1)**2 terms below p**3: int32 while
    that bound and p**n (the digits divide in it) are below 2**31, int64
    below 2**63. Past that (n = 1 beyond p ~ 1.32e6) each a_i * q_j is
    reduced mod p first: terms below p**2, sums below (n+1)**2 * p**2,
    exact while (n+1) * p < 2**31, as on every space SPACE_CAP admits."""
    import numpy as np
    n = T.shape[0]
    Tp = np.zeros((n + 1, n + 1, n), dtype=np.int64)
    Tp[:n, :n], Tp[:n, n], Tp[n, :n] = T, La, Lb
    bound = (n + 1) ** 2 * p ** 3
    dtype = np.int32 if max(bound, p ** n) < 1 << 31 else np.int64
    powers = np.array([p ** e for e in range(n - 1, -1, -1)], dtype)[:, None]
    a, q = (np.ones((n + 1, len(i)), dtype) for i in (ia, iq))
    a[:n], q[:n] = (np.asarray(i, dtype) // powers % p for i in (ia, iq))
    aq = {(i, j): a[i] * q[j] for i, j in zip(*np.nonzero(Tp.any(axis=2)))}
    if bound >= 1 << 63:
        aq = {ij: plane % p for ij, plane in aq.items()}
    idx = np.zeros(len(ia), dtype)
    for ck in Tp.transpose(2, 0, 1).tolist():
        s = sum(ck[i][j] * plane for (i, j), plane in aq.items() if ck[i][j])
        idx = idx * p + s % p
    return idx


def transition_graph(op, partition, plan):
    """Scan ordered pairs (a, q) of nonzero vectors and count stratum
    transitions (label(a), label(q)) -> label(a*q). All pairs when the
    state space has at most EXHAUSTIVE_SPACE vectors; otherwise
    SAMPLED_PAIRS pairs drawn with the plan's seed, multiplied on digit and
    product planes SCAN_BLOCK at a time (_pair_products) and tallied by one
    bincount. Deterministic. A partition whose tally would pass
    MAX_TALLY_BINS raises ValueError."""
    # local: numpy loads only here, and traced kernels are looked up per call
    import numpy as np
    from ._kernels import left_tables, space_products
    from .strata import space_matrix, to_dense_arrays
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
        ia = rng.integers(1, space, size=pairs)
        iq = rng.integers(1, space, size=pairs)
        prods = np.empty(pairs, dtype=np.int64)
        for lo in range(0, pairs, SCAN_BLOCK):
            hi = lo + SCAN_BLOCK
            prods[lo:hi] = _pair_products(T, La, Lb, ia[lo:hi], iq[lo:hi], p)
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
    thin coincidence sets that axiom-level rescaling clears. On the
    exhaustive graphs of basic3, parametric3 and nonlinear3 (p + 1
    labels) the fraction sits a little under 2/p: 0.375-0.377 at F_5,
    against 0.4. parametric4 has p**2 + 3 labels and reads far lower:
    0.093 at F_5, 0.056 at F_7."""
    cross = 0
    returning_edges = {}
    for (a, via, c), count in graph.edges.items():
        if a != via:
            cross += count
            if c in (a, via):
                returning_edges[(a, via, c)] = count
    # zero products of cross pairs are landings too, but carry no edge;
    # they are reported separately on the graph itself.
    returns = sum(returning_edges.values())
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
        entry["closed" if c == a else f"to {c}"] += count
    return {label: dict(counts) for label, counts in report.items()}

