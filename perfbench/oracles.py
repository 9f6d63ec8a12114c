"""Output checks for benchmark jobs.

Each oracle checks a job's exit code and report against facts computed
here (stratum sizes, ratio labels, coverage of F_p^3, edge tallies, the
tensor associativity criterion, replayed trajectories), never against
frozen report bytes, so reports may gain fields without breaking the
benchmark. `check` returns None for a correct job, else a one-line reason.
"""

import itertools
import json
from fractions import Fraction

from workloads import BASIC3_ENTRIES, BROKEN3_ENTRIES

SATISFIED = ("holds", "holds-on-samples")


def options(argv):
    """Flag -> value map of a job's argv (flags without a value map to
    True)."""
    out = {}
    i = 1
    while i < len(argv):
        flag = argv[i]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[flag] = argv[i + 1]
            i += 2
        else:
            out[flag] = True
            i += 1
    return out


def prime_of(argv):
    return int(options(argv)["--field"][3:])


def nonzero_vectors(p, n=3):
    return {v for v in itertools.product(range(p), repeat=n) if any(v)}


def ratio_label(v, p):
    """Label of a nonzero vector under the 3D rule v[1] = alpha v[2]."""
    if v[2] % p == 0:
        return "inf"
    return str(v[1] * pow(v[2], -1, p) % p)


def expected_classification(verdicts):
    """The SA1-SA4 hierarchy read off the four verdicts."""
    sat = {k: verdicts[k] in SATISFIED for k in verdicts}
    if not (sat["SA1"] and sat["SA2"]):
        return "none"
    if not sat["SA3"]:
        return "weak"
    return "fully" if sat["SA4"] else "symmetric"


def bilinear_product(entries, a, b):
    out = [Fraction(0)] * 3
    for (i, j, k), c in entries.items():
        out[k] += c * a[i] * b[j]
    return out


def _vec(strings):
    return [Fraction(s) for s in strings]


def check_axioms(job, code, rep):
    verdicts = {k: rep["axioms"][k]["verdict"] for k in
                ("SA1", "SA2", "SA3", "SA4")}
    want_code = 1 if "fails" in verdicts.values() else 0
    if code != want_code:
        return f"exit {code} but the verdicts {verdicts} mean {want_code}"
    if rep["classification"] != expected_classification(verdicts):
        return (f"classification {rep['classification']} contradicts the "
                f"verdicts {verdicts}")
    if rep["classification"] != job.expect:
        if job.name == "basic3-f3" and small_field_sa2_failure(verdicts):
            return _replay_sa2_failure(rep, prime_of(job.argv))
        return f"classified {rep['classification']}, expected {job.expect}"
    if job.name == "broken3-q":
        return _replay_broken_witness(rep)
    return None


# basic3 over F_3 grades `symmetric` unless SA2 fails on its samples: a few
# cross-stratum products stay in an operand stratum (or commute, or vanish)
# whatever points of the two strata are drawn, and the 95% generic rate
# leaves room for none of them in 10 samples. Which plans draw such a pair
# cannot be known without the program's sampler, so the oracle then checks
# the claim instead: every other verdict is basic3's, the rate matches the
# persistent exceptions, and each of them violates SA2 when recomputed.
def small_field_sa2_failure(verdicts):
    return (verdicts["SA2"] == "fails" and verdicts["SA4"] == "degenerate"
            and verdicts["SA1"] in SATISFIED and verdicts["SA3"] in SATISFIED)


def _sa2_violation(entries, a, b, p):
    """The note SA2 gives the cross-stratum pair (a, b) over F_p, or None
    when the pair satisfies it."""
    ab = [int(x) % p for x in bilinear_product(entries, a, b)]
    ba = [int(x) % p for x in bilinear_product(entries, b, a)]
    if ab == ba:
        return "pair commutes"
    if not any(ab):
        return "product is zero"
    label = ratio_label(ab, p)
    if label in (ratio_label(a, p), ratio_label(b, p)):
        return f"product stayed in stratum {label}"
    return None


def _replay_sa2_failure(rep, p):
    entries = {k: Fraction(c) for k, c in BASIC3_ENTRIES.items()}
    clauses = rep["axioms"]["SA2"]["clauses"]
    cross = clauses["cross_stratum_asymmetry"]
    missed = cross["trials"] * (1 - Fraction(cross["rate"]))
    exceptions = clauses.get("exceptions", [])
    persistent = [e for e in exceptions if e["resolution"] == "persistent"]
    if not persistent or (missed != len(persistent) if len(exceptions) < 10
                          else missed < len(persistent)):
        return (f"SA2 rate {cross['rate']} of {cross['trials']} does not "
                f"match {len(persistent)} persistent exceptions")
    for e in persistent:
        a, b = ([int(x) for x in e[k]] for k in ("a", "b"))
        if ratio_label(a, p) == ratio_label(b, p):
            return f"SA2 exception {e} lies in one stratum"
        if _sa2_violation(entries, a, b, p) != e["note"]:
            return f"SA2 exception {e} does not replay"
    return None


def _replay_broken_witness(rep):
    """The SA1 witness of the broken control must violate the law it names
    under the control's own tensor."""
    entries = {k: Fraction(c) for k, c in BROKEN3_ENTRIES.items()}
    wit = next((w for w in rep["witnesses"] if w["axiom"] == "SA1"), None)
    if wit is None:
        return "broken control: no SA1 witness"
    vs = [_vec(v) for v in wit["vectors"]]
    kind = wit.get("kind", wit.get("clause"))
    if kind in ("commutator", "commutative"):
        a, b = vs[:2]
        if bilinear_product(entries, a, b) != bilinear_product(entries, b, a):
            return None
    elif kind in ("associator", "associative"):
        a, b, c = vs[:3]
        ab_c = bilinear_product(entries, bilinear_product(entries, a, b), c)
        a_bc = bilinear_product(entries, a, bilinear_product(entries, b, c))
        if ab_c != a_bc:
            return None
    return f"broken control: SA1 witness {wit} does not replay"


def _members(stratum):
    if "members" not in stratum:
        raise ValueError(f"stratum {stratum['label']} lists no members")
    return [tuple(m) for m in stratum["members"]]


def _check_cover(groups, p):
    """The groups partition the nonzero vectors of F_p^3."""
    seen = [v for g in groups for v in g]
    if len(seen) != len(set(seen)) or set(seen) != nonzero_vectors(p):
        return (f"{len(seen)} listed vectors ({len(set(seen))} distinct) "
                f"do not cover the {p ** 3 - 1} nonzero vectors once")
    return None


def check_strata(job, code, rep):
    p = prime_of(job.argv)
    if code != 0:
        return f"exit {code}"
    sizes = {s["label"]: s["size"] for s in rep["strata"]}
    if len(sizes) != p + 1:
        return f"{len(sizes)} strata, expected p+1 = {p + 1}"
    if sizes.get("inf") != p * p - 1:
        return f"stratum inf has {sizes.get('inf')} members, not p^2-1"
    for label, size in sizes.items():
        if label != "inf" and size != p * (p - 1):
            return f"stratum {label} has {size} members, not p(p-1)"
    groups = []
    for s in rep["strata"]:
        members = _members(s)
        if len(members) != s["size"]:
            return f"stratum {s['label']} lists {len(members)} of {s['size']}"
        wrong = [m for m in members if ratio_label(m, p) != s["label"]]
        if wrong:
            return f"{wrong[0]} is not in stratum {s['label']}"
        groups.append(members)
    return _check_cover(groups, p)


def check_discover(job, code, rep):
    p = prime_of(job.argv)
    if code != 0:
        return f"exit {code}"
    groups = [_members(s) for s in rep["strata"]]
    bad = _check_cover(groups + [[tuple(m) for m in rep["exceptional"]]], p)
    if bad:
        return bad
    owner = {}
    for s, members in zip(rep["strata"], groups):
        ratios = {ratio_label(m, p) for m in members}
        if len(ratios) != 1:
            return (f"discovered stratum {s['label']} spans ratio classes "
                    f"{sorted(ratios)}")
        owner.setdefault(ratios.pop(), []).append(s["label"])
    one_to_one = all(len(v) == 1 for v in owner.values())
    claimed = rep["declared_rule_agreement"]["agrees_on_non_exceptional"]
    if claimed != one_to_one:
        return f"report claims agreement {claimed}, recomputed {one_to_one}"
    return None


def check_graph(job, code, rep):
    p = prime_of(job.argv)
    if code != 0:
        return f"exit {code}"
    nonzero = p ** 3 - 1
    exhaustive = p ** 3 <= 10 ** 4
    want_pairs = nonzero ** 2 if exhaustive else min(10 ** 5, nonzero ** 2)
    if rep["mode"] != ("exhaustive" if exhaustive else "sampled"):
        return f"mode {rep['mode']} at p = {p}"
    if rep["pairs"] != want_pairs:
        return f"{rep['pairs']} pairs, expected {want_pairs}"
    edges = sum(e["count"] for e in rep["edges"])
    if edges + rep["zero_products"] != rep["pairs"]:
        return (f"edge counts {edges} + zero products "
                f"{rep['zero_products']} != pairs {rep['pairs']}")
    nodes = set(rep["nodes"])
    if len(nodes) != p + 1:
        return f"{len(nodes)} nodes, expected p+1 = {p + 1}"
    for e in rep["edges"]:
        if not {e["from"], e["via"], e["to"]} <= nodes:
            return f"edge {e} names an unknown stratum"
    return None


def check_trajectory(job, code, out):
    """Replay the walk with algebra.multiply and relabel every step."""
    from stratalg import Field, builtin_model, multiply
    if code != 0:
        return f"exit {code}"
    opts = options(job.argv)
    p = prime_of(job.argv)
    field = Field(p)
    model = builtin_model(opts["--builtin"],
                          params=[int(x) for x in opts["--params"].split(",")],
                          field=field)
    lines = [json.loads(line) for line in out.splitlines()]
    header, steps = lines[0], lines[1:]
    q = tuple(field.element(int(x)) for x in opts["--q"].split(","))
    v = tuple(field.element(int(x)) for x in opts["--start"].split(","))
    values = []
    for k, step in enumerate(steps):
        if k:
            v = multiply(model.operation, v, q)
        ints = tuple(x.value for x in v)
        if step["step"] != k or [str(x) for x in ints] != step["value"]:
            return f"step {k} reads {step['value']}, replay gives {ints}"
        label = "zero" if not any(ints) else ratio_label(ints, p)
        if step["stratum"] != label:
            return f"step {k} labeled {step['stratum']}, expected {label}"
        values.append(ints)
    last = values[-1]
    truncated = not any(last)
    if header["truncated"] != truncated:
        return f"truncated flag {header['truncated']} at final {last}"
    firsts = {}
    for k, val in enumerate(values[:-1]):
        if val in firsts:
            return f"value {val} repeats at step {k} before the walk ended"
        firsts[val] = k
    cycle = header["cycle"]
    if last in firsts and not truncated:
        entry = firsts[last]
        if cycle != [entry, len(values) - 1 - entry]:
            return f"cycle {cycle}, replay enters at {entry}"
    elif cycle is not None:
        return f"cycle {cycle} reported without a repeated value"
    elif not truncated and len(values) != int(opts["--steps"]) + 1:
        return f"walk stopped after {len(values) - 1} steps without cause"
    return None


def check_kex(job, code, rep):
    """Exit 0 iff the sides agreed; agreement means S12 = S21; a session
    that did not agree must name the zero product that voided it."""
    agreed = rep["agreed"]
    if code != (0 if agreed else 1):
        return f"exit {code} with agreed = {agreed}"
    if agreed:
        if rep["S12"] is None or rep["S12"] != rep["S21"]:
            return f"agreed but S12 {rep['S12']} != S21 {rep['S21']}"
    elif "zero product" not in rep.get("failure", ""):
        return f"sides disagreed without a zero product: {rep.get('failure')}"
    if job.kind == "recover":
        p = prime_of(job.argv)
        nonzero = p ** 3 - 1
        rec = rep["recovery"]
        if rec["tried"] != nonzero + nonzero ** 2:
            return f"recovery tried {rec['tried']} chains"
        if agreed and not rec["recovered_true_key"]:
            return "exhaustive search missed the true key"
    return None


def check_identities(job, code, rows):
    if code != 0:
        return f"exit {code}"
    if not rows:
        return "empty identity suite"
    for row in rows:
        if not row["matches"] and not (row.get("note")
                                       and row.get("difference")):
            return f"identity {row['name']} differs without a recorded note"
    return None


def associativity_mismatches(entries, n):
    """Count (i, j, k, l) with sum_r a_ijr a_rkl != sum_s a_jks a_isl."""
    get = entries.get
    count = 0
    for i, j, k, l in itertools.product(range(n), repeat=4):
        lhs = sum(get((i, j, r), 0) * get((r, k, l), 0) for r in range(n))
        rhs = sum(get((j, k, s), 0) * get((i, s, l), 0) for s in range(n))
        count += lhs != rhs
    return count


def check_assoc(job, code, rep):
    from stratalg import builtin_model
    opts = options(job.argv)
    params = opts.get("--params")
    model = builtin_model(
        opts["--builtin"],
        params=[int(x) for x in params.split(",")] if params else None)
    op = model.operation
    entries = {key: c.value for key, c in op.bilinear.entries.items()}
    mismatches = associativity_mismatches(entries, op.n)
    if rep["associative"] != (mismatches == 0):
        return f"associative = {rep['associative']}, recomputed {mismatches}"
    if len(rep["mismatches"]) != mismatches:
        return (f"{len(rep['mismatches'])} mismatches listed, recomputed "
                f"{mismatches}")
    if code != (0 if mismatches == 0 else 1):
        return f"exit {code} with {mismatches} mismatches"
    return None


CHECKS = {
    "axioms": check_axioms,
    "strata": check_strata,
    "discover": check_discover,
    "graph": check_graph,
    "kex": check_kex,
    "recover": check_kex,
    "identities": check_identities,
    "check-assoc": check_assoc,
}


def check(job, code, out, error=None):
    """None when the job's exit code and output are right, else why not.
    A job fails if it raised, exited 2, exited with a code its report
    contradicts, or returned a report the oracle rejects."""
    if error is not None:
        return f"raised {error}"
    if code not in (0, 1):
        return f"exit {code}"
    try:
        if job.kind == "trajectory":
            return check_trajectory(job, code, out)
        return CHECKS[job.kind](job, code, json.loads(out))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
