"""Axiom verification for stratified models.

Four layered laws are checked per model: in-stratum commutativity,
associativity, and closure (SA1); cross-stratum asymmetry with an exhibited
non-associative triple (SA2); left-chain permutation invariance, equivalent
to the vanishing of the chain-order difference operator on co-stratal
multipliers (SA3); and bracket sensitivity with stratum-breaking landings
(SA4). Symbolic proofs expand a built-in's polynomial twin on operands
already bound to a shared direction; value-level checks sample seeded
vectors. The module also hosts the identity suite comparing each built-in
family's documented closed forms against direct expansion (the one place
that substitutes proportionality relations), and the five-scenario
associator analysis.
"""

import functools
import math
import random
from collections import namedtuple
from fractions import Fraction

from .poly import Polynomial
from .field import _vec_json
from .algebra import (
    BUILTIN_NAMES,
    AffineOperation,
    MAX_CHAIN,
    PARAM_LETTERS,
    associator,
    chain_orderings,
    commutator,
    coordinate_vars,
    is_zero_vector,
    iter_mismatches,
    lps,
    multiply,
    multiply_values,
    symbolic_components,
    symbolic_model,
)
from .rules import EXCEPTIONAL, constraint_for_label, \
    directions_proportional, rule_label, SPACE_CAP, _as_value

HOLDS = "holds"
FAILS = "fails"
SAMPLES = "holds-on-samples"
DEGENERATE = "degenerate"

GENERIC_RATE = Fraction(95, 100)  # "generic" = at least this share of samples

# Over a prime field every proper subvariety keeps density ~1/p, so a value
# clause that is "generically" true still trips on ~1/p of raw samples.
# Genericity is therefore judged per stratum configuration: a failing sample
# is retried with fresh scale factors on the same configuration, and only
# persistent violations count against the rate. Coincidences that disappear
# under rescaling are listed as exceptions, never silently dropped.
RETEST_SCALES = 8
RESOLUTIONS = {"transient": "coincidence: cleared by rescaling",
               "persistent": "persistent"}

# Largest sampling budget. Run time grows linearly with it: parametric4
# over Q with chains up to 6 took 21.6 s (32 MB ru_maxrss) at 2,000 samples
# on a 2-vCPU host.
MAX_SAMPLES = 2000


def _rated(configs, point, k=1):
    """Generic rates over sampled configurations. point(cfg) draws fresh
    scales on cfg and returns k verdicts, then whatever its caller needs for
    a note or witness. A verdict failing its first sample is retested alone
    on fresh draws. Returns each verdict's pass count and, per first-sample
    failure, (cfg, first result, 'transient' if a retest passed, i.e. the
    sample sat on a coincidence set, else 'persistent'). configs is read
    lazily: each is drawn after the retests of the one before."""
    passes = [0] * k
    failed = []
    for cfg in configs:
        first = point(cfg)
        for i in range(k):
            ok = first[i]
            if not ok:
                ok = any(point(cfg)[i] for _ in range(RETEST_SCALES))
                failed.append((cfg, first,
                               "transient" if ok else "persistent"))
            passes[i] += ok
    return passes, failed


class SamplingPlan:
    """Reproducible sampling budget for the axiom checks."""

    def __init__(self, samples=200, seed=0, chain_length_max=5):
        if samples < 1:
            raise ValueError("samples must be at least 1")
        if samples > MAX_SAMPLES:
            raise ValueError(f"samples must be at most {MAX_SAMPLES}")
        # SA4 brackets chains of at least three multipliers
        if not 3 <= chain_length_max <= MAX_CHAIN:
            raise ValueError(f"chain length bound must be in 3..{MAX_CHAIN}")
        self.samples = samples
        self.seed = seed
        self.chain_length_max = chain_length_max

    def rng(self, tag):
        """Independent deterministic stream per check."""
        return random.Random(f"{self.seed}:{tag}")


# ---------------------------------------------------------------------------
# Substitution templates

def shared_direction_subs(n, prefixes=("a", "b")):
    """Put every listed vector on one common direction of the tail, the
    coordinates of every built-in's rule: x_i -> s_x * d_i for i >= 1,
    heads x_0 free. Covers every stratum label at once, including the
    infinite branches, because no ratio is inverted."""
    binds = {}
    for x in prefixes:
        s = Polynomial.var(f"s_{x}")
        for i in range(1, n):
            binds[f"{x}{i}"] = s * Polynomial.var(f"d{i}")
    return binds


def ratio_subs(n, prefixes=("a", "b")):
    """Finite-label form of co-stratality: 3D x1 -> t1*x2; 4D x1 -> t1*t2*x3
    and x2 -> t2*x3, with the ratio symbols t1, t2 shared across vectors."""
    t1 = Polynomial.var("t1")
    t2 = Polynomial.var("t2")
    binds = {}
    for x in prefixes:
        if n == 3:
            binds[f"{x}1"] = t1 * Polynomial.var(f"{x}2")
        else:
            binds[f"{x}1"] = t1 * t2 * Polynomial.var(f"{x}3")
            binds[f"{x}2"] = t2 * Polynomial.var(f"{x}3")
    return binds


def _subbed(polys, binds):
    return [p.substitute(binds) for p in polys]


def _bound_operands(n, binds, prefixes=("a", "b", "c")):
    """Coordinate vectors x0..x{n-1}, one per prefix, with binds already
    applied. A form expanded on them is, term for term, the form expanded
    on free coordinates with binds substituted afterwards, but it never
    builds the free expansion's terms."""
    return [tuple(binds.get(f"{x}{i}", Polynomial.var(f"{x}{i}"))
                  for i in range(n)) for x in prefixes]


def _all_zero(polys):
    return all(p.is_zero() for p in polys)


# ---------------------------------------------------------------------------
# Seeded vector sampling
# A co-stratal vector varies on the declared rule's coordinates only: it is
# s * d there, for a direction d drawn on those coordinates, and free on the
# others. Every trial draws, multiplies and labels plain values, ints in
# [0, p) or Fractions (Field.sample_value, multiply_values, rule_label).

SAMPLE_BOUND = 20  # over Q: numerators in [-20, 20], denominators in [1, 20]


def _draw_direction(model, rng):
    """Nonzero direction on the rule's coordinates (2 for ratio, 3 for
    ratio-pair)."""
    require_rule(model)
    field = model.field
    k = len(model.strata_rule["coords"])
    while True:
        d = [field.sample_value(rng, SAMPLE_BOUND) for _ in range(k)]
        if any(d):
            return d


def _place(model, free, s, d):
    """The vector with s * d on the rule's coordinates and the values free
    on the others, in index order."""
    p = model.field.p
    v = [None] * model.dimension
    for i, x in zip(model.strata_rule["coords"], d):
        v[i] = s * x % p if p else s * x
    rest = iter(free)
    return [next(rest) if x is None else x for x in v]


def _draw_on_direction(model, rng, d):
    """Vector on direction d: the coordinates off the rule free, drawn in
    index order, then a nonzero scale."""
    field = model.field
    free = [field.sample_value(rng, SAMPLE_BOUND)
            for _ in range(model.dimension - len(d))]
    s = field.sample_value(rng, SAMPLE_BOUND)
    while not s:
        s = field.sample_value(rng, SAMPLE_BOUND)
    return _place(model, free, s, d)


def _draw_distinct_directions(model, rng, count):
    """count pairwise non-proportional directions, redrawing each candidate
    proportional to an earlier one. A rule has at least 2 coordinates, so
    even over F_2 there are 3 directions."""
    dirs = [_draw_direction(model, rng)]
    while len(dirs) < count:
        d = _draw_direction(model, rng)
        if not any(directions_proportional(d, e, model.field.p)
                   for e in dirs):
            dirs.append(d)
    return dirs


def _first_failure(model, rng, count, law, distinct=False):
    """law(a, b, c) on the first of count drawn triples where it is truthy
    (a failure), else None. a, b and c are co-stratal: all on one direction
    d, drawn first; with distinct, a on its own direction da and b, c on
    db, drawn as a pair first. Operands are plain value tuples."""
    for _ in range(count):
        if distinct:
            da, db = _draw_distinct_directions(model, rng, 2)
        else:
            da = db = _draw_direction(model, rng)
        failure = law(*(tuple(_draw_on_direction(model, rng, d))
                        for d in (da, db, db)))
        if failure:
            return failure
    return None


def _associates(op, a, b, c):
    """(ab)c == a(bc) on plain values."""
    return multiply_values(op, multiply_values(op, a, b), c) == \
        multiply_values(op, a, multiply_values(op, b, c))


def _swaps(op, a, b, c):
    """(ab)c == (ac)b on plain values: the chain-order difference is zero."""
    return multiply_values(op, multiply_values(op, a, b), c) == \
        multiply_values(op, multiply_values(op, a, c), b)


def _direction_draws(model, rng, count, trials):
    """Lazily, one list of count distinct directions per trial."""
    for _ in range(trials):
        yield _draw_distinct_directions(model, rng, count)


def require_rule(model):
    """Refuse a model without a declared strata rule: SA2-SA4, the case
    analysis and kex label by the rule, never by a discovered partition."""
    if model.strata_rule is None:
        raise ValueError(f"model {model.name or 'custom'} declares no strata "
                         "rule; SA2-SA4 and kex need one")


def label_str(model, v):
    """Stratum of v under the model's declared rule (require_rule)."""
    require_rule(model)
    p = model.field.p
    if any(_as_value(x) % p if p else x for x in v):  # ints may be unreduced
        return rule_label(v, model.strata_rule, p)
    return "zero"


# ---------------------------------------------------------------------------
# SA1: in-stratum commutativity, associativity, closure

def _symbolic_in_stratum(name, n):
    """Shared-direction proof of the three in-stratum laws for a built-in
    family with free parameter symbols (so it covers every specialization)."""
    op = symbolic_model(name).operation
    a, b, c = _bound_operands(n, shared_direction_subs(n, ("a", "b", "c")))
    prod = multiply(op, a, b)
    comm = [x - y for x, y in zip(prod, multiply(op, b, a))]
    crosses = []
    for i in range(1, n):
        for j in range(i + 1, n):
            di = Polynomial.var(f"d{i}")
            dj = Polynomial.var(f"d{j}")
            crosses.append(prod[i] * dj - prod[j] * di)
    assoc = [x - y for x, y in zip(multiply(op, prod, c),
                                   multiply(op, a, multiply(op, b, c)))]
    out, residuals = {}, {}
    for key, polys in (("commutative", comm), ("closed_direction", crosses),
                       ("associative", assoc)):
        out[key] = _all_zero(polys)
        if not out[key]:
            residuals[key] = [str(p) for p in polys if not p.is_zero()]
    return out, residuals


def _in_stratum_failure(op, a, b, c):
    """The sample gate's law on co-stratal a, b, c: ("commutator", a, b) or
    ("associator", a, b, c) for the first that fails, else None."""
    if multiply_values(op, a, b) != multiply_values(op, b, a):
        return "commutator", a, b
    if not _associates(op, a, b, c):
        return "associator", a, b, c
    return None


def check_sa1(model, strata=None, plan=None):
    """In-stratum laws. Symbolic shared-direction proof where the model has
    a built-in symbolic twin, plus per-stratum closure verdicts over prime
    fields (exhaustive for small strata, seeded sampling otherwise). The
    sample gate, count co-stratal triples that must commute and associate,
    is drawn where no proof holds: 100 triples behind a failed proof, the
    plan's budget for a model with no symbolic twin. After a proof that
    holds, `sample_gate` states what the proof implies, not what a run
    observed."""
    plan = plan or SamplingPlan()
    gate = functools.partial(_in_stratum_failure, model.operation)
    clauses = {}
    witnesses = []
    symbolic_ok = None
    if model.name in BUILTIN_NAMES:
        ok, residuals = _symbolic_in_stratum(model.name, model.dimension)
        symbolic_ok = all(ok.values())
        clauses["symbolic"] = {"laws": ok}
        if residuals:
            clauses["symbolic"]["residuals"] = residuals
        gate_wit = None if symbolic_ok else \
            _first_failure(model, plan.rng("SA1:gate"), 100, gate)
        clauses["symbolic"]["sample_gate"] = gate_wit is None
        if gate_wit:
            witnesses.append({"clause": "sample_gate",
                              "kind": gate_wit[0],
                              "vectors": [_vec_json(v) for v in gate_wit[1:]]})
    field = model.field
    if field.is_prime_field and field.p ** model.dimension <= SPACE_CAP:
        from .strata import ratio_partition, verify_closure  # loads numpy
        part = strata if strata is not None else ratio_partition(model)
        rng = plan.rng("SA1:closure")
        per_stratum = {}
        empirical_ok = True
        exhaustive = True
        in_ledger = lambda t: part.label_of(t) == EXCEPTIONAL
        for label, members in part.strata:
            constraint = in_ledger if part.provenance != "declared-ratio" \
                else constraint_for_label(model.strata_rule, label, field.p)
            rep = verify_closure(model.operation, members, field,
                                 constraint=constraint, rng=rng,
                                 triple_samples=plan.samples)
            per_stratum[label] = {
                "closed": rep.closed,
                "commutative": rep.commutative,
                "associative": rep.associative,
                "landings": rep.landings._asdict(),
                "counts": rep.counts,
            }
            if rep.counts["pair_mode"] != "exhaustive" or \
                    rep.counts["triple_mode"] != "exhaustive":
                exhaustive = False
            if not (rep.closed and rep.commutative and rep.associative):
                empirical_ok = False
                for clause, wit in rep.witnesses.items():
                    witnesses.append({"stratum": label, "clause": clause,
                                      "vectors": [_vec_json(v) if
                                                  isinstance(v, tuple) else v
                                                  for v in wit]})
        clauses["per_stratum"] = per_stratum
        if not empirical_ok:
            verdict = FAILS
        else:
            verdict = HOLDS if symbolic_ok or exhaustive else SAMPLES
    elif symbolic_ok is None:
        # no symbolic twin and no finite enumeration: sampled laws only
        gate_wit = _first_failure(model, plan.rng("SA1:gate"), plan.samples,
                                  gate)
        clauses["sampled"] = {"ok": gate_wit is None, "count": plan.samples}
        verdict = FAILS if gate_wit else SAMPLES
        if gate_wit:
            witnesses.append({"clause": gate_wit[0],
                              "vectors": [_vec_json(v) for v in gate_wit[1:]]})
    else:
        verdict = HOLDS if symbolic_ok else FAILS
    return {"axiom": "SA1", "verdict": verdict, "clauses": clauses,
            "witnesses": witnesses}


def _rated_report(clause, count_key, total, rated, exception, witness):
    """(clauses, verdict, witnesses) of a law rated on total configurations,
    rated being _rated's ((passes,), failed) over points that return (ok,
    note, x, y): the rate clause, the first ten exceptions as exception(cfg,
    note, x, y) plus their resolution, and, only when the rate falls short
    of GENERIC_RATE, witness(cfg, x, y) of the first persistent failure."""
    (ok_count,), failed = rated
    rate = Fraction(ok_count, total)
    ok = rate >= GENERIC_RATE
    clauses = {clause: {"rate": str(rate), "ok": ok, count_key: total}}
    exceptions = [{**exception(cfg, *res[1:]), "resolution": RESOLUTIONS[kind]}
                  for cfg, res, kind in failed[:10]]
    if exceptions:
        clauses["exceptions"] = exceptions
    persistent = [(cfg, *res[2:]) for cfg, res, kind in failed
                  if kind == "persistent"]
    witnesses = []
    if not ok and persistent:
        witnesses.append({"clause": clause, **witness(*persistent[0])})
    return clauses, SAMPLES if ok else FAILS, witnesses


# ---------------------------------------------------------------------------
# SA2: cross-stratum asymmetry

def _sa2_point(model, rng, da, db):
    """(ok, note, a, b) for a on direction da and b on db, fresh scales."""
    op = model.operation
    a = _draw_on_direction(model, rng, da)
    b = _draw_on_direction(model, rng, db)
    ab = multiply_values(op, a, b)
    if multiply_values(op, b, a) == ab:
        return False, "pair commutes", a, b
    if is_zero_vector(ab):
        return False, "product is zero", a, b
    la, lb, lab = (label_str(model, v) for v in (a, b, ab))
    if lab in (la, lb):
        return False, f"product stayed in stratum {lab}", a, b
    return True, None, a, b


def check_sa2(model, plan=None):
    """Sampled cross-stratum pairs must not commute and must land outside
    both operand strata; separately, a non-associative triple is exhibited
    (degenerate for globally associative models). Each trial fixes a pair of
    stratum directions; coincidental violations at single points are
    retested with fresh scales before counting."""
    plan = plan or SamplingPlan()
    rng = plan.rng("SA2")
    trials = plan.samples
    draws = _direction_draws(model, rng, 2, trials)
    clauses, verdict, witnesses = _rated_report(
        "cross_stratum_asymmetry", "trials", trials,
        _rated(enumerate(draws), lambda cfg: _sa2_point(model, rng, *cfg[1])),
        lambda cfg, note, a, b: {"trial": cfg[0], "a": _vec_json(a),
                                 "b": _vec_json(b), "note": note},
        lambda cfg, a, b: {"vectors": [_vec_json(a), _vec_json(b)]})
    triple = _non_associative_triple(model, plan.rng("SA2:triple"),
                                     plan.samples)
    clauses["non_associative_triple"] = triple
    if triple["status"] == HOLDS:
        witnesses.append({"clause": "non_associative_triple",
                          "vectors": triple["witness"]})
    return {"axiom": "SA2", "verdict": verdict, "clauses": clauses,
            "witnesses": witnesses}


def _non_associative_triple(model, rng, samples):
    """Exhibit (a, b, c) with a nonzero associator, or report the model
    globally associative (bilinear tensor criterion) as degenerate."""
    op = model.operation
    field = model.field
    n = model.dimension
    if op.is_bilinear:
        mism = next(iter_mismatches(op), None)
        if mism is None:
            return {"status": DEGENERATE, "note": "globally associative"}
        basis = [[int(idx == i) for i in range(n)]
                 for idx in (mism.i, mism.j, mism.k)]
        assert not _associates(op, *basis)
        return {"status": HOLDS, "witness": [_vec_json(v) for v in basis]}
    for _ in range(samples):
        vs = [[field.sample_value(rng, SAMPLE_BOUND) for _ in range(n)]
              for _ in range(3)]
        if not _associates(op, *vs):
            return {"status": HOLDS, "witness": [_vec_json(v) for v in vs]}
    return {"status": DEGENERATE,
            "note": f"no non-associative triple in {samples} samples"}


# ---------------------------------------------------------------------------
# SA3: chain permutation invariance

def _symbolic_lps_costratal(name, n):
    """Chain-order difference with the first operand free and the two
    multipliers on a shared direction: must vanish identically."""
    a, b, c = _bound_operands(n, shared_direction_subs(n, ("b", "c")))
    comps = lps(symbolic_model(name).operation, a, b, c)
    return _all_zero(comps), [str(p) for p in comps if not p.is_zero()]


def _chain_agreement(model, rng, m, trials):
    """Over trials drawn (base, m co-stratal multipliers off the base's
    stratum): how many agree on every left-chain ordering, and the first
    (base, mults) that does not, or None."""
    agreed = 0
    first_disagreement = None
    for da, db in _direction_draws(model, rng, 2, trials):
        base = _draw_on_direction(model, rng, da)
        mults = [_draw_on_direction(model, rng, db) for _ in range(m)]
        values = {v for _, v in chain_orderings(model.operation, base, mults)}
        if len(values) == 1:
            agreed += 1
        elif first_disagreement is None:
            first_disagreement = base, mults
    return agreed, first_disagreement


def check_sa3(model, plan=None):
    """(i) The chain-order difference operator vanishes for co-stratal
    multiplier pairs — proved symbolically when a symbolic twin exists,
    spot-checked on samples. (ii) All m! orderings of a left chain with
    co-stratal multipliers agree, for m up to the plan's chain bound."""
    plan = plan or SamplingPlan()
    n = model.dimension
    clauses = {}
    witnesses = []
    sym_ok = None
    if model.name in BUILTIN_NAMES:
        sym_ok, residuals = _symbolic_lps_costratal(model.name, n)
        clauses["lps_symbolic"] = {"ok": sym_ok}
        if residuals:
            clauses["lps_symbolic"]["residuals"] = residuals
    op = model.operation
    # a off the stratum of b and c
    lps_fail = _first_failure(
        model, plan.rng("SA3:lps"), min(plan.samples, 100),
        lambda a, b, c: None if _swaps(op, a, b, c) else (a, b, c),
        distinct=True)
    clauses["lps_pointwise"] = {"ok": lps_fail is None}
    if lps_fail:
        witnesses.append({"clause": "lps_pointwise",
                          "vectors": [_vec_json(v) for v in lps_fail]})
    rng = plan.rng("SA3:chains")
    chain_ok = True
    per_m = {}
    trials = max(10, plan.samples // 10)
    for m in range(2, plan.chain_length_max + 1):
        agreed, disagreement = _chain_agreement(model, rng, m, trials)
        if disagreement and chain_ok:
            chain_ok = False
            base, mults = disagreement
            witnesses.append({
                "clause": f"chain_orderings_m{m}",
                "vectors": [_vec_json(base)] + [_vec_json(v) for v in mults]})
        per_m[str(m)] = {"orderings": math.factorial(m), "trials": trials,
                         "agreed": agreed}
    clauses["chain_orderings"] = per_m
    all_ok = clauses["lps_pointwise"]["ok"] and chain_ok and sym_ok is not False
    if not all_ok:
        verdict = FAILS
    elif sym_ok:
        verdict = HOLDS
    else:
        verdict = SAMPLES
    return {"axiom": "SA3", "verdict": verdict, "clauses": clauses,
            "witnesses": witnesses}


# ---------------------------------------------------------------------------
# SA4: bracket sensitivity

def _sa4_point(model, rng, m, split, da, db):
    """(ok, note, base, mults): base on direction db, m multipliers on da,
    the chain bracketed after its first split multipliers."""
    mul = functools.partial(multiply_values, model.operation)
    base = _draw_on_direction(model, rng, db)
    mults = [_draw_on_direction(model, rng, da) for _ in range(m)]
    la = label_str(model, mults[0])
    lb = label_str(model, base)
    head = functools.reduce(mul, mults[:split], base)  # left chains
    left = functools.reduce(mul, mults[split:], head)
    tail = functools.reduce(mul, mults[split + 1:], mults[split])
    bracketed = mul(head, tail)
    if bracketed == left:
        return False, "bracketed value equals the left chain", base, mults
    if is_zero_vector(bracketed):
        return False, "bracketed value is zero", base, mults
    lg = label_str(model, bracketed)
    if lg in (la, lb):
        return False, f"bracketed value stayed in stratum {lg}", base, mults
    return True, None, base, mults


def check_sa4(model, plan=None):
    """For sampled chains with co-stratal multipliers, every bracketing that
    groups a tail segment must differ from the left chain and land outside
    both operand strata. Degenerate for globally associative models.
    Point coincidences are retested with fresh scales per configuration."""
    plan = plan or SamplingPlan()
    op = model.operation
    if op.is_bilinear and next(iter_mismatches(op), None) is None:
        return {"axiom": "SA4", "verdict": DEGENERATE,
                "clauses": {"note": "globally associative: every bracketing "
                                    "agrees, bracket sensitivity is empty"},
                "witnesses": []}
    rng = plan.rng("SA4")
    chain_lengths = range(3, plan.chain_length_max + 1)
    trials = max(20, plan.samples // (plan.chain_length_max - 2))

    def configs():
        # one direction pair per (m, trial), shared by its splits
        for m in chain_lengths:
            draws = _direction_draws(model, rng, 2, trials)
            for t, (da, db) in enumerate(draws):
                for split in range(1, m - 1):
                    yield m, t, split, da, db

    clauses, verdict, witnesses = _rated_report(
        "bracket_sensitivity", "checks",
        trials * sum(m - 2 for m in chain_lengths),
        _rated(configs(),
               lambda cfg: _sa4_point(model, rng, cfg[0], *cfg[2:])),
        lambda cfg, why, base, mults: {
            "m": cfg[0], "split": cfg[2], "trial": cfg[1], "note": why,
            "base": _vec_json(base),
            "multipliers": [_vec_json(v) for v in mults]},
        lambda cfg, base, mults: {
            "split": cfg[2],
            "vectors": [_vec_json(v) for v in (base, *mults)]})
    return {"axiom": "SA4", "verdict": verdict, "clauses": clauses,
            "witnesses": witnesses}


# ---------------------------------------------------------------------------
# Classification

def classify(reports):
    """Highest rung of the hierarchy whose axioms are satisfied, treating
    holds-on-samples as satisfied (the verdict strings keep the distinction
    visible). SA2's existential clause is reported but does not gate the
    value-level verdict."""
    sat = {}
    for key in ("SA1", "SA2", "SA3", "SA4"):
        sat[key] = reports[key]["verdict"] in (HOLDS, SAMPLES)
    if sat["SA1"] and sat["SA2"]:
        if sat["SA3"]:
            if sat["SA4"]:
                return "fully"
            return "symmetric"
        return "weak"
    return "none"


def axiom_report(model, plan=None, strata=None):
    """Full SA1-SA4 run with classification; JSON-ready."""
    plan = plan or SamplingPlan()
    reports = {
        "SA1": check_sa1(model, strata, plan),
        "SA2": check_sa2(model, plan),
        "SA3": check_sa3(model, plan),
        "SA4": check_sa4(model, plan),
    }
    witnesses = []
    for key in ("SA1", "SA2", "SA3", "SA4"):
        for w in reports[key]["witnesses"]:
            witnesses.append({"axiom": key, **w})
    return {
        "model": model.name or "custom",
        "field": repr(model.field),
        "seed": plan.seed,
        "samples": plan.samples,
        "axioms": reports,
        "classification": classify(reports),
        "witnesses": witnesses,
    }


# ---------------------------------------------------------------------------
# Identity suite: documented closed forms vs direct expansion

IdentityResult = namedtuple("IdentityResult", "name matches difference note")


def _letters():
    return tuple(Polynomial.var(k) for k in PARAM_LETTERS)


def _coords(n):
    return tuple(coordinate_vars(x, n) for x in "abc")


def _rows_3d():
    """(name, direct expansion, closed form) of parametric3, whose
    specialization basic3 shares them."""
    sm = symbolic_model("parametric3")
    A, B, C, D, E, F = _letters()
    a, b, c = _coords(3)
    a0, a1, a2 = a
    b0, b1, b2 = b
    c0, c1, c2 = c
    w_ab = a2 * b1 - a1 * b2
    w_bc = b1 * c2 - b2 * c1
    return [
        ("commutator_direction_3d", symbolic_components(sm, "commutator"),
         [w_ab * (C - D), w_ab * (2 * E), w_ab * (2 * F)]),
        ("associator_expansion_3d", symbolic_components(sm, "associator"), [
            A * E * (w_ab * c1 + a1 * w_bc) + B * F * (w_ab * c2 + a2 * w_bc)
            + C * (F * w_ab * c1 + E * a2 * w_bc)
            + D * (E * w_ab * c2 + F * a1 * w_bc),
            B * (a2 * c1 - a1 * c2) * b2 + C * w_ab * c1
            + D * (b2 * c1 - b1 * c2) * a1
            + E * E * (a1 * c2 - a2 * c1) * b2
            + E * F * (a2 * c1 - a1 * c2) * b1,
            A * (a1 * c2 - a2 * c1) * b1 + C * w_bc * a2
            + D * (a1 * b2 - a2 * b1) * c2
            + F * F * (a2 * c1 - a1 * c2) * b1
            + E * F * (a1 * c2 - a2 * c1) * b2,
        ]),
        ("lps_expansion_3d", symbolic_components(sm, "lps"), [
            w_bc * ((D - C) * a0 + (A * E + C * F) * a1
                    + (B * F + D * E) * a2),
            (b2 * c1 - b1 * c2) * (2 * E * a0 + (D - E * F) * a1
                                   + (B + E * E) * a2),
            w_bc * ((-2) * F * a0 + (A + F * F) * a1 + (C - E * F) * a2),
        ]),
    ]


def _rows_4d():
    """(name, direct expansion, closed form[, note]) of parametric4."""
    sm = symbolic_model("parametric4")
    A, B, C, D, E, F = _letters()
    a, b, c = _coords(4)
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    c0, c1, c2, c3 = c
    assoc = symbolic_components(sm, "associator")
    assoc_form = [
        A * (E - F) * c1 * (a1 * b3 - a3 * b1)
        + B * (C + D) * c2 * (a3 * b2 - a2 * b3)
        + C * F * (a3 * b1 * c2 - a1 * b2 * c3)
        + D * E * (a3 * b2 * c1 - a2 * b1 * c3),
        D * F * (a3 * b3 * c1 - a1 * b3 * c3)
        + (E - F) * (a2 * b1 - a1 * b2) * c1,
        D * F * (a3 * b3 * c2 - a2 * b3 * c3)
        + (C + D) * (a1 * b2 - a2 * b1) * c2,
        (C + D) * (a1 * b2 * c3 - a3 * b1 * c2)
        + (E - F) * (a2 * b1 * c3 - a3 * b2 * c1),
    ]
    binds = ratio_subs(4, ("b", "c"))
    return [
        ("commutator_direction_4d", symbolic_components(sm, "commutator"), [
            (C - E) * (a1 * b2 - a2 * b1),
            (-2) * B * (a2 * b3 - a3 * b2) + (D - F) * (a1 * b3 - a3 * b1),
            2 * A * (a1 * b3 - a3 * b1) - (D - F) * (a2 * b3 - a3 * b2),
            2 * (a1 * b2 - a2 * b1),
        ]),
        ("associator_reduced_4d", assoc, assoc_form,
         "closed form assumes the last two operands are co-stratal; raw "
         "difference recorded"),
        ("associator_reduced_4d_costratal", _subbed(assoc, binds),
         _subbed(assoc_form, binds)),
        ("lps_component0_4d", symbolic_components(sm, "lps")[:1], [
            2 * A * B * a1 * (b3 * c2 - b2 * c3)
            + 2 * A * B * a2 * (b1 * c3 - b3 * c1)
            + 2 * A * B * a3 * (b2 * c1 - b1 * c2)
            + A * D * a1 * (b3 * c1 - b1 * c3)
            + A * E * a1 * (b3 * c1 - b1 * c3)
            + B * C * a2 * (b2 * c3 - b3 * c2)
            + B * F * a2 * (b3 * c2 - b2 * c3)
            + C * D * a1 * (b3 * c2 - b2 * c3)
            + C * F * a3 * (b1 * c2 - b2 * c1)
            + C * a0 * (b1 * c2 - b2 * c1)
            + D * E * a3 * (b2 * c1 - b1 * c2)
            + E * F * a2 * (b3 * c1 - b1 * c3)
            + E * a0 * (b2 * c1 - b1 * c2),
        ]),
    ]


def _rows_nonlinear3():
    """(name, direct expansion, closed form) of nonlinear3."""
    sm = symbolic_model("nonlinear3")
    A, B, C, D, E, F = _letters()
    a, b, c = _coords(3)
    w_ab = a[2] * b[1] - a[1] * b[2]
    bl = AffineOperation(sm.operation.bilinear, zero=Polynomial())
    return [
        ("commutator_direction_nl3", symbolic_components(sm, "commutator"),
         [w_ab * (C - D), w_ab * (2 * E), w_ab * ((-2) * F)]),
        # the affine layer cancels in the associator: it equals the
        # associator of the bilinear part alone
        ("associator_equals_bilinear_part_nl3",
         associator(sm.operation, a, b, c), associator(bl, a, b, c)),
        # chain-order difference = bilinear chain-order difference plus the
        # commutator of the two multipliers under the bilinear part
        ("lps_decomposition_nl3", lps(sm.operation, a, b, c),
         [x + y for x, y in zip(lps(bl, a, b, c), commutator(bl, b, c))]),
    ]


_IDENTITY_ROWS = {"basic3": _rows_3d, "parametric3": _rows_3d,
                  "parametric4": _rows_4d, "nonlinear3": _rows_nonlinear3}


def verify_identity_suite(name):
    """Compare each documented closed form shipped with a built-in family
    against direct symbolic expansion. Differences are archived verbatim in
    the result, never corrected."""
    if name not in _IDENTITY_ROWS:
        raise ValueError(f"no identity suite for model {name!r}")
    return [_compare(*row) for row in _IDENTITY_ROWS[name]()]


def _compare(name, direct, form, note=None):
    diffs = [d - f for d, f in zip(direct, form)]
    matches = all(p.is_zero() for p in diffs)
    difference = None if matches else [str(p) for p in diffs]
    return IdentityResult(name, matches, difference, note)


def identity_suite_json(name):
    return [{"name": r.name, "matches": r.matches,
             **({"difference": r.difference} if r.difference else {}),
             **({"note": r.note} if r.note else {})}
            for r in verify_identity_suite(name)]


# ---------------------------------------------------------------------------
# Five-scenario associator analysis

def _case2_point(model, rng, dirs):
    """(noncommutative, associator nonzero, lps nonzero, landed outside
    the operands' strata) for a, b, c on three distinct directions."""
    mul = functools.partial(multiply_values, model.operation)
    a, b, c = (_draw_on_direction(model, rng, d) for d in dirs)
    ab, bc, ac = mul(a, b), mul(b, c), mul(a, c)
    nc = ab != mul(b, a) and bc != mul(c, b) and ac != mul(c, a)
    u, v, w = mul(ab, c), mul(a, bc), mul(ac, b)
    labels = {label_str(model, x) for x in (a, b, c)}
    landed = [x for x in (u, v, w) if not is_zero_vector(x)]
    out = bool(landed) and all(label_str(model, x) not in labels
                               for x in landed)
    return (nc, u != v, u != w, out)


def _case3_point(model, rng, da, db, gammas, deltas):
    """(associator nonzero, b*c in b's stratum, (ab)c and a(bc) both
    outside the operands' strata) for a on da and b, c on db; the strata of
    landings outside go into gammas and deltas."""
    mul = functools.partial(multiply_values, model.operation)
    a, b, c = (_draw_on_direction(model, rng, d) for d in (da, db, db))
    la = label_str(model, a)
    lb = label_str(model, b)
    bc = mul(b, c)
    bc_in = is_zero_vector(bc) or label_str(model, bc) == lb
    u = mul(mul(a, b), c)
    v = mul(a, bc)
    gd_out = False
    if not is_zero_vector(u) and not is_zero_vector(v):
        lg, ld = label_str(model, u), label_str(model, v)
        if lg not in (la, lb) and ld not in (la, lb):
            gd_out = True
            gammas.add(lg)
            deltas.add(ld)
    return (u != v, bc_in, gd_out)


def _case5_point(model, rng, da, db):
    """(ab)(cd) differs from ((ab)c)d, a on da and b, c, d on db."""
    mul = functools.partial(multiply_values, model.operation)
    a = _draw_on_direction(model, rng, da)
    b, c, d = (_draw_on_direction(model, rng, db) for _ in range(3))
    ab = mul(a, b)
    return (mul(ab, mul(c, d)) != mul(mul(ab, c), d),)


def case_analysis(model, plan=None):
    """Behavior of associator and chain-order difference across the five
    canonical operand configurations: all co-stratal; all distinct;
    multipliers aligned; permutation symmetry; bracket-sensitive splits."""
    plan = plan or SamplingPlan()
    n = model.dimension
    report = {}

    if model.name in BUILTIN_NAMES:
        sop = symbolic_model(model.name).operation
        a, b, c = _bound_operands(n, shared_direction_subs(n, ("a", "b", "c")))
        u = multiply(sop, multiply(sop, a, b), c)
        report["case1"] = {
            "associator_zero": u == multiply(sop, a, multiply(sop, b, c)),
            "lps_zero": u == multiply(sop, multiply(sop, a, c), b),
            "mode": "symbolic"}
        lps_al, _res = _symbolic_lps_costratal(model.name, n)
    else:
        op = model.operation
        ok = not _first_failure(
            model, plan.rng("case1"), plan.samples,
            lambda a, b, c: not (_associates(op, a, b, c)
                                 and _swaps(op, a, b, c)))
        report["case1"] = {"associator_zero": ok, "lps_zero": ok,
                           "mode": "sampled"}
        lps_al = None

    rng = plan.rng("case2")
    trials = plan.samples

    # each of the four predicates is retested on its own draws
    tallies, failed = _rated(_direction_draws(model, rng, 3, trials),
                             lambda dirs: _case2_point(model, rng, dirs), k=4)
    nc, an, ln, out = tallies
    report["case2"] = {
        "noncommutative_rate": str(Fraction(nc, trials)),
        "associator_nonzero_rate": str(Fraction(an, trials)),
        "lps_nonzero_rate": str(Fraction(ln, trials)),
        "outside_all_strata_rate": str(Fraction(out, trials)),
        "coincidences_rescaled": sum(kind == "transient"
                                     for _, _, kind in failed),
        "generic": min(tallies) >= trials * GENERIC_RATE,
    }

    rng = plan.rng("case3")
    gammas = set()
    deltas = set()

    tallies, _ = _rated(
        _direction_draws(model, rng, 2, trials),
        lambda cfg: _case3_point(model, rng, *cfg, gammas, deltas), k=3)
    an, bc_in, gd_out = tallies
    report["case3"] = {
        "associator_nonzero_rate": str(Fraction(an, trials)),
        "lps_zero_symbolic": lps_al,
        "product_stays_in_multiplier_stratum_rate": str(Fraction(bc_in,
                                                                 trials)),
        "landing_outside_rate": str(Fraction(gd_out, trials)),
        "landing_strata_constant": len(gammas) == 1 and len(deltas) == 1,
        "generic": min(tallies) >= trials * GENERIC_RATE,
    }

    agreed, _ = _chain_agreement(model, plan.rng("case4"), 3, trials)
    report["case4"] = {"permutation_agreement_rate":
                       str(Fraction(agreed, trials)),
                       "ok": agreed == trials}

    rng = plan.rng("case5")

    (differs,), _ = _rated(_direction_draws(model, rng, 2, trials),
                           lambda cfg: _case5_point(model, rng, *cfg))
    report["case5"] = {"bracketing_differs_rate": str(Fraction(differs,
                                                               trials)),
                       "generic": differs >= trials * GENERIC_RATE}
    return report
