"""Toy two-party key agreement over a stratified operation on F_p^n.

Both parties share a public base vector and a public multiplier
stratum. Each walks the base through its own secret multiplier chain,
publishes the endpoint, then walks the other's endpoint through the
same secret chain. Same-stratum order independence makes the two
final values agree. This is explicitly a toy: the brute-force helper
demonstrates that desk-scale parameters fall to exhaustive search.
Sessions draw, check, label (rules.rule_label) and walk plain residues
and load no numpy; parties and transcripts hand out FieldElement tuples
when read. brute_force_recover imports strata and the kernels, and with
them numpy, when it runs.
"""

import json
import random

from .algebra import MAX_SECRET_LENGTH, _plain, model_to_json
from .axioms import _draw_direction, _place, require_rule
from .dynamics import ZERO_LABEL, _walk
from .field import _elements, _vec_json
from .rules import label_index_to_str, rule_label

# Exhaustive recovery is capped at this many candidate chains.
BRUTE_FORCE_CAP = 10 ** 6


def __getattr__(name):
    # kex.bulk_multiply stays the kernel, as perfbench's tracer tests read
    # it, but loads numpy only when asked for
    if name == "bulk_multiply":
        from ._kernels import bulk_multiply
        return bulk_multiply
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# parties and sessions


class Party:
    """One participant: a public shared base plus a private ordered
    chain of multipliers, all from one stratum that excludes the base.
    Base and secret are taken as FieldElements, ints or Fractions and held
    as plain values; base and secret read them as FieldElement tuples."""

    def __init__(self, name, base, secret, model):
        if not secret:
            raise ValueError(f"{name}: empty secret holds no agreement "
                             "material")
        op, rule, p = model.operation, model.strata_rule, model.field.p
        base = _plain(op, base)
        secret = [_plain(op, q) for q in secret]
        if not any(base):
            raise ValueError(f"{name}: base must be nonzero")
        labels = set()
        for q in secret:
            if not any(q):
                raise ValueError(f"{name}: zero secret multiplier")
            require_rule(model)  # after the zero check, as label_str was
            labels.add(rule_label(q, rule, p))
        if len(labels) > 1:
            raise ValueError(
                f"{name}: secret multipliers span strata {sorted(labels)}; "
                "order independence needs a single stratum")
        stratum = labels.pop()
        if rule_label(base, rule, p) == stratum:
            raise ValueError(
                f"{name}: base lies in the multiplier stratum {stratum}")
        self.name = name
        self._base = base
        self._secret = secret
        self.model = model
        self.stratum = stratum

    @property
    def base(self):
        return _elements(self.model.operation.plain.field, self._base)

    @property
    def secret(self):
        return [_elements(self.model.operation.plain.field, q)
                for q in self._secret]

    def __repr__(self):
        return (f"Party({self.name}, |secret|={len(self._secret)}, "
                f"stratum={self.stratum})")


def init_session(model, p_base, alice_secret, bob_secret,
                 names=("alice", "bob")):
    """Two parties sharing base and model, with disjoint secrets drawn
    from one common public stratum."""
    alice = Party(names[0], p_base, alice_secret, model)
    bob = Party(names[1], p_base, bob_secret, model)
    if alice.stratum != bob.stratum:
        raise ValueError(
            f"secret strata differ ({alice.stratum} vs {bob.stratum}); "
            "the commuting-chain argument needs one shared stratum")
    return alice, bob


class SessionTranscript:
    """Everything produced by one exchange. The public messages carry
    only base, S1 and S2; secrets never enter them."""

    def __init__(self, model, base, stratum, s1, s2, s12, s21, agreed,
                 path_strata, failure=None):
        self.model = model
        self.base = base
        self.stratum = stratum
        self.s1 = s1
        self.s2 = s2
        self.s12 = s12
        self.s21 = s21
        self.agreed = agreed
        self.path_strata = path_strata
        self.failure = failure
        self.redacted = False

    @property
    def public_messages(self):
        return [("setup", self.base),
                ("alice", self.s1),
                ("bob", self.s2)]

    def to_json(self):
        messages = [{"type": "pub", "sender": who, "vector": _vec_json(v)}
                    for who, v in self.public_messages]
        out = {
            "model": model_to_json(self.model),
            "stratum": self.stratum,
            "messages": messages,
            "agreed": self.agreed,
        }
        if self.redacted:
            out["redacted"] = True
            return out
        out["S12"] = _vec_json(self.s12) if self.s12 else None
        out["S21"] = _vec_json(self.s21) if self.s21 else None
        out["path_strata"] = self.path_strata
        if self.failure:
            out["failure"] = self.failure
        return out

    def serialize(self):
        return json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":"))


def run_exchange(alice, bob):
    """Announce S1 = base*alice_chain and S2 = base*bob_chain, then
    cross-derive S12 = S1*bob_chain and S21 = S2*alice_chain. Agreement
    means S12 = S21. A zero product anywhere voids the session. The
    walks run on the parties' plain values and label each distinct vector
    once through rule_label; the transcript holds FieldElements."""
    model = alice.model
    op, rule, p = model.operation, model.strata_rule, model.field.p
    labels = {}

    def label(v):
        got = labels.get(v)
        if got is None:
            got = labels[v] = rule_label(v, rule, p) if any(v) else ZERO_LABEL
        return got

    def walk(start, secret):
        # (final, per-step labels, cut by a zero product)
        values, path, _, cut = _walk(op, start, secret, label)
        return values[-1], path, cut

    s1, alice_announce, t1 = walk(alice._base, alice._secret)
    s2, bob_announce, t2 = walk(alice._base, bob._secret)
    failure = None
    s12 = s21 = None
    bob_derive, alice_derive = [], []
    if t1 or t2:
        failure = "zero product while announcing"
    else:
        s12, bob_derive, t12 = walk(s1, bob._secret)
        s21, alice_derive, t21 = walk(s2, alice._secret)
        if t12 or t21:
            failure = "zero product while deriving"
    agreed = failure is None and s12 == s21
    path_strata = {
        alice.name: {"announce": alice_announce, "derive": alice_derive},
        bob.name: {"announce": bob_announce, "derive": bob_derive},
    }
    s1, s2, s12, s21 = (v and _elements(op.plain.field, v)
                        for v in (s1, s2, s12, s21))  # None stays None
    return SessionTranscript(model, alice.base, alice.stratum, s1, s2, s12,
                             s21, agreed, path_strata, failure=failure)


def eavesdropper_view(transcript):
    """What the wire shows: base, S1, S2, model, public stratum.
    Idempotent; never carries secrets or derived keys."""
    view = SessionTranscript(
        transcript.model, transcript.base, transcript.stratum,
        transcript.s1, transcript.s2, None, None, transcript.agreed,
        path_strata=None)
    view.redacted = True
    return view


# ---------------------------------------------------------------------------
# seeded session material


def seeded_session(model, seed, lengths=(3, 4)):
    """Deterministic session over F_p: pick a multiplier stratum (a
    direction on the rule's coordinates) and a base outside it, then draw
    secret chains of the given lengths. Each vector draws its scale before
    its coordinates off the rule, the reverse of the axiom samplers; the
    seeded CLI sessions and recovery reports are pinned to this order."""
    p = model.field.p
    if p is None:
        raise ValueError("seeded sessions need a prime field")
    if max(lengths) > MAX_SECRET_LENGTH:
        raise ValueError(f"secret lengths must be at most {MAX_SECRET_LENGTH}")
    rng = random.Random(f"{seed}:kex")

    def on_direction(d):  # nonzero, as the scale and d are
        scale = rng.randrange(1, p)
        free = [rng.randrange(p) for _ in range(model.dimension - len(d))]
        return tuple(_place(model, free, scale, d))

    d = _draw_direction(model, rng)
    label = lambda v: rule_label(v, model.strata_rule, p)
    stratum = label(on_direction(d))
    base = on_direction(_draw_direction(model, rng))
    while label(base) == stratum:
        base = on_direction(_draw_direction(model, rng))
    alice_secret = [on_direction(d) for _ in range(lengths[0])]
    bob_secret = [on_direction(d) for _ in range(lengths[1])]
    return init_session(model, base, alice_secret, bob_secret)


# ---------------------------------------------------------------------------
# brute-force recovery demo


def brute_force_recover(model, view, max_len=2):
    """Exhaustive toy attack on a redacted transcript: enumerate every
    chain of nonzero vectors of length 1 or 2, keep those mapping the
    base to S1, and derive the would-be shared key from S2 for each.
    Candidates inside the public multiplier stratum are guaranteed to
    reproduce the real key (same-stratum order independence).

    Hits stay index rows into the nonzero vectors, length-1 chains and
    then length-2 chains, each in lex order. One bulk_multiply per chain
    column derives their keys from S2, and one label_indices call labels
    every candidate for in_stratum.

    Returns {"tried", "hits": [{"chain", "key", "in_stratum"}]}, chain
    members and keys as FieldElement tuples.
    """
    if max_len not in (1, 2):
        raise ValueError("the recovery demo searches chains of length "
                         "1 or 2 only")
    require_rule(model)
    import numpy as np
    from . import _kernels, strata
    field = model.field
    p = field.p
    n = model.dimension
    nonzero = p ** n - 1
    if nonzero + nonzero ** 2 > BRUTE_FORCE_CAP:
        raise ValueError("candidate space exceeds the brute-force cap; "
                         "this demo is for toy parameters")
    T, La, Lb = strata.to_dense_arrays(model.operation, p)
    V = strata.space_matrix(p, n)
    base, target, s2 = (np.array([int(x.value) % p for x in v], dtype=np.int64)
                        for v in (view.base, view.s1, view.s2))

    tried = nonzero
    step1 = _kernels.bulk_multiply(
        T, La, Lb, np.repeat(base[None], nonzero, axis=0), V, p)
    chains = [np.flatnonzero((step1 == target).all(axis=1))[:, None]]
    if max_len == 2:
        # idx[i, j] is the lex index of step1[i] * V[j]
        idx = _kernels.space_products(_kernels.left_tables(T, Lb, step1, p),
                                      step1 @ La % p, p)[:, 1:]
        tried += idx.size
        flat = np.flatnonzero(idx == _kernels.lex_indices(target[None], p)[0])
        chains.append(np.stack(np.divmod(flat, nonzero), axis=1))

    # public[i]: V[i] lies in the public stratum
    codes = strata.label_indices(V, p, model.strata_rule)
    public = np.array([label_index_to_str(c, p, model.strata_rule)
                       == view.stratum for c in range(codes.max() + 1)])[codes]
    vecs = [_elements(field, row) for row in V.tolist()]
    hits = []
    for chain in chains:
        keys = np.repeat(s2[None], len(chain), axis=0)
        for col in chain.T:
            keys = _kernels.bulk_multiply(T, La, Lb, keys, V[col], p)
        in_stratum = public[chain].all(axis=1)
        for row, key, inside in zip(chain.tolist(), keys.tolist(),
                                    in_stratum.tolist()):
            hits.append({
                "chain": [vecs[i] for i in row],
                "key": _elements(field, key),
                "in_stratum": inside,
            })
    return {"tried": tried, "hits": hits}
