"""Toy key agreement: sessions, transcripts, redaction, brute force."""

import hashlib
import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from stratalg import (
    Field,
    FieldElement,
    brute_force_recover,
    builtin_model,
    eavesdropper_view,
    enumerate_space,
    init_session,
    kex,
    left_chain,
    multiply,
    run_exchange,
    seeded_session,
    vector,
)
from stratalg.algebra import is_zero_vector
from stratalg.axioms import _draw_direction, _place, label_str
from stratalg.dynamics import chain_path
from stratalg.field import _elements
from stratalg.kex import Party, _vec_json


@pytest.fixture(scope="module")
def model5(f5):
    return builtin_model("parametric3", params=(2, 3, 1, 4, 1, 2), field=f5)


def test_party_validation(model5, f5):
    base = vector(f5, (2, 0, 1))
    good = [vector(f5, (1, 2, 2))]
    with pytest.raises(ValueError):
        Party("a", base, [], model5)
    with pytest.raises(ValueError):
        Party("a", vector(f5, (0, 0, 0)), good, model5)
    with pytest.raises(ValueError):
        Party("a", base, [vector(f5, (0, 0, 0))], model5)
    with pytest.raises(ValueError) as err:
        Party("a", base, [vector(f5, (1, 2, 2)), vector(f5, (1, 0, 1))],
              model5)
    assert "span strata" in str(err.value)
    with pytest.raises(ValueError) as err:
        # base sits inside the multiplier stratum
        Party("a", vector(f5, (0, 1, 1)), good, model5)
    assert "multiplier stratum" in str(err.value)
    with pytest.raises(ValueError):
        init_session(model5, base, [vector(f5, (1, 2, 2))],
                     [vector(f5, (1, 0, 1))])  # strata differ


def test_exchange_agreement_and_paths(model5, f5):
    alice, bob = init_session(
        model5, vector(f5, (2, 0, 1)),
        [vector(f5, (1, 2, 2)), vector(f5, (0, 3, 3))],
        [vector(f5, (2, 1, 1)), vector(f5, (4, 4, 4)), vector(f5, (3, 2, 2))])
    t = run_exchange(alice, bob)
    assert t.agreed
    assert t.failure is None
    assert t.s12 == t.s21
    # the shared value is the full six-multiplier chain from the base
    assert t.s12 == left_chain(model5.operation, alice.base,
                               alice.secret + bob.secret)
    paths = t.path_strata
    assert set(paths) == {"alice", "bob"}
    assert len(paths["alice"]["announce"]) == len(alice.secret) + 1
    assert len(paths["bob"]["derive"]) == len(bob.secret) + 1
    assert paths["alice"]["announce"][0] == "0"  # the base label


def test_seeded_sessions_agree(nonlinear19, nonlinear23):
    for model in (nonlinear19, nonlinear23):
        for seed in range(20):
            alice, bob = seeded_session(model, seed, lengths=(3, 4))
            t = run_exchange(alice, bob)
            assert t.agreed, (model.name, seed)
            assert t.s12 == t.s21


def test_seeded_session_determinism(nonlinear19):
    a1, b1 = seeded_session(nonlinear19, 5)
    a2, b2 = seeded_session(nonlinear19, 5)
    a3, _ = seeded_session(nonlinear19, 6)
    assert a1.base == a2.base and a1.secret == a2.secret
    assert b1.secret == b2.secret
    assert (a1.base, a1.secret) != (a3.base, a3.secret)
    assert label_str(nonlinear19, a1.base) != a1.stratum


def test_transcript_json_shape(model5, f5):
    alice, bob = init_session(
        model5, vector(f5, (2, 0, 1)),
        [vector(f5, (1, 2, 2))], [vector(f5, (2, 1, 1))])
    t = run_exchange(alice, bob)
    obj = t.to_json()
    assert [m["sender"] for m in obj["messages"]] == ["setup", "alice", "bob"]
    assert all(m["type"] == "pub" for m in obj["messages"])
    assert obj["messages"][0]["vector"] == ["2", "0", "1"]
    assert obj["agreed"] is True
    assert obj["S12"] == obj["S21"] == [str(x) for x in t.s12]
    assert "failure" not in obj
    json.loads(t.serialize())


def test_zero_while_announcing(model5, f5):
    # (0,1,2) * (1,0,1) = 0: the very first announcement dies
    alice, bob = init_session(model5, vector(f5, (0, 1, 2)),
                              [vector(f5, (1, 0, 1))],
                              [vector(f5, (1, 0, 1))])
    t = run_exchange(alice, bob)
    assert not t.agreed
    assert t.failure == "zero product while announcing"
    assert t.s12 is None and t.s21 is None
    assert t.path_strata["alice"]["announce"] == ["3", "zero"]
    assert t.to_json()["failure"] == t.failure


def test_zero_while_deriving(model5, f5):
    # base*(0,1,1) is nonzero but (base*(0,1,1))*(0,1,1) is exactly zero
    alice, bob = init_session(model5, vector(f5, (1, 0, 0)),
                              [vector(f5, (0, 1, 1))],
                              [vector(f5, (0, 1, 1))])
    t = run_exchange(alice, bob)
    assert not t.agreed
    assert t.failure == "zero product while deriving"
    assert t.path_strata["alice"]["announce"][-1] != "zero"
    assert t.path_strata["alice"]["derive"][-1] == "zero"


def test_redaction_hides_everything_private(nonlinear19):
    alice, bob = seeded_session(nonlinear19, 3)
    t = run_exchange(alice, bob)
    view = eavesdropper_view(t)
    assert view.redacted
    obj = view.to_json()
    assert obj["redacted"] is True
    for key in ("S12", "S21", "path_strata", "failure"):
        assert key not in obj
    # redaction is idempotent
    again = eavesdropper_view(view)
    assert again.to_json() == obj
    # no secret multiplier (nor the derived key) appears in the wire blob
    blob = view.serialize()
    fragment = lambda v: json.dumps(_vec_json(v), separators=(",", ":"))
    for q in alice.secret + bob.secret:
        assert fragment(q) not in blob
    assert fragment(t.s12) not in blob
    # while the honest public pieces do appear
    assert fragment(t.base) in blob
    assert fragment(t.s1) in blob


def test_brute_force_recovers_the_key(model5, f5):
    alice, bob = init_session(
        model5, vector(f5, (2, 0, 1)),
        [vector(f5, (1, 2, 2)), vector(f5, (0, 3, 3))],
        [vector(f5, (2, 1, 1)), vector(f5, (4, 4, 4)), vector(f5, (3, 2, 2))])
    t = run_exchange(alice, bob)
    rec = brute_force_recover(model5, eavesdropper_view(t), max_len=2)
    assert rec["tried"] == 124 + 124 ** 2
    assert rec["hits"]
    in_stratum = [h for h in rec["hits"] if h["in_stratum"]]
    assert in_stratum
    # every in-stratum chain that reproduces S1 yields the true key
    assert all(h["key"] == t.s12 for h in in_stratum)
    # chains outside the stratum can match S1 yet derive a wrong key
    assert any(h["key"] != t.s12 for h in rec["hits"])
    for h in in_stratum:
        assert left_chain(model5.operation, alice.base, h["chain"]) == t.s1


def test_brute_force_length_one(model5, f5):
    alice, bob = init_session(model5, vector(f5, (2, 0, 1)),
                              [vector(f5, (1, 2, 2))],
                              [vector(f5, (2, 1, 1))])
    t = run_exchange(alice, bob)
    rec = brute_force_recover(model5, eavesdropper_view(t), max_len=1)
    assert rec["tried"] == 124
    assert any(h["in_stratum"] and h["key"] == t.s12 for h in rec["hits"])


def test_brute_force_guards(model5, nonlinear23):
    alice, bob = seeded_session(nonlinear23, 1)
    t = run_exchange(alice, bob)
    with pytest.raises(ValueError):
        brute_force_recover(nonlinear23, eavesdropper_view(t))  # over cap
    alice5, bob5 = init_session(model5, vector(model5.field, (2, 0, 1)),
                                [vector(model5.field, (1, 2, 2))],
                                [vector(model5.field, (2, 1, 1))])
    t5 = run_exchange(alice5, bob5)
    with pytest.raises(ValueError):
        brute_force_recover(model5, eavesdropper_view(t5), max_len=3)


# SHA-256 of brute_force_recover's full hit list (every chain in search
# order, its key and in_stratum) for the benchmark's two recovery sessions,
# seed 0, lengths 2,2; frozen from the repeat/tile search over all pairs
GOLDEN_RECOVERY = [
    ("parametric3", (2, 3, 1, 4, 1, 2), 5, 15500,
     "812fd2ef904299c8a35f9f4a6f1b79498190f78c1bd3b57b485bb53fb2a5c4db"),
    ("nonlinear3", (2, 3, 5, 4, 6, 1), 7, 117306,
     "34c0152e5d5d7afb2a123b20038ce42168527f93081def84af37b64c49571b7a"),
]


@pytest.mark.parametrize("name,params,p,tried,digest", GOLDEN_RECOVERY,
                         ids=[f"{g[0]}-f{g[2]}" for g in GOLDEN_RECOVERY])
def test_recovery_hits_match_golden_digest(name, params, p, tried, digest):
    model = builtin_model(name, params=params, field=Field(p))
    t = run_exchange(*seeded_session(model, 0, lengths=(2, 2)))
    rec = brute_force_recover(model, eavesdropper_view(t), max_len=2)
    hits = [{"chain": [_vec_json(q) for q in h["chain"]],
             "key": _vec_json(h["key"]), "in_stratum": h["in_stratum"]}
            for h in rec["hits"]]
    text = json.dumps(hits, sort_keys=True, separators=(",", ":"))
    assert rec["tried"] == tried
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def per_hit_reference(model, view, chains):
    """The per-hit loop brute_force_recover ran before it labeled on
    arrays: each key a left_chain from S2 through FieldElement multiply,
    in_stratum from label_str of every chain member."""
    hits = []
    for chain in chains:
        assert left_chain(model.operation, view.base, chain) == view.s1
        key = left_chain(model.operation, tuple(view.s2), chain)
        labels = {label_str(model, q) for q in chain}
        hits.append({"chain": chain, "key": tuple(key),
                     "in_stratum": labels == {view.stratum}})
    return hits


def recovery_cases():
    for name, params, p in (("parametric3", (2, 3, 1, 4, 1, 2), 5),
                            ("nonlinear3", (2, 3, 5, 4, 6, 1), 7)):
        model = builtin_model(name, params=params, field=Field(p))
        for seed in range(10):
            for lengths in ((1, 1), (2, 2)):
                t = run_exchange(*seeded_session(model, seed, lengths))
                for max_len in (1, 2):
                    yield model, eavesdropper_view(t), max_len
    # S2 is the zero vector: Bob's announcement hit a zero product
    model = builtin_model("parametric3", params=(2, 3, 1, 4, 1, 2),
                          field=Field(5))
    t = run_exchange(*seeded_session(model, 17, (1, 1)))
    assert t.failure == "zero product while announcing"
    for max_len in (1, 2):
        yield model, eavesdropper_view(t), max_len


def test_recovery_matches_the_per_hit_reference(monkeypatch):
    cases = list(recovery_cases())

    def per_hit(*args):
        raise AssertionError("recovery called a per-hit path")

    monkeypatch.setattr(kex, "left_chain", per_hit, raising=False)
    # the names a session labels through: its scalar labeler and the walk
    # that calls the session's memoized labeler on every step
    monkeypatch.setattr(kex, "rule_label", per_hit)
    monkeypatch.setattr(kex, "_walk", per_hit)
    recs = [brute_force_recover(*case) for case in cases]
    monkeypatch.undo()
    in_stratum = 0
    for (model, view, max_len), rec in zip(cases, recs):
        chains = [h["chain"] for h in rec["hits"]]
        assert rec["hits"] == per_hit_reference(model, view, chains)
        # length-1 chains in lex order, then length-2 chains in lex order
        order = [(len(c), [[x.value for x in q] for q in c]) for c in chains]
        assert order == sorted(order)
        ones = [[q] for q in enumerate_space(model.field.p, model.dimension)
                if multiply(model.operation, view.base, q) == view.s1]
        assert [c for c in chains if len(c) == 1] == ones
        assert max(map(len, chains), default=0) <= max_len
        in_stratum += sum(h["in_stratum"] for h in rec["hits"])
    assert in_stratum  # the reference's labels are exercised on both sides


# ---------------------------------------------------------------------------
# differential test: the session path that drew, checked and walked
# FieldElement tuples, labeling each vector through label_str


def reference_party(name, base, secret, model):
    """Party's checks on the tuples as given, labeled through label_str."""
    if not secret:
        raise ValueError(f"{name}: empty secret holds no agreement "
                         "material")
    base = tuple(base)
    secret = [tuple(q) for q in secret]
    if is_zero_vector(base):
        raise ValueError(f"{name}: base must be nonzero")
    labels = set()
    for q in secret:
        if is_zero_vector(q):
            raise ValueError(f"{name}: zero secret multiplier")
        labels.add(label_str(model, q))
    if len(labels) > 1:
        raise ValueError(
            f"{name}: secret multipliers span strata {sorted(labels)}; "
            "order independence needs a single stratum")
    stratum = labels.pop()
    if label_str(model, base) == stratum:
        raise ValueError(
            f"{name}: base lies in the multiplier stratum {stratum}")
    return SimpleNamespace(name=name, base=base, secret=secret, model=model,
                           stratum=stratum)


def reference_session(model, seed, lengths):
    """seeded_session drawing FieldElement tuples."""
    p = model.field.p
    rng = random.Random(f"{seed}:kex")

    def on_direction(d):
        scale = rng.randrange(1, p)
        free = [rng.randrange(p) for _ in range(model.dimension - len(d))]
        return _elements(model.field, _place(model, free, scale, d))

    d = _draw_direction(model, rng)
    stratum = label_str(model, on_direction(d))
    base = on_direction(_draw_direction(model, rng))
    while label_str(model, base) == stratum:
        base = on_direction(_draw_direction(model, rng))
    alice_secret = [on_direction(d) for _ in range(lengths[0])]
    bob_secret = [on_direction(d) for _ in range(lengths[1])]
    return (reference_party("alice", base, alice_secret, model),
            reference_party("bob", base, bob_secret, model))


def reference_exchange(alice, bob):
    """run_exchange's four walks through chain_path and label_str."""
    model = alice.model

    def walk(start, multipliers):
        w = chain_path(model.operation, start, multipliers,
                       lambda v: label_str(model, v))
        return w.final, w.labels, w.truncated

    s1, alice_announce, t1 = walk(alice.base, alice.secret)
    s2, bob_announce, t2 = walk(alice.base, bob.secret)
    s12 = s21 = failure = None
    alice_derive = bob_derive = []
    if t1 or t2:
        failure = "zero product while announcing"
    else:
        s12, bob_derive, t12 = walk(s1, bob.secret)
        s21, alice_derive, t21 = walk(s2, alice.secret)
        if t12 or t21:
            failure = "zero product while deriving"
    return {"stratum": alice.stratum, "s1": s1, "s2": s2, "s12": s12,
            "s21": s21, "failure": failure, "path_strata": {
                "alice": {"announce": alice_announce, "derive": alice_derive},
                "bob": {"announce": bob_announce, "derive": bob_derive}}}


def session_fields(t):
    return {"stratum": t.stratum, "s1": t.s1, "s2": t.s2, "s12": t.s12,
            "s21": t.s21, "failure": t.failure, "path_strata": t.path_strata}


def party_fields(party):
    return (party.name, party.base, party.secret, party.stratum)


BUILTINS = ["basic3", "parametric3", "nonlinear3", "parametric4"]


@pytest.mark.parametrize("p", [5, 7, 19])
@pytest.mark.parametrize("name", BUILTINS)
def test_sessions_match_the_field_element_path(name, p):
    model = builtin_model(name, params=(2, 3, 5, 7, 11, 13), field=Field(p))
    failures = set()
    for seed in range(12):
        for lengths in ((1, 1), (2, 3), (5, 4)):
            want = seeded_session(model, seed, lengths)
            ref = reference_session(model, seed, lengths)
            assert list(map(party_fields, want)) == \
                list(map(party_fields, ref))
            got = session_fields(run_exchange(*want))
            assert got == reference_exchange(*ref), (seed, lengths)
            assert all(type(x) is FieldElement for x in got["s1"] or ())
            failures.add(got["failure"])
    assert None in failures


def party_inputs(field, vals):
    """One vector as FieldElements, residues, unreduced ints and
    Fractions, all of the same value."""
    p = field.p
    return [vector(field, vals), tuple(vals),
            tuple(x + p if i % 2 else x - p for i, x in enumerate(vals)),
            tuple(Fraction(2 * x + p, 2) for x in vals)]


def test_parties_from_any_exact_scalars(model5, f5):
    base, good, other = (2, 0, 1), [(1, 2, 2), (0, 3, 3)], [(2, 1, 1)]
    cases = [
        (base, good),
        (base, []),  # empty secret
        ((0, 0, 0), good),  # zero base
        (base, [(1, 2, 2), (0, 0, 0)]),  # zero multiplier
        (base, [(1, 2, 2), (1, 0, 1)]),  # secret spans strata
        ((0, 1, 1), good),  # base in the multiplier stratum
    ]
    for base_vals, secret_vals in cases:
        forms = zip(party_inputs(f5, base_vals),
                    zip(*[party_inputs(f5, q) for q in secret_vals])
                    if secret_vals else [()] * 4)
        results = []
        for b, secret in forms:
            try:
                results.append(party_fields(Party("a", b, list(secret),
                                                  model5)))
            except ValueError as err:
                results.append(str(err))
        elements = [vector(f5, q) for q in secret_vals]
        try:
            want = party_fields(reference_party(
                "a", vector(f5, base_vals), elements, model5))
        except ValueError as err:
            want = str(err)
        assert results == [want] * 4, (base_vals, secret_vals)
    sessions = [init_session(model5, b, [q], [r]) for b, q, r in zip(
        party_inputs(f5, base), party_inputs(f5, good[0]),
        party_inputs(f5, other[0]))]
    fields = [list(map(party_fields, s)) for s in sessions]
    assert fields == [fields[0]] * 4
    assert len({run_exchange(*s).serialize() for s in sessions}) == 1
    for b, q, r in zip(party_inputs(f5, base), party_inputs(f5, good[0]),
                       party_inputs(f5, (1, 1, 3))):
        with pytest.raises(ValueError, match="secret strata differ"):
            init_session(model5, b, [q], [r])
