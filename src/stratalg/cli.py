"""Command-line surface for the stratified-operation toolkit.

Subcommands: check-assoc (tensor associativity criterion), axioms
(SA1-SA4 verification + classification), strata (declared or
discovered partitions over F_p), orbit (trajectories and transition
graphs), kex (toy key-agreement demo), identities (closed-form vs
direct-expansion comparisons). Every randomized run echoes its seed
and produces byte-identical reports when repeated with that seed.

Exit codes: 0 = pass, 1 = a checked property fails, 2 = usage or
parse error.
"""

import argparse
import functools
import itertools
import json
import operator
import sys
from json.encoder import encode_basestring_ascii

# strata (numpy), dynamics and kex load when the commands using them run
from .algebra import (BUILTIN_NAMES, MAX_SECRET_LENGTH, MAX_STEPS,
                      associativity_check, builtin_model,
                      format_assoc_report, make_params, model_from_json)
from .axioms import (MAX_SAMPLES, SamplingPlan, axiom_report,
                     identity_suite_json, require_rule)
from .field import Field, format_scalar


class UsageError(Exception):
    """Bad flags or unreadable inputs; maps to exit code 2."""


# ---------------------------------------------------------------------------
# configuration parsing


def parse_field(text):
    if text is None or text == "q":
        return Field()
    if text.startswith("fp:"):
        try:
            return Field(int(text[3:]))
        except ValueError as exc:
            raise UsageError(f"bad field spec {text!r}: {exc}") from None
    raise UsageError(f"bad field spec {text!r}; expected 'q' or 'fp:P'")


def parse_scalars(text, field, what):
    try:
        return [field.from_string(part.strip())
                for part in text.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad {what} {text!r}: {exc}") from None


def load_model(args):
    field = parse_field(args.field)
    if args.model:
        try:
            with open(args.model) as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read model {args.model!r}: {exc}") \
                from None
        try:
            return model_from_json(obj, field if args.field else None)
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"bad model file {args.model!r}: {exc}") \
                from None
    name = args.builtin
    if not name:
        raise UsageError("pass --builtin NAME or --model FILE")
    params = None
    if args.params:
        values = parse_scalars(args.params, field, "--params")
        params = make_params(field, values)
    try:
        return builtin_model(name, params, field)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def parse_vector(text, field, what):
    values = parse_scalars(text, field, what)
    return tuple(values)


def make_plan(args):
    return SamplingPlan(samples=args.samples, seed=args.seed,
                        chain_length_max=getattr(args, "chain_max", 5))


def partition_for(args, model, walk=False):
    """The labeler of the command's vectors. A walk under the declared rule
    labels through the rule and enumerates nothing, at any prime."""
    field = model.field
    if not field.is_prime_field:
        raise UsageError("stratum enumeration needs a prime field; "
                         "pass --field fp:P")
    if args.discover:
        from .strata import discover_strata
        return discover_strata(model.operation, field.p)
    if model.strata_rule is None:
        raise UsageError(f"model {model.name or 'custom'} declares no "
                         "strata rule; pass --discover")
    if walk:
        from .rules import rule_label
        return functools.partial(rule_label, rule=model.strata_rule,
                                 p=field.p)
    from .strata import ratio_partition
    return ratio_partition(model)


def emit(args, text):
    out = text if text.endswith("\n") else text + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


_LITERALS = {True: "true", False: "false", None: "null"}


@functools.lru_cache(maxsize=256)
def _row_format(indent, keys, kinds):
    """The %-format of one record at indent: a list (keys None) or a dict
    with the sorted keys, kinds holding %d or %s for each value."""
    if keys is not None:
        kinds = [encode_basestring_ascii(k).replace("%", "%%") + ": " + kind
                 for k, kind in zip(keys, kinds)]
    inner, ends = indent + "  ", "[]" if keys is None else "{}"
    return ends[0] + inner + ("," + inner).join(kinds) + indent + ends[1]


def _record_rows(obj, indent):
    """The items of obj formatted one %-call each, or None unless all are
    lists of one nonzero length of exact ints (stratum members) or dicts
    with one str key set whose columns each hold only exact ints or only
    exact strs (graph edges, tensor entries, mismatches). Exact types leave
    bools, floats, None, subclasses and numpy scalars to json_text."""
    t = type(obj[0])
    if (t is not list and t is not dict) or set(map(type, obj)) != {t}:
        return None
    if t is list:
        width = set(map(len, obj))
        if len(width) != 1 or 0 in width or set(
                map(type, itertools.chain.from_iterable(obj))) != {int}:
            return None
        fmt = _row_format(indent, None, ("%d",) * width.pop())
        return map(fmt.__mod__, map(tuple, obj))
    keysets = set(map(frozenset, obj))
    if len(keysets) != 1 or set(map(type, next(iter(keysets)))) != {str}:
        return None
    keys, cols, kinds = tuple(sorted(keysets.pop())), [], []
    for k in keys:
        kind = set(map(type, map(operator.itemgetter(k), obj)))
        if kind not in ({int}, {str}):
            return None
        # lazy columns: each encoded str lives only until its row is made
        col = map(operator.itemgetter(k), obj)
        cols.append(col if kind == {int}
                    else map(encode_basestring_ascii, col))
        kinds.append("%d" if kind == {int} else "%s")
    fmt = _row_format(indent, keys, tuple(kinds))
    return map(fmt.__mod__, zip(*cols))


def json_text(obj, indent="\n"):
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte, with each
    line after the first prefixed by indent[1:].

    With indent, CPython's json runs its pure-Python encoder; this writes
    exact ints, strs, bools, None and nonempty lists, tuples and str-keyed
    dicts directly and hands anything else (floats, empty containers,
    other keys, subclasses, unserialisable objects) to json.dumps. A list
    of records (see _record_rows) takes one cached %-format per item."""
    t = type(obj)
    if t is int:
        return int.__repr__(obj)
    if t is str:
        return encode_basestring_ascii(obj)
    if t is bool or obj is None:
        return _LITERALS[obj]
    inner = indent + "  "
    if (t is list or t is tuple) and obj:
        rows = _record_rows(obj, inner)
        if rows is not None:
            # one f-string: the joined rows are copied once, not per "+"
            return f'[{inner}{("," + inner).join(rows)}{indent}]'
        return ("[" + inner
                + ("," + inner).join([json_text(x, inner) for x in obj])
                + indent + "]")
    if t is dict and obj and all(type(k) is str for k in obj):
        return ("{" + inner + ("," + inner).join([
            encode_basestring_ascii(k) + ": " + json_text(v, inner)
            for k, v in sorted(obj.items())]) + indent + "}")
    # JSON text holds no raw newline: every "\n" is a line break
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", indent)


def emit_json(args, obj):
    emit(args, json_text(obj))


# ---------------------------------------------------------------------------
# subcommands


def cmd_check_assoc(args):
    model = load_model(args)
    if not model.operation.is_bilinear:
        raise UsageError(
            "the tensor associativity criterion applies to bilinear "
            "operations only; run the `axioms` command for sampled and "
            "symbolic checks of this model")
    mismatches = associativity_check(model.operation)
    if args.json:
        emit_json(args, {
            "model": model.name or "custom",
            "associative": not mismatches,
            "mismatches": [
                {"i": m.i, "j": m.j, "k": m.k, "l": m.l,
                 "lhs": format_scalar(m.lhs), "rhs": format_scalar(m.rhs)}
                for m in mismatches],
        })
    else:
        emit(args, format_assoc_report(mismatches))
    return 0 if not mismatches else 1


def cmd_axioms(args):
    model = load_model(args)
    require_rule(model)  # before the partition and SA1 are built
    strata = None
    if args.discover:
        strata = partition_for(args, model)
    plan = make_plan(args)
    report = axiom_report(model, plan, strata)
    if args.json:
        emit_json(args, report)
    else:
        lines = [f"model {report['model']} over {report['field']} "
                 f"(seed {report['seed']}, samples {report['samples']})"]
        for key in ("SA1", "SA2", "SA3", "SA4"):
            axiom = report["axioms"][key]
            note = axiom.get("note")
            lines.append(f"  {key}: {axiom['verdict']}"
                         + (f"  ({note})" if note else ""))
        lines.append(f"classification: {report['classification']}")
        for w in report["witnesses"]:
            lines.append(f"  witness [{w['axiom']}]: "
                         + json.dumps(w, sort_keys=True))
        emit(args, "\n".join(lines))
    failed = any(report["axioms"][k]["verdict"] == "fails"
                 for k in ("SA1", "SA2", "SA3", "SA4"))
    return 1 if failed else 0


def cmd_strata(args):
    from .strata import partitions_agree
    model = load_model(args)
    part = partition_for(args, model)
    agreement = None
    if args.discover and model.strata_rule is not None:
        ok, detail = partitions_agree(part, model)
        agreement = {"agrees_on_non_exceptional": ok, "detail": detail}
    if args.json:
        obj = part.to_json(full=args.full)
        if agreement:
            obj["declared_rule_agreement"] = agreement
        emit_json(args, obj)
    else:
        # counted from the label codes: member lists would hold every vector
        sizes = part.sizes()
        total = part.total()
        exceptional = part.p ** part.n - 1 - total
        lines = [f"partition ({part.provenance}) of F_{part.p}^{part.n}: "
                 f"{len(sizes)} strata, {total} vectors, "
                 f"{exceptional} exceptional"]
        for label in sizes:
            lines.append(f"  {label}: {sizes[label]}")
        if exceptional:
            lines.append(f"  exceptional: {exceptional}")
        if agreement:
            lines.append("agrees with declared rule on non-exceptional "
                         f"vectors: {agreement['agrees_on_non_exceptional']}")
        emit(args, "\n".join(lines))
    return 0


def cmd_orbit(args):
    from . import dynamics
    model = load_model(args)
    if args.dot or not args.start:
        part = partition_for(args, model)
        plan = make_plan(args)
        graph = dynamics.transition_graph(model.operation, part, plan)
        if args.dot:
            emit(args, graph.to_dot())
        elif args.json:
            emit_json(args, graph.to_json())
        else:
            stats = dynamics.return_edge_stats(graph)
            emit(args, f"transition graph ({graph.mode}, seed {graph.seed}):"
                       f" {len(graph.nodes)} strata, {graph.edge_count()} "
                       f"edges, {graph.pairs} pairs, {graph.zero_products} "
                       f"zero products\ncross-stratum returns: "
                       f"{stats['returning_pairs']}/{stats['cross_pairs']}")
        return 0
    part = partition_for(args, model, walk=True)
    field = model.field
    start = parse_vector(args.start, field, "--start")
    q = parse_vector(args.q, field, "--q") if args.q else None
    if q is None:
        raise UsageError("orbit needs --q MULTIPLIER (or --dot for the "
                         "aggregate graph)")
    traj = dynamics.orbit(model.operation, start, q, args.steps, part)
    if args.json:
        emit(args, traj.to_json_lines())
    else:
        lines = [" -> ".join(traj.labels)]
        if traj.cycle_info:
            entry, period = traj.cycle_info
            lines.append(f"cycle: enters at step {entry}, period {period}")
        if traj.truncated:
            lines.append("truncated: zero product")
        emit(args, "\n".join(lines))
    return 0


def cmd_kex(args):
    from . import kex
    model = load_model(args)
    try:
        lengths = tuple(int(x) for x in args.lengths.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --lengths {args.lengths!r}: {exc}") from None
    if len(lengths) != 2:
        raise UsageError("--lengths expects two comma-separated counts")
    try:
        alice, bob = kex.seeded_session(model, args.seed, lengths)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    transcript = kex.run_exchange(alice, bob)
    recovery = None
    if args.recover:
        view = kex.eavesdropper_view(transcript)
        recovery = kex.brute_force_recover(model, view,
                                           max_len=min(max(lengths), 2))
        recovery_summary = {
            "tried": recovery["tried"],
            "hits": len(recovery["hits"]),
            # a session that did not agree has no shared key to recover
            "recovered_true_key": transcript.agreed and any(
                h["in_stratum"] and h["key"] == tuple(transcript.s12)
                for h in recovery["hits"]),
        }
    if args.json:
        obj = transcript.to_json()
        obj["seed"] = args.seed
        if recovery:
            obj["recovery"] = recovery_summary
        emit_json(args, obj)
    else:
        lines = [f"seed {args.seed}, lengths {lengths[0]},{lengths[1]}, "
                 f"stratum {transcript.stratum}",
                 "AGREED" if transcript.agreed else "DISAGREED"]
        if transcript.failure:
            lines.append(f"failure: {transcript.failure}")
        if recovery:
            lines.append(
                f"brute force: tried {recovery_summary['tried']} chains, "
                f"{recovery_summary['hits']} consistent, recovered true "
                f"key: {recovery_summary['recovered_true_key']}")
        emit(args, "\n".join(lines))
    return 0 if transcript.agreed else 1


def cmd_identities(args):
    if args.builtin and not args.model:
        name = args.builtin  # the comparison is symbolic; no params needed
    else:
        name = load_model(args).name
    if name not in BUILTIN_NAMES:
        raise UsageError("identity comparisons exist for built-in models "
                         "only")
    rows = identity_suite_json(name)
    if args.json:
        emit_json(args, rows)
    else:
        width = max(len(r["name"]) for r in rows)
        lines = []
        for r in rows:
            status = "MATCHES" if r["matches"] else "DIFFERS"
            note = f"  ({r['note']})" if r.get("note") else ""
            lines.append(f"{r['name']:<{width}}  {status}{note}")
        emit(args, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stratalg",
        description="Exact verification toolkit for layered (stratified) "
                    "bilinear and affine operations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=True):
        p.add_argument("--builtin", choices=BUILTIN_NAMES,
                       help="built-in model name")
        p.add_argument("--model", help="path to a model JSON file")
        p.add_argument("--params",
                       help="comma-separated values for A,B,C,D,E,F")
        p.add_argument("--field", help="'q' (default) or 'fp:P'")
        p.add_argument("--json", action="store_true",
                       help="machine-readable report")
        p.add_argument("--output", "-o", help="write the report to a file")
        if seeded:
            p.add_argument("--seed", type=int, default=0,
                           help="RNG seed (echoed in the report)")
            p.add_argument("--samples", type=int, default=200,
                           help=f"sampling budget per check (at most "
                                f"{MAX_SAMPLES})")

    p = sub.add_parser("check-assoc",
                       help="exhaustive tensor associativity criterion")
    common(p, seeded=False)
    p.set_defaults(fn=cmd_check_assoc)

    p = sub.add_parser("axioms", help="verify SA1-SA4 and classify")
    common(p)
    p.add_argument("--discover", action="store_true",
                   help="use the commutant partition instead of the "
                        "declared rule")
    p.add_argument("--chain-max", type=int, default=5,
                   help="longest multiplier chain to test (3..6)")
    p.set_defaults(fn=cmd_axioms)

    p = sub.add_parser("strata", help="enumerate or discover strata")
    common(p)
    p.add_argument("--discover", action="store_true",
                   help="partition by commutant equality")
    p.add_argument("--full", action="store_true",
                   help="include stratum members in JSON output")
    p.set_defaults(fn=cmd_strata)

    p = sub.add_parser("orbit",
                       help="trajectories and stratum-transition graphs")
    common(p)
    p.add_argument("--discover", action="store_true")
    p.add_argument("--start", help="start vector, e.g. 1,2,1")
    p.add_argument("--q", help="fixed multiplier vector")
    p.add_argument("--steps", type=int, default=50,
                   help=f"maximum multiplications (at most "
                        f"{MAX_STEPS})")
    p.add_argument("--dot", action="store_true",
                   help="emit the transition graph as DOT")
    p.set_defaults(fn=cmd_orbit)

    p = sub.add_parser("kex", help="toy key-agreement session")
    common(p)
    p.add_argument("--lengths", default="3,4",
                   help=f"secret chain lengths, e.g. 3,4 (each at most "
                        f"{MAX_SECRET_LENGTH})")
    p.add_argument("--recover", action="store_true",
                   help="run the exhaustive toy recovery demo")
    p.set_defaults(fn=cmd_kex)

    p = sub.add_parser("identities",
                       help="closed forms vs direct expansion")
    common(p, seeded=False)
    p.set_defaults(fn=cmd_identities)

    return parser


_parser = None


def main(argv=None):
    """Run one subcommand; return its exit code. The parser depends on
    nothing but the code, so it is built on the first call and reused."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
