"""Layer spans recorded from outside the program.

The tracer wraps public functions of `stratalg` modules and rebinds each
wrapper in every `stratalg.*` namespace that holds the original, because
functions such as `multiply`, `bulk_multiply` and `verify_closure` are
imported by name into several modules. `restore` puts the originals back.

Spans are timed with perf_counter_ns. Open spans sit on an in-memory
stack; a closing span adds its duration to its parent's child time, so
self time (inclusive time minus the time covered by child spans) comes
from the nesting without storing millions of leaf spans.
"""

import importlib
import sys
import time
from collections import defaultdict

_MARK = "__perfbench_wrapped__"


def _nnz(op):
    return len(op.bilinear.entries) + len(op.linear_a) + len(op.linear_b)


def _closure_counts(counters, args, result):
    counters["strata.verify_closure.pairs"] += result.counts["pairs"]
    counters["strata.verify_closure.triples"] += result.counts["triples"]


def _rows(counters, args, result):
    counters["kernels.bulk_multiply.rows"] += len(args[3])


def _commute_pairs(counters, args, result):
    counters["kernels.commute_rows.pairs"] += len(args[3]) ** 2


def _multiply_ops(counters, args, result):
    counters["algebra.multiply.ops"] += _nnz(args[0])


def _terms(counters, args, result):
    counters["poly.terms"] += sum(len(p.terms) for p in result)


def _graph_pairs(counters, args, result):
    counters["dynamics.transition_graph.pairs"] += result.pairs


def _orbit_steps(counters, args, result):
    counters["dynamics.orbit.steps"] += len(result.steps) - 1


def _tried(counters, args, result):
    counters["kex.brute_force_recover.tried"] += result["tried"]


def _disagreed(counters, args, result):
    counters["kex.disagreed"] += not result.agreed


# (module, attribute or Class.method, span name, counter hook)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("axioms", "check_sa1", "axioms.check_sa1", None),
    ("axioms", "check_sa2", "axioms.check_sa2", None),
    ("axioms", "check_sa3", "axioms.check_sa3", None),
    ("axioms", "check_sa4", "axioms.check_sa4", None),
    ("axioms", "identity_suite_json", "axioms.identity_suite_json", None),
    ("strata", "verify_closure", "strata.verify_closure", _closure_counts),
    ("strata", "discover_strata", "strata.discover_strata", None),
    ("strata", "ratio_partition", "strata.ratio_partition", None),
    ("strata", "label_indices", "strata.label_indices", None),
    ("strata", "partitions_agree", "strata.partitions_agree", None),
    ("_kernels", "bulk_multiply", "kernels.bulk_multiply", _rows),
    ("_kernels", "commute_rows", "kernels.commute_rows", _commute_pairs),
    ("algebra", "multiply", "algebra.multiply", _multiply_ops),
    ("algebra", "left_chain", "algebra.left_chain", None),
    ("algebra", "symbolic_components", "algebra.symbolic_components",
     _terms),
    ("poly", "Polynomial.substitute", "poly.Polynomial.substitute", None),
    # wrapping the class itself would break isinstance checks on Field
    ("field", "Field.__init__", "field.Field", None),
    ("dynamics", "transition_graph", "dynamics.transition_graph",
     _graph_pairs),
    ("dynamics", "orbit", "dynamics.orbit", _orbit_steps),
    ("kex", "run_exchange", "kex.run_exchange", _disagreed),
    ("kex", "seeded_session", "kex.seeded_session", None),
    ("kex", "brute_force_recover", "kex.brute_force_recover", _tried),
)


def stratalg_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "stratalg"
                                  or name.startswith("stratalg."))]


class Tracer:
    """Per-span-name call counts, inclusive and child nanoseconds, and
    named counters."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.calls = defaultdict(int)
        self.busy_ns = defaultdict(int)
        self.child_ns = defaultdict(int)
        self.counters = defaultdict(int)
        self._stack = []
        self._installed = []

    def wrap(self, name, fn, hook=None):
        stack = self._stack
        clock = self.clock
        calls, busy, child = self.calls, self.busy_ns, self.child_ns
        counters = self.counters

        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                busy[name] += dt
                child[name] += frame[0]
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                hook(counters, args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self, targets=TARGETS):
        """Rebind a wrapper for each target wherever stratalg holds it."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for module, attr, name, hook in targets:
            mod = importlib.import_module(f"stratalg.{module}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[method]
                self._rebind(cls, method, self.wrap(name, original, hook))
                continue
            original = getattr(mod, attr)
            wrapper = self.wrap(name, original, hook)
            for holder in stratalg_modules():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._rebind(holder, key, wrapper)

    def _rebind(self, holder, key, wrapper):
        self._installed.append((holder, key, vars(holder)[key]))
        setattr(holder, key, wrapper)

    def restore(self):
        while self._installed:
            holder, key, original = self._installed.pop()
            setattr(holder, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def busy_s(self, name):
        return self.busy_ns[name] / 1e9

    def self_s(self, name):
        return (self.busy_ns[name] - self.child_ns[name]) / 1e9


def installed_wrappers():
    """(holder, attribute) pairs that still hold a tracer wrapper."""
    found = []
    for mod in stratalg_modules():
        for key, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append((mod.__name__, key))
            if isinstance(value, type) and value.__module__.startswith(
                    "stratalg"):
                for attr, member in vars(value).items():
                    if hasattr(member, _MARK):
                        found.append((f"{mod.__name__}.{key}", attr))
    return found


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer):
    """The per-layer metric values of one traced pass, keyed by name."""
    t = tracer
    c = t.counters
    m = {
        "cli.main.calls": t.calls["cli.main"],
        "cli.main.self_s": t.self_s("cli.main"),
        "cli.main.out_bytes": c["cli.main.out_bytes"],
    }
    for sa in ("check_sa1", "check_sa2", "check_sa3", "check_sa4"):
        m[f"axioms.{sa}.busy_s"] = t.busy_s(f"axioms.{sa}")
        m[f"axioms.{sa}.self_s"] = t.self_s(f"axioms.{sa}")
    m["axioms.identity_suite_json.busy_s"] = t.busy_s(
        "axioms.identity_suite_json")
    vc = "strata.verify_closure"
    m.update({
        f"{vc}.calls": t.calls[vc],
        f"{vc}.busy_s": t.busy_s(vc),
        f"{vc}.self_s": t.self_s(vc),
        f"{vc}.pairs": c[f"{vc}.pairs"],
        f"{vc}.triples": c[f"{vc}.triples"],
        "strata.discover_strata.busy_s": t.busy_s("strata.discover_strata"),
        "strata.discover_strata.self_s": t.self_s("strata.discover_strata"),
    })
    for name in ("strata.ratio_partition", "strata.label_indices",
                 "algebra.left_chain", "algebra.symbolic_components",
                 "poly.Polynomial.substitute", "field.Field",
                 "kex.run_exchange"):
        m[f"{name}.calls"] = t.calls[name]
        m[f"{name}.busy_s"] = t.busy_s(name)
    m["strata.partitions_agree.busy_s"] = t.busy_s("strata.partitions_agree")
    bm, cr, mul = ("kernels.bulk_multiply", "kernels.commute_rows",
                   "algebra.multiply")
    m.update({
        f"{bm}.calls": t.calls[bm],
        f"{bm}.busy_s": t.busy_s(bm),
        f"{bm}.rows": c[f"{bm}.rows"],
        f"{bm}.rows_per_s": _rate(c[f"{bm}.rows"], t.busy_s(bm)),
        f"{cr}.calls": t.calls[cr],
        f"{cr}.busy_s": t.busy_s(cr),
        f"{cr}.pairs": c[f"{cr}.pairs"],
        f"{cr}.pairs_per_s": _rate(c[f"{cr}.pairs"], t.busy_s(cr)),
        f"{mul}.calls": t.calls[mul],
        f"{mul}.busy_s": t.busy_s(mul),
        f"{mul}.self_s": t.self_s(mul),
        f"{mul}.ops_per_s": _rate(c[f"{mul}.ops"], t.busy_s(mul)),
        "poly.terms": c["poly.terms"],
    })
    tg, orb = "dynamics.transition_graph", "dynamics.orbit"
    m.update({
        f"{tg}.calls": t.calls[tg],
        f"{tg}.busy_s": t.busy_s(tg),
        f"{tg}.self_s": t.self_s(tg),
        f"{tg}.pairs": c[f"{tg}.pairs"],
        f"{orb}.calls": t.calls[orb],
        f"{orb}.busy_s": t.busy_s(orb),
        f"{orb}.steps": c[f"{orb}.steps"],
        "kex.seeded_session.busy_s": t.busy_s("kex.seeded_session"),
        "kex.brute_force_recover.busy_s": t.busy_s("kex.brute_force_recover"),
        "kex.brute_force_recover.tried": c["kex.brute_force_recover.tried"],
        "kex.disagreed": c["kex.disagreed"],
    })
    return m
