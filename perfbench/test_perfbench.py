"""Tests of the benchmark itself: seeded job lists, oracles, span
bookkeeping and tracer rebinding.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, installed_wrappers, layer_metrics  # noqa: E402
from workloads import Job  # noqa: E402

import stratalg  # noqa: E402
import stratalg.cli as cli  # noqa: E402


def run_cli(argv):
    _, code, out, error = worker.run_job(cli, argv)
    assert error is None, error
    return code, out


def nl3(p, *extra):
    return ["--builtin", "nonlinear3", "--params", "2,3,1,4,1,2",
            "--field", f"fp:{p}", *extra]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_generation_is_deterministic_for_a_seed(workload):
    one = workloads.build(workload, 7, "m")
    two = workloads.build(workload, 7, "m")
    other = workloads.build(workload, 8, "m")
    assert one == two
    assert workloads.argv_digest(one) == workloads.argv_digest(two)
    assert workloads.argv_digest(one) != workloads.argv_digest(other)
    assert len({job.name for job in one}) == len(one)
    assert {job.category for job in one} <= set(workloads.CATEGORIES)


def test_parameter_draws_are_distinct_small_values():
    jobs = workloads.build("classify", 3, "m")
    for job in jobs:
        params = oracles.options(job.argv).get("--params")
        if params:
            values = [int(x) for x in params.split(",")]
            assert len(set(values)) == 6 and min(values) >= 2


def degenerate_strata(builtin, params, p):
    """Strata of a 3D model over F_p on which (h a) b = h (a b) for every
    tested head h and multipliers a, b, by direct expansion ("inf" is the
    stratum with a2 = 0)."""
    A, B, C, D, E, F = (int(x) for x in params.split(","))
    s = 1 if builtin == "parametric3" else -1
    entries = {(0, 0, 0): 1, (1, 1, 0): A, (2, 2, 0): B, (2, 1, 0): C,
               (1, 2, 0): D, (1, 0, 1): 1, (0, 1, 1): 1, (2, 1, 1): E,
               (1, 2, 1): -E, (2, 0, 2): 1, (0, 2, 2): 1, (2, 1, 2): s * F,
               (1, 2, 2): -s * F}
    linear = builtin == "nonlinear3"  # a*b adds a + b

    def mul(x, y):
        out = [(x[k] + y[k]) * linear for k in range(3)]
        for (i, j, k), c in entries.items():
            out[k] += c * x[i] * y[j]
        return [v % p for v in out]

    points = [(x, t) for x in range(0, p, 3) for t in range(1, p, 4)]
    heads = [(1, 2, 3), (0, 5, 1), (4, 1, 7), (2, 1, 0)]
    found = []
    for alpha in list(range(p)) + ["inf"]:
        if alpha == "inf":
            on = [(x, t, 0) for x, t in points]
        else:
            on = [(x, alpha * t % p, t) for x, t in points]
        if all(mul(mul(h, a), b) == mul(h, mul(a, b))
               for h in heads for a in on[:4] for b in on[-4:]):
            found.append(alpha)
    return found


@pytest.mark.parametrize("builtin", ["parametric3", "nonlinear3"])
def test_bracket_degeneracy_matches_direct_expansion(builtin):
    rng = workloads.random.Random(f"{builtin}:degeneracy")
    seen = {True: 0, False: 0}
    for _ in range(80):
        params = workloads.draw_params(rng, 17)
        det = workloads.bracket_degeneracy(builtin, params, 17)
        assert (degenerate_strata(builtin, params, 17) != []) == (det == 0)
        seen[det == 0] += 1
    assert seen[True] and seen[False]
    # the draw behind a "symmetric" grade of nonlinear3 over F_17
    assert degenerate_strata("nonlinear3", "14,2,4,7,11,13", 17) == [0]


def test_classify_draws_are_generic():
    for seed in range(20):
        for job in workloads.classify_jobs(seed, "m"):
            opts = oracles.options(job.argv)
            builtin = opts.get("--builtin")
            if builtin in ("parametric3", "nonlinear3"):
                field = opts.get("--field")
                p = int(field[3:]) if field else None
                assert workloads.bracket_degeneracy(
                    builtin, opts["--params"], p) != 0


def test_axioms_oracle_rejects_a_flipped_classification():
    job = Job("q", "axioms_q", "axioms",
              ["axioms", "--builtin", "parametric3",
               "--params", "16,8,5,3,7,11", "--json", "--samples", "20"],
              "fully")
    code, out = run_cli(job.argv)
    assert oracles.check(job, code, out) is None
    rep = json.loads(out)
    rep["classification"] = "symmetric"
    assert "contradicts" in oracles.check(job, code, json.dumps(rep))
    assert oracles.check(job._replace(expect="none"), code, out)
    assert "exit" in oracles.check(job, 1, out)


def test_broken_control_is_rejected_when_its_witness_does_not_replay(
        tmp_path):
    workloads.write_inputs(str(tmp_path))
    job = next(j for j in workloads.build("classify", 1, str(tmp_path))
               if j.name == "broken3-q")
    code, out = run_cli(job.argv)
    assert oracles.check(job, code, out) is None
    rep = json.loads(out)
    wit = next(w for w in rep["witnesses"] if w["axiom"] == "SA1")
    wit["vectors"] = [["1", "0", "0"]] * len(wit["vectors"])
    assert "does not replay" in oracles.check(job, code, json.dumps(rep))


def test_small_field_sa2_failure_is_accepted_only_when_it_replays():
    # a plan on which basic3 over F_3 draws a persistent SA2 exception
    job = Job("basic3-f3", "axioms_fp", "axioms",
              ["axioms", "--builtin", "basic3", "--field", "fp:3", "--json",
               "--seed", "716778", "--samples", "10", "--chain-max", "3"],
              "symmetric")
    code, out = run_cli(job.argv)
    rep = json.loads(out)
    assert rep["classification"] == "none"
    assert oracles.check(job, code, out) is None
    assert oracles.check(job._replace(name="other"), code, out)
    exception = next(e for e in rep["axioms"]["SA2"]["clauses"]["exceptions"]
                     if e["resolution"] == "persistent")
    exception["b"] = exception["a"]
    assert "one stratum" in oracles.check(job, code, json.dumps(rep))
    rep["axioms"]["SA2"]["clauses"]["cross_stratum_asymmetry"]["rate"] = "1"
    assert "does not match" in oracles.check(job, code, json.dumps(rep))


def test_strata_oracle_rejects_a_dropped_member():
    job = Job("s", "strata", "strata", ["strata", *nl3(5, "--json")], None)
    code, out = run_cli(job.argv)
    assert oracles.check(job, code, out) is None
    rep = json.loads(out)
    rep["strata"][1]["members"].pop()
    assert oracles.check(job, code, json.dumps(rep))
    rep = json.loads(out)
    a, b = rep["strata"][1], rep["strata"][2]
    a["members"][0], b["members"][0] = b["members"][0], a["members"][0]
    assert "is not in stratum" in oracles.check(job, code, json.dumps(rep))


def test_discover_oracle_rejects_a_moved_vector():
    job = Job("d", "strata", "discover",
              ["strata", "--discover", *nl3(5, "--json")], None)
    code, out = run_cli(job.argv)
    assert oracles.check(job, code, out) is None
    rep = json.loads(out)
    assert rep["exceptional"], "the F_5 model has central vectors"
    moved = rep["strata"][0]["members"].pop()
    rep["strata"][1]["members"].append(moved)
    assert "spans ratio classes" in oracles.check(job, code, json.dumps(rep))
    rep = json.loads(out)
    rep["exceptional"].pop()
    assert "cover" in oracles.check(job, code, json.dumps(rep))


def test_graph_oracle_rejects_a_miscounted_edge():
    job = Job("g", "graph", "graph", ["orbit", *nl3(5, "--json")], None)
    code, out = run_cli(job.argv)
    assert oracles.check(job, code, out) is None
    rep = json.loads(out)
    rep["edges"][0]["count"] += 1
    assert "zero products" in oracles.check(job, code, json.dumps(rep))


def test_trajectory_oracle_replays_every_step():
    job = Job("t", "orbit", "trajectory",
              ["orbit", *nl3(19, "--start", "1,2,3", "--q", "4,5,6",
                             "--steps", "30", "--json")], None)
    code, out = run_cli(job.argv)
    assert oracles.check(job, code, out) is None
    lines = out.splitlines()
    step = json.loads(lines[2])
    step["value"][0] = str((int(step["value"][0]) + 1) % 19)
    lines[2] = json.dumps(step)
    assert "replay gives" in oracles.check(job, code, "\n".join(lines))


def test_kex_oracle_rejects_unequal_keys():
    job = Job("k", "kex", "kex",
              ["kex", *nl3(19, "--seed", "3", "--lengths", "2,3", "--json")],
              None)
    code, out = run_cli(job.argv)
    rep = json.loads(out)
    assert rep["agreed"] and oracles.check(job, code, out) is None
    rep["S21"] = ["0", "0", "1"]
    assert "S12" in oracles.check(job, code, json.dumps(rep))
    rep = json.loads(out)
    rep["agreed"] = False
    assert oracles.check(job, 1, json.dumps(rep))


def test_kex_oracle_accepts_a_zero_product_as_a_protocol_outcome():
    rep = {"agreed": False, "S12": ["0", "0", "0"], "S21": ["1", "2", "3"],
           "failure": "zero product while deriving"}
    job = Job("k", "kex", "kex", ["kex"], None)
    assert oracles.check(job, 1, json.dumps(rep)) is None
    assert oracles.check(job, 0, json.dumps(rep))


def test_recover_oracle_requires_the_true_key():
    builtin, params, p, session = workloads.RECOVER_SESSIONS[0]
    job = Job("r", "kex", "recover",
              ["kex", "--builtin", builtin, "--params", params,
               "--field", f"fp:{p}", "--seed", str(session),
               "--lengths", "2,2", "--recover", "--json"], None)
    code, out = run_cli(job.argv)
    assert oracles.check(job, code, out) is None
    rep = json.loads(out)
    rep["recovery"]["recovered_true_key"] = False
    assert "missed" in oracles.check(job, code, json.dumps(rep))


def test_check_assoc_oracle_recomputes_the_tensor_criterion():
    job = Job("a", "other", "check-assoc",
              ["check-assoc", "--builtin", "parametric3",
               "--params", "16,8,5,3,7,11", "--json"], None)
    code, out = run_cli(job.argv)
    assert code == 1 and oracles.check(job, code, out) is None
    rep = json.loads(out)
    rep["mismatches"].pop()
    assert "recomputed" in oracles.check(job, code, json.dumps(rep))


def test_raising_or_usage_errors_fail():
    job = Job("x", "other", "identities", ["identities"], None)
    assert "raised" in oracles.check(job, None, "", "TypeError: boom")
    assert oracles.check(job, 2, "") == "exit 2"


def test_reference_seconds_cancel_a_uniform_slowdown():
    assert refclock.ref_seconds(0.5, 1.0, 1.0) == 0.5
    assert refclock.ref_seconds(1.0, 1.9, 2.1) == pytest.approx(0.5)


def test_slowness_weighs_the_two_loops():
    for share in (1.0, 0.5):
        assert 0.05 < refclock.slowness(share) < 50
    assert set(workloads.PYTHON_SHARE) == set(workloads.WORKLOADS)
    assert all(0 <= w <= 1 for w in workloads.PYTHON_SHARE.values())


def test_job_times_scale_each_run_by_the_slowness_around_it():
    first = (1.0, [(0.2, 0, "a", None), (0.4, 0, "b", None)],
             [1.0, 3.0, 1.0])
    second = (2.0, [(0.4, 0, "a", None), (0.8, 0, "b", None)],
              [2.0, 6.0, 2.0])
    assert worker.job_times([first, second]) == [[0.2, 0.4], [0.4, 0.8]]
    ref = worker.job_times([first, second], ref=True)
    assert ref == [pytest.approx([0.1, 0.1]), pytest.approx([0.2, 0.2])]


def test_span_self_time_subtracts_child_spans():
    ticks = iter(range(0, 10 ** 6, 10))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)

    def outer_body():
        inner()
        inner()

    outer = tracer.wrap("outer", outer_body)
    outer()
    # outer spans 5 ticks (50 ns) and covers two 10 ns inner spans
    assert tracer.busy_ns["outer"] == 50
    assert tracer.busy_ns["inner"] == 20
    assert tracer.self_s("outer") * 1e9 == pytest.approx(30)
    assert tracer.calls["inner"] == 2


def test_traced_cli_run_keeps_self_within_busy_and_restores_everything():
    originals = {
        "strata.multiply": stratalg.strata.multiply,
        "kex.bulk_multiply": stratalg.kex.bulk_multiply,
        "cli.main": cli.main,
        "Field.__init__": stratalg.field.Field.__dict__["__init__"],
    }
    argv = ["axioms", *nl3(3, "--json", "--samples", "5")]
    untraced = run_cli(argv)
    tracer = Tracer()
    with tracer:
        assert stratalg.strata.multiply is stratalg.algebra.multiply
        assert stratalg.strata.multiply is not originals["strata.multiply"]
        assert stratalg.kex.bulk_multiply is stratalg._kernels.bulk_multiply
        assert installed_wrappers()
        traced = run_cli(argv)
    assert traced == untraced
    assert installed_wrappers() == []
    assert stratalg.strata.multiply is originals["strata.multiply"]
    assert stratalg.kex.bulk_multiply is originals["kex.bulk_multiply"]
    assert cli.main is originals["cli.main"]
    assert (stratalg.field.Field.__dict__["__init__"]
            is originals["Field.__init__"])
    for name in tracer.busy_ns:
        assert 0 <= tracer.self_s(name) <= tracer.busy_s(name), name
    metrics = layer_metrics(tracer)
    assert metrics["cli.main.calls"] == 1
    assert metrics["strata.verify_closure.calls"] == 4
    assert metrics["strata.verify_closure.pairs"] > 0
    assert metrics["algebra.multiply.calls"] > 0


def test_benchmark_json_declares_what_the_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)
    layer_names = set(layer_metrics(Tracer())) | {"trace.overhead_s"} | {
        f"{c}_s" for c in workloads.CATEGORIES if c != "other"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert m["unit"] == run.unit_of(m["name"]), m
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "peak_rss_mb"}

