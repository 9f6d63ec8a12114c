"""Command-line interface: exit codes, text reports, JSON determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

import stratalg
from stratalg import (SamplingPlan, axioms, builtin_model, cli,
                      model_from_json, model_to_json)
from stratalg.axioms import MAX_SAMPLES
from stratalg.cli import build_parser, main
from stratalg.dynamics import MAX_STEPS, MAX_TALLY_BINS
from stratalg.kex import MAX_SECRET_LENGTH
from stratalg.strata import StratumPartition
from stratalg.field import Field

APPENDIX_REPORT = """\
The operation is not associative. 16 mismatches found:
  (i,j,k,l)=(1,1,2,0): 0 != -145
  (i,j,k,l)=(1,1,2,1): 0 != 80
  (i,j,k,l)=(1,1,2,2): 16 != 121
  (i,j,k,l)=(1,2,1,0): -167 != 145
  (i,j,k,l)=(1,2,1,1): -74 != -72
  (i,j,k,l)=(1,2,2,0): -109 != 0
  (i,j,k,l)=(1,2,2,1): 49 != 8
  (i,j,k,l)=(1,2,2,2): 80 != 0
  (i,j,k,l)=(2,1,1,0): 167 != 0
  (i,j,k,l)=(2,1,1,1): 82 != 0
  (i,j,k,l)=(2,1,1,2): 121 != 16
  (i,j,k,l)=(2,1,2,0): 109 != -123
  (i,j,k,l)=(2,1,2,2): -72 != -74
  (i,j,k,l)=(2,2,1,0): 0 != 123
  (i,j,k,l)=(2,2,1,1): 8 != 49
  (i,j,k,l)=(2,2,1,2): 0 != 82
"""


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_check_assoc_associative(capsys):
    rc, out, err = run(capsys, ["check-assoc", "--builtin", "basic3"])
    assert rc == 0
    assert out == "The operation is associative.\n"
    assert err == ""


def test_check_assoc_mismatch_listing(capsys):
    rc, out, _ = run(capsys, ["check-assoc", "--builtin", "parametric3",
                              "--params", "16,8,5,3,7,11"])
    assert rc == 1
    assert out == APPENDIX_REPORT


def test_check_assoc_json(capsys):
    rc, out, _ = run(capsys, ["check-assoc", "--builtin", "parametric3",
                              "--params", "16,8,5,3,7,11", "--json"])
    assert rc == 1
    obj = json.loads(out)
    assert obj["associative"] is False
    assert len(obj["mismatches"]) == 16
    assert obj["mismatches"][0] == {"i": 1, "j": 1, "k": 2, "l": 0,
                                    "lhs": "0", "rhs": "-145"}


def test_check_assoc_rejects_affine(capsys):
    rc, out, err = run(capsys, ["check-assoc", "--builtin", "nonlinear3",
                                "--params", "2,3,5,1,4,6"])
    assert rc == 2
    assert out == ""
    assert "axioms" in err  # points at the right command


def test_usage_errors(capsys, tmp_path):
    rc, _, err = run(capsys, ["check-assoc"])
    assert rc == 2 and "--builtin" in err
    rc, _, err = run(capsys, ["check-assoc", "--model", "/no/such/file"])
    assert rc == 2 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, ["check-assoc", "--model", str(bad)])
    assert rc == 2
    rc, _, err = run(capsys, ["axioms", "--builtin", "basic3",
                              "--field", "fp:6"])
    assert rc == 2 and "not prime" in err
    rc, _, err = run(capsys, ["axioms", "--builtin", "basic3",
                              "--field", "zp:7"])
    assert rc == 2 and "field spec" in err
    rc, _, err = run(capsys, ["check-assoc", "--builtin", "parametric3"])
    assert rc == 2 and "params" in err


def test_axioms_chain_max_outside_three_to_six(capsys):
    # 2 left SA4 without a chain (a division by zero); 7 runs 7! orderings
    for bound in ("2", "7"):
        rc, out, err = run(capsys, ["axioms", "--builtin", "parametric3",
                                    "--params", "2,3,5,7,11,13",
                                    "--chain-max", bound])
        assert rc == 2 and out == ""
        assert err == "error: chain length bound must be in 3..6\n"


def test_axioms_text_report(capsys):
    rc, out, _ = run(capsys, ["axioms", "--builtin", "basic3",
                              "--samples", "60"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "model basic3 over Q (seed 0, samples 60)"
    assert lines[1] == "  SA1: holds"
    assert lines[2] == "  SA2: holds-on-samples"
    assert lines[3] == "  SA3: holds"
    assert lines[4] == "  SA4: degenerate"
    assert lines[5] == "classification: symmetric"


def test_axioms_json_deterministic(capsys):
    argv = ["axioms", "--builtin", "parametric3", "--params", "2,3,5,1,4,6",
            "--field", "fp:19", "--samples", "30", "--seed", "9", "--json"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["classification"] == "fully"
    assert obj["seed"] == 9


def test_strata_declared_text(capsys):
    rc, out, _ = run(capsys, ["strata", "--builtin", "basic3",
                              "--field", "fp:7"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == ("partition (declared-ratio) of F_7^3: 8 strata, "
                        "342 vectors, 0 exceptional")
    assert "  inf: 48" in lines
    assert "  3: 42" in lines


def test_strata_discovered_with_agreement(capsys):
    rc, out, _ = run(capsys, ["strata", "--builtin", "nonlinear3",
                              "--params", "2,3,5,1,4,6", "--field", "fp:19",
                              "--discover"])
    assert rc == 0
    assert out.splitlines()[0] == ("partition (discovered) of F_19^3: "
                                   "20 strata, 6840 vectors, 18 exceptional")
    assert ("agrees with declared rule on non-exceptional vectors: True"
            in out.splitlines()[-1])
    rc, out, _ = run(capsys, ["strata", "--builtin", "nonlinear3",
                              "--params", "2,3,5,1,4,6", "--field", "fp:19",
                              "--discover", "--json"])
    obj = json.loads(out)
    assert obj["provenance"] == "discovered"
    assert obj["declared_rule_agreement"]["agrees_on_non_exceptional"] is True
    assert len(obj["exceptional"]) == 18


def test_strata_text_counts_without_member_lists(capsys, monkeypatch):
    """The text report counts strata and the ledger from the label codes:
    it builds no member list, whose tuples would hold every vector."""
    def refuse(self, as_members):
        raise AssertionError("member lists built for a text report")

    monkeypatch.setattr(StratumPartition, "_grouped", refuse)
    for extra in ([], ["--discover"]):
        rc, out, _ = run(capsys, ["strata", "--builtin", "nonlinear3",
                                  "--params", "2,3,1,4,1,2", "--field", "fp:5",
                                  *extra])
        assert rc == 0
        assert out.startswith("partition (")
    assert out.splitlines()[-2] == "  exceptional: 4"


def test_strata_full_members(capsys):
    rc, out, _ = run(capsys, ["strata", "--builtin", "basic3",
                              "--field", "fp:5", "--json", "--full"])
    obj = json.loads(out)
    sizes = {s["label"]: s["size"] for s in obj["strata"]}
    assert sizes["inf"] == 24
    for s in obj["strata"]:
        assert len(s["members"]) == s["size"]


def test_strata_needs_prime_field(capsys):
    rc, _, err = run(capsys, ["strata", "--builtin", "basic3"])
    assert rc == 2
    assert "fp:P" in err


def test_orbit_trajectory_text(capsys):
    rc, out, _ = run(capsys, ["orbit", "--builtin", "parametric3",
                              "--params", "2,3,1,4,1,2", "--field", "fp:5",
                              "--start", "0,1,2", "--q", "1,0,1",
                              "--steps", "10"])
    assert rc == 0
    assert out == "3 -> zero\ntruncated: zero product\n"


def test_orbit_trajectory_cycle_and_json(capsys):
    argv = ["orbit", "--builtin", "parametric3", "--params", "2,3,1,4,1,2",
            "--field", "fp:5", "--start", "1,2,1", "--q", "0,3,4",
            "--steps", "30"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert "cycle: enters at step" in out
    rc, out, _ = run(capsys, argv + ["--json"])
    lines = [json.loads(l) for l in out.splitlines()]
    assert lines[0]["type"] == "trajectory"
    assert lines[0]["cycle"] is not None
    assert all("stratum" in l for l in lines[1:])


def test_orbit_requires_q_with_start(capsys):
    rc, _, err = run(capsys, ["orbit", "--builtin", "basic3",
                              "--field", "fp:5", "--start", "1,2,1"])
    assert rc == 2
    assert "--q" in err


def test_orbit_graph_text_dot_json(capsys, tmp_path):
    base = ["orbit", "--builtin", "parametric3", "--params", "2,3,1,4,1,2",
            "--field", "fp:5"]
    rc, out, _ = run(capsys, base)
    assert rc == 0
    assert out.startswith("transition graph (exhaustive, seed 0): 6 strata")
    assert "cross-stratum returns:" in out
    rc, out, _ = run(capsys, base + ["--dot"])
    assert out.splitlines()[0] == "digraph transitions {"
    assert '"3" -> ' in out
    target = tmp_path / "graph.json"
    rc, out, _ = run(capsys, base + ["--json", "--output", str(target)])
    assert out == ""
    obj = json.loads(target.read_text())
    assert obj["mode"] == "exhaustive"
    assert obj["pairs"] == 124 ** 2


def test_kex_text_and_exit_code(capsys):
    rc, out, _ = run(capsys, ["kex", "--builtin", "parametric3",
                              "--params", "2,3,1,4,1,2", "--field", "fp:5",
                              "--seed", "1", "--lengths", "1,2", "--recover"])
    assert rc == 0
    assert out == ("seed 1, lengths 1,2, stratum 0\n"
                   "AGREED\n"
                   "brute force: tried 15500 chains, 97 consistent, "
                   "recovered true key: True\n")


def test_kex_recover_on_a_failed_session(capsys):
    # seed 17 hits a zero product while announcing: there is no shared key
    rc, out, _ = run(capsys, ["kex", "--builtin", "parametric3",
                              "--params", "2,3,1,4,1,2", "--field", "fp:5",
                              "--seed", "17", "--lengths", "2,2",
                              "--recover", "--json"])
    assert rc == 1
    obj = json.loads(out)
    assert obj["agreed"] is False
    assert obj["failure"] == "zero product while announcing"
    assert obj["recovery"]["recovered_true_key"] is False


def test_kex_json(capsys):
    argv = ["kex", "--builtin", "nonlinear3", "--params", "2,3,5,1,4,6",
            "--field", "fp:19", "--seed", "4", "--json"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    obj = json.loads(out)
    assert obj["agreed"] is True
    assert obj["seed"] == 4
    assert [m["sender"] for m in obj["messages"]] == ["setup", "alice", "bob"]
    rc2, out2, _ = run(capsys, argv)
    assert out2 == out  # reruns are byte-identical


def test_kex_bad_lengths(capsys):
    rc, _, err = run(capsys, ["kex", "--builtin", "basic3",
                              "--field", "fp:5", "--lengths", "3"])
    assert rc == 2
    assert "lengths" in err


def test_identities_table(capsys):
    rc, out, _ = run(capsys, ["identities", "--builtin", "parametric4"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("commutator_direction_4d")
    assert lines[0].rstrip().endswith("MATCHES")
    differs = [l for l in lines if "DIFFERS" in l]
    assert len(differs) == 1
    assert differs[0].startswith("associator_reduced_4d ")
    assert "co-stratal" in differs[0]
    rc, out, _ = run(capsys, ["identities", "--builtin", "parametric3",
                              "--json"])
    rows = json.loads(out)
    assert all(r["matches"] for r in rows)


def test_model_file_round_trip(capsys, tmp_path):
    model = builtin_model("parametric3", params=(16, 8, 5, 3, 7, 11))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(model)))
    rc, out, _ = run(capsys, ["check-assoc", "--model", str(path)])
    assert rc == 1
    assert out == APPENDIX_REPORT
    # builtin reference files work too
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps({"builtin": "basic3"}))
    rc, out, _ = run(capsys, ["check-assoc", "--model", str(ref)])
    assert rc == 0
    assert out == "The operation is associative.\n"


BUILTIN_FILES = [("basic3", None, None),
                 ("parametric3", (2, 3, 1, 4, 1, 2), 5),
                 ("parametric4", (2, 3, 5, 7, 11, 13), None),
                 ("nonlinear3", (2, 3, 5, 1, 4, 6), 7)]


@pytest.mark.parametrize("name,params,p", BUILTIN_FILES,
                         ids=[b[0] for b in BUILTIN_FILES])
def test_builtin_name_needs_the_builtin_operation(capsys, tmp_path, name,
                                                  params, p):
    # the symbolic proofs of SA1, SA3, case 1 and identities key on the
    # name; a written-out built-in loads, the same name on any other
    # operation (one more bilinear entry, as the benchmark's broken3 has
    # over basic3) or a rule moved off the built-in's coordinates (the
    # proofs bind those) is refused; a file may leave the rule out
    obj = model_to_json(builtin_model(name, params=params,
                                      field=Field(p) if p else None))
    assert model_from_json(obj).name == name
    norule = {k: v for k, v in obj.items() if k != "strata_rule"}
    assert model_from_json(norule).strata_rule is None
    rule = obj["strata_rule"]
    moved = dict(obj, strata_rule=dict(rule, coords=[c - 1 for c in
                                                     rule["coords"]]))
    with pytest.raises(ValueError, match=f"rule is not built-in {name}'s"):
        model_from_json(moved)
    obj["operation"]["bilinear"].append({"i": 1, "j": 0, "k": 0, "c": "1"})
    with pytest.raises(ValueError, match=f"not built-in {name}'s"):
        model_from_json(obj)
    for i, impostor in enumerate((obj, moved)):
        path = tmp_path / f"impostor{i}.json"
        path.write_text(json.dumps(impostor))
        for argv in (["axioms", "--samples", "10"], ["identities"]):
            rc, out, err = run(capsys, argv + ["--model", str(path)])
            assert (rc, out) == (2, "")
            assert err.startswith("error: bad model file")


def test_float_model_parameter_is_a_usage_error(capsys, tmp_path):
    # a float parameter would truncate (0.5 -> 0 over F_7, where 1/2 is 4)
    path = tmp_path / "float.json"
    path.write_text(json.dumps({"builtin": "nonlinear3",
                                "field": {"kind": "Fp", "p": 7},
                                "params": {"A": 0.5, "B": 3, "C": 5, "D": 1,
                                           "E": 4, "F": 6}}))
    rc, out, err = run(capsys, ["orbit", "--model", str(path), "--json"])
    assert rc == 2 and out == ""
    assert err.startswith("error: bad model file")


# [(path into a model file, bad value), ...]: indices and coords outside
# [0, n) or not ints, float scalars, which JSON would round or truncate, a
# string modulus, and a bool parameter of a builtin reference (the file
# becomes one when it names a builtin)
BAD_MODEL_FILES = [
    [(("operation", "linear_a", 0, "i"), 5)],
    [(("operation", "linear_b", 0, "k"), -1)],
    [(("operation", "bilinear", 0, "i"), 0.5)],
    [(("operation", "bilinear", 0, "j"), True)],
    [(("operation", "bilinear", 0, "c"), 0.5)],
    [(("dimension",), 3.7)],
    [(("strata_rule", "coords"), [1, -1])],
    [(("strata_rule", "coords"), [1, 5])],
    [(("strata_rule", "coords"), [0, 1, 2])],
    [(("strata_rule", "coords"), [1, 1])],
    [(("strata_rule", "kind"), "slope")],
    [(("field", "p"), "7")],
    [(("builtin",), "nonlinear3"), (("params", "A"), True)],
]


@pytest.mark.parametrize(
    "edits", BAD_MODEL_FILES,
    ids=["linear-a-index-5", "linear-b-index-negative", "index-float",
         "index-bool", "coefficient-float", "dimension-float",
         "coord-negative", "coord-out-of-range", "ratio-on-three-coords",
         "repeated-coord", "unknown-rule", "modulus-string",
         "builtin-param-bool"])
def test_bad_model_file_is_a_usage_error(capsys, tmp_path, edits):
    obj = model_to_json(builtin_model("nonlinear3", params=(2, 3, 5, 1, 4, 6),
                                      field=Field(7)))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(obj))
    assert run(capsys, ["strata", "--model", str(good)])[0] == 0
    for path, value in edits:
        node = obj
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    for command in ("strata", "axioms", "orbit", "check-assoc"):
        rc, out, err = run(capsys, [command, "--model", str(bad)])
        assert (rc, out) == (2, "")
        assert err.startswith("error: bad model file")


def test_model_without_strata_rule_is_a_usage_error(capsys, tmp_path,
                                                     monkeypatch):
    # SA2-SA4 and kex label by the declared rule, even with --discover;
    # axioms refuses it before building the partition or running SA1
    obj = model_to_json(builtin_model("nonlinear3", params=(2, 3, 5, 1, 4, 6),
                                      field=Field(7)))
    del obj["strata_rule"]
    path = tmp_path / "norule.json"
    path.write_text(json.dumps(obj))

    def unreachable(*args):
        raise AssertionError("built before the rule check")

    monkeypatch.setattr(cli, "partition_for", unreachable)
    monkeypatch.setattr(axioms, "check_sa1", unreachable)
    for argv in (["axioms"], ["axioms", "--discover"], ["kex"]):
        rc, out, err = run(capsys, argv + ["--model", str(path)])
        assert (rc, out) == (2, "")
        assert err.startswith("error: model nonlinear3 declares no strata "
                              "rule")
        assert err.count("\n") == 1


def test_axioms_on_a_plane_model_exits_instead_of_hanging(tmp_path):
    """A 2-D model's rule takes both coordinates, and its co-stratal draws
    vary there: axioms classifies it and exits by its verdicts. Run in a
    subprocess, so a hang fails the test."""
    entries = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 2}
    obj = {"name": "plane2", "dimension": 2,
           "field": {"kind": "Fp", "p": 7},
           "operation": {"bilinear": [{"i": i, "j": j, "k": k, "c": str(c)}
                                      for (i, j, k), c in entries.items()]},
           "strata_rule": {"kind": "ratio", "coords": [0, 1]}}
    path = tmp_path / "plane2.json"
    path.write_text(json.dumps(obj))
    src = os.path.dirname(os.path.dirname(stratalg.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "stratalg.cli", "axioms", "--model", str(path),
         "--json"], capture_output=True, text=True, timeout=60, env=env)
    assert proc.stderr == ""
    report = json.loads(proc.stdout)
    assert report["model"] == "plane2"
    assert report["classification"] in ("none", "weak", "symmetric", "fully")
    failed = any(a["verdict"] == "fails" for a in report["axioms"].values())
    assert proc.returncode == (1 if failed else 0)


P3 = ["--builtin", "parametric3", "--params", "2,3,1,4,1,2", "--field", "fp:5"]

# Budget caps: the largest value of each flag is accepted, one more exits 2
# (axioms at MAX_SAMPLES takes seconds, so its bound is checked on the plan).
# Orbit steps also have a floor: a zero-step walk runs, -3 exits 2.
# The transition tally grows with the strata of the field: parametric4's
# graph over F_13 (172 strata) is drawn and F_23's (532) refused; F_19 (364)
# fits but would allocate 2 x 387 MB.
CAPPED_ARGVS = [
    (["axioms", *P3, "--samples"], None, MAX_SAMPLES + 1,
     f"error: samples must be at most {MAX_SAMPLES}\n"),
    (["orbit", *P3, "--start", "1,2,1", "--q", "0,3,4", "--steps"], MAX_STEPS,
     MAX_STEPS + 1, f"error: orbit steps must be at most {MAX_STEPS}\n"),
    (["orbit", *P3, "--start", "1,2,1", "--q", "0,3,4", "--steps"], 0, -3,
     "error: orbit steps must be at least 0\n"),
    (["kex", *P3, "--seed", "1", "--lengths"], f"1,{MAX_SECRET_LENGTH}",
     f"1,{MAX_SECRET_LENGTH + 1}",
     f"error: secret lengths must be at most {MAX_SECRET_LENGTH}\n"),
    (["orbit", "--builtin", "parametric4", "--params", "2,3,5,7,11,13",
      "--field"], "fp:13", "fp:23",
     "error: a transition graph over 532 strata needs 150851792 tally bins; "
     f"at most {MAX_TALLY_BINS} supported\n"),
]


@pytest.mark.parametrize("argv,accepted,refused,err", CAPPED_ARGVS,
                         ids=["samples", "steps", "negative-steps", "lengths",
                              "tally"])
def test_budget_caps(capsys, argv, accepted, refused, err):
    if accepted is None:
        assert SamplingPlan(samples=MAX_SAMPLES).samples == MAX_SAMPLES
    else:
        assert run(capsys, argv + [str(accepted)])[0] in (0, 1)
    assert run(capsys, argv + [str(refused)]) == (2, "", err)

# orbit --start labels its steps by the declared rule and enumerates
# nothing, so it runs at a prime past SPACE_CAP. Q stays refused: it has no
# enumerable strata for --discover, and its entries grow without bound.
# --discover still enumerates the space, so it keeps the cap.
NO_FIELD = ("error: stratum enumeration needs a prime field; "
            "pass --field fp:P\n")
START_FIELDS = [
    (["--field", "fp:1000000000039"], 0, ""),
    (["--field", "fp:1000000000039", "--json"], 0, ""),
    (["--field", "q"], 2, NO_FIELD),
    ([], 2, NO_FIELD),
    (["--field", "fp:1000000000039", "--discover"], 2,
     "error: 1000000000039**3 exceeds enumeration cap 2**24\n"),
]


@pytest.mark.parametrize("extra,code,err", START_FIELDS,
                         ids=["bigp", "bigp-json", "q", "default-q",
                              "bigp-discover"])
def test_orbit_start_fields(capsys, extra, code, err):
    argv = ["orbit", "--builtin", "nonlinear3", "--params", "2,3,5,4,6,1",
            "--start", "1,2,3", "--q", "2,1,1", "--steps", "20", *extra]
    rc, out, got = run(capsys, argv)
    assert (rc, got) == (code, err)
    if "--json" in extra:
        steps = [json.loads(line) for line in out.splitlines()[1:]]
        assert [s["step"] for s in steps] == list(range(21))
    elif code == 0:
        assert out.count(" -> ") == 20


# Aim 3, no input exhausts memory: a trajectory labels its steps by the
# rule, so its peak does not grow with the field. At F_251 (16.6M vectors)
# the whole-space partition these 51 labels once came from peaked at 875 MB;
# labeled by the rule the process peaks near 30 MB.
# A child's ru_maxrss starts at its parent's peak (Linux keeps it across
# exec), so the test process's own size would count; the child reports
# VmHWM, the high-water mark of its own memory, where /proc has it.
CLI_PEAK = """
import resource, sys
from stratalg import cli
code = cli.main(sys.argv[1:])
try:
    with open("/proc/self/status") as fh:
        peak = next(int(l.split()[1]) for l in fh if l.startswith("VmHWM"))
except OSError:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(code, peak)
"""


def cli_peak(argv, timeout):
    """(exit code, peak kB) of one CLI run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(stratalg.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", CLI_PEAK, *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    code, peak_kb = map(int, proc.stdout.split())
    return code, peak_kb


def test_trajectory_near_space_cap_stays_small(tmp_path):
    out = tmp_path / "trajectory.jsonl"
    code, peak_kb = cli_peak(
        ["orbit", "--builtin", "nonlinear3", "--params", "2,3,5,4,6,1",
         "--field", "fp:251", "--start", "1,2,3", "--q", "2,1,1",
         "--steps", "50", "--json", "--output", str(out)], timeout=60)
    assert code == 0
    assert len(out.read_text().splitlines()) == 52
    assert peak_kb < 150 * 1024


def test_text_strata_near_space_cap_stays_small(tmp_path):
    """The declared partition of F_251^3 (16.6M vectors) labels its
    vectors in blocks into one int32 array, which the partition keeps as
    its codes, and counts the strata in blocks. Labeled in one shot it
    peaked at 874 MB; with a second int32 copy for the codes and a whole
    int64 cast in sizes() it peaked near 212 MB."""
    out = tmp_path / "strata.txt"
    code, peak_kb = cli_peak(
        ["strata", "--builtin", "nonlinear3", "--params", "2,3,5,4,6,1",
         "--field", "fp:251", "--output", str(out)], timeout=120)
    assert code == 0
    assert "252 strata" in out.read_text()
    assert peak_kb < 150 * 1024


# Flags come and go between neighbours, and every error sits between two
# successful calls whichever way the list is run.
IN_PROCESS_ARGVS = [
    ["kex", *P3, "--seed", "1", "--lengths", "1,2", "--recover", "--json"],
    ["kex", *P3],
    ["strata", *P3, "--discover", "--json", "--full"],
    ["axioms", "--builtin", "nosuch"],
    ["strata", *P3],
    ["axioms", *P3, "--samples", "20", "--seed", "3", "--json"],
    ["axioms", *P3, "--chain-max", "2"],
    ["axioms", *P3, "--discover"],
    ["orbit", *P3, "--start", "1,2,1", "--q", "0,3,4", "--steps", "30",
     "--json"],
    ["orbit", *P3, "--start", "1,2,1", "--q", "0,3,4"],
]


def outcome(capsys, argv):
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_in_process_calls_do_not_affect_each_other(capsys):
    forward = [outcome(capsys, argv) for argv in IN_PROCESS_ARGVS]
    backward = [outcome(capsys, argv) for argv in reversed(IN_PROCESS_ARGVS)]
    assert forward == backward[::-1]
    codes = [rc for rc, _, _ in forward]
    assert codes == [0, 0, 0, 2, 0, 0, 2, 0, 0, 0]
    assert "invalid choice: 'nosuch'" in forward[3][2]
    assert forward[6][2] == "error: chain length bound must be in 3..6\n"


def test_parser_defaults_are_immutable():
    # the parser is shared by every call in a process; a list, dict or set
    # default could carry one call's values into the next
    parser = build_parser()
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    for p in (parser, *sub.choices.values()):
        defaults = [a.default for a in p._actions] + list(p._defaults.values())
        assert not [d for d in defaults if isinstance(d, (list, dict, set))]


# SHA-256 of the stdout of each command with its exit code. The first six
# were frozen from the implementation that kept stratum members as tuples in
# a dict and formed a product tensor per pair: the exhaustive F_11 and sampled
# F_23 transition graphs, a 50-step trajectory, a trajectory through the
# exceptional ledger of a discovered partition, and two declared partitions
# with every member listed. The rest were frozen from the `json.dumps(...,
# indent=2)` writer, one per JSON report: two discovered partitions (the
# first with an exceptional ledger), an agreeing and a failed key exchange, a
# recovery, axiom reports over Q and F_p, the identity suite and an
# associativity report with mismatches. The two graphs after the first two
# were frozen from the scan that folded left tables against coordinate
# planes: an exhaustive scan with n = 4 whose last block is ragged, and one
# over the exceptional ledger of a discovered partition. The last two are the
# text reports of a declared partition and of a discovered one with an
# exceptional ledger, frozen while the counts still came from member lists
GOLDEN_OUTPUTS = [
    (["orbit", "--builtin", "nonlinear3", "--params", "2,3,5,1,4,6",
      "--field", "fp:11", "--json", "--seed", "3"], 0,
     "ad69e5343abb4304d20fccba4ade7a062ae8f5178ca65d7a505b34e1d692d94d"),
    (["orbit", "--builtin", "nonlinear3", "--params", "3,1,6,2,5,4",
      "--field", "fp:23", "--json", "--seed", "10"], 0,
     "901bfc919d8c320d0a78ac10a4f1e2b99906ac6b7b510c98ac8e2cfbb605893d"),
    (["orbit", "--builtin", "parametric4", "--params", "2,3,5,7,11,13",
      "--field", "fp:5", "--json", "--seed", "3"], 0,
     "62a4dd59c4093ad1181bc5f46f972e63713eb09471064d9776377de9acb02761"),
    (["orbit", "--builtin", "nonlinear3", "--params", "2,3,1,4,1,2",
      "--field", "fp:5", "--discover", "--json", "--seed", "3"], 0,
     "a47e85e379166b400bb4f51272e8108550387066e4c789a142926c78a56c4f3f"),
    (["orbit", "--builtin", "nonlinear3", "--params", "2,3,5,1,4,6",
      "--field", "fp:19", "--start", "1,2,3", "--q", "4,5,6",
      "--steps", "50", "--json"], 0,
     "ddd2f57d0513ba4718a64b0eef3b17f76c2fd18331bb6268b33c39d86df10c5f"),
    (["orbit", "--builtin", "nonlinear3", "--params", "2,3,5,1,4,6",
      "--field", "fp:7", "--discover", "--start", "1,0,0", "--q", "2,1,3",
      "--steps", "50", "--json"], 0,
     "c34c3143f4a559a130efc60826767e2c70d97cde90a08aced26b534819af4e08"),
    (["strata", "--builtin", "nonlinear3", "--params", "2,3,5,1,4,6",
      "--field", "fp:7", "--json", "--full"], 0,
     "69559e8c152973c4f12c77ad13829562565cda1dde34541ea9e49b7af2b3bf12"),
    (["strata", "--builtin", "parametric4", "--params", "2,3,5,7,11,13",
      "--field", "fp:5", "--json", "--full"], 0,
     "fe2854d0c2a906797b3e3f12e4f3cea5219d9e0fe256508dcee8bf17d1b8d663"),
    (["strata", "--builtin", "nonlinear3", "--params", "2,3,1,4,1,2",
      "--field", "fp:5", "--discover", "--json"], 0,
     "e23d1540f7a8579ea90fddcf6a47e894601274b496b3e57513802fc9d8447941"),
    (["strata", "--builtin", "nonlinear3", "--params", "2,3,5,1,4,6",
      "--field", "fp:13", "--discover", "--json"], 0,
     "6f1eebdc5e35bd2aecefde95eeef53561ed78585bc152f16e75d878031e9b90d"),
    (["kex", "--builtin", "nonlinear3", "--params", "2,3,5,1,4,6",
      "--field", "fp:19", "--seed", "4", "--json"], 0,
     "118250118bedad7eb7daa124aff2c32c61819d870a53797905c247ef47eba3f2"),
    (["kex", *P3, "--seed", "17", "--lengths", "2,2", "--json"], 1,
     "2c431f136bc1fac8842ac3b9f87969ceba7fdef2477a6a3d7bc24d7e52dd2795"),
    (["kex", *P3, "--seed", "1", "--lengths", "1,2", "--recover", "--json"],
     0, "278ce464f6a074211f71af0df7a11da56f356d1b0ed05dbc40d7861697f744fc"),
    (["axioms", "--builtin", "parametric3", "--params", "16,8,5,3,7,11",
      "--samples", "40", "--seed", "5", "--json"], 0,
     "ea5bbcdc053ba966cc77e24f8e669d1918a41073050ab79957f70badbe21d836"),
    (["axioms", "--builtin", "parametric3", "--params", "2,3,5,1,4,6",
      "--field", "fp:19", "--samples", "30", "--seed", "9", "--json"], 0,
     "878535b67ef110460ddcc60219be7c22e16913b16d79a0fd651ec466e5231a84"),
    (["identities", "--builtin", "parametric4", "--json"], 0,
     "d77ef32eef0396761ec313673c94522c24ca41dbfe6a2255fc7c707636d43fc1"),
    (["check-assoc", "--builtin", "parametric3", "--params", "16,8,5,3,7,11",
      "--json"], 1,
     "ad89435bea549beb274a4cd0111ac40dc6f5e360c8847d1c84fc8bf36b25ae57"),
    (["strata", "--builtin", "nonlinear3", "--params", "2,3,5,1,4,6",
      "--field", "fp:7"], 0,
     "41fa2be04922953333654f4a5ed9203a0229f5021b1caf3aff349302e20a6729"),
    (["strata", "--builtin", "nonlinear3", "--params", "2,3,1,4,1,2",
      "--field", "fp:5", "--discover"], 0,
     "a6d76ba0767dcea4df74bb103a9b0d4b449ca6ea2c930f0511d499ffa8e1a49b"),
]


@pytest.mark.parametrize(
    "argv,code,digest", GOLDEN_OUTPUTS,
    ids=["graph-f11", "graph-f23", "graph-parametric4-f5",
         "graph-nonlinear3-f5-ledger", "trajectory-f19", "trajectory-f7-discover",
         "strata-nonlinear3-f7", "strata-parametric4-f5",
         "discover-nonlinear3-f5-ledger", "discover-nonlinear3-f13",
         "kex-agreed", "kex-failed", "kex-recover", "axioms-q", "axioms-f19",
         "identities-parametric4", "check-assoc-mismatches",
         "strata-text-nonlinear3-f7", "discover-text-nonlinear3-f5-ledger"])
def test_output_matches_golden_digest(capsys, argv, code, digest):
    rc, out, _ = run(capsys, argv)
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of `stratalg [COMMAND] --help` at 80 columns, frozen while the
# parser read the orbit and kex caps (--steps, --lengths) from dynamics and kex
GOLDEN_HELP = [
    ([], "9178bf5592be40dd668f98298251db2f3d0e67e1fadb689d2d6c1a5f40a9d7f2"),
    (["check-assoc"],
     "011a252c92e3e0651b3bf1a36b01a765f678aa7cafed468a161f576ad55d3f7e"),
    (["axioms"],
     "50f6180d94876827ba95e2d61091df68e6bfb5f920b5510d6deec948a3418ef6"),
    (["strata"],
     "b68337ddc47fd70bd7794079be2bccaa16a336b09091bfccbd2e9e14f17dd3bc"),
    (["orbit"],
     "ed48cdbf69b091ca5a9ce4907f2689ac63bc3a828da20c01f6f73887ffb127c9"),
    (["kex"],
     "328a89b1a4c3635db961624d5c4ff5769bd56d6b47cd7e8743f6b516863d7bc4"),
    (["identities"],
     "0b9eef213c325f54b5d63b5cfe361a5d0e91cb1de98669dab80fc1f4d6f068ba"),
]


@pytest.mark.parametrize("command,digest", GOLDEN_HELP,
                         ids=[(g[0] or ["stratalg"])[0] for g in GOLDEN_HELP])
def test_help_matches_golden_digest(capsys, monkeypatch, command, digest):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(command + ["--help"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.err) == (0, "")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


# SHA-256 of the stdout of each walk with its exit code, frozen while
# trajectories multiplied FieldElement tuples and labeled each step through
# the whole-space partition, and kex walks labeled through ratio_stratum_of
# (both now label plain values through rules.rule_label):
# a ratio-pair trajectory, one that ends in a cycle, one cut by a zero
# product, the text form of a ratio-pair cycle, and a ratio-pair key
# exchange as JSON, as text, and as text where deriving hits a zero product
P4 = ["--builtin", "parametric4", "--params", "2,3,5,7,11,13"]
WALK4 = ["--start", "1,2,3,4", "--q", "2,1,3,1", "--steps", "40"]
GOLDEN_WALKS = [
    (["orbit", *P4, "--field", "fp:11", *WALK4, "--json"], 0,
     "27f8c971b8ee9273657c45ca78018a5ba1c56b431a10a23ebbd2cc9d78d4c23d"),
    (["orbit", *P3, "--start", "1,2,1", "--q", "0,3,4", "--steps", "30",
      "--json"], 0,
     "227d31fdf86765ece968f14b7de5f3c52e1bd136c316ae3f631251d9183a5028"),
    (["orbit", *P3, "--start", "0,1,2", "--q", "1,0,1", "--steps", "10",
      "--json"], 0,
     "07e6a3aa6e272b1a865cd15b9f549f84573c2f767dad086bdcab7153d155300c"),
    (["orbit", *P4, "--field", "fp:7", *WALK4], 0,
     "69f1d830cf4f984eb17c1a49f612523accf62f610f0b7d07f616414ab45f3ee7"),
    (["kex", *P4, "--field", "fp:7", "--seed", "2", "--json"], 0,
     "9aa522e0cd98aac84fe916956fbb3dee6b1284f9f89ad74cace5a55efa7eb3ea"),
    (["kex", *P4, "--field", "fp:7", "--seed", "2"], 0,
     "ff24d760d024cdd7ab1ac115e61e16c1729809f41086d0d75e42def00d462532"),
    (["kex", *P4, "--field", "fp:7", "--seed", "5"], 1,
     "cee907b216e960a0a5fb5d80fe37fca217f1d78874dce1f2f7737d6ee4ac62ce"),
]


@pytest.mark.parametrize(
    "argv,code,digest", GOLDEN_WALKS,
    ids=["trajectory-parametric4-f11", "trajectory-cycle-f5",
         "trajectory-zero-f5", "trajectory-text-parametric4-f7",
         "kex-parametric4-f7", "kex-text-parametric4-f7",
         "kex-text-failed-parametric4-f7"])
def test_walk_matches_golden_digest(capsys, argv, code, digest):
    rc, out, _ = run(capsys, argv)
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of reports over spaces of more than 2**16 nonzero vectors, frozen
# while each whole-space labeling ran in one call and the sampled scan
# multiplied its 10**5 pairs at once: a sampled transition graph and its text
# summary over F_41^3 (68,920 vectors), the text report of parametric4's
# ratio-pair partition of F_17^4 (83,520 vectors), and a discovery over F_41^3
# checked against the declared rule
N41 = ["--builtin", "nonlinear3", "--params", "2,3,5,1,4,6",
       "--field", "fp:41"]
GOLDEN_BLOCKS = [
    (["orbit", *N41, "--seed", "3", "--json"], 0,
     "25bcb004020b87724dd949e4b62e02ec4f43c5d36472599852b972d880e36e2a"),
    (["orbit", *N41, "--seed", "3"], 0,
     "53f3aebba177051c5904829514bbc974d49521bd1db9ebbf451dd1455fe1b300"),
    (["strata", *P4, "--field", "fp:17"], 0,
     "1a1e90c6de250c6905aa3f0c74b3eba49df0f4e2cb07f8c3f6989078d1c55836"),
    (["strata", *N41, "--discover"], 0,
     "337905a817df80467d69a6ca9ca073d88b8e2ee98b17f9f39b418dbaef83ba9a"),
]


@pytest.mark.parametrize(
    "argv,code,digest", GOLDEN_BLOCKS,
    ids=["graph-f41", "graph-text-f41", "strata-text-parametric4-f17",
         "discover-text-f41"])
def test_report_past_one_label_block_matches_golden_digest(capsys, argv,
                                                            code, digest):
    rc, out, _ = run(capsys, argv)
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of sampled transition graphs that no digest above covers, frozen
# while the sampled scan multiplied each block of drawn pairs through
# bulk_multiply: parametric4 over F_11^4 (n = 4, 124 labels), a DOT graph
# over F_23^3, and a graph over the discovered partition of F_29^3
N3 = ["--builtin", "nonlinear3", "--params", "2,3,5,1,4,6"]
GOLDEN_SAMPLED = [
    (["orbit", *P4, "--field", "fp:11", "--json", "--seed", "3"], 0,
     "fda2128945fded27b575c93535318be9c960c5791576353fdc909f9d59ee2f73"),
    (["orbit", *N3, "--field", "fp:23", "--dot", "--seed", "5"], 0,
     "5b502367617fa0369d0707b96432ab152fa011f0c4df47a54211656223b60db6"),
    (["orbit", *N3, "--field", "fp:29", "--discover", "--json", "--seed",
      "5"], 0,
     "c649572bf6e3a9276a0e66725b99af62644d228ac28b1d691975dfe45bc40a64"),
]


@pytest.mark.parametrize(
    "argv,code,digest", GOLDEN_SAMPLED,
    ids=["graph-parametric4-f11", "graph-dot-f23", "graph-discover-f29"])
def test_sampled_graph_matches_golden_digest(capsys, argv, code, digest):
    rc, out, _ = run(capsys, argv)
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of benchmark-shaped key exchanges (nonlinear3 at F_19 and F_23,
# lengths 1,1 to 5,5), frozen while sessions drew, checked and walked
# FieldElement tuples and labeled each vector through label_str: agreeing
# sessions whose base was redrawn off the multiplier stratum (19/17, 23/14,
# 19/2371), zero products while deriving (19/59, 19/2371, 23/136) and while
# announcing (19/419, 23/863), and a plain agreeing session (23/0)
GOLDEN_KEX = [
    (19, "17", "1,1", True, 0,
     "aed4cf6d2c2898a50c09a434e0469259285246d554a945cc3bedea99e9b0a6ef"),
    (19, "59", "3,3", True, 1,
     "ad8fba975ee4f2da636c116183b973c1fbb03d67d1f6e95f7509bf443619aea9"),
    (19, "419", "5,5", False, 1,
     "1cf2b3d5a9544b8ccfd65c410de49637c99b01ebceabaa655b02a30d8baab870"),
    (19, "2371", "4,2", True, 1,
     "1fe627ee3cd0680b9cf553599740e8b2b463b8612e6d86b23ac793deab88323f"),
    (23, "14", "1,1", False, 0,
     "4e6adfd36298badd6800bc3a52ef45bc5023102eed8dca988611cba16fd0d41f"),
    (23, "136", "5,5", True, 1,
     "fd9d51c69553aed8cfa7d0a1f4aec84398c037c04ad8a47b3ee87756ae303e9e"),
    (23, "863", "3,3", False, 1,
     "00a0b4581d8a05606171c9ab7dae021b366c0d3b1bdad9cc8217e6d9cf8ab3cc"),
    (23, "0", "2,4", True, 0,
     "ffbadd78125a485fa3ed3113846c5d7770212dad0d2ef8e4aee83c1884cdb0a8"),
]


@pytest.mark.parametrize(
    "p,seed,lengths,as_json,code,digest", GOLDEN_KEX,
    ids=[f"kex-f{g[0]}-{g[1]}-{g[2]}{'-json' * g[3]}" for g in GOLDEN_KEX])
def test_kex_session_matches_golden_digest(capsys, p, seed, lengths, as_json,
                                           code, digest):
    argv = ["kex", *N3, "--field", f"fp:{p}", "--seed", seed,
            "--lengths", lengths] + ["--json"] * as_json
    rc, out, err = run(capsys, argv)
    assert (rc, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
