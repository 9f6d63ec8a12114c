"""The package's public names, and which commands load numpy."""

import json
import os
import pkgutil
import subprocess
import sys

import pytest

import stratalg

# stratalg.__all__, sorted, as it stood when the package imported every
# submodule at the top
PUBLIC_NAMES = [
    "AffineOperation", "BUILTIN_NAMES", "BracketTree", "Field",
    "FieldElement", "MatrixFormulation", "ModelSpec", "Party", "Polynomial",
    "SamplingPlan", "SessionTranscript", "StratumPartition",
    "StructureTensor", "Trajectory", "TransitionGraph", "algebra",
    "associativity_check", "associator", "axiom_report", "axioms",
    "brute_force_recover", "builtin_model", "case_analysis", "chain_path",
    "check_sa1", "check_sa2", "check_sa3", "check_sa4", "classify",
    "commutator", "discover_strata", "dynamics", "eavesdropper_view",
    "enumerate_space", "evaluate_bracketing", "field", "format_assoc_report",
    "format_scalar", "identity_suite_json", "init_session",
    "is_stratum_stable", "kex", "left_chain", "lps", "make_params",
    "matrix_to_tensor", "model_from_json", "model_to_json", "multiply",
    "orbit", "partitions_agree", "permutation_invariance", "poly",
    "ratio_partition", "ratio_stratum_of", "return_edge_stats",
    "run_exchange", "seeded_session", "self_loop_report", "strata",
    "stratified_depth", "symbolic_components", "symbolic_model",
    "tails_proportional", "transition_graph", "vector", "verify_closure",
    "verify_identity_suite",
]


def test_public_names_match_golden_list():
    assert len(PUBLIC_NAMES) == 68
    assert stratalg.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(stratalg, name) is not None, name


# Numpy stays out of the processes that never call a kernel: importing the
# CLI or any module but _kernels and strata, and the commands that work on
# values alone (axioms over Q or a prime past SPACE_CAP, identities,
# check-assoc, help, trajectories and key exchanges without --recover).
# Each probe runs in a fresh interpreter, under a timeout.

SRC = os.path.dirname(os.path.dirname(stratalg.__file__))

RUN_MAIN = """
import sys
from stratalg import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code, "numpy" in sys.modules)
"""

BUDGET = ["--samples", "10", "--chain-max", "3", "--json"]
NL3 = ["--builtin", "nonlinear3", "--params", "2,3,5,1,4,6"]
WALK = ["--start", "1,2,3", "--q", "4,5,6", "--steps", "50", "--json"]


def probe(code, *argv):
    """The last stdout line of code run in a fresh interpreter with argv."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


# every submodule on disk, so a new one that loads numpy at its top fails
LIGHT_MODULES = sorted(
    {m.name for m in pkgutil.iter_modules(stratalg.__path__)}
    - {"_kernels", "strata"})


@pytest.mark.parametrize("module", LIGHT_MODULES)
def test_light_modules_import_without_numpy(module):
    assert probe(f"import sys, stratalg.{module}\n"
                 "print('numpy' in sys.modules)") == "False"


def test_strata_loads_without_dynamics():
    assert probe("import sys, stratalg.strata\n"
                 "print('stratalg.dynamics' in sys.modules)") == "False"


@pytest.fixture(scope="module")
def broken3_file(tmp_path_factory):
    """basic3 over Q with the structure entry (1, 0, 0) = 1 added."""
    obj = stratalg.model_to_json(stratalg.builtin_model("basic3"))
    obj["name"] = "broken3"
    obj["operation"]["bilinear"].append({"i": 1, "j": 0, "k": 0, "c": "1"})
    path = tmp_path_factory.mktemp("models") / "broken3.json"
    path.write_text(json.dumps(obj))
    return str(path)


VALUE_COMMANDS = {
    "axioms-q": (["axioms", "--builtin", "parametric3", "--params",
                  "16,8,5,3,7,11", *BUDGET], 0),
    "axioms-broken3": (["axioms", *BUDGET, "--model"], 1),
    "axioms-bigp": (["axioms", "--builtin", "nonlinear3", "--params",
                     "2,3,5,1,4,6", "--field", "fp:1000000000039", *BUDGET],
                    0),
    "identities": (["identities", "--builtin", "basic3"], 0),
    "check-assoc": (["check-assoc", "--builtin", "basic3"], 0),
    "help": (["--help"], 0),
    "orbit-start": (["orbit", *NL3, "--field", "fp:19", *WALK], 0),
    "orbit-start-bigp": (["orbit", *NL3, "--field", "fp:1000000000039",
                          *WALK], 0),
    "kex": (["kex", *NL3, "--field", "fp:19", "--seed", "4", "--json"], 0),
}


@pytest.mark.parametrize("name", VALUE_COMMANDS)
def test_value_commands_run_without_numpy(name, broken3_file):
    argv, code = VALUE_COMMANDS[name]
    if argv[-1] == "--model":
        argv = argv + [broken3_file]
    assert probe(RUN_MAIN, *argv) == f"{code} False"


def test_kernel_commands_still_load_numpy():
    argv = ["strata", "--builtin", "basic3", "--field", "fp:5"]
    assert probe(RUN_MAIN, *argv) == "0 True"


def test_kex_recovery_still_loads_numpy():
    argv = ["kex", "--builtin", "parametric3", "--params", "2,3,1,4,1,2",
            "--field", "fp:5", "--seed", "1", "--lengths", "1,2", "--recover"]
    assert probe(RUN_MAIN, *argv) == "0 True"
