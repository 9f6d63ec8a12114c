"""The benchmark tracer's targets still name live stratalg functions.

These read the tracer's TARGETS table as it stands, so a rename in src/
that would break `perfbench/run.py --trace 1` fails here; perfbench/'s own
tests, which tier-1 also collects, check the bindings it reads.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import stratalg

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves():
    targets = load_targets()
    assert targets
    for module, attr, name, hook in targets:
        mod = importlib.import_module(f"stratalg.{module}")
        if "." in attr:  # Class.method, looked up as the tracer does
            cls_name, method = attr.split(".")
            assert callable(vars(getattr(mod, cls_name))[method]), name
        else:
            assert callable(getattr(mod, attr)), name


def test_names_the_tracer_tests_rebind_are_shared():
    assert stratalg.kex.bulk_multiply is stratalg._kernels.bulk_multiply
    assert stratalg.strata.multiply is stratalg.algebra.multiply


def test_the_blockwise_labeler_calls_label_indices_by_name(monkeypatch):
    """The tracer rebinds strata.label_indices; ratio_partition labels
    through that module-global name, once per LABEL_BLOCK lex indices."""
    strata = stratalg.strata
    original = strata.label_indices
    calls = []

    def counted(V, *args):
        calls.append(len(V))
        return original(V, *args)

    monkeypatch.setattr(strata, "label_indices", counted)
    model = stratalg.builtin_model("basic3", field=stratalg.Field(7))
    strata.ratio_partition(model)
    assert calls == [7 ** 3 - 1]
    calls.clear()
    monkeypatch.setattr(strata, "LABEL_BLOCK", 100)
    strata.ratio_partition(model)
    assert calls == [100, 100, 100, 42]


# strata, dynamics and kex load on first use, and the CLI imports them inside
# its commands; a traced run of one job each must still reach every wrapper.
# dynamics binds no kernel at its top, so it may first load after the tracer
# has wrapped them, and restore still leaves no wrapper behind.
P3 = ["--builtin", "parametric3", "--params", "2,3,1,4,1,2", "--field", "fp:5"]
TRACED_JOBS = [
    ["strata", *P3, "--discover", "--json"],
    ["orbit", *P3, "--json"],
    ["kex", *P3, "--seed", "1", "--lengths", "1,2", "--recover", "--json"],
    ["orbit", *P3, "--start", "1,2,1", "--q", "0,3,4", "--steps", "30",
     "--json"],
    ["kex", *P3, "--seed", "4", "--lengths", "2,3", "--json"],
    ["axioms", "--builtin", "parametric3", "--params", "16,8,5,3,7,11",
     "--samples", "10", "--chain-max", "3", "--json"],
    ["axioms", "--builtin", "basic3", "--field", "fp:3", "--samples", "10",
     "--chain-max", "3", "--json"],
]

TRACED_RUN = """
import contextlib, io, json, sys
import stratalg.cli as cli
sys.path.insert(0, sys.argv[1])
from tracer import Tracer, installed_wrappers
tracer = Tracer()
with tracer, contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "calls": tracer.calls,
                  "leftover": installed_wrappers()}))
"""


def test_lazy_imports_reach_the_tracer_wrappers():
    src = os.path.dirname(os.path.dirname(stratalg.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(TRACER.parent),
         json.dumps(TRACED_JOBS)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 0, 0, 0, 1]  # basic3: symmetric
    for name in ("strata.discover_strata", "dynamics.transition_graph",
                 "kex.brute_force_recover", "kernels.bulk_multiply",
                 "axioms.check_sa1", "strata.verify_closure"):
        assert result["calls"].get(name, 0) >= 1, name
    # trajectories and key exchanges load no numpy, and still reach their
    # wrappers
    calls = result["calls"]
    assert calls["dynamics.orbit"] == 1
    assert calls["kex.seeded_session"] == calls["kex.run_exchange"] == 2
    assert result["leftover"] == []
