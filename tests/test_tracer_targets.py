"""The benchmark tracer's targets still name live stratalg functions.

perfbench/ has its own tests, which the tier-1 run does not collect; this
one reads the tracer's TARGETS table as it stands, so a rename in src/
that would break `perfbench/run.py --trace 1` fails here.
"""

import importlib
import importlib.util
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
