"""Exact-arithmetic toolkit for layered (stratified) vector operations.

Bilinear and affine products on K^n — K the rationals or a prime field
— verified against the four layering axioms, partitioned into strata by
declared ratio rules or commutant discovery, traced through orbit and
transition-graph dynamics, and exercised by a toy key-agreement demo.
All arithmetic is exact; randomized checks are seeded and reproducible.

The modules strata, dynamics and kex, and the names taken from them, load
on first use (PEP 562). strata loads numpy; dynamics and kex load it only
in transition_graph and brute_force_recover, so the value-level work over
Q and over large primes, trajectories and key exchanges run without numpy.
"""

from importlib import import_module as _import_module

from .field import Field, FieldElement, format_scalar
from .poly import Polynomial
from .algebra import (
    AffineOperation,
    BUILTIN_NAMES,
    BracketTree,
    MatrixFormulation,
    ModelSpec,
    StructureTensor,
    associativity_check,
    associator,
    builtin_model,
    commutator,
    evaluate_bracketing,
    format_assoc_report,
    left_chain,
    lps,
    make_params,
    matrix_to_tensor,
    model_from_json,
    model_to_json,
    multiply,
    symbolic_components,
    symbolic_model,
    vector,
)
from .rules import ratio_stratum_of, tails_proportional
from .axioms import (
    SamplingPlan,
    axiom_report,
    case_analysis,
    check_sa1,
    check_sa2,
    check_sa3,
    check_sa4,
    classify,
    identity_suite_json,
    verify_identity_suite,
)

_LAZY = {
    "strata": ("StratumPartition", "discover_strata", "enumerate_space",
               "is_stratum_stable", "partitions_agree", "ratio_partition",
               "stratified_depth", "verify_closure"),
    "dynamics": ("Trajectory", "TransitionGraph", "chain_path", "orbit",
                 "permutation_invariance", "return_edge_stats",
                 "self_loop_report", "transition_graph"),
    "kex": ("Party", "SessionTranscript", "brute_force_recover",
            "eavesdropper_view", "init_session", "run_exchange",
            "seeded_session"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    # not cached here: a later lookup sees what the module holds then
    if name in _LAZY:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

# rules is bound here by the imports above but is not exported
__all__ = sorted({name for name in dir() if not name.startswith("_")}
                 - {"rules"} | {*_LAZY, *_HOME})
