"""11/3k kernelization for Connected Vertex Cover on planar graphs."""

from .graph import Graph, InputError, VertexId
from .oracle import CoverCertificate, TooLargeError, minimum_cvc, verify_cvc
from .pipeline import (
    Instance,
    Kernel,
    KernelOutcome,
    No,
    NonPlanarInputError,
    NoReason,
    Partition,
    ReductionJournal,
    check_size_bound,
    kernelize,
    partition_bound_holds,
    lift_solution,
    partition_stats,
)
from .reductions import (
    ReductionStep,
    RuleId,
    apply_rule,
    detect_rule,
    lift_rule,
    run_phase1,
)

# Phase 2 (embedding, facematch, matching) and the generators load on
# first use, through __getattr__ (PEP 562): a lift, a verify, a solve
# and a kernelize that Phase 1 answers NO never run them.
_LAZY = {
    name: module
    for module, names in (
        ("embedding", ("Embedding", "Face", "NonPlanarGraphError", "embed")),
        ("facematch", ("AuxGraph", "PlanarizedMatching", "build_aux_graph", "planarize_matching", "run_phase2")),
        ("generators", ("gen_exception_graph", "gen_random_planar", "gen_tightness")),
        ("matching", ("Matching", "maximum_matching")),
    )
    for name in names
}


def __getattr__(name: str) -> object:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value
    return value


__all__ = [
    "AuxGraph",
    "CoverCertificate",
    "Embedding",
    "Face",
    "Graph",
    "InputError",
    "Instance",
    "Kernel",
    "KernelOutcome",
    "Matching",
    "No",
    "NoReason",
    "NonPlanarGraphError",
    "NonPlanarInputError",
    "Partition",
    "PlanarizedMatching",
    "ReductionJournal",
    "ReductionStep",
    "RuleId",
    "TooLargeError",
    "VertexId",
    "apply_rule",
    "build_aux_graph",
    "check_size_bound",
    "detect_rule",
    "embed",
    "gen_exception_graph",
    "gen_random_planar",
    "gen_tightness",
    "kernelize",
    "partition_bound_holds",
    "lift_rule",
    "lift_solution",
    "maximum_matching",
    "minimum_cvc",
    "partition_stats",
    "planarize_matching",
    "run_phase1",
    "run_phase2",
    "verify_cvc",
]
