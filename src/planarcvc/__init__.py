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

# Phase 2 (embedding, facematch, matching) and the generators are imported
# from their own modules, which load on first use: a lift, a verify, a solve
# and a kernelize that Phase 1 answers NO never run them.
__all__ = [
    "CoverCertificate",
    "Graph",
    "InputError",
    "Instance",
    "Kernel",
    "KernelOutcome",
    "No",
    "NoReason",
    "NonPlanarInputError",
    "Partition",
    "ReductionJournal",
    "ReductionStep",
    "RuleId",
    "TooLargeError",
    "VertexId",
    "apply_rule",
    "check_size_bound",
    "detect_rule",
    "kernelize",
    "partition_bound_holds",
    "lift_rule",
    "lift_solution",
    "minimum_cvc",
    "partition_stats",
    "run_phase1",
    "verify_cvc",
]
