"""11/3k kernelization for Connected Vertex Cover on planar graphs."""

from .graph import Graph, InputError, VertexId
from .oracle import verify_cvc
from .pipeline import (
    Instance,
    Kernel,
    KernelOutcome,
    No,
    NonPlanarInputError,
    NoReason,
    ReductionJournal,
    check_size_bound,
    kernelize,
    lift_solution,
)
from .reductions import (
    ReductionStep,
    RuleId,
    apply_rule,
    detect_rule,
    lift_rule,
    run_phase1,
)

# Phase 2 (embedding, facematch, matching), the generators and the exact
# solver with the `--stats` partition (exact) are imported from their own
# modules, which load on first use: a lift, a verify and a kernelize that
# Phase 1 answers NO never run Phase 2, and only `solve` and
# `kernelize --stats` run the exact solver.
__all__ = [
    "Graph",
    "InputError",
    "Instance",
    "Kernel",
    "KernelOutcome",
    "No",
    "NoReason",
    "NonPlanarInputError",
    "ReductionJournal",
    "ReductionStep",
    "RuleId",
    "VertexId",
    "apply_rule",
    "check_size_bound",
    "detect_rule",
    "kernelize",
    "lift_rule",
    "lift_solution",
    "run_phase1",
    "verify_cvc",
]
