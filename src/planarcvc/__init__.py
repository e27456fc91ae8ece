"""11/3k kernelization for Connected Vertex Cover on planar graphs."""

from .embedding import Embedding, Face, NonPlanarGraphError, embed
from .facematch import AuxGraph, PlanarizedMatching, build_aux_graph, planarize_matching, run_phase2
from .generators import (
    gen_exception_graph,
    gen_random_planar,
    gen_tightness,
)
from .graph import Graph, InputError, VertexId
from .matching import Matching, maximum_matching
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
