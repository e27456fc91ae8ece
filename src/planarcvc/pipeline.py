"""Kernelization pipeline: phases 1-3, journal replay and solution lifting.

kernelize runs Phase 1 to a fixpoint, runs Phase 2, then applies the
size gate 3*|V| <= 11*k in exact integer arithmetic. The left-right
planarity test runs at most once, and only where an answer depends on
planarity: Phase 2 embeds the fixpoint when it has at least two pendant
owners to pair, and a size-gate NO on a fixpoint that Phase 2 did not
embed is preceded by the decision half of the test. Every
graph modification is journaled. replay_journal rebuilds the Phase 1
fixpoint and the kernel on one working graph; lift_solution walks the
journal in reverse on that kernel as an undo log, mapping a connected
vertex cover of the kernel back to one of the original instance without
exceeding the spent budget. Neither has per-rule code: reductions
applies and lifts every rule (apply_rule, lift_rule). The exact solver
and the `--stats` partition, which only check this pipeline, are in
`exact`.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .graph import Graph, InputError, VertexId
from .oracle import verify_cvc
from .reductions import ReductionStep, RuleApplicationError, RuleId, apply_rule, lift_rule, run_phase1


class NonPlanarInputError(InputError):
    """kernelize needed a planar Phase 1 fixpoint and found none.

    Raised where an answer depends on planarity: Phase 2's embedding
    with two or more pendant owners, and the size gate's NO, which the
    paper's bound justifies on planar graphs only. R1-R7 turn planar
    graphs into planar graphs, so the input is not planar either. Every
    other answer holds on any graph: R1-R7 keep the input's answer, and
    a NO for budget underflow or for two components with edges needs no
    planarity. So a non-planar input whose fixpoint is planar, or has
    fewer than two owners and passes the gate, gets its answer (the
    tests check it against the exact solver on small non-planar graphs).
    """


class Instance:
    """A graph paired with the solution-size budget k."""

    __slots__ = ("graph", "k")

    def __init__(self, graph: Graph, k: int) -> None:
        if k < 0:
            raise InputError(f"budget must be non-negative, got {k}")
        self.graph = graph
        self.k = k


class NoReason(Enum):
    SIZE_GATE = "size-gate"
    BUDGET_UNDERFLOW = "budget-underflow"
    MULTI_EDGE_COMPONENTS = "multi-edge-components"


class ReductionJournal:
    """Everything needed to replay the reduction and lift solutions back.

    Replaying: strip the isolated vertices of the input, then apply the
    steps in order. Fresh ids allocated during replay coincide with the
    recorded ones because allocation is deterministic. input_graph is
    the input graph itself, not a copy: replay and lift only read it, so
    it must not be mutated while the journal is in use.
    """

    __slots__ = ("input_graph", "dropped_isolated", "steps")

    def __init__(
        self,
        input_graph: Graph,
        dropped_isolated: tuple[VertexId, ...],
        steps: list[ReductionStep] | None = None,
    ) -> None:
        self.input_graph = input_graph
        self.dropped_isolated = dropped_isolated
        self.steps = [] if steps is None else steps

    @property
    def k_spent(self) -> int:
        return -sum(s.k_delta for s in self.steps)


class Kernel(NamedTuple):
    instance: Instance
    journal: ReductionJournal


class No(NamedTuple):
    reason: NoReason


KernelOutcome = Kernel | No


def check_size_bound(n_vertices: int, k: int) -> bool:
    """The Phase 3 gate: true iff 3 * n_vertices <= 11 * k."""
    return 3 * n_vertices <= 11 * k


def kernelize(inst: Instance) -> KernelOutcome:
    """Reduce an instance to an equivalent one with at most 11/3*k vertices.

    Isolated vertices are dropped up front. Inputs where two or more
    components carry an edge are NO instances outright (no connected set
    can cover both); an edgeless input is a YES instance with the empty
    cover and kernelizes to the empty graph. Raises NonPlanarInputError
    when Phase 2 must embed a non-planar fixpoint, or when the size gate
    fails on one; a call runs at most one left-right planarity test.
    """
    work = inst.graph.copy()
    dropped = tuple(work.isolated_vertices())
    for v in dropped:
        work.remove_vertex(v)

    journal = ReductionJournal(input_graph=inst.graph, dropped_isolated=dropped)
    if work.n_vertices == 0:
        return Kernel(Instance(work, inst.k), journal)
    if not work.is_connected():
        return No(NoReason.MULTI_EDGE_COMPONENTS)

    phase1 = run_phase1(work, inst.k)
    if phase1.early_no:
        return No(NoReason.BUDGET_UNDERFLOW)
    g1, k1 = phase1.graph, phase1.k

    # Phase 2 loads on first use: a NO from Phase 1 never needs it.
    from .embedding import NonPlanarGraphError, is_planar
    from .facematch import pendant_owners, run_phase2

    try:
        phase2_steps = run_phase2(g1)
    except NonPlanarGraphError as exc:
        raise _nonplanar(g1) from exc
    journal.steps = list(phase1.steps) + phase2_steps

    if check_size_bound(g1.n_vertices, k1):
        return Kernel(Instance(g1, k1), journal)
    # The bound behind this NO holds on planar graphs only. Phase 2 has
    # embedded g1 iff it found two owners; with no R8 step, g1 is still
    # the graph it found them on.
    if not phase2_steps and len(pendant_owners(g1)) < 2 and not is_planar(g1):
        raise _nonplanar(g1)
    return No(NoReason.SIZE_GATE)


def _nonplanar(fixpoint: Graph) -> NonPlanarInputError:
    return NonPlanarInputError(
        f"input graph is not planar (graph with {fixpoint.n_vertices} vertices"
        f" / {fixpoint.n_edges} edges is not planar)"
    )


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------


def replay_journal(journal: ReductionJournal) -> tuple[Graph, Graph]:
    """Replay the journal on one graph; return (Phase 1 fixpoint, kernel).

    Starts from the input minus its isolated vertices and applies the
    steps in order, checking that each replayed step equals its record
    (rule, site, created and removed ids, budget change), so that lifting
    may trust the recorded sites. The fixpoint is copied once, before the
    first R8 step; the kernel is the working graph itself. A journal with
    no R8 step has the kernel as its fixpoint, and both elements are then
    the same object. Raises InputError naming the step index when the
    journal does not replay: a step fails on the graph (apply_rule raises
    RuleApplicationError), differs from its record, is an R1-R7 step after
    an R8 step, or is the first R8 step on a disconnected graph, which
    lifting R8 steps relies on. Any other exception of an applier is a
    bug and propagates.
    """
    g = journal.input_graph.copy()
    for v in journal.input_graph.isolated_vertices():
        g.remove_vertex(v)
    fixpoint = None
    for idx, step in enumerate(journal.steps):
        if step.rule is RuleId.R8:
            if fixpoint is None:
                if not g.is_connected():
                    raise InputError(f"journal does not replay at step {idx}: R8 on a disconnected graph")
                fixpoint = g.copy()
        elif fixpoint is not None:
            raise InputError(f"journal does not replay at step {idx}: Phase 1 step after an R8 step")
        try:
            realized = apply_rule(g, step.rule, step.site)
        except RuleApplicationError as exc:
            raise InputError(f"journal does not replay at step {idx}: {exc!r}") from exc
        if realized != step:
            raise InputError(f"journal does not replay at step {idx}: replayed {realized}")
    return (g if fixpoint is None else fixpoint), g


def kernel_vertex_ids(journal: ReductionJournal) -> set[VertexId]:
    """The kernel's vertex set, read off the journal records without replay.

    The input's non-isolated vertices, minus each step's removed ids and
    plus its created ids; ids are never reused, so this is the vertex set
    of replay_journal's kernel whenever the journal replays.
    """
    ids = {v for v, nbrs in journal.input_graph.adjacency().items() if nbrs}
    for step in journal.steps:
        ids.difference_update(step.removed)
        ids.update(step.created)
    return ids


# ----------------------------------------------------------------------
# lifting
# ----------------------------------------------------------------------


def lift_solution(
    journal: ReductionJournal, kernel_solution: set[VertexId]
) -> set[VertexId]:
    """Map a connected vertex cover of the kernel back to the input graph.

    Replays the journal once, then lifts the cover across its steps in
    reverse order on the kernel graph with lift_rule; the R8 steps, the
    journal's tail, undo their merges on it as they go. The result grows
    by at most the budget each step spent, i.e. |result| <=
    |kernel_solution| + sum of -k_delta over the steps. Without steps, the
    kernel is the input minus isolated vertices: one check is enough.
    """
    _, g = replay_journal(journal)
    sol = set(kernel_solution)
    if not verify_cvc(g, sol):
        raise InputError("kernel solution is not a connected vertex cover")
    for step in reversed(journal.steps):
        lift_rule(g, step, sol)
    if journal.steps and not verify_cvc(journal.input_graph, sol):
        raise AssertionError("lifted solution failed verification; lift map bug")
    return sol

