"""Kernelization pipeline: phases 1-3, journal replay and solution lifting.

kernelize runs Phase 1 to a fixpoint, runs Phase 2, then applies the
size gate 3*|V| <= 11*k in exact integer arithmetic. The left-right
planarity test runs at most once, and only where an answer depends on
planarity: Phase 2 embeds the fixpoint when it has at least two pendant
owners to pair, and a size-gate NO on a fixpoint that Phase 2 did not
embed is preceded by the decision half of the test. Every
graph modification is journaled. lift_solution walks the journal in
reverse as an undo log, mapping a connected vertex cover of the kernel
back to one of the original instance without exceeding the spent
budget. Only the R8 lift reads a graph, so only a journal with an R8
record is replayed first (replay_journal rebuilds the Phase 1 fixpoint
and the kernel on one working graph, which also serves `--stats`); any
other journal is lifted from its records alone, each checked without a
graph, and the lifted cover is checked on the input. None of these has
per-rule code: reductions applies, checks and lifts every rule
(apply_rule, check_record, lift_rule). The exact solver
and the `--stats` partition, which only check this pipeline, are in
`exact`.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .graph import Graph, InputError, VertexId
from .oracle import verify_cvc
from .reductions import (
    ReductionStep,
    RuleApplicationError,
    RuleId,
    apply_rule,
    check_record,
    lift_rule,
    run_phase1,
)


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
    it must not be mutated while the journal is in use. A journal without
    R8 records lifts without replay (lift_solution).
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

    owners = pendant_owners(g1)
    try:
        journal.steps = list(phase1.steps) + run_phase2(g1, owners)
    except NonPlanarGraphError as exc:
        raise _nonplanar(g1) from exc

    if check_size_bound(g1.n_vertices, k1):
        return Kernel(Instance(g1, k1), journal)
    # The bound behind this NO holds on planar graphs only; Phase 2 has
    # embedded g1 iff it found two owners.
    if len(owners) < 2 and not is_planar(g1):
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

    It serves lift_solution on a journal with an R8 record, whose lift
    needs the kernel graph, and `kernelize --stats`, which needs the
    fixpoint. Starts from the input minus its isolated vertices and
    applies the steps in order, checking that each replayed step equals
    its record (rule, site, created and removed ids, budget change), so
    that lifting may trust the recorded sites. The fixpoint is copied
    once, before the first R8 step; the kernel is the working graph
    itself. A journal with no R8 step has the kernel as its fixpoint, and
    both elements are then the same object. Raises InputError naming the
    step index when the journal does not replay: a step fails on the
    graph (apply_rule raises RuleApplicationError), differs from its
    record, is an R1-R7 step after an R8 step, or is the first R8 step on
    a disconnected graph, which lifting R8 steps relies on. Any other
    exception of an applier is a bug and propagates.
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
    of replay_journal's kernel whenever the journal replays, and the ids
    left live when every record passes check_record.
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

    Only the R8 lift reads a graph, so only a journal with an R8 record
    is replayed: the kernel solution must cover the replayed kernel
    (InputError otherwise), then lifts across the steps in reverse order
    on it with lift_rule, the R8 steps, the journal's tail, undoing their
    merges as they go; a lifted set that fails verify_cvc on the input is
    a lift-map bug. Any other journal, one without steps included, is
    lifted with no graph: each record must pass check_record, R1-R7 lift
    from the records alone, and the lifted set must pass verify_cvc on
    the input and hold at most |kernel_solution| + k_spent vertices; each
    failure is an InputError. Either way the result grows by at most the
    budget each step spent.
    """
    sol = set(kernel_solution)
    if any(step.rule is RuleId.R8 for step in journal.steps):
        _, g = replay_journal(journal)
        if not verify_cvc(g, sol):
            raise InputError("kernel solution is not a connected vertex cover")
        for step in reversed(journal.steps):
            lift_rule(g, step, sol)
        if not verify_cvc(journal.input_graph, sol):
            raise AssertionError("lifted solution failed verification; lift map bug")
        return sol
    adj = journal.input_graph.adjacency()
    live = {v for v, nbrs in adj.items() if nbrs}
    top = max(adj, default=0)
    for idx, step in enumerate(journal.steps):
        try:
            top = check_record(step, live, top)
        except RuleApplicationError as exc:
            raise InputError(f"bad journal record at step {idx}: {exc}") from None
    budget = len(sol) + journal.k_spent
    for step in reversed(journal.steps):
        lift_rule(None, step, sol)
    if not (sol <= adj.keys() and verify_cvc(journal.input_graph, sol)):
        raise InputError("kernel solution does not lift to a connected vertex cover of the input")
    if len(sol) > budget:
        raise InputError(f"kernel solution lifts to {len(sol)} vertices, more than {budget}")
    return sol
