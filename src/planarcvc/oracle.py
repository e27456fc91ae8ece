"""Exact Connected Vertex Cover solver and verifier.

Branch and bound on uncovered edges with a matching lower bound and a
connectivity repair phase; exactness at desk scale is the contract, not
speed. This module is the ground truth that every reduction rule and
every lift map is validated against.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph, InputError, VertexId

# Beyond these limits the exhaustive search may run essentially forever,
# so the solver declines instead of hanging.
_MAX_VERTICES_UNBOUNDED = 60
_MAX_VERTICES_DEEP = 40
_MAX_BUDGET_DEEP = 14


class TooLargeError(InputError):
    """Instance outside the exact solver's declared comfort zone."""


class CoverCertificate(NamedTuple):
    """A connected vertex cover witnessing the oracle's answer."""

    vertices: frozenset[VertexId]

    @property
    def size(self) -> int:
        return len(self.vertices)


def verify_cvc(g: Graph, s: set[VertexId] | frozenset[VertexId]) -> bool:
    """True iff s covers every edge of g and induces a connected subgraph.

    The empty set verifies exactly when g has no edges. Unknown vertex
    ids are rejected with KeyError. s covers every edge iff every vertex
    outside s has all its neighbors in s.
    """
    adj = g.adjacency()
    for v in s:
        if v not in adj:
            raise KeyError(f"solution vertex {v} is not in the graph")
    for v, nbrs in adj.items():
        if v not in s and not nbrs <= s:
            return False
    return g.is_connected(s)


def minimum_cvc(g: Graph, limit: int) -> CoverCertificate | None:
    """Smallest connected vertex cover of size <= limit, or None.

    Isolated vertices are ignored. When two or more components carry
    edges no connected set can cover both, so the answer is None for
    every limit. Raises TooLargeError instead of attempting instances
    where the exhaustive search would be unreasonable.
    """
    if limit < 0:
        return None
    edgeful = [c for c in g.components() if len(c) > 1]
    if not edgeful:
        return CoverCertificate(frozenset())
    if len(edgeful) > 1:
        return None
    core = sorted(edgeful[0])
    _guard_size(len(core), limit)
    best = _branch_and_bound(g, core, min(limit, len(core)))
    return None if best is None else CoverCertificate(frozenset(best))


def _guard_size(n: int, budget: int) -> None:
    if n > _MAX_VERTICES_UNBOUNDED or (n > _MAX_VERTICES_DEEP and budget > _MAX_BUDGET_DEEP):
        raise TooLargeError(
            f"exact search declined: {n} vertices with budget {budget}"
        )


def _branch_and_bound(
    g: Graph,
    core: list[VertexId],
    limit: int,
) -> set[VertexId] | None:
    """Exhaustive search over connected vertex covers of the edgeful core.

    Branches on an uncovered edge (take one endpoint or the other); once
    everything is covered but the partial solution induces two or more
    components, branches on the neighbors of one component, which is
    complete because any connected superset must leave the component
    through one of them.
    """
    edges = g.edges()  # the core is the only component carrying edges
    adj = {v: g.neighbor_set(v) for v in core}
    best: list[set[VertexId] | None] = [None]
    best_size = [limit + 1]

    def matching_lower_bound(chosen: set[VertexId]) -> int:
        # Greedy matching on uncovered edges; any cover needs one new
        # vertex per matched edge, so this undercounts and is safe.
        used: set[VertexId] = set()
        count = 0
        for u, w in edges:
            if u in chosen or w in chosen or u in used or w in used:
                continue
            used.update((u, w))
            count += 1
        return count

    def search(chosen: set[VertexId]) -> None:
        if len(chosen) >= best_size[0]:
            return
        uncovered = None
        for u, w in edges:
            if u not in chosen and w not in chosen:
                uncovered = (u, w)
                break
        if uncovered is not None:
            if len(chosen) + max(1, matching_lower_bound(chosen)) >= best_size[0]:
                return
            for pick in uncovered:
                chosen.add(pick)
                search(chosen)
                chosen.discard(pick)
            return

        comp = g.component(min(chosen), chosen)
        if len(comp) == len(chosen):
            best[0] = set(chosen)
            best_size[0] = len(chosen)
            return
        # One more vertex may merge every component at once (a common
        # neighbor), so only a +1 bound is sound here.
        if len(chosen) + 1 >= best_size[0]:
            return
        frontier = sorted({w for v in comp for w in adj[v]} - chosen)
        for z in frontier:
            chosen.add(z)
            search(chosen)
            chosen.discard(z)

    search(set())
    return best[0]
