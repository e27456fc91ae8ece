"""Exact Connected Vertex Cover solver and the `--stats` partition.

Branch and bound on uncovered edges with a matching lower bound and a
connectivity repair phase; exactness at desk scale is the contract, not
speed. The solver, `minimum_cvc`, answers with a minimum cover itself,
a frozenset, or None. It is the ground truth that every reduction rule
and every lift map is validated against, and `solve` and `kernelize
--stats` run it; the partition (S1, S>=3, I1, I3, I>=4) of a Phase 1
fixpoint relative to its minimum cover checks the paper's counting
bound. Neither is part of the pipeline, so this module loads on first
use: `import planarcvc`, a `lift`, a `verify` and a `kernelize` without
`--stats` never compile it.
"""

from __future__ import annotations

from typing import AbstractSet, NamedTuple

from .graph import Graph, InputError, VertexId
from .oracle import verify_cvc

# Beyond these limits the exhaustive search may run essentially forever,
# so the solver declines instead of hanging.
_MAX_VERTICES_UNBOUNDED = 60
_MAX_VERTICES_DEEP = 40
_MAX_BUDGET_DEEP = 14


class TooLargeError(InputError):
    """Instance outside the exact solver's declared comfort zone."""


def minimum_cvc(g: Graph, limit: int) -> frozenset[VertexId] | None:
    """Smallest connected vertex cover of size <= limit, or None.

    The cover itself is the certificate; the empty cover of an edgeless
    graph is falsy, so callers test the answer against None. Isolated
    vertices are ignored. When two or more components carry edges no
    connected set can cover both, so the answer is None for every limit.
    Raises TooLargeError instead of attempting instances where the
    exhaustive search would be unreasonable.
    """
    if limit < 0:
        return None
    edgeful = [c for c in g.components() if len(c) > 1]
    if not edgeful:
        return frozenset()
    if len(edgeful) > 1:
        return None
    core = sorted(edgeful[0])
    _guard_size(len(core), limit)
    return _branch_and_bound(g, core, min(limit, len(core)))


def _guard_size(n: int, budget: int) -> None:
    if n > _MAX_VERTICES_UNBOUNDED or (n > _MAX_VERTICES_DEEP and budget > _MAX_BUDGET_DEEP):
        raise TooLargeError(
            f"exact search declined: {n} vertices with budget {budget}"
        )


def _branch_and_bound(
    g: Graph,
    core: list[VertexId],
    limit: int,
) -> frozenset[VertexId] | None:
    """Exhaustive search over connected vertex covers of the edgeful core.

    Branches on an uncovered edge (take one endpoint or the other); once
    everything is covered but the partial solution induces two or more
    components, branches on the neighbors of one component, which is
    complete because any connected superset must leave the component
    through one of them.
    """
    edges = g.edges()  # the core is the only component carrying edges
    adj = g.adjacency()
    best: list[frozenset[VertexId] | None] = [None]
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
            best[0] = frozenset(chosen)
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


# ----------------------------------------------------------------------
# partition statistics
# ----------------------------------------------------------------------


class Partition(NamedTuple):
    """The (S1, S>=3, I1, I3, I>=4) decomposition relative to a cover."""

    s1: frozenset[VertexId]
    s_ge3: frozenset[VertexId]
    i1: frozenset[VertexId]
    i3: frozenset[VertexId]
    i_ge4: frozenset[VertexId]

    def sizes(self) -> dict[str, int]:
        return {
            "S1": len(self.s1),
            "S>=3": len(self.s_ge3),
            "I1": len(self.i1),
            "I3": len(self.i3),
            "I>=4": len(self.i_ge4),
        }


def partition_stats(g: Graph, cover: AbstractSet[VertexId]) -> Partition:
    """Partition V(g) relative to a connected vertex cover.

    Non-cover vertices of degree 0 or 2 cannot occur in a reduced graph,
    so they are reported as a consistency error rather than classified.
    """
    cover = set(cover)
    if not verify_cvc(g, cover):
        raise ValueError("partition_stats requires a connected vertex cover")
    i1, i3, i_ge4 = set(), set(), set()
    for v in g.vertices():
        if v in cover:
            continue
        d = g.degree(v)
        if d == 1:
            i1.add(v)
        elif d == 3:
            i3.add(v)
        elif d >= 4:
            i_ge4.add(v)
        else:
            raise ValueError(
                f"non-cover vertex {v} has degree {d}; graph is not reduced"
            )
    s1 = {v for v in cover if any(w in i1 for w in g.neighbors(v))}
    return Partition(
        s1=frozenset(s1),
        s_ge3=frozenset(cover - s1),
        i1=frozenset(i1),
        i3=frozenset(i3),
        i_ge4=frozenset(i_ge4),
    )


def partition_bound_holds(g1: Graph, cover: AbstractSet[VertexId], m_star: int) -> bool:
    """Checker for |S>=3| + |I>=4| + |M*| >= |S| / 3 on a Phase 1 fixpoint.

    This inequality is a theorem when cover is a minimum connected vertex
    cover and every cover vertex has degree >= 3, so False indicates a
    pipeline bug, not a property of the input. The one reduced graph where
    the degree hypothesis fails is the single edge, which is trivially
    fine (2 vertices against a bound of 11/3).
    """
    if g1.n_vertices == 2 and g1.n_edges == 1:
        return True
    part = partition_stats(g1, cover)
    return 3 * (len(part.s_ge3) + len(part.i_ge4) + m_star) >= len(cover)
