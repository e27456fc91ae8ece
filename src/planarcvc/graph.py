"""Mutable simple undirected graph with stable integer vertex ids.

Vertex ids are never reused within one graph's lifetime: fresh vertices
always receive a new id strictly larger than every id ever allocated,
so records that refer to deleted vertices stay unambiguous. All
enumeration helpers return vertices and neighbors in ascending id order
to keep downstream algorithms reproducible.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import AbstractSet, Callable, Container, Mapping


VertexId = int


class InputError(ValueError):
    """Input that the package rejects; the command line exits 2 on it alone."""


class Graph:
    """Simple undirected graph: symmetric adjacency, no loops, no parallels."""

    def __init__(self) -> None:
        self._adj: dict[VertexId, set[VertexId]] = {}
        self._next_id: VertexId = 1
        self._n_edges = 0

    @classmethod
    def from_adjacency(cls, adj: dict[VertexId, set[VertexId]]) -> Graph:
        """A graph that takes over `adj` (vertex -> neighbor set) as is.

        For readers that check every edge once as they collect it: the
        ids must be positive and the sets symmetric and loop-free, which
        is not checked again here. The graph owns `adj` afterwards. The
        allocator starts past the largest id, as after add_named_vertex.
        """
        g = cls()
        g._adj = adj
        g._next_id = max(adj, default=0) + 1
        g._n_edges = sum(map(len, adj.values())) // 2
        return g

    # ------------------------------------------------------------------
    # construction / mutation
    # ------------------------------------------------------------------

    def add_vertex(self) -> VertexId:
        """Allocate a fresh vertex and return its id."""
        v = self._next_id
        self._next_id += 1
        self._adj[v] = set()
        return v

    def add_named_vertex(self, v: VertexId) -> VertexId:
        """Add a vertex with an explicit id (e.g. ids from a parsed file).

        The id must be positive and not currently present; the internal
        allocator is bumped past it so ids are still never reused.
        """
        if v <= 0:
            raise ValueError(f"vertex ids must be positive, got {v}")
        if v in self._adj:
            raise ValueError(f"vertex {v} already present")
        self._adj[v] = set()
        self._next_id = max(self._next_id, v + 1)
        return v

    def add_edge(self, u: VertexId, w: VertexId) -> None:
        if u == w:
            raise ValueError(f"self-loop at {u} rejected")
        if u not in self._adj or w not in self._adj:
            raise KeyError(f"edge ({u},{w}) references unknown vertex")
        if w in self._adj[u]:
            raise ValueError(f"edge ({u},{w}) already present")
        self._adj[u].add(w)
        self._adj[w].add(u)
        self._n_edges += 1

    def ensure_edge(self, u: VertexId, w: VertexId) -> None:
        """Add edge u-w if absent."""
        if u != w and w not in self._adj[u]:
            self.add_edge(u, w)

    def remove_edge(self, u: VertexId, w: VertexId) -> None:
        if u not in self._adj or w not in self._adj[u]:
            raise KeyError(f"edge ({u},{w}) not present")
        self._adj[u].discard(w)
        self._adj[w].discard(u)
        self._n_edges -= 1

    def remove_vertex(self, v: VertexId) -> None:
        if v not in self._adj:
            raise KeyError(f"vertex {v} not present")
        for w in self._adj[v]:
            self._adj[w].discard(v)
        self._n_edges -= len(self._adj[v])
        del self._adj[v]

    def contract_edge(self, u: VertexId, w: VertexId) -> VertexId:
        """Contract the edge u-w into a fresh vertex, in place, and return it.

        The new vertex c inherits N(u) | N(w) minus the endpoints, so the
        loop arising from u-w is dropped and parallel edges are merged.
        Vertex count always drops by one; edge count never grows. The
        larger endpoint's neighbor set becomes c's, the smaller one is
        merged into it, and each neighbor swaps u or w for c, so the work
        is one pass over N(u) | N(w) with no per-edge checks.
        """
        adj = self._adj
        if u not in adj or w not in adj[u]:
            raise ValueError(f"cannot contract absent edge ({u},{w})")
        if len(adj[u]) < len(adj[w]):
            u, w = w, u
        big, small = adj.pop(u), adj.pop(w)
        lost = len(big) + len(small) - 1  # the edges at u or w, u-w once
        big.discard(w)
        small.discard(u)
        for x in small:
            adj[x].discard(w)
        big |= small
        c = self.add_vertex()
        for x in big:
            nbrs = adj[x]
            nbrs.discard(u)
            nbrs.add(c)
        adj[c] = big
        self._n_edges -= lost - len(big)
        return c

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __contains__(self, v: VertexId) -> bool:
        return v in self._adj

    @property
    def n_vertices(self) -> int:
        return len(self._adj)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def vertices(self) -> list[VertexId]:
        return sorted(self._adj)

    def edges(self) -> list[tuple[VertexId, VertexId]]:
        """All edges as (u, w) pairs with u < w, sorted."""
        return sorted((u, w) for u, adj in self._adj.items() for w in adj if u < w)

    def has_edge(self, u: VertexId, w: VertexId) -> bool:
        return u in self._adj and w in self._adj[u]

    def neighbors(self, v: VertexId) -> list[VertexId]:
        """Neighbors of v in ascending id order."""
        return sorted(self._adj[v])

    def neighbor_set(self, v: VertexId) -> set[VertexId]:
        return set(self._adj[v])

    def degree(self, v: VertexId) -> int:
        return len(self._adj[v])

    def adjacency(self) -> Mapping[VertexId, AbstractSet[VertexId]]:
        """Read-only live view: vertex -> neighbor set, in no particular order.

        For whole-graph passes that would otherwise sort and copy every
        neighborhood; the sets must not be mutated. They are live, and
        contract_edge hands u's or w's set object on to the fresh vertex
        c, so a set read for u before a contraction may be c's afterwards:
        hold none across one.
        """
        return MappingProxyType(self._adj)

    def pendant_neighbors(self, v: VertexId) -> set[VertexId]:
        """All neighbors of v that have degree exactly 1."""
        return {w for w in self._adj[v] if len(self._adj[w]) == 1}

    def isolated_vertices(self) -> list[VertexId]:
        return sorted(v for v, adj in self._adj.items() if not adj)

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------

    def component(self, start: VertexId, within: Container[VertexId]) -> set[VertexId]:
        """start's component in the subgraph that start and `within` induce.

        A breadth-first search that enters a vertex w only when
        `w in within` holds, so `within` should answer that in O(1).
        """
        adj = self._adj
        seen = {start}
        queue = deque((start,))
        while queue:
            for w in adj[queue.popleft()]:
                if w not in seen and w in within:
                    seen.add(w)
                    queue.append(w)
        return seen

    def components(self, subset: AbstractSet[VertexId] | None = None) -> list[set[VertexId]]:
        """Components of the subgraph that subset induces, by smallest vertex.

        None stands for the whole graph.
        """
        within = self._adj.keys() if subset is None else subset
        comps: list[set[VertexId]] = []
        seen: set[VertexId] = set()
        for v in sorted(within):
            if v not in seen:
                comp = self.component(v, within)
                seen |= comp
                comps.append(comp)
        return comps

    def is_connected(self, subset: AbstractSet[VertexId] | None = None) -> bool:
        """True iff the subgraph that subset induces has at most one component.

        None stands for the whole graph.
        """
        within = self._adj.keys() if subset is None else subset
        if len(within) <= 1:
            return True
        return len(self.component(next(iter(within)), within)) == len(within)

    def split_side(
        self, a: VertexId, b: VertexId, keep: Callable[[VertexId], bool]
    ) -> set[VertexId] | None:
        """None iff a and b are joined in the subgraph that a, b and keep induce.

        Searches from a and b (distinct) at once, each round growing the
        smaller side by one vertex, so the work is bounded by the smaller
        side. Returns None when the sides meet; otherwise the side that
        runs out first, a whole component of the induced subgraph.
        """
        adj = self._adj
        sides = ({a}, {b})
        queues = (deque((a,)), deque((b,)))
        while True:
            i = len(sides[0]) > len(sides[1])
            side, other, queue = sides[i], sides[not i], queues[i]
            if not queue:
                return side
            for y in adj[queue.popleft()]:
                if y in other:
                    return None
                if y not in side and keep(y):
                    side.add(y)
                    queue.append(y)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def copy(self) -> Graph:
        g = Graph()
        g._adj = {v: set(adj) for v, adj in self._adj.items()}
        g._next_id = self._next_id
        g._n_edges = self._n_edges
        return g

    def __repr__(self) -> str:
        return f"Graph(n={self.n_vertices}, m={self.n_edges})"

