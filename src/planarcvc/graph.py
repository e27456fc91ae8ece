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
from typing import AbstractSet, Iterable, Iterator, Mapping


VertexId = int


class Graph:
    """Simple undirected graph: symmetric adjacency, no loops, no parallels."""

    def __init__(self) -> None:
        self._adj: dict[VertexId, set[VertexId]] = {}
        self._next_id: VertexId = 1
        self._n_edges = 0

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

    def ensure_edge(self, u: VertexId, w: VertexId) -> bool:
        """Add edge u-w if absent; return True when it was actually added."""
        if u != w and w not in self._adj[u]:
            self.add_edge(u, w)
            return True
        return False

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
        """Contract the edge u-w into a fresh vertex and return it.

        The new vertex inherits N(u) | N(w) minus the endpoints, so the
        loop arising from u-w is dropped and parallel edges are merged.
        Vertex count always drops by one; edge count never grows.
        """
        if u not in self._adj or w not in self._adj[u]:
            raise ValueError(f"cannot contract absent edge ({u},{w})")
        merged = (self._adj[u] | self._adj[w]) - {u, w}
        self.remove_vertex(u)
        self.remove_vertex(w)
        c = self.add_vertex()
        for x in merged:
            self.add_edge(c, x)
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
        return sorted(
            (min(u, w), max(u, w)) for u in self._adj for w in self._adj[u] if u < w
        )

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
        neighborhood; the sets must not be mutated.
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

    def _bfs_reach(self, start: VertexId, skip: frozenset[VertexId]) -> set[VertexId]:
        seen = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in self._adj[v]:
                if w not in seen and w not in skip:
                    seen.add(w)
                    queue.append(w)
        return seen

    def is_connected(self) -> bool:
        """True iff the graph has at most one connected component."""
        if len(self._adj) <= 1:
            return True
        start = next(iter(self._adj))
        return len(self._bfs_reach(start, frozenset())) == len(self._adj)

    def connected_components(self) -> list[set[VertexId]]:
        comps = []
        seen: set[VertexId] = set()
        for v in sorted(self._adj):
            if v not in seen:
                comp = self._bfs_reach(v, frozenset())
                seen |= comp
                comps.append(comp)
        return comps

    def is_cut_vertex(self, v: VertexId) -> bool:
        """True iff deleting v disconnects the graph. Requires a connected graph."""
        if not self.is_connected():
            raise ValueError("is_cut_vertex requires a connected graph")
        rest = [w for w in self._adj if w != v]
        if not rest:
            return False
        reached = self._bfs_reach(rest[0], frozenset((v,)))
        return len(reached) != len(rest)

    def is_connected_without(self, removed: Iterable[VertexId]) -> bool:
        """Connectivity of the graph with `removed` vertices deleted."""
        skip = frozenset(removed)
        rest = [w for w in self._adj if w not in skip]
        if len(rest) <= 1:
            return True
        return len(self._bfs_reach(rest[0], skip)) == len(rest)

    def induced_is_connected(self, subset: Iterable[VertexId]) -> bool:
        """Connectivity of the subgraph induced by `subset` (empty: True)."""
        sub = set(subset)
        if len(sub) <= 1:
            return True
        start = next(iter(sub))
        seen = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in self._adj[v]:
                if w in sub and w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == len(sub)

    def induced_components(self, subset: Iterable[VertexId]) -> list[set[VertexId]]:
        sub = set(subset)
        comps = []
        seen: set[VertexId] = set()
        for v in sorted(sub):
            if v in seen:
                continue
            comp = {v}
            queue = deque([v])
            while queue:
                x = queue.popleft()
                for w in self._adj[x]:
                    if w in sub and w not in comp:
                        comp.add(w)
                        queue.append(w)
            seen |= comp
            comps.append(comp)
        return comps

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def copy(self) -> Graph:
        g = Graph()
        g._adj = {v: set(adj) for v, adj in self._adj.items()}
        g._next_id = self._next_id
        g._n_edges = self._n_edges
        return g

    def validate(self) -> None:
        """Check the simple-graph invariants; raises AssertionError on breakage."""
        count = 0
        for v, adj in self._adj.items():
            assert v not in adj, f"self-loop at {v}"
            for w in adj:
                assert w in self._adj, f"dangling neighbor {w} of {v}"
                assert v in self._adj[w], f"asymmetric edge ({v},{w})"
            count += len(adj)
        assert count == 2 * self._n_edges, "edge count out of sync"

    def __repr__(self) -> str:
        return f"Graph(n={self.n_vertices}, m={self.n_edges})"

    def __iter__(self) -> Iterator[VertexId]:
        return iter(sorted(self._adj))


def graph_from_edges(
    edges: Iterable[tuple[VertexId, VertexId]],
    vertices: Iterable[VertexId] = (),
) -> Graph:
    """Build a graph from explicit edges plus optional extra vertices."""
    g = Graph()
    for v in vertices:
        if v not in g:
            g.add_named_vertex(v)
    for u, w in edges:
        if u not in g:
            g.add_named_vertex(u)
        if w not in g:
            g.add_named_vertex(w)
        g.add_edge(u, w)
    return g
