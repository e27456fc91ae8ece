"""Maximum cardinality matching in general graphs (blossom algorithm).

Augmenting-path search with blossom shrinking, O(V^3) overall. Each
search resets and scans only the vertices of its own alternating tree,
so a search that stays local costs its tree, not the whole graph. The
input graph does not have to be planar or connected; correctness, not
the sub-quadratic factor of fancier matchers, is the contract here.
Small instances are cross-checked against an exhaustive matcher in the
tests.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .graph import Graph, VertexId


class Matching(NamedTuple):
    """A set of vertex-disjoint edges, stored as (u, w) pairs with u < w."""

    edges: frozenset[tuple[VertexId, VertexId]] = frozenset()

    @property
    def size(self) -> int:
        return len(self.edges)


def maximum_matching(g: Graph) -> Matching:
    """Compute a maximum cardinality matching of g."""
    verts = g.vertices()
    n = len(verts)
    if n == 0:
        return Matching()
    index = {v: i for i, v in enumerate(verts)}
    adj = [[index[w] for w in g.neighbors(v)] for v in verts]

    match = [-1] * n
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    # vertices the current search has put in its tree, the only ones
    # whose parent, base or in_queue entry differs from its reset value
    tree: set[int] = set()
    queue: deque[int] = deque()

    def lca(a: int, b: int) -> int:
        used: set[int] = set()
        while True:
            a = base[a]
            used.add(a)
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if b in used:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, in_blossom: set[int]) -> None:
        while base[v] != b:
            in_blossom.add(base[v])
            in_blossom.add(base[match[v]])
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def enqueue(v: int) -> None:
        in_queue[v] = True
        tree.add(v)
        queue.append(v)

    def find_augmenting_path(root: int) -> int:
        for i in tree:
            parent[i] = -1
            base[i] = i
            in_queue[i] = False
        tree.clear()
        queue.clear()
        enqueue(root)
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # Odd cycle: shrink the blossom around the common ancestor.
                    cur_base = lca(v, to)
                    in_blossom: set[int] = set()
                    mark_path(v, cur_base, to, in_blossom)
                    mark_path(to, cur_base, v, in_blossom)
                    # ascending, as a scan of all vertices would visit them
                    for i in sorted(tree):
                        if base[i] in in_blossom:
                            base[i] = cur_base
                            if not in_queue[i]:
                                enqueue(i)
                elif parent[to] == -1:
                    parent[to] = v
                    tree.add(to)
                    if match[to] == -1:
                        return to
                    if not in_queue[match[to]]:
                        enqueue(match[to])
        return -1

    for v in range(n):
        if match[v] != -1:
            continue
        leaf = find_augmenting_path(v)
        if leaf == -1:
            continue
        # Alternate matched/unmatched edges back to the root.
        while leaf != -1:
            pv = parent[leaf]
            next_leaf = match[pv]
            match[leaf] = pv
            match[pv] = leaf
            leaf = next_leaf

    pairs = frozenset(
        (min(verts[i], verts[match[i]]), max(verts[i], verts[match[i]]))
        for i in range(n)
        if match[i] > i
    )
    return Matching(edges=pairs)

