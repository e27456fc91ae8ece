"""Maximum cardinality matching in general graphs (blossom algorithm).

The graph is given as groups of mutually adjacent vertices, each group
ascending and without repeats: Phase 2 passes each face's pendant
owners, and maximum_matching passes a Graph's edges, one group each. No
clique is built. A vertex's neighbours are read in ascending order,
without duplicates, by merging the groups it belongs to, and only when
a search scans them.

Roots are taken in ascending order. A root with an unmatched neighbour
is matched to the smallest one, which is where its augmenting-path
search would stop: that search scans the root's neighbours in ascending
order and ends at the first unmatched one. One forward-only pointer per
group finds that neighbour: it passes matched members, which stay
matched, and roots already taken, whose searches either matched them or
found every other member of their groups matched. Only a root with no
free neighbour runs the blossom search: augmenting paths with blossom
shrinking, which resets and scans only the vertices of its own
alternating tree. Those roots still pay its O(V^3) worst case, and a
search through one group of m members reads m^2 adjacencies. Planarity
and connectivity are not required. Small instances are cross-checked
against an exhaustive matcher in the tests.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple, Sequence

from .graph import Graph, VertexId


class Matching(NamedTuple):
    """A set of vertex-disjoint edges, stored as (u, w) pairs with u < w."""

    edges: frozenset[tuple[VertexId, VertexId]] = frozenset()

    @property
    def size(self) -> int:
        return len(self.edges)


def maximum_matching(g: Graph) -> Matching:
    """Compute a maximum cardinality matching of g."""
    return match_groups(g.edges())


def match_groups(groups: Iterable[Sequence[VertexId]]) -> Matching:
    """A maximum cardinality matching of the union of cliques on the groups.

    Each group is ascending and holds no vertex twice.
    """
    groups = list(groups)
    verts = sorted({v for group in groups for v in group})
    n = len(verts)
    if n == 0:
        return Matching()
    index = {v: i for i, v in enumerate(verts)}
    members = [[index[v] for v in group] for group in groups]
    groups_of: list[list[int]] = [[] for _ in range(n)]
    for gi, group in enumerate(members):
        for i in group:
            groups_of[i].append(gi)
    adj: list[list[int] | None] = [None] * n  # filled when a search scans the vertex
    first_free = [0] * len(members)  # per group, each member before it is matched or was a root

    match = [-1] * n
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    # vertices the current search has put in its tree, the only ones
    # whose parent, base or in_queue entry differs from its reset value
    tree: set[int] = set()
    queue: deque[int] = deque()

    def neighbours(v: int) -> list[int]:
        nbrs = adj[v]
        if nbrs is None:
            nbrs = adj[v] = sorted({w for gi in groups_of[v] for w in members[gi]})
            nbrs.remove(v)
        return nbrs

    def free_neighbour(v: int) -> int:
        """The smallest unmatched neighbour of v, or n when there is none.

        The pointers pass v too: v is matched next, or its search fails
        because every other member of its groups is matched, for good.
        """
        best = n
        for gi in groups_of[v]:
            group, i = members[gi], first_free[gi]
            while i < len(group) and (group[i] == v or match[group[i]] != -1):
                i += 1
            first_free[gi] = i
            if i < len(group) and group[i] < best:
                best = group[i]
        return best

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
            for to in neighbours(v):
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
        w = free_neighbour(v)
        if w < n:
            match[v], match[w] = w, v
            continue
        leaf = find_augmenting_path(v)
        # Alternate matched/unmatched edges back to the root.
        while leaf != -1:
            pv = parent[leaf]
            next_leaf = match[pv]
            match[leaf] = pv
            match[pv] = leaf
            leaf = next_leaf

    return Matching(edges=frozenset((verts[i], verts[match[i]]) for i in range(n) if match[i] > i))
