"""Benchmark inputs and reference checks, independent of the planarcvc package.

Every input is generated here from the run's seed and handed to the
program only as graph-file text, so a change to planarcvc.generators
cannot change the load. The references the outputs are checked against
(covers, lower bounds, connectivity) are computed here too.

Graphs are plain adjacency dicts {vertex: set(neighbours)} on 1..n.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque

Adj = dict[int, set[int]]


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------


def _empty(n: int) -> Adj:
    return {v: set() for v in range(1, n + 1)}


def _link(adj: Adj, u: int, w: int) -> None:
    adj[u].add(w)
    adj[w].add(u)


def triangulation(n: int, rng: random.Random) -> Adj:
    """Maximal planar graph: stack each new vertex into a random triangle."""
    adj = _empty(n)
    for u, w in ((1, 2), (2, 3), (1, 3)):
        _link(adj, u, w)
    faces = [(1, 2, 3), (1, 3, 2)]
    for v in range(4, n + 1):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        for corner in (a, b, c):
            _link(adj, v, corner)
        faces.extend(((a, b, v), (b, c, v), (c, a, v)))
    return adj


def thinned_planar(n: int, density: float, rng: random.Random) -> Adj:
    """Triangulate, then keep each edge off a random spanning tree with
    probability `density`; the tree keeps the graph connected."""
    tri = triangulation(n, rng)
    root = rng.randrange(1, n + 1)
    tree = set()
    seen = {root}
    stack = [root]
    while stack:
        v = stack.pop()
        nbrs = sorted(tri[v] - seen)
        rng.shuffle(nbrs)
        for w in nbrs:
            if w not in seen:
                seen.add(w)
                tree.add((min(v, w), max(v, w)))
                stack.append(w)
    adj = _empty(n)
    for u, w in edge_list(tri):
        if (u, w) in tree or rng.random() < density:
            _link(adj, u, w)
    return adj


def ring_family(copies: int) -> tuple[Adj, set[int]]:
    """The tight ring family on 12*copies + 2 vertices, with its optimum cover.

    Two hubs s, t; a ring w_0..w_{l-1} joined to both hubs; per segment
    i two pendant owners x (on s) and y (on t), six degree-3 connectors
    that tie x to the left ring vertex, y to the right one and wall x
    off from y, and pendants on x, y and the right ring vertex. The
    hubs and the 3l owners form a connected cover of size 3l+2, which
    is optimal (the paper's tightness example).
    """
    counter = iter(range(1, 12 * copies + 3))
    adj: Adj = {}

    def new() -> int:
        v = next(counter)
        adj[v] = set()
        return v

    s, t = new(), new()
    ring = [new() for _ in range(copies)]
    for w in ring:
        _link(adj, s, w)
        _link(adj, t, w)
    cover = {s, t}
    for i in range(copies):
        left, right = ring[i - 1], ring[i]
        x, y = new(), new()
        _link(adj, s, x)
        _link(adj, t, y)
        for triple in ((s, left, x), (t, left, x), (s, x, t),
                       (s, y, t), (s, right, y), (t, right, y)):
            c = new()
            for z in triple:
                _link(adj, c, z)
        for owner in (x, y, right):
            _link(adj, owner, new())
            cover.add(owner)
    return adj, cover


def relabel(adj: Adj, rng: random.Random) -> tuple[Adj, dict[int, int]]:
    """Apply a seeded random permutation to the vertex labels."""
    labels = list(adj)
    shuffled = labels[:]
    rng.shuffle(shuffled)
    perm = dict(zip(labels, shuffled))
    return {perm[v]: {perm[w] for w in nbrs} for v, nbrs in adj.items()}, perm


# ----------------------------------------------------------------------
# graph files
# ----------------------------------------------------------------------


def edge_list(adj: Adj) -> list[tuple[int, int]]:
    return sorted((u, w) for u, nbrs in adj.items() for w in nbrs if u < w)


def graph_text(adj: Adj) -> str:
    """DIMACS-style `p cvc n m` file with 1-based labels."""
    edges = edge_list(adj)
    lines = [f"p cvc {len(adj)} {len(edges)}"]
    lines.extend(f"e {u} {w}" for u, w in edges)
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> tuple[Adj, int | None]:
    """Parse a graph file; also returns the `c kernel-k K` value if present."""
    adj: Adj = {}
    kernel_k = None
    for line in text.splitlines():
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "p":
            adj = _empty(int(fields[2]))
        elif fields[0] == "e":
            _link(adj, int(fields[1]), int(fields[2]))
        elif fields[:2] == ["c", "kernel-k"]:
            kernel_k = int(fields[2])
    return adj, kernel_k


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# reference covers and checks
# ----------------------------------------------------------------------


def dfs_cover(adj: Adj) -> set[int]:
    """Non-leaf vertices of a DFS tree: a connected vertex cover of a
    connected graph with at most twice the optimum (Savage 1982)."""
    live = [v for v in sorted(adj) if adj[v]]
    if not live:
        return set()
    root = live[0]
    seen = {root}
    internal = set()
    stack = [(root, iter(sorted(adj[root])))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if w not in seen:
                seen.add(w)
                internal.add(v)
                stack.append((w, iter(sorted(adj[w]))))
                break
        else:
            stack.pop()
    return internal


def greedy_matching_size(adj: Adj) -> int:
    """Size of a greedy maximal matching: a lower bound on any vertex cover."""
    used: set[int] = set()
    size = 0
    for u, w in edge_list(adj):
        if u not in used and w not in used:
            used.update((u, w))
            size += 1
    return size


def is_connected_cover(adj: Adj, cover: set[int]) -> bool:
    """Every edge has an end in `cover` and `cover` induces a connected graph."""
    if not cover <= adj.keys():
        return False
    if any(u not in cover and w not in cover for u, w in edge_list(adj)):
        return False
    if not cover:
        return True
    start = next(iter(cover))
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w in cover and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(cover)
