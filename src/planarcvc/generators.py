"""Instance generators: the tight ring family, the 6-vertex exception
graph, and seeded random planar graphs for the property-test corpus.

The ring family witnesses that the 11/3 size analysis is sharp: for
``copies`` >= 3 it has 12*copies + 2 vertices, none of the Phase 1 rules
apply, Phase 2 merges exactly ``copies`` pendant pairs, and the minimum
connected vertex cover has 3*copies + 2 vertices. The tests check these
claims for copies 3..8 (the exact minimum for 3 and 4); nothing here
validates a generated graph.
"""

from __future__ import annotations

import random

from .graph import Graph, InputError


def gen_tightness(copies: int) -> Graph:
    """Build the tight ring family on 12*copies + 2 vertices.

    Layout: two global hubs s (top) and t (bottom), a ring of shared
    vertices w_0..w_{copies-1}, and per ring segment two pendant owners
    x (attached to s) and y (attached to t) plus six degree-3 connectors
    that tie x to the left ring vertex, y to the right ring vertex, and
    wall off x from y so they never share a face. Pendants hang on every
    x, y and w. Walls guarantee any co-facial owner pair involves a ring
    vertex, capping the Phase 2 matching at exactly ``copies``.
    """
    if copies < 3:
        raise InputError(f"the ring family needs at least 3 copies, got {copies}")
    g = Graph()
    s = g.add_vertex()
    t = g.add_vertex()
    ring = [g.add_vertex() for _ in range(copies)]
    for w in ring:
        g.add_edge(s, w)
        g.add_edge(t, w)
    for i in range(copies):
        left, right = ring[i - 1], ring[i]  # i-1 wraps, closing the ring
        x = g.add_vertex()
        y = g.add_vertex()
        g.add_edge(s, x)
        g.add_edge(t, y)
        for triple in (
            (s, left, x),
            (t, left, x),
            (s, x, t),  # wall right of x
            (s, y, t),  # wall left of y
            (s, right, y),
            (t, right, y),
        ):
            c = g.add_vertex()
            for z in triple:
                g.add_edge(c, z)
        for owner in (x, y, right):
            p = g.add_vertex()
            g.add_edge(owner, p)
    return g


def gen_exception_graph() -> Graph:
    """The 6-vertex graph on which no Phase 1 rule applies.

    Vertices are created in the order v, q, a, b, x, y (ids 1..6):
    q is v's pendant, a and b are degree-3 twins seeing {v, x, y}, and
    x, y close the two four-cycles. Its minimum connected vertex cover
    is {v, x, y}.
    """
    g = Graph()
    v, q, a, b, x, y = (g.add_vertex() for _ in range(6))
    for edge in ((v, q), (v, a), (v, b), (v, x), (v, y), (a, x), (a, y), (b, x), (b, y)):
        g.add_edge(*edge)
    return g


def gen_random_planar(n: int, density: float, seed: int) -> Graph:
    """Connected simple planar graph on n vertices, deterministic per seed.

    Grows a random maximal planar graph by inserting each new vertex into
    a uniformly chosen face triangle, then deletes non-bridge edges with
    probability 1 - density, so connectivity and planarity hold by
    construction. density=1.0 keeps the full triangulation (3n-6 edges).
    Raises InputError unless n >= 1 and 0 <= density <= 1.
    """
    if n < 1:
        raise InputError(f"need at least one vertex, got {n}")
    if not 0.0 <= density <= 1.0:
        raise InputError(f"density must lie in [0, 1], got {density}")
    rng = random.Random(seed)
    g = Graph()
    first = [g.add_vertex() for _ in range(min(n, 3))]
    if n == 1:
        return g
    if n == 2:
        g.add_edge(first[0], first[1])
        return g
    a, b, c = first
    for u, w in ((a, b), (b, c), (a, c)):
        g.add_edge(u, w)
    # Both sides of the starting triangle are faces of the sphere embedding.
    faces = [(a, b, c), (a, c, b)]
    while g.n_vertices < n:
        fa, fb, fc = faces.pop(rng.randrange(len(faces)))
        v = g.add_vertex()
        for corner in (fa, fb, fc):
            g.add_edge(v, corner)
        faces.extend([(fa, fb, v), (fb, fc, v), (fa, fc, v)])

    if density < 1.0:
        for u, w in g.edges():
            if rng.random() < 1.0 - density:
                g.remove_edge(u, w)
                if g.split_side(u, w, lambda _: True) is not None:
                    g.add_edge(u, w)  # bridge: keep it
    return g
