"""Planarity testing and combinatorial embeddings (rotation systems).

The planarity test is Brandes' left-right algorithm ("The Left-Right
Planarity Test", 2009), ported from the iterative
``LRPlanarity.lr_planarity`` of networkx 3.6.1 to run on ``Graph``'s own
adjacency. Roots and neighbour lists are taken in ascending id order, so
the rotation system is the one ``networkx.check_planarity`` returns for
the same graph with nodes and edges added in sorted order, down to the
first neighbour of every rotation. Face enumeration and the embedding
sanity checks are implemented here on top of that rotation system. Face
orientation follows one fixed convention: the edge after (u, v) on a
boundary walk is (v, w) where w is the cyclic successor of u in the
rotation at v. Only the consistency of this convention matters, not
geometric clockwiseness.

The port is derived from networkx, which is distributed under the
3-clause BSD licence:

    Copyright (C) 2004-2025, NetworkX Developers
    Aric Hagberg <hagberg@lanl.gov>
    Dan Schult <dschult@colgate.edu>
    Pieter Swart <swart@lanl.gov>
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

      * Redistributions of source code must retain the above copyright
        notice, this list of conditions and the following disclaimer.

      * Redistributions in binary form must reproduce the above
        copyright notice, this list of conditions and the following
        disclaimer in the documentation and/or other materials provided
        with the distribution.

      * Neither the name of the NetworkX Developers nor the names of its
        contributors may be used to endorse or promote products derived
        from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, VertexId

Edge = tuple[VertexId, VertexId]
# v -> (neighbor u -> the neighbor after u in the rotation at v)
Successors = dict[VertexId, dict[VertexId, VertexId]]


class NonPlanarGraphError(Exception):
    """Raised when an embedding is requested for a non-planar graph."""


@dataclass(frozen=True)
class Face:
    """One face of an embedding.

    boundary: the closed walk as a tuple of directed edges.
    incident_vertices: vertices in first-encounter order along the walk
    (a vertex may occur several times on the boundary but appears once here).
    """

    boundary: tuple[tuple[VertexId, VertexId], ...]
    incident_vertices: tuple[VertexId, ...]


@dataclass(frozen=True)
class Embedding:
    """Rotation system plus the face list it induces."""

    rotation: dict[VertexId, tuple[VertexId, ...]]
    faces: tuple[Face, ...]
    n_vertices: int
    n_edges: int


def embed(g: Graph) -> Embedding:
    """Compute a planar embedding of a connected graph.

    Raises NonPlanarGraphError when no planar embedding exists and
    ValueError on empty or disconnected input.
    """
    if g.n_vertices == 0:
        raise ValueError("cannot embed the empty graph")
    if not g.is_connected():
        raise ValueError("embed requires a connected graph")

    rot = _LRPlanarity(g).embedding()
    if rot is None:
        raise NonPlanarGraphError(
            f"graph with {g.n_vertices} vertices / {g.n_edges} edges is not planar"
        )
    vertices = g.vertices()
    return Embedding(
        rotation={v: rot.rotation(v) for v in vertices},
        faces=_trace_faces(rot.cw, vertices),
        n_vertices=g.n_vertices,
        n_edges=g.n_edges,
    )


def is_planar(g: Graph) -> bool:
    """Planarity of any graph, connected or not (the same test as embed).

    Runs only the decision half of the left-right test: no sign
    resolution, rotation system or face list is built.
    """
    return _LRPlanarity(g).is_planar()


def enumerate_faces(e: Embedding) -> list[Face]:
    """Re-derive the face list from the rotation system."""
    succ = {v: dict(zip(rot, rot[1:] + rot[:1])) for v, rot in e.rotation.items()}
    return list(_trace_faces(succ, sorted(e.rotation)))


def _trace_faces(succ: Successors, vertices: list[VertexId]) -> tuple[Face, ...]:
    """Faces in the order of their smallest starting dart (u, w), u then w."""
    if not any(succ[v] for v in vertices):
        # Edgeless connected graph is a single vertex: one face around it.
        return (Face(boundary=(), incident_vertices=tuple(vertices)),)

    faces = []
    visited: set[Edge] = set()
    for u0 in vertices:
        for w0 in sorted(succ[u0]):
            if (u0, w0) in visited:
                continue
            walk = []
            seen: set[VertexId] = set()
            first: list[VertexId] = []
            dart = (u0, w0)
            while dart not in visited:
                visited.add(dart)
                walk.append(dart)
                u, v = dart
                if u not in seen:
                    seen.add(u)
                    first.append(u)
                dart = (v, succ[v][u])
            assert dart == (u0, w0), "face walk did not close on its starting edge"
            faces.append(Face(boundary=tuple(walk), incident_vertices=tuple(first)))
    return tuple(faces)


def check_embedding(e: Embedding) -> None:
    """Euler formula and face double-cover checks; raises AssertionError."""
    total = sum(len(f.boundary) for f in e.faces)
    assert total == 2 * e.n_edges, (
        f"double cover broken: boundary lengths sum to {total}, expected {2 * e.n_edges}"
    )
    euler = e.n_vertices - e.n_edges + len(e.faces)
    assert euler == 2, f"Euler formula broken: V-E+F = {euler}"
    darts = {(u, w) for u in e.rotation for w in e.rotation[u]}
    covered = [d for f in e.faces for d in f.boundary]
    assert len(covered) == len(set(covered)), "a directed edge lies on two faces"
    assert set(covered) == darts or (not darts and len(e.faces) == 1), (
        "face boundaries do not cover every directed edge"
    )


# ----------------------------------------------------------------------
# left-right planarity test
# ----------------------------------------------------------------------


class _Interval:
    """A set of return edges that must all lie on the same side."""

    __slots__ = ("low", "high")

    def __init__(self, low: Edge | None = None, high: Edge | None = None) -> None:
        self.low = low
        self.high = high

    def empty(self) -> bool:
        return self.low is None and self.high is None

    def copy(self) -> _Interval:
        return _Interval(self.low, self.high)

    def conflicting(self, b: Edge, lowpt: dict[Edge, int]) -> bool:
        """True iff this interval conflicts with edge b."""
        return not self.empty() and lowpt[self.high] > lowpt[b]


class _ConflictPair:
    """Two intervals whose edges must lie on different sides."""

    __slots__ = ("left", "right")

    def __init__(self, left: _Interval, right: _Interval) -> None:
        self.left = left
        self.right = right

    def swap(self) -> None:
        self.left, self.right = self.right, self.left

    def lowest(self, lowpt: dict[Edge, int]) -> int:
        """The lowest lowpoint of the pair."""
        if self.left.empty():
            return lowpt[self.right.low]
        if self.right.empty():
            return lowpt[self.left.low]
        return min(lowpt[self.left.low], lowpt[self.right.low])


class _Rotation:
    """Half-edge rotation system under construction.

    cw[v][w] and ccw[v][w] are the neighbors after and before w around v;
    leftmost[v] is where the rotation of v starts, which the left-right
    embedding phase updates exactly as networkx's PlanarEmbedding does.
    """

    __slots__ = ("cw", "ccw", "leftmost")

    def __init__(self, vertices: list[VertexId]) -> None:
        self.cw: Successors = {v: {} for v in vertices}
        self.ccw: Successors = {v: {} for v in vertices}
        self.leftmost: dict[VertexId, VertexId] = {}

    def add_half_edge(
        self,
        start: VertexId,
        end: VertexId,
        cw: VertexId | None = None,
        ccw: VertexId | None = None,
    ) -> None:
        """Insert end before the reference cw, or after the reference ccw."""
        succ, pred = self.cw[start], self.ccw[start]
        if not succ:
            succ[end] = pred[end] = end
            self.leftmost[start] = end
        elif cw is not None:
            before = pred[cw]
            succ[end], pred[end] = cw, before
            succ[before] = pred[cw] = end
            if cw == self.leftmost[start]:
                self.leftmost[start] = end
        else:
            after = succ[ccw]
            succ[end], pred[end] = after, ccw
            pred[after] = succ[ccw] = end

    def add_half_edge_first(self, start: VertexId, end: VertexId) -> None:
        """Insert end just before the leftmost neighbor and make it leftmost."""
        self.add_half_edge(start, end, cw=self.leftmost.get(start))

    def rotation(self, v: VertexId) -> tuple[VertexId, ...]:
        """The neighbors of v clockwise, from the leftmost one."""
        succ = self.cw[v]
        if not succ:
            return ()
        start = self.leftmost[v]
        out = [start]
        w = succ[start]
        while w != start:
            out.append(w)
            w = succ[w]
        return tuple(out)


class _LRPlanarity:
    """State of one left-right planarity test (Brandes 2009).

    is_planar() is the decision half: the orientation and testing passes.
    embedding() runs it, then the build half: sign resolution, the
    embedding pass and the rotation system. Edges are (tail, head) tuples
    oriented by the DFS; out[v] lists the heads of v's oriented edges in
    orientation order.
    """

    __slots__ = (
        "vertices", "n_edges", "adjs", "roots", "height", "lowpt", "lowpt2",
        "nesting_depth", "parent_edge", "out", "ordered_adjs", "ref", "side",
        "S", "stack_bottom", "lowpt_edge", "left_ref", "right_ref",
    )

    def __init__(self, g: Graph) -> None:
        adj = g.adjacency()
        self.vertices = g.vertices()
        self.n_edges = g.n_edges
        self.adjs = {v: sorted(adj[v]) for v in self.vertices}
        self.roots: list[VertexId] = []
        self.height: dict[VertexId, int] = {}
        self.lowpt: dict[Edge, int] = {}
        self.lowpt2: dict[Edge, int] = {}
        self.nesting_depth: dict[Edge, int] = {}
        self.parent_edge: dict[VertexId, Edge] = {}
        self.out: dict[VertexId, list[VertexId]] = {v: [] for v in self.vertices}
        self.ordered_adjs: dict[VertexId, list[VertexId]] = {}
        self.ref: dict[Edge | None, Edge | None] = {}
        self.side: dict[Edge, int] = {}
        self.S: list[_ConflictPair] = []
        self.stack_bottom: dict[Edge, _ConflictPair | None] = {}
        self.lowpt_edge: dict[Edge, Edge] = {}
        self.left_ref: dict[VertexId, VertexId] = {}
        self.right_ref: dict[VertexId, VertexId] = {}

    def is_planar(self) -> bool:
        """The decision half: orientation and testing passes, no embedding."""
        n = len(self.vertices)
        if n > 2 and self.n_edges > 3 * n - 6:
            return False

        for v in self.vertices:
            if v not in self.height:
                self.height[v] = 0
                self.roots.append(v)
                self._dfs_orientation(v)

        nesting_depth = self.nesting_depth
        for v in self.vertices:
            # sorting by nesting depth makes the test non-linear, as in networkx
            self.ordered_adjs[v] = sorted(
                self.out[v], key=lambda w: nesting_depth[(v, w)]
            )
        return all(self._dfs_testing(v) for v in self.roots)

    def embedding(self) -> _Rotation | None:
        """Run the test, then build; the rotation system if planar, else None."""
        if not self.is_planar():
            return None
        nesting_depth = self.nesting_depth
        for v in self.vertices:
            for w in self.out[v]:
                e = (v, w)
                nesting_depth[e] = self._sign(e) * nesting_depth[e]

        rot = _Rotation(self.vertices)
        for v in self.vertices:
            self.ordered_adjs[v] = ordered = sorted(
                self.out[v], key=lambda w: nesting_depth[(v, w)]
            )
            previous = None
            for w in ordered:
                rot.add_half_edge(v, w, ccw=previous)
                previous = w

        for v in self.roots:
            self._dfs_embedding(v, rot)
        return rot

    def _dfs_orientation(self, root: VertexId) -> None:
        """Orient the graph by DFS, compute lowpoints and nesting depths."""
        height, lowpt, lowpt2 = self.height, self.lowpt, self.lowpt2
        nesting_depth, parent_edge = self.nesting_depth, self.parent_edge
        # next neighbor index per vertex; a vertex popped again resumes at
        # the tree edge it descended along, whose initial work is done
        ind: dict[VertexId, int] = {}
        stack = [root]
        while stack:
            v = stack.pop()
            e = parent_edge.get(v)
            hv = height[v]
            nbrs = self.adjs[v]
            i = ind.get(v)
            resumed = i is not None
            if not resumed:
                i = 0
            while i < len(nbrs):
                w = nbrs[i]
                vw = (v, w)
                if resumed:
                    resumed = False
                else:
                    if (w, v) in lowpt:
                        i += 1
                        continue  # the edge was already oriented
                    self.out[v].append(w)
                    lowpt[vw] = lowpt2[vw] = hv
                    hw = height.get(w)
                    if hw is None:  # (v, w) is a tree edge
                        parent_edge[w] = vw
                        height[w] = hv + 1
                        ind[v] = i
                        stack.append(v)
                        stack.append(w)
                        break
                    lowpt[vw] = hw  # (v, w) is a back edge

                # nesting depth: twice the lowpoint, plus one when chordal
                low = lowpt[vw]
                nesting_depth[vw] = 2 * low + (lowpt2[vw] < hv)
                if e is not None:  # update the lowpoints of the parent edge
                    if low < lowpt[e]:
                        lowpt2[e] = min(lowpt[e], lowpt2[vw])
                        lowpt[e] = low
                    elif low > lowpt[e]:
                        lowpt2[e] = min(lowpt2[e], low)
                    else:
                        lowpt2[e] = min(lowpt2[e], lowpt2[vw])
                i += 1

    def _dfs_testing(self, root: VertexId) -> bool:
        """Test for a left-right partition; False when none exists."""
        height, lowpt, parent_edge = self.height, self.lowpt, self.parent_edge
        S, stack_bottom, lowpt_edge = self.S, self.stack_bottom, self.lowpt_edge
        ind: dict[VertexId, int] = {}
        stack = [root]
        while stack:
            v = stack.pop()
            e = parent_edge.get(v)
            adjv = self.ordered_adjs[v]
            i = ind.get(v)
            resumed = i is not None
            if not resumed:
                i = 0
            descended = False
            while i < len(adjv):
                w = adjv[i]
                ei = (v, w)
                if resumed:
                    resumed = False
                else:
                    stack_bottom[ei] = S[-1] if S else None
                    if ei == parent_edge.get(w):  # tree edge
                        ind[v] = i
                        stack.append(v)
                        stack.append(w)
                        descended = True
                        break
                    lowpt_edge[ei] = ei  # back edge
                    S.append(_ConflictPair(_Interval(), _Interval(ei, ei)))

                # integrate new return edges
                if lowpt[ei] < height[v]:
                    if w == adjv[0]:  # e_i has a return edge
                        lowpt_edge[e] = lowpt_edge[ei]
                    elif not self._add_constraints(ei, e):
                        return False
                i += 1

            if not descended and e is not None:
                self._remove_back_edges(e)
        return True

    def _add_constraints(self, ei: Edge, e: Edge) -> bool:
        lowpt, ref, S = self.lowpt, self.ref, self.S
        P = _ConflictPair(_Interval(), _Interval())
        # merge the return edges of e_i into P.right
        while True:
            Q = S.pop()
            if not Q.left.empty():
                Q.swap()
            if not Q.left.empty():  # not planar
                return False
            if lowpt[Q.right.low] > lowpt[e]:  # merge intervals
                if P.right.empty():  # topmost interval
                    P.right = Q.right.copy()
                else:
                    ref[P.right.low] = Q.right.high
                P.right.low = Q.right.low
            else:  # align
                ref[Q.right.low] = self.lowpt_edge[e]
            if (S[-1] if S else None) is self.stack_bottom[ei]:
                break
        # merge the conflicting return edges of e_1, ..., e_{i-1} into P.left
        while S[-1].left.conflicting(ei, lowpt) or S[-1].right.conflicting(ei, lowpt):
            Q = S.pop()
            if Q.right.conflicting(ei, lowpt):
                Q.swap()
            if Q.right.conflicting(ei, lowpt):  # not planar
                return False
            # merge the interval below lowpt(e_i) into P.right
            ref[P.right.low] = Q.right.high
            if Q.right.low is not None:
                P.right.low = Q.right.low
            if P.left.empty():  # topmost interval
                P.left = Q.left.copy()
            else:
                ref[P.left.low] = Q.left.high
            P.left.low = Q.left.low

        if not (P.left.empty() and P.right.empty()):
            S.append(P)
        return True

    def _remove_back_edges(self, e: Edge) -> None:
        lowpt, ref, side, S = self.lowpt, self.ref, self.side, self.S
        u = e[0]
        hu = self.height[u]
        # trim back edges ending at the parent u: drop whole conflict pairs
        while S and S[-1].lowest(lowpt) == hu:
            P = S.pop()
            if P.left.low is not None:
                side[P.left.low] = -1

        if S:  # one more conflict pair to consider
            P = S.pop()
            # trim the left interval
            while P.left.high is not None and P.left.high[1] == u:
                P.left.high = ref.get(P.left.high)
            if P.left.high is None and P.left.low is not None:  # just emptied
                ref[P.left.low] = P.right.low
                side[P.left.low] = -1
                P.left.low = None
            # trim the right interval
            while P.right.high is not None and P.right.high[1] == u:
                P.right.high = ref.get(P.right.high)
            if P.right.high is None and P.right.low is not None:  # just emptied
                ref[P.right.low] = P.left.low
                side[P.right.low] = -1
                P.right.low = None
            S.append(P)

        # the side of e is the side of a highest return edge
        if lowpt[e] < hu:  # e has a return edge
            hl, hr = S[-1].left.high, S[-1].right.high
            if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]):
                ref[e] = hl
            else:
                ref[e] = hr

    def _sign(self, e: Edge) -> int:
        """Resolve the side of e relative to its reference to an absolute side."""
        ref, side = self.ref, self.side
        chain = []
        x = e
        while (r := ref.get(x)) is not None:
            ref[x] = None
            chain.append((x, r))
            x = r
        for x, r in reversed(chain):
            side[x] = side.get(x, 1) * side.get(r, 1)
        return side.get(e, 1)

    def _dfs_embedding(self, root: VertexId, rot: _Rotation) -> None:
        """Complete the embedding with the reverse half-edge of every oriented edge."""
        parent_edge, side = self.parent_edge, self.side
        left_ref, right_ref = self.left_ref, self.right_ref
        ind: dict[VertexId, int] = {}
        stack = [root]
        while stack:
            v = stack.pop()
            adjv = self.ordered_adjs[v]
            i = ind.get(v, 0)
            while i < len(adjv):
                w = adjv[i]
                i += 1
                ei = (v, w)
                if ei == parent_edge.get(w):  # tree edge
                    rot.add_half_edge_first(w, v)
                    left_ref[v] = right_ref[v] = w
                    stack.append(v)
                    stack.append(w)
                    break
                if side.get(ei, 1) == 1:  # back edge, to the right
                    rot.add_half_edge(w, v, ccw=right_ref[w])
                else:
                    rot.add_half_edge(w, v, cw=left_ref[w])
                    left_ref[w] = v
            ind[v] = i
