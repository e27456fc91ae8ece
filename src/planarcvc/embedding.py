"""Planarity testing and combinatorial embeddings (rotation systems).

The planarity test is Brandes' left-right algorithm ("The Left-Right
Planarity Test", 2009), ported from the iterative
``LRPlanarity.lr_planarity`` of networkx 3.6.1 to run on list-indexed
copies of ``Graph``'s adjacency: vertices become 0..n-1 in ascending id
order and edges get integer ids, and the embedding it builds stays on
those indices, as half-edges. Roots and neighbour lists are taken in
ascending id order, so the rotation system is the one
``networkx.check_planarity`` returns for the same graph with nodes and
edges added in sorted order, down to the first neighbour of every
rotation. The faces are numbered by one walk over the half-edges; the
face list in vertex ids is built from the half-edges only when asked
for, and Phase 2 reads the faces it needs without it. The checks of an
embedding (Euler's formula, faces against an independent tracer, the
rotation system in vertex ids) live with the tests.
Face orientation follows one fixed convention: the edge after (u, v) on
a boundary walk is (v, w) where w is the cyclic successor of u in the
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

from bisect import bisect_left, bisect_right
from collections import Counter
from functools import cached_property, partial
from itertools import compress
from typing import Iterable, NamedTuple

from .graph import Graph, VertexId


class NonPlanarGraphError(Exception):
    """Raised when an embedding is requested for a non-planar graph."""


class Face(NamedTuple):
    """One face of an embedding.

    boundary: the closed walk as a tuple of directed edges.
    incident_vertices: vertices in first-encounter order along the walk
    (a vertex may occur several times on the boundary but appears once here).
    """

    boundary: tuple[tuple[VertexId, VertexId], ...]
    incident_vertices: tuple[VertexId, ...]


class Embedding:
    """A rotation system on half-edges, and the faces it induces.

    Vertex i is vertices[i], ids ascending. Half-edge h points to vertex
    ends[h] and leaves vertex ends[h ^ 1], h ^ 1 being its reverse; cw[h]
    is the half-edge after h around the vertex it leaves, and leftmost[i]
    is the first half-edge at vertex i (-1 when there is none). The face
    list, in vertex ids, is built on first access; face_members reads
    faces without building it. Equality is identity.
    """

    def __init__(
        self, vertices: list[VertexId], ends: list[int], cw: list[int], leftmost: list[int]
    ) -> None:
        self.vertices = vertices
        self.ends = ends
        self.cw = cw
        self.leftmost = leftmost

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        """The faces in face-id order (see _walk)."""
        vertices = self.vertices
        corners, starts = self._walk
        if not corners:  # an edgeless connected graph is one vertex: one face around it
            return (Face(boundary=(), incident_vertices=tuple(vertices)),)
        faces = []
        for a, b in zip(starts, starts[1:]):
            walk = [vertices[i] for i in corners[a:b]]
            faces.append(Face(
                boundary=tuple(zip(walk, walk[1:] + walk[:1])),
                incident_vertices=tuple(dict.fromkeys(walk)),
            ))
        return tuple(faces)

    def face_members(self, members: Iterable[VertexId]) -> list[tuple[int, tuple[VertexId, ...]]]:
        """(face id, the members on it in first-encounter order) per face with two or more.

        Faces come in face-id order, as in `faces`, which is not built;
        ids that are not vertices of the embedding are ignored. The face
        walk is scanned for member corners once, and only a face with two
        or more of them is read.
        """
        vertices = self.vertices
        marked = bytearray(len(vertices))
        for v in members:
            i = bisect_left(vertices, v)
            if i < len(vertices) and vertices[i] == v:
                marked[i] = 1
        corners, starts = self._walk
        hits = list(compress(range(len(corners)), map(marked.__getitem__, corners)))
        out = []
        a = 0  # hits[a:a + count] are this face's
        for face, count in Counter(map(partial(bisect_right, starts), hits)).items():
            if count > 1:
                on_face = dict.fromkeys(map(corners.__getitem__, hits[a:a + count]))
                if len(on_face) > 1:
                    out.append((face - 1, tuple(map(vertices.__getitem__, on_face))))
            a += count
        return out

    @cached_property
    def _walk(self) -> tuple[list[int], list[int]]:
        """The face walk: every half-edge's start vertex, face by face, and
        where each face begins (one more entry, the total, at the end).

        Faces are numbered in the order of their smallest dart (u, w), u
        then w, and each walk begins at that dart; indices are monotone in
        ids, so this is also the order of the darts' ids. The dart after h
        along its face is cw[h ^ 1]. A dart at u that is unwalked when u
        is reached lies on a face whose smallest vertex is u.
        """
        ends, cw = self.ends, self.cw
        seen = bytearray(len(cw))
        corners: list[int] = []
        starts = [0]
        for first in self.leftmost:
            if first < 0:
                continue
            fresh = []  # the darts here on faces not walked yet
            h = first
            while True:
                if not seen[h]:
                    fresh.append(h)
                h = cw[h]
                if h == first:
                    break
            if len(fresh) > 1:
                fresh.sort(key=ends.__getitem__)
            for h0 in fresh:
                if seen[h0]:
                    continue
                h = h0
                while not seen[h]:
                    seen[h] = 1
                    r = h ^ 1
                    corners.append(ends[r])
                    h = cw[r]
                if h != h0:
                    raise AssertionError("face walk did not close on its starting edge")
                starts.append(len(corners))
        return corners, starts


def embed(g: Graph) -> Embedding:
    """Compute a planar embedding of a connected graph.

    Raises NonPlanarGraphError when no planar embedding exists and
    ValueError on empty or disconnected input.
    """
    if g.n_vertices == 0:
        raise ValueError("cannot embed the empty graph")
    lr = _LRPlanarity(g)
    halves = lr.embedding()  # ValueError when disconnected
    if halves is None:
        raise NonPlanarGraphError(
            f"graph with {g.n_vertices} vertices / {g.n_edges} edges is not planar"
        )
    return Embedding(lr.vertices, *halves)


def is_planar(g: Graph) -> bool:
    """Planarity of any graph, connected or not (the same test as embed).

    Runs only the decision half of the left-right test: no sign
    resolution, rotation system or face list is built.
    """
    return _LRPlanarity(g).is_planar()


# ----------------------------------------------------------------------
# left-right planarity test
# ----------------------------------------------------------------------


class _LRPlanarity:
    """State of one left-right planarity test (Brandes 2009).

    is_planar() is the decision half: the orientation and testing passes.
    embedding() adds the build half: sign resolution, the embedding pass
    and the rotation system on half-edges. Both run on dense indices.
    Vertices are 0..n-1 in ascending id order, and each edge gets the next integer id
    when the DFS orients it, from tail[e] to head[e]; out[v] lists the
    edges oriented away from v in orientation order. Every per-vertex and
    per-edge quantity is a list entry, with -1 for "none". A conflict
    pair is one list [left.low, left.high, right.low, right.high] of edge
    ids, and an interval is empty iff its low is -1. lowpt and ref have
    one spare last entry, which index -1 reaches: lowpt[-1] = -1 is below
    every height, so an empty interval never conflicts, and ref[-1] takes
    the one write that networkx makes to ref[None] and nothing reads.
    """

    __slots__ = (
        "vertices", "adjs", "n_edges", "roots", "height", "parent_edge",
        "tail", "head", "lowpt", "lowpt2", "nesting_depth", "out",
        "ordered_adjs", "ref", "side", "S", "stack_bottom", "lowpt_edge",
    )

    def __init__(self, g: Graph) -> None:
        adj = g.adjacency()
        self.vertices = g.vertices()
        # monotone, so every neighbor list keeps its ascending order
        index = {v: i for i, v in enumerate(self.vertices)}.__getitem__
        self.adjs = [sorted(map(index, adj[v])) for v in self.vertices]
        self.n_edges = g.n_edges
        self.roots: list[int] = []
        self.height = [-1] * len(self.vertices)
        self.parent_edge = [-1] * len(self.vertices)
        self.S: list[list[int]] = []

    def is_planar(self) -> bool:
        """The decision half: orientation and testing passes, no embedding."""
        n = len(self.adjs)
        if n > 2 and self.n_edges > 3 * n - 6:
            return False
        if not self.roots:  # embedding() may have oriented already
            self._orient()
        return self._test()

    def embedding(self) -> tuple[list[int], list[int], list[int]] | None:
        """Run the test, then build: the half-edges if planar, else None.

        Returns Embedding's ends, cw and leftmost lists, on indices.

        Raises ValueError on a disconnected graph, which the orientation
        pass shows by starting more than one DFS tree, before any verdict.
        """
        self._orient()
        if len(self.roots) > 1:
            raise ValueError("embed requires a connected graph")
        if not self.is_planar():
            return None
        nesting_depth = self.nesting_depth
        for out_v in self.out:
            for e in out_v:
                nesting_depth[e] *= self._sign(e)

        # half-edge 2e lies at tail[e] and points to head[e], 2e+1 the
        # reverse; cw and ccw link the half-edges around each vertex
        m = self.n_edges
        cw, ccw = [0] * (2 * m), [0] * (2 * m)
        leftmost = [-1] * len(self.adjs)
        self.ordered_adjs = [sorted(o, key=nesting_depth.__getitem__) for o in self.out]
        for v, ordered in enumerate(self.ordered_adjs):
            if ordered:
                halves = [2 * e for e in ordered]
                leftmost[v] = halves[0]
                for a, b in zip(halves, halves[1:] + halves[:1]):
                    cw[a], ccw[b] = b, a
        self._dfs_embedding(cw, ccw, leftmost)
        ends = [0] * (2 * m)
        ends[0::2] = self.head
        ends[1::2] = self.tail
        return ends, cw, leftmost

    def _orient(self) -> None:
        """Orient the graph by DFS from each root, compute lowpoints and nesting depths."""
        adjs, height, parent_edge = self.adjs, self.height, self.parent_edge
        m = self.n_edges
        self.tail = tail = [0] * m
        self.head = head = [0] * m
        self.lowpt = lowpt = [0] * m + [-1]
        self.lowpt2 = lowpt2 = [0] * m
        self.nesting_depth = nesting_depth = [0] * m
        self.out = out = [[] for _ in adjs]
        # next neighbor index per vertex; a vertex popped again resumes at
        # the tree edge it descended along, whose initial work is done
        ind = [-1] * len(adjs)
        last = -1  # the id of the last oriented edge
        for root in range(len(adjs)):
            if height[root] >= 0:
                continue
            height[root] = 0
            self.roots.append(root)
            stack = [root]
            while stack:
                v = stack.pop()
                e = parent_edge[v]
                u = tail[e] if e >= 0 else -1
                hv = height[v]
                nbrs = adjs[v]
                i = ind[v]
                resumed = i >= 0
                if not resumed:
                    i = 0
                while i < len(nbrs):
                    w = nbrs[i]
                    if resumed:
                        resumed = False
                        vw = parent_edge[w]
                    else:
                        hw = height[w]
                        if hw > hv or w == u:
                            i += 1
                            continue  # w is v's parent or a finished descendant: oriented from w
                        last += 1
                        vw = last
                        tail[vw], head[vw] = v, w
                        out[v].append(vw)
                        lowpt2[vw] = hv
                        if hw < 0:  # (v, w) is a tree edge
                            lowpt[vw] = hv
                            parent_edge[w] = vw
                            height[w] = hv + 1
                            ind[v] = i
                            stack.append(v)
                            stack.append(w)
                            break
                        lowpt[vw] = hw  # (v, w) is a back edge

                    # nesting depth: twice the lowpoint, plus one when chordal
                    low, low2 = lowpt[vw], lowpt2[vw]
                    nesting_depth[vw] = 2 * low + (low2 < hv)
                    if e >= 0:  # update the lowpoints of the parent edge
                        le = lowpt[e]
                        if low < le:
                            lowpt2[e] = le if le < low2 else low2
                            lowpt[e] = low
                        elif low > le:
                            if low < lowpt2[e]:
                                lowpt2[e] = low
                        elif low2 < lowpt2[e]:
                            lowpt2[e] = low2
                    i += 1

    def _test(self) -> bool:
        """Test for a left-right partition; False when none exists."""
        height, lowpt, parent_edge, head = self.height, self.lowpt, self.parent_edge, self.head
        m, S = self.n_edges, self.S
        # sorting by nesting depth makes the test non-linear, as in networkx
        key = self.nesting_depth.__getitem__
        self.ordered_adjs = ordered_adjs = [sorted(o, key=key) for o in self.out]
        self.ref = [-1] * (m + 1)
        self.side = [1] * m
        self.lowpt_edge = lowpt_edge = [-1] * m
        self.stack_bottom = stack_bottom = [None] * m
        ind = [-1] * len(ordered_adjs)
        for root in self.roots:
            stack = [root]
            while stack:
                v = stack.pop()
                e = parent_edge[v]
                hv = height[v]
                adjv = ordered_adjs[v]
                i = ind[v]
                resumed = i >= 0
                if not resumed:
                    i = 0
                while i < len(adjv):
                    ei = adjv[i]
                    if resumed:
                        resumed = False
                    else:
                        stack_bottom[ei] = S[-1] if S else None
                        w = head[ei]
                        if ei == parent_edge[w]:  # tree edge
                            ind[v] = i
                            stack.append(v)
                            stack.append(w)
                            break
                        lowpt_edge[ei] = ei  # back edge
                        S.append([-1, -1, ei, ei])

                    # integrate new return edges
                    if lowpt[ei] < hv:
                        if i == 0:  # e_i has a return edge
                            lowpt_edge[e] = lowpt_edge[ei]
                        elif not self._add_constraints(ei, e):
                            return False
                    i += 1
                else:  # v is finished
                    if e >= 0:
                        self._remove_back_edges(e)
        return True

    def _add_constraints(self, ei: int, e: int) -> bool:
        lowpt, ref, S = self.lowpt, self.ref, self.S
        pll = plh = prl = prh = -1  # the new conflict pair P
        low_e, bottom = lowpt[e], self.stack_bottom[ei]
        # merge the return edges of e_i into P.right
        while True:
            ll, lh, rl, rh = S.pop()
            if ll >= 0:  # swap the intervals
                ll, lh, rl, rh = rl, rh, ll, lh
            if ll >= 0:  # not planar
                return False
            if lowpt[rl] > low_e:  # merge intervals
                if prl < 0:  # topmost interval
                    prh = rh
                else:
                    ref[prl] = rh
                prl = rl
            else:  # align
                ref[rl] = self.lowpt_edge[e]
            if (S[-1] if S else None) is bottom:
                break
        # merge the conflicting return edges of e_1, ..., e_{i-1} into P.left
        low_i = lowpt[ei]
        while lowpt[S[-1][1]] > low_i or lowpt[S[-1][3]] > low_i:
            ll, lh, rl, rh = S.pop()
            if lowpt[rh] > low_i:
                ll, lh, rl, rh = rl, rh, ll, lh
            if lowpt[rh] > low_i:  # not planar
                return False
            # merge the interval below lowpt(e_i) into P.right
            ref[prl] = rh
            if rl >= 0:
                prl = rl
            if pll < 0:  # topmost interval
                plh = lh
            else:
                ref[pll] = lh
            pll = ll

        if pll >= 0 or prl >= 0:
            S.append([pll, plh, prl, prh])
        return True

    def _remove_back_edges(self, e: int) -> None:
        lowpt, ref, side, S, head = self.lowpt, self.ref, self.side, self.S, self.head
        u = self.tail[e]
        hu = self.height[u]
        # trim back edges ending at the parent u: drop whole conflict pairs
        while S:
            ll, _, rl, _ = S[-1]
            if ll < 0:
                lowest = lowpt[rl]
            elif rl < 0:
                lowest = lowpt[ll]
            else:
                lowest = min(lowpt[ll], lowpt[rl])
            if lowest != hu:
                break
            S.pop()
            if ll >= 0:
                side[ll] = -1

        if S:  # one more conflict pair to consider
            P = S[-1]
            # trim the left interval
            h = P[1]
            while h >= 0 and head[h] == u:
                h = ref[h]
            P[1] = h
            if h < 0 and P[0] >= 0:  # just emptied
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = -1
            # trim the right interval
            h = P[3]
            while h >= 0 and head[h] == u:
                h = ref[h]
            P[3] = h
            if h < 0 and P[2] >= 0:  # just emptied
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = -1

        # the side of e is the side of a highest return edge
        if lowpt[e] < hu:  # e has a return edge
            _, hl, _, hr = S[-1]
            if hl >= 0 and (hr < 0 or lowpt[hl] > lowpt[hr]):
                ref[e] = hl
            else:
                ref[e] = hr

    def _sign(self, e: int) -> int:
        """Resolve the side of e relative to its reference to an absolute side."""
        ref, side = self.ref, self.side
        chain = []
        x = e
        while (r := ref[x]) >= 0:
            ref[x] = -1
            chain.append((x, r))
            x = r
        for x, r in reversed(chain):
            side[x] *= side[r]
        return side[e]

    def _dfs_embedding(self, cw: list[int], ccw: list[int], leftmost: list[int]) -> None:
        """Link the reverse half-edge 2e+1 of every oriented edge e in at head[e]."""
        head, parent_edge, side = self.head, self.parent_edge, self.side
        ordered_adjs = self.ordered_adjs
        # the half-edges at v that back edges into v are placed beside
        left_ref, right_ref = [-1] * len(ordered_adjs), [-1] * len(ordered_adjs)
        ind = [0] * len(ordered_adjs)
        stack = list(self.roots)  # one root: the graph is connected
        while stack:
            v = stack.pop()
            adjv = ordered_adjs[v]
            i = ind[v]
            while i < len(adjv):
                ei = adjv[i]
                i += 1
                w, h = head[ei], 2 * ei + 1
                if ei == parent_edge[w]:  # tree edge: h becomes w's leftmost
                    first = leftmost[w]
                    if first < 0:
                        cw[h] = ccw[h] = h
                    else:
                        before = ccw[first]
                        cw[h], ccw[h] = first, before
                        cw[before] = ccw[first] = h
                    leftmost[w] = h
                    left_ref[v] = right_ref[v] = 2 * ei
                    stack.append(v)
                    stack.append(w)
                    break
                if side[ei] == 1:  # back edge, to the right: after right_ref[w]
                    after = right_ref[w]
                    nxt = cw[after]
                    cw[h], ccw[h] = nxt, after
                    ccw[nxt] = cw[after] = h
                else:  # to the left: before left_ref[w]
                    ref = left_ref[w]
                    before = ccw[ref]
                    cw[h], ccw[h] = ref, before
                    cw[before] = ccw[ref] = h
                    if ref == leftmost[w]:
                        leftmost[w] = h
                    left_ref[w] = h
            ind[v] = i
