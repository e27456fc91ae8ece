"""Phase 2: co-facial pendant merging driven by a maximum matching (R8).

Vertices that own a pendant and share a face can have their pendants
identified into one 2-vertex. To squeeze out as many identifications as
possible, the owners on each face are handed to the matcher as one
group of mutually adjacent vertices (co-faciality is the union of the
per-face cliques, which is never built), and its maximum matching is
rearranged face by face into consecutive, hence non-crossing, pairs of
equal total count before the merges are performed. Both the groups and
the rearrangement read the faces off the embedding's half-edge face
walk (Embedding.face_members): one scan of the walk for the owners'
corners, then work only on the faces with two or more owners; no Face
list is built. The merges themselves are R8 steps, applied and undone
by reductions.
"""

from __future__ import annotations

from typing import NamedTuple

from .embedding import Embedding, embed
from .graph import Graph, VertexId
from .matching import Matching, match_groups
from .reductions import ReductionStep, apply_identification


class AuxGraph(NamedTuple):
    """Co-faciality graph on the pendant-owning vertices of a graph."""

    vertices: tuple[VertexId, ...]
    edges: frozenset[tuple[VertexId, VertexId]]

    def to_graph(self) -> Graph:
        """The co-faciality graph as a Graph, for maximum_matching.

        Kept, like build_aux_graph, for the reference matching in the
        tests and for perfbench/tracing.py; Phase 2 calls neither.
        """
        g = Graph()
        for v in self.vertices:
            g.add_named_vertex(v)
        for u, w in sorted(self.edges):
            g.add_edge(u, w)
        return g


class PlanarizedMatching(NamedTuple):
    """Matched owner pairs, each assigned to a face where they are consecutive."""

    pairs: tuple[tuple[VertexId, VertexId, int], ...]


def pendant_owners(g: Graph) -> list[VertexId]:
    """Vertices of degree >= 2 with at least one 1-neighbor, ascending.

    The degree bound keeps the two endpoints of an isolated edge (which
    are mutually each other's only neighbor) out of the owner set.
    """
    adj = g.adjacency()
    owners = {next(iter(nbrs)) for nbrs in adj.values() if len(nbrs) == 1}
    return sorted(v for v in owners if len(adj[v]) >= 2)


def build_aux_graph(g1: Graph, e: Embedding) -> AuxGraph:
    """Union of per-face cliques on the pendant owners incident to each face.

    Phase 2 matches the same faces' owners without this graph; it stays
    as the reference for the tests and for perfbench/tracing.py.
    """
    owners = pendant_owners(g1)
    edges: set[tuple[VertexId, VertexId]] = set()
    for _, members in e.face_members(owners):
        for i, u in enumerate(members):
            for w in members[i + 1:]:
                edges.add((min(u, w), max(u, w)))
    return AuxGraph(vertices=tuple(owners), edges=frozenset(edges))


def planarize_matching(m0: Matching, e: Embedding) -> PlanarizedMatching:
    """Rearrange a co-faciality matching into per-face consecutive pairs.

    Faces are visited in embedding order; each matched edge is assigned to
    the first face containing both its endpoints. Inside one face the
    matched vertices are re-paired consecutively along the face order, so
    the new pairs can be drawn inside the face without crossings, and the
    total count never changes. Only the faces with two or more matched
    vertices are read, and the unassigned edges live in a partner map.
    A matched pair with no common face raises AssertionError.
    """
    partner: dict[VertexId, VertexId] = {}
    for u, w in m0.edges:
        partner[u], partner[w] = w, u
    pairs: list[tuple[VertexId, VertexId, int]] = []
    for face_id, members in e.face_members(partner):
        on_face = set(members)
        ordered = [v for v in members if partner.get(v) in on_face]
        for v in ordered:
            del partner[v]
        pairs.extend((ordered[i], ordered[i + 1], face_id) for i in range(0, len(ordered), 2))
    if partner:
        raise AssertionError(f"matched pair {min(partner)}, {partner[min(partner)]} without a common face")
    return PlanarizedMatching(pairs=tuple(pairs))


def run_phase2(g: Graph, owners: list[VertexId]) -> list[ReductionStep]:
    """Apply R8 a maximum number of times, mutating g; returns the steps.

    `owners` is pendant_owners(g), which kernelize also reads for its
    size gate. With fewer than two there is nothing to pair: g is
    returned untouched, with no planarity test. Otherwise g is embedded
    once (a non-planar g raises NonPlanarGraphError); the merges never
    consult the embedding again, since consecutive pairs inside a face
    are realizable without re-embedding. Each face's owners, ascending,
    are one group of match_groups, so no co-faciality graph is built.
    """
    if len(owners) < 2:
        return []
    e = embed(g)  # raises NonPlanarGraphError for a non-planar g
    m0 = match_groups([sorted(members) for _, members in e.face_members(owners)])
    return [apply_identification(g, u, v, face_id) for u, v, face_id in planarize_matching(m0, e).pairs]
