"""Phase 2: co-facial pendant merging driven by a maximum matching (R8).

Vertices that own a pendant and share a face can have their pendants
identified into one 2-vertex. To squeeze out as many identifications as
possible, an auxiliary graph over pendant owners is built (edges =
co-faciality, a union of per-face cliques), a maximum matching of it is
computed, and the matching is rearranged face by face into consecutive,
hence non-crossing, pairs of equal total count before the merges are
performed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .embedding import Embedding, embed
from .graph import Graph, VertexId
from .matching import Matching, maximum_matching
from .reductions import ReductionStep, RuleId


@dataclass(frozen=True)
class AuxGraph:
    """Co-faciality graph on the pendant-owning vertices of a graph."""

    vertices: tuple[VertexId, ...]
    edges: frozenset[tuple[VertexId, VertexId]]

    def to_graph(self) -> Graph:
        g = Graph()
        for v in self.vertices:
            g.add_named_vertex(v)
        for u, w in sorted(self.edges):
            g.add_edge(u, w)
        return g


@dataclass(frozen=True)
class PlanarizedMatching:
    """Matched owner pairs, each assigned to a face where they are consecutive."""

    pairs: tuple[tuple[VertexId, VertexId, int], ...]

    @property
    def size(self) -> int:
        return len(self.pairs)


def pendant_owners(g: Graph) -> list[VertexId]:
    """Vertices of degree >= 2 with at least one 1-neighbor, ascending.

    The degree bound keeps the two endpoints of an isolated edge (which
    are mutually each other's only neighbor) out of the owner set.
    """
    adj = g.adjacency()
    owners = {next(iter(nbrs)) for nbrs in adj.values() if len(nbrs) == 1}
    return sorted(v for v in owners if len(adj[v]) >= 2)


def build_aux_graph(g1: Graph, e: Embedding) -> AuxGraph:
    """Union of per-face cliques on the pendant owners incident to each face."""
    owners = pendant_owners(g1)
    owner_set = set(owners)
    edges: set[tuple[VertexId, VertexId]] = set()
    for face in e.faces:
        members = [v for v in face.incident_vertices if v in owner_set]
        for i, u in enumerate(members):
            for w in members[i + 1:]:
                edges.add((min(u, w), max(u, w)))
    return AuxGraph(vertices=tuple(owners), edges=frozenset(edges))


def planarize_matching(m0: Matching, e: Embedding) -> PlanarizedMatching:
    """Rearrange a co-faciality matching into per-face consecutive pairs.

    Faces are visited in embedding order; each matched edge is assigned to
    the first face containing both its endpoints. Inside one face the
    matched vertices are re-paired consecutively along the face order, so
    the new pairs can be drawn inside the face without crossings. The
    total count never changes.
    """
    unassigned = set(m0.edges)
    pairs: list[tuple[VertexId, VertexId, int]] = []
    for face_id, face in enumerate(e.faces):
        members = set(face.incident_vertices)
        in_face = [
            (u, w) for u, w in sorted(unassigned) if u in members and w in members
        ]
        if not in_face:
            continue
        unassigned.difference_update(in_face)
        matched = {v for edge in in_face for v in edge}
        ordered = [v for v in face.incident_vertices if v in matched]
        assert len(ordered) == 2 * len(in_face)
        for i in range(0, len(ordered), 2):
            pairs.append((ordered[i], ordered[i + 1], face_id))
    assert not unassigned, "matched pair without a common face"
    assert len(pairs) == m0.size
    return PlanarizedMatching(pairs=tuple(pairs))


def apply_identification(
    g: Graph, u: VertexId, v: VertexId, face_id: int = -1
) -> ReductionStep:
    """Merge the pendants of u and v into one fresh 2-vertex (R8).

    The owners must be distinct and non-adjacent (guaranteed for Phase 1
    fixpoints because R4 removed adjacent pendant-owner pairs).
    """
    assert u != v, "R8 needs two distinct owners"
    assert not g.has_edge(u, v), "R8 owners must not be adjacent"
    pu = sorted(g.pendant_neighbors(u))
    pv = sorted(g.pendant_neighbors(v))
    assert pu and pv, "R8 owners must both own a pendant"
    xu, xv = pu[0], pv[0]
    assert xu != xv
    g.remove_vertex(xu)
    g.remove_vertex(xv)
    c = g.add_vertex()
    g.add_edge(u, c)
    g.add_edge(v, c)
    assert not g.is_cut_vertex(c), "merged pendant vertex must not be a cut vertex"
    site: dict[str, int | bool] = {
        "u": u, "v": v, "xu": xu, "xv": xv, "c": c, "face": face_id,
    }
    return ReductionStep(RuleId.R8, site, (c,), (xu, xv), 0)


def run_phase2(g: Graph, e: Embedding | None = None) -> list[ReductionStep]:
    """Apply R8 a maximum number of times, mutating g; returns the steps.

    The embedding is computed once here when not supplied; the merges
    themselves never consult it again, since consecutive pairs inside a
    face are realizable without re-embedding.
    """
    if g.n_vertices == 0:
        return []
    if e is None:
        e = embed(g)
    aux = build_aux_graph(g, e)
    if not aux.edges:
        return []
    m0 = maximum_matching(aux.to_graph())
    planar = planarize_matching(m0, e)
    assert planar.size == m0.size
    steps = []
    for u, v, face_id in planar.pairs:
        steps.append(apply_identification(g, u, v, face_id))
    return steps
