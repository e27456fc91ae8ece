"""planar-embedding: planarity verdicts, faces, Euler and double cover.

The left-right test is checked against networkx (the code it was ported
from), which is a test-only dependency: verdicts and rotation tuples,
first neighbor included, must be identical. The faces, walked on the
half-edges, are checked against the vertex-id tracer in brute.py run on
the same rotation system, face for face, and so are the per-face member
sequences that Phase 2 reads without building the faces.
"""

from __future__ import annotations

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarcvc.embedding import (
    Embedding,
    Face,
    NonPlanarGraphError,
    embed,
    is_planar,
)
from planarcvc.facematch import pendant_owners
from planarcvc.generators import gen_random_planar, gen_tightness
from planarcvc.graph import Graph
from planarcvc.reductions import run_phase1

from brute import graph_from_edges, reference_faces, rotation
from conftest import make_complete, make_complete_bipartite, make_cycle, make_path
from strategies import small_graphs


def test_k4_has_four_triangular_faces():
    e = embed(make_complete(4))
    assert e.n_vertices - e.n_edges + len(e.faces) == 2
    assert len(e.faces) == 4
    assert all(len(f.boundary) == 3 for f in e.faces)


def test_k5_rejected():
    with pytest.raises(NonPlanarGraphError):
        embed(make_complete(5))
    assert not is_planar(make_complete(5))


def test_k33_rejected():
    with pytest.raises(NonPlanarGraphError):
        embed(make_complete_bipartite(3, 3))


def test_tree_has_one_face():
    e = embed(make_path(6))
    assert len(e.faces) == 1
    assert len(e.faces[0].boundary) == 10  # every edge walked twice


def test_c5_has_two_faces():
    e = embed(make_cycle(5))
    assert len(e.faces) == 2
    assert all(len(f.boundary) == 5 for f in e.faces)


def test_single_vertex():
    g = Graph()
    g.add_vertex()
    e = embed(g)
    assert e.n_vertices - e.n_edges + len(e.faces) == 2
    assert len(e.faces) == 1


def test_rejects_empty_and_disconnected():
    with pytest.raises(ValueError):
        embed(Graph())
    with pytest.raises(ValueError):
        embed(graph_from_edges([(1, 2), (3, 4)]))


def test_disconnected_is_rejected_before_any_verdict():
    # K7 has 21 > 3*8 - 6 edges, so the edge-count shortcut alone would
    # call K7 plus an isolated vertex non-planar.
    k7 = make_complete(7)
    with pytest.raises(NonPlanarGraphError):
        embed(k7)
    k7.add_vertex()
    assert not is_planar(k7)
    with pytest.raises(ValueError, match="connected"):
        embed(k7)
    k5_and_edge = graph_from_edges([(i, j) for i in range(1, 6) for j in range(i + 1, 6)] + [(6, 7)])
    with pytest.raises(ValueError, match="connected"):
        embed(k5_and_edge)


def _renamed(g: Graph, ids: list[int]) -> Graph:
    """g with its i-th smallest vertex renamed to ids[i]."""
    name = dict(zip(g.vertices(), ids))
    h = Graph()
    for v in ids:
        h.add_named_vertex(v)
    for u, w in g.edges():
        h.add_edge(name[u], name[w])
    return h


def _assert_ids_only_mapped(g: Graph, rng: random.Random) -> None:
    """Sparse ids up to ~2**40 give what 1..n gives, renamed monotonically."""
    ids = sorted(rng.sample(range(1, 2**40), g.n_vertices))
    compact = _renamed(g, list(range(1, g.n_vertices + 1)))
    sparse = _renamed(g, ids)
    assert is_planar(sparse) == is_planar(compact)
    if not g.n_vertices or not g.is_connected():
        return
    if not is_planar(compact):
        with pytest.raises(NonPlanarGraphError):
            embed(sparse)
        return
    name = dict(zip(range(1, g.n_vertices + 1), ids))
    e, f = embed(compact), embed(sparse)
    assert rotation(f) == {name[v]: tuple(name[w] for w in rot) for v, rot in rotation(e).items()}
    assert f.faces == tuple(
        Face(
            boundary=tuple((name[u], name[w]) for u, w in face.boundary),
            incident_vertices=tuple(name[v] for v in face.incident_vertices),
        )
        for face in e.faces
    )


@settings(max_examples=200, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False))
def test_vertex_ids_are_only_mapped_on_small_graphs(g, rng):
    _assert_ids_only_mapped(g, rng)


def test_vertex_ids_are_only_mapped_on_larger_graphs():
    rng = random.Random(40)
    for i in range(30):
        g = gen_random_planar(rng.randint(5, 200), rng.choice((0.3, 0.6, 1.0)), 8000 + i)
        vertices = g.vertices()
        for _ in range(i % 4):
            g.ensure_edge(*rng.sample(vertices, 2))
        _assert_ids_only_mapped(g, rng)


@settings(max_examples=400, deadline=None)
@given(small_graphs())
def test_is_planar_iff_every_component_embeds(g):
    def embeds(component: set[int]) -> bool:
        try:
            embed(graph_from_edges((u, w) for u, w in g.edges() if u in component))
        except NonPlanarGraphError:
            return False
        return True

    components = [c for c in g.components() if len(c) > 1]
    assert is_planar(g) == all(embeds(c) for c in components)


def _members_by_reference(faces: tuple[Face, ...], members: set[int]) -> list[tuple[int, tuple[int, ...]]]:
    """The faces filtered to members, keeping those with two or more."""
    out = []
    for face_id, face in enumerate(faces):
        on_face = tuple(v for v in face.incident_vertices if v in members)
        if len(on_face) >= 2:
            out.append((face_id, on_face))
    return out


def _assert_walk_matches_reference(e: Embedding, rng: random.Random, owners: tuple[int, ...] = ()) -> None:
    """Faces and face_members equal what the reference tracer gives on rotation(e).

    The member sets: none, every vertex, the given owners, and random
    subsets (with one id that is not a vertex, which is ignored). The
    rotation itself is compared with networkx's by the tests below.
    """
    rot = rotation(e)
    expected = reference_faces(rot)
    vertices = sorted(rot)
    subsets = [set(), set(vertices), set(owners)]
    subsets += [set(rng.sample(vertices, rng.randint(0, len(vertices)))) for _ in range(3)]
    for members in subsets:
        assert e.face_members(members | {vertices[-1] + 1}) == _members_by_reference(expected, members)
    assert e.faces == expected


def _component_graphs(g: Graph) -> list[Graph]:
    return [graph_from_edges(((u, w) for u, w in g.edges() if u in c), vertices=c)
            for c in g.components()]


@settings(max_examples=100, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False))
def test_walk_matches_reference_on_small_graphs(g, rng):
    # ids sampled up to 2**40, one check per planar component
    g = _renamed(g, sorted(rng.sample(range(1, 2**40), g.n_vertices)))
    for component in _component_graphs(g):
        if is_planar(component):
            _assert_walk_matches_reference(embed(component), rng)


def test_walk_matches_reference_on_triangulations_up_to_1000():
    rng = random.Random(41)
    for n in (3, 4, 5, 10, 50, 200, 500, 1000):
        for seed in range(2):
            _assert_walk_matches_reference(embed(gen_random_planar(n, 1.0, seed)), rng)


def test_walk_matches_reference_on_ring_family_and_fixpoints():
    rng = random.Random(42)
    for ell in range(3, 25):
        g = gen_tightness(ell)
        fixpoint = run_phase1(g.copy(), 3 * ell + 2).graph
        for h in (g, fixpoint):
            _assert_walk_matches_reference(embed(h), rng, tuple(pendant_owners(h)))


def test_walk_matches_reference_on_single_vertex():
    g = Graph()
    g.add_named_vertex(7)
    e = embed(g)
    assert e.faces == reference_faces(rotation(e)) == (Face(boundary=(), incident_vertices=(7,)),)
    assert e.face_members([7]) == e.face_members([]) == []


def test_euler_and_double_cover_on_random_corpus():
    for i in range(40):
        n = 4 + (i * 3) % 20
        density = (0.5, 0.75, 1.0)[i % 3]
        g = gen_random_planar(n, density, 7000 + i)
        e = embed(g)
        assert e.n_vertices - e.n_edges + len(e.faces) == 2
        assert g.n_vertices - g.n_edges + len(e.faces) == 2


def test_pendant_edge_walked_twice_in_one_face():
    g = graph_from_edges([(1, 2), (2, 3), (3, 1), (1, 4)])  # triangle + pendant
    e = embed(g)
    assert e.n_vertices - e.n_edges + len(e.faces) == 2
    pendant_faces = [f for f in e.faces if 4 in f.incident_vertices]
    assert len(pendant_faces) == 1
    boundary = pendant_faces[0].boundary
    assert (1, 4) in boundary and (4, 1) in boundary


def _networkx_rotation(g: Graph) -> dict[int, tuple[int, ...]] | None:
    """networkx's rotation system for g (nodes and edges added sorted), or None."""
    nx = pytest.importorskip("networkx")
    nxg = nx.Graph()
    nxg.add_nodes_from(g.vertices())
    nxg.add_edges_from(g.edges())
    planar, emb = nx.check_planarity(nxg)
    if not planar:
        return None
    data = emb.get_data()
    return {v: tuple(data.get(v, ())) for v in g.vertices()}


def _assert_matches_networkx(g: Graph) -> bool:
    """Same verdict and, for connected planar g, the same rotation tuples."""
    expected = _networkx_rotation(g)
    assert is_planar(g) == (expected is not None)
    if g.n_vertices and g.is_connected():
        if expected is None:
            with pytest.raises(NonPlanarGraphError):
                embed(g)
        else:
            assert rotation(embed(g)) == expected
    return expected is not None


@settings(max_examples=400, deadline=None)
@given(small_graphs())
def test_matches_networkx_on_small_graphs(g):
    _assert_matches_networkx(g)


def test_matches_networkx_on_triangulations_up_to_1000():
    for n in (3, 4, 5, 10, 50, 200, 500, 1000):
        for seed in range(2):
            assert _assert_matches_networkx(gen_random_planar(n, 1.0, seed))


def test_matches_networkx_on_random_planar_densities():
    for density in (0.2, 0.5, 1.0):
        for n in (2, 8, 30, 100, 300):
            for seed in range(3):
                assert _assert_matches_networkx(gen_random_planar(n, density, seed))


def test_matches_networkx_on_ring_family_and_fixpoints():
    for ell in (3, 4, 6, 12, 24):
        g = gen_tightness(ell)
        assert _assert_matches_networkx(g)
        assert _assert_matches_networkx(run_phase1(g.copy(), 3 * ell + 2).graph)


def test_matches_networkx_with_extra_edges():
    rng = random.Random(4)
    non_planar = 0
    for i in range(120):
        g = gen_random_planar(rng.randint(5, 80), rng.choice((0.3, 0.6, 1.0)), 9000 + i)
        vertices = g.vertices()
        for _ in range(rng.randint(1, 5)):
            g.ensure_edge(*rng.sample(vertices, 2))
        non_planar += not _assert_matches_networkx(g)
    assert non_planar >= 20  # both verdicts are exercised


def test_long_path_and_cycle_do_not_recurse():
    n = 20_000
    rng = random.Random(43)
    for g, n_faces in ((make_path(n), 1), (make_cycle(n), 2)):
        e = embed(g)
        assert len(e.faces) == n_faces
        _assert_walk_matches_reference(e, rng)


def test_embed_leaves_no_cyclic_garbage():
    # Reference cycles would be freed only by the cyclic collector, so
    # peak memory would move with its timing.
    g = gen_random_planar(400, 1.0, 0)
    gc.collect()
    gc.disable()
    try:
        embed(g)
        assert gc.collect() == 0
    finally:
        gc.enable()
