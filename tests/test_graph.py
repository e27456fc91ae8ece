"""graph-core: mutation, contraction, connectivity queries."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planarcvc.graph import Graph

from brute import check_graph, graph_from_edges, reference_contract_edge, reference_is_cut_vertex
from conftest import make_cycle, make_path, make_star
from strategies import small_graphs


def test_contract_triangle_collapses_parallels():
    g = graph_from_edges([(1, 2), (2, 3), (1, 3)])  # u=1, v=3, w=2
    c = g.contract_edge(1, 2)
    assert g.vertices() == [3, c]
    assert g.edges() == [(3, c)]


def test_contract_path_drops_loop():
    g = make_path(3)  # u=1 - w=2 - x=3
    c = g.contract_edge(1, 2)
    assert g.edges() == [(3, c)]


def test_contract_c4_gives_triangle():
    # Hand-enumerated: contracting ab in a-b-c-d-a leaves {c', c, d} with
    # the three edges c'c, c'd, cd.
    g = make_cycle(4)
    c = g.contract_edge(1, 2)
    assert g.n_vertices == 3
    assert g.edges() == [(3, 4), (3, c), (4, c)]


def test_contract_requires_edge():
    g = make_path(3)
    with pytest.raises(ValueError):
        g.contract_edge(1, 3)


def test_contract_counts_random():
    rng = random.Random(11)
    for trial in range(50):
        n = rng.randint(2, 12)
        g = Graph()
        verts = [g.add_vertex() for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    g.add_edge(verts[i], verts[j])
        edges = g.edges()
        if not edges:
            continue
        u, w = edges[rng.randrange(len(edges))]
        before_v, before_e = g.n_vertices, g.n_edges
        g.contract_edge(u, w)
        check_graph(g)
        assert g.n_vertices == before_v - 1
        assert g.n_edges <= before_e


def test_contract_matches_reference_on_a_growing_hub():
    # Phase 1 contracts into one growing hub on sparse inputs: each graph
    # has a hub of 30+ neighbors and random chords, so most contractions
    # at the hub merge two neighborhoods with common neighbors.
    rng = random.Random(17)
    biggest_hub = common = 0
    for trial in range(20):
        n = rng.randint(40, 60)
        g = Graph()
        for _ in range(n):
            g.add_vertex()
        for x in range(2, rng.randint(32, n) + 1):
            g.add_edge(1, x)
        for u, w in combinations(range(2, n + 1), 2):
            if rng.random() < 0.08:
                g.add_edge(u, w)
        ref = g.copy()
        hub = 1
        while g.n_edges:
            edges = g.edges()
            at_hub = [e for e in edges if hub in e]
            u, w = rng.choice(at_hub if at_hub and rng.random() < 0.8 else edges)
            biggest_hub = max(biggest_hub, g.degree(hub))
            common += bool(g.neighbor_set(u) & g.neighbor_set(w))
            c = g.contract_edge(u, w)
            assert c == reference_contract_edge(ref, u, w)
            assert dict(g.adjacency()) == dict(ref.adjacency())
            assert g.n_edges == ref.n_edges
            assert len({id(nbrs) for nbrs in g.adjacency().values()}) == g.n_vertices
            check_graph(g)
            if hub in (u, w):
                hub = c
        assert g.add_vertex() == ref.add_vertex()
    assert biggest_hub >= 30 and common > 100


def test_is_connected():
    assert graph_from_edges([(1, 2)]).is_connected()
    assert not graph_from_edges([(1, 2), (3, 4)]).is_connected()
    assert Graph().is_connected()
    lone = Graph()
    lone.add_vertex()
    assert lone.is_connected()


def test_cut_vertices_path_and_triangle():
    path = make_path(3)
    assert reference_is_cut_vertex(path, 2)
    assert not reference_is_cut_vertex(path, 1)
    tri = make_cycle(3)
    assert all(not reference_is_cut_vertex(tri, v) for v in tri.vertices())


def test_cut_vertex_rejects_disconnected():
    g = graph_from_edges([(1, 2), (3, 4)])
    with pytest.raises(ValueError):
        reference_is_cut_vertex(g, 1)


@pytest.mark.parametrize("v", [1, 2, 4, 6])
def test_cut_vertex_rejects_disconnected_at_every_kind_of_vertex(v):
    # 2 splits its own component; 1 and 4 are leaves; 6 is isolated.
    g = graph_from_edges([(1, 2), (2, 3), (4, 5)], vertices=[6])
    with pytest.raises(ValueError):
        reference_is_cut_vertex(g, v)


def test_cut_vertex_single_vertex_is_not_a_cut():
    g = Graph()
    v = g.add_vertex()
    assert not reference_is_cut_vertex(g, v)


@settings(max_examples=200, deadline=None)
@given(small_graphs(), st.data())
def test_components_match_networkx(g, data):
    # Random subsets, the empty one included, and the whole graph (None).
    nx = pytest.importorskip("networkx")
    subset = data.draw(st.sets(st.sampled_from(g.vertices())) if g.n_vertices else st.just(set()))
    for sub in (subset, None):
        h = nx.Graph()
        h.add_nodes_from(g.vertices() if sub is None else sub)
        h.add_edges_from((u, w) for u, w in g.edges() if u in h and w in h)
        expected = sorted({tuple(sorted(nx.node_connected_component(h, v))) for v in h})
        assert [tuple(sorted(c)) for c in g.components(sub)] == expected
        assert g.is_connected(sub) == (h.number_of_nodes() <= 1 or nx.is_connected(h))


@settings(max_examples=200, deadline=None)
@given(small_graphs(), st.data())
def test_split_side_matches_components(g, data):
    # Disconnected graphs and any keep-subset: None iff a and b share a
    # component of the subgraph that a, b and keep induce, otherwise one
    # of their two components.
    assume(g.n_vertices >= 2)
    a, b = data.draw(st.permutations(g.vertices()))[:2]
    keep = data.draw(st.sets(st.sampled_from(g.vertices())))
    comps = g.components(keep | {a, b})
    comp_a = next(c for c in comps if a in c)
    comp_b = next(c for c in comps if b in c)
    side = g.split_side(a, b, keep.__contains__)
    if comp_a is comp_b:
        assert side is None
    else:
        assert side in (comp_a, comp_b)


@settings(max_examples=200, deadline=None)
@given(small_graphs(), st.data())
def test_split_side_answers_the_cut_question(g, data):
    # R3's form on connected graphs: v is a cut vertex iff two of its
    # neighbors are apart in G - v (for a 2-vertex, its only two).
    assume(g.n_vertices >= 1)
    root = data.draw(st.sampled_from(g.vertices()))
    comp = next(c for c in g.components() if root in c)
    for x in g.vertices():
        if x not in comp:
            g.remove_vertex(x)
    for v in g.vertices():
        apart = any(
            g.split_side(u, w, v.__ne__) is not None
            for u, w in combinations(g.neighbors(v), 2)
        )
        assert apart == reference_is_cut_vertex(g, v)


def test_pendant_neighbors():
    star = make_star(3)
    assert star.pendant_neighbors(1) == {2, 3, 4}
    tri = make_cycle(3)
    assert tri.pendant_neighbors(1) == set()


def test_vertex_ids_never_reused():
    g = Graph()
    a = g.add_vertex()
    b = g.add_vertex()
    g.remove_vertex(b)
    c = g.add_vertex()
    assert c != b and c > b > a


def test_copy_preserves_allocation_state():
    g = graph_from_edges([(1, 2), (2, 3)])
    h = g.copy()
    assert g.add_vertex() == h.add_vertex()


def test_simplicity_invariants_random_ops():
    rng = random.Random(5)
    g = Graph()
    verts = [g.add_vertex() for _ in range(8)]
    for _ in range(200):
        op = rng.random()
        live = g.vertices()
        if op < 0.45 and len(live) >= 2:
            u, w = rng.sample(live, 2)
            if not g.has_edge(u, w):
                g.add_edge(u, w)
        elif op < 0.6 and g.n_edges:
            edges = g.edges()
            g.remove_edge(*edges[rng.randrange(len(edges))])
        elif op < 0.75 and g.n_edges:
            edges = g.edges()
            g.contract_edge(*edges[rng.randrange(len(edges))])
        elif op < 0.9:
            g.add_vertex()
        elif live:
            g.remove_vertex(rng.choice(live))
        check_graph(g)


def test_cut_vertex_matches_component_count():
    rng = random.Random(23)
    for trial in range(30):
        n = rng.randint(3, 10)
        g = make_path(n)
        for _ in range(rng.randint(0, n)):
            u, w = rng.sample(g.vertices(), 2)
            if not g.has_edge(u, w):
                g.add_edge(u, w)
        for v in g.vertices():
            remaining = {x for x in g.vertices() if x != v}
            comps = len(g.components(remaining))
            assert reference_is_cut_vertex(g, v) == (comps > 1)


def test_add_named_vertex_rejects_non_positive_ids():
    with pytest.raises(ValueError, match="positive"):
        Graph().add_named_vertex(0)


@pytest.mark.parametrize(
    "mutate, error, message",
    [
        pytest.param(lambda g: g.add_named_vertex(5), ValueError, "vertex 5 already present", id="named-present"),
        pytest.param(lambda g: g.add_edge(2, 2), ValueError, "self-loop at 2", id="edge-self-loop"),
        pytest.param(lambda g: g.add_edge(1, 9), KeyError, "unknown vertex", id="edge-unknown-end"),
        pytest.param(lambda g: g.add_edge(9, 1), KeyError, "unknown vertex", id="edge-unknown-start"),
        pytest.param(lambda g: g.add_edge(5, 2), ValueError, r"edge \(5,2\) already present", id="edge-present"),
        pytest.param(lambda g: g.remove_edge(1, 5), KeyError, r"edge \(1,5\) not present", id="remove-absent-edge"),
        pytest.param(lambda g: g.remove_edge(9, 1), KeyError, r"edge \(9,1\) not present", id="remove-unknown-edge"),
        pytest.param(lambda g: g.remove_vertex(9), KeyError, "vertex 9 not present", id="remove-absent-vertex"),
    ],
)
def test_rejected_mutation_leaves_graph_unchanged(mutate, error, message):
    edges = [(1, 2), (2, 5)]
    g, ref = graph_from_edges(edges), graph_from_edges(edges)
    with pytest.raises(error, match=message):
        mutate(g)
    check_graph(g)
    assert g.adjacency() == ref.adjacency()
    assert g.n_edges == ref.n_edges
    assert g.add_vertex() == ref.add_vertex() == 6
