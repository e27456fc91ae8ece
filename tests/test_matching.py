"""matching: blossom correctness against the exhaustive matcher.

The group matcher that Phase 2 calls on each face's owners must give
the matching that maximum_matching gives on the co-faciality graph
(build_aux_graph(...).to_graph(), the union of the faces' cliques),
edge for edge: the R8 pairs, and so the journals, come from it.
"""

from __future__ import annotations

import random
from itertools import combinations

from hypothesis import given, settings

from planarcvc.embedding import embed
from planarcvc.facematch import build_aux_graph, pendant_owners
from planarcvc.generators import gen_random_planar, gen_tightness
from planarcvc.graph import Graph
from planarcvc.matching import match_groups, maximum_matching
from planarcvc.reductions import run_phase1

from brute import (
    brute_matching_size,
    check_matching,
    graph_from_edges,
    pendant_wheel,
    reference_maximum_matching,
)
from conftest import (
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_path,
    make_petersen,
    make_random_graph,
)
from strategies import small_graphs


def test_path4():
    assert maximum_matching(make_path(4)).size == 2


def test_triangle():
    assert maximum_matching(make_cycle(3)).size == 1


def test_petersen():
    g = make_petersen()
    assert brute_matching_size(g) == 5  # the frozen oracle value
    m = maximum_matching(g)
    check_matching(m, g)
    assert m.size == 5


def test_odd_cycles_force_blossoms():
    for n in (3, 5, 7, 9, 11):
        assert maximum_matching(make_cycle(n)).size == n // 2


def test_specials_match_bruteforce():
    for g in (
        make_complete(6),
        make_complete(7),
        make_complete_bipartite(3, 5),
        make_petersen(),
    ):
        m = maximum_matching(g)
        check_matching(m, g)
        assert m.size == brute_matching_size(g)


def test_random_graphs_match_bruteforce():
    for i in range(150):
        n = 2 + i % 11
        p = (0.15, 0.3, 0.5, 0.8)[i % 4]
        g = make_random_graph(n, p, 300 + i)
        m = maximum_matching(g)
        check_matching(m, g)
        assert m.size == brute_matching_size(g), f"graph seed {300 + i}"


def matching_bound_holds(g) -> bool:
    """The planar matching bound: a maximum matching has >= n3 / 3 edges,
    n3 the number of vertices of degree at least 3."""
    return 3 * maximum_matching(g).size >= sum(1 for v in g.vertices() if g.degree(v) >= 3)


def test_matching_bound_vacuous_on_paths():
    assert matching_bound_holds(make_path(6))


def test_matching_bound_on_k4():
    assert matching_bound_holds(make_complete(4))


def test_matching_bound_min_degree_three_stronger_bound():
    # Full triangulations have minimum degree 3, where the planar matching
    # bound sharpens to (n + 2) / 3.
    for i in range(25):
        n = 4 + (i * 2) % 30
        g = gen_random_planar(n, 1.0, 500 + i)
        assert min(g.degree(v) for v in g.vertices()) >= 3
        m = maximum_matching(g)
        assert 3 * m.size >= n + 2


def test_matching_bound_on_planar_corpus():
    for i in range(60):
        n = 4 + (i * 5) % 40
        g = gen_random_planar(n, (0.5, 0.8, 1.0)[i % 3], 9100 + i)
        assert matching_bound_holds(g)


@settings(max_examples=400, deadline=None)
@given(small_graphs())
def test_matching_equals_reference(g):
    assert maximum_matching(g).edges == reference_maximum_matching(g).edges


def test_matching_equals_reference_on_larger_graphs():
    for i in range(60):
        g = make_random_graph(20 + i, (0.05, 0.1, 0.3)[i % 3], 7700 + i)
        assert maximum_matching(g).edges == reference_maximum_matching(g).edges, i


def test_matching_equals_reference_on_ring_aux_graphs():
    # The R8 pairs come from this matching, so the journals depend on it.
    for l in (3, 8, 20):
        phase1 = run_phase1(gen_tightness(l), 10**6)
        aux = build_aux_graph(phase1.graph, embed(phase1.graph)).to_graph()
        m = maximum_matching(aux)
        assert m.size > 0
        assert m.edges == reference_maximum_matching(aux).edges


def _face_group_and_clique_matchings(g: Graph):
    """match_groups on the faces' owners, and maximum_matching on their cliques."""
    e = embed(g)
    groups = [sorted(members) for _, members in e.face_members(pendant_owners(g))]
    return match_groups(groups), maximum_matching(build_aux_graph(g, e).to_graph())


def test_group_matcher_equals_clique_graph_matcher_on_clique_unions():
    # Non-planar unions included; the clique graph is also matched by the
    # matcher as it was before groups, which shares no greedy step.
    rng = random.Random(2026)
    matched = 0
    for i in range(1500):
        n = rng.randint(2, 40)
        groups = [
            sorted(rng.sample(range(1, n + 1), rng.randint(2, min(n, 8))))
            for _ in range(rng.randint(1, n))
        ]
        cliques = graph_from_edges(sorted({pair for group in groups for pair in combinations(group, 2)}))
        m = match_groups(groups)
        assert m.edges == maximum_matching(cliques).edges == reference_maximum_matching(cliques).edges, i
        matched += m.size > 0
    assert matched == 1500


def test_group_matcher_equals_clique_graph_matcher_on_phase1_fixpoints():
    # Pendants hung on a third of the vertices leave owners at the fixpoint.
    rng = random.Random(7)
    matched = 0
    for i in range(120):
        n = (20, 40, 80)[i % 3]
        g = gen_random_planar(n, (0.35, 0.5, 0.8)[i // 3 % 3], 8800 + i)
        if i % 2:
            for v in rng.sample(g.vertices(), n // 3):
                g.add_edge(v, g.add_vertex())
        fixpoint = run_phase1(g, 10**6).graph
        if fixpoint.n_vertices:
            group, clique = _face_group_and_clique_matchings(fixpoint)
            assert group.edges == clique.edges, i
            matched += group.size > 0
    assert matched >= 5


def test_group_matcher_equals_clique_graph_matcher_on_ring_family():
    for l in range(3, 101):
        group, clique = _face_group_and_clique_matchings(gen_tightness(l))
        assert group.size == l
        assert group.edges == clique.edges, l


def test_group_matcher_equals_clique_graph_matcher_on_wheels():
    # One face holds all m owners; odd m leaves one root to the blossom search.
    for m in (2, 3, 4, 5, 7, 50, 101, 200, 401, 800):
        group, clique = _face_group_and_clique_matchings(pendant_wheel(m))
        assert group.size == m // 2
        assert group.edges == clique.edges, m
