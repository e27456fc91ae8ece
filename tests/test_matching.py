"""matching: blossom correctness against the exhaustive matcher."""

from __future__ import annotations

from hypothesis import given, settings

from planarcvc.embedding import embed
from planarcvc.facematch import build_aux_graph
from planarcvc.generators import gen_random_planar, gen_tightness
from planarcvc.matching import maximum_matching
from planarcvc.reductions import run_phase1

from brute import brute_matching_size, check_matching, reference_maximum_matching
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
