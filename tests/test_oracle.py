"""oracle and exact: verifier semantics and branch-and-bound exactness."""

from __future__ import annotations

import pytest

from planarcvc.exact import TooLargeError, minimum_cvc
from planarcvc.generators import gen_exception_graph, gen_random_planar, gen_tightness
from planarcvc.graph import Graph
from planarcvc.oracle import verify_cvc

from brute import brute_minimum_cvc, graph_from_edges
from conftest import make_cycle, make_path, make_random_graph


def test_verify_triangle():
    assert verify_cvc(make_cycle(3), {1, 2})


def test_verify_p4_disconnected_cover():
    # {b, d} covers every edge of a-b-c-d but induces no connected subgraph.
    assert not verify_cvc(make_path(4), {2, 4})


def test_verify_exception_graph():
    assert verify_cvc(gen_exception_graph(), {1, 5, 6})  # v, x, y


def test_verify_empty_set():
    assert verify_cvc(Graph(), set())
    assert not verify_cvc(make_path(2), set())


def test_verify_rejects_unknown_ids():
    with pytest.raises(KeyError):
        verify_cvc(make_path(2), {99})


def test_minimum_single_edge():
    cert = minimum_cvc(make_path(2), 2)
    assert cert is not None and len(cert) == 1


def test_minimum_exception_graph():
    cert = minimum_cvc(gen_exception_graph(), 6)
    assert cert is not None and len(cert) == 3
    assert verify_cvc(gen_exception_graph(), cert)


def test_minimum_tightness_l3():
    g = gen_tightness(3)
    cert = minimum_cvc(g, 11)
    assert cert is not None and len(cert) == 11


def test_minimum_respects_limit():
    assert minimum_cvc(make_cycle(4), 2) is None
    cert = minimum_cvc(make_cycle(4), 3)
    assert cert is not None and len(cert) == 3


def test_minimum_multi_component_none():
    g = graph_from_edges([(1, 2), (3, 4)])
    assert minimum_cvc(g, 4) is None


def test_decide_triangle():
    assert minimum_cvc(make_cycle(3), 1) is None
    assert minimum_cvc(make_cycle(3), 2) is not None


def test_decide_tightness_l3():
    g = gen_tightness(3)
    assert minimum_cvc(g, 10) is None
    assert minimum_cvc(g, 11) is not None


def test_decide_edgeless():
    g = Graph()
    g.add_vertex()
    assert minimum_cvc(g, 0) is not None
    assert minimum_cvc(Graph(), 0) is not None


def test_decide_negative_budget():
    assert minimum_cvc(make_path(2), -1) is None


def test_minimum_always_verifies(corpus_small):
    for g in corpus_small[:60]:
        cert = minimum_cvc(g, g.n_vertices)
        assert cert is not None
        assert verify_cvc(g, cert)


def test_agreement_with_enumeration():
    # Exhaustive subset enumeration as the independent referee.
    for i in range(40):
        n = 3 + i % 9
        g = gen_random_planar(n, (0.5, 0.8, 1.0)[i % 3], 6200 + i)
        expected = brute_minimum_cvc(g)
        cert = minimum_cvc(g, g.n_vertices)
        assert cert is not None and len(cert) == expected
    for i in range(25):
        g = make_random_graph(3 + i % 8, 0.5, 881 + i)
        expected = brute_minimum_cvc(g)
        cert = minimum_cvc(g, g.n_vertices)
        if expected is None:
            assert cert is None or len(cert) == 0
        else:
            assert cert is not None and len(cert) == expected


def test_decide_monotone(corpus_small):
    for g in corpus_small[:25]:
        previous = False
        for k in range(g.n_vertices + 1):
            current = minimum_cvc(g, k) is not None
            assert current or not previous  # once true, stays true
            previous = current


def test_too_large_guard():
    big = gen_random_planar(61, 1.0, 3)
    with pytest.raises(TooLargeError):
        minimum_cvc(big, 5)
    deep = gen_random_planar(45, 1.0, 4)
    with pytest.raises(TooLargeError):
        minimum_cvc(deep, 20)
