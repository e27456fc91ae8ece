"""generators: ring family, exception graph, random planar corpus."""

from __future__ import annotations

import pytest

from planarcvc.embedding import embed
from planarcvc.exact import minimum_cvc
from planarcvc.generators import gen_exception_graph, gen_random_planar, gen_tightness
from planarcvc.oracle import verify_cvc
from planarcvc.pipeline import Instance, Kernel, kernelize

from brute import reference_is_cut_vertex, tightness_cover


def test_tightness_vertex_counts():
    assert gen_tightness(3).n_vertices == 38
    assert gen_tightness(4).n_vertices == 50
    assert gen_tightness(7).n_vertices == 86


def test_tightness_rejects_small_ell():
    for bad in (0, 1, 2):
        with pytest.raises(ValueError):
            gen_tightness(bad)


def test_tightness_minimum_cover_l3():
    cert = minimum_cvc(gen_tightness(3), 11)
    assert cert is not None and len(cert) == 11


def test_tightness_canonical_cover_valid():
    for copies in (3, 5):
        g = gen_tightness(copies)
        cover = tightness_cover(g)
        assert len(cover) == 3 * copies + 2
        assert verify_cvc(g, cover)


def test_tightness_kernel_size():
    for copies in (3, 4):
        out = kernelize(Instance(gen_tightness(copies), 3 * copies + 2))
        assert isinstance(out, Kernel)
        assert out.instance.graph.n_vertices == 11 * copies + 2


def test_exception_graph_shape():
    g = gen_exception_graph()
    assert g.n_vertices == 6 and g.n_edges == 9
    v, q = 1, 2
    assert g.pendant_neighbors(v) == {q}
    assert reference_is_cut_vertex(g, v)
    cert = minimum_cvc(g, 6)
    assert len(cert) == 3


def test_random_planar_single_vertex():
    g = gen_random_planar(1, 0.5, 7)
    assert g.n_vertices == 1 and g.n_edges == 0


def test_random_planar_triangulation_edge_count():
    for n in (3, 5, 10, 25):
        g = gen_random_planar(n, 1.0, 42)
        assert g.n_edges == 3 * n - 6


def test_random_planar_reproducible():
    a = gen_random_planar(16, 0.6, 42)
    b = gen_random_planar(16, 0.6, 42)
    assert a.edges() == b.edges()
    c = gen_random_planar(16, 0.6, 43)
    assert a.edges() != c.edges()


def test_random_planar_connected_and_planar():
    for i in range(30):
        n = 2 + (i * 7) % 30
        g = gen_random_planar(n, (0.4, 0.7, 1.0)[i % 3], 1300 + i)
        assert g.is_connected()
        e = embed(g)
        assert g.n_vertices - g.n_edges + len(e.faces) == 2


def test_random_planar_embeds_with_euler():
    g = gen_random_planar(16, 0.6, 42)
    e = embed(g)
    assert g.n_vertices - g.n_edges + len(e.faces) == 2
