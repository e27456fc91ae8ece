"""face-matching: aux graph, per-face rematch, the R8 loop."""

from __future__ import annotations

from pathlib import Path

import pytest

from planarcvc.embedding import Embedding, embed, is_planar
from planarcvc.exact import minimum_cvc
from planarcvc.facematch import (
    apply_identification,
    build_aux_graph,
    pendant_owners,
    planarize_matching,
    run_phase2,
)
from planarcvc.generators import gen_exception_graph, gen_tightness
from planarcvc.graph import Graph
from planarcvc.matching import Matching, maximum_matching
from planarcvc.reductions import RuleId, run_phase1

from brute import graph_from_edges
from conftest import make_cycle, run_python, small_planar_corpus


def test_aux_graph_without_pendants_is_empty():
    g = make_cycle(5)
    aux = build_aux_graph(g, embed(g))
    assert aux.vertices == () and aux.edges == frozenset()


def test_aux_graph_c4_opposite_pendants():
    # Not a Phase 1 fixpoint, but the construction still works: corners 1
    # and 3 share both square faces, giving exactly one aux edge.
    g = make_cycle(4)
    for corner in (1, 3):
        p = g.add_vertex()
        g.add_edge(corner, p)
    aux = build_aux_graph(g, embed(g))
    assert aux.vertices == (1, 3)
    assert aux.edges == frozenset({(1, 3)})


def test_aux_graph_tightness_edges_touch_the_ring():
    g = gen_tightness(3)
    aux = build_aux_graph(g, embed(g))
    ring = {w for w in g.vertices() if g.degree(w) == 7}  # shared ring vertices
    assert len(ring) == 3
    assert aux.edges, "the ring family must allow identifications"
    for u, w in aux.edges:
        assert u in ring or w in ring


def test_isolated_edge_has_no_owners():
    g = graph_from_edges([(1, 2)])
    assert pendant_owners(g) == []


def test_planarize_empty():
    g = make_cycle(4)
    out = planarize_matching(Matching(), embed(g))
    assert out.pairs == ()


def test_planarize_uncrosses_within_a_face():
    # C8 with pendants on alternate corners: all four owners share the two
    # cycle faces, and a deliberately crossing matching gets re-paired
    # consecutively along the face order without changing its size.
    g = make_cycle(8)
    for corner in (1, 3, 5, 7):
        p = g.add_vertex()
        g.add_edge(corner, p)
    e = embed(g)
    m0 = Matching(edges=frozenset({(1, 5), (3, 7)}))
    out = planarize_matching(m0, e)
    assert len(out.pairs) == 2
    face_ids = {fid for _, _, fid in out.pairs}
    assert len(face_ids) == 1
    face = e.faces[face_ids.pop()]
    order = [v for v in face.incident_vertices if v in {1, 3, 5, 7}]
    expected = {frozenset(order[0:2]), frozenset(order[2:4])}
    assert {frozenset((u, w)) for u, w, _ in out.pairs} == expected


def _poles_matched_on_octahedron():
    # Poles 1 and 9 around the equator 2-3-4-5: every face is a triangle
    # through one pole, so the poles share no face.
    octahedron = graph_from_edges([(2, 3), (3, 4), (4, 5), (5, 2)] + [(p, q) for p in (1, 9) for q in (2, 3, 4, 5)])
    planarize_matching(Matching(edges=frozenset({(1, 9)})), embed(octahedron))


def _open_face_walk():
    # A star at 1 whose half-edge 1 -> 4 points into the rotation
    # 1 -> 2, 1 -> 3 without lying on it: the walk from 4 -> 1 goes on
    # along 1 -> 2, which an earlier face has taken, and never returns.
    Embedding([1, 2, 3, 4], ends=[1, 0, 2, 0, 3, 0], cw=[2, 1, 0, 3, 0, 5], leftmost=[0, 1, 3, 5]).faces


_BROKEN_INPUTS = [
    (_poles_matched_on_octahedron, "matched pair 1, 9 without a common face"),
    (_open_face_walk, "face walk did not close on its starting edge"),
]


@pytest.mark.parametrize("broken, message", _BROKEN_INPUTS, ids=["no-common-face", "open-walk"])
def test_broken_input_raises(broken, message):
    with pytest.raises(AssertionError, match=message):
        broken()


def test_broken_input_raises_under_python_O():
    # Explicit raises, not asserts: under `python -O` a matched pair with
    # no common face must not be dropped, nor an open face walk accepted.
    calls = "".join(
        f"try:\n    test_facematch.{broken.__name__}()\nexcept AssertionError as exc:\n    print(exc)\n"
        for broken, _ in _BROKEN_INPUTS
    )
    proc = run_python(["-O", "-c", "import test_facematch\n" + calls],
                      cwd=Path(__file__).parent, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [message for _, message in _BROKEN_INPUTS]


def test_planarize_preserves_count_on_random_fixpoints():
    for g in small_planar_corpus(25, max_n=14, seed=777):
        fixed = run_phase1(g, g.n_vertices).graph
        e = embed(fixed)
        aux = build_aux_graph(fixed, e)
        if not aux.edges:
            continue
        m0 = maximum_matching(aux.to_graph())
        out = planarize_matching(m0, e)
        assert len(out.pairs) == m0.size


def test_identification_merges_pendants():
    g = make_cycle(4)
    pend = {}
    for corner in (1, 3):
        p = g.add_vertex()
        g.add_edge(corner, p)
        pend[corner] = p
    step = apply_identification(g, 1, 3, 0)
    assert step.rule is RuleId.R8
    assert set(step.removed) == set(pend.values())
    c = step.created[0]
    assert g.neighbors(c) == [1, 3]
    assert g.degree(c) == 2


def test_phase2_tightness_counts():
    for copies in (3, 4):
        g = gen_tightness(copies)
        steps = run_phase2(g, pendant_owners(g))
        assert len(steps) == copies
        assert g.n_vertices == 11 * copies + 2


def test_phase2_exception_graph_unchanged():
    g = gen_exception_graph()
    before = g.edges()
    assert run_phase2(g, pendant_owners(g)) == []
    assert g.edges() == before


def test_phase2_empty_graph_has_no_steps():
    assert run_phase2(Graph(), []) == []


def test_phase2_single_owner_unchanged():
    g = make_cycle(4)
    p = g.add_vertex()
    g.add_edge(1, p)
    assert run_phase2(g, pendant_owners(g)) == []


def test_phase2_steps_consume_valid_pendant_pairs(corpus_small):
    for g in corpus_small[:40]:
        fixed = run_phase1(g.copy(), g.n_vertices).graph
        before = fixed.copy()
        steps = run_phase2(fixed, pendant_owners(fixed))
        for step in steps:
            u, v = step.site["u"], step.site["v"]
            assert not before.has_edge(u, v)
            assert step.site["xu"] != step.site["xv"]
        assert is_planar(fixed)


def test_phase2_preserves_decision(corpus_small):
    for g in corpus_small[:25]:
        fixed = run_phase1(g.copy(), g.n_vertices).graph
        before = fixed.copy()
        run_phase2(fixed, pendant_owners(fixed))
        for k in range(0, before.n_vertices + 1):
            assert (minimum_cvc(before, k) is None) == (minimum_cvc(fixed, k) is None)
