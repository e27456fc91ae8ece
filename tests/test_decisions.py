"""Decisions near the tight family and under relabelling.

Near tightness: seeded mutants of the ring family (l = 3), each made by
one to three random planar moves (a pendant, an edge subdivision, a
chord inside a face, the deletion of a non-bridge edge), are kernelized
at their exact optimum and one below it. At OPT the kernel must pass
the 11/3 gate, at OPT - 1 the decision must be NO. Mutants whose optimum
exceeds 14 are skipped and counted. Below the optimum kernelize may
still return a kernel (neither the budget nor the gate need fire), so
there the kernel must have no cover within its budget.

Relabelling: random planar graphs, at the size of their DFS-tree cover,
are renumbered through the text format. Kernels may differ between
labellings (the smallest-site tie-break reads ids), so only the decision
and the gate are compared, not the kernels.
"""

from __future__ import annotations

import random
from itertools import combinations

from planarcvc.embedding import embed
from planarcvc.exact import minimum_cvc
from planarcvc.generators import gen_random_planar, gen_tightness
from planarcvc.graph import Graph
from planarcvc.pipeline import Instance, Kernel, No, kernelize

from brute import dfs_tree_cover
from conftest import relabelled


def _move(h: Graph, rng: random.Random) -> None:
    """One random move that keeps h connected and planar."""
    move = rng.randrange(4)
    if move == 0:  # a pendant
        h.add_edge(rng.choice(h.vertices()), h.add_vertex())
    elif move == 1:  # subdivide an edge
        u, w = rng.choice(h.edges())
        h.remove_edge(u, w)
        x = h.add_vertex()
        h.add_edge(u, x)
        h.add_edge(x, w)
    elif move == 2:  # a chord between two vertices of one face
        face = rng.choice(embed(h).faces)
        pairs = [p for p in combinations(face.incident_vertices, 2) if not h.has_edge(*p)]
        if pairs:
            h.add_edge(*rng.choice(pairs))
    else:  # delete an edge that is not a bridge
        u, w = rng.choice(h.edges())
        h.remove_edge(u, w)
        if h.split_side(u, w, lambda _: True) is not None:
            h.add_edge(u, w)


def test_ring_mutants_pass_the_gate_at_their_optimum():
    rng = random.Random(3)
    ring = gen_tightness(3)
    checked = skipped = 0
    while checked < 600:
        h = ring.copy()
        for _ in range(rng.randint(1, 3)):
            _move(h, rng)
        cert = minimum_cvc(h, 14)
        if cert is None:
            skipped += 1
            continue
        opt = len(cert)
        out = kernelize(Instance(h.copy(), opt))
        assert isinstance(out, Kernel), (h.edges(), opt)
        assert 3 * out.instance.graph.n_vertices <= 11 * out.instance.k
        below = kernelize(Instance(h.copy(), opt - 1))
        assert isinstance(below, No) or minimum_cvc(below.instance.graph, below.instance.k) is None
        checked += 1
    assert skipped < checked


def test_relabelling_keeps_the_decision_and_the_gate():
    rng = random.Random(120)
    for seed in range(20):
        g = gen_random_planar(120, (0.35, 0.6, 0.8)[seed % 3], seed)
        k = len(dfs_tree_cover(g))
        expected = isinstance(kernelize(Instance(g.copy(), k)), Kernel)
        for _ in range(3):
            out = kernelize(Instance(relabelled(g, rng), k))
            assert isinstance(out, Kernel) == expected, (seed, k)
            if isinstance(out, Kernel):
                assert 3 * out.instance.graph.n_vertices <= 11 * out.instance.k, seed
