"""Acceptance criteria, one test per criterion, at their stated scales.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS lines; each criterion is exact (zero tolerance).
"""

from __future__ import annotations

import pytest

from planarcvc.embedding import NonPlanarGraphError, embed
from planarcvc.exact import minimum_cvc, partition_bound_holds, partition_stats
from planarcvc.facematch import pendant_owners
from planarcvc.generators import gen_random_planar, gen_tightness
from planarcvc.matching import maximum_matching
from planarcvc.oracle import verify_cvc
from planarcvc.pipeline import Instance, Kernel, kernelize, lift_solution
from planarcvc.reductions import RuleId, run_phase1

from brute import brute_matching_size, check_matching, reference_detect_rule, tightness_cover
from conftest import (
    make_complete,
    make_complete_bipartite,
    make_petersen,
    make_random_graph,
)


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


@pytest.fixture(scope="module")
def corpus_with_minimums(corpus_acceptance):
    pairs = []
    for g in corpus_acceptance:
        cert = minimum_cvc(g, g.n_vertices)
        assert cert is not None, "corpus graphs are connected"
        pairs.append((g, cert))
    return pairs


def test_criterion_1_oracle_equivalence(corpus_with_minimums):
    """Kernelization never changes the decision, for every budget."""
    instances = 0
    checks = 0
    for g, cert in corpus_with_minimums:
        instances += 1
        for k in range(0, g.n_vertices + 1):
            expected = k >= len(cert)
            assert (minimum_cvc(g, k) is not None) == expected
            out = kernelize(Instance(g.copy(), k))
            if isinstance(out, Kernel):
                got = minimum_cvc(out.instance.graph, out.instance.k) is not None
            else:
                got = False
            assert got == expected, f"mismatch at k={k} on {g.edges()}"
            checks += 1
    assert instances >= 500
    report(f"criterion 1 PASS: {checks} (instance, k) decisions match on "
           f"{instances} instances")


def test_criterion_2_kernel_size_bound(corpus_with_minimums):
    """YES instances at the exact budget always pass the 11/3 gate."""
    count = 0
    for g, cert in corpus_with_minimums:
        k = len(cert)
        out = kernelize(Instance(g.copy(), k))
        assert isinstance(out, Kernel), f"gate rejected a YES instance, k={k}"
        assert 3 * out.instance.graph.n_vertices <= 11 * k
        count += 1
    report(f"criterion 2 PASS: 3|V(kernel)| <= 11k on {count} YES instances")


def test_criterion_3_tight_family_regression():
    """Ring family: exact counts, canonical cover and partition, oracle minimums."""
    for copies in range(3, 9):
        g = gen_tightness(copies)
        assert g.n_vertices == 12 * copies + 2
        assert len(pendant_owners(g)) == 3 * copies
        out = kernelize(Instance(g.copy(), 3 * copies + 2))
        assert isinstance(out, Kernel)
        phase1_steps = [s for s in out.journal.steps if s.rule is not RuleId.R8]
        merges = [s for s in out.journal.steps if s.rule is RuleId.R8]
        assert phase1_steps == []
        assert len(merges) == copies
        assert out.instance.graph.n_vertices == 11 * copies + 2
        cover = tightness_cover(g)
        assert len(cover) == 3 * copies + 2 and verify_cvc(g, cover)
        part = partition_stats(g, cover)
        assert part.sizes() == {"S1": 3 * copies, "S>=3": 2, "I1": 3 * copies, "I3": 6 * copies, "I>=4": 0}
        assert partition_bound_holds(g, cover, len(merges))
        lhs = 3 * (len(part.s_ge3) + len(part.i_ge4) + len(merges))
        assert lhs == len(cover) + 4  # equality with (|S| + 4) / 3
    for copies in (3, 4):
        cert = minimum_cvc(gen_tightness(copies), 3 * copies + 2)
        assert cert is not None and len(cert) == 3 * copies + 2
    report("criterion 3 PASS: ring family exact for l in 3..8, oracle for l in 3..4")


def test_criterion_4_matching_bound_on_planar_graphs():
    """Max matching >= ceil(n3 / 3) on 200+ planar graphs up to n=60."""
    count = 0
    for i in range(200):
        n = 4 + (i * 13) % 57
        density = (0.35, 0.55, 0.75, 1.0)[i % 4]
        g = gen_random_planar(n, density, 52000 + i)
        m = maximum_matching(g)
        check_matching(m, g)
        n3 = sum(1 for v in g.vertices() if g.degree(v) >= 3)
        assert 3 * m.size >= n3, f"seed {52000 + i}"
        count += 1
    report(f"criterion 4 PASS: matching bound held on {count} planar graphs")


def test_criterion_5_lifting_soundness(corpus_with_minimums):
    """Lifted kernel optima are covers of the input within the budget."""
    count = 0
    for g, cert in corpus_with_minimums:
        k = len(cert)
        out = kernelize(Instance(g.copy(), k))
        assert isinstance(out, Kernel)
        kernel_cert = minimum_cvc(out.instance.graph, out.instance.k)
        assert kernel_cert is not None
        lifted = lift_solution(out.journal, set(kernel_cert))
        assert verify_cvc(g, lifted)
        assert len(lifted) <= k
        count += 1
    report(f"criterion 5 PASS: {count} lifted solutions verified within budget")


def test_criterion_6_fixpoint_structure(corpus_acceptance):
    """Phase 1 leaves no 2-vertices and at most one pendant per vertex."""
    count = 0
    for g in corpus_acceptance:
        result = run_phase1(g.copy(), g.n_vertices)
        assert not result.early_no
        assert reference_detect_rule(result.graph) is None
        count += 1
    report(f"criterion 6 PASS: fixpoint structure on {count} Phase 1 outputs")


def test_criterion_7_matching_exactness():
    """Blossom equals the exhaustive matcher on 200+ graphs up to n=12."""
    graphs = [
        make_petersen(),
        make_complete(8),
        make_complete_bipartite(4, 5),
        make_complete_bipartite(2, 7),
    ]
    for i in range(220):
        n = 2 + i % 11
        p = (0.15, 0.3, 0.5, 0.75, 0.95)[i % 5]
        graphs.append(make_random_graph(n, p, 91000 + i))
    for g in graphs:
        got = maximum_matching(g)
        check_matching(got, g)
        assert got.size == brute_matching_size(g)
    report(f"criterion 7 PASS: blossom exact on {len(graphs)} graphs")


def test_criterion_8_embedding_soundness(corpus_acceptance):
    """Euler formula and face double cover everywhere; K5/K33 rejected."""
    count = 0
    for g in corpus_acceptance[:250]:
        e = embed(g)
        assert g.n_vertices - g.n_edges + len(e.faces) == 2
        assert sum(len(f.boundary) for f in e.faces) == 2 * g.n_edges
        count += 1
    for copies in range(3, 9):
        g = gen_tightness(copies)
        e = embed(g)
        assert g.n_vertices - g.n_edges + len(e.faces) == 2
        assert sum(len(f.boundary) for f in e.faces) == 2 * g.n_edges
        count += 1
    with pytest.raises(NonPlanarGraphError):
        embed(make_complete(5))
    with pytest.raises(NonPlanarGraphError):
        embed(make_complete_bipartite(3, 3))
    report(f"criterion 8 PASS: {count} embeddings sound, K5 and K33 rejected")
