"""pipeline: kernelize, the size gate, partitions, lifting."""

from __future__ import annotations

import functools
import random

import pytest

from planarcvc import embedding
from planarcvc.embedding import is_planar
from planarcvc.facematch import pendant_owners
from planarcvc.generators import (
    gen_exception_graph,
    gen_random_planar,
    gen_tightness,
)
from planarcvc.graph import Graph
from planarcvc.oracle import minimum_cvc, verify_cvc
from planarcvc.pipeline import (
    Instance,
    Kernel,
    No,
    NonPlanarInputError,
    NoReason,
    ReductionJournal,
    check_size_bound,
    kernelize,
    partition_bound_holds,
    lift_solution,
    partition_stats,
    replay_journal,
)
from planarcvc.reductions import RuleId, apply_rule, run_phase1

from brute import brute_minimum_cvc, dfs_tree_cover, graph_from_edges, rotation, tightness_cover
from conftest import (
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_path,
    make_random_graph,
    make_star,
    small_planar_corpus,
)
from test_reductions import r5_example


def test_size_bound_examples():
    assert check_size_bound(35, 11)
    assert check_size_bound(0, 0)
    assert not check_size_bound(4, 1)


def test_kernelize_tightness_l3():
    out = kernelize(Instance(gen_tightness(3), 11))
    assert isinstance(out, Kernel)
    assert out.instance.graph.n_vertices == 35
    assert out.instance.k == 11


def test_kernelize_single_edge():
    out = kernelize(Instance(make_path(2), 1))
    assert isinstance(out, Kernel)
    assert out.instance.graph.n_edges == 1
    assert out.instance.k == 1


def test_kernelize_star_with_zero_budget_hits_gate():
    out = kernelize(Instance(make_star(5), 0))
    assert isinstance(out, No)
    assert out.reason is NoReason.SIZE_GATE


def test_kernelize_budget_underflow():
    out = kernelize(Instance(make_cycle(3), 0))
    assert isinstance(out, No)
    assert out.reason is NoReason.BUDGET_UNDERFLOW


def test_kernelize_multi_edge_components():
    out = kernelize(Instance(graph_from_edges([(1, 2), (3, 4)]), 4))
    assert isinstance(out, No)
    assert out.reason is NoReason.MULTI_EDGE_COMPONENTS


def test_kernelize_edgeless_is_yes():
    g = Graph()
    for _ in range(3):
        g.add_vertex()
    out = kernelize(Instance(g, 0))
    assert isinstance(out, Kernel)
    assert out.instance.graph.n_vertices == 0


def test_kernelize_strips_isolated_vertices():
    g = make_cycle(3)
    lone = g.add_vertex()
    out = kernelize(Instance(g, 2))
    assert isinstance(out, Kernel)
    assert lone not in out.instance.graph
    assert out.journal.dropped_isolated == (lone,)


def test_kernelize_rejects_nonplanar():
    with pytest.raises(NonPlanarInputError):
        kernelize(Instance(make_complete(5), 5))


def _subdivided_k5() -> Graph:
    """K5 with each of its 10 edges subdivided once: 15 vertices."""
    edges = []
    for mid, (i, j) in enumerate(((i, j) for i in range(1, 6) for j in range(i + 1, 6)), start=6):
        edges += [(i, mid), (mid, j)]
    return graph_from_edges(edges)


def _nonplanar_corpus(count: int) -> list[Graph]:
    rng = random.Random(1964)
    corpus = []
    while len(corpus) < count:
        g = make_random_graph(rng.randint(5, 9), rng.uniform(0.45, 0.9), rng.randrange(10**9))
        if g.is_connected() and not is_planar(g):
            corpus.append(g)
    return corpus


def _kernelize_or_nonplanar(g: Graph, k: int):
    try:
        return kernelize(Instance(g, k))
    except NonPlanarInputError:
        return None


def test_kernelize_nonplanar_fixed_graphs():
    for g in (make_complete(5), make_complete_bipartite(3, 3)):
        for k in range(g.n_vertices + 1):
            assert _kernelize_or_nonplanar(g, k) is None
    # R3 removes every subdivision vertex, so the only planarity check
    # sees a planar fixpoint and the answer is the input's.
    sub = _subdivided_k5()
    assert isinstance(kernelize(Instance(sub, 8)), No)
    for k in (9, 10, 11):
        out = kernelize(Instance(sub, k))
        assert isinstance(out, Kernel) and minimum_cvc(out.instance.graph, out.instance.k) is not None


def _count_embedding_builds(monkeypatch) -> dict[str, int]:
    """Count half-edge embeddings and Face lists built from now on."""
    calls = {"half_edges": 0, "faces": 0}
    build = embedding._LRPlanarity.embedding

    def counted_build(self):
        calls["half_edges"] += 1
        return build(self)

    def counted_faces(self, built=vars(embedding.Embedding)["faces"].func):
        calls["faces"] += 1
        return built(self)

    monkeypatch.setattr(embedding._LRPlanarity, "embedding", counted_build)
    lazy = functools.cached_property(counted_faces)
    lazy.__set_name__(embedding.Embedding, "faces")
    monkeypatch.setattr(embedding.Embedding, "faces", lazy)
    return calls


def test_kernelize_embeds_only_with_two_owners(monkeypatch):
    # Phase 2 reads faces off the half-edges: kernelize builds no Face
    # list, and embeds only with two owners.
    calls = _count_embedding_builds(monkeypatch)
    triangulation = gen_random_planar(60, 1.0, 7)
    assert pendant_owners(run_phase1(triangulation.copy(), 60).graph) == []
    assert isinstance(kernelize(Instance(triangulation, 60)), Kernel)
    assert calls == {"half_edges": 0, "faces": 0}

    ring = gen_tightness(3)
    assert len(pendant_owners(run_phase1(ring.copy(), 11).graph)) >= 2
    assert isinstance(kernelize(Instance(ring, 11)), Kernel)
    assert calls == {"half_edges": 1, "faces": 0}

    # the hooks see every build, and the Face list is built once per
    # embedding; the rotation dict in vertex ids is brute.rotation's
    e = embedding.embed(ring)
    assert e.faces is e.faces and not hasattr(e, "rotation")
    assert rotation(e)[1] and calls == {"half_edges": 2, "faces": 1}


def _k5_with(extra: list[tuple[int, int]]) -> Graph:
    return graph_from_edges([(i, j) for i in range(1, 6) for j in range(i + 1, 6)] + extra)


@pytest.mark.parametrize(
    ("extra", "owners", "size"),
    [
        ([], 0, "5 vertices / 10 edges"),
        ([(1, 6)], 1, "6 vertices / 11 edges"),
        # two non-adjacent owners, 6 and 7, each attached to a K5 triangle
        ([(6, 1), (6, 2), (6, 3), (7, 3), (7, 4), (7, 5), (6, 8), (7, 9)], 2, "9 vertices / 18 edges"),
    ],
)
def test_kernelize_nonplanar_fixpoint_message(extra, owners, size):
    g = _k5_with(extra)
    for k in (0, 5, g.n_vertices):
        fixpoint = run_phase1(g.copy(), k).graph
        assert len(pendant_owners(fixpoint)) == owners
        with pytest.raises(NonPlanarInputError) as info:
            kernelize(Instance(g, k))
        assert str(info.value) == f"input graph is not planar (graph with {size} is not planar)"


def test_kernelize_nonplanar_answers_match_oracle():
    # The contract on non-planar input: NonPlanarInputError, or the
    # input's own answer.
    answers = 0
    for g in _nonplanar_corpus(400):
        for k in range(g.n_vertices + 1):
            out = _kernelize_or_nonplanar(g, k)
            if out is None:
                continue
            answers += 1
            got = isinstance(out, Kernel) and minimum_cvc(out.instance.graph, out.instance.k) is not None
            assert got == (minimum_cvc(g, k) is not None), (g.edges(), k)
    assert answers > 0


def test_kernel_budget_monotone(corpus_small):
    for g in corpus_small[:30]:
        k = g.n_vertices
        out = kernelize(Instance(g, k))
        if isinstance(out, Kernel):
            assert out.instance.k <= k


def test_journal_replay_reproduces_kernel(corpus_small):
    for g in corpus_small[:30]:
        out = kernelize(Instance(g, g.n_vertices))
        assert isinstance(out, Kernel)
        replayed = replay_journal(out.journal)[-1]
        assert replayed.edges() == out.instance.graph.edges()
        assert replayed.vertices() == out.instance.graph.vertices()


# ----------------------------------------------------------------------
# lifting
# ----------------------------------------------------------------------


def test_lift_star_r1():
    star = make_star(5)
    out = kernelize(Instance(star, 1))
    assert isinstance(out, Kernel)
    lifted = lift_solution(out.journal, {1})
    assert lifted == {1}
    assert verify_cvc(star, lifted)


def test_lift_r1_pendant_solution_swaps_to_parent():
    star = make_star(5)
    out = kernelize(Instance(star, 1))
    kernel = out.instance.graph
    pendant = next(v for v in kernel.vertices() if v != 1)
    lifted = lift_solution(out.journal, {pendant})
    assert lifted == {1}


def test_lift_r5_adds_center_back():
    g = r5_example()
    work = g.copy()
    step = apply_rule(work, RuleId.R5, {"v": 1, "x": 2, "y": 3, "z": 4})
    journal = ReductionJournal(
        input_graph=g.copy(), dropped_isolated=(), steps=[step]
    )
    lifted = lift_solution(journal, {2, 3})
    assert lifted == {1, 2, 3}
    assert verify_cvc(g, lifted)


def test_lift_rejects_invalid_kernel_solution():
    out = kernelize(Instance(make_star(5), 1))
    with pytest.raises(ValueError):
        lift_solution(out.journal, set())


def test_lift_checks_the_input_only_after_a_step(monkeypatch):
    # With no step the kernel is the input minus its isolated vertices, so
    # the kernel cover, checked on the kernel, is the lifted one; with a
    # step the lifted cover is checked on the input too.
    from planarcvc import pipeline

    checked = []

    def counted(g, s):
        checked.append(g)
        return verify_cvc(g, s)

    monkeypatch.setattr(pipeline, "verify_cvc", counted)
    g = gen_exception_graph()
    g.add_vertex()
    out = kernelize(Instance(g, g.n_vertices))
    assert isinstance(out, Kernel) and out.journal.steps == [] and out.journal.dropped_isolated
    cover = dfs_tree_cover(out.instance.graph)
    assert lift_solution(out.journal, cover) == cover
    assert len(checked) == 1 and checked[0] is not g

    checked.clear()
    star = make_star(5)
    out = kernelize(Instance(star, 1))
    assert isinstance(out, Kernel) and out.journal.steps
    assert lift_solution(out.journal, {1}) == {1}
    assert len(checked) == 2 and checked[1] is star


def test_lift_corpus_solutions(corpus_small):
    for g in corpus_small[:40]:
        mini = minimum_cvc(g, g.n_vertices).size
        out = kernelize(Instance(g.copy(), mini))
        assert isinstance(out, Kernel), "YES instances must pass the gate"
        kernel_cert = minimum_cvc(out.instance.graph, out.instance.k)
        assert kernel_cert is not None
        lifted = lift_solution(out.journal, set(kernel_cert.vertices))
        assert verify_cvc(g, lifted)
        assert len(lifted) <= mini


def test_lift_every_feasible_budget():
    for g in small_planar_corpus(12, max_n=12, seed=808):
        mini = brute_minimum_cvc(g)
        for k in range(mini, g.n_vertices + 1):
            out = kernelize(Instance(g.copy(), k))
            assert isinstance(out, Kernel)
            cert = minimum_cvc(out.instance.graph, out.instance.k)
            lifted = lift_solution(out.journal, set(cert.vertices))
            assert verify_cvc(g, lifted)
            assert len(lifted) <= k
            # Each undone step grows the cover by at most the budget it spent.
            assert len(lifted) <= cert.size + out.journal.k_spent


# ----------------------------------------------------------------------
# equivalence
# ----------------------------------------------------------------------


def test_lift_accepts_every_kernel_cover():
    # Non-minimum kernel covers exercise the awkward lift branches: covers
    # containing fresh pendants, contraction vertices and merged 2-vertices
    # that the induced subgraph leans on for connectivity.
    from itertools import combinations

    for g in small_planar_corpus(10, max_n=10, seed=414):
        mini = brute_minimum_cvc(g)
        out = kernelize(Instance(g.copy(), g.n_vertices))
        assert isinstance(out, Kernel)
        kernel = out.instance.graph
        verts = kernel.vertices()
        covers = 0
        for size in range(1, len(verts) + 1):
            for subset in combinations(verts, size):
                sol = set(subset)
                if not verify_cvc(kernel, sol):
                    continue
                covers += 1
                lifted = lift_solution(out.journal, sol)
                assert verify_cvc(g, lifted)
                assert len(lifted) <= len(sol) + out.journal.k_spent
        assert covers > 0
        assert mini is not None


def test_lift_merge_undo_branches():
    # Pendant merge on the path 4-1-2-3-5 produces the 4-cycle 1-6-3-2;
    # its covers hit every undo case: the merged vertex absent, present as
    # a leaf of the induced cover, droppable, and load-bearing (where the
    # reconnecting vertex 2 must be found).
    from itertools import combinations
    from planarcvc.facematch import apply_identification

    g = graph_from_edges([(1, 2), (2, 3), (1, 4), (3, 5)])
    work = g.copy()
    step = apply_identification(work, 1, 3, 0)
    journal = ReductionJournal(
        input_graph=g.copy(), dropped_isolated=(), steps=[step]
    )
    c = step.created[0]
    seen_load_bearing = False
    covers = 0
    for size in range(1, 5):
        for subset in combinations(work.vertices(), size):
            sol = set(subset)
            if not verify_cvc(work, sol):
                continue
            covers += 1
            if sol == {1, 3, c}:
                seen_load_bearing = True
            lifted = lift_solution(journal, sol)
            assert verify_cvc(g, lifted)
            assert len(lifted) <= len(sol)
    assert covers >= 4
    assert seen_load_bearing
    assert lift_solution(journal, {1, 3, c}) == {1, 2, 3}


def test_lift_merge_reconnects_through_the_smallest_vertex():
    # Owners 1 and 3 with pendants 4 and 5 and two common neighbors 2 and
    # 7: lifting the cover {1, 3, c} must rejoin 1 and 3, and of the two
    # vertices that can, it takes the smaller, as lifts always have.
    from planarcvc.facematch import apply_identification

    g = graph_from_edges([(1, 2), (2, 3), (1, 7), (7, 3), (1, 4), (3, 5)])
    work = g.copy()
    step = apply_identification(work, 1, 3, 0)
    journal = ReductionJournal(input_graph=g.copy(), dropped_isolated=(), steps=[step])
    assert lift_solution(journal, {1, 3, step.created[0]}) == {1, 2, 3}


def _independent_set_cover(g: Graph, protected: set[int], seed: int) -> set[int]:
    """V - I, I a seeded maximal independent set of g outside protected."""
    free = [v for v in g.vertices() if v not in protected]
    random.Random(seed).shuffle(free)
    adj = g.adjacency()
    indep: set[int] = set()
    for v in free:
        if not adj[v] & indep:
            indep.add(v)
    return set(adj) - indep


def test_lift_reconnects_merge_owners_on_generated_kernels(monkeypatch):
    # Covers V - I of generated kernels, I a seeded maximal independent
    # set that keeps every merged 2-vertex c and both its owners in the
    # cover. Where I cuts the owners apart without c, the R8 lift must
    # add a reconnecting vertex; the random inputs are ones where it does.
    from planarcvc import reductions

    r8 = reductions._RULES[RuleId.R8]
    reconnecting = []

    def counted(g, step, sol):
        before = set(sol)
        r8.lift(g, step, sol)
        reconnecting.extend(sol - before - {step.site["u"], step.site["v"]})

    monkeypatch.setitem(reductions._RULES, RuleId.R8, r8._replace(lift=counted))
    inputs = [(gen_tightness(ell), 3 * ell + 2) for ell in range(3, 13)]
    for n, density, seed in ((150, 0.55, 19), (150, 0.6, 9), (400, 0.6, 11)):
        g = gen_random_planar(n, density, seed)
        inputs.append((g, len(dfs_tree_cover(g))))
    lifts = 0
    for g, k in inputs:
        out = kernelize(Instance(g, k))
        assert isinstance(out, Kernel)
        kernel = out.instance.graph
        protected = {
            x
            for s in out.journal.steps
            if s.rule is RuleId.R8
            for x in (s.site["u"], s.site["v"], s.created[0])
        }
        assert protected
        for seed in range(32):
            cover = _independent_set_cover(kernel, protected, seed)
            if not verify_cvc(kernel, cover):
                continue
            lifted = lift_solution(out.journal, cover)
            assert verify_cvc(g, lifted)
            assert len(lifted) <= len(cover) + out.journal.k_spent
            lifts += 1
    assert lifts and reconnecting, (lifts, reconnecting)


def test_replay_rejects_phase1_step_after_r8():
    # Merging the pendants of 1 and 2 on the 4-cycle 1-3-2-4 leaves the
    # 2-vertex 3 for R3. kernelize never journals that order, and lifting
    # undoes R8 on the graph right after it, so replay refuses it.
    from planarcvc.facematch import apply_identification

    g = graph_from_edges([(1, 3), (3, 2), (2, 4), (4, 1), (1, 5), (2, 6)])
    work = g.copy()
    merge = apply_identification(work, 1, 2, 0)
    r3 = apply_rule(work, RuleId.R3, {"v": 3, "u": 1, "w": 2, "cut": False})
    journal = ReductionJournal(
        input_graph=g.copy(), dropped_isolated=(), steps=[merge, r3]
    )
    with pytest.raises(ValueError, match="after an R8 step"):
        replay_journal(journal)


@pytest.mark.parametrize("target", ["run_phase2", "replay_journal"])
def test_r8_connectivity_checks_do_not_grow_with_the_ring(monkeypatch, target):
    # R8 makes no per-merge connectivity query: the whole-graph
    # traversals of Phase 2 and of replaying its journal stay the same
    # while the ring family's merges grow from 12 to 48.
    from planarcvc.facematch import run_phase2

    component = Graph.component
    counts = []
    for ell in (12, 48):
        g = gen_tightness(ell)
        out = kernelize(Instance(g.copy(), 3 * ell + 2))
        assert isinstance(out, Kernel)
        calls = []
        with monkeypatch.context() as m:
            m.setattr(Graph, "component", lambda self, *a: calls.append(a) or component(self, *a))
            if target == "run_phase2":
                steps = run_phase2(g)
            else:
                replay_journal(out.journal)
                steps = out.journal.steps
        assert sum(s.rule is RuleId.R8 for s in steps) == ell
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 1


def test_lift_tightness_covers_with_merged_vertices():
    g = gen_tightness(3)
    out = kernelize(Instance(g.copy(), 11))
    assert isinstance(out, Kernel)
    kernel = out.instance.graph
    base = set(minimum_cvc(kernel, 11).vertices)
    merged = [s.created[0] for s in out.journal.steps]
    assert len(merged) == 3
    for extra in range(1, 4):
        sol = base | set(merged[:extra])
        assert verify_cvc(kernel, sol)
        lifted = lift_solution(out.journal, sol)
        assert verify_cvc(g, lifted)
        assert len(lifted) <= len(sol)


@pytest.mark.parametrize(
    "make, k",
    [
        (lambda: gen_random_planar(800, 0.5, 0), None),
        (lambda: gen_random_planar(1000, 0.5, 1), None),
        (lambda: gen_tightness(40), 3 * 40 + 2),
    ],
    ids=["random-n800", "random-n1000", "tightness-l40"],
)
def test_lift_soundness_beyond_the_oracle_window(make, k):
    # Far beyond the exact solver's reach: the DFS-tree cover (at most
    # twice the minimum) sets the budget of the random inputs, so they
    # are YES instances, and the kernel's own DFS-tree cover is lifted.
    g = make()
    if k is None:
        k = len(dfs_tree_cover(g))
    out = kernelize(Instance(g, k))
    assert isinstance(out, Kernel)
    kernel = out.instance
    assert check_size_bound(kernel.graph.n_vertices, kernel.k)
    cover = dfs_tree_cover(kernel.graph)
    lifted = lift_solution(out.journal, cover)
    assert verify_cvc(g, lifted)
    assert len(lifted) <= len(cover) + out.journal.k_spent


def test_end_to_end_equivalence_small():
    for g in small_planar_corpus(30, max_n=12, seed=91):
        mini = brute_minimum_cvc(g)
        for k in range(0, g.n_vertices + 1):
            out = kernelize(Instance(g.copy(), k))
            if isinstance(out, Kernel):
                got = minimum_cvc(out.instance.graph, out.instance.k) is not None
            else:
                got = False
            assert got == (k >= mini)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def test_partition_single_edge():
    g = make_path(2)
    part = partition_stats(g, {1})
    assert part.s1 == {1} and part.i1 == {2}
    assert not part.s_ge3 and not part.i3 and not part.i_ge4


def test_partition_exception_graph():
    part = partition_stats(gen_exception_graph(), {1, 5, 6})
    assert part.sizes() == {"S1": 1, "S>=3": 2, "I1": 1, "I3": 2, "I>=4": 0}


def test_partition_bound_fails_just_below_the_bound():
    # The ring l = 3 with its minimum cover of 11: S>=3 has 2 vertices and
    # I>=4 none, so with one merge 3 * (2 + 0 + 1) = 9 < 11.
    g = gen_tightness(3)
    cover = tightness_cover(g)
    assert len(cover) == 11
    assert not partition_bound_holds(g, cover, 1)
    assert partition_bound_holds(g, cover, 2)


def test_partition_tightness():
    g = gen_tightness(4)
    part = partition_stats(g, tightness_cover(g))
    assert part.sizes() == {"S1": 12, "S>=3": 2, "I1": 12, "I3": 24, "I>=4": 0}


def test_partition_rejects_non_cover():
    with pytest.raises(ValueError):
        partition_stats(make_cycle(4), {1})


def test_partition_flags_degree_two_leftovers():
    with pytest.raises(ValueError):
        partition_stats(make_cycle(4), {1, 2, 3})  # vertex 4 has degree 2


def test_partition_bound_exception_graph():
    assert partition_bound_holds(gen_exception_graph(), {1, 5, 6}, 0)


def test_partition_bound_single_edge():
    assert partition_bound_holds(make_path(2), {1}, 0)


def test_partition_bound_tightness_equality():
    g = gen_tightness(3)
    cover = tightness_cover(g)
    part = partition_stats(g, cover)
    m_star = 3
    assert partition_bound_holds(g, cover, m_star)
    assert 3 * (len(part.s_ge3) + len(part.i_ge4) + m_star) == len(cover) + 4


def test_partition_bound_on_reduced_corpus(corpus_small):
    from planarcvc.reductions import run_phase1
    from planarcvc.facematch import run_phase2

    for g in corpus_small[:20]:
        g1 = run_phase1(g.copy(), g.n_vertices).graph
        if g1.n_vertices == 0:
            continue
        cover = minimum_cvc(g1, g1.n_vertices)
        g2 = g1.copy()
        m_star = len(run_phase2(g2))
        assert partition_bound_holds(g1, set(cover.vertices), m_star)
