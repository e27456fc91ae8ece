"""detect_rule against the sorted-rescan reference detector.

The indexed single pass must report the same rule and the same smallest
site as one rescan per rule, on arbitrary graphs (disconnected and
non-planar included) and on pendant-rich small graphs, whose first rule
is each of R1-R7. So must the index that run_phase1 keeps up across its
steps, at every step, on inputs where each of R1-R7 fires, the
pendant-rich graphs and a sparse graph with large hubs among them. Since
nothing rebuilds that index once it is built, it must also equal an
index built afresh after every step and every answer.
"""

from __future__ import annotations

import random

from hypothesis import given, settings

from planarcvc.generators import gen_exception_graph, gen_random_planar
from planarcvc.graph import Graph
from planarcvc import detection
from planarcvc.reductions import RuleId, detect_rule, run_phase1

from brute import reference_detect_rule
from conftest import r6_example, r7_example, relabelled
from strategies import small_graphs


def _outcome(detector, g: Graph):
    """The detector's answer, or the type of the exception it raised."""
    try:
        return detector(g)
    except Exception as exc:  # noqa: BLE001 - the exception type is compared
        return type(exc)


@settings(max_examples=500, deadline=None)
@given(small_graphs())
def test_detect_rule_matches_reference(g):
    assert _outcome(detect_rule, g) == _outcome(reference_detect_rule, g)


def _pendant_rich_graph(rng: random.Random) -> Graph:
    """A connected core of 4-10 vertices (a random tree with chords), 0-2
    pendants per core vertex, and up to two groups of one or two 3-vertex
    twins, adjacent to a core path x-v-y or to any three core vertices;
    ids are sparse."""
    n = rng.randint(4, 10)
    ids = iter(rng.sample(range(1, 200), 4 * n + 4))
    g = Graph()

    def new_vertex(*neighbors: int) -> int:
        v = next(ids)
        g.add_named_vertex(v)
        for w in neighbors:
            g.add_edge(v, w)
        return v

    core = [new_vertex()]
    for _ in range(1, n):
        core.append(new_vertex(rng.choice(core)))
    for _ in range(rng.randint(0, n)):
        u, w = rng.sample(core, 2)
        if not g.has_edge(u, w):
            g.add_edge(u, w)
    weights = rng.choice(((12, 6, 1), (6, 12, 1), (16, 2, 1)))  # of 0, 1, 2 pendants
    for v in core:
        for _ in range(rng.choices((0, 1, 2), weights)[0]):
            new_vertex(v)
    for _ in range(rng.choice((0, 1, 1, 2))):
        v = rng.choice(core)
        path = [w for w in g.neighbors(v) if w in core]
        nbhd = [v, *rng.sample(path, 2)] if len(path) >= 2 and rng.random() < 0.5 else rng.sample(core, 3)
        for _ in range(rng.choice((1, 2))):
            new_vertex(*nbhd)
    return g


def test_detect_rule_matches_reference_on_pendant_rich_graphs():
    # small_graphs() almost never reaches a rule past R3; these 2000
    # graphs report R4 178 times, R5 24, R6 11 and R7 8
    rng = random.Random(1)
    reported = set()
    for _ in range(2000):
        g = _pendant_rich_graph(rng)
        found = detect_rule(g)
        assert found == reference_detect_rule(g)
        if found is not None:
            reported.add(found[0])
    assert {RuleId.R4, RuleId.R5, RuleId.R6, RuleId.R7} <= reported


def _phase1_checked(monkeypatch, g: Graph) -> set[RuleId]:
    """Run Phase 1 on a copy of g and compare each answer of run_phase1's
    own index, kept alive across its steps, with the reference detector
    on the graph at that step; returns the rules reported.

    After every step and every answer the kept index must also hold the
    facts of an index built afresh on the graph, keep each live member
    of a lazy heap in that heap, and keep every R4 or R5 site it has not
    ruled out either in a heap or among its candidates.
    """
    work = g.copy()
    reported = set()
    detect, apply = detection.Phase1Index.detect, detection.Phase1Index.apply

    def assert_kept(index):
        fresh = detection.Phase1Index(work)
        for name in ("_owner_of", "_owned", "_crowded", "_degree2", "_r2"):
            assert getattr(index, name) == getattr(fresh, name), name
        assert index._degree2 <= set(index._degree2_heap)
        assert index._r2 <= set(index._r2_heap)
        adj, owned, candidates = work.adjacency(), index._owned, index._candidates
        r4_heap, r5_heap = set(index._r4_heap), set(index._r5_heap)
        for u in owned:
            if len(adj[u]) > 1:
                for v in adj[u] & owned.keys():
                    if u < v and len(adj[v]) > 1:
                        assert u in r4_heap or u in candidates or v in candidates, ("R4", u, v)
                if len(adj[u]) == 3:
                    assert u in r5_heap or u in candidates, ("R5", u)

    def checked(index):
        found = detect(index)
        assert found == reference_detect_rule(work)
        assert_kept(index)
        if found is not None:
            reported.add(found[0])
        return found

    def applied(index, rule, site):
        step = apply(index, rule, site)
        assert_kept(index)
        return step

    with monkeypatch.context() as patch:
        patch.setattr(detection.Phase1Index, "detect", checked)
        patch.setattr(detection.Phase1Index, "apply", applied)
        run_phase1(work, work.n_vertices)
    return reported


def test_detect_rule_matches_reference_at_every_phase1_step(corpus_small, monkeypatch):
    # corpus_small never reports R6; the R6 and R7 examples, the
    # exception graph (a fixpoint) under relabellings and three random
    # graphs of n = 120 and 400 report both. Contractions in the sparse
    # graph of n = 800 grow a hub of 30 neighbours.
    examples = (r6_example(), r7_example(), gen_exception_graph())
    inputs = [
        *corpus_small,
        *(h for g in examples for h in (g, *(relabelled(g, random.Random(seed)) for seed in range(3)))),
        *(gen_random_planar(*args) for args in ((400, 0.5, 16), (400, 0.6, 12), (120, 0.6, 17), (800, 0.35, 1))),
    ]
    reported = set()
    for g in inputs:
        reported |= _phase1_checked(monkeypatch, g)
    assert {RuleId.R6, RuleId.R7} <= reported


def test_phase1_index_matches_reference_on_pendant_rich_graphs(monkeypatch):
    # the graphs of test_detect_rule_matches_reference_on_pendant_rich_graphs,
    # driven through Phase 1 with the index checked at every step
    rng = random.Random(1)
    reported = set()
    for _ in range(2000):
        reported |= _phase1_checked(monkeypatch, _pendant_rich_graph(rng))
    assert {RuleId.R4, RuleId.R5, RuleId.R6, RuleId.R7} <= reported
