"""Golden journals and lifts: kernelize and lift_solution must not drift.

The digests in golden_journals.json are the sha256 of serialize_journal
for a fixed corpus. A refactor of the reduction engine that changes the
rule order, the smallest-site tie-break or the fresh-id allocation shows
up here as a digest mismatch. golden_lifts.json holds, for the same
corpus, the sha256 of the sorted lifted cover of the kernel's DFS-tree
cover (brute.dfs_tree_cover), so a refactor of replay or lifting that
changes a lifted cover shows up too. golden_nonleaf_lifts.json holds the
same digest for the kernel's non-leaf cover (brute.non_leaf_cover),
which takes every merged 2-vertex with both its owners, so lifting it
asks at every merge whether the owners stay joined without the merged
vertex. Re-record only for an intended journal or lift change:

    PYTHONPATH=src python tests/test_golden_journals.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

from planarcvc.facematch import apply_identification
from planarcvc.fileio import serialize_journal
from planarcvc.generators import gen_random_planar, gen_tightness
from planarcvc.pipeline import (
    Instance,
    Kernel,
    kernel_vertex_ids,
    kernelize,
    lift_solution,
    replay_journal,
)
from planarcvc.reductions import RuleId, check_record, lift_rule

from brute import dfs_tree_cover, non_leaf_cover, pendant_wheel

GOLDEN = Path(__file__).with_name("golden_journals.json")
GOLDEN_LIFTS = Path(__file__).with_name("golden_lifts.json")
GOLDEN_NONLEAF_LIFTS = Path(__file__).with_name("golden_nonleaf_lifts.json")


def golden_corpus():
    """(label, graph, k): random planar graphs at k = n, ring family at 3l+2.

    The larger rows are budgeted at their DFS-tree cover: sparse inputs
    whose Phase 1 builds large hubs, a denser one where R5 fires, the
    ring at l = 50, and the wheel at m = 200, whose one face holds 200
    pendant owners (100 R8 steps).
    """
    for n in (50, 100, 200, 400):
        for seed in range(5):
            yield f"random n={n} seed={seed}", gen_random_planar(n, 0.5, seed), n
    for copies in (3, 6, 12):
        yield f"tightness l={copies}", gen_tightness(copies), 3 * copies + 2
    larger = [(f"random n={n} density={p} seed=1", gen_random_planar(n, p, 1))
              for n, p in ((800, 0.35), (1600, 0.35), (800, 0.6))]
    larger += [("tightness l=50", gen_tightness(50)), ("wheel m=200", pendant_wheel(200))]
    for label, g in larger:
        yield label, g, len(dfs_tree_cover(g))


@functools.cache
def golden_kernels() -> tuple[tuple[str, Kernel], ...]:
    out = []
    for label, g, k in golden_corpus():
        outcome = kernelize(Instance(g, k))
        assert isinstance(outcome, Kernel), f"{label}: expected a kernel"
        out.append((label, outcome))
    return tuple(out)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def journal_digests() -> dict[str, str]:
    return {
        label: _sha256(serialize_journal(outcome.journal))
        for label, outcome in golden_kernels()
    }


def lift_digests(make_cover=dfs_tree_cover) -> dict[str, str]:
    digests = {}
    for label, outcome in golden_kernels():
        cover = make_cover(outcome.instance.graph)
        lifted = lift_solution(outcome.journal, cover)
        digests[label] = _sha256(json.dumps(sorted(lifted)))
    return digests


def test_journals_match_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    assert journal_digests() == expected


def test_lifts_match_golden_digests():
    expected = json.loads(GOLDEN_LIFTS.read_text())
    assert lift_digests() == expected


def test_nonleaf_lifts_match_golden_digests():
    expected = json.loads(GOLDEN_NONLEAF_LIFTS.read_text())
    assert lift_digests(non_leaf_cover) == expected


def test_nonleaf_covers_hold_every_merge_with_both_owners():
    merges = 0
    for label, outcome in golden_kernels():
        cover = non_leaf_cover(outcome.instance.graph)
        for step in outcome.journal.steps:
            if step.rule is RuleId.R8:
                site = step.site
                assert {site["u"], site["v"], site["c"]} <= cover, label
                merges += 1
    assert merges >= 3 + 6 + 12


def test_kernel_vertex_ids_match_the_kernel():
    # planarcvc lift labels the kernel from the journal records alone.
    with_isolated = gen_random_planar(30, 0.5, 1)
    with_isolated.add_vertex()
    extra = kernelize(Instance(with_isolated, 30))
    assert isinstance(extra, Kernel)
    for _, outcome in golden_kernels() + (("isolated", extra),):
        assert kernel_vertex_ids(outcome.journal) == set(outcome.instance.graph.vertices())


def test_every_written_record_passes_the_record_check(corpus_small):
    # lift checks the records of a journal without R8 records against the
    # rule table alone; every record kernelize writes, R8's included,
    # must pass, and the ids left live must be the kernel's. n = 100,
    # seed 44 adds the R6 records that neither corpus holds.
    kernels = [outcome for _, outcome in golden_kernels()]
    kernels += [kernelize(Instance(g, g.n_vertices)) for g in (*corpus_small, gen_random_planar(100, 0.5, 44))]
    seen = set()
    for outcome in kernels:
        if not isinstance(outcome, Kernel):
            continue
        adj = outcome.journal.input_graph.adjacency()
        live, top = {v for v, nbrs in adj.items() if nbrs}, max(adj)
        for step in outcome.journal.steps:
            top = check_record(step, live, top)
            seen.add((step.rule, step.site.get("cut")))
        assert live == set(outcome.instance.graph.vertices())
    assert seen == {(rule, None) for rule in RuleId if rule is not RuleId.R3} | {(RuleId.R3, True), (RuleId.R3, False)}


def test_r8_undo_restores_every_pre_graph():
    undone = 0
    for label, outcome in golden_kernels():
        g, _ = replay_journal(outcome.journal)
        merges = [s for s in outcome.journal.steps if s.rule is RuleId.R8]
        pre_graphs = []
        for step in merges:
            pre_graphs.append((g.vertices(), g.edges()))
            site = step.site
            assert apply_identification(g, site["u"], site["v"], site["face"]) == step
        for step, pre in zip(reversed(merges), reversed(pre_graphs)):
            lift_rule(g, step, {step.site["u"], step.site["v"]})
            assert (g.vertices(), g.edges()) == pre, label
            undone += 1
    assert undone > 0


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(journal_digests(), indent=1) + "\n")
    GOLDEN_LIFTS.write_text(json.dumps(lift_digests(), indent=1) + "\n")
    GOLDEN_NONLEAF_LIFTS.write_text(json.dumps(lift_digests(non_leaf_cover), indent=1) + "\n")
    sys.exit(0)
