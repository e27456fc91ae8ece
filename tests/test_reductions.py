"""reductions: rule detection priority, application, the phase loop."""

from __future__ import annotations

from itertools import combinations

import pytest

from planarcvc import reductions
from planarcvc.embedding import is_planar
from planarcvc.generators import gen_exception_graph, gen_random_planar, gen_tightness
from planarcvc.graph import Graph
from planarcvc.oracle import minimum_cvc, verify_cvc
from planarcvc.pipeline import Instance, Kernel, ReductionJournal, kernelize, replay_journal
from planarcvc.reductions import (
    Phase1Result,
    RuleApplicationError,
    RuleId,
    apply_identification,
    apply_rule,
    detect_rule,
    lift_rule,
    run_phase1,
)

from brute import brute_minimum_cvc, graph_from_edges, reference_detect_rule
from conftest import make_cycle, make_path, make_star, r6_example, r7_example, small_planar_corpus


def r4_example() -> Graph:
    # the edge 1-2 with pendants 3 and 4, and the triangle 1-2-5 with a tail 6
    return graph_from_edges([(1, 2), (1, 3), (2, 4), (1, 5), (2, 5), (5, 6)])


def r5_example() -> Graph:
    # v=1 sees x=2, y=3 and the pendant z=4; w=5 closes the square.
    return graph_from_edges([(1, 2), (1, 3), (1, 4), (2, 5), (3, 5)])


_R4_SITE = {"u": 1, "v": 2, "pu": 3, "pv": 4}
_R5_SITE = {"v": 1, "x": 2, "y": 3, "z": 4}
_R7_SITE = {"a": 1, "v": 2, "q": 3, "x": 4, "y": 5}


# ----------------------------------------------------------------------
# detection
# ----------------------------------------------------------------------


def test_detect_star_is_r1():
    rule, site = detect_rule(make_star(3))
    assert rule is RuleId.R1
    assert site["v"] == 1 and site["keep"] == 2


def test_detect_exception_graph_nothing_applies():
    assert detect_rule(gen_exception_graph()) is None


def test_detect_tightness_nothing_applies():
    assert detect_rule(gen_tightness(3)) is None


def test_detect_triangle_with_degree_two_is_r2():
    rule, site = detect_rule(make_cycle(3))
    assert rule is RuleId.R2
    assert site == {"v": 1, "u": 2, "w": 3}


def test_detect_p3_is_r1():
    # The middle of a 3-path owns two pendants, so R1 outranks R3.
    rule, site = detect_rule(make_path(3))
    assert rule is RuleId.R1
    assert site == {"v": 2, "keep": 1}


def test_detect_path_is_r3():
    # Detection leaves the cut question to the rule, which records it.
    g = make_path(4)
    rule, site = detect_rule(g)
    assert rule is RuleId.R3
    assert site == {"v": 2, "u": 1, "w": 3}
    step = apply_rule(g, rule, site)
    assert step.site["cut"] is True


def test_detect_c4_is_r3_noncut():
    g = make_cycle(4)
    rule, site = detect_rule(g)
    assert rule is RuleId.R3
    step = apply_rule(g, rule, site)
    assert step.site["cut"] is False


def test_detect_single_edge_is_fixpoint():
    assert detect_rule(make_path(2)) is None


def test_detect_r6_example():
    rule, site = detect_rule(r6_example())
    assert rule is RuleId.R6
    assert (site["a"], site["b"]) == (3, 4)
    assert {site["x"], site["v"], site["y"]} == {1, 5, 6}


def test_detect_r7_example():
    rule, site = detect_rule(r7_example())
    assert rule is RuleId.R7
    assert site == {"a": 1, "v": 2, "q": 3, "x": 4, "y": 5}


def test_r6_rejected_when_a_pair_keeps_graph_connected():
    # The exception graph has the twins but G - {v, y} stays connected.
    g = gen_exception_graph()
    with pytest.raises(RuleApplicationError):
        apply_rule(g, RuleId.R6, {"a": 3, "b": 4, "x": 1, "v": 5, "y": 6})


# ----------------------------------------------------------------------
# application
# ----------------------------------------------------------------------


def test_apply_r2_on_triangle():
    g = make_cycle(3)
    step = apply_rule(g, RuleId.R2, {"v": 1, "u": 2, "w": 3})
    assert step.k_delta == -1
    assert g.n_vertices == 2 and g.n_edges == 1


def test_apply_r5_example():
    g = r5_example()
    step = apply_rule(g, RuleId.R5, {"v": 1, "x": 2, "y": 3, "z": 4})
    assert step.k_delta == -1
    assert g.edges() == [(2, 3), (2, 5), (3, 5)]
    assert step.removed == (1, 4)


def test_apply_r7_example():
    g = r7_example()
    step = apply_rule(g, RuleId.R7, {"a": 1, "v": 2, "q": 3, "x": 4, "y": 5})
    assert step.k_delta == -1
    assert 1 not in g and 2 not in g and 3 not in g
    assert g.has_edge(4, 5)
    px, py = step.site["px"], step.site["py"]
    assert g.pendant_neighbors(4) == {px} and g.pendant_neighbors(5) == {py}


def test_apply_r6_example():
    g = r6_example()
    step = apply_rule(g, RuleId.R6, {"a": 3, "b": 4, "x": 1, "v": 5, "y": 6})
    assert step.k_delta == 0
    assert 3 not in g and 4 in g
    for role, parent in (("px", 1), ("pv", 5), ("py", 6)):
        assert step.site[role] in g.pendant_neighbors(parent)


def test_apply_r4_site_must_be_proper():
    g = make_path(2)
    with pytest.raises(RuleApplicationError):
        apply_rule(g, RuleId.R4, {"u": 1, "v": 2, "pu": 2, "pv": 1})


def test_apply_site_mismatch_rejected():
    g = make_cycle(4)
    with pytest.raises(RuleApplicationError):
        apply_rule(g, RuleId.R2, {"v": 1, "u": 2, "w": 4})  # uw not an edge
    # R3's cut flag is what the rule finds on the graph, not a role: the
    # record holds the 4-cycle's own flag whatever the site says.
    for extra in ({"cut": True}, {"cut": False}, {}):
        step = apply_rule(make_cycle(4), RuleId.R3, {"v": 1, "u": 2, "w": 4, **extra})
        assert step.site["cut"] is False


@pytest.mark.parametrize(
    "g, rule, site, message",
    [
        (make_path(3), RuleId.R5, {"v": 2, "x": 1, "y": 1, "z": 3}, "neighbors of 2"),
        (make_path(2), RuleId.R2, {"v": 1, "u": 2, "w": 2}, "neighbors of 1"),
        (make_path(2), RuleId.R3, {"v": 1, "u": 2, "w": 2}, "neighbors of 1"),
        (r6_example(), RuleId.R6, {"a": 3, "b": 3, "x": 1, "v": 5, "y": 6}, "twins"),
    ],
    ids=["R5 x=y", "R2 u=w", "R3 u=w", "R6 a=b"],
)
def test_apply_rejects_a_repeated_role(g, rule, site, message):
    # Each site would pass a check on the set of its roles alone.
    before = g.copy()
    with pytest.raises(RuleApplicationError, match=message):
        apply_rule(g, rule, site)
    assert g.edges() == before.edges()


@pytest.mark.parametrize(
    "g, rule, site, message",
    [
        (make_path(2), RuleId.R1, {"v": 1, "keep": 9}, "R1 site vertices missing"),
        (make_path(2), RuleId.R1, {"v": 1, "keep": 2}, "R1: 1 does not have several pendants"),
        (graph_from_edges([(1, 2), (1, 3), (1, 4), (4, 5)]), RuleId.R1, {"v": 1, "keep": 4},
         "R1: 4 is not a pendant of 1"),
        (make_path(3), RuleId.R2, {"v": 2, "u": 1, "w": 3}, "R2: uw is not an edge"),
        (make_path(3), RuleId.R3, {"v": 2, "u": 3, "w": 1}, "R3: u and w must ascend, got 3, 1"),
        (make_cycle(3), RuleId.R3, {"v": 1, "u": 2, "w": 3}, "R3: uw must not be an edge"),
        (make_path(4), RuleId.R4, {"u": 1, "v": 3, "pu": 2, "pv": 4}, "R4: uv is not an edge"),
        (make_path(2), RuleId.R4, {"u": 1, "v": 2, "pu": 2, "pv": 1}, "R4: roles must be four distinct vertices"),
        (r6_example(), RuleId.R6, {"a": 3, "b": 3, "x": 1, "v": 5, "y": 6}, "R6: the twins must be two vertices, got 3 twice"),
        (r6_example(), RuleId.R6, {"a": 3, "b": 4, "x": 5, "v": 1, "y": 6}, "R6: x, v and y must ascend, got 5, 1, 6"),
        (gen_exception_graph(), RuleId.R6, {"a": 3, "b": 4, "x": 1, "v": 5, "y": 6},
         "R6: removing (5, 6) leaves the graph connected"),
        (r7_example(), RuleId.R7, dict(_R7_SITE, x=5, y=4), "R7: x and y must ascend, got 5, 4"),
    ],
    ids=[
        "R1 missing vertex", "R1 one pendant", "R1 keep not a pendant", "R2 uw not an edge",
        "R3 descending ends", "R3 uw an edge", "R4 uv not an edge", "R4 repeated roles",
        "R6 one twin", "R6 descending x v y", "R6 still connected", "R7 descending x y",
    ],
)
def test_apply_names_the_failed_check(g, rule, site, message):
    # Each check raises with its whole message; none is formatted unless it fails.
    with pytest.raises(RuleApplicationError) as err:
        apply_rule(g, rule, site)
    assert str(err.value) == message


# (example, extra edges, rule, tampered roles, message): each pendant role
# of R4, R5 and R7 given a 2-vertex, another vertex's pendant and a missing
# id. The pendant roles of R5 and R7 are also neighbors of their parent, so
# the neighborhood check rejects the last two before the pendant check.
@pytest.mark.parametrize(
    "make, extra, rule, site, message",
    [
        (r4_example, [(3, 6)], RuleId.R4, _R4_SITE, "3 is not a pendant of 1"),
        (r4_example, [], RuleId.R4, dict(_R4_SITE, pv=6), "6 is not a pendant of 2"),
        (r4_example, [], RuleId.R4, dict(_R4_SITE, pu=9), "9 is not a pendant of 1"),
        (r5_example, [(4, 5)], RuleId.R5, _R5_SITE, "4 is not a pendant of 1"),
        (r5_example, [(5, 6)], RuleId.R5, dict(_R5_SITE, z=6), "neighbors of 1"),
        (r5_example, [], RuleId.R5, dict(_R5_SITE, z=9), "neighbors of 1"),
        (r7_example, [(3, 6)], RuleId.R7, _R7_SITE, "3 is not a pendant of 2"),
        (r7_example, [(6, 8)], RuleId.R7, dict(_R7_SITE, q=8), "neighbors of 2"),
        (r7_example, [], RuleId.R7, dict(_R7_SITE, q=9), "neighbors of 2"),
    ],
    ids=[
        f"{rule} {kind}"
        for rule in ("R4", "R5", "R7")
        for kind in ("2-vertex", "pendant of another", "missing id")
    ],
)
def test_apply_rejects_a_tampered_pendant(make, extra, rule, site, message):
    g = make()
    for u, w in extra:
        if w not in g:
            g.add_named_vertex(w)
        g.add_edge(u, w)
    before = g.copy()
    with pytest.raises(RuleApplicationError, match=message):
        apply_rule(g, rule, site)
    assert g.edges() == before.edges()


def _owners_with_pendants(owners):
    g = make_cycle(4)
    for owner in owners:
        g.add_edge(owner, g.add_vertex())
    return g


def test_apply_rule_r8_is_apply_identification():
    g = _owners_with_pendants((1, 3))
    expected = g.copy()
    step = apply_rule(g, RuleId.R8, {"u": 1, "v": 3, "face": 7})
    assert step == apply_identification(expected, 1, 3, 7)
    assert step.k_delta == 0
    assert (g.vertices(), g.edges()) == (expected.vertices(), expected.edges())


def test_apply_rule_r8_rejects_adjacent_owners():
    g = _owners_with_pendants((1, 2))
    before = g.copy()
    with pytest.raises(RuleApplicationError, match="non-adjacent"):
        apply_rule(g, RuleId.R8, {"u": 1, "v": 2, "face": -1})
    assert g.edges() == before.edges()


def test_apply_rule_r8_rejects_an_owner_without_pendant():
    # Only 3 owns a pendant: the first owner has none to merge.
    g = _owners_with_pendants((3,))
    before = g.copy()
    with pytest.raises(RuleApplicationError, match="must both own a pendant"):
        apply_rule(g, RuleId.R8, {"u": 1, "v": 3, "face": -1})
    assert g.edges() == before.edges()


def test_apply_rule_names_the_roles_a_site_lacks():
    # A site without a role its applier reads, as a tampered journal
    # may hold, is rejected before the applier runs, not by a KeyError.
    g = make_path(3)
    with pytest.raises(RuleApplicationError, match=r"^R2: site lacks the roles \['u', 'w'\]$"):
        apply_rule(g, RuleId.R2, {"v": 2, "c": 4})
    assert g.edges() == [(1, 2), (2, 3)]


@pytest.mark.parametrize(
    "cut, tampered", [(True, False), (False, True), (True, None)], ids=["cut", "non-cut", "deleted"]
)
def test_replay_rejects_a_flipped_r3_cut_flag(cut, tampered):
    # The recorded flag is untrusted: replay asks the cut question again,
    # records the answer and compares the record, so a flipped or missing
    # flag fails at its own step.
    out = kernelize(Instance(gen_random_planar(100, 0.35, 1), 100))
    assert isinstance(out, Kernel)
    steps = list(out.journal.steps)
    idx = next(i for i, s in enumerate(steps) if s.rule is RuleId.R3 and s.site["cut"] is cut)
    site = dict(steps[idx].site, cut=tampered)
    if tampered is None:
        del site["cut"]
    steps[idx] = steps[idx]._replace(site=site)
    journal = ReductionJournal(out.journal.input_graph, out.journal.dropped_isolated, steps)
    with pytest.raises(ValueError, match=f"^journal does not replay at step {idx}: replayed "):
        replay_journal(journal)


@pytest.mark.parametrize(
    "rule, roles",
    [
        (RuleId.R1, ("v", "keep")),
        (RuleId.R2, ("v", "u", "w")),
        (RuleId.R3, ("v", "u", "w")),
        (RuleId.R4, ("u", "v", "pu", "pv")),
        (RuleId.R5, ("v", "x", "y", "z")),
        (RuleId.R6, ("a", "b", "x", "v", "y")),
        (RuleId.R7, ("a", "v", "q", "x", "y")),
        (RuleId.R8, ("u", "v", "face")),
    ],
    ids=[rule.name for rule in RuleId],
)
def test_rule_roles_are_the_applier_parameters(rule, roles):
    # A rule's roles are its applier's parameters after g and the keys
    # its journal records carry: renaming a parameter changes the format.
    assert reductions._ROLES[rule] == roles


# One single-step case (graph, rule, site) per branch of the lift maps.
_STEP_CASES = {
    "R1": (lambda: make_star(3), RuleId.R1, {"v": 1, "keep": 2}),
    # a house: v=1 on the roof, u=2 and w=3 its eaves
    "R2": (
        lambda: graph_from_edges([(1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)]),
        RuleId.R2,
        {"v": 1, "u": 2, "w": 3},
    ),
    # the path 1-7-4 into the triangle 4-5-6: the cover {4, 5} leaves out
    # c, the contracted 1-7, and {c, 4, 5} holds it
    "R3-cut": (
        lambda: graph_from_edges([(1, 7), (7, 4), (4, 5), (5, 6), (4, 6)]),
        RuleId.R3,
        {"v": 7, "u": 1, "w": 4, "cut": True},
    ),
    "R3-non-cut": (lambda: make_cycle(5), RuleId.R3, {"v": 1, "u": 2, "w": 5, "cut": False}),
    "R4": (r4_example, RuleId.R4, _R4_SITE),
    "R5": (r5_example, RuleId.R5, _R5_SITE),
    "R6": (r6_example, RuleId.R6, {"a": 3, "b": 4, "x": 1, "v": 5, "y": 6}),
    "R7": (r7_example, RuleId.R7, _R7_SITE),
    # the 4-cycle 1-2-3-4 with pendants on 1 and 3: the cover {1, 3, c}
    # makes the lift add 2 to rejoin the owners
    "R8": (lambda: _owners_with_pendants((1, 3)), RuleId.R8, {"u": 1, "v": 3, "face": -1}),
}


@pytest.mark.parametrize("case", list(_STEP_CASES))
def test_rule_equivalence_against_oracle(case):
    # Each rule example transforms (G, k) into (G', k + k_delta); the
    # decision must be preserved for every budget.
    make, rule, site = _STEP_CASES[case]
    g = make()
    for k in range(0, g.n_vertices + 1):
        work = g.copy()
        new_k = k + apply_rule(work, rule, site).k_delta
        assert (minimum_cvc(g, k) is None) == (minimum_cvc(work, new_k) is None), k


@pytest.mark.parametrize("case", list(_STEP_CASES))
def test_lift_rule_lifts_every_cover(case):
    # Every connected vertex cover S of the post-graph lifts to one of the
    # pre-graph with at most |S| - k_delta vertices; an R8 lift also turns
    # the post-graph back into the pre-graph.
    make, rule, site = _STEP_CASES[case]
    pre = make()
    post = pre.copy()
    step = apply_rule(post, rule, site)
    covers = [
        set(s)
        for size in range(post.n_vertices + 1)
        for s in combinations(post.vertices(), size)
        if verify_cvc(post, set(s))
    ]
    assert covers
    for cover in covers:
        g, sol = post.copy(), set(cover)
        lift_rule(g, step, sol)
        assert sol <= set(pre.vertices()) and verify_cvc(pre, sol), (cover, sol)
        assert len(sol) <= len(cover) - step.k_delta, (cover, sol)
        expected = pre if rule is RuleId.R8 else post
        assert (g.vertices(), g.edges()) == (expected.vertices(), expected.edges())


# ----------------------------------------------------------------------
# the phase loop
# ----------------------------------------------------------------------


def test_phase1_triangle():
    result = run_phase1(make_cycle(3), 2)
    assert not result.early_no
    assert result.k == 1
    assert [s.rule for s in result.steps] == [RuleId.R2]
    assert result.graph.n_vertices == 2


def test_phase1_exception_graph_unchanged():
    g = gen_exception_graph()
    before = g.copy()
    result = run_phase1(g, 3)
    assert result.steps == [] and result.k == 3
    assert result.graph.edges() == before.edges()


def test_phase1_budget_underflow():
    # The NO is read off the budget: R2 on the triangle leaves k = -1.
    result = run_phase1(make_cycle(3), 0)
    assert Phase1Result._fields == ("graph", "k", "steps")
    assert result.k == -1 and result.early_no


def test_phase1_star_keeps_one_pendant():
    result = run_phase1(make_star(5), 0)
    assert not result.early_no
    assert result.k == 0
    assert result.graph.n_vertices == 2


def test_phase1_fixpoint_structure(corpus_small):
    for g in corpus_small:
        result = run_phase1(g.copy(), g.n_vertices)
        assert not result.early_no
        assert reference_detect_rule(result.graph) is None


def test_phase1_preserves_planarity(corpus_small):
    for g in corpus_small[:40]:
        result = run_phase1(g.copy(), g.n_vertices)
        assert is_planar(result.graph)


def test_phase1_oracle_equivalence():
    for g in small_planar_corpus(40, max_n=12, seed=515):
        mini = brute_minimum_cvc(g)
        for k in range(0, g.n_vertices + 1):
            result = run_phase1(g.copy(), k)
            if result.early_no:
                got = False
            else:
                got = minimum_cvc(result.graph, result.k) is not None
            assert got == (mini is not None and k >= mini), (g.edges(), k)


def test_phase1_termination_potential(corpus_small):
    # Every R1-R7 application strictly decreases the pair
    # (#vertices of degree >= 2, |V|) lexicographically; this is the
    # potential that actually proves termination, since the pendant
    # re-attachment rules can grow |V| + |E| + k.
    def potential(g):
        return (sum(1 for v in g.vertices() if g.degree(v) >= 2), g.n_vertices)

    for g in corpus_small[:40]:
        work = g.copy()
        k = g.n_vertices
        prev = potential(work)
        while True:
            found = detect_rule(work)
            if found is None:
                break
            rule, site = found
            apply_rule(work, rule, site)
            cur = potential(work)
            assert cur < prev, f"{rule} did not decrease the potential"
            prev = cur


def test_isolated_edge_not_an_r4_site():
    assert detect_rule(make_path(2)) is None
    result = run_phase1(make_path(2), 1)
    assert result.steps == [] and result.graph.n_vertices == 2
