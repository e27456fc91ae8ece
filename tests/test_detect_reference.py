"""detect_rule against the sorted-rescan reference detector.

The indexed single pass must report the same rule and the same smallest
site as one rescan per rule, on arbitrary graphs (disconnected and
non-planar included) and at every step of Phase 1, on inputs where each
of R1-R7 fires.
"""

from __future__ import annotations

import random

from hypothesis import given, settings

from planarcvc.generators import gen_exception_graph, gen_random_planar
from planarcvc.graph import Graph
from planarcvc.reductions import RuleId, apply_rule, detect_rule

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


def test_detect_rule_matches_reference_at_every_phase1_step(corpus_small):
    # corpus_small never reports R6; the R6 and R7 examples, the
    # exception graph (a fixpoint) under relabellings and three random
    # graphs of n = 120 and 400 report both.
    examples = (r6_example(), r7_example(), gen_exception_graph())
    inputs = [
        *corpus_small,
        *(h for g in examples for h in (g, *(relabelled(g, random.Random(seed)) for seed in range(3)))),
        *(gen_random_planar(*args) for args in ((400, 0.5, 16), (400, 0.6, 12), (120, 0.6, 17))),
    ]
    reported = set()
    for g in inputs:
        work = g.copy()
        while True:
            found = detect_rule(work)
            assert found == reference_detect_rule(work)
            if found is None:
                break
            reported.add(found[0])
            apply_rule(work, *found)
    assert {RuleId.R6, RuleId.R7} <= reported
