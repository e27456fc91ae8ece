"""detect_rule against the sorted-rescan reference detector.

The indexed single pass must report the same rule and the same smallest
site as one rescan per rule, on arbitrary graphs (disconnected and
non-planar included) and at every step of Phase 1.
"""

from __future__ import annotations

from hypothesis import given, settings

from planarcvc.graph import Graph
from planarcvc.reductions import apply_rule, detect_rule

from brute import reference_detect_rule
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
    for g in corpus_small:
        work = g.copy()
        while True:
            found = detect_rule(work)
            assert found == reference_detect_rule(work)
            if found is None:
                break
            apply_rule(work, *found)
