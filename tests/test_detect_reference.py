"""detect_rule against the sorted-rescan reference detector.

The indexed single pass must report the same rule and the same smallest
site as one rescan per rule, on arbitrary graphs (disconnected and
non-planar included) and at every step of Phase 1.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from planarcvc.graph import Graph
from planarcvc.reductions import apply_rule, detect_rule

from brute import reference_detect_rule


@st.composite
def small_graphs(draw) -> Graph:
    """Up to 12 vertices with sparse ids (as after contractions), any edges."""
    ids = draw(st.lists(st.integers(1, 40), unique=True, max_size=12))
    pairs = list(combinations(ids, 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = Graph()
    for v in ids:
        g.add_named_vertex(v)
    for u, w in edges:
        g.add_edge(u, w)
    return g


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
            apply_rule(work, 0, *found)
