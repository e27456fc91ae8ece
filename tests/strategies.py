"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

from itertools import combinations

from hypothesis import strategies as st

from planarcvc.graph import Graph


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
