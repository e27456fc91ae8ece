"""Connected Vertex Cover verifier.

verify_cvc is what `lift` checks its covers with and what `planarcvc
verify` runs. The exact solver that every reduction rule and every lift
map is validated against is in `exact`, which loads on first use.
"""

from __future__ import annotations

from .graph import Graph, VertexId


def verify_cvc(g: Graph, s: set[VertexId] | frozenset[VertexId]) -> bool:
    """True iff s covers every edge of g and induces a connected subgraph.

    The empty set verifies exactly when g has no edges. Unknown vertex
    ids are rejected with KeyError. s covers every edge iff every vertex
    outside s has all its neighbors in s.
    """
    adj = g.adjacency()
    for v in s:
        if v not in adj:
            raise KeyError(f"solution vertex {v} is not in the graph")
    for v, nbrs in adj.items():
        if v not in s and not nbrs <= s:
            return False
    return g.is_connected(s)
