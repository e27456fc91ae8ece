"""Independent brute-force oracles for cross-checking the library.

These deliberately share no algorithm with the package: the matcher is a
bitmask DP over vertex subsets, the cover search enumerates subsets in
increasing size, and the rule detector finds R1-R5 by rescanning the
sorted vertex and edge lists once per rule, so agreement with the
library is meaningful.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from planarcvc.graph import Graph
from planarcvc.reductions import RuleId, _find_r6, _find_r7


def brute_matching_size(g: Graph) -> int:
    """Maximum matching size by DP over the subset of still-free vertices."""
    verts = g.vertices()
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    nbr_masks = [0] * n
    for v in verts:
        for w in g.neighbors(v):
            nbr_masks[index[v]] |= 1 << index[w]

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if mask == 0:
            return 0
        low = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << low)
        result = best(rest)  # leave `low` unmatched
        partners = nbr_masks[low] & rest
        while partners:
            p = (partners & -partners).bit_length() - 1
            partners &= partners - 1
            result = max(result, 1 + best(rest & ~(1 << p)))
        return result

    out = best((1 << n) - 1)
    best.cache_clear()
    return out


def brute_minimum_cvc(g: Graph) -> int | None:
    """Minimum connected vertex cover size by full subset enumeration."""
    verts = g.vertices()
    edges = g.edges()
    if not edges:
        return 0
    for size in range(1, len(verts) + 1):
        for subset in combinations(verts, size):
            chosen = set(subset)
            if all(u in chosen or w in chosen for u, w in edges) and (
                g.induced_is_connected(chosen)
            ):
                return size
    return None


def reference_detect_rule(g: Graph) -> tuple[RuleId, dict[str, int | bool]] | None:
    """Rule detection by one sorted rescan per rule, in priority order.

    Each finder returns the smallest site of its rule; R6 and R7 share
    the package's finders, which are searched the same way.
    """
    for rule, finder in (
        (RuleId.R1, _find_r1),
        (RuleId.R2, _find_r2),
        (RuleId.R3, _find_r3),
        (RuleId.R4, _find_r4),
        (RuleId.R5, _find_r5),
        (RuleId.R6, _find_r6),
        (RuleId.R7, _find_r7),
    ):
        site = finder(g)
        if site is not None:
            return rule, site
    return None


def _find_r1(g: Graph) -> dict[str, int | bool] | None:
    for v in g.vertices():
        pendants = sorted(g.pendant_neighbors(v))
        if len(pendants) > 1:
            return {"v": v, "keep": pendants[0]}
    return None


def _find_r2(g: Graph) -> dict[str, int | bool] | None:
    for v in g.vertices():
        if g.degree(v) == 2:
            u, w = g.neighbors(v)
            if g.has_edge(u, w):
                return {"v": v, "u": u, "w": w}
    return None


def _find_r3(g: Graph) -> dict[str, int | bool] | None:
    for v in g.vertices():
        if g.degree(v) == 2:
            u, w = g.neighbors(v)
            if not g.has_edge(u, w):
                return {"v": v, "u": u, "w": w, "cut": g.is_cut_vertex(v)}
    return None


def _find_r4(g: Graph) -> dict[str, int | bool] | None:
    # Pendants must be proper: on an isolated edge the endpoints are each
    # other's 1-neighbor, and that single-edge graph is a fixpoint.
    for u, v in g.edges():
        pu = sorted(g.pendant_neighbors(u) - {v})
        pv = sorted(g.pendant_neighbors(v) - {u})
        if pu and pv:
            return {"u": u, "v": v, "pu": pu[0], "pv": pv[0]}
    return None


def _find_r5(g: Graph) -> dict[str, int | bool] | None:
    for v in g.vertices():
        if g.degree(v) != 3:
            continue
        pendants = sorted(g.pendant_neighbors(v))
        if pendants:
            z = pendants[0]
            x, y = sorted(set(g.neighbors(v)) - {z})
            return {"v": v, "x": x, "y": y, "z": z}
    return None
