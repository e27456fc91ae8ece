"""Phase 1 detection: the index that R1-R7 are read off.

Detection reads R1-R5 off an index that Phase 1 keeps alive across its
steps. It holds each 1-vertex under its single neighbor (its owner), the
owners with several pendants, the 2-vertices and those whose two
neighbors are adjacent, and the owners that may be R4 or R5 sites. One
routine files a vertex by its degree: it files every vertex of degree
below 3 to build the index, then after each step only the vertices that
the step touched, read off its site and record, so a step costs what it
changed, not the size of the graph. When R1-R5 find nothing, one pass
over the adjacency lists the 3-vertices, which R6 groups by
neighbourhood; R7 looks only at owners of degree 4, whose one pendant
the index holds once R1 has found no owner with two.

reductions.detect_rule and run_phase1 import this module on first use,
so a lift, verify or solve, which detect nothing, never loads it.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .graph import Graph, VertexId
from .reductions import ReductionStep, RuleId, _separates, apply_rule

# the rules that contract two of their roles, and those roles
_CONTRACTED = {RuleId.R2: ("u", "w"), RuleId.R3: ("u", "v"), RuleId.R4: ("u", "v")}


class Phase1Index:
    """The R1-R5 detection facts of one graph, kept alive across Phase 1 steps.

    owner_of maps each 1-vertex to its owner and owned each owner to its
    pendants; crowded holds the owners with two or more. degree2 holds
    the 2-vertices and r2 those whose two neighbours are adjacent, each
    with a heap of its members' ids, where an id stays after its vertex
    left until it reaches the top. candidates holds the owners that may
    have become R4 or R5 sites since R4 was last looked for; that look
    moves the smaller end of each of their edges to another owner into
    r4_heap and those of degree 3 into r5_heap, whose tops are checked
    the same way.
    """

    def __init__(self, g: Graph) -> None:
        self._g = g
        self._adj = g.adjacency()
        self._owner_of: dict[VertexId, VertexId] = {}
        self._owned: dict[VertexId, set[VertexId]] = {}
        self._crowded: set[VertexId] = set()
        self._candidates: set[VertexId] = set()
        self._degree2: set[VertexId] = set()
        self._r2: set[VertexId] = set()
        self._degree2_heap: list[VertexId] = []
        self._r2_heap: list[VertexId] = []
        self._r4_heap: list[VertexId] = []
        self._r5_heap: list[VertexId] = []
        # Filing a vertex of degree 3 or more only makes an owner of degree 3
        # a candidate, which filing its first pendant does too.
        self._refresh([v for v, nbrs in self._adj.items() if len(nbrs) < 3])

    def detect(self) -> tuple[RuleId, dict[str, int | bool]] | None:
        """Lowest-numbered applicable rule among R1-R7 with its smallest site."""
        adj, owned = self._adj, self._owned
        if self._crowded:
            v = min(self._crowded)
            return RuleId.R1, {"v": v, "keep": min(owned[v])}
        if self._r2:
            v = _smallest(self._r2_heap, self._r2)
            u, w = sorted(adj[v])
            return RuleId.R2, {"v": v, "u": u, "w": w}
        if self._degree2:
            v = _smallest(self._degree2_heap, self._degree2)
            u, w = sorted(adj[v])
            return RuleId.R3, {"v": v, "u": u, "w": w}

        # From here on every owner has exactly one pendant. Owners of degree 1
        # are the two ends of an isolated edge, a fixpoint for R4 and R5; the
        # owners next to an owner of higher degree have higher degree too.
        keys = owned.keys()
        r4_heap, r5_heap = self._r4_heap, self._r5_heap
        for u in self._candidates:
            nbrs = adj.get(u, ())
            if len(nbrs) > 1 and u in owned:
                for v in nbrs & keys:
                    heappush(r4_heap, u if u < v else v)
                if len(nbrs) == 3:
                    heappush(r5_heap, u)
        self._candidates.clear()
        # The heap holds the smaller end of every edge between two owners, so
        # its smallest owner next to another one sees only larger ones.
        while r4_heap:
            u = r4_heap[0]
            nbrs = adj.get(u, ())
            if len(nbrs) > 1 and u in owned:
                mates = nbrs & keys
                if mates:
                    v = min(mates)
                    (pu,), (pv,) = owned[u], owned[v]
                    return RuleId.R4, {"u": u, "v": v, "pu": pu, "pv": pv}
            heappop(r4_heap)
        while r5_heap:
            v = r5_heap[0]
            nbrs = adj.get(v, ())
            if len(nbrs) == 3 and v in owned:
                (z,) = pendants = owned[v]
                x, y = sorted(nbrs - pendants)
                return RuleId.R5, {"v": v, "x": x, "y": y, "z": z}
            heappop(r5_heap)
        return self._r6_r7()

    def _r6_r7(self) -> tuple[RuleId, dict[str, int | bool]] | None:
        adj, owned = self._adj, self._owned
        # R6: the two smallest 3-vertices that share a neighbourhood. With
        # the 3-vertices in ascending order, the classes follow in the order
        # of their smallest member, so the first class that passes holds the
        # smallest site.
        twins: dict[frozenset[VertexId], list[VertexId]] = {}
        for v in sorted([v for v, nbrs in adj.items() if len(nbrs) == 3]):
            twins.setdefault(frozenset(adj[v]), []).append(v)
        for members in twins.values():
            if len(members) > 1:
                a, b = members[0], members[1]
                x, v, y = sorted(adj[a])
                if all(_separates(self._g, pair) for pair in ((x, v), (x, y), (v, y))):
                    return RuleId.R6, {"a": a, "b": b, "x": x, "v": v, "y": y}

        # R7: an owner v of degree 4, its pendant q, and a 3-vertex neighbour
        # a that sees v's two other neighbours x and y.
        r7 = []
        for v, (q,) in owned.items():
            if len(adj[v]) == 4:
                r7.extend(
                    (a, v, q) for a in adj[v] if len(adj[a]) == 3 and adj[a] - {v} == adj[v] - {a, q}
                )
        if r7:
            a, v, q = min(r7)
            x, y = sorted(adj[v] - {a, q})
            return RuleId.R7, {"a": a, "v": v, "q": q, "x": x, "y": y}
        return None

    def apply(self, rule: RuleId, site: dict[str, int | bool]) -> ReductionStep:
        """apply_rule on the index's graph, then refresh what the step touched.

        Besides the step's roles and its created and removed ids, a
        contraction touches the common neighbours of its two ends, which
        lose a degree, the pendants of both ends and the 2-vertices next
        to the contracted vertex, which inherit it. The edge xy that R5
        or R7 may add touches nothing else: both rules fire only when
        the graph has no 2-vertex and no two adjacent owners, so x and
        y own no pendant then (R7's fresh pendants make them new owners).
        """
        adj, owned = self._adj, self._owned
        ends = _CONTRACTED.get(rule)
        if ends is None:
            step = apply_rule(self._g, rule, site)
            touched = [*site.values(), *step.created, *step.removed]
        else:
            a, b = site[ends[0]], site[ends[1]]
            touched = [*site.values(), *(adj[a] & adj[b]), *owned.get(a, ()), *owned.get(b, ())]
            step = apply_rule(self._g, rule, site)
            touched += step.created
            c = step.site.get("c")
            if c is not None:
                touched += self._degree2 & adj[c]
        self._refresh(touched)
        return step

    def _refresh(self, touched: list[VertexId]) -> None:
        """File each touched vertex by its current degree, after taking out
        what the index held for it.

        Only a touched vertex changes degree, and two owners become
        adjacent only where one of them is a new owner (see apply). So
        the new owners and the touched owners of degree 3 are the only
        owners that may have become R4 or R5 sites: the candidates.
        """
        adj, owner_of, owned = self._adj, self._owner_of, self._owned
        crowded, candidates, degree2, r2 = self._crowded, self._candidates, self._degree2, self._r2
        for v in touched:
            nbrs = adj.get(v, ())
            if v in owner_of:
                owner = owner_of[v]
                if len(nbrs) == 1 and owner in nbrs:
                    continue
                del owner_of[v]
                pendants = owned[owner]
                pendants.remove(v)
                if len(pendants) < 2:
                    crowded.discard(owner)
                    if not pendants:
                        del owned[owner]
            elif v in degree2:
                if len(nbrs) == 2:
                    # no step takes an edge from two vertices it keeps, so
                    # only a renamed neighbour can make v an R2 2-vertex
                    u, w = nbrs
                    if v not in r2 and w in adj[u]:
                        r2.add(v)
                        heappush(self._r2_heap, v)
                    continue
                degree2.remove(v)
                r2.discard(v)
            d = len(nbrs)
            if d == 1:
                (owner,) = nbrs
                owner_of[v] = owner
                pendants = owned.get(owner)
                if pendants is None:
                    owned[owner] = {v}
                    candidates.add(owner)
                else:
                    pendants.add(v)
                    crowded.add(owner)
            elif d == 2:
                degree2.add(v)
                heappush(self._degree2_heap, v)
                u, w = nbrs
                if w in adj[u]:
                    r2.add(v)
                    heappush(self._r2_heap, v)
            elif d == 3 and v in owned:
                candidates.add(v)


def _smallest(heap: list[VertexId], members: set[VertexId]) -> VertexId:
    """The smallest of the non-empty members, whose ids heap holds among stale ones."""
    while heap[0] not in members:
        heappop(heap)
    return heap[0]
