"""Phase 1 reduction rules (R1-R7) with journaled application.

Rules are detected in strict priority order: rule i is only reported when
no rule j < i matches anywhere in the graph. Among the sites of one rule
the lexicographically smallest tuple of role vertices wins, which makes
journals reproducible. Every application is recorded as a ReductionStep
carrying the matched roles, created/removed ids and the budget change,
which is exactly the data the solution lift needs later.

Detection makes one pass over the adjacency per step. The pass indexes
each 1-vertex under its single neighbor (its owner) and lists the
2-vertices; R1-R5 are read off that index. R6 and R7 are searched only
when none of R1-R5 applies.

Rule summary (v is always the pattern's center):
  R1  v with several 1-neighbors: keep one pendant, drop the rest.
  R2  2-vertex v, N(v)={u,w}, uw an edge: contract uw, k -= 1.
  R3  2-vertex v, N(v)={u,w}, uw not an edge: if v is not a cut vertex,
      remove v and hang a fresh pendant on each of u and w; otherwise
      contract uv, k -= 1.
  R4  edge uv with pendants on both ends: drop u's pendant, contract uv,
      k -= 1.
  R5  3-vertex v with a pendant z and other neighbors x, y: remove v and
      z, add xy if missing, k -= 1.
  R6  3-vertices a, b with N(a)=N(b)={x,v,y} where removing any two of
      {x,v,y} disconnects the graph: remove a, hang fresh pendants on
      x, v and y.
  R7  3-vertex a, N(a)={x,v,y}, v a 4-vertex with pendant q and
      N(v)={x,a,y,q}: remove a, v, q, add xy if missing, hang fresh
      pendants on x and y, k -= 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from .graph import Graph, VertexId


class RuleId(IntEnum):
    """R1 < R2 < ... < R8 is the priority order; R8 belongs to Phase 2."""

    R1 = 1
    R2 = 2
    R3 = 3
    R4 = 4
    R5 = 5
    R6 = 6
    R7 = 7
    R8 = 8


class RuleApplicationError(Exception):
    """The requested rule does not match the graph at the given site."""


@dataclass(frozen=True)
class ReductionStep:
    """One journaled rule application.

    site maps role names to vertex ids (plus the boolean 'cut' flag for
    R3); created/removed list fresh and deleted ids in a fixed per-rule
    order. Replaying the step on the pre-graph reproduces the post-graph.
    """

    rule: RuleId
    site: dict[str, int | bool]
    created: tuple[VertexId, ...]
    removed: tuple[VertexId, ...]
    k_delta: int


@dataclass
class Phase1Result:
    graph: Graph
    k: int
    steps: list[ReductionStep] = field(default_factory=list)
    early_no: bool = False


# ----------------------------------------------------------------------
# detection
# ----------------------------------------------------------------------


def detect_rule(g: Graph) -> tuple[RuleId, dict[str, int | bool]] | None:
    """Lowest-numbered applicable rule among R1-R7 with its smallest site.

    R1-R5 come from one indexing pass (see the module docstring); R6 and
    R7 are searched only when none of them applies.
    """
    adj = g.adjacency()
    owned: dict[VertexId, list[VertexId]] = {}
    degree2: list[VertexId] = []
    for v, nbrs in adj.items():
        d = len(nbrs)
        if d == 1:
            (owner,) = nbrs
            pendants = owned.get(owner)
            if pendants is None:
                owned[owner] = [v]
            else:
                pendants.append(v)
        elif d == 2:
            degree2.append(v)

    crowded = [v for v, pendants in owned.items() if len(pendants) > 1]
    if crowded:
        v = min(crowded)
        return RuleId.R1, {"v": v, "keep": min(owned[v])}

    if degree2:
        degree2.sort()
        r3_site = None
        for v in degree2:
            u, w = sorted(adj[v])
            if w in adj[u]:
                return RuleId.R2, {"v": v, "u": u, "w": w}
            if r3_site is None:
                r3_site = (v, u, w)
        v, u, w = r3_site
        return RuleId.R3, {"v": v, "u": u, "w": w, "cut": g.is_cut_vertex(v)}

    # From here on every owner has exactly one pendant. Owners of degree 1
    # are the two ends of an isolated edge, a fixpoint for R4 and R5.
    owners = sorted(v for v in owned if len(adj[v]) > 1)
    owner_set = set(owners)
    for u in owners:
        later = [v for v in adj[u] if v > u and v in owner_set]
        if later:
            v = min(later)
            return RuleId.R4, {"u": u, "v": v, "pu": owned[u][0], "pv": owned[v][0]}

    for v in owners:
        if len(adj[v]) == 3:
            z = owned[v][0]
            x, y = sorted(adj[v] - {z})
            return RuleId.R5, {"v": v, "x": x, "y": y, "z": z}

    for rule, finder in ((RuleId.R6, _find_r6), (RuleId.R7, _find_r7)):
        site = finder(g)
        if site is not None:
            return rule, site
    return None


def _find_r6(g: Graph) -> dict[str, int | bool] | None:
    by_nbhd: dict[tuple[VertexId, ...], list[VertexId]] = {}
    for v in g.vertices():
        if g.degree(v) == 3:
            by_nbhd.setdefault(tuple(g.neighbors(v)), []).append(v)
    candidates = sorted(
        (twins[0], twins[1], nbhd)
        for nbhd, twins in by_nbhd.items()
        if len(twins) >= 2
    )
    for a, b, (x, v, y) in candidates:
        if all(
            not g.is_connected_without(pair)
            for pair in ((x, v), (x, y), (v, y))
        ):
            return {"a": a, "b": b, "x": x, "v": v, "y": y}
    return None


def _find_r7(g: Graph) -> dict[str, int | bool] | None:
    for a in g.vertices():
        if g.degree(a) != 3:
            continue
        nbhd = set(g.neighbors(a))
        for v in sorted(nbhd):
            if g.degree(v) != 4:
                continue
            pendants = sorted(g.pendant_neighbors(v))
            if not pendants:
                continue
            q = pendants[0]
            if set(g.neighbors(v)) == (nbhd - {v}) | {a, q}:
                x, y = sorted(nbhd - {v})
                return {"a": a, "v": v, "q": q, "x": x, "y": y}
    return None


# ----------------------------------------------------------------------
# application
# ----------------------------------------------------------------------


def apply_rule(
    g: Graph,
    k: int,
    rule: RuleId,
    site: dict[str, int | bool],
) -> tuple[int, ReductionStep]:
    """Apply one rule in place, returning the new budget and its record.

    The site is re-validated against the current graph first, so replaying
    a journal against the wrong graph fails loudly instead of corrupting it.
    """
    applier = _APPLIERS.get(rule)
    if applier is None:
        raise RuleApplicationError(f"{rule.name} is not a Phase 1 rule")
    step = applier(g, site)
    new_k = k + step.k_delta
    return new_k, step


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise RuleApplicationError(message)


def _apply_r1(g: Graph, site: dict) -> ReductionStep:
    v, keep = site["v"], site["keep"]
    _require(v in g and keep in g, "R1 site vertices missing")
    pendants = sorted(g.pendant_neighbors(v))
    _require(len(pendants) > 1, f"R1: {v} does not have several pendants")
    _require(keep in pendants, f"R1: {keep} is not a pendant of {v}")
    dropped = tuple(p for p in pendants if p != keep)
    for p in dropped:
        g.remove_vertex(p)
    return ReductionStep(RuleId.R1, dict(site), (), dropped, 0)


def _apply_r2(g: Graph, site: dict) -> ReductionStep:
    v, u, w = site["v"], site["u"], site["w"]
    _require(v in g and g.degree(v) == 2, f"R2: {v} is not a 2-vertex")
    _require(set(g.neighbors(v)) == {u, w}, "R2: neighborhood mismatch")
    _require(g.has_edge(u, w), "R2: uw is not an edge")
    c = g.contract_edge(u, w)
    rec = dict(site)
    rec["c"] = c
    return ReductionStep(RuleId.R2, rec, (c,), (u, w), -1)


def _apply_r3(g: Graph, site: dict) -> ReductionStep:
    v, u, w = site["v"], site["u"], site["w"]
    _require(v in g and g.degree(v) == 2, f"R3: {v} is not a 2-vertex")
    _require(set(g.neighbors(v)) == {u, w}, "R3: neighborhood mismatch")
    _require(not g.has_edge(u, w), "R3: uw must not be an edge")
    cut = g.is_cut_vertex(v)
    _require(cut == bool(site["cut"]), "R3: cut flag does not match the graph")
    rec = dict(site)
    if cut:
        c = g.contract_edge(u, v)
        rec["c"] = c
        return ReductionStep(RuleId.R3, rec, (c,), (u, v), -1)
    g.remove_vertex(v)
    pu = g.add_vertex()
    g.add_edge(u, pu)
    pw = g.add_vertex()
    g.add_edge(w, pw)
    rec["pu"] = pu
    rec["pw"] = pw
    return ReductionStep(RuleId.R3, rec, (pu, pw), (v,), 0)


def _apply_r4(g: Graph, site: dict) -> ReductionStep:
    u, v, pu, pv = site["u"], site["v"], site["pu"], site["pv"]
    _require(g.has_edge(u, v), "R4: uv is not an edge")
    _require(len({u, v, pu, pv}) == 4, "R4: roles must be four distinct vertices")
    _require(pu in g.pendant_neighbors(u), f"R4: {pu} is not a pendant of {u}")
    _require(pv in g.pendant_neighbors(v), f"R4: {pv} is not a pendant of {v}")
    g.remove_vertex(pu)
    c = g.contract_edge(u, v)
    rec = dict(site)
    rec["c"] = c
    return ReductionStep(RuleId.R4, rec, (c,), (pu, u, v), -1)


def _apply_r5(g: Graph, site: dict) -> ReductionStep:
    v, x, y, z = site["v"], site["x"], site["y"], site["z"]
    _require(v in g and g.degree(v) == 3, f"R5: {v} is not a 3-vertex")
    _require(set(g.neighbors(v)) == {x, y, z}, "R5: neighborhood mismatch")
    _require(z in g.pendant_neighbors(v), f"R5: {z} is not a pendant")
    g.remove_vertex(v)
    g.remove_vertex(z)
    g.ensure_edge(x, y)
    return ReductionStep(RuleId.R5, dict(site), (), (v, z), -1)


def _apply_r6(g: Graph, site: dict) -> ReductionStep:
    a, b, x, v, y = site["a"], site["b"], site["x"], site["v"], site["y"]
    for t in (a, b):
        _require(t in g and g.degree(t) == 3, f"R6: {t} is not a 3-vertex")
        _require(set(g.neighbors(t)) == {x, v, y}, "R6: neighborhood mismatch")
    for pair in ((x, v), (x, y), (v, y)):
        _require(
            not g.is_connected_without(pair),
            f"R6: removing {pair} leaves the graph connected",
        )
    g.remove_vertex(a)
    rec = dict(site)
    created = []
    for role, parent in (("px", x), ("pv", v), ("py", y)):
        p = g.add_vertex()
        g.add_edge(parent, p)
        rec[role] = p
        created.append(p)
    return ReductionStep(RuleId.R6, rec, tuple(created), (a,), 0)


def _apply_r7(g: Graph, site: dict) -> ReductionStep:
    a, v, q, x, y = site["a"], site["v"], site["q"], site["x"], site["y"]
    _require(a in g and g.degree(a) == 3, f"R7: {a} is not a 3-vertex")
    _require(set(g.neighbors(a)) == {x, v, y}, "R7: neighborhood of a mismatch")
    _require(v in g and g.degree(v) == 4, f"R7: {v} is not a 4-vertex")
    _require(set(g.neighbors(v)) == {x, a, y, q}, "R7: neighborhood of v mismatch")
    _require(q in g.pendant_neighbors(v), f"R7: {q} is not a pendant of {v}")
    g.remove_vertex(a)
    g.remove_vertex(v)
    g.remove_vertex(q)
    g.ensure_edge(x, y)
    rec = dict(site)
    created = []
    for role, parent in (("px", x), ("py", y)):
        p = g.add_vertex()
        g.add_edge(parent, p)
        rec[role] = p
        created.append(p)
    return ReductionStep(RuleId.R7, rec, tuple(created), (a, v, q), -1)


_APPLIERS = {
    RuleId.R1: _apply_r1,
    RuleId.R2: _apply_r2,
    RuleId.R3: _apply_r3,
    RuleId.R4: _apply_r4,
    RuleId.R5: _apply_r5,
    RuleId.R6: _apply_r6,
    RuleId.R7: _apply_r7,
}


# ----------------------------------------------------------------------
# the phase loop
# ----------------------------------------------------------------------


def run_phase1(g: Graph, k: int) -> Phase1Result:
    """Apply R1-R7 exhaustively on a copy of g.

    The scan restarts from R1 after every application. Stops early with
    early_no=True as soon as the budget becomes negative, since no graph
    has a connected vertex cover of negative size.
    """
    work = g.copy()
    steps: list[ReductionStep] = []
    budget = k
    while True:
        if budget < 0:
            return Phase1Result(work, budget, steps, early_no=True)
        found = detect_rule(work)
        if found is None:
            return Phase1Result(work, budget, steps)
        rule, site = found
        budget, step = apply_rule(work, budget, rule, site)
        steps.append(step)


def is_phase1_fixpoint(g: Graph) -> bool:
    """Structural check: no 2-vertices and at most one pendant per vertex."""
    for v in g.vertices():
        if g.degree(v) == 2:
            return False
        if len(g.pendant_neighbors(v)) > 1:
            return False
    return True
