"""Reduction rules R1-R8 with journaled application, and Phase 1.

Rules are detected in strict priority order: rule i is only reported when
no rule j < i matches anywhere in the graph. Among the sites of one rule
the lexicographically smallest tuple of role vertices wins, which makes
journals reproducible. Every application, by Phase 1, Phase 2 or journal
replay, goes through apply_rule, whose ReductionStep carries the matched
roles and the applier's additions, created/removed ids and budget change.
A rule's roles are its applier's parameters after the graph; what the
rule decides, like R3's cut flag, is an addition that replay compares.
Each rule's lift, the exchange argument of its safety proof, sits next
to its applier and reads those roles back: lift_rule maps a connected
vertex cover of a step's post-graph to one of its pre-graph. The rule
table declares, next to each applier and lift, what the applier writes
into its record beside the roles (its additions, which of them are
fresh ids, which ids it removes, its budget change); check_record holds
a record to those facts without a graph.

Priority is a precondition of safety: a rule keeps the answer only on a
graph where no lower-numbered rule applies. R3 at the centre of the path
1-3-2, where R1 has priority, contracts the path to one edge with
k' = k - 1 and turns the YES at k = 1 into a NO. Neither apply_rule,
journal replay nor check_record checks priority; they check only that a
site fits its rule, on the graph or, for check_record, in the record
alone. So a journal that skips priority can break the decision, but not
the lift: each lift is a local exchange, and lift_solution checks its
result with verify_cvc on the input graph, and, for a journal it lifts
without replay, that the result stays within the journal's budget.

detect_rule and run_phase1 read R1-R7 off the index of
planarcvc.detection, which Phase 1 keeps alive across its steps and
which loads on first use.

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
  R8  non-adjacent u, v, each owning a pendant: merge the two pendants
      into one fresh 2-vertex c. Phase 2 (facematch) picks the pairs;
      the lift undoes the merge on the graph it lifts on.
"""

from __future__ import annotations

from enum import IntEnum
from operator import itemgetter
from typing import Callable, NamedTuple

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


class ReductionStep(NamedTuple):
    """One journaled rule application.

    site maps the rule's roles to vertex ids, plus what applying it added
    (fresh ids, R3's boolean 'cut' flag, R8's merged pendants);
    created/removed list fresh and deleted ids in a fixed per-rule order.
    Replaying the step on the pre-graph reproduces it and the post-graph.
    """

    rule: RuleId
    site: dict[str, int | bool]
    created: tuple[VertexId, ...]
    removed: tuple[VertexId, ...]
    k_delta: int


class Phase1Result(NamedTuple):
    """Where Phase 1 stopped: its graph, budget and steps; k < 0 is a NO."""

    graph: Graph
    k: int
    steps: list[ReductionStep]

    @property
    def early_no(self) -> bool:
        return self.k < 0


# ----------------------------------------------------------------------
# detection
# ----------------------------------------------------------------------


def detect_rule(g: Graph) -> tuple[RuleId, dict[str, int | bool]] | None:
    """Lowest-numbered applicable rule among R1-R7 with its smallest site.

    Builds the detection index in one pass and asks it once (see
    planarcvc.detection).
    """
    from .detection import Phase1Index

    return Phase1Index(g).detect()


def _separates(g: Graph, pair: tuple[VertexId, VertexId]) -> bool:
    """True iff deleting both vertices of pair disconnects g."""
    return not g.is_connected(g.adjacency().keys() - pair)


# ----------------------------------------------------------------------
# application and lifting
# ----------------------------------------------------------------------


def apply_rule(g: Graph, rule: RuleId, site: dict[str, int | bool]) -> ReductionStep:
    """Apply one rule of R1-R8 in place and return its record.

    The rule's roles are its applier's parameters after g. The applier
    gets the graph and the site's role values, checks them against the
    graph, changes it and returns the site's additions (new ids, R3's
    cut flag, R8's merged pendants), the created and removed ids and the
    budget change. The record's site is the roles plus those additions:
    a recorded site with any other key or addition does not replay. A
    site that lacks a role or does not match the graph raises
    RuleApplicationError before the graph changes. The roles that R3, R6
    and R7 hang fresh pendants on must ascend (R3 u < w, R6 x < v < y,
    R7 x < y), or a swapped pair would hang them on other parents under
    the same record and replay would fail later.
    """
    try:
        values = _READ_ROLES[rule](site)
    except KeyError:
        missing = sorted(set(_ROLES[rule]) - site.keys())
        raise RuleApplicationError(f"{rule.name}: site lacks the roles {missing}") from None
    added, created, removed, k_delta = _RULES[rule].apply(g, *values)
    rec = site | added
    if len(rec) != len(values) + len(added):
        # the site has a key that is neither a role nor an addition
        rec = dict(zip(_ROLES[rule], values)) | added
    return ReductionStep(rule, rec, created, removed, k_delta)


def lift_rule(g: Graph | None, step: ReductionStep, sol: set[VertexId]) -> None:
    """Turn a connected vertex cover of step's post-graph into one of its pre-graph.

    sol is edited in place and grows by at most -step.k_delta. R1-R7
    lift from their recorded site alone and do not touch g, which may be
    None, and never raise on a record that passes check_record, whatever
    sol holds. An R8 step needs g to be its post-graph and turns it
    into the pre-graph; R8 steps are a journal's tail, so a journal lifts
    step by step in reverse order on its kernel.
    """
    _RULES[step.rule].lift(g, step, sol)


def _require_neighbors(g: Graph, v: VertexId, roles: tuple[VertexId, ...], rule: str) -> None:
    """Require N(v) to be exactly the given roles, no two of them equal."""
    nbrs = g.adjacency().get(v)
    if nbrs is None or len(nbrs) != len(roles) or nbrs != set(roles):
        raise RuleApplicationError(f"{rule}: the neighbors of {v} are not {roles}")


def _require_pendant(g: Graph, p: VertexId, parent: VertexId, rule: str) -> None:
    """Require p to be a pendant of parent, i.e. N(p) == {parent}."""
    if g.adjacency().get(p) != {parent}:
        raise RuleApplicationError(f"{rule}: {p} is not a pendant of {parent}")


# (fresh pendant role, parent role) of the rules that hang fresh pendants:
# the applier hangs them in this order, the lift folds them into their parents.
_Pendants = tuple[tuple[str, str], ...]
_R3_PENDANTS = (("pu", "u"), ("pw", "w"))
_R6_PENDANTS = (("px", "x"), ("pv", "v"), ("py", "y"))
_R7_PENDANTS = (("px", "x"), ("py", "y"))

# an applier's site additions, created ids, removed ids and budget change
_Applied = tuple[dict[str, int | bool], tuple[VertexId, ...], tuple[VertexId, ...], int]


def _hang_pendants(g: Graph, pendants: _Pendants, parents: tuple[VertexId, ...]) -> dict[str, VertexId]:
    """Hang a fresh pendant on each parent, in order; map each pendant role to its id."""
    added = {}
    for (role, _), parent in zip(pendants, parents):
        added[role] = p = g.add_vertex()
        g.add_edge(parent, p)
    return added


def _fold_pendants(sol: set[VertexId], site: dict, pendants: _Pendants) -> None:
    """Replace each pendant in the solution by its parent.

    Safe because a pendant is a leaf of the induced subgraph (dropping it
    keeps connectivity) and its parent dominates it (covers a superset of
    edges, including the pendant edge itself). When sol is a cover, one of
    the two covers that edge, so the parent is in sol afterwards.
    """
    for role, parent in pendants:
        if site[role] in sol:
            sol.discard(site[role])
            sol.add(site[parent])


def _uncontract(sol: set[VertexId], site: dict, a: str, b: str) -> None:
    """Swap the contracted vertex c in the solution back for the ends a and b.

    A cover holds c here; a solution without it is left as it is.
    """
    if site["c"] in sol:
        sol.remove(site["c"])
        sol.update((site[a], site[b]))


def _apply_r1(g: Graph, v: VertexId, keep: VertexId) -> _Applied:
    if v not in g or keep not in g:
        raise RuleApplicationError("R1 site vertices missing")
    pendants = sorted(g.pendant_neighbors(v))
    if len(pendants) < 2:
        raise RuleApplicationError(f"R1: {v} does not have several pendants")
    if keep not in pendants:
        raise RuleApplicationError(f"R1: {keep} is not a pendant of {v}")
    dropped = tuple(p for p in pendants if p != keep)
    for p in dropped:
        g.remove_vertex(p)
    return {}, (), dropped, 0


def _lift_r1(g: Graph, step: ReductionStep, sol: set[VertexId]) -> None:
    # Extra pendants reappear; the parent covers all of them.
    _fold_pendants(sol, step.site, (("keep", "v"),))


def _apply_r2(g: Graph, v: VertexId, u: VertexId, w: VertexId) -> _Applied:
    _require_neighbors(g, v, (u, w), "R2")
    if not g.has_edge(u, w):
        raise RuleApplicationError("R2: uw is not an edge")
    c = g.contract_edge(u, w)
    return {"c": c}, (c,), (u, w), -1


def _lift_r2(g: Graph, step: ReductionStep, sol: set[VertexId]) -> None:
    # Undo the uw contraction; u-w is an edge, so both sides reconnect.
    _fold_pendants(sol, step.site, (("v", "c"),))
    _uncontract(sol, step.site, "u", "w")


def _apply_r3(g: Graph, v: VertexId, u: VertexId, w: VertexId) -> _Applied:
    _require_neighbors(g, v, (u, w), "R3")
    if not u < w:
        raise RuleApplicationError(f"R3: u and w must ascend, got {u}, {w}")
    if g.has_edge(u, w):
        raise RuleApplicationError("R3: uw must not be an edge")
    # v cuts its component iff its two neighbors are apart in G - v.
    if g.split_side(u, w, v.__ne__) is not None:
        c = g.contract_edge(u, v)
        return {"cut": True, "c": c}, (c,), (u, v), -1
    g.remove_vertex(v)
    pendants = _hang_pendants(g, _R3_PENDANTS, (u, w))
    return {"cut": False, **pendants}, tuple(pendants.values()), (v,), 0


def _lift_r3(g: Graph, step: ReductionStep, sol: set[VertexId]) -> None:
    site = step.site
    if not site["cut"]:
        # The fresh pendants forced u and w into the cover.
        _fold_pendants(sol, site, _R3_PENDANTS)
    elif site["c"] in sol:
        # Undo the uv contraction; v rejoins u to the w side.
        _uncontract(sol, site, "u", "v")
    else:
        # c's neighbors, w among them, are all in the cover; v covers u's
        # edge to it and joins w.
        sol.add(site["v"])


def _apply_r4(g: Graph, u: VertexId, v: VertexId, pu: VertexId, pv: VertexId) -> _Applied:
    if not g.has_edge(u, v):
        raise RuleApplicationError("R4: uv is not an edge")
    if len({u, v, pu, pv}) != 4:
        raise RuleApplicationError("R4: roles must be four distinct vertices")
    _require_pendant(g, pu, u, "R4")
    _require_pendant(g, pv, v, "R4")
    g.remove_vertex(pu)
    c = g.contract_edge(u, v)
    return {"c": c}, (c,), (pu, u, v), -1


def _lift_r4(g: Graph, step: ReductionStep, sol: set[VertexId]) -> None:
    _fold_pendants(sol, step.site, (("pv", "c"),))
    _uncontract(sol, step.site, "u", "v")


def _apply_r5(g: Graph, v: VertexId, x: VertexId, y: VertexId, z: VertexId) -> _Applied:
    _require_neighbors(g, v, (x, y, z), "R5")
    _require_pendant(g, z, v, "R5")
    g.remove_vertex(v)
    g.remove_vertex(z)
    g.ensure_edge(x, y)
    return {}, (), (v, z), -1


def _lift_r5(g: Graph, step: ReductionStep, sol: set[VertexId]) -> None:
    # v reconnects x and y even when the helper edge xy vanishes.
    sol.add(step.site["v"])


def _apply_r6(g: Graph, a: VertexId, b: VertexId, x: VertexId, v: VertexId, y: VertexId) -> _Applied:
    if a == b:
        raise RuleApplicationError(f"R6: the twins must be two vertices, got {a} twice")
    for t in (a, b):
        _require_neighbors(g, t, (x, v, y), "R6")
    if not x < v < y:
        raise RuleApplicationError(f"R6: x, v and y must ascend, got {x}, {v}, {y}")
    for pair in ((x, v), (x, y), (v, y)):
        if not _separates(g, pair):
            raise RuleApplicationError(f"R6: removing {pair} leaves the graph connected")
    g.remove_vertex(a)
    pendants = _hang_pendants(g, _R6_PENDANTS, (x, v, y))
    return pendants, tuple(pendants.values()), (a,), 0


def _lift_r6(g: Graph, step: ReductionStep, sol: set[VertexId]) -> None:
    _fold_pendants(sol, step.site, _R6_PENDANTS)


def _apply_r7(g: Graph, a: VertexId, v: VertexId, q: VertexId, x: VertexId, y: VertexId) -> _Applied:
    _require_neighbors(g, a, (x, v, y), "R7")
    _require_neighbors(g, v, (x, a, y, q), "R7")
    if not x < y:
        raise RuleApplicationError(f"R7: x and y must ascend, got {x}, {y}")
    _require_pendant(g, q, v, "R7")
    g.remove_vertex(a)
    g.remove_vertex(v)
    g.remove_vertex(q)
    g.ensure_edge(x, y)
    pendants = _hang_pendants(g, _R7_PENDANTS, (x, y))
    return pendants, tuple(pendants.values()), (a, v, q), -1


def _lift_r7(g: Graph, step: ReductionStep, sol: set[VertexId]) -> None:
    _fold_pendants(sol, step.site, _R7_PENDANTS)
    sol.add(step.site["v"])


def apply_identification(g: Graph, u: VertexId, v: VertexId, face_id: int) -> ReductionStep:
    """Merge the pendants of owners u and v found on face face_id (R8)."""
    return apply_rule(g, RuleId.R8, {"u": u, "v": v, "face": face_id})


def _merge_pendants(g: Graph, u: VertexId, v: VertexId, face: int) -> _Applied:
    """R8's applier: merge the pendants of u and v into one fresh 2-vertex c.

    The owners must be distinct and non-adjacent (guaranteed for Phase 1
    fixpoints because R4 removed adjacent pendant-owner pairs). A site
    that breaks this, as a tampered journal may, raises
    RuleApplicationError before the graph changes. In a connected graph
    c is never a cut vertex (u and v stay joined), so none is checked.
    face, the face Phase 2 found the pair on, is only recorded.
    """
    if u not in g or v not in g:
        raise RuleApplicationError(f"R8 owners {u}, {v} must be vertices")
    if u == v or g.has_edge(u, v):
        raise RuleApplicationError(f"R8 owners {u}, {v} must be distinct and non-adjacent")
    pu = sorted(g.pendant_neighbors(u))
    pv = sorted(g.pendant_neighbors(v))
    if not pu or not pv:
        raise RuleApplicationError(f"R8 owners {u}, {v} must both own a pendant")
    xu, xv = pu[0], pv[0]
    g.remove_vertex(xu)
    g.remove_vertex(xv)
    c = g.add_vertex()
    g.add_edge(u, c)
    g.add_edge(v, c)
    return {"xu": xu, "xv": xv, "c": c}, (c,), (xu, xv), 0


def _lift_r8(g: Graph, step: ReductionStep, sol: set[VertexId]) -> None:
    """Lift across one pendant identification on its post-graph g, then undo it.

    The merged 2-vertex c has neighbors u and v. When the solution holds
    c and both owners, dropping c leaves at most two parts, u's and v's;
    split_side finds whether they are apart, searching only as far as
    the smaller part. If so, the smallest non-cover vertex z != c next
    to the returned part with a cover neighbor outside it rejoins them.
    One always exists because c is not a cut vertex of the merged graph
    (replay_journal checked connectivity before the first R8 step).
    The undo removes c and hangs the pendants xu and xv on u and v again
    under their recorded ids.
    """
    site = step.site
    u, v, c = site["u"], site["v"], site["c"]
    if c not in sol:
        assert u in sol and v in sol
    else:
        sol.discard(c)
        u_in, v_in = u in sol, v in sol
        if not u_in and not v_in:
            raise AssertionError("merged 2-vertex alone cannot be a cover of a connected graph")
        if u_in != v_in:
            # c was a leaf of the induced cover; re-cover the missing
            # owner's pendant by taking the owner itself.
            sol.add(v if u_in else u)
        elif (side := g.split_side(u, v, sol.__contains__)) is not None:
            adj = g.adjacency()
            rim = {z for x in side for z in adj[x] if z not in sol}
            rim.discard(c)
            joins = [z for z in rim if any(w in sol and w not in side for w in adj[z])]
            if not joins:
                raise AssertionError("no reconnecting vertex found; upstream bug")
            sol.add(min(joins))
    assert g.adjacency()[c] == {u, v}, "R8 undo needs the merged 2-vertex"
    g.remove_vertex(c)
    for owner, pendant in ((u, site["xu"]), (v, site["xv"])):
        g.add_named_vertex(pendant)
        g.add_edge(owner, pendant)


class _Rule(NamedTuple):
    apply: Callable[..., _Applied]
    lift: Callable[[Graph | None, ReductionStep, set[VertexId]], None]
    # What the applier writes into its record beside the site's roles, by
    # the site's cut flag (R3's under True and False, any other rule's
    # under None): the site additions that hold its fresh ids, in the
    # order it creates them; the site keys of the ids it removes, in its
    # order (None for R1, whose dropped pendants no key names); its budget
    # change; and its other additions (R3's cut flag, R8's merged pendants).
    records: dict[bool | None, tuple]


def _fresh(pendants: _Pendants) -> tuple[str, ...]:
    return tuple(role for role, _ in pendants)


_RULES = {
    RuleId.R1: _Rule(_apply_r1, _lift_r1, {None: ((), None, 0, ())}),
    RuleId.R2: _Rule(_apply_r2, _lift_r2, {None: (("c",), ("u", "w"), -1, ())}),
    RuleId.R3: _Rule(_apply_r3, _lift_r3, {
        True: (("c",), ("u", "v"), -1, ("cut",)),
        False: (_fresh(_R3_PENDANTS), ("v",), 0, ("cut",)),
    }),
    RuleId.R4: _Rule(_apply_r4, _lift_r4, {None: (("c",), ("pu", "u", "v"), -1, ())}),
    RuleId.R5: _Rule(_apply_r5, _lift_r5, {None: ((), ("v", "z"), -1, ())}),
    RuleId.R6: _Rule(_apply_r6, _lift_r6, {None: (_fresh(_R6_PENDANTS), ("a",), 0, ())}),
    RuleId.R7: _Rule(_apply_r7, _lift_r7, {None: (_fresh(_R7_PENDANTS), ("a", "v", "q"), -1, ())}),
    RuleId.R8: _Rule(_merge_pendants, _lift_r8, {None: (("c",), ("xu", "xv"), 0, ("xu", "xv"))}),
}
# each rule's roles, the site keys it reads: its applier's parameters after g
_ROLES = {rule: e.apply.__code__.co_varnames[1 : e.apply.__code__.co_argcount] for rule, e in _RULES.items()}
# site -> its role values in one C call (two roles or more: a tuple)
_READ_ROLES = {rule: itemgetter(*roles) for rule, roles in _ROLES.items()}

# each rule's site keys by the cut flag: its roles and its record's additions
_SITE_KEYS = {
    rule: {cut: frozenset((*_ROLES[rule], *created, *marks)) for cut, (created, _, _, marks) in e.records.items()}
    for rule, e in _RULES.items()
}


def check_record(step: ReductionStep, live: set[VertexId], top: VertexId) -> VertexId:
    """Check one journal record without its graph and move past it.

    live holds the ids of the record's pre-graph, top the largest id
    that the journal's input or an earlier record holds. The site's keys
    must be the rule's roles plus its additions (for R3, those its cut
    flag names), k_delta the rule's, created the site's fresh ids in the
    order the applier creates them, each above every id before it, and
    removed the ids of the site keys the rule removes (for R1, any ids
    but v and keep), each live. Raises RuleApplicationError naming the
    first check that fails; otherwise drops the removed ids from live,
    adds the created ones and returns the new top. lift_rule lifts a
    record that passes, R1-R7 without a graph, without raising, whatever
    the solution; the site's other ids are not checked, so what it
    lifts to needs a check of its own.
    """
    rule, site = step.rule, step.site
    cut = site.get("cut")
    keys = _SITE_KEYS[rule].get(cut)  # None: a cut flag the rule has no record for
    if keys is None or site.keys() != keys:
        expected = " or ".join(map(str, map(sorted, _SITE_KEYS[rule].values() if keys is None else (keys,))))
        raise RuleApplicationError(f"{rule.name}: site keys {sorted(site)} are not {expected}")
    created_keys, removed_keys, k_delta, _ = _RULES[rule].records[cut]
    if step.k_delta != k_delta:
        raise RuleApplicationError(f"{rule.name}: k_delta {step.k_delta} is not {k_delta}")
    created = tuple(map(site.__getitem__, created_keys))
    if step.created != created:
        raise RuleApplicationError(f"{rule.name}: created {step.created} is not the site's fresh ids {created}")
    for c in created:
        if c <= top:
            raise RuleApplicationError(f"{rule.name}: created id {c} is not above every id before it")
        top = c
    if removed_keys is None:
        if site["v"] in step.removed or site["keep"] in step.removed:
            raise RuleApplicationError(f"{rule.name}: removed {step.removed} holds v or keep")
    elif step.removed != (removed := tuple(map(site.__getitem__, removed_keys))):
        raise RuleApplicationError(f"{rule.name}: removed {step.removed} is not the site's {removed}")
    for r in step.removed:
        if r not in live:
            raise RuleApplicationError(f"{rule.name}: removed id {r} is not live")
        live.remove(r)
    live.update(created)
    return top


# ----------------------------------------------------------------------
# the phase loop
# ----------------------------------------------------------------------


def run_phase1(g: Graph, k: int) -> Phase1Result:
    """Apply R1-R7 exhaustively to g, in place.

    Detection restarts from R1 after every application, on one index
    that each application keeps up to date. Stops early, with k < 0
    (early_no), once the budget is negative, since no graph has a
    connected vertex cover of negative size.
    """
    from .detection import Phase1Index

    steps: list[ReductionStep] = []
    index = Phase1Index(g)
    while k >= 0 and (found := index.detect()) is not None:
        step = index.apply(*found)
        k += step.k_delta
        steps.append(step)
    return Phase1Result(g, k, steps)
