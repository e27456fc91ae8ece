"""Independent brute-force oracles for cross-checking the library.

These deliberately share no algorithm with the package: the matcher is a
bitmask DP over vertex subsets, the cover search enumerates subsets in
increasing size, and the rule detector finds R1-R7 by rescanning the
sorted vertex and edge lists once per rule, so agreement with the
library is meaningful. dfs_tree_cover is a polynomial-time connected
vertex cover for checks beyond the exact solver's reach; non_leaf_cover
is a larger one that holds every merged 2-vertex with both its owners.
reference_is_cut_vertex is the whole-graph cut-vertex test that R3 used
before it asked Graph.split_side, kept as that primitive's reference.
reference_contract_edge is Graph.contract_edge as it was before it worked
in place: remove both ends, then add every inherited edge one at a time.
reference_is_connected joins the ends of each induced edge by union-find,
so the cover checks here do not lean on Graph's breadth-first search.

The reference_* text-format and verifier functions are the package's
parse_graph, parse_solution, serialize_graph, serialize_journal,
parse_journal_steps and verify_cvc as they were before their rewrites
(edge-by-edge Graph.add_edge, one label per line, a second sort after
relabelling, one json.dumps or json.loads per record, a sorted scan of
every edge), kept as the references the rewrites are compared with.
reference_parse_graph accepts counts and ids that a regular expression
for ASCII digits matches; the package checks the text's characters.
reference_maximum_matching is the blossom matcher before its searches
became local to their trees; the matchings must be equal, edge for edge.
reference_faces is the face tracer on vertex ids and successor dicts
that embed used before faces were walked on half-edges; the face lists
must be equal, face for face. rotation reads an Embedding's rotation
system off its half-edges in vertex ids, the form networkx and
reference_faces take; the package itself never needs it.

The helpers at the top have no caller in the package and only state
what tests check: graph_from_edges builds a graph from an edge list,
check_graph asserts Graph's simple-graph invariants, check_matching
asserts that a Matching is one of its graph, tightness_cover is the
ring family's canonical cover (pendant owners plus the two hubs), and
pendant_wheel builds the wheel family, whose outer face holds every
pendant owner.
Whether a graph has a connected vertex cover of size at most k is
minimum_cvc(g, k) is not None.
"""

from __future__ import annotations

import json
import re
from collections import deque
from functools import lru_cache
from itertools import combinations
from typing import Iterable

from planarcvc.embedding import Embedding, Face
from planarcvc.facematch import pendant_owners
from planarcvc.fileio import GraphParseError
from planarcvc.graph import Graph, VertexId
from planarcvc.matching import Matching
from planarcvc.pipeline import ReductionJournal
from planarcvc.reductions import ReductionStep, RuleId


def graph_from_edges(
    edges: Iterable[tuple[VertexId, VertexId]],
    vertices: Iterable[VertexId] = (),
) -> Graph:
    """Build a graph from explicit edges plus optional extra vertices."""
    g = Graph()
    for v in vertices:
        if v not in g:
            g.add_named_vertex(v)
    for u, w in edges:
        if u not in g:
            g.add_named_vertex(u)
        if w not in g:
            g.add_named_vertex(w)
        g.add_edge(u, w)
    return g


def check_graph(g: Graph) -> None:
    """Assert the simple-graph invariants: no loop, symmetric, edge count in sync."""
    adj = g.adjacency()
    for v, nbrs in adj.items():
        assert v not in nbrs, f"self-loop at {v}"
        for w in nbrs:
            assert w in adj, f"dangling neighbor {w} of {v}"
            assert v in adj[w], f"asymmetric edge ({v},{w})"
    assert sum(map(len, adj.values())) == 2 * g.n_edges, "edge count out of sync"


def check_matching(m: Matching, g: Graph) -> None:
    """Assert that m's pairs are edges of g and share no endpoint."""
    seen: set[VertexId] = set()
    for u, w in m.edges:
        assert g.has_edge(u, w), f"matched pair ({u},{w}) is not an edge"
        assert u not in seen and w not in seen, f"({u},{w}) shares an endpoint"
        seen.update((u, w))


def tightness_cover(g: Graph) -> set[VertexId]:
    """The canonical cover of a ring-family graph: pendant owners plus hubs.

    The hubs are recovered structurally as the two highest-degree
    vertices (degree 6*copies, far above every owner).
    """
    hubs = sorted(g.vertices(), key=lambda v: (-g.degree(v), v))[:2]
    return set(pendant_owners(g)) | set(hubs)


def pendant_wheel(m: int) -> Graph:
    """A rim of 2m vertices 1..2m, each joined to the hub 2m + 1, with the
    pendant 2m + 1 + i on the rim vertex 2i - 1 for i = 1..m.

    No rule of R1-R7 fires on it, and the outer face holds all m pendant
    owners, so Phase 2 matches m owners that share one face.
    """
    hub = 2 * m + 1
    edges = [(r, r % (2 * m) + 1) for r in range(1, hub)]
    edges += [(r, hub) for r in range(1, hub)]
    edges += [(2 * i - 1, hub + i) for i in range(1, m + 1)]
    return graph_from_edges(edges)


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
                reference_is_connected(g, chosen)
            ):
                return size
    return None


def reference_is_connected(g: Graph, subset: set[VertexId] | frozenset[VertexId]) -> bool:
    """True iff subset induces a connected subgraph of g (empty: True).

    Union-find over the edges with both ends in subset: connected iff
    the unions leave one root.
    """
    parent = {v: v for v in subset}

    def root(v: VertexId) -> VertexId:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, w in g.edges():
        if u in parent and w in parent:
            parent[root(u)] = root(w)
    return len({root(v) for v in subset}) <= 1


def dfs_tree_cover(g: Graph) -> set[VertexId]:
    """The non-leaf vertices of a DFS tree of a connected graph.

    A connected vertex cover of size at most twice the minimum (Savage
    1982): every non-tree edge joins a vertex to one of its ancestors,
    and the inner vertices of a tree induce a subtree. The search starts
    at the smallest vertex and visits neighbours in ascending order.
    """
    if g.n_vertices == 0:
        return set()
    root = min(g.vertices())
    seen = {root}
    inner: set[VertexId] = set()
    stack = [(root, iter(g.neighbors(root)))]
    while stack:
        v, nbrs = stack[-1]
        for w in nbrs:
            if w not in seen:
                seen.add(w)
                inner.add(v)
                stack.append((w, iter(g.neighbors(w))))
                break
        else:
            stack.pop()
    return inner


def non_leaf_cover(g: Graph) -> set[VertexId]:
    """Every vertex of degree at least 2 of a connected graph.

    A connected vertex cover: removing leaves keeps a graph connected,
    and a leaf's one edge ends at a non-leaf, except on a single edge,
    where the smaller end is taken. On a kernel that holds merged
    2-vertices it takes each of them together with both its owners, so
    lifting it asks, at every merge, whether the owners stay joined
    without the merged vertex.
    """
    adj = g.adjacency()
    inner = {v for v, nbrs in adj.items() if len(nbrs) > 1}
    return inner if inner or not adj else {min(adj)}


def reference_is_cut_vertex(g: Graph, v: VertexId) -> bool:
    """True iff deleting v disconnects g; ValueError when g is disconnected.

    Two BFS over the sorted neighbor lists, neither entering v: from v
    it reaches v's component of g, and from any other vertex its
    component of g - v.
    """

    def reach(start: VertexId) -> set[VertexId]:
        seen = {start}
        queue = deque([start])
        while queue:
            for y in g.neighbors(queue.popleft()):
                if y != v and y not in seen:
                    seen.add(y)
                    queue.append(y)
        return seen

    verts = g.vertices()
    rest = [x for x in verts if x != v]
    if len(reach(v)) != len(verts):
        raise ValueError("reference_is_cut_vertex requires a connected graph")
    return bool(rest) and len(reach(rest[0])) != len(rest)


def reference_contract_edge(g: Graph, u: VertexId, w: VertexId) -> VertexId:
    """Contract u-w into a fresh vertex through remove_vertex and add_edge."""
    if not g.has_edge(u, w):
        raise ValueError(f"cannot contract absent edge ({u},{w})")
    merged = (g.neighbor_set(u) | g.neighbor_set(w)) - {u, w}
    g.remove_vertex(u)
    g.remove_vertex(w)
    c = g.add_vertex()
    for x in merged:
        g.add_edge(c, x)
    return c


def reference_maximum_matching(g: Graph) -> Matching:
    """The blossom matcher as it was before its searches became local.

    Every augmenting-path search resets parent, base and in_queue over
    the whole graph, and lca and blossom shrinking scan n-sized lists.
    """
    verts = g.vertices()
    n = len(verts)
    if n == 0:
        return Matching()
    index = {v: i for i, v in enumerate(verts)}
    adj = [[index[w] for w in g.neighbors(v)] for v in verts]

    match = [-1] * n
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n

    def lca(a: int, b: int) -> int:
        used = [False] * n
        while True:
            a = base[a]
            used[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if used[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting_path(root: int) -> int:
        for i in range(n):
            parent[i] = -1
            base[i] = i
            in_queue[i] = False
        in_queue[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # Odd cycle: shrink the blossom around the common ancestor.
                    cur_base = lca(v, to)
                    in_blossom = [False] * n
                    mark_path(v, cur_base, to, in_blossom)
                    mark_path(to, cur_base, v, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = cur_base
                            if not in_queue[i]:
                                in_queue[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        return to
                    if not in_queue[match[to]]:
                        in_queue[match[to]] = True
                        queue.append(match[to])
        return -1

    for v in range(n):
        if match[v] != -1:
            continue
        leaf = find_augmenting_path(v)
        if leaf == -1:
            continue
        # Alternate matched/unmatched edges back to the root.
        while leaf != -1:
            pv = parent[leaf]
            next_leaf = match[pv]
            match[leaf] = pv
            match[pv] = leaf
            leaf = next_leaf

    pairs = frozenset(
        (min(verts[i], verts[match[i]]), max(verts[i], verts[match[i]]))
        for i in range(n)
        if match[i] > i
    )
    return Matching(edges=pairs)



def reference_detect_rule(g: Graph) -> tuple[RuleId, dict[str, int | bool]] | None:
    """Rule detection by one sorted rescan per rule, in priority order.

    Each finder returns the smallest site of its rule. The R6 finder
    decides separation with reference_is_connected, so no finder shares
    code with the package's detection.
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
                return {"v": v, "u": u, "w": w}
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
    everything = set(g.vertices())
    for a, b, (x, v, y) in candidates:
        if not any(reference_is_connected(g, everything - set(pair)) for pair in ((x, v), (x, y), (v, y))):
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


def reference_parse_graph(text: str) -> tuple[Graph, dict[int, VertexId]]:
    header: tuple[int, int] | None = None
    g = Graph()
    mapping: dict[int, VertexId] = {}
    edges_seen = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if header is not None:
                raise GraphParseError("duplicate header", line_no)
            if len(fields) != 4 or fields[1] != "cvc":
                raise GraphParseError(f"malformed header {line!r}", line_no)
            try:
                n, m = _reference_decimal(fields[2]), _reference_decimal(fields[3])
            except ValueError:
                raise GraphParseError(f"malformed header {line!r}", line_no) from None
            header = (n, m)
            for label in range(1, n + 1):
                mapping[label] = g.add_named_vertex(label)
        elif fields[0] == "e":
            if header is None:
                raise GraphParseError("edge before header", line_no)
            if len(fields) != 3:
                raise GraphParseError(f"malformed edge line {line!r}", line_no)
            try:
                u, v = _reference_decimal(fields[1]), _reference_decimal(fields[2])
            except ValueError:
                raise GraphParseError(f"malformed edge line {line!r}", line_no) from None
            n = header[0]
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphParseError(f"vertex id out of range in {line!r}", line_no)
            if u == v:
                raise GraphParseError(f"self-loop at vertex {u}", line_no)
            if g.has_edge(mapping[u], mapping[v]):
                raise GraphParseError(f"duplicate edge ({u},{v})", line_no)
            g.add_edge(mapping[u], mapping[v])
            edges_seen += 1
        else:
            raise GraphParseError(f"unknown line type {fields[0]!r}", line_no)
    if header is None:
        raise GraphParseError("missing header", 1)
    if edges_seen != header[1]:
        raise GraphParseError(
            f"header announced {header[1]} edges, found {edges_seen}",
            len(text.splitlines()) or 1,
        )
    return g, mapping


def _reference_decimal(token: str) -> int:
    """int(token) for a token of ASCII digits 0-9 only; ValueError otherwise."""
    if re.fullmatch("[0-9]+", token) is None:
        raise ValueError(f"not a decimal: {token!r}")
    return int(token)


def reference_parse_solution(text: str) -> set[int]:
    out = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        try:
            out.add(_reference_decimal(line))
        except ValueError:
            raise GraphParseError(f"bad solution line {line!r}", line_no) from None
    return out


def reference_serialize_graph(g: Graph) -> str:
    order = {v: i for i, v in enumerate(g.vertices(), start=1)}
    edges = sorted(
        (min(order[u], order[w]), max(order[u], order[w])) for u, w in g.edges()
    )
    lines = [f"p cvc {g.n_vertices} {len(edges)}"]
    lines.extend(f"e {u} {w}" for u, w in edges)
    return "\n".join(lines) + "\n"


def reference_serialize_journal(journal: ReductionJournal) -> str:
    lines = []
    for idx, step in enumerate(journal.steps):
        record = {
            "step_index": idx,
            "rule": step.rule.name,
            "site": step.site,
            "created": list(step.created),
            "removed": list(step.removed),
            "k_delta": step.k_delta,
        }
        lines.append(json.dumps(record, sort_keys=True))
    return "".join(line + "\n" for line in lines)


def reference_parse_journal_steps(text: str) -> list[ReductionStep]:
    steps = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            index = record["step_index"]
            step = ReductionStep(
                rule=RuleId[record["rule"]],
                site=record["site"],
                created=tuple(record["created"]),
                removed=tuple(record["removed"]),
                k_delta=record["k_delta"],
            )
        except (ValueError, RecursionError, KeyError, TypeError) as exc:
            raise GraphParseError(f"bad journal record: {exc}", line_no) from None
        if type(index) is not int or type(step.k_delta) is not int:
            raise GraphParseError("bad journal record: step_index and k_delta must be integers", line_no)
        if not all(type(v) is int for v in step.created + step.removed):
            raise GraphParseError("bad journal record: created/removed ids must be integers", line_no)
        if not _reference_site_typed(step.rule, step.site):
            raise GraphParseError("bad journal record: site values must be integers, R3's cut a bool", line_no)
        if index != len(steps):
            raise GraphParseError(f"journal records out of order at index {index}", line_no)
        steps.append(step)
    return steps


def _reference_site_typed(rule: RuleId, site: object) -> bool:
    return type(site) is dict and all(
        type(value) is (bool if rule is RuleId.R3 and role == "cut" else int)
        for role, value in site.items()
    )


def reference_verify_cvc(g: Graph, s: set[VertexId] | frozenset[VertexId]) -> bool:
    for v in s:
        if v not in g:
            raise KeyError(f"solution vertex {v} is not in the graph")
    for u, w in g.edges():
        if u not in s and w not in s:
            return False
    return reference_is_connected(g, s)


def rotation(e: Embedding) -> dict[VertexId, tuple[VertexId, ...]]:
    """Each vertex's neighbors in rotation order, from its leftmost half-edge."""
    vertices, ends, cw = e.vertices, e.ends, e.cw
    out = {}
    for v, first in zip(vertices, e.leftmost):
        around = []
        if first >= 0:
            around.append(vertices[ends[first]])
            h = cw[first]
            while h != first:
                around.append(vertices[ends[h]])
                h = cw[h]
        out[v] = tuple(around)
    return out


def reference_faces(rotation: dict[VertexId, tuple[VertexId, ...]]) -> tuple[Face, ...]:
    """Faces in the order of their smallest starting dart (u, w), u then w.

    The edge after (u, v) on a face is (v, w), w the successor of u in
    the rotation at v.
    """
    succ = {v: dict(zip(rot, rot[1:] + rot[:1])) for v, rot in rotation.items()}
    vertices = sorted(rotation)
    if not any(succ[v] for v in vertices):
        # Edgeless connected graph is a single vertex: one face around it.
        return (Face(boundary=(), incident_vertices=tuple(vertices)),)

    faces = []
    visited: set[tuple[VertexId, VertexId]] = set()
    for u0 in vertices:
        for w0 in sorted(succ[u0]):
            if (u0, w0) in visited:
                continue
            walk = []
            seen: set[VertexId] = set()
            first: list[VertexId] = []
            dart = (u0, w0)
            while dart not in visited:
                visited.add(dart)
                walk.append(dart)
                u, v = dart
                if u not in seen:
                    seen.add(u)
                    first.append(u)
                dart = (v, succ[v][u])
            if dart != (u0, w0):
                raise AssertionError("face walk did not close on its starting edge")
            faces.append(Face(boundary=tuple(walk), incident_vertices=tuple(first)))
    return tuple(faces)
