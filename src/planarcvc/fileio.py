"""Text formats: DIMACS-style graph files, journal files, solution files.

Graph files: a header line ``p cvc <n> <m>`` followed by exactly m edge
lines ``e <u> <v>`` with 1-based ids in 1..n; ``c ...`` comment lines are
ignored anywhere. Counts, ids and solution labels are ASCII decimal
digits only: no sign, no underscore, no other script's digits.
Serialization is canonical (vertices renumbered 1..n by ascending id,
edges sorted), so parse-then-serialize is idempotent.

Journal files hold one JSON object per line with the fields step_index,
rule, site, created, removed and k_delta; step_index, k_delta, ids and
site values are JSON integers, except R3's cut flag, a boolean.
Replaying a journal against its input file (after stripping isolated
vertices) reproduces the kernel file byte for byte under canonical
serialization.
"""

from __future__ import annotations

import json

from .graph import Graph, InputError, VertexId
from .pipeline import ReductionJournal
from .reductions import ReductionStep, RuleId


class GraphParseError(InputError):
    """Malformed graph file; carries the 1-based offending line number."""

    def __init__(self, message: str, line_no: int) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_graph(text: str) -> tuple[Graph, dict[int, VertexId]]:
    """Parse a graph file; returns the graph and the label -> id mapping.

    File labels 1..n map onto the same internal ids, so the mapping is
    the identity; it is returned anyway so callers never have to assume
    that. Each edge is checked here, once, and the checked adjacency is
    handed to Graph.from_adjacency.
    """
    header: tuple[int, int] | None = None
    adj: dict[VertexId, set[VertexId]] = {}
    n = 0
    edges_seen = 0
    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields:
            continue
        tag = fields[0]
        if tag == "e":
            if header is None:
                raise GraphParseError("edge before header", line_no)
            if len(fields) != 3:
                raise GraphParseError(f"malformed edge line {raw.strip()!r}", line_no)
            try:
                u, v = _decimal(fields[1]), _decimal(fields[2])
            except ValueError:
                raise GraphParseError(f"malformed edge line {raw.strip()!r}", line_no) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphParseError(f"vertex id out of range in {raw.strip()!r}", line_no)
            if u == v:
                raise GraphParseError(f"self-loop at vertex {u}", line_no)
            nbrs = adj[u]
            if v in nbrs:
                raise GraphParseError(f"duplicate edge ({u},{v})", line_no)
            nbrs.add(v)
            adj[v].add(u)
            edges_seen += 1
        elif tag[0] == "c":
            continue
        elif tag == "p":
            if header is not None:
                raise GraphParseError("duplicate header", line_no)
            if len(fields) != 4 or fields[1] != "cvc":
                raise GraphParseError(f"malformed header {raw.strip()!r}", line_no)
            try:
                n, m = _decimal(fields[2]), _decimal(fields[3])
            except ValueError:
                raise GraphParseError(f"malformed header {raw.strip()!r}", line_no) from None
            header = (n, m)
            adj = {label: set() for label in range(1, n + 1)}
        else:
            raise GraphParseError(f"unknown line type {tag!r}", line_no)
    if header is None:
        raise GraphParseError("missing header", 1)
    if edges_seen != header[1]:
        raise GraphParseError(
            f"header announced {header[1]} edges, found {edges_seen}",
            len(lines),
        )
    return Graph.from_adjacency(adj), {label: label for label in adj}


def _decimal(token: str) -> int:
    """token as an integer if it is ASCII decimal digits only; ValueError otherwise."""
    if token.isdigit() and token.isascii():
        return int(token)
    raise ValueError(f"not a decimal: {token!r}")


def serialize_graph(g: Graph) -> str:
    """Canonical text form: vertices renumbered 1..n ascending, edges sorted.

    The renumbering keeps the id order, so edges sorted by id are also
    sorted by label.
    """
    label = canonical_labels(g)
    lines = [f"p cvc {g.n_vertices} {g.n_edges}"]
    lines.extend(f"e {label[u]} {label[w]}" for u, w in g.edges())
    return "\n".join(lines) + "\n"


def canonical_labels(g: Graph) -> dict[VertexId, int]:
    """Internal id -> 1-based label used by serialize_graph."""
    return {v: i for i, v in enumerate(g.vertices(), start=1)}


# ----------------------------------------------------------------------
# solutions
# ----------------------------------------------------------------------


def parse_solution(text: str) -> set[int]:
    """One 1-based vertex label per line; blank and comment lines ignored."""
    out = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        try:
            out.add(_decimal(line))
        except ValueError:
            raise GraphParseError(f"bad solution line {line!r}", line_no) from None
    return out


def serialize_solution(labels: set[int]) -> str:
    return "".join(f"{v}\n" for v in sorted(labels))


# ----------------------------------------------------------------------
# journals
# ----------------------------------------------------------------------


def serialize_journal(journal: ReductionJournal) -> str:
    encode = json.JSONEncoder(sort_keys=True).encode
    return "".join(
        encode({
            "step_index": idx,
            "rule": step.rule.name,
            "site": step.site,
            "created": step.created,
            "removed": step.removed,
            "k_delta": step.k_delta,
        }) + "\n"
        for idx, step in enumerate(journal.steps)
    )


def parse_journal_steps(text: str) -> list[ReductionStep]:
    """Parse journal records; the input graph is supplied separately."""
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
        if not set(map(type, step.created + step.removed)) <= _INT:
            raise GraphParseError("bad journal record: created/removed ids must be integers", line_no)
        if not _site_typed(step.rule, step.site):
            raise GraphParseError("bad journal record: site values must be integers, R3's cut a bool", line_no)
        if index != len(steps):
            raise GraphParseError(
                f"journal records out of order at index {index}", line_no
            )
        steps.append(step)
    return steps


_INT = {int}


def _site_typed(rule: RuleId, site: object) -> bool:
    """True iff site maps roles to integers, except R3's cut flag, a bool."""
    if type(site) is not dict:
        return False
    if rule is RuleId.R3 and "cut" in site:
        site = dict(site)
        if type(site.pop("cut")) is not bool:
            return False
    return set(map(type, site.values())) <= _INT


def journal_for_input(g: Graph, steps: list[ReductionStep]) -> ReductionJournal:
    """Rebuild an in-memory journal that takes the parsed input graph g over."""
    return ReductionJournal(
        input_graph=g,
        dropped_isolated=tuple(g.isolated_vertices()),
        steps=list(steps),
    )
