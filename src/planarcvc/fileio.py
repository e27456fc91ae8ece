"""Text formats: DIMACS-style graph files, journal files, solution files.

Graph files: a header line ``p cvc <n> <m>`` followed by exactly m edge
lines ``e <u> <v>`` with 1-based ids in 1..n; ``c ...`` comment lines are
ignored anywhere. Serialization is canonical (vertices renumbered 1..n by
ascending id, edges sorted), so parse-then-serialize is idempotent.

Journal files hold one JSON object per line with the fields step_index,
rule, site, created, removed and k_delta. Replaying a journal against its
input file (after stripping isolated vertices) reproduces the kernel file
byte for byte under canonical serialization.
"""

from __future__ import annotations

import json

from .graph import Graph, VertexId
from .pipeline import ReductionJournal
from .reductions import ReductionStep, RuleId


class GraphParseError(Exception):
    """Malformed graph file; carries the 1-based offending line number."""

    def __init__(self, message: str, line_no: int) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_graph(text: str) -> tuple[Graph, dict[int, VertexId]]:
    """Parse a graph file; returns the graph and the label -> id mapping.

    File labels 1..n map onto the same internal ids, so the mapping is
    the identity; it is returned anyway so callers never have to assume
    that.
    """
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
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise GraphParseError(f"malformed header {line!r}", line_no) from None
            if n < 0 or m < 0:
                raise GraphParseError("negative counts in header", line_no)
            header = (n, m)
            for label in range(1, n + 1):
                mapping[label] = g.add_named_vertex(label)
        elif fields[0] == "e":
            if header is None:
                raise GraphParseError("edge before header", line_no)
            if len(fields) != 3:
                raise GraphParseError(f"malformed edge line {line!r}", line_no)
            try:
                u, v = int(fields[1]), int(fields[2])
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


def serialize_graph(g: Graph) -> str:
    """Canonical text form: vertices renumbered 1..n ascending, edges sorted."""
    order = {v: i for i, v in enumerate(g.vertices(), start=1)}
    edges = sorted(
        (min(order[u], order[w]), max(order[u], order[w])) for u, w in g.edges()
    )
    lines = [f"p cvc {g.n_vertices} {len(edges)}"]
    lines.extend(f"e {u} {w}" for u, w in edges)
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
            out.add(int(line))
        except ValueError:
            raise GraphParseError(f"bad solution line {line!r}", line_no) from None
    return out


def serialize_solution(labels: set[int]) -> str:
    return "".join(f"{v}\n" for v in sorted(labels))


# ----------------------------------------------------------------------
# journals
# ----------------------------------------------------------------------


def serialize_journal(journal: ReductionJournal) -> str:
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
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise GraphParseError(f"bad journal record: {exc}", line_no) from None
        if not all(type(v) is int for v in step.created + step.removed):
            raise GraphParseError("bad journal record: created/removed ids must be integers", line_no)
        if index != len(steps):
            raise GraphParseError(
                f"journal records out of order at index {index}", line_no
            )
        steps.append(step)
    return steps


def journal_for_input(g: Graph, steps: list[ReductionStep]) -> ReductionJournal:
    """Rebuild an in-memory journal for a parsed input graph."""
    return ReductionJournal(
        input_graph=g.copy(),
        dropped_isolated=tuple(g.isolated_vertices()),
        steps=list(steps),
    )
