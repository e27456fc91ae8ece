"""Text formats: DIMACS-style graph files, journal files, solution files.

Graph files: a header line ``p cvc <n> <m>`` followed by exactly m edge
lines ``e <u> <v>`` with 1-based ids in 1..n; ``c ...`` comment lines are
ignored anywhere. Counts, ids and solution labels are ASCII decimal
digits only: no sign, no underscore, no other script's digits.
Serialization is canonical (vertices renumbered 1..n by ascending id,
edges sorted), so parse-then-serialize is idempotent.

Graph and solution texts in the exact form serialize_graph and
serialize_solution write (LF line ends, single spaces, no comments, no
leading zeros) are read in bulk: one regular-expression match of the
whole text, one split and whole-list checks. Any other text, and any
canonical-shaped text that fails a check, goes to the line-by-line
reader, which is the only one that raises GraphParseError, so messages
and line numbers do not depend on which reader saw the text first.

Journal files hold one JSON object per line with the fields step_index,
rule, site, created, removed and k_delta; step_index, k_delta, ids and
site values are JSON integers, except R3's cut flag, a boolean. Each
record is written with one format string, byte for byte what
``json.JSONEncoder(sort_keys=True)`` writes, and read with one
``JSONDecoder.raw_decode``, with json.loads's error texts; json loads
only with the reader, so writing a journal does not import it. Replaying a
journal against its input file (after stripping isolated vertices)
reproduces the kernel file byte for byte under canonical serialization.
"""

from __future__ import annotations

import re

from .graph import Graph, InputError, VertexId
from .pipeline import ReductionJournal
from .reductions import ReductionStep, RuleId


class GraphParseError(InputError):
    """Malformed graph file; carries the 1-based offending line number."""

    def __init__(self, message: str, line_no: int) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_CANONICAL_GRAPH = re.compile(r"p cvc (?:0|[1-9][0-9]*) (?:0|[1-9][0-9]*)\n(?:e [1-9][0-9]* [1-9][0-9]*\n)*")


def parse_graph(text: str) -> tuple[Graph, dict[int, VertexId]]:
    """Parse a graph file; returns the graph and the label -> id mapping.

    File labels 1..n are the internal ids: the mapping, and the parsed
    graph's canonical_labels, are the identity, so callers may assume it.
    Each edge is checked here, once, and the checked adjacency is
    handed to Graph.from_adjacency. Both readers add the edges in file
    order, so the neighbour sets iterate in the same order either way.
    """
    adj = _parse_canonical_graph(text) if _CANONICAL_GRAPH.fullmatch(text) else None
    if adj is None:
        adj = _parse_graph_lines(text)
    return Graph.from_adjacency(adj), {label: label for label in adj}


def _parse_canonical_graph(text: str) -> dict[VertexId, set[VertexId]] | None:
    """The adjacency of a canonical-shaped text, or None if a check fails.

    Tokens are p, cvc, n, m, then e, u, v per edge. Ids are looked up in
    a table of the labels 1..n, which also checks their range. With m
    edge lines, the degrees sum to 2m exactly when each line adds a new
    edge: a self-loop adds 1 and a repeat, in either direction, adds 0.
    """
    tokens = text.split()
    try:
        n, m = int(tokens[2]), int(tokens[3])
    except ValueError:  # past int()'s digit limit
        return None
    if len(tokens) != 4 + 3 * m:
        return None
    labels = range(1, n + 1)
    label_of = dict(zip(map(str, labels), labels)).__getitem__
    try:
        us = list(map(label_of, tokens[5::3]))
        vs = list(map(label_of, tokens[6::3]))
    except KeyError:
        return None
    adj: dict[VertexId, set[VertexId]] = {label: set() for label in labels}
    for u, v in zip(us, vs):
        adj[u].add(v)
        adj[v].add(u)
    if sum(map(len, adj.values())) != 2 * m:
        return None
    return adj


def _parse_graph_lines(text: str) -> dict[VertexId, set[VertexId]]:
    """The adjacency of any graph text, read line by line; raises GraphParseError."""
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
    return adj


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


_CANONICAL_SOLUTION = re.compile(r"(?:[1-9][0-9]*\n)*")


def parse_solution(text: str) -> set[int]:
    """One 1-based vertex label per line; blank and comment lines ignored.

    A text of bare labels with LF line ends is read with one split;
    any other goes to the line loop, which alone raises GraphParseError.
    """
    if _CANONICAL_SOLUTION.fullmatch(text):
        try:
            return set(map(int, text.split()))
        except ValueError:  # past int()'s digit limit
            pass
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


# JSONEncoder(sort_keys=True)'s text of a record: keys in order, ", " and
# ": " separators; site roles are plain ASCII names.
_RECORD = '{{"created": [{}], "k_delta": {}, "removed": [{}], "rule": "{}", "site": {{{}}}, "step_index": {}}}\n'


def serialize_journal(journal: ReductionJournal) -> str:
    return "".join(
        _RECORD.format(
            ", ".join(map(str, step.created)),
            step.k_delta,
            ", ".join(map(str, step.removed)),
            step.rule.name,
            ", ".join(
                f'"{role}": {"true" if value is True else "false" if value is False else value}'
                for role, value in sorted(step.site.items())
            ),
            idx,
        )
        for idx, step in enumerate(journal.steps)
    )


def parse_journal_steps(text: str) -> list[ReductionStep]:
    """Parse journal records; the input graph is supplied separately.

    Each stripped line is decoded as json.loads would, with its error
    texts: a leading byte-order mark and text after the object are
    rejected before and after one raw_decode. json is imported here, on
    the first journal read: only `lift` reads one.
    """
    import json

    raw_decode = json.JSONDecoder().raw_decode
    steps = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            if line[0] == "\ufeff":
                raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
            record, end = raw_decode(line)
            if end != len(line):
                raise json.JSONDecodeError("Extra data", line, json.decoder.WHITESPACE.match(line, end).end())
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
