"""Text formats and the cover verifier against their reference versions.

parse_graph and parse_solution read canonical-shaped texts in bulk and
hand every other text, and every canonical-shaped text that fails a
check, to their line-by-line readers; parse_graph checks each edge once
while it reads, serialize_graph sorts once, serialize_journal writes
each record with one format string and verify_cvc checks the
neighbourhoods of the vertices outside the cover instead of a sorted
edge list. The tests/brute.py copies of the versions before those
rewrites must agree with them: the same graph and mapping or the same
GraphParseError (text and line number) on decorated, malformed and
canonical-shaped graph texts, the same labels or error on solution
texts, the same bytes out, and the same verdict or KeyError.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarcvc import fileio
from planarcvc.generators import gen_random_planar
from planarcvc.graph import Graph
from planarcvc.oracle import verify_cvc
from planarcvc.pipeline import Instance, Kernel, ReductionJournal, kernelize
from planarcvc.reductions import ReductionStep, RuleId

from brute import (
    check_graph,
    reference_parse_graph,
    reference_parse_solution,
    reference_serialize_graph,
    reference_serialize_journal,
    reference_verify_cvc,
)
from strategies import small_graphs

# Separators inside a line; splitlines() would break a line at \v, \f,
# \x1c-\x1e, \x85, \u2028 and \u2029, so those only end lines.
_SPACES = st.sampled_from([" ", "  ", "\t", " \t ", "\u00a0", "\u3000"])
_ENDINGS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\u2028"])
_FILLER = st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp", "Cs")), max_size=8)


def _parsed(parse, text: str):
    """A comparable parse result: the graph's state and mapping, or the error."""
    try:
        g, mapping = parse(text)
    except fileio.GraphParseError as exc:
        return "error", str(exc), exc.line_no
    state = (dict(g.adjacency()), g.n_edges, g.vertices())
    check_graph(g)
    return "ok", state, mapping, g.add_vertex()


@st.composite
def _decorated_lines(draw, g: Graph) -> list[str]:
    """g's canonical lines with whitespace, comments and blank lines added."""
    out = []
    for line in fileio.serialize_graph(g).splitlines():
        for _ in range(draw(st.integers(0, 2))):
            out.append(draw(st.one_of(
                st.builds(lambda s, f: s + "c" + f, st.sampled_from(["", " ", "\t"]), _FILLER),
                _SPACES,
                st.just(""),
            )))
        fields = line.split()
        seps = [draw(_SPACES) for _ in fields]
        out.append(
            draw(st.sampled_from(["", " ", "\t"]))
            + "".join(f + s for f, s in zip(fields, seps))
        )
    return out


def _join(draw, lines: list[str]) -> str:
    return "".join(line + draw(_ENDINGS) for line in lines)


@settings(max_examples=200, deadline=None)
@given(st.data(), small_graphs())
def test_parse_graph_matches_reference_on_decorated_texts(data, g):
    text = _join(data.draw, data.draw(_decorated_lines(g)))
    parsed = _parsed(fileio.parse_graph, text)
    assert parsed[0] == "ok"
    assert parsed == _parsed(reference_parse_graph, text)


def _malformed_line(g: Graph) -> st.SearchStrategy[str]:
    n = g.n_vertices
    vid = st.integers(-2, n + 2).map(str)
    edges = [line.split()[1:] for line in fileio.serialize_graph(g).splitlines()[1:]]
    return st.one_of(
        st.builds("e {} {}".format, vid, vid),  # range, loop, duplicate or extra edge
        vid.map(lambda v: f"e {v} {v}"),
        st.sampled_from(edges or [["1", "2"]]).map(lambda e: f"e {e[1]} {e[0]}"),
        st.builds("e {}".format, vid),
        st.builds("e {} {} {}".format, vid, vid, vid),
        st.sampled_from(["e x 1", "e 1.0 2", "e +1 2", "e \u0661 2", "e", "E 1 2", "q 1 2", "x"]),
        st.builds("p cvc {} {}".format, st.integers(-1, n + 2), st.integers(-1, 4)),
        st.sampled_from(["p cvc", "p vc 2 1", "p cvc a 1", "p cvc 1", "p cvc 1 1 1", "p", "pp cvc 1 0"]),
        _FILLER,
    )


@settings(max_examples=400, deadline=None)
@given(st.data(), small_graphs())
def test_parse_graph_matches_reference_on_malformed_texts(data, g):
    # One line replaced by, or one line inserted as, a malformed variant;
    # counted from the end, so that most land after the header.
    lines = data.draw(_decorated_lines(g))
    index = len(lines) - data.draw(st.integers(0, len(lines)))
    replace = index < len(lines) and data.draw(st.booleans())
    fields = data.draw(_malformed_line(g)).split(" ")
    lines[index:index + replace] = [
        data.draw(_SPACES | st.just("")) + data.draw(_SPACES).join(fields) + data.draw(_SPACES)
    ]
    text = _join(data.draw, lines)
    assert _parsed(fileio.parse_graph, text) == _parsed(reference_parse_graph, text)


# Texts in the canonical shape (or one character off it) that the bulk
# reader must hand to the line loop, or read as the line loop does.
_LONG = "9" * 5000  # past int()'s default digit limit


@pytest.mark.parametrize(
    "text",
    [
        "p cvc 2 2\ne 1 2\ne 1 2\n",  # duplicate edge
        "p cvc 3 3\ne 1 2\ne 2 3\ne 2 1\n",  # reversed duplicate
        "p cvc 2 1\ne 1 2\ne 2 1\n",  # a duplicate past the count
        "p cvc 2 1\ne 2 2\n",  # self-loop
        "p cvc 3 2\ne 1 2\ne 3 3\n",
        "p cvc 3 1\ne 1 1\ne 2 2\n",  # two self-loops for one edge
        "p cvc 2 1\ne 0 1\n",  # id 0
        "p cvc 2 1\ne 1 3\n",  # id > N
        "p cvc 0 1\ne 1 2\n",
        "p cvc 2 1\ne 01 2\n",  # leading zeros
        "p cvc 02 1\ne 1 2\n",
        "p cvc 2 01\ne 1 2\n",
        "p cvc 3 2\ne 1 2\n",  # too few edges
        "p cvc 3 1\ne 1 2\ne 2 3\n",  # too many edges
        "p cvc 3 0\ne 1 2\n",
        "p cvc 0 0\n",
        "p cvc 3 0\n",
        "p cvc 3 2\ne 1 2\ne 2 3",  # no trailing newline
        "p cvc 3 2\r\ne 1 2\r\ne 2 3\r\n",
        "p cvc 3 2\ne 1 2\ne 2  3\n",
        f"p cvc {_LONG} 0\n",
        f"p cvc 2 {_LONG}\ne 1 2\n",
        f"p cvc 2 1\ne 1 {_LONG}\n",
    ],
)
def test_parse_graph_matches_reference_on_canonical_shaped_texts(text):
    assert _parsed(fileio.parse_graph, text) == _parsed(reference_parse_graph, text)


@st.composite
def _mutated_canonical_text(draw, g: Graph) -> str:
    """g's canonical text with one change that keeps it (nearly) canonical-shaped."""
    lines = fileio.serialize_graph(g).splitlines()
    n, m = g.n_vertices, g.n_edges
    edges = [line.split()[1:] for line in lines[1:]] or [["1", "2"]]
    vid = st.sampled_from([0, 1, n, n + 1]).map(str)
    kind = draw(st.sampled_from(
        ["duplicate", "reversed", "loop", "id", "leading-zero", "count", "newline"]
    ))
    at = draw(st.integers(1, len(lines)))
    if kind in ("duplicate", "reversed"):
        u, v = draw(st.sampled_from(edges))
        lines.insert(at, f"e {v} {u}" if kind == "reversed" else f"e {u} {v}")
    elif kind == "loop":
        v = draw(vid)
        lines.insert(at, f"e {v} {v}")
    elif kind == "id":  # an edge line replaced, or one added at the end
        u = draw(st.sampled_from(edges))[0]
        lines[at:at + 1] = [f"e {u} {draw(vid)}"]
    elif kind == "leading-zero":
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split()
        j = draw(st.integers(len(fields) - 2, len(fields) - 1))
        fields[j] = "0" + fields[j]
        lines[i] = " ".join(fields)
    elif kind == "count":
        lines[0] = f"p cvc {n} {m + draw(st.sampled_from([-1, 1]))}"
    if draw(st.booleans()) and kind != "count":
        lines[0] = f"p cvc {n} {len(lines) - 1}"  # keep the count in step
    text = "".join(line + "\n" for line in lines)
    return text[:-1] if kind == "newline" else text


@settings(max_examples=300, deadline=None)
@given(st.data(), small_graphs())
def test_parse_graph_matches_reference_on_mutated_canonical_texts(data, g):
    text = data.draw(_mutated_canonical_text(g))
    assert _parsed(fileio.parse_graph, text) == _parsed(reference_parse_graph, text)


def _parsed_solution(parse, text: str):
    try:
        return "ok", parse(text)
    except fileio.GraphParseError as exc:
        return "error", str(exc), exc.line_no


@pytest.mark.parametrize(
    "text",
    ["", "1\n", "1\n3\n8\n", "3\n1\n3\n", "0\n", "01\n", "1\n0\n", "1", "1\n2",
     "1\r\n2\r\n", "1\n\n2\n", "1 2\n", "c x\n1\n", "-1\n", "\u0661\n", f"{_LONG}\n",
     f"1\n{_LONG}\n"],
)
def test_parse_solution_matches_reference(text):
    assert _parsed_solution(fileio.parse_solution, text) == _parsed_solution(reference_parse_solution, text)


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_serialize_graph_matches_reference(g):
    assert fileio.serialize_graph(g) == reference_serialize_graph(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 60), st.sampled_from([0.3, 0.5, 1.0]), st.integers(0, 10**6))
def test_serialize_journal_matches_reference(n, density, seed):
    g = gen_random_planar(n, density, seed)
    out = kernelize(Instance(g, n))
    assert isinstance(out, Kernel)
    assert fileio.serialize_journal(out.journal) == reference_serialize_journal(out.journal)


def test_serialize_journal_matches_reference_on_booleans_and_ones():
    # R3's cut flag is a JSON boolean; an id or site value of 1 (== True)
    # and 0 (== False) is an integer all the same.
    steps = [
        ReductionStep(RuleId.R1, {"keep": 1, "v": 2}, (), (3, 4), 0),
        ReductionStep(RuleId.R3, {"c": 5, "cut": True, "u": 1, "v": 2, "w": 3}, (5,), (1, 2), -1),
        ReductionStep(RuleId.R3, {"cut": False, "pu": 7, "pw": 8, "u": 1, "v": 6, "w": 9}, (7, 8), (6,), 0),
        ReductionStep(RuleId.R8, {"c": 10, "face": -1, "u": 1, "v": 0, "xu": 11, "xv": 12}, (10,), (11, 12), 0),
    ]
    journal = ReductionJournal(Graph(), (), steps)
    assert fileio.serialize_journal(journal) == reference_serialize_journal(journal)


def _verdict(verify, g: Graph, s):
    try:
        return verify(g, s)
    except KeyError as exc:
        return "KeyError", str(exc)


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.sets(st.integers(0, 45)), st.booleans())
def test_verify_cvc_matches_reference(g, s, frozen):
    if frozen:
        s = frozenset(s)
    assert _verdict(verify_cvc, g, s) == _verdict(reference_verify_cvc, g, s)


@settings(max_examples=200, deadline=None)
@given(small_graphs(), st.data())
def test_verify_cvc_matches_reference_on_vertex_subsets(g, data):
    # Random subsets of the graph's own vertices, so covers occur often.
    s = data.draw(st.sets(st.sampled_from(g.vertices()))) if g.n_vertices else set()
    assert _verdict(verify_cvc, g, s) == _verdict(reference_verify_cvc, g, s)
