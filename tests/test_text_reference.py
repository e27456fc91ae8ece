"""Text formats and the cover verifier against their reference versions.

parse_graph checks each edge once while it reads, serialize_graph sorts
once, serialize_journal reuses one encoder and verify_cvc checks the
neighbourhoods of the vertices outside the cover instead of a sorted
edge list. The tests/brute.py copies of the versions before those
rewrites must agree with them: the same graph and mapping or the same
GraphParseError (text and line number) on decorated and malformed
graph texts, the same bytes out, and the same verdict or KeyError.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from planarcvc import fileio
from planarcvc.generators import gen_random_planar
from planarcvc.graph import Graph
from planarcvc.oracle import verify_cvc
from planarcvc.pipeline import Instance, Kernel, kernelize

from brute import (
    check_graph,
    reference_parse_graph,
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
