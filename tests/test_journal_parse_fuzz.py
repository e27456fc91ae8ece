"""parse_journal_steps on real journals with one malformed line.

A journal written by kernelize gets one of its records replaced, or one
record inserted, by a malformed variant: nested or unclosed arrays,
integers around Python's digit limit, records that are not objects,
missing keys, values of the wrong type and plain garbage. Parsing must
give a list of ReductionStep or a GraphParseError on the first line that
does not continue the journal, which is the variant's line or, when the
variant itself was accepted, the line after it, with the same text as
the per-line json.loads reader in tests/brute.py. No other exception may
escape, and every accepted id, step_index and k_delta is an integer
(R3's cut flag a bool).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarcvc import fileio
from planarcvc.generators import gen_random_planar, gen_tightness
from planarcvc.pipeline import Instance, Kernel, kernelize
from planarcvc.reductions import ReductionStep, RuleId

from brute import reference_parse_journal_steps


def _journal_lines(g, k) -> list[str]:
    out = kernelize(Instance(g, k))
    assert isinstance(out, Kernel)
    return fileio.serialize_journal(out.journal).splitlines()


# R1-R7 records from a random graph, R8 records from the ring family.
_JOURNALS = [_journal_lines(gen_random_planar(40, 0.5, 3), 40), _journal_lines(gen_tightness(3), 11)]
_KEYS = ("step_index", "rule", "site", "created", "removed", "k_delta")

_DEPTHS = st.sampled_from([1, 2, 50, 5000, 100_000])
_BAD_VALUES = st.one_of(
    _DEPTHS.map(lambda d: "[" * d + "]" * d),
    _DEPTHS.map(lambda d: "[" * d),
    st.integers(4000, 6000).map(lambda d: "9" * d),
    st.sampled_from([
        "null", "true", "false", "-1", "0.0", "1.5", "1e999", "NaN", "Infinity", "10" + "0" * 99,
        '"R9"', '"R8"', '"x"', "{}", "[]", "[true]", "[1.5]", '["1"]', "[[1]]", "[null]",
    ]),
)
_GARBAGE = st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp", "Cs")), max_size=12)


def _object_text(fields: dict[str, str]) -> str:
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in fields.items()) + "}"


@st.composite
def _variant(draw, record: dict) -> str:
    """One malformed text derived from record (a journal record as a dict)."""
    fields = {k: json.dumps(v) for k, v in record.items()}
    kind = draw(st.sampled_from(
        ["value", "nested", "missing", "not-object", "truncated", "garbage"]
    ))
    if kind == "value":
        fields[draw(st.sampled_from(_KEYS))] = draw(_BAD_VALUES)
    elif kind == "nested":
        bad = draw(_BAD_VALUES)
        key = draw(st.sampled_from(["site", "created", "removed"]))
        fields[key] = _object_text({"v": bad}) if key == "site" else f"[{bad}]"
    elif kind == "missing":
        del fields[draw(st.sampled_from(_KEYS))]
    elif kind == "not-object":
        return draw(st.one_of(
            _BAD_VALUES,
            st.just("[" + ", ".join(fields.values()) + "]"),
            st.just(json.dumps(_object_text(fields))),
        ))
    elif kind == "truncated":
        text = _object_text(fields)
        return text[:draw(st.integers(0, len(text) - 1))]
    else:
        return draw(_GARBAGE)
    return _object_text(fields)


def _parsed(parse, text: str):
    """The steps, or the GraphParseError's text and line."""
    try:
        return parse(text)
    except fileio.GraphParseError as exc:
        return str(exc), exc.line_no


@pytest.mark.parametrize(
    "variant",
    [
        lambda rec: "\ufeff" + rec,  # byte-order mark
        lambda rec: rec + " x",  # trailing data
        lambda rec: rec + "\t ,",
        lambda rec: rec + rec,  # two records on one line
        lambda rec: rec + " " + rec,
        lambda rec: rec[:-1],
    ],
    ids=["bom", "trailing-data", "trailing-comma", "two-records", "two-records-spaced", "truncated"],
)
def test_parse_journal_steps_error_texts_match_reference(variant):
    lines = list(_JOURNALS[0])
    lines[1] = variant(lines[1])
    text = "".join(line + "\n" for line in lines)
    parsed = _parsed(fileio.parse_journal_steps, text)
    assert parsed[1] == 2
    assert parsed == _parsed(reference_parse_journal_steps, text)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(_JOURNALS), st.booleans())
def test_parse_journal_steps_on_one_malformed_line(data, lines, insert):
    at = data.draw(st.integers(0, len(lines) if insert else len(lines) - 1))
    record = json.loads(lines[min(at, len(lines) - 1)])
    record["step_index"] = at
    variant = data.draw(_variant(record))
    new_lines = lines[:at] + [variant] + lines[at + (not insert):]
    text = "".join(line + "\n" for line in new_lines)
    assert _parsed(fileio.parse_journal_steps, text) == _parsed(reference_parse_journal_steps, text)
    try:
        steps = fileio.parse_journal_steps(text)
    except fileio.GraphParseError as exc:
        line_no = exc.line_no
        assert line_no in (at + 1, at + 2)
        assert str(exc).startswith(f"line {line_no}: ")
        fileio.parse_journal_steps("\n".join(new_lines[:line_no - 1]))
        return
    assert len(steps) == sum(bool(line.strip()) for line in new_lines)
    assert all(type(s) is ReductionStep for s in steps)
    assert all(type(json.loads(line)["step_index"]) is int for line in new_lines if line.strip())
    assert all(type(s.k_delta) is int for s in steps)
    assert all(type(v) is int for s in steps for v in s.created + s.removed)
    assert all(type(s.site) is dict for s in steps)
    assert all(
        type(v) is (bool if role == "cut" and s.rule is RuleId.R3 else int)
        for s in steps for role, v in s.site.items()
    )
