"""`planarcvc lift` on real journals with one record mutated.

Journals written by kernelize, one with R1-R7 records from a random
graph and one with R8 records from the ring family, get one record
changed: a role deleted, a role id changed, two roles swapped, the rule
renamed or k_delta moved by one. Every lift of the kernel's cover must
either exit 0 with a connected vertex cover of the input, or exit 2
with one `error:` line saying which step does not replay or which line
does not parse. Anything else, a bug inside an applier that the
mutated record reaches among it, exits 70 and fails here. The first
record of each rule also loses each of its roles in turn, or gains a
site key that is neither a role nor one the rule adds, and the first
R3 (non-cut), R6 and R7 records get each pair of their pendant parents
swapped: replay must reject every such journal at that record as an
InputError.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter

import pytest

from planarcvc import fileio
from planarcvc.cli import main
from planarcvc.generators import gen_random_planar, gen_tightness
from planarcvc.graph import InputError
from planarcvc.oracle import verify_cvc
from planarcvc.pipeline import Instance, Kernel, ReductionJournal, kernelize, replay_journal
from planarcvc.reductions import RuleId

from brute import dfs_tree_cover

_KINDS = ("delete-role", "change-id", "swap-roles", "rename-rule", "k_delta")
_INPUT_ERROR = re.compile(r"error: (journal does not replay at step \d+|line \d+): [^\n]*\n")


def _mutate(rng: random.Random, records: list[dict], kind: str) -> list[dict]:
    records = [dict(r, site=dict(r["site"])) for r in records]
    record = rng.choice(records)
    site = record["site"]
    roles = sorted(site)
    if kind == "delete-role":
        del site[rng.choice(roles)]
    elif kind == "change-id":
        role = rng.choice(roles)
        ids = [v for r in records for v in r["site"].values() if type(v) is int and v != site[role]]
        site[role] = not site[role] if type(site[role]) is bool else rng.choice(ids)
    elif kind == "swap-roles":
        a, b = rng.sample(roles, 2)
        site[a], site[b] = site[b], site[a]
    elif kind == "rename-rule":
        record["rule"] = rng.choice([r.name for r in RuleId if r.name != record["rule"]])
    else:
        record["k_delta"] += rng.choice((-1, 1))
    return records


@pytest.fixture(scope="module")
def kernels() -> dict[str, Kernel]:
    # n = 100, seed 44: the smallest random graph found whose journal
    # holds records of all of R1-R7
    out = {"rand": kernelize(Instance(gen_random_planar(100, 0.5, 44), 100)),
           "ring": kernelize(Instance(gen_tightness(3), 11))}
    assert {s.rule for kernel in out.values() for s in kernel.journal.steps} == set(RuleId)
    return out


@pytest.mark.parametrize("rule", list(RuleId), ids=lambda r: r.name)
def test_replay_of_a_record_without_one_role_is_an_input_error(kernels, rule):
    journal = next(k.journal for k in kernels.values() if any(s.rule is rule for s in k.journal.steps))
    idx = next(i for i, s in enumerate(journal.steps) if s.rule is rule)
    step = journal.steps[idx]
    for role in step.site:
        steps = list(journal.steps)
        steps[idx] = step._replace(site={r: v for r, v in step.site.items() if r != role})
        with pytest.raises(InputError, match=f"^journal does not replay at step {idx}: "):
            replay_journal(ReductionJournal(journal.input_graph, journal.dropped_isolated, steps))


@pytest.mark.parametrize("rule", list(RuleId), ids=lambda r: r.name)
def test_replay_of_a_record_with_an_unknown_site_key_fails_at_that_record(kernels, rule):
    # A record's site is its roles plus what applying the rule adds to
    # them; a key beyond those is a mismatch at its own record.
    journal = next(k.journal for k in kernels.values() if any(s.rule is rule for s in k.journal.steps))
    idx = next(i for i, s in enumerate(journal.steps) if s.rule is rule)
    steps = list(journal.steps)
    steps[idx] = steps[idx]._replace(site=dict(steps[idx].site, extra=0))
    with pytest.raises(InputError, match=f"^journal does not replay at step {idx}: replayed "):
        replay_journal(ReductionJournal(journal.input_graph, journal.dropped_isolated, steps))


@pytest.mark.parametrize(
    "rule, a, b",
    [(RuleId.R3, "u", "w"), (RuleId.R6, "x", "v"), (RuleId.R6, "x", "y"), (RuleId.R6, "v", "y"),
     (RuleId.R7, "x", "y")],
    ids=lambda p: getattr(p, "name", p),
)
def test_replay_of_a_record_with_swapped_parents_fails_at_that_record(kernels, rule, a, b):
    # The fresh pendants of a non-cut R3, an R6 or an R7 hang on the roles
    # swapped here; a record that hangs them on other parents must fail at
    # its own step, not at a later one (n = 100, seed 44: the R3 at step 24
    # used to fail at step 49, the R6 and R7 one or two steps late).
    journal = kernels["rand"].journal
    idx, step = next((i, s) for i, s in enumerate(journal.steps) if s.rule is rule and not s.site.get("cut"))
    steps = list(journal.steps)
    steps[idx] = step._replace(site=dict(step.site, **{a: step.site[b], b: step.site[a]}))
    with pytest.raises(InputError, match=rf"^journal does not replay at step {idx}: RuleApplicationError.*must ascend"):
        replay_journal(ReductionJournal(journal.input_graph, journal.dropped_isolated, steps))


def test_lift_of_a_mutated_journal_is_a_cover_or_one_error_line(kernels, tmp_path, capsys):
    cases = []
    for name, out in kernels.items():
        g = out.journal.input_graph
        kernel = out.instance.graph
        labels = fileio.canonical_labels(kernel)
        (tmp_path / f"{name}.cvc").write_text(fileio.serialize_graph(g))
        cover = {labels[v] for v in dfs_tree_cover(kernel)}
        (tmp_path / f"{name}.sol").write_text(fileio.serialize_solution(cover))
        records = [json.loads(line) for line in fileio.serialize_journal(out.journal).splitlines()]
        cases.append((name, g, records))

    rng = random.Random(21)
    journal = tmp_path / "mutated.jsonl"
    outcomes: Counter[tuple[str, int]] = Counter()
    for _ in range(500):
        name, g, records = rng.choice(cases)
        kind = rng.choice(_KINDS)
        journal.write_text("".join(json.dumps(r) + "\n" for r in _mutate(rng, records, kind)))
        argv = ["lift", "--input", str(tmp_path / f"{name}.cvc"), "--journal", str(journal),
                "--solution", str(tmp_path / f"{name}.sol")]
        code = main(argv)
        out, err = capsys.readouterr()
        outcomes[kind, code] += 1
        if code == 0:
            assert err == ""
            by_label = {lab: v for v, lab in fileio.canonical_labels(g).items()}
            assert verify_cvc(g, {by_label[lab] for lab in fileio.parse_solution(out)})
        else:
            assert code == 2, err
            assert out == ""
            assert _INPUT_ERROR.fullmatch(err), err
    assert all(outcomes[kind, 2] for kind in _KINDS), outcomes
