"""`planarcvc lift` on real journals with one record mutated.

Journals written by kernelize, one with R1-R7 records from a random
graph and one with R8 records from the ring family, get one record
changed: a role deleted, a role id changed, two roles swapped, the rule
renamed or k_delta moved by one. Every lift of the kernel's cover must
either exit 0 with a connected vertex cover of the input, or exit 2
with one `error:` line saying which step does not replay (a journal
with R8 records), which record fails its check or that the kernel cover
does not lift to a cover (any other journal), or which line does not
parse. Anything else, a bug inside an applier or a lift that the
mutated record reaches, exits 70 and fails here. The first
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
from planarcvc.pipeline import Instance, Kernel, ReductionJournal, kernelize, lift_solution, replay_journal
from planarcvc.reductions import RuleId, lift_rule

from brute import dfs_tree_cover

_KINDS = ("delete-role", "change-id", "swap-roles", "rename-rule", "k_delta")
_INPUT_ERROR = re.compile(
    r"error: ((journal does not replay|bad journal record) at step \d+|line \d+): [^\n]*\n"
    r"|error: kernel solution does not lift to a connected vertex cover of the input\n"
)


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


def _first(journal: ReductionJournal, rule: RuleId, cut: bool | None = None) -> int:
    return next(i for i, s in enumerate(journal.steps) if s.rule is rule and s.site.get("cut") is cut)


# (rule, cut flag of the record, change to it, the check's message): one
# row per check that lift_solution makes on the records of a journal
# without R8 records. `old` is an id that step 0 removed.
_BAD_RECORDS = {
    "missing-role": (RuleId.R5, None, lambda s, old: s._replace(site={r: v for r, v in s.site.items() if r != "y"}),
                     r"R5: site keys \['v', 'x', 'z'\] are not \['v', 'x', 'y', 'z'\]"),
    "cut-on-r2": (RuleId.R2, None, lambda s, old: s._replace(site=dict(s.site, cut=True)),
                  r"R2: site keys \['c', 'cut', 'u', 'v', 'w'\] are not \['c', 'u', 'v', 'w'\]"),
    "r3-without-cut": (RuleId.R3, True, lambda s, old: s._replace(site={r: v for r, v in s.site.items() if r != "cut"}),
                       r"R3: site keys \['c', 'u', 'v', 'w'\] are not \[.*\] or \[.*\]"),
    "k_delta": (RuleId.R6, None, lambda s, old: s._replace(k_delta=-1), r"R6: k_delta -1 is not 0"),
    "created-order": (RuleId.R6, None, lambda s, old: s._replace(created=s.created[::-1]),
                      r"R6: created \(.*\) is not the site's fresh ids \(.*\)"),
    "created-not-fresh": (RuleId.R2, None, lambda s, old: s._replace(site=dict(s.site, c=old), created=(old,)),
                          r"R2: created id \d+ is not above every id before it"),
    "removed-order": (RuleId.R4, None, lambda s, old: s._replace(removed=s.removed[::-1]),
                      r"R4: removed \(.*\) is not the site's \(.*\)"),
    "removed-not-live": (RuleId.R5, None, lambda s, old: s._replace(site=dict(s.site, v=old), removed=(old, s.site["z"])),
                         r"R5: removed id \d+ is not live"),
    "r1-removes-keep": (RuleId.R1, None, lambda s, old: s._replace(removed=(*s.removed, s.site["keep"])),
                        r"R1: removed \(.*\) holds v or keep"),
    "r1-removes-twice": (RuleId.R1, None, lambda s, old: s._replace(removed=(*s.removed, s.removed[0])),
                         r"R1: removed id \d+ is not live"),
}


@pytest.mark.parametrize("row", list(_BAD_RECORDS))
def test_lift_without_replay_rejects_a_bad_record_at_its_step(kernels, row):
    rule, cut, change, message = _BAD_RECORDS[row]
    out = kernels["rand"]
    journal = out.journal
    idx = _first(journal, rule, cut)
    steps = list(journal.steps)
    steps[idx] = change(steps[idx], steps[0].removed[0])
    bad = ReductionJournal(journal.input_graph, journal.dropped_isolated, steps)
    with pytest.raises(InputError, match=f"^bad journal record at step {idx}: {message}$"):
        lift_solution(bad, dfs_tree_cover(out.instance.graph))


def test_lifts_without_replay_never_raise_on_checked_records(kernels):
    # R1-R7 lift any solution across a record that passed its check: each
    # record lifts every subset of its site's ids without raising and
    # grows it by at most -k_delta, and a random subset of the kernel
    # lifts to a verified cover within budget or is rejected as one
    # InputError, never anything else.
    out = kernels["rand"]
    for step in out.journal.steps:
        ids = sorted({v for v in step.site.values() if type(v) is int})
        for mask in range(1 << len(ids)):
            sol = {v for i, v in enumerate(ids) if mask >> i & 1}
            size = len(sol)
            lift_rule(None, step, sol)
            assert len(sol) <= size - step.k_delta, step
    kernel_ids = out.instance.graph.vertices()
    rng = random.Random(7)
    outcomes = Counter()
    for trial in range(300):
        solution = set(rng.sample(kernel_ids, rng.randint(0, len(kernel_ids)))) if trial else set()
        try:
            lifted = lift_solution(out.journal, solution)
        except InputError as exc:
            assert str(exc) == "kernel solution does not lift to a connected vertex cover of the input"
            outcomes["rejected"] += 1
        else:
            assert verify_cvc(out.journal.input_graph, lifted)
            assert len(lifted) <= len(solution) + out.journal.k_spent
            outcomes["lifted"] += 1
    assert outcomes["rejected"] and outcomes["lifted"], outcomes


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
