"""cli-io: graph/journal/solution formats and the command line flows."""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path

import pytest

from planarcvc import fileio, reductions
from planarcvc.cli import main
from planarcvc.generators import gen_exception_graph, gen_random_planar, gen_tightness
from planarcvc.graph import Graph
from planarcvc.oracle import verify_cvc
from planarcvc.pipeline import Instance, Kernel, kernelize, replay_journal

from brute import dfs_tree_cover
from conftest import make_path, run_python


def test_parse_single_edge():
    g, mapping = fileio.parse_graph("p cvc 2 1\ne 1 2\n")
    assert g.n_vertices == 2 and g.edges() == [(1, 2)]
    assert mapping == {1: 1, 2: 2}


def test_parse_triangle_with_comments():
    text = "c a triangle\np cvc 3 3\ne 1 2\ne 2 3\nc middle comment\ne 1 3\n"
    g, _ = fileio.parse_graph(text)
    assert g.edges() == [(1, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize(
    "text, line_no, fragment",
    [
        ("p cvc 2 1\ne 1 1\n", 2, "self-loop"),
        ("p cvc 2 2\ne 1 2\ne 2 1\n", 3, "duplicate"),
        ("p cvc 2 1\ne 1 5\n", 2, "out of range"),
        ("p vc 2 1\ne 1 2\n", 1, "header"),
        ("e 1 2\n", 1, "header"),
        ("p cvc 2 2\ne 1 2\n", 2, "announced 2 edges"),
        ("p cvc 2 1\nq 1 2\n", 2, "unknown line type"),
        ("", 1, "missing header"),
        ("c only a comment\n", 1, "missing header"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no, fragment):
    with pytest.raises(fileio.GraphParseError) as err:
        fileio.parse_graph(text)
    assert err.value.line_no == line_no
    assert fragment in str(err.value)


def test_serialize_single_edge():
    assert fileio.serialize_graph(make_path(2)) == "p cvc 2 1\ne 1 2\n"


def test_serialize_empty():
    assert fileio.serialize_graph(Graph()) == "p cvc 0 0\n"


def test_round_trip_is_canonical():
    g = gen_random_planar(16, 0.6, 42)
    text = fileio.serialize_graph(g)
    parsed, _ = fileio.parse_graph(text)
    assert fileio.serialize_graph(parsed) == text


def test_solution_round_trip():
    text = fileio.serialize_solution({3, 1, 8})
    assert text == "1\n3\n8\n"
    assert fileio.parse_solution(text) == {1, 3, 8}


def test_journal_round_trip_replays_byte_for_byte():
    g = gen_random_planar(14, 0.5, 11)
    out = kernelize(Instance(g, 14))
    assert isinstance(out, Kernel)
    text = fileio.serialize_journal(out.journal)
    steps = fileio.parse_journal_steps(text)
    journal = fileio.journal_for_input(g, steps)
    replayed = replay_journal(journal)[-1]
    assert fileio.serialize_graph(replayed) == fileio.serialize_graph(
        out.instance.graph
    )


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------


def write(path, text):
    path.write_text(text)
    return str(path)


def test_cli_generate_exception(tmp_path, capsys):
    assert main(["generate", "exception"]) == 0
    out = capsys.readouterr().out
    assert out == fileio.serialize_graph(gen_exception_graph())


def test_cli_generate_rejects_bad_ell(capsys):
    assert main(["generate", "tightness", "--l", "2"]) == 2


def test_cli_kernelize_tightness(tmp_path, capsys):
    graph_file = write(tmp_path / "g.cvc", fileio.serialize_graph(gen_tightness(3)))
    code = main(["kernelize", "--input", graph_file, "--k", "11"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p cvc 35 75"  # merges keep the edge count
    assert lines[-1] == "c kernel-k 11"


def test_cli_kernelize_no_instance(tmp_path, capsys):
    graph_file = write(tmp_path / "g.cvc", "p cvc 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    assert main(["kernelize", "--input", graph_file, "--k", "0"]) == 1
    assert "no-instance" in capsys.readouterr().out


def test_cli_kernelize_rejects_nonplanar(tmp_path, capsys):
    k5 = "p cvc 5 10\n" + "".join(
        f"e {i} {j}\n" for i in range(1, 6) for j in range(i + 1, 6)
    )
    graph_file = write(tmp_path / "k5.cvc", k5)
    # the size gate fails at k = 1, and its NO would need planarity
    assert main(["kernelize", "--input", graph_file, "--k", "1"]) == 2
    assert capsys.readouterr() == (
        "", "error: input graph is not planar (graph with 5 vertices / 10 edges is not planar)\n"
    )
    # at k = 5 it passes, and K5 is its own kernel
    assert main(["kernelize", "--input", graph_file, "--k", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "p cvc 5 10" and out[-1] == "c kernel-k 5"


def test_cli_kernelize_stats(tmp_path, capsys):
    graph_file = write(tmp_path / "g.cvc", fileio.serialize_graph(gen_tightness(3)))
    code = main(["kernelize", "--input", graph_file, "--k", "11", "--stats"])
    captured = capsys.readouterr()
    assert code == 0
    assert "stats S1 9" in captured.err
    assert "stats I3 18" in captured.err
    assert "stats M* 3" in captured.err
    assert "stats partition-bound holds" in captured.err


def test_cli_parse_error_exit_code(tmp_path, capsys):
    graph_file = write(tmp_path / "bad.cvc", "p cvc 2 1\ne 1 1\n")
    assert main(["kernelize", "--input", graph_file, "--k", "1"]) == 2
    assert "self-loop" in capsys.readouterr().err


def test_cli_kernelize_non_utf8_input_exit_code(tmp_path, capsys):
    graph_file = tmp_path / "bad.cvc"
    graph_file.write_bytes(b"p cvc 2 1\ne 1 2\nc \xff\xfe\n")
    assert main(["kernelize", "--input", str(graph_file), "--k", "1"]) == 2
    assert "utf-8" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_cli_kernelize_unwritable_journal_exit_code(tmp_path, capsys, where):
    # Exit 1 means NO; a journal that cannot be written is an input error,
    # and no kernel may reach stdout without its journal.
    graph_file = write(tmp_path / "g.cvc", fileio.serialize_graph(gen_tightness(3)))
    journal = tmp_path / "absent" / "j.jsonl" if where == "missing-directory" else tmp_path
    code = main(["kernelize", "--input", graph_file, "--k", "11", "--journal", str(journal)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(journal) in captured.err
    assert "Traceback" not in captured.err


def _kernelize_into_closed_pipe(tmp_path, journal: str, unbuffered: str) -> subprocess.CompletedProcess:
    """`planarcvc kernelize` of ring l = 3 at k = 11 with a stdout whose reader is gone."""
    graph_file = write(tmp_path / "g.cvc", fileio.serialize_graph(gen_tightness(3)))
    argv = ["-m", "planarcvc.cli", "kernelize", "--input", graph_file, "--k", "11", "--journal", journal]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return run_python(argv, env={"PYTHONUNBUFFERED": unbuffered}, stdout=write_end,
                          stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_cli_closed_stdout_is_not_an_input_error(tmp_path, unbuffered):
    # A YES kernel piped into a reader that has gone (`| head -c 1`):
    # exit 141, not the input-error code 2, and nothing on stderr, whether
    # the write fails inside the command or at the final flush.
    proc = _kernelize_into_closed_pipe(tmp_path, str(tmp_path / "j.jsonl"), unbuffered)
    assert (proc.returncode, proc.stderr) == (141, "")
    assert (tmp_path / "j.jsonl").read_text().count('"rule": "R8"') == 3


@pytest.mark.skipif(not Path("/dev/stdout").exists(), reason="needs /dev/stdout")
def test_cli_journal_into_closed_pipe_is_an_input_error(tmp_path):
    # The same closed pipe named as --journal: the journal is unwritable.
    proc = _kernelize_into_closed_pipe(tmp_path, "/dev/stdout", "1")
    assert (proc.returncode, proc.stderr) == (2, "error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize(
    "record",
    [
        '{"created": [], "k_delta": 0, "removed": [], "rule": "R1", "site": {}}',
        "[1, 2]",
        # too deep for the JSON decoder, and past Python's integer digit limit
        "[" * 100_000,
        '{"step_index": ' + "7" * 5000 + "}",
    ],
    ids=["missing-step-index", "list-record", "nested-arrays", "huge-integer"],
)
def test_cli_lift_malformed_journal_record_exit_code(tmp_path, capsys, record):
    graph_file = write(tmp_path / "g.cvc", "p cvc 3 2\ne 1 2\ne 2 3\n")
    journal_file = write(tmp_path / "journal.jsonl", record + "\n")
    sol_file = write(tmp_path / "sol.txt", "2\n")
    code = main(
        ["lift", "--input", graph_file, "--journal", journal_file,
         "--solution", sol_file]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: bad journal record")
    assert "Traceback" not in err


def _main_optimized(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of `python -O -m planarcvc.cli ARGV`."""
    proc = run_python(["-O", "-m", "planarcvc.cli", *argv], capture_output=True, text=True)
    return proc.returncode, proc.stderr


# Two paths 1-2-3 and 4-5-6, and one R8 record merging the pendants 1
# and 4 of the owners 2 and 5 into the new vertex 7: the merge replays,
# but 7 is a cut vertex, so no lift of the kernel cover {2, 5, 7}
# (labels 1, 3, 5) exists. kernelize answers NO on this input.
_TWO_PATHS = "p cvc 6 4\ne 1 2\ne 2 3\ne 4 5\ne 5 6\n"
_R8_ACROSS = {"step_index": 0, "rule": "R8", "created": [7], "removed": [1, 4], "k_delta": 0,
              "site": {"u": 2, "v": 5, "xu": 1, "xv": 4, "c": 7, "face": 0}}
# Paths 1-2-3 and 4-5, and one R3 record at v = 2 with its cut flag set:
# 1 and 3 are apart in G - 2, so the contraction of 1-2 into 6 replays on
# the disconnected input, but the kernel {3-6, 4-5} has no connected
# vertex cover, so lifting {3, 4, 6} (labels 1, 2, 4) fails there.
_R3_SPLIT = "p cvc 5 3\ne 1 2\ne 2 3\ne 4 5\n"
_R3_CUT = {"step_index": 0, "rule": "R3", "created": [6], "removed": [1, 2], "k_delta": -1,
           "site": {"v": 2, "u": 1, "w": 3, "cut": True, "c": 6}}


@pytest.mark.parametrize("optimize", [False, True], ids=["in-process", "python-O"])
def test_cli_lift_r8_across_components_exit_code(tmp_path, capsys, optimize):
    # The check runs once in replay, not as an assert, so `python -O`
    # rejects the journal too.
    argv = ["lift", "--input", write(tmp_path / "g.cvc", _TWO_PATHS),
            "--journal", write(tmp_path / "journal.jsonl", json.dumps(_R8_ACROSS) + "\n"),
            "--solution", write(tmp_path / "sol.txt", "1\n3\n5\n")]
    if optimize:
        code, err = _main_optimized(argv)
    else:
        code, err = main(argv), capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: journal does not replay at step 0")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "g, k, rule, role",
    [
        (gen_random_planar(14, 0.5, 0), 14, "R2", "c"),
        (gen_tightness(3), 11, "R8", "xu"),
        (gen_tightness(3), 11, None, None),
    ],
    ids=["R2-c", "R8-xu", "untampered"],
)
def test_cli_lift_tampered_journal_site_exit_code(tmp_path, capsys, g, k, rule, role):
    # Lifting trusts the recorded sites, so replay must reject a record
    # whose site differs from the replayed one even where the created and
    # removed ids still match.
    graph_file = write(tmp_path / "g.cvc", fileio.serialize_graph(g))
    journal_file = tmp_path / "journal.jsonl"
    assert main(
        ["kernelize", "--input", graph_file, "--k", str(k), "--journal", str(journal_file)]
    ) == 0
    kernel, _ = fileio.parse_graph(capsys.readouterr().out)
    sol_file = write(tmp_path / "ksol.txt", fileio.serialize_solution(dfs_tree_cover(kernel)))
    if rule is not None:
        records = [json.loads(ln) for ln in journal_file.read_text().splitlines()]
        next(r for r in records if r["rule"] == rule)["site"][role] += 1000
        journal_file.write_text("".join(json.dumps(r) + "\n" for r in records))
    code = main(
        ["lift", "--input", graph_file, "--journal", str(journal_file),
         "--solution", sol_file]
    )
    if rule is None:
        assert code == 0
        assert verify_cvc(g, fileio.parse_solution(capsys.readouterr().out))
    else:
        assert code == 2
        assert "does not replay" in capsys.readouterr().err


@pytest.mark.parametrize("tamper", ["adjacent", "unknown"])
def test_cli_lift_bad_r8_owner_exit_code(tmp_path, capsys, tamper):
    # An R8 record naming owners that are adjacent, or that are not
    # vertices at all, fails inside the merge; replay reports the step
    # as an input error instead of a traceback.
    g = gen_tightness(3)
    graph_file = write(tmp_path / "g.cvc", fileio.serialize_graph(g))
    journal_file = tmp_path / "journal.jsonl"
    assert main(
        ["kernelize", "--input", graph_file, "--k", "11", "--journal", str(journal_file)]
    ) == 0
    kernel, _ = fileio.parse_graph(capsys.readouterr().out)
    sol_file = write(tmp_path / "ksol.txt", fileio.serialize_solution(dfs_tree_cover(kernel)))
    records = [json.loads(ln) for ln in journal_file.read_text().splitlines()]
    index, record = next((i, r) for i, r in enumerate(records) if r["rule"] == "R8")
    if tamper == "adjacent":
        fixpoint, _ = replay_journal(
            fileio.journal_for_input(g, fileio.parse_journal_steps(journal_file.read_text()))
        )
        record["site"]["v"] = fixpoint.neighbors(record["site"]["u"])[0]
    else:
        record["site"]["u"] = 10**6
    journal_file.write_text("".join(json.dumps(r) + "\n" for r in records))
    code = main(
        ["lift", "--input", graph_file, "--journal", str(journal_file),
         "--solution", sol_file]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"does not replay at step {index}" in err
    assert "Traceback" not in err


def test_cli_applier_bug_exits_70_with_traceback(tmp_path, capsys, monkeypatch):
    # A ValueError out of R2's applier is a bug, not bad input: whether
    # kernelize or lift's replay reaches it, main prints its traceback
    # and no `error:` line, and exits 70.
    g = gen_random_planar(14, 0.5, 2)
    graph_file = write(tmp_path / "g.cvc", fileio.serialize_graph(g))
    journal_file = tmp_path / "journal.jsonl"
    kernelize_argv = ["kernelize", "--input", graph_file, "--k", "14", "--journal", str(journal_file)]
    assert main(kernelize_argv) == 0
    assert '"rule": "R2"' in journal_file.read_text()
    kernel, _ = fileio.parse_graph(capsys.readouterr().out)
    sol_file = write(tmp_path / "ksol.txt", fileio.serialize_solution(dfs_tree_cover(kernel)))

    def broken_apply(g, v, u, w):
        raise ValueError("bug inside an applier")

    r2 = reductions._RULES[reductions.RuleId.R2]
    monkeypatch.setitem(reductions._RULES, reductions.RuleId.R2, r2._replace(apply=broken_apply))
    lift_argv = ["lift", "--input", graph_file, "--journal", str(journal_file), "--solution", sol_file]
    for argv in (kernelize_argv, lift_argv):
        assert main(argv) == 70
        err = capsys.readouterr().err
        assert "Traceback" in err and "ValueError: bug inside an applier" in err
        assert not any(line.startswith("error:") for line in err.splitlines())


def test_cli_lift_non_integer_journal_ids_exit_code(tmp_path, capsys):
    graph_file = write(tmp_path / "g.cvc", "p cvc 3 2\ne 1 2\ne 2 3\n")
    record = {"step_index": 0, "rule": "R1", "site": {}, "created": [[1]],
              "removed": [], "k_delta": 0}
    journal_file = write(tmp_path / "journal.jsonl", json.dumps(record) + "\n")
    sol_file = write(tmp_path / "sol.txt", "2\n")
    code = main(
        ["lift", "--input", graph_file, "--journal", journal_file,
         "--solution", sol_file]
    )
    assert code == 2
    assert "bad journal record" in capsys.readouterr().err


# One row per input-error kind per command: the command line, split on
# spaces, with "{d}" for the input_error_dir fixture, and the message of
# its one `error:` line. A ("read" | "write", path) message is the
# OSError or UnicodeDecodeError that reading or writing path raises.
_LIFT = "lift --input {d}/ring.cvc --journal {d}/ring.jsonl"
_INPUT_ERROR_ROWS = {
    "kernelize-missing": ("kernelize --input {d}/absent.cvc --k 3", ("read", "{d}/absent.cvc")),
    "kernelize-directory": ("kernelize --input {d} --k 3", ("read", "{d}")),
    "kernelize-undecodable": ("kernelize --input {d}/bytes.cvc --k 3", ("read", "{d}/bytes.cvc")),
    "kernelize-malformed-graph": ("kernelize --input {d}/loop.cvc --k 3", "line 2: self-loop at vertex 1"),
    "kernelize-negative-k": ("kernelize --input {d}/ring.cvc --k -1", "budget must be non-negative, got -1"),
    "kernelize-underscore-edge-id": (
        "kernelize --input {d}/underscore.cvc --k 3", "line 2: malformed edge line 'e 1_0 2'",
    ),
    "kernelize-signed-header-count": (
        "kernelize --input {d}/signed.cvc --k 3", "line 1: malformed header 'p cvc +3 1'",
    ),
    "kernelize-nonplanar": (
        "kernelize --input {d}/k5.cvc --k 1",
        "input graph is not planar (graph with 5 vertices / 10 edges is not planar)",
    ),
    "kernelize-unwritable-journal": ("kernelize --input {d}/ring.cvc --k 11 --journal {d}", ("write", "{d}")),
    "kernelize-stats-too-large": (
        "kernelize --input {d}/tri.cvc --k 80 --stats", "exact search declined: 80 vertices with budget 80",
    ),
    "solve-missing": ("solve --input {d}/absent.cvc", ("read", "{d}/absent.cvc")),
    "solve-directory": ("solve --input {d}", ("read", "{d}")),
    "solve-undecodable": ("solve --input {d}/bytes.cvc", ("read", "{d}/bytes.cvc")),
    "solve-malformed-graph": ("solve --input {d}/loop.cvc", "line 2: self-loop at vertex 1"),
    "solve-too-large": ("solve --input {d}/tri.cvc", "exact search declined: 80 vertices with budget 80"),
    "lift-missing": (
        "lift --input {d}/ring.cvc --journal {d}/absent.jsonl --solution {d}/ring.sol",
        ("read", "{d}/absent.jsonl"),
    ),
    "lift-directory": ("lift --input {d} --journal {d}/ring.jsonl --solution {d}/ring.sol", ("read", "{d}")),
    "lift-undecodable": (_LIFT + " --solution {d}/bytes.cvc", ("read", "{d}/bytes.cvc")),
    "lift-malformed-graph": (
        "lift --input {d}/loop.cvc --journal {d}/ring.jsonl --solution {d}/ring.sol",
        "line 2: self-loop at vertex 1",
    ),
    "lift-malformed-journal": (
        "lift --input {d}/ring.cvc --journal {d}/list.jsonl --solution {d}/ring.sol",
        "line 1: bad journal record: list indices must be integers or slices, not str",
    ),
    "lift-float-site-id": (
        "lift --input {d}/ring.cvc --journal {d}/float-ids.jsonl --solution {d}/ring.sol",
        "line 1: bad journal record: site values must be integers, R3's cut a bool",
    ),
    "lift-bool-site-id": (
        "lift --input {d}/rand.cvc --journal {d}/bool-id.jsonl --solution {d}/rand.sol",
        "line 1: bad journal record: site values must be integers, R3's cut a bool",
    ),
    "lift-string-face": (
        "lift --input {d}/ring.cvc --journal {d}/string-face.jsonl --solution {d}/ring.sol",
        "line 1: bad journal record: site values must be integers, R3's cut a bool",
    ),
    "lift-float-k-delta": (
        "lift --input {d}/ring.cvc --journal {d}/float-k-delta.jsonl --solution {d}/ring.sol",
        "line 1: bad journal record: step_index and k_delta must be integers",
    ),
    "lift-bool-k-delta": (
        "lift --input {d}/ring.cvc --journal {d}/bool-k-delta.jsonl --solution {d}/ring.sol",
        "line 1: bad journal record: step_index and k_delta must be integers",
    ),
    "lift-float-step-index": (
        "lift --input {d}/ring.cvc --journal {d}/float-index.jsonl --solution {d}/ring.sol",
        "line 1: bad journal record: step_index and k_delta must be integers",
    ),
    "lift-journal-does-not-replay": (
        "lift --input {d}/paths.cvc --journal {d}/across.jsonl --solution {d}/across.sol",
        "journal does not replay at step 0: R8 on a disconnected graph",
    ),
    "lift-r3-cut-across-components": (
        "lift --input {d}/split.cvc --journal {d}/r3cut.jsonl --solution {d}/r3cut.sol",
        "kernel solution is not a connected vertex cover",
    ),
    "lift-unknown-label": (_LIFT + " --solution {d}/label99.sol", "solution label 99 is not a kernel vertex"),
    "lift-not-a-cover": (
        _LIFT + " --solution {d}/label1.sol", "kernel solution is not a connected vertex cover",
    ),
    "verify-missing": ("verify --input {d}/ring.cvc --solution {d}/absent.sol", ("read", "{d}/absent.sol")),
    "verify-directory": ("verify --input {d} --solution {d}/ring.sol", ("read", "{d}")),
    "verify-undecodable": ("verify --input {d}/bytes.cvc --solution {d}/ring.sol", ("read", "{d}/bytes.cvc")),
    "verify-malformed-graph": (
        "verify --input {d}/loop.cvc --solution {d}/ring.sol", "line 2: self-loop at vertex 1",
    ),
    "verify-malformed-solution": (
        "verify --input {d}/ring.cvc --solution {d}/loop.cvc", "line 1: bad solution line 'p cvc 2 1'",
    ),
    "verify-unknown-label": (
        "verify --input {d}/ring.cvc --solution {d}/label99.sol", "solution label 99 is not a vertex",
    ),
    "verify-non-ascii-digit-label": (
        "verify --input {d}/ring.cvc --solution {d}/arabic3.sol", "line 1: bad solution line '\u0663'",
    ),
    "generate-tightness-l": ("generate tightness --l 2", "the ring family needs at least 3 copies, got 2"),
    "generate-random-n": ("generate random --n 0", "need at least one vertex, got 0"),
    "generate-density-nan": ("generate random --n 5 --density nan", "density must lie in [0, 1], got nan"),
    "generate-density-inf": ("generate random --n 5 --density inf", "density must lie in [0, 1], got inf"),
    "generate-density-negative": (
        "generate random --n 5 --density -1", "density must lie in [0, 1], got -1.0",
    ),
    "generate-density-above-one": (
        "generate random --n 5 --density 1.5", "density must lie in [0, 1], got 1.5",
    ),
}


@pytest.fixture(scope="module")
def input_error_dir(tmp_path_factory):
    """The files that the rows of _INPUT_ERROR_ROWS name."""
    d = tmp_path_factory.mktemp("input-errors")
    ring = gen_tightness(3)
    out = kernelize(Instance(ring, 11))
    kernel = out.instance.graph
    labels = fileio.canonical_labels(kernel)
    # Journals whose records replay by value but not by type: every ring
    # site id a float, the first R8 face a string, the first ring
    # record's k_delta 0.0 or false and its step_index 0.0, and in a
    # random graph's journal the first site id 1 written as true.
    records = [json.loads(line) for line in fileio.serialize_journal(out.journal).splitlines()]
    float_ids = [dict(r, site={role: float(v) for role, v in r["site"].items()}) for r in records]
    string_face = [dict(records[0], site=dict(records[0]["site"], face="anything")), *records[1:]]
    assert records[0]["k_delta"] == records[0]["step_index"] == 0
    float_k_delta = [dict(records[0], k_delta=0.0), *records[1:]]
    bool_k_delta = [dict(records[0], k_delta=False), *records[1:]]
    float_index = [dict(records[0], step_index=0.0), *records[1:]]
    rand = gen_random_planar(14, 0.5, 0)
    rand_out = kernelize(Instance(rand, 14))
    rand_labels = fileio.canonical_labels(rand_out.instance.graph)
    bool_id = [json.loads(line) for line in fileio.serialize_journal(rand_out.journal).splitlines()]
    site = bool_id[0]["site"]
    site[next(role for role, v in site.items() if v == 1 and role != "cut")] = True
    files = {
        "ring.cvc": fileio.serialize_graph(ring),
        "ring.jsonl": fileio.serialize_journal(out.journal),
        "ring.sol": fileio.serialize_solution({labels[v] for v in dfs_tree_cover(kernel)}),
        "label1.sol": "1\n",
        "label99.sol": "99\n",
        "arabic3.sol": "\u0663\n",
        "underscore.cvc": "p cvc 12 1\ne 1_0 2\n",
        "signed.cvc": "p cvc +3 1\ne 1 2\n",
        "loop.cvc": "p cvc 2 1\ne 1 1\n",
        "k5.cvc": "p cvc 5 10\n" + "".join(f"e {i} {j}\n" for i in range(1, 6) for j in range(i + 1, 6)),
        "tri.cvc": fileio.serialize_graph(gen_random_planar(80, 1.0, 0)),
        "list.jsonl": "[1, 2]\n",
        "paths.cvc": _TWO_PATHS,
        "across.jsonl": json.dumps(_R8_ACROSS) + "\n",
        "across.sol": "1\n3\n5\n",
        "split.cvc": _R3_SPLIT,
        "r3cut.jsonl": json.dumps(_R3_CUT) + "\n",
        "r3cut.sol": "1\n2\n4\n",
        "float-ids.jsonl": "".join(json.dumps(r) + "\n" for r in float_ids),
        "string-face.jsonl": "".join(json.dumps(r) + "\n" for r in string_face),
        "float-k-delta.jsonl": "".join(json.dumps(r) + "\n" for r in float_k_delta),
        "bool-k-delta.jsonl": "".join(json.dumps(r) + "\n" for r in bool_k_delta),
        "float-index.jsonl": "".join(json.dumps(r) + "\n" for r in float_index),
        "rand.cvc": fileio.serialize_graph(rand),
        "bool-id.jsonl": "".join(json.dumps(r) + "\n" for r in bool_id),
        "rand.sol": fileio.serialize_solution({rand_labels[v] for v in dfs_tree_cover(rand_out.instance.graph)}),
    }
    for name, text in files.items():
        (d / name).write_text(text)
    (d / "bytes.cvc").write_bytes(b"p cvc 2 1\ne 1 2\nc \xff\xfe\n")
    return d


def _input_error_row(row: str, d: Path) -> tuple[list[str], str]:
    """The row's argv and the one stderr line it must print."""
    line, expected = _INPUT_ERROR_ROWS[row]
    argv = [a.replace("{d}", str(d)) for a in line.split()]
    if isinstance(expected, tuple):
        how, path = expected
        path = Path(path.replace("{d}", str(d)))
        try:
            path.read_text() if how == "read" else path.write_text("")
        except (OSError, UnicodeDecodeError) as exc:
            expected = str(exc)
        else:
            raise AssertionError(f"{path} does not fail to {how}")
    return argv, f"error: {expected}\n"


@pytest.mark.parametrize("row", list(_INPUT_ERROR_ROWS))
def test_cli_input_errors_exit_2(input_error_dir, capsys, row):
    # Every input error leaves main as exit 2, exactly one `error:` line
    # and nothing on stdout, whichever command meets it.
    argv, expected = _input_error_row(row, input_error_dir)
    code = main(argv)
    assert code == 2
    assert capsys.readouterr() == ("", expected)


@pytest.mark.parametrize(
    "row",
    [
        "kernelize-nonplanar", "lift-not-a-cover", "lift-r3-cut-across-components",
        "verify-unknown-label", "generate-density-nan",
    ],
)
def test_cli_input_errors_exit_2_optimized(input_error_dir, row):
    # The same boundary in a fresh `python -O` process, where asserts are gone.
    argv, expected = _input_error_row(row, input_error_dir)
    assert _main_optimized(argv) == (2, expected)


def test_cli_round_trip_without_networkx():
    # networkx is a test-only dependency: generate -> kernelize -> solve
    # -> lift -> verify must run with every import of it blocked (and,
    # but for generate, without loading argparse), the ring's kernel
    # must keep all three merges and be the same with abbreviated
    # options, its non-leaf cover must lift to a cover too, `kernelize
    # --stats` must find the partition bound holding, the pendant wheel
    # at m = 50 must make 25 merges and lift its non-leaf cover, a
    # random graph's kernel, reached through R2, cut R3 and R4
    # contractions, must lift
    # to a cover, so must one reached through R5, R6 and R7 steps and
    # one of n = 3200 with more than 3000 journal records, a
    # decorated copy of the first graph and of its kernel solution, read
    # line by line, must give the same kernel, journal and lift, and
    # an input error, a journal record without one of its roles, with
    # a site key beyond them or with a cut R3's flag cleared, a missing
    # --k and a non-planar K5 must exit 2.
    script = Path(__file__).resolve().parent.parent / "scripts" / "roundtrip_without_networkx.sh"
    proc = subprocess.run(
        ["bash", str(script)], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    steps = [ln.split()[1] for ln in proc.stderr.splitlines() if ln.startswith("ok ")]
    assert steps == [
        "generate", "kernelize", "ring-merges", "abbreviated-options", "solve", "lift", "verify",
        "nonleaf-lift", "stats", "wheel-round-trip", "contraction-round-trip", "r5-r7-round-trip",
        "sparse-scale-round-trip", "decorated-input", "input-error", "missing-role", "unknown-role", "flipped-cut", "usage-error", "nonplanar",
    ]


def test_cli_solve_and_verify(tmp_path, capsys):
    g = gen_random_planar(10, 0.7, 5)
    graph_file = write(tmp_path / "g.cvc", fileio.serialize_graph(g))
    assert main(["solve", "--input", graph_file]) == 0
    solution = capsys.readouterr().out
    sol_file = write(tmp_path / "sol.txt", solution)
    assert main(["verify", "--input", graph_file, "--solution", sol_file]) == 0
    assert "valid" in capsys.readouterr().out


def test_cli_solve_answers_no_below_the_minimum(tmp_path, capsys):
    # The path 1-2-3-4-5-6: its minimum connected vertex cover is {2, 3, 4, 5}.
    graph_file = write(tmp_path / "path.cvc", "p cvc 6 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 6\n")
    assert main(["solve", "--input", graph_file, "--limit", "3"]) == 1
    assert capsys.readouterr().out == "c no connected vertex cover within 3\n"
    assert main(["solve", "--input", graph_file, "--limit", "4"]) == 0
    assert capsys.readouterr().out == "2\n3\n4\n5\n"


def test_cli_verify_rejects_bad_solution(tmp_path, capsys):
    graph_file = write(tmp_path / "g.cvc", "p cvc 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    sol_file = write(tmp_path / "sol.txt", "2\n4\n")
    assert main(["verify", "--input", graph_file, "--solution", sol_file]) == 1


def test_cli_full_kernelize_solve_lift_verify_flow(tmp_path, capsys):
    g = gen_random_planar(14, 0.55, 99)
    graph_file = write(tmp_path / "g.cvc", fileio.serialize_graph(g))
    journal_file = str(tmp_path / "journal.jsonl")
    k = 9

    code = main(
        ["kernelize", "--input", graph_file, "--k", str(k), "--journal", journal_file]
    )
    kernel_out = capsys.readouterr().out
    if code == 1:
        pytest.skip("seed produced a NO instance; flow needs a kernel")
    assert code == 0
    kernel_lines = [ln for ln in kernel_out.splitlines() if not ln.startswith("c ")]
    kernel_file = write(tmp_path / "kernel.cvc", "\n".join(kernel_lines) + "\n")
    kernel_k = int(kernel_out.strip().splitlines()[-1].split()[-1])

    assert main(["solve", "--input", kernel_file, "--limit", str(kernel_k)]) == 0
    kernel_solution = capsys.readouterr().out
    sol_file = write(tmp_path / "ksol.txt", kernel_solution)

    assert main(
        ["lift", "--input", graph_file, "--journal", journal_file,
         "--solution", sol_file]
    ) == 0
    lifted = capsys.readouterr().out
    lifted_file = write(tmp_path / "lifted.txt", lifted)
    lifted_ids = fileio.parse_solution(lifted)
    assert len(lifted_ids) <= k
    assert verify_cvc(g, lifted_ids)

    assert main(["verify", "--input", graph_file, "--solution", lifted_file]) == 0


def test_cli_journal_file_replays_to_emitted_kernel(tmp_path, capsys):
    g = gen_tightness(3)
    graph_file = write(tmp_path / "g.cvc", fileio.serialize_graph(g))
    journal_file = str(tmp_path / "journal.jsonl")
    assert main(
        ["kernelize", "--input", graph_file, "--k", "11", "--journal", journal_file]
    ) == 0
    kernel_out = capsys.readouterr().out
    kernel_text = "".join(
        ln + "\n" for ln in kernel_out.splitlines() if not ln.startswith("c ")
    )
    parsed, _ = fileio.parse_graph((tmp_path / "g.cvc").read_text())
    steps = fileio.parse_journal_steps((tmp_path / "journal.jsonl").read_text())
    replayed = replay_journal(fileio.journal_for_input(parsed, steps))[-1]
    assert fileio.serialize_graph(replayed) == kernel_text
