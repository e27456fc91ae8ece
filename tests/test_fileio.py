"""cli-io: graph/journal/solution formats and the command line flows."""

from __future__ import annotations

import pytest

from planarcvc import fileio
from planarcvc.cli import main
from planarcvc.generators import gen_exception_graph, gen_random_planar, gen_tightness
from planarcvc.graph import Graph
from planarcvc.oracle import verify_cvc
from planarcvc.pipeline import Instance, Kernel, kernelize, replay_journal

from conftest import make_path


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
    assert main(["kernelize", "--input", graph_file, "--k", "5"]) == 2


def test_cli_kernelize_stats(tmp_path, capsys):
    graph_file = write(tmp_path / "g.cvc", fileio.serialize_graph(gen_tightness(3)))
    code = main(
        ["kernelize", "--input", graph_file, "--k", "11", "--stats", "--with-oracle"]
    )
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


@pytest.mark.parametrize(
    "record",
    [
        '{"created": [], "k_delta": 0, "removed": [], "rule": "R1", "site": {}}',
        "[1, 2]",
    ],
    ids=["missing-step-index", "list-record"],
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
    assert "bad journal record" in capsys.readouterr().err


def test_cli_solve_and_verify(tmp_path, capsys):
    g = gen_random_planar(10, 0.7, 5)
    graph_file = write(tmp_path / "g.cvc", fileio.serialize_graph(g))
    assert main(["solve", "--input", graph_file]) == 0
    solution = capsys.readouterr().out
    sol_file = write(tmp_path / "sol.txt", solution)
    assert main(["verify", "--input", graph_file, "--solution", sol_file]) == 0
    assert "valid" in capsys.readouterr().out


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
