"""The benchmark's traced decomposition still runs against the package.

perfbench/tracing.py imports or reads these names of the package, and
perfbench/run.py imports it even when it traces nothing:
- cli.build_parser;
- fileio.parse_graph, parse_journal_steps, parse_solution,
  journal_for_input, canonical_labels, serialize_graph,
  serialize_journal and serialize_solution;
- embedding.embed, Embedding.faces and Face.boundary;
- facematch.build_aux_graph (AuxGraph.vertices, .edges and .to_graph),
  planarize_matching (PlanarizedMatching.pairs) and
  apply_identification;
- matching.maximum_matching (Matching.size);
- reductions.run_phase1 (Phase1Result.steps, .early_no, .graph and .k;
  ReductionStep.rule);
- pipeline.NoReason, ReductionJournal (input_graph, dropped_isolated,
  steps and k_spent), check_size_bound, replay_journal and
  lift_solution;
- oracle.verify_cvc;
- Graph.copy, isolated_vertices, remove_vertex, is_connected and
  n_vertices.

Loading it here and running its kernelize and lift once on the ring
family (l = 3, k = 11) makes a deletion that breaks the benchmark fail
in the test suite. Both traced outputs must equal the CLI's.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from planarcvc import fileio
from planarcvc.cli import main
from planarcvc.generators import gen_tightness

from brute import dfs_tree_cover

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    """perfbench/tracing.py as a module, without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_traced_kernelize_and_lift_match_the_cli(tmp_path, capsys):
    tracing = _load_tracing()
    graph_file = tmp_path / "ring.cvc"
    graph_file.write_text(fileio.serialize_graph(gen_tightness(3)))

    cli_journal = tmp_path / "cli.jsonl"
    assert main(["kernelize", "--input", str(graph_file), "--k", "11", "--journal", str(cli_journal)]) == 0
    cli_kernel = capsys.readouterr().out
    traced_journal = tmp_path / "traced.jsonl"
    _, traced_kernel, counts = tracing.kernelize(
        tracing.Tracer(), graph_file, 11, traced_journal, tmp_path / "traced.out"
    )
    assert traced_kernel == cli_kernel
    assert traced_journal.read_text() == cli_journal.read_text()
    assert counts["kernel_n"] == 35 and counts["max_face"] > 0

    kernel, _ = fileio.parse_graph(cli_kernel)
    solution = tmp_path / "kernel.sol"
    solution.write_text(fileio.serialize_solution(dfs_tree_cover(kernel)))
    assert main(["lift", "--input", str(graph_file), "--journal", str(cli_journal), "--solution", str(solution)]) == 0
    cli_lift = capsys.readouterr().out
    _, traced_lift, _ = tracing.lift(tracing.Tracer(), graph_file, cli_journal, solution, tmp_path / "lift.out")
    assert traced_lift == cli_lift
