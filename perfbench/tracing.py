"""Traced decomposition of `planarcvc kernelize` and `planarcvc lift`.

Makes the same public calls as cli.main does through cli._cmd_kernelize
and pipeline.kernelize, or through cli._cmd_lift, one at a time and in
the same order, with a span around each call. Spans are kept in memory (Tracer.spans) and written
out by the caller when the run ends. The decomposition writes the same
files the CLI writes (stdout goes to a file, as in `planarcvc ... > F`),
so the caller can compare them byte for byte.

A span is a dict: id, trace (id of its root span), parent, name, start,
end, and extra attributes. Spans marked probe=True time again a call
the pipeline makes inside another call (the copy inside run_phase1, the
verify_cvc inside lift_solution). A probe runs after its root span has
ended, so it adds nothing to the root's time, and it is filed under the
root but left out of coverage.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from pathlib import Path

from planarcvc import fileio
from planarcvc.cli import build_parser
from planarcvc.embedding import embed
from planarcvc.facematch import apply_identification, build_aux_graph, planarize_matching
from planarcvc.matching import maximum_matching
from planarcvc.oracle import verify_cvc
from planarcvc.pipeline import (
    NoReason,
    ReductionJournal,
    check_size_bound,
    lift_solution,
    replay_journal,
)
from planarcvc.reductions import run_phase1


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        rec = {
            "id": len(self.spans),
            "trace": parent["trace"] if parent else len(self.spans),
            "parent": parent["id"] if parent else None,
            "name": name,
            **attrs,
        }
        self.spans.append(rec)
        self._open.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def probe(self, root: dict, name: str):
        """A span under the ended span `root`, marked probe=True."""
        self._open.append(root)
        try:
            with self.span(name, probe=True) as rec:
                yield rec
        finally:
            self._open.pop()


def layer_seconds(spans: list[dict], root: dict) -> dict[str, float]:
    """Seconds per span name among the children of one root span."""
    out: Counter = Counter()
    for s in spans[root["id"] + 1:]:
        if s["trace"] != root["trace"]:
            break
        out[s["name"]] += s["end"] - s["start"]
    return dict(out)


def covered_seconds(spans: list[dict], root: dict) -> float:
    """Seconds of the root's direct children, probes excluded."""
    total = 0.0
    for s in spans[root["id"] + 1:]:
        if s["trace"] != root["trace"]:
            break
        if s["parent"] == root["id"] and not s.get("probe"):
            total += s["end"] - s["start"]
    return total


def kernelize(tr: Tracer, input_path: Path, k: int, journal_path: Path, stdout_path: Path,
              **attrs) -> tuple[dict, str, dict]:
    """Traced `kernelize --input input_path --k k --journal journal_path > stdout_path`.

    Returns the root span, the text written to stdout_path, and the
    per-layer counts.
    """
    counts: dict = {}
    with tr.span("kernelize", k=k, **attrs) as root:
        with tr.span("cli.parse_args"):
            args = build_parser().parse_args(
                ["kernelize", "--input", str(input_path), "--k", str(k), "--journal", str(journal_path)])
        stdout, phase1_input = _kernelize(tr, Path(args.input), args.k, Path(args.journal), counts)
        with tr.span("fileio.serialize"):
            stdout_path.write_text(stdout)
    if phase1_input is not None:
        with tr.probe(root, "graph.copy"):  # the copy run_phase1 makes
            phase1_input.copy()
    return root, stdout, counts


def _kernelize(tr: Tracer, input_path: Path, k: int, journal_path: Path, counts: dict):
    """The kernel text, and the graph handed to run_phase1 (None if it was not called)."""
    with tr.span("fileio.parse"):
        g, _ = fileio.parse_graph(input_path.read_text())
    with tr.span("graph.copy"):
        work = g.copy()
    with tr.span("graph.prepare"):
        dropped = tuple(work.isolated_vertices())
        for v in dropped:
            work.remove_vertex(v)
        connected = work.n_vertices == 0 or work.is_connected()
    with tr.span("graph.copy"):
        journal = ReductionJournal(input_graph=g.copy(), dropped_isolated=dropped)
    if work.n_vertices == 0:
        return _kernel_text(tr, journal, work, k, journal_path), None
    if not connected:
        return f"c no-instance {NoReason.MULTI_EDGE_COMPONENTS.value}\n", None

    with tr.span("reductions.phase1"):
        phase1 = run_phase1(work, k)
    counts["steps"] = Counter(s.rule.name for s in phase1.steps)
    if phase1.early_no:
        return f"c no-instance {NoReason.BUDGET_UNDERFLOW.value}\n", work
    g1, k1 = phase1.graph, phase1.k

    with tr.span("embedding.embed"):
        emb = embed(g1)
    counts["faces"] = len(emb.faces)
    counts["max_face"] = max(len(f.boundary) for f in emb.faces)

    merges = []
    with tr.span("facematch.aux"):
        aux = build_aux_graph(g1, emb)
    counts["owners"] = len(aux.vertices)
    counts["aux_edges"] = len(aux.edges)
    if aux.edges:
        with tr.span("matching.match"):
            m0 = maximum_matching(aux.to_graph())
        counts["matching"] = m0.size
        with tr.span("facematch.planarize"):
            planar = planarize_matching(m0, emb)
        for u, v, face_id in planar.pairs:
            with tr.span("facematch.merge"):
                merges.append(apply_identification(g1, u, v, face_id))
    journal.steps = list(phase1.steps) + merges

    with tr.span("pipeline.gate"):
        fits = check_size_bound(g1.n_vertices, k1)
    if not fits:
        return f"c no-instance {NoReason.SIZE_GATE.value}\n", work
    counts.update(kernel_n=g1.n_vertices, k_spent=journal.k_spent,
                  gate_slack=11 * k1 - 3 * g1.n_vertices)
    return _kernel_text(tr, journal, g1, k1, journal_path), work


def _kernel_text(tr: Tracer, journal: ReductionJournal, kernel, k: int, journal_path: Path) -> str:
    with tr.span("fileio.serialize"):
        journal_path.write_text(fileio.serialize_journal(journal))
        return fileio.serialize_graph(kernel) + f"c kernel-k {k}\n"


def lift(tr: Tracer, input_path: Path, journal_path: Path, solution_path: Path, stdout_path: Path,
         **attrs) -> tuple[dict, str, dict]:
    """Traced `lift --input --journal --solution > stdout_path`; returns root span, stdout, counts."""
    with tr.span("lift", **attrs) as root:
        with tr.span("cli.parse_args"):
            args = build_parser().parse_args(
                ["lift", "--input", str(input_path), "--journal", str(journal_path), "--solution", str(solution_path)])
        with tr.span("fileio.parse"):
            g, _ = fileio.parse_graph(Path(args.input).read_text())
            steps = fileio.parse_journal_steps(Path(args.journal).read_text())
            kernel_labels = fileio.parse_solution(Path(args.solution).read_text())
        with tr.span("fileio.journal_for_input"):
            journal = fileio.journal_for_input(g, steps)
        with tr.span("pipeline.replay"):
            snapshots = replay_journal(journal)
        counts = {"snapshots": len(snapshots)}
        with tr.span("fileio.labels"):
            by_label = {lab: v for v, lab in fileio.canonical_labels(snapshots[-1]).items()}
            kernel_solution = {by_label[lab] for lab in kernel_labels}
        del snapshots
        with tr.span("pipeline.lift_solution"):
            lifted = lift_solution(journal, kernel_solution)
        with tr.span("fileio.serialize"):
            input_labels = fileio.canonical_labels(g)
            text = fileio.serialize_solution({input_labels[v] for v in lifted})
            stdout_path.write_text(text)
    with tr.probe(root, "oracle.verify"):  # as lift_solution does on its result
        verify_cvc(journal.input_graph, lifted)
    return root, text, counts
