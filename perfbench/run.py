"""Layered benchmark of `planarcvc kernelize` and `planarcvc lift`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. --trace 0 measures the end-to-end metrics
through the public CLI entry point (planarcvc.cli.main, in-process, on
graph, journal and solution files in a temporary directory); --trace 1
runs the traced decomposition (tracing.py) next to the untraced CLI and
reports per-layer metrics. Every output is checked; failures are
counted, not raised. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden_journals.json"
TMP_PARENT = ROOT / ".bench_tmp"
SPANS_DIR = ROOT / ".bench_out"

SETUP_PROBES = 15  # at least; due ones are taken between rounds of the measured window
MIN_ROUNDS = 4  # each call counts at its fastest scaled time over the rounds
MIN_TRACE_ROUNDS = 2
MAX_MEASURE_S = 120  # keeps a whole run under the 180 s limit
RULES = ("R1", "R2", "R3", "R4", "R5", "R6", "R7")
# slope metric -> (operation, span name)
SLOPES = {
    "reductions.phase1_s": ("kernelize", "reductions.phase1"),
    "pipeline.replay_s": ("lift", "pipeline.replay"),
    "embedding.embed_s": ("kernelize", "embedding.embed"),
    "facematch.merge_s": ("kernelize", "facematch.merge"),
}


class Tally:
    """Operations attempted and failed; a failure is reported, never raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"perfbench: FAIL {error}", file=sys.stderr)


def percentile(values: list[float], p: int) -> float:
    if p == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_percentile(n_samples: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(50, math.floor(100 - 1000 / n_samples)) if n_samples else 50


def measuring(start: float, seconds: float, rounds: int, min_rounds: int, last_round_s: float) -> bool:
    """Whether to start another round: until the window would overrun
    `seconds`, and past it (up to 1.5x) only to reach `min_rounds`."""
    elapsed = time.perf_counter() - start
    if rounds < min_rounds:
        return elapsed < min(MAX_MEASURE_S, 1.5 * seconds)
    return elapsed + last_round_s <= seconds


def machine_facts() -> dict:
    import networkx

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "networkx": networkx.__version__}


def import_seconds() -> tuple[float, float]:
    """Seconds of `import planarcvc` in a fresh process (probe.py), and
    the reference seconds (speed.py) measured just before it."""
    reference = statistics.median(speed.reference_s() for _ in range(2 * speed.SMOOTHING + 1))
    out = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(SRC)],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    return float(out.stdout.split()[-1]), reference


# ----------------------------------------------------------------------
# end-to-end run (--trace 0)
# ----------------------------------------------------------------------


def end_to_end(name: str, instances, seconds: float, tmp: Path, tally: Tally) -> tuple[dict, dict]:
    import_seconds()  # the first import of a checkout compiles bytecode

    reference = reference_runs(name, tmp, tally)  # also warms up kernelize
    kernel_n = sum(len(run.kernel) for _, run in reference)
    input_n = sum(inst.n for inst, _ in reference)
    del reference  # kept out of peak_rss_mb
    ops.run_round(instances, tmp, tally.record)  # warm-up round, not timed
    samples: dict[tuple, list[tuple[float, int]]] = {}  # see ops.run_round
    references: list[float] = []
    setup: list[tuple[float, float]] = []
    rounds, round_s = 0, 0.0
    start = time.perf_counter()
    while measuring(start, seconds, rounds, MIN_ROUNDS, round_s):
        while len(setup) < SETUP_PROBES and time.perf_counter() - start >= len(setup) * seconds / SETUP_PROBES:
            setup.append(import_seconds())
        round_start = time.perf_counter()
        ops.run_round(instances, tmp, tally.record, samples, references)
        round_s = time.perf_counter() - round_start
        rounds += 1
    while len(setup) < SETUP_PROBES:
        setup.append(import_seconds())

    metrics = {"setup_s": (statistics.median(speed.scaled(sec, ref) for sec, ref in setup), "s")}
    info = {"rounds": rounds, "reference_s": statistics.median(references),
            "setup_s": {"samples": len(setup), "unscaled": statistics.median(sec for sec, _ in setup)}}
    smooth = speed.smoothed(references)
    for op in ("kernelize", "lift"):
        calls = [values for (o, *_), values in samples.items() if o == op] or [[(0.0, 0)]]
        best = [min(speed.scaled(sec, smooth[j]) for sec, j in values) for values in calls]
        p = tail_percentile(len(best))
        metrics[f"{op}_s.p50"] = (statistics.median(best), "s")
        metrics[f"{op}_s.tail"] = (percentile(best, p), "s")
        info[f"{op}_s"] = {"calls": len(best), "tail_percentile": p,
                           "unscaled_p50": statistics.median(min(sec for sec, _ in values) for values in calls)}
    # This process is fresh and has run only this workload; the probes are children.
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["kernel_ratio"] = (kernel_n / input_n if input_n else 0.0, "ratio")
    info["measured_s"] = round(time.perf_counter() - start, 3)
    return metrics, info


# ----------------------------------------------------------------------
# traced run (--trace 1)
# ----------------------------------------------------------------------


class LayerRun:
    """Per-call span seconds and counts collected over the traced rounds."""

    def __init__(self) -> None:
        self.seconds: dict[tuple, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.counts: dict[tuple, dict] = {}
        self.journals: dict[int, str] = {}  # instance index -> YES journal text

    def add(self, key: tuple, values: dict[str, float]) -> None:
        for span_name, sec in values.items():
            self.seconds[key][span_name].append(sec)

    def median(self, key: tuple, span_name: str) -> float:
        values = self.seconds.get(key, {}).get(span_name)
        return statistics.median(values) if values else 0.0

    def total(self, span_name: str, op: str | None = None) -> float:
        return sum(self.median(key, span_name) for key in self.seconds if op in (None, key[2]))


def in_order(untraced, traced, traced_first: bool):
    """Call both; alternating the order between rounds keeps warm caches
    from favouring one side of trace.overhead_s."""
    if traced_first:
        t = traced()
        return untraced(), t
    u = untraced()
    return u, traced()


def guarded(call):
    """(result, None), or (None, error) when the traced call raised."""
    try:
        return call(), None
    except Exception as exc:  # noqa: BLE001 - counted as a failure
        return None, repr(exc)


def traced_round(instances, tmp: Path, tr, tally: Tally, layers: LayerRun | None, traced_first: bool) -> None:
    for i, inst in enumerate(instances):
        for k in inst.budgets:
            where = f"traced kernelize k={k} on {inst.label}"
            traced_journal = tmp / f"traced{i}-k{k}.journal"
            traced_journal.unlink(missing_ok=True)
            run, (traced, error) = in_order(
                lambda: ops.kernelize(inst, k, tmp),
                lambda: guarded(lambda: tracing.kernelize(
                    tr, inst.path, k, traced_journal, tmp / f"traced{i}-k{k}.kernel", instance=inst.label)),
                traced_first)
            tally.record(run.error)
            if run.error is not None:
                continue
            if error is None and inputs.sha256(traced[1]) != inputs.sha256(run.kernel_text):
                error = "stdout differs from the CLI's"
            if error is None and run.code == 0 and (
                    inputs.sha256(traced_journal.read_text()) != inputs.sha256(run.journal_text)):
                error = "journal differs from the CLI's"
            tally.record(error and f"{where}: {error}")
            if error is not None:
                continue
            root, _, counts = traced
            key = (i, k, "kernelize")
            if layers is not None:
                layers.add(key, {**tracing.layer_seconds(tr.spans, root),
                                 "untraced": run.seconds,
                                 "traced": root["end"] - root["start"],
                                 "covered": tracing.covered_seconds(tr.spans, root)})
                layers.counts.setdefault(key, counts)
            if k != inst.yes_k:
                continue
            if layers is not None:
                layers.journals.setdefault(i, run.journal_text)

            where = f"traced lift k={k} on {inst.label}"
            solution = tmp / f"{inst.path.stem}-k{k}.sol"
            ops.write_kernel_solution(run, solution)
            lifted, (traced, error) = in_order(
                lambda: ops.lift(inst, run, tmp),
                lambda: guarded(lambda: tracing.lift(
                    tr, inst.path, traced_journal, solution, tmp / f"traced{i}-k{k}.lifted", instance=inst.label)),
                traced_first)
            tally.record(lifted.error)
            if lifted.error is not None:
                continue
            if error is None and inputs.sha256(traced[1]) != inputs.sha256(lifted.lifted_text):
                error = "lifted cover differs from the CLI's"
            tally.record(error and f"{where}: {error}")
            if error is None and layers is not None:
                root, _, counts = traced
                key = (i, k, "lift")
                layers.add(key, {**tracing.layer_seconds(tr.spans, root), "untraced": lifted.seconds})
                layers.counts.setdefault(key, counts)


def slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) over log(size); 0.0 with fewer than two sizes."""
    pts = [(math.log(x), math.log(y)) for x, y in points if y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return (sum((x - mx) * (y - my) for x, y in pts)
            / sum((x - mx) ** 2 for x, _ in pts))


def reference_runs(name: str, tmp: Path, tally: Tally) -> list:
    """Kernelize the instances of the first recorded seed once, at their YES budgets.

    These inputs are the same in every run, so what is measured on them
    depends on the program alone.
    """
    seed = json.loads(GOLDEN.read_text())["seeds"][0]
    ref_dir = tmp / "reference"
    ref_dir.mkdir(exist_ok=True)
    instances = workloads.build(name, seed)
    workloads.write_inputs(instances, ref_dir)
    runs = []
    for inst in instances:
        run = ops.kernelize(inst, inst.yes_k, ref_dir)
        tally.record(run.error)
        if run.error is None:
            runs.append((inst, run))
    return runs


def journal_match(name: str, seed: int, instances, layers: LayerRun, tmp: Path, tally: Tally) -> tuple[float, dict]:
    """Share of YES journals whose digest equals the recorded reference.

    When this seed has no recorded references, the reference instances
    are kernelized once and compared instead.
    """
    golden = json.loads(GOLDEN.read_text())
    refs = golden["digests"]
    pairs = [(inst.reference_key, layers.journals[i]) for i, inst in enumerate(instances) if i in layers.journals]
    base_seed = seed
    if seed not in golden["seeds"]:
        base_seed = golden["seeds"][0]
        pairs = [(inst.reference_key, run.journal_text) for inst, run in reference_runs(name, tmp, tally)]
    compared = [(key, text) for key, text in pairs if key in refs]
    matched = sum(refs[key] == inputs.sha256(text)[:16] for key, text in compared)
    return (matched / len(compared) if compared else 0.0), {"seed": base_seed, "compared": len(compared)}


def per_layer(name: str, seed: int, instances, seconds: float, tmp: Path, tally: Tally) -> tuple[dict, dict]:
    tr = tracing.Tracer()
    traced_round(instances[:1], tmp, tracing.Tracer(), tally, None, False)  # warm-up
    layers = LayerRun()
    rounds, round_s = 0, 0.0
    start = time.perf_counter()
    while measuring(start, seconds, rounds, MIN_TRACE_ROUNDS, round_s):
        round_start = time.perf_counter()
        traced_round(instances, tmp, tr, tally, layers, rounds % 2 == 1)
        round_s = time.perf_counter() - round_start
        rounds += 1

    def count(field: str, op: str = "kernelize", yes_only: bool = False) -> int:
        return sum(c.get(field, 0) for (i, k, o), c in layers.counts.items()
                   if o == op and (not yes_only or k == instances[i].yes_k))

    steps = Counter()
    for c in layers.counts.values():
        steps.update(c.get("steps", {}))
    phase1_s = layers.total("reductions.phase1")
    untraced = layers.total("untraced", "kernelize")
    match, match_info = journal_match(name, seed, instances, layers, tmp, tally)
    m = {
        "reductions.phase1_s": (phase1_s, "s"),
        "reductions.steps": (sum(steps.values()), "count"),
        **{f"reductions.{r}": (steps.get(r, 0), "count") for r in RULES},
        "reductions.s_per_step": (phase1_s / (sum(steps.values()) + 1), "s"),
        "embedding.embed_s": (layers.total("embedding.embed"), "s"),
        "embedding.faces": (count("faces"), "count"),
        "embedding.max_face": (max((c.get("max_face", 0) for c in layers.counts.values()), default=0), "count"),
        "facematch.owners": (count("owners"), "count"),
        "facematch.aux_edges": (count("aux_edges"), "count"),
        "facematch.aux_s": (layers.total("facematch.aux"), "s"),
        "facematch.planarize_s": (layers.total("facematch.planarize"), "s"),
        "facematch.merge_s": (layers.total("facematch.merge"), "s"),
        "matching.match_s": (layers.total("matching.match"), "s"),
        "matching.size": (count("matching"), "count"),
        "pipeline.replay_s": (layers.total("pipeline.replay"), "s"),
        "pipeline.snapshots": (count("snapshots", "lift"), "count"),
        "pipeline.lift_solution_s": (layers.total("pipeline.lift_solution"), "s"),
        "oracle.verify_s": (layers.total("oracle.verify"), "s"),
        "fileio.parse_s": (layers.total("fileio.parse"), "s"),
        "fileio.serialize_s": (layers.total("fileio.serialize"), "s"),
        "fileio.journal_bytes": (sum(len(t.encode()) for t in layers.journals.values()), "bytes"),
        "graph.copy_s": (layers.total("graph.copy", "kernelize"), "s"),
        "cli.parse_args_s": (layers.total("cli.parse_args"), "s"),
        "pipeline.kernel_n": (count("kernel_n", yes_only=True), "count"),
        "pipeline.k_spent": (count("k_spent", yes_only=True), "count"),
        "pipeline.gate_slack": (count("gate_slack", yes_only=True), "count"),
        "pipeline.journal_match": (match, "ratio"),
    }
    for metric, (op, span_name) in SLOPES.items():
        points = [(inst.n, layers.median((i, inst.yes_k, op), span_name)) for i, inst in enumerate(instances)]
        m[f"{metric}.slope"] = (slope(points), "ratio")
    m["trace.coverage"] = (layers.total("covered") / untraced if untraced else 0.0, "ratio")
    m["trace.overhead_s"] = (layers.total("traced") - untraced, "s")
    m["error_rate"] = (tally.failed / tally.attempted, "ratio")

    SPANS_DIR.mkdir(exist_ok=True)
    with open(SPANS_DIR / f"spans-{name}-seed{seed}.jsonl", "w") as out:
        for span in tr.spans:
            out.write(json.dumps(span) + "\n")
    info = {"rounds": rounds, "spans": len(tr.spans), "journal_match": match_info,
            "measured_s": round(time.perf_counter() - start, 3)}
    return m, info


# ----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    instances = workloads.build(args.workload, args.seed)
    tally = Tally()
    TMP_PARENT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_PARENT) as tmp_name:
        tmp = Path(tmp_name)
        workloads.write_inputs(instances, tmp)
        if args.trace:
            metrics, info = per_layer(args.workload, args.seed, instances, args.seconds, tmp, tally)
        else:
            metrics, info = end_to_end(args.workload, instances, args.seconds, tmp, tally)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace, machine=machine_facts(),
                inputs=[{"label": i.label, "n": i.n, "budgets": list(i.budgets),
                         "sha256": inputs.sha256(i.text)} for i in instances])
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "planarcvc" / "cli.py").is_file():
        sys.exit(f"perfbench: no planarcvc sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import inputs
    import ops
    import speed
    import tracing
    import workloads

    sys.exit(main())
