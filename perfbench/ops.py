"""The two user-facing operations, run through the public CLI entry point
`planarcvc.cli.main` in-process, and the benchmark's checks of their output.

A check failure or an exception is returned as an error string, never
raised, so it can be counted against the operations attempted.
"""

from __future__ import annotations

import contextlib
import json
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import inputs
import speed
from planarcvc.cli import main as cli_main
from workloads import Instance


def run_cli(argv: list[str], stdout_path: Path) -> tuple[int | None, float, str | None]:
    """Run `planarcvc ARGV > stdout_path`; returns (exit code, seconds, traceback)."""
    start = time.perf_counter()
    try:
        with open(stdout_path, "w") as out, contextlib.redirect_stdout(out):
            code = cli_main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception:  # noqa: BLE001 - a crash is a counted failure
        return None, time.perf_counter() - start, traceback.format_exc()
    return code, time.perf_counter() - start, None


@dataclass
class KernelRun:
    k: int
    code: int | None
    seconds: float
    error: str | None
    kernel_text: str = ""
    journal_text: str = ""
    kernel: inputs.Adj | None = None
    kernel_k: int = 0


def kernelize(inst: Instance, k: int, tmp: Path) -> KernelRun:
    """`planarcvc kernelize --input F --k K --journal J > kernel`, then check it."""
    kernel_path = tmp / f"{inst.path.stem}-k{k}.kernel"
    journal_path = tmp / f"{inst.path.stem}-k{k}.journal"
    journal_path.unlink(missing_ok=True)
    code, seconds, crash = run_cli(
        ["kernelize", "--input", str(inst.path), "--k", str(k), "--journal", str(journal_path)],
        kernel_path,
    )
    run = KernelRun(k, code, seconds, crash)
    if crash is None:
        run.kernel_text = kernel_path.read_text()
        try:
            run.error = _check_kernel(inst, run, journal_path)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            run.error = f"kernelize k={k}: unreadable output: {exc!r}"
    return run


def _check_kernel(inst: Instance, run: KernelRun, journal_path: Path) -> str | None:
    if run.code not in (0, 1):
        return f"kernelize k={run.k}: exit code {run.code}"
    if run.k == inst.yes_k and run.code != 0:
        return f"kernelize k={run.k}: exit code {run.code} at a certified-YES budget"
    if run.code == 1:
        return None
    run.journal_text = journal_path.read_text()
    run.kernel, kernel_k = inputs.parse_graph_text(run.kernel_text)
    if kernel_k is None:
        return f"kernelize k={run.k}: kernel file has no kernel-k line"
    run.kernel_k = kernel_k
    n = len(run.kernel)
    if 3 * n > 11 * kernel_k:
        return f"kernelize k={run.k}: 3*{n} > 11*{kernel_k}"
    records = [json.loads(line) for line in run.journal_text.splitlines() if line.strip()]
    spent = -sum(r["k_delta"] for r in records)
    if spent != run.k - kernel_k:
        return f"kernelize k={run.k}: journal spends {spent}, budget fell by {run.k - kernel_k}"
    if inst.copies is not None:
        merges = sum(r["rule"] == "R8" for r in records)
        if n != 11 * inst.copies + 2 or merges != inst.copies:
            return (f"ring l={inst.copies}: kernel has {n} vertices and {merges} R8 steps,"
                    f" expected {11 * inst.copies + 2} and {inst.copies}")
    return None


@dataclass
class LiftRun:
    code: int | None
    seconds: float
    error: str | None
    lifted_text: str = ""


def write_kernel_solution(run: KernelRun, solution_path: Path) -> int:
    """Write the kernel's DFS cover as the solution to lift; returns its size."""
    cover = inputs.dfs_cover(run.kernel)
    solution_path.write_text("".join(f"{v}\n" for v in sorted(cover)))
    return len(cover)


def lift(inst: Instance, run: KernelRun, tmp: Path) -> LiftRun:
    """`planarcvc lift` of the kernel's DFS cover, then check the lifted cover."""
    stem = f"{inst.path.stem}-k{run.k}"
    solution_path = tmp / f"{stem}.sol"
    lifted_path = tmp / f"{stem}.lifted"
    kernel_cover = write_kernel_solution(run, solution_path)
    code, seconds, crash = run_cli(
        ["lift", "--input", str(inst.path), "--journal", str(tmp / f"{stem}.journal"),
         "--solution", str(solution_path)],
        lifted_path,
    )
    out = LiftRun(code, seconds, crash)
    if crash is not None:
        return out
    if code != 0:
        out.error = f"lift k={run.k}: exit code {code}"
        return out
    out.lifted_text = lifted_path.read_text()
    try:
        lifted = {int(line) for line in out.lifted_text.split()}
    except ValueError:
        out.error = f"lift k={run.k}: lifted solution is not a list of labels"
        return out
    if not inputs.is_connected_cover(inst.adj, lifted):
        out.error = f"lift k={run.k}: lifted set is not a connected vertex cover"
    elif len(lifted) > kernel_cover + run.k - run.kernel_k:
        out.error = (f"lift k={run.k}: lifted cover {len(lifted)} exceeds"
                     f" {kernel_cover} + {run.k - run.kernel_k}")
    return out


def run_round(instances: list[Instance], tmp: Path, record: Callable[[str | None], None],
              samples: dict[tuple, list[tuple[float, int]]] | None = None,
              references: list[float] | None = None) -> None:
    """Kernelize every instance at every budget and lift at the YES budget.

    record() receives each operation's error (None when it passed). When
    samples is given, the reference workload (speed.py) is timed just
    before each call and appended to references, and samples collects
    (seconds, index of that reference) of the passing calls under the
    key (operation, instance index, budget), one pair per round.
    """
    def timed(op: str, i: int, k: int, call):
        if samples is None:
            return call()
        references.append(speed.reference_s())
        result = call()
        if result.error is None:
            samples.setdefault((op, i, k), []).append((result.seconds, len(references) - 1))
        return result

    for i, inst in enumerate(instances):
        for k in inst.budgets:
            run = timed("kernelize", i, k, lambda: kernelize(inst, k, tmp))
            record(run.error)
            if run.error is not None or k != inst.yes_k:
                continue
            lifted = timed("lift", i, k, lambda: lift(inst, run, tmp))
            record(lifted.error)
