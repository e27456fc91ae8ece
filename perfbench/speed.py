"""Machine-speed reference for the end-to-end timings.

The machine is shared, and for seconds to minutes at a time the same
calls run up to ~2x slower. Every timed call is therefore paired with a
timing of a fixed reference workload made just before it, in the same
process, and reported as

    seconds * NOMINAL_S / reference seconds

that is, in seconds on a machine where the reference takes NOMINAL_S.
The reference builds and runs an argument parser, stdlib code with the
same mix of small allocations, dict lookups and calls as the program;
of the loops tried (dict/set graph scans, a networkx planarity test,
allocation churn, file writes, full garbage collections), it followed
the program's slow spells most closely. It imports nothing from
planarcvc, so a change to the program cannot move it.
"""

from __future__ import annotations

import argparse
import statistics
import time

NOMINAL_S = 0.001  # reference seconds the reported times are scaled to
SMOOTHING = 5  # a call's reference is the median of this many samples on each side


def _parse() -> None:
    parser = argparse.ArgumentParser(prog="reference")
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("kernelize", "lift"):
        command = commands.add_parser(name)
        command.add_argument("--input", required=True)
        command.add_argument("--k", type=int)
        command.add_argument("--journal")
    parser.parse_args(["kernelize", "--input", "graph.txt", "--k", "12", "--journal", "journal.txt"])


def reference_s() -> float:
    """Seconds of one run of the reference workload."""
    start = time.perf_counter()
    _parse()
    return time.perf_counter() - start


def smoothed(references: list[float]) -> list[float]:
    """Each reference sample replaced by the median of its neighbourhood,
    so that one disturbed sample does not rescale its call."""
    return [statistics.median(references[max(0, i - SMOOTHING):i + SMOOTHING + 1])
            for i in range(len(references))]


def scaled(seconds: float, reference: float) -> float:
    """`seconds` measured next to `reference`, in nominal-machine seconds."""
    return seconds * NOMINAL_S / reference
