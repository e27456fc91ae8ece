"""The four workloads: seeded instance sets and the budgets each is run at.

Each workload stresses a different layer of planarcvc, so that a change
to one layer shows on one workload and predicts no change on another:

  sparse_reduce  Phase 1 (reductions) and journal replay
  ring_merge     Phase 2 (facematch, matching) and the R8 lift
  dense_embed    embedding, parsing and serialization
  budget_sweep   fixed per-call costs (argument parsing, copies, first scans)

A run times every call of a round (each instance at each budget) once
per round and keeps its fastest scaled time, so a round must be short enough
for many rounds to fit in a run (about 2-3 s here). The first three
workloads are geometric size ladders of 36 instances, one size step
apart (for the log-log slopes). With no gaps between sizes, the median
and tail calls sit among calls of nearly the same cost, so one unusually
fast or slow graph moves them little. budget_sweep has one size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import inputs


@dataclass
class Instance:
    """One input graph and the budgets it is kernelized at."""

    label: str
    adj: inputs.Adj
    budgets: tuple[int, ...]
    yes_k: int  # a budget certified YES by the benchmark's own cover
    copies: int | None = None  # l for the ring family, whose kernel is known
    path: Path | None = None

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def text(self) -> str:
        return inputs.graph_text(self.adj)

    @property
    def reference_key(self) -> str:
        """Key of this input's YES journal in golden_journals.json."""
        return f"{inputs.sha256(self.text)[:16]}:{self.yes_k}"


DENSITY = 0.5
SWEEP_BUDGETS = 4

# (smallest size, largest size, number of instances): vertices, or l for the ring family
WORKLOADS = {
    "sparse_reduce": (50, 200, 36),
    "ring_merge": (6, 24, 36),
    "dense_embed": (100, 400, 36),
    "budget_sweep": (80, 80, 32),
}


def sizes(name: str) -> list[int]:
    """The workload's size ladder, geometric from its smallest to its largest size."""
    lo, hi, count = WORKLOADS[name]
    return [round(lo * (hi / lo) ** (i / max(count - 1, 1))) for i in range(count)]


def _dfs_budget(label: str, adj: inputs.Adj) -> Instance:
    k = len(inputs.dfs_cover(adj))
    return Instance(label, adj, (k,), k)


def build(name: str, seed: int) -> list[Instance]:
    """The workload's instances for this seed; equal seeds give equal inputs."""
    rng = random.Random(f"{name}:{seed}")
    if name == "sparse_reduce":
        return [_dfs_budget(f"#{i} n={n}", inputs.thinned_planar(n, DENSITY, rng)) for i, n in enumerate(sizes(name))]
    if name == "dense_embed":
        return [_dfs_budget(f"#{i} n={n}", inputs.triangulation(n, rng)) for i, n in enumerate(sizes(name))]
    if name == "ring_merge":
        out = []
        for i, copies in enumerate(sizes(name)):
            adj, cover = inputs.ring_family(copies)
            adj, perm = inputs.relabel(adj, rng)
            cover = {perm[v] for v in cover}
            if not inputs.is_connected_cover(adj, cover) or len(cover) != 3 * copies + 2:
                raise RuntimeError(f"ring family l={copies}: reference cover is wrong")
            out.append(Instance(f"#{i} l={copies}", adj, (len(cover),), len(cover), copies))
        return out
    if name == "budget_sweep":
        out = []
        for i, n in enumerate(sizes(name)):
            adj = inputs.thinned_planar(n, DENSITY, rng)
            lower = inputs.greedy_matching_size(adj)
            upper = len(inputs.dfs_cover(adj))
            low = lower - 1  # certainly below the optimum
            span = upper - low
            budgets = tuple(sorted({low + round(j * span / (SWEEP_BUDGETS - 1))
                                    for j in range(SWEEP_BUDGETS)}))
            out.append(Instance(f"#{i} n={n}", adj, budgets, upper))
        return out
    raise KeyError(name)


def write_inputs(instances: list[Instance], directory: Path) -> None:
    for i, inst in enumerate(instances):
        inst.path = directory / f"input{i}.cvc"
        inst.path.write_text(inst.text)
