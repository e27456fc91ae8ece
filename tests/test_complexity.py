"""Complexity gates that do not read the clock.

cProfile's call count for one call is deterministic: it counts
Python-level work, so its log-log slope over a doubling ladder tells a
linear layer from a quadratic one on any machine. Each row is (layer,
family, ladder, maximum slope); a row fails when the slope between the
ladder's end points, against the input's vertex count, exceeds the
bound. The middle rung is counted for the failure message only: at
these sizes one rung's journal can be longer than its neighbours'. The
rows gate on slopes, not on counts, which differ between Python
versions.

The inputs are budgeted at the size of their DFS-tree cover (ring
family: 3l + 2), so every one kernelizes. Lift rows lift the kernel's
DFS-tree cover or its non-leaf cover, which holds every merged
2-vertex with both its owners. The generate row counts building the
input itself, whose bridge test runs once per dropped edge.
"""

from __future__ import annotations

import cProfile
import functools
import math

import pytest

from planarcvc.generators import gen_random_planar, gen_tightness
from planarcvc.pipeline import Instance, Kernel, kernelize, lift_solution, replay_journal

from brute import dfs_tree_cover, non_leaf_cover, pendant_wheel

FAMILIES = {
    "sparse": lambda n: gen_random_planar(n, 0.35, 1),
    "medium": lambda n: gen_random_planar(n, 0.6, 1),
    "ring": gen_tightness,
    "triangulation": lambda n: gen_random_planar(n, 1.0, 1),
    "wheel": pendant_wheel,
}


@functools.cache
def _instance(family: str, size: int) -> Instance:
    g = FAMILIES[family](size)
    k = 3 * size + 2 if family == "ring" else len(dfs_tree_cover(g))
    return Instance(g, k)


@functools.cache
def _kernel(family: str, size: int) -> Kernel:
    out = kernelize(_instance(family, size))
    assert isinstance(out, Kernel)
    return out


COVERS = {"lift-dfs": dfs_tree_cover, "lift-nonleaf": non_leaf_cover}


def layer_call(layer: str, family: str, size: int):
    """One run of the layer on one rung, its input built outside the count."""
    if layer == "generate":
        return lambda: FAMILIES[family](size)
    if layer == "kernelize":
        inst = _instance(family, size)
        return lambda: kernelize(inst)
    out = _kernel(family, size)
    if layer == "replay":
        return lambda: replay_journal(out.journal)
    cover = COVERS[layer](out.instance.graph)
    return lambda: lift_solution(out.journal, cover)


SPARSE = (200, 400, 800)
RING = (16, 33, 66)
WHEEL = (50, 100, 200)
ROWS = [
    ("generate", "sparse", SPARSE, 1.2),
    ("kernelize", "sparse", SPARSE, 1.2),
    ("kernelize", "medium", SPARSE, 1.2),
    ("replay", "sparse", SPARSE, 1.2),
    ("lift-dfs", "sparse", SPARSE, 1.2),
    ("lift-nonleaf", "ring", RING, 1.2),
    ("kernelize", "ring", RING, 1.2),
    ("replay", "ring", RING, 1.2),
    ("kernelize", "triangulation", SPARSE, 1.2),
    ("kernelize", "wheel", WHEEL, 1.2),
]


def total_calls(call) -> int:
    """Function calls that one run of call() makes, per cProfile.

    Summed over the raw profiler entries: pstats.Stats merges functions
    that share (file, line, name), such as the generated constructor of
    every NamedTuple, and keeps only one of their counts.
    """
    prof = cProfile.Profile()
    prof.runcall(call)
    return sum(entry.callcount for entry in prof.getstats())


def call_counts(layer: str, family: str, ladder: tuple[int, ...]) -> list[tuple[int, int]]:
    """(vertex count of the input, total_calls of the layer) per rung."""
    return [
        (_instance(family, size).graph.n_vertices, total_calls(layer_call(layer, family, size)))
        for size in ladder
    ]


def endpoint_slope(points: list[tuple[int, int]]) -> float:
    """The log-log slope between the ladder's first and last rung."""
    (n0, c0), (n1, c1) = points[0], points[-1]
    return math.log(c1 / c0) / math.log(n1 / n0)


@pytest.mark.parametrize(
    "layer, family, ladder, bound", ROWS, ids=[f"{layer}-{family}" for layer, family, _, _ in ROWS]
)
def test_call_count_slope(layer, family, ladder, bound):
    points = call_counts(layer, family, ladder)
    slope = endpoint_slope(points)
    assert slope <= bound, f"{layer} on {family}: call-count slope {slope:.2f} > {bound}, (n, calls) {points}"
