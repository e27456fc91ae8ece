"""Shared fixtures: small named graphs (the R6 and R7 examples among them),
a seeded relabelling through the text format, and the seeded random corpora."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from planarcvc import fileio
from planarcvc.graph import Graph
from planarcvc.generators import gen_random_planar

from brute import graph_from_edges


def run_python(args: list[str], env: dict[str, str] | None = None, **kwargs) -> subprocess.CompletedProcess:
    """`python ARGS` in a fresh process that imports planarcvc from this
    checkout's src; env adds to (or, with "", clears) environment variables."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": path, **(env or {})}, timeout=60, **kwargs
    )


def make_path(n: int) -> Graph:
    return graph_from_edges((i, i + 1) for i in range(1, n))


def make_cycle(n: int) -> Graph:
    return graph_from_edges(
        [(i, i + 1) for i in range(1, n)] + [(1, n)]
    )


def make_complete(n: int) -> Graph:
    return graph_from_edges(
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
    )


def make_complete_bipartite(a: int, b: int) -> Graph:
    return graph_from_edges(
        (i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)
    )


def make_star(leaves: int) -> Graph:
    return graph_from_edges((1, 1 + i) for i in range(1, leaves + 1))


def make_petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i + 1, (i + 1) % 5 + 1))       # outer cycle
        edges.append((i + 1, i + 6))                 # spokes
        edges.append((i + 6, (i + 2) % 5 + 6))       # inner pentagram
    return graph_from_edges(edges)


def r6_example() -> Graph:
    # Twins 3, 4 see {1, 5, 6}; 1 keeps the pendant 2 and {7, 8} hang on
    # {5, 6}, so deleting any two common neighbors disconnects something.
    return graph_from_edges(
        [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (3, 5), (3, 6), (4, 5), (4, 6),
         (5, 7), (5, 8), (6, 7), (6, 8), (7, 8)]
    )


def r7_example() -> Graph:
    # a=1, v=2 (pendant q=3), x=4, y=5, plus the 3-vertices 6, 7 that keep
    # x and y busy enough for every earlier rule to stay silent.
    return graph_from_edges(
        [(1, 4), (1, 2), (1, 5), (2, 4), (2, 5), (2, 3),
         (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)]
    )


def relabelled(g: Graph, rng: random.Random) -> Graph:
    """g written as text, its labels permuted and its edge lines shuffled, read back."""
    header, *edge_lines = fileio.serialize_graph(g).splitlines()
    perm = list(range(1, g.n_vertices + 1))
    rng.shuffle(perm)
    edges = [f"e {perm[int(u) - 1]} {perm[int(w) - 1]}" for _, u, w in map(str.split, edge_lines)]
    rng.shuffle(edges)
    return fileio.parse_graph("\n".join([header, *edges]) + "\n")[0]


def make_random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi style graph, not necessarily planar or connected."""
    rng = random.Random(seed)
    g = Graph()
    verts = [g.add_vertex() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(verts[i], verts[j])
    return g


def small_planar_corpus(count: int, max_n: int = 16, seed: int = 2024):
    """Seeded connected planar instances for the equivalence suites."""
    rng = random.Random(seed)
    corpus = []
    for i in range(count):
        n = rng.randint(4, max_n)
        density = rng.choice([0.4, 0.55, 0.7, 0.85, 1.0])
        corpus.append(gen_random_planar(n, density, seed * 1000 + i))
    return corpus


@pytest.fixture(scope="session")
def corpus_small():
    return small_planar_corpus(120)


@pytest.fixture(scope="session")
def corpus_acceptance():
    return small_planar_corpus(500, seed=4099)
