"""Instance generators: the tight ring family, the 6-vertex exception
graph, and seeded random planar graphs for the property-test corpus.

The ring family witnesses that the 11/3 size analysis is sharp: for
``copies`` >= 3 it has 12*copies + 2 vertices, none of the Phase 1 rules
apply, Phase 2 merges exactly ``copies`` pendant pairs, and the minimum
connected vertex cover has 3*copies + 2 vertices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .embedding import NonPlanarGraphError, embed
from .facematch import pendant_owners
from .graph import Graph, VertexId
from .oracle import minimum_cvc, verify_cvc
from .pipeline import (
    Kernel,
    Instance,
    kernelize,
    partition_bound_holds,
    partition_stats,
)
from .reductions import RuleId, detect_rule


def gen_tightness(copies: int) -> Graph:
    """Build the tight ring family on 12*copies + 2 vertices.

    Layout: two global hubs s (top) and t (bottom), a ring of shared
    vertices w_0..w_{copies-1}, and per ring segment two pendant owners
    x (attached to s) and y (attached to t) plus six degree-3 connectors
    that tie x to the left ring vertex, y to the right ring vertex, and
    wall off x from y so they never share a face. Pendants hang on every
    x, y and w. Walls guarantee any co-facial owner pair involves a ring
    vertex, capping the Phase 2 matching at exactly ``copies``.
    """
    if copies < 3:
        raise ValueError(f"the ring family needs at least 3 copies, got {copies}")
    g = Graph()
    s = g.add_vertex()
    t = g.add_vertex()
    ring = [g.add_vertex() for _ in range(copies)]
    for w in ring:
        g.add_edge(s, w)
        g.add_edge(t, w)
    for i in range(copies):
        left, right = ring[i - 1], ring[i]  # i-1 wraps, closing the ring
        x = g.add_vertex()
        y = g.add_vertex()
        g.add_edge(s, x)
        g.add_edge(t, y)
        for triple in (
            (s, left, x),
            (t, left, x),
            (s, x, t),  # wall right of x
            (s, y, t),  # wall left of y
            (s, right, y),
            (t, right, y),
        ):
            c = g.add_vertex()
            for z in triple:
                g.add_edge(c, z)
        for owner in (x, y, right):
            p = g.add_vertex()
            g.add_edge(owner, p)
    return g


def tightness_cover(g: Graph) -> set[VertexId]:
    """The canonical cover of a ring-family graph: pendant owners plus hubs.

    The hubs are recovered structurally as the two highest-degree
    vertices (degree 6*copies, far above every owner).
    """
    owners = set(pendant_owners(g))
    hubs = sorted(g.vertices(), key=lambda v: (-g.degree(v), v))[:2]
    return owners | set(hubs)


def gen_exception_graph() -> Graph:
    """The 6-vertex graph on which no Phase 1 rule applies.

    Vertices are created in the order v, q, a, b, x, y (ids 1..6):
    q is v's pendant, a and b are degree-3 twins seeing {v, x, y}, and
    x, y close the two four-cycles. Its minimum connected vertex cover
    is {v, x, y}.
    """
    g = Graph()
    v, q, a, b, x, y = (g.add_vertex() for _ in range(6))
    for edge in ((v, q), (v, a), (v, b), (v, x), (v, y), (a, x), (a, y), (b, x), (b, y)):
        g.add_edge(*edge)
    return g


def gen_random_planar(n: int, density: float, seed: int) -> Graph:
    """Connected simple planar graph on n vertices, deterministic per seed.

    Grows a random maximal planar graph by inserting each new vertex into
    a uniformly chosen face triangle, then deletes non-bridge edges with
    probability 1 - density, so connectivity and planarity hold by
    construction. density=1.0 keeps the full triangulation (3n-6 edges).
    Raises ValueError unless n >= 1 and 0 <= density <= 1.
    """
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    rng = random.Random(seed)
    g = Graph()
    first = [g.add_vertex() for _ in range(min(n, 3))]
    if n == 1:
        return g
    if n == 2:
        g.add_edge(first[0], first[1])
        return g
    a, b, c = first
    for u, w in ((a, b), (b, c), (a, c)):
        g.add_edge(u, w)
    # Both sides of the starting triangle are faces of the sphere embedding.
    faces = [(a, b, c), (a, c, b)]
    while g.n_vertices < n:
        fa, fb, fc = faces.pop(rng.randrange(len(faces)))
        v = g.add_vertex()
        for corner in (fa, fb, fc):
            g.add_edge(v, corner)
        faces.extend([(fa, fb, v), (fb, fc, v), (fa, fc, v)])

    if density < 1.0:
        for u, w in g.edges():
            if rng.random() < 1.0 - density:
                g.remove_edge(u, w)
                if g.split_side(u, w, lambda _: True) is not None:
                    g.add_edge(u, w)  # bridge: keep it
    return g


# ----------------------------------------------------------------------
# tightness validation
# ----------------------------------------------------------------------


@dataclass
class TightnessReport:
    """Outcome of every ring-family check, one (name, passed, detail) row."""

    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def record(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, passed, detail))

    def __str__(self) -> str:
        lines = [
            f"[{'pass' if passed else 'FAIL'}] {name}" + (f": {detail}" if detail else "")
            for name, passed, detail in self.checks
        ]
        return "\n".join(lines)


def validate_tightness(
    g: Graph, copies: int, use_oracle: bool | None = None
) -> TightnessReport:
    """Check every claimed quantity of the ring family against g.

    The exact-solver check is expensive, so by default it only runs for
    copies <= 4; pass use_oracle explicitly to override.
    """
    if use_oracle is None:
        use_oracle = copies <= 4
    report = TightnessReport()
    expected_cover = 3 * copies + 2

    n = g.n_vertices
    report.record(
        "vertex-count", n == 12 * copies + 2, f"{n} vs {12 * copies + 2}"
    )

    try:
        embed(g)
        report.record("planar", True)
    except (NonPlanarGraphError, ValueError) as exc:
        report.record("planar", False, str(exc))

    found = detect_rule(g)
    report.record(
        "phase1-silent", found is None, "" if found is None else f"{found[0].name} applies"
    )

    owners = pendant_owners(g)
    report.record(
        "s1-size", len(owners) == 3 * copies, f"{len(owners)} owners vs {3 * copies}"
    )

    cover = tightness_cover(g)
    try:
        cover_ok = verify_cvc(g, cover) and len(cover) == expected_cover
        report.record(
            "canonical-cover", cover_ok, f"size {len(cover)} vs {expected_cover}"
        )
    except KeyError as exc:
        cover_ok = False
        report.record("canonical-cover", False, str(exc))

    if cover_ok:
        try:
            part = partition_stats(g, cover)
            sizes = part.sizes()
            want = {
                "S1": 3 * copies,
                "S>=3": 2,
                "I1": 3 * copies,
                "I3": 6 * copies,
                "I>=4": 0,
            }
            report.record("partition", sizes == want, f"{sizes} vs {want}")
        except ValueError as exc:
            report.record("partition", False, str(exc))
    else:
        report.record("partition", False, "skipped: no canonical cover")

    outcome = kernelize(Instance(g.copy(), expected_cover))
    m_star = None
    if isinstance(outcome, Kernel):
        m_star = sum(1 for s in outcome.journal.steps if s.rule is RuleId.R8)
        phase1_steps = len(outcome.journal.steps) - m_star
        kernel_n = outcome.instance.graph.n_vertices
        report.record(
            "phase2-count",
            phase1_steps == 0 and m_star == copies and kernel_n == 11 * copies + 2,
            f"phase1 steps {phase1_steps}, merges {m_star}, kernel {kernel_n}",
        )
    else:
        report.record("phase2-count", False, f"kernelize said {outcome.reason}")

    if cover_ok and m_star is not None:
        lhs = 3 * (2 + 0 + m_star)
        rhs = expected_cover + 4
        equality = lhs == rhs and partition_bound_holds(g, cover, m_star)
        report.record("partition-bound", equality, f"3*(2+0+{m_star}) vs |S|+4={rhs}")
    else:
        report.record("partition-bound", False, "skipped: missing cover or merges")

    if use_oracle:
        cert = minimum_cvc(g, expected_cover)
        ok = cert is not None and cert.size == expected_cover
        report.record(
            "oracle-minimum",
            ok,
            f"{'none' if cert is None else cert.size} vs {expected_cover}",
        )
    return report
