"""Command line surface.

Exit codes: 0 = YES (kernel or solution emitted), 1 = NO, 2 = input error.

Commands:
  kernelize --input FILE --k INT [--journal FILE] [--stats] [--with-oracle]
  solve     --input FILE [--limit INT]
  lift      --input FILE --journal FILE --solution FILE
  generate  {tightness --l INT | exception | random --n INT --density F --seed S}
  verify    --input FILE --solution FILE
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import fileio
from .generators import gen_exception_graph, gen_random_planar, gen_tightness
from .graph import Graph
from .oracle import TooLargeError, minimum_cvc, verify_cvc
from .pipeline import (
    Instance,
    Kernel,
    NonPlanarInputError,
    kernelize,
    partition_bound_holds,
    lift_solution,
    partition_stats,
    replay_journal,
)
from .reductions import RuleId

EXIT_YES = 0
EXIT_NO = 1
EXIT_INPUT_ERROR = 2

# Failures while reading or parsing an input file; each exits with 2.
_READ_ERRORS = (OSError, UnicodeDecodeError, fileio.GraphParseError)


def _read_graph(path: str) -> Graph:
    g, _ = fileio.parse_graph(Path(path).read_text())
    return g


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _cmd_kernelize(args: argparse.Namespace) -> int:
    try:
        g = _read_graph(args.input)
    except _READ_ERRORS as exc:
        return _fail(str(exc))
    if args.k < 0:
        return _fail("--k must be non-negative")
    try:
        outcome = kernelize(Instance(g, args.k))
    except NonPlanarInputError as exc:
        return _fail(f"input graph is not planar ({exc})")

    if not isinstance(outcome, Kernel):
        print(f"c no-instance {outcome.reason.value}")
        return EXIT_NO

    kernel = outcome.instance
    if args.journal:
        Path(args.journal).write_text(fileio.serialize_journal(outcome.journal))
    sys.stdout.write(fileio.serialize_graph(kernel.graph))
    print(f"c kernel-k {kernel.k}")

    if args.stats:
        code = _print_stats(outcome, with_oracle=args.with_oracle)
        if code != EXIT_YES:
            return code
    return EXIT_YES


def _print_stats(outcome: Kernel, with_oracle: bool) -> int:
    """Partition of the Phase 1 fixpoint wrt its minimum cover, on stderr."""
    journal = outcome.journal
    n_phase1 = sum(1 for s in journal.steps if s.rule is not RuleId.R8)
    m_star = len(journal.steps) - n_phase1
    g1 = replay_journal(journal)[n_phase1]
    try:
        cert = minimum_cvc(g1, g1.n_vertices)
    except TooLargeError as exc:
        return _fail(f"--stats needs the exact solver: {exc}")
    if cert is None:
        return _fail("--stats: fixpoint has no connected vertex cover")
    part = partition_stats(g1, set(cert.vertices))
    print(f"stats minimum-cover {cert.size}", file=sys.stderr)
    for name, size in part.sizes().items():
        print(f"stats {name} {size}", file=sys.stderr)
    print(f"stats M* {m_star}", file=sys.stderr)
    if with_oracle:
        verdict = partition_bound_holds(g1, set(cert.vertices), m_star)
        print(f"stats partition-bound {'holds' if verdict else 'VIOLATED'}", file=sys.stderr)
    return EXIT_YES


def _cmd_solve(args: argparse.Namespace) -> int:
    try:
        g = _read_graph(args.input)
    except _READ_ERRORS as exc:
        return _fail(str(exc))
    limit = args.limit if args.limit is not None else g.n_vertices
    try:
        cert = minimum_cvc(g, limit)
    except TooLargeError as exc:
        return _fail(str(exc))
    if cert is None:
        print(f"c no connected vertex cover within {limit}")
        return EXIT_NO
    labels = fileio.canonical_labels(g)
    sys.stdout.write(fileio.serialize_solution({labels[v] for v in cert.vertices}))
    return EXIT_YES


def _cmd_lift(args: argparse.Namespace) -> int:
    try:
        g = _read_graph(args.input)
        steps = fileio.parse_journal_steps(Path(args.journal).read_text())
        kernel_labels = fileio.parse_solution(Path(args.solution).read_text())
    except _READ_ERRORS as exc:
        return _fail(str(exc))
    journal = fileio.journal_for_input(g, steps)
    try:
        kernel = replay_journal(journal)[-1]
    except Exception as exc:  # noqa: BLE001 - journal/input mismatch surfaces here
        return _fail(f"journal does not replay on this input: {exc}")
    by_label = {lab: v for v, lab in fileio.canonical_labels(kernel).items()}
    try:
        kernel_solution = {by_label[lab] for lab in kernel_labels}
    except KeyError as exc:
        return _fail(f"solution label {exc} is not a kernel vertex")
    try:
        lifted = lift_solution(journal, kernel_solution)
    except ValueError as exc:
        return _fail(str(exc))
    input_labels = fileio.canonical_labels(g)
    sys.stdout.write(fileio.serialize_solution({input_labels[v] for v in lifted}))
    return EXIT_YES


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.family == "tightness":
        if args.l is None:
            return _fail("tightness needs --l")
        try:
            g = gen_tightness(args.l)
        except ValueError as exc:
            return _fail(str(exc))
    elif args.family == "exception":
        g = gen_exception_graph()
    else:
        if args.n is None:
            return _fail("random needs --n")
        try:
            g = gen_random_planar(args.n, args.density, args.seed)
        except ValueError as exc:
            return _fail(str(exc))
    sys.stdout.write(fileio.serialize_graph(g))
    return EXIT_YES


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        g = _read_graph(args.input)
        labels = fileio.parse_solution(Path(args.solution).read_text())
    except _READ_ERRORS as exc:
        return _fail(str(exc))
    by_label = {lab: v for v, lab in fileio.canonical_labels(g).items()}
    try:
        solution = {by_label[lab] for lab in labels}
    except KeyError as exc:
        return _fail(f"solution label {exc} is not a vertex")
    if verify_cvc(g, solution):
        print(f"c valid connected vertex cover of size {len(solution)}")
        return EXIT_YES
    print("c not a connected vertex cover")
    return EXIT_NO


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planarcvc",
        description="11/3k kernelization for Connected Vertex Cover on planar graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernelize", help="reduce an instance, emit the kernel")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--journal", help="write the reduction journal here")
    p.add_argument("--stats", action="store_true", help="partition sizes on stderr")
    p.add_argument("--with-oracle", action="store_true", help="add the partition-bound check")
    p.set_defaults(func=_cmd_kernelize)

    p = sub.add_parser("solve", help="exact minimum connected vertex cover")
    p.add_argument("--input", required=True)
    p.add_argument("--limit", type=int, help="largest cover size to accept")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("lift", help="lift a kernel solution to the input graph")
    p.add_argument("--input", required=True)
    p.add_argument("--journal", required=True)
    p.add_argument("--solution", required=True, help="kernel solution, kernel labels")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("generate", help="emit generator output as a graph file")
    gen_sub = p.add_subparsers(dest="family", required=True)
    pt = gen_sub.add_parser("tightness")
    pt.add_argument("--l", type=int, required=True)
    gen_sub.add_parser("exception")
    pr = gen_sub.add_parser("random")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--density", type=float, default=1.0)
    pr.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="check a solution file against a graph file")
    p.add_argument("--input", required=True)
    p.add_argument("--solution", required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
