"""Command line surface.

Exit codes: 0 = YES (kernel or solution emitted), 1 = NO, 2 = input error,
141 = stdout was closed before the output was written (as under
`planarcvc ... | head -c 1`; 128 + SIGPIPE, what a shell reports for a
process that a closed pipe kills), with nothing on stderr.
Commands raise on bad input; main alone turns that into one `error:` line
on stderr and exit 2.

Commands:
  kernelize --input FILE --k INT [--journal FILE] [--stats]
  solve     --input FILE [--limit INT]
  lift      --input FILE --journal FILE --solution FILE
  generate  {tightness --l INT | exception | random --n INT --density F --seed S}
  verify    --input FILE --solution FILE
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, NamedTuple, NoReturn

from . import fileio
from .generators import gen_exception_graph, gen_random_planar, gen_tightness
from .graph import Graph, VertexId
from .oracle import TooLargeError, minimum_cvc, verify_cvc
from .pipeline import (
    Instance,
    Kernel,
    NonPlanarInputError,
    kernel_vertex_ids,
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
EXIT_BROKEN_PIPE = 141


class InputError(Exception):
    """An input that a command rejects by its own check."""


# What a command raises on bad input; main prints it and exits with 2.
# ValueError covers journals that do not replay, generator parameters and
# a negative budget; anything else, AssertionError included, is a bug and
# keeps its traceback.
_INPUT_ERRORS = (
    OSError,
    UnicodeDecodeError,
    fileio.GraphParseError,
    ValueError,
    TooLargeError,
    NonPlanarInputError,
    InputError,
)


def _read_text(path: str) -> str:
    with open(path) as f:
        return f.read()


def _read_graph(path: str) -> Graph:
    g, _ = fileio.parse_graph(_read_text(path))
    return g


def _solution_vertices(labels: set[int], by_label: dict[int, VertexId], what: str) -> set[VertexId]:
    unknown = labels - by_label.keys()
    if unknown:
        raise InputError(f"solution label {min(unknown)} is not {what}")
    return {by_label[lab] for lab in labels}


def _cmd_kernelize(args: argparse.Namespace) -> int:
    outcome = kernelize(Instance(_read_graph(args.input), args.k))
    if not isinstance(outcome, Kernel):
        print(f"c no-instance {outcome.reason.value}")
        return EXIT_NO

    kernel = outcome.instance
    # the stats may fail (past the exact solver's window): before any output
    stats = _stats_lines(outcome) if args.stats else []
    if args.journal:
        try:
            with open(args.journal, "w") as f:
                f.write(fileio.serialize_journal(outcome.journal))
        except OSError as exc:  # a closed pipe included: that is the journal's, not stdout's
            raise InputError(str(exc)) from exc
    sys.stdout.write(fileio.serialize_graph(kernel.graph))
    print(f"c kernel-k {kernel.k}")
    for line in stats:
        print(line, file=sys.stderr)
    return EXIT_YES


def _stats_lines(outcome: Kernel) -> list[str]:
    """Partition of the Phase 1 fixpoint wrt its minimum cover, and the bound."""
    journal = outcome.journal
    m_star = sum(1 for s in journal.steps if s.rule is RuleId.R8)
    g1, _ = replay_journal(journal)
    cert = minimum_cvc(g1, g1.n_vertices)
    if cert is None:
        raise InputError("--stats: fixpoint has no connected vertex cover")
    cover = set(cert.vertices)
    verdict = "holds" if partition_bound_holds(g1, cover, m_star) else "VIOLATED"
    return [
        f"stats minimum-cover {cert.size}",
        *(f"stats {name} {size}" for name, size in partition_stats(g1, cover).sizes().items()),
        f"stats M* {m_star}",
        f"stats partition-bound {verdict}",
    ]


def _cmd_solve(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    limit = args.limit if args.limit is not None else g.n_vertices
    cert = minimum_cvc(g, limit)
    if cert is None:
        print(f"c no connected vertex cover within {limit}")
        return EXIT_NO
    labels = fileio.canonical_labels(g)
    sys.stdout.write(fileio.serialize_solution({labels[v] for v in cert.vertices}))
    return EXIT_YES


def _cmd_lift(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    steps = fileio.parse_journal_steps(_read_text(args.journal))
    kernel_labels = fileio.parse_solution(_read_text(args.solution))
    journal = fileio.journal_for_input(g, steps)
    # the kernel file's labels, from the journal records; lift_solution
    # makes the only replay and rejects a journal that does not replay
    by_label = dict(enumerate(sorted(kernel_vertex_ids(journal)), start=1))
    kernel_solution = _solution_vertices(kernel_labels, by_label, "a kernel vertex")
    lifted = lift_solution(journal, kernel_solution)
    input_labels = fileio.canonical_labels(g)
    sys.stdout.write(fileio.serialize_solution({input_labels[v] for v in lifted}))
    return EXIT_YES


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.family == "tightness":
        g = gen_tightness(args.l)
    elif args.family == "exception":
        g = gen_exception_graph()
    else:
        g = gen_random_planar(args.n, args.density, args.seed)
    sys.stdout.write(fileio.serialize_graph(g))
    return EXIT_YES


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    labels = fileio.parse_solution(_read_text(args.solution))
    by_label = {lab: v for v, lab in fileio.canonical_labels(g).items()}
    solution = _solution_vertices(labels, by_label, "a vertex")
    if verify_cvc(g, solution):
        print(f"c valid connected vertex cover of size {len(solution)}")
        return EXIT_YES
    print("c not a connected vertex cover")
    return EXIT_NO


def _kernelize_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--journal", help="write the reduction journal here")
    p.add_argument("--stats", action="store_true", help="partition sizes and bound on stderr")


def _solve_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--limit", type=int, help="largest cover size to accept")


def _lift_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--journal", required=True)
    p.add_argument("--solution", required=True, help="kernel solution, kernel labels")


def _generate_arguments(p: argparse.ArgumentParser) -> None:
    gen_sub = p.add_subparsers(dest="family", required=True)
    pt = gen_sub.add_parser("tightness")
    pt.add_argument("--l", type=int, required=True)
    gen_sub.add_parser("exception")
    pr = gen_sub.add_parser("random")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--density", type=float, default=1.0)
    pr.add_argument("--seed", type=int, default=0)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--solution", required=True)


class _Command(NamedTuple):
    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


_COMMANDS: dict[str, _Command] = {
    "kernelize": _Command("reduce an instance, emit the kernel", _kernelize_arguments, _cmd_kernelize),
    "solve": _Command("exact minimum connected vertex cover", _solve_arguments, _cmd_solve),
    "lift": _Command("lift a kernel solution to the input graph", _lift_arguments, _cmd_lift),
    "generate": _Command("emit generator output as a graph file", _generate_arguments, _cmd_generate),
    "verify": _Command("check a solution file against a graph file", _verify_arguments, _cmd_verify),
}


def _add_command(p: argparse.ArgumentParser, command: _Command) -> None:
    command.add_arguments(p)
    p.set_defaults(func=command.run)


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every command as a subcommand of `planarcvc`."""
    parser = argparse.ArgumentParser(
        prog="planarcvc",
        description="11/3k kernelization for Connected Vertex Cover on planar graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=command.help), command)
    return parser


class _UsageError(Exception):
    """Raised by a one-command parser instead of printing a usage error."""


class _OneCommandParser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        raise _UsageError(message)


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse a command line; the namespace's `func` runs the command.

    When argv names a command, only that command's parser is built (the
    full parser costs about five times as much, and a process parses one
    command line). A usage error is left to the full parser, so that
    its wording and exit code are exactly those of build_parser();
    `-h`, no arguments and unknown commands also go to the full parser.
    The namespace lacks the full parser's `command` field.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is not None:
        parser = _OneCommandParser(prog=f"planarcvc {argv[0]}")
        _add_command(parser, command)
        try:
            return parser.parse_args(argv[1:])
        except _UsageError:
            pass
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run one command line; the one place where an input error exits 2."""
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
    except BrokenPipeError:
        # stdout's reader has gone: not an input error, and nothing to
        # report; what is left unwritten goes to devnull at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
