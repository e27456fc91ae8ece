"""Command line surface.

Exit codes: 0 = YES (kernel or solution emitted), 1 = NO, 2 = input error,
70 = a bug (sysexits' EX_SOFTWARE), 141 = stdout was closed before the
output was written (as under `planarcvc ... | head -c 1`; 128 + SIGPIPE,
what a shell reports for a process that a closed pipe kills), with
nothing on stderr.
Commands raise on bad input; main alone turns that into one `error:` line
on stderr and exit 2. Bad input is an OSError or UnicodeDecodeError of
reading or writing a file, or the package's InputError (graph.py), whose
subclasses are GraphParseError (fileio.py), TooLargeError (exact.py) and
NonPlanarInputError (pipeline.py).
Any other exception is a bug: main prints its traceback and exits 70.

Commands:
  kernelize --input FILE --k INT [--journal FILE] [--stats]
  solve     --input FILE [--limit INT]
  lift      --input FILE --journal FILE --solution FILE
  generate  {tightness --l INT | exception | random --n INT --density F --seed S}
  verify    --input FILE --solution FILE
solve and kernelize --stats import the exact solver (exact.py) when they
run, as generate imports the generators; no other command loads them.

Every option of kernelize, solve, lift and verify is declared once, in
`_COMMANDS`. build_parser() builds the argparse parser of all commands
from it, and parse_args reads a well-formed command line off it without
importing argparse; anything else (help, a usage error, an abbreviated
option, generate) goes to build_parser().
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from . import fileio
from .graph import Graph, InputError
from .oracle import verify_cvc
from .pipeline import Instance, Kernel, kernel_vertex_ids, kernelize, lift_solution, replay_journal
from .reductions import RuleId

if TYPE_CHECKING:
    import argparse
    from collections.abc import Set

# The parsed command line: build_parser()'s argparse.Namespace or the
# table's SimpleNamespace, with the same fields.
_Args = Any

EXIT_YES = 0
EXIT_NO = 1
EXIT_INPUT_ERROR = 2
EXIT_BUG = 70
EXIT_BROKEN_PIPE = 141

# What a command raises on bad input; main prints it and exits with 2.
_INPUT_ERRORS = (OSError, UnicodeDecodeError, InputError)


def _read_text(path: str) -> str:
    with open(path) as f:
        return f.read()


def _read_graph(path: str) -> Graph:
    # its ids are its labels: its solutions are read and written as ids
    g, _ = fileio.parse_graph(_read_text(path))
    return g


def _require_labels(labels: set[int], known: Set[int], what: str) -> None:
    unknown = labels - known
    if unknown:
        raise InputError(f"solution label {min(unknown)} is not {what}")


def _cmd_kernelize(args: _Args) -> int:
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
    from .exact import minimum_cvc, partition_bound_holds, partition_stats

    journal = outcome.journal
    m_star = sum(1 for s in journal.steps if s.rule is RuleId.R8)
    g1, _ = replay_journal(journal)
    cover = minimum_cvc(g1, g1.n_vertices)
    if cover is None:
        raise InputError("--stats: fixpoint has no connected vertex cover")
    verdict = "holds" if partition_bound_holds(g1, cover, m_star) else "VIOLATED"
    return [
        f"stats minimum-cover {len(cover)}",
        *(f"stats {name} {size}" for name, size in partition_stats(g1, cover).sizes().items()),
        f"stats M* {m_star}",
        f"stats partition-bound {verdict}",
    ]


def _cmd_solve(args: _Args) -> int:
    from .exact import minimum_cvc

    g = _read_graph(args.input)
    limit = args.limit if args.limit is not None else g.n_vertices
    cover = minimum_cvc(g, limit)
    if cover is None:
        print(f"c no connected vertex cover within {limit}")
        return EXIT_NO
    sys.stdout.write(fileio.serialize_solution(set(cover)))
    return EXIT_YES


def _cmd_lift(args: _Args) -> int:
    g = _read_graph(args.input)
    steps = fileio.parse_journal_steps(_read_text(args.journal))
    kernel_labels = fileio.parse_solution(_read_text(args.solution))
    journal = fileio.journal_for_input(g, steps)
    # the kernel file's labels, from the journal records; lift_solution
    # checks the records (replaying only a journal with an R8 record) and
    # the lifted cover, and rejects what fails
    by_label = dict(enumerate(sorted(kernel_vertex_ids(journal)), start=1))
    _require_labels(kernel_labels, by_label.keys(), "a kernel vertex")
    kernel_solution = {by_label[lab] for lab in kernel_labels}
    sys.stdout.write(fileio.serialize_solution(lift_solution(journal, kernel_solution)))
    return EXIT_YES


def _cmd_generate(args: _Args) -> int:
    from .generators import gen_exception_graph, gen_random_planar, gen_tightness

    if args.family == "tightness":
        g = gen_tightness(args.l)
    elif args.family == "exception":
        g = gen_exception_graph()
    else:
        g = gen_random_planar(args.n, args.density, args.seed)
    sys.stdout.write(fileio.serialize_graph(g))
    return EXIT_YES


def _cmd_verify(args: _Args) -> int:
    g = _read_graph(args.input)
    solution = fileio.parse_solution(_read_text(args.solution))
    _require_labels(solution, g.adjacency().keys(), "a vertex")
    if verify_cvc(g, solution):
        print(f"c valid connected vertex cover of size {len(solution)}")
        return EXIT_YES
    print("c not a connected vertex cover")
    return EXIT_NO


class _Option(NamedTuple):
    """`--NAME VALUE` (the value converted by `type`, None keeps the
    string) or, with `flag`, a store-true `--NAME`."""

    name: str
    type: Callable[[str], object] | None = None
    required: bool = False
    flag: bool = False
    help: str | None = None


def _generate_arguments(p: argparse.ArgumentParser) -> None:
    gen_sub = p.add_subparsers(dest="family", required=True)
    pt = gen_sub.add_parser("tightness")
    pt.add_argument("--l", type=int, required=True)
    gen_sub.add_parser("exception")
    pr = gen_sub.add_parser("random")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--density", type=float, default=1.0)
    pr.add_argument("--seed", type=int, default=0)


class _Command(NamedTuple):
    help: str
    run: Callable[[_Args], int]
    options: tuple[_Option, ...] = ()
    # arguments that only argparse reads (generate's families): a command
    # that has them is always parsed by build_parser()
    add_arguments: Callable[[argparse.ArgumentParser], None] | None = None


_COMMANDS: dict[str, _Command] = {
    "kernelize": _Command("reduce an instance, emit the kernel", _cmd_kernelize, (
        _Option("input", required=True),
        _Option("k", type=int, required=True),
        _Option("journal", help="write the reduction journal here"),
        _Option("stats", flag=True, help="partition sizes and bound on stderr"),
    )),
    "solve": _Command("exact minimum connected vertex cover", _cmd_solve, (
        _Option("input", required=True),
        _Option("limit", type=int, help="largest cover size to accept"),
    )),
    "lift": _Command("lift a kernel solution to the input graph", _cmd_lift, (
        _Option("input", required=True),
        _Option("journal", required=True),
        _Option("solution", required=True, help="kernel solution, kernel labels"),
    )),
    "generate": _Command("emit generator output as a graph file", _cmd_generate,
                         add_arguments=_generate_arguments),
    "verify": _Command("check a solution file against a graph file", _cmd_verify, (
        _Option("input", required=True),
        _Option("solution", required=True),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every command as a subcommand of `planarcvc`."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="planarcvc",
        description="11/3k kernelization for Connected Vertex Cover on planar graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for option in command.options:
            if option.flag:
                p.add_argument(f"--{option.name}", action="store_true", help=option.help)
            else:
                p.add_argument(f"--{option.name}", type=option.type, required=option.required, help=option.help)
        if command.add_arguments is not None:
            command.add_arguments(p)
        p.set_defaults(func=command.run)
    return parser


def _read_options(options: tuple[_Option, ...], tokens: list[str]) -> dict[str, object] | None:
    """The option values of a well-formed command line, else None.

    Reads `--NAME VALUE`, `--NAME=VALUE` and flags, the last occurrence
    winning, as argparse does. None for anything argparse may read
    otherwise or reject: an unknown or abbreviated name, a value that is
    empty or starts with `-`, a missing value or required option, a
    value the type rejects, and `=` on a flag.
    """
    by_name = {f"--{option.name}": option for option in options}
    values: dict[str, object] = {o.name: False if o.flag else None for o in options}
    rest = iter(tokens)
    for token in rest:
        name, eq, value = token.partition("=")
        option = by_name.get(name)
        if option is None:
            return None
        if option.flag:
            if eq:
                return None
            values[option.name] = True
            continue
        if not eq:
            value = next(rest, "")
        if not value or value[0] == "-":
            return None
        if option.type is not None:
            try:
                value = option.type(value)
            except ValueError:
                return None
        values[option.name] = value
    if any(values[o.name] is None for o in options if o.required):
        return None
    return values


def parse_args(argv: list[str]) -> _Args:
    """Parse a command line; the namespace's `func` runs the command.

    A well-formed command line of a command with declared options is
    read off `_COMMANDS` without argparse (which is then not even
    imported), into the namespace build_parser() would return. Every
    other command line, usage errors, `-h` and `generate` included, goes
    to build_parser(), so help, error text and exit codes are argparse's.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is not None and command.options:
        values = _read_options(command.options, argv[1:])
        if values is not None:
            return SimpleNamespace(command=argv[0], func=command.run, **values)
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code.

    The one place where an input error exits 2, and where any other
    exception, a bug, prints its traceback and exits 70.
    """
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
    except Exception:  # noqa: BLE001 - a bug: neither YES, NO nor bad input
        import traceback

        traceback.print_exc()
        return EXIT_BUG
    return code


if __name__ == "__main__":
    sys.exit(main())
