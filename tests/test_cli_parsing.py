"""cli.parse_args, which builds one command's parser, against build_parser().

For every command line in the table both must exit alike (code, stdout
and stderr, e.g. help, usage errors, unrecognized arguments) or return
the same namespace apart from the full parser's `command` and `func`.
Argparse words help and errors differently across Python versions, so
both sides run in the same interpreter.
"""

from __future__ import annotations

import pytest

from planarcvc import cli

_REQUIRED = {
    "kernelize": ["--input", "g.cvc", "--k", "3"],
    "solve": ["--input", "g.cvc"],
    "lift": ["--input", "g.cvc", "--journal", "j.jsonl", "--solution", "s.txt"],
    "verify": ["--input", "g.cvc", "--solution", "s.txt"],
    "generate": ["random", "--n", "5"],
}


def _table() -> list[list[str]]:
    argvs = [[], ["-h"], ["--help"], ["bogus"], ["-h", "kernelize"], ["--k", "3", "kernelize"]]
    for name, required in _REQUIRED.items():
        argvs += [
            [name, "-h"],
            [name],
            [name, *required],
            [name, *required[:-2]],  # a required option missing
            [name, *required, "extra"],  # an extra positional argument
            [name, *required, "--bogus"],  # an unknown option
            [name, *required, "-h"],
            [name, *required[:2], *required],  # an option given twice
        ]
    argvs += [
        ["kernelize", "--input", "g.cvc", "--k", "x"],
        ["kernelize", "--inp", "g.cvc", "--k", "3", "--jour", "j", "--s"],  # abbreviated
        ["kernelize", "--input=g.cvc", "--k=-3", "--journal=j", "--stats"],
        ["kernelize", "--", "--input", "g.cvc"],
        ["solve", "--input", "g.cvc", "--limit", "1.5"],
        ["solve", "--inp", "g.cvc", "--lim", "4"],
        ["lift", "--in", "g.cvc", "--j", "j", "--sol", "s"],
        ["verify", "--input", "g.cvc"],
        ["generate"],
        ["generate", "bogus"],
        ["generate", "exception"],
        ["generate", "exception", "extra"],
        ["generate", "tightness", "--l", "4"],
        ["generate", "tightness", "--l", "x"],
        ["generate", "tightness"],
        ["generate", "tightness", "-h"],
        ["generate", "random", "--n", "3", "--density", "q", "--seed", "2"],
        ["generate", "random", "--n", "3", "--density", "0.5", "--seed", "2"],
        ["generate", "random", "-h"],
    ]
    return argvs


def _run(parse, argv: list[str], capsys):
    try:
        namespace = parse(list(argv))
    except SystemExit as exc:
        code, fields = exc.code, None
    else:
        code = None
        fields = {k: v for k, v in vars(namespace).items() if k not in ("command", "func")}
    out, err = capsys.readouterr()
    return code, out, err, fields


@pytest.mark.parametrize("argv", _table(), ids=" ".join)
def test_one_command_parser_matches_full_parser(argv, capsys):
    fast = _run(cli.parse_args, argv, capsys)
    full = _run(lambda a: cli.build_parser().parse_args(a), argv, capsys)
    assert fast == full


@pytest.mark.parametrize("name", sorted(_REQUIRED))
def test_one_command_parser_runs_the_command(name):
    namespace = cli.parse_args([name, *_REQUIRED[name]])
    assert namespace.func is cli.build_parser().parse_args([name, *_REQUIRED[name]]).func
