"""cli.parse_args against build_parser().

parse_args reads a well-formed command line of kernelize, solve, lift or
verify off the option table in `cli._COMMANDS` and hands every other one
(help, usage errors, abbreviations, values argparse may read otherwise,
generate) to build_parser(). For every command line, in the table below
and drawn at random, both must exit alike (code, stdout and stderr) or
return the same namespace. Argparse words help and errors differently
across Python versions, so both sides run in the same interpreter. A
guard checks that the long forms parse without build_parser() at all.
"""

from __future__ import annotations

import random

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
        # the edges of the table path: empty values, `=` inside a value or
        # on a flag, values starting with `-`, what int() accepts, an option
        # of another command, a repeated flag, a missing last value
        ["kernelize", "--input", "g.cvc", "--k="],
        ["kernelize", "--input=", "--k", "3"],
        ["kernelize", "--input", "", "--k", "3"],
        ["kernelize", "--input", "g.cvc", "--k", "3", "--journal=a=b"],
        ["kernelize", "--input", "g.cvc", "--k", "3", "--stats=1"],
        ["kernelize", "--input", "g.cvc", "--k", "-3"],
        ["kernelize", "--input", "-", "--k", "3"],
        ["kernelize", "--input", "g.cvc", "--k", " 7"],
        ["kernelize", "--input", "g.cvc", "--k", "1_0"],
        ["kernelize", "--input", "g.cvc", "--k", "٣"],
        ["kernelize", "--input", "g.cvc", "--k", "3", "--input"],
        ["lift", "--k", "3", *_REQUIRED["lift"]],
        ["kernelize", "--stats", *_REQUIRED["kernelize"], "--stats"],
    ]
    return argvs


def _run(parse, argv: list[str], capsys):
    try:
        namespace = parse(list(argv))
    except SystemExit as exc:
        code, fields = exc.code, None
    else:
        code, fields = None, vars(namespace)
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


# Every option with typical values (none: a flag), and tokens that a
# value or an argument may be instead.
_OPTIONS = {
    "kernelize": {"--input": ("g.cvc", "h.cvc"), "--k": ("3", "11"), "--journal": ("j.jsonl", "j2"), "--stats": ()},
    "solve": {"--input": ("g.cvc", "h.cvc"), "--limit": ("12", "0")},
    "lift": {"--input": ("g.cvc", "h.cvc"), "--journal": ("j.jsonl", "j2"), "--solution": ("s.txt", "s2")},
    "verify": {"--input": ("g.cvc", "h.cvc"), "--solution": ("s.txt", "s2")},
}
_ODD_VALUES = ["", "-", "-3", "--k", "-h", "--", " 7", "1_0", "1.5", "x", "a=b", "٣", "0"]
_ODD_TOKENS = ["extra", "-h", "--", "--bogus", "--inp", "--k", "--k=", "--stats", "--stats=1", "--input=", "-k", "=3"]


def _draw_argv(rng: random.Random) -> list[str]:
    """A valid-looking command line: each option with some chance, in the
    space or `=` form, sometimes repeated, shuffled, now and then with an
    odd value or an odd token."""
    name = rng.choice(sorted(_OPTIONS))
    groups = []
    for option, values in _OPTIONS[name].items():
        for _ in range(rng.choice((0, 1, 1, 1, 1, 2))):
            if not values:
                groups.append([option])
                continue
            value = rng.choice(_ODD_VALUES) if rng.random() < 0.1 else rng.choice(values)
            groups.append([f"{option}={value}"] if rng.random() < 0.3 else [option, value])
    rng.shuffle(groups)
    tokens = [token for group in groups for token in group]
    if rng.random() < 0.15:
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(_ODD_TOKENS))
    return [name, *tokens]


def test_parse_args_matches_full_parser_on_random_command_lines(capsys, monkeypatch):
    full = cli.build_parser()
    build_parser = cli.build_parser
    handed_over = []

    def counting_build_parser():
        handed_over.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    rng = random.Random(20)
    draws = 600
    for _ in range(draws):
        argv = _draw_argv(rng)
        assert _run(cli.parse_args, argv, capsys) == _run(full.parse_args, argv, capsys), argv
    # both paths are taken often
    assert draws // 4 < len(handed_over) < draws * 3 // 4


def test_long_forms_parse_without_argparse(monkeypatch):
    def no_build_parser():
        raise AssertionError("build_parser() called")

    monkeypatch.setattr(cli, "build_parser", no_build_parser)
    args = cli.parse_args(["kernelize", "--input", "g.cvc", "--k", "3", "--journal", "j", "--stats"])
    assert (args.input, args.k, args.journal, args.stats) == ("g.cvc", 3, "j", True)
    args = cli.parse_args(["kernelize", "--input=g.cvc", "--k=3"])
    assert (args.input, args.k, args.journal, args.stats) == ("g.cvc", 3, None, False)
    args = cli.parse_args(["solve", "--input", "g.cvc", "--limit", "12"])
    assert (args.input, args.limit) == ("g.cvc", 12)
    args = cli.parse_args(["lift", "--input", "g.cvc", "--journal", "j", "--solution", "s"])
    assert (args.input, args.journal, args.solution) == ("g.cvc", "j", "s")
    args = cli.parse_args(["verify", "--input", "g.cvc", "--solution", "s"])
    assert (args.input, args.solution) == ("g.cvc", "s")
    assert args.func is cli._COMMANDS["verify"].run
