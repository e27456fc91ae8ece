"""Start-up cost: importing the package and its CLI stays off heavy stdlib modules.

Every `planarcvc kernelize` or `planarcvc lift` is a fresh process that
pays for `import planarcvc` before any rule runs. `dataclasses` pulls in
`inspect` (and with it `ast`, `dis` and `tokenize`); the record types
are NamedTuples or plain classes instead. `pathlib` pulls in
`urllib.parse` and `ipaddress`; the CLI reads and writes its files with
`open()`. A well-formed command line is parsed without `argparse`,
which also loads `gettext`. `import planarcvc` loads exactly `graph`,
`oracle` (the verifier), `pipeline` and `reductions`, and `import
planarcvc.cli` adds exactly `cli` and `fileio`. Phase 2 (`embedding`,
`facematch`, `matching`) and the generators load on first use: a lift, a
verify or a kernelize that Phase 1 answers NO never imports them. Nor
does a lift or a verify import the Phase 1 detection index (`detection`).
The exact solver and the `--stats` partition (`exact`) load only for
`solve` and `kernelize --stats`, and `json` only for the journal reader
of `lift`. `-S` keeps what site-packages' start-up hooks import out of
the checked process.
"""

from __future__ import annotations

import types
from pathlib import Path

import pytest

import planarcvc
from planarcvc import fileio
from planarcvc.cli import main
from planarcvc.generators import gen_tightness
from planarcvc.oracle import verify_cvc

from conftest import run_python


def _ring_round_trip(tmp_path, capsys):
    """The ring l = 3, its journal at k = 11, its kernel and a kernel cover."""
    ring, journal = tmp_path / "ring.cvc", tmp_path / "ring.journal"
    ring.write_text(fileio.serialize_graph(gen_tightness(3)))
    assert main(["kernelize", "--input", str(ring), "--k", "11", "--journal", str(journal)]) == 0
    kernel, solution = tmp_path / "kernel.cvc", tmp_path / "kernel.sol"
    kernel.write_text(capsys.readouterr().out)
    assert main(["solve", "--input", str(kernel)]) == 0
    solution.write_text(capsys.readouterr().out)
    return ring, journal, kernel, solution


def test_import_loads_exactly_the_pipeline_modules():
    # What `import planarcvc` compiles in every fresh process, and what
    # `import planarcvc.cli` adds; a later eager import shows here.
    proc = run_python(
        ["-S", "-c", "import sys\n"
         "def ours(): return sorted(m for m in sys.modules if m.split('.')[0] == 'planarcvc')\n"
         "import planarcvc; before = ours(); print(before)\n"
         "import planarcvc.cli; print(sorted(set(ours()) - set(before)))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['planarcvc', 'planarcvc.graph', 'planarcvc.oracle', 'planarcvc.pipeline', 'planarcvc.reductions']",
        "['planarcvc.cli', 'planarcvc.fileio']",
    ]


def test_import_loads_neither_dataclasses_nor_inspect():
    proc = run_python(
        ["-S", "-c", "import sys; import planarcvc, planarcvc.cli;"
         " print(sorted({'dataclasses', 'inspect', 'pathlib'} & sys.modules.keys()))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


_CHILD = """
import sys
from planarcvc.cli import main
args = sys.argv[1:]
kernelize = ["kernelize", "--input", args[0], "--k", "11", "--journal", args[1]]
lift = ["lift", "--input", args[0], "--journal", args[1], "--solution", args[2]]
codes = [main(kernelize), main(lift)]
print(codes, sorted({"argparse", "gettext"} & sys.modules.keys()), file=sys.stderr)
try:
    main(["kernelize", "--input", args[0]])
except SystemExit as exc:
    print(exc.code, "argparse" in sys.modules, file=sys.stderr)
"""


def test_well_formed_command_lines_do_not_load_argparse(tmp_path, capsys):
    # argparse (and gettext, which it imports) cost ~3 ms of a fresh
    # process; only help and usage errors need them.
    graph, journal, _, solution = _ring_round_trip(tmp_path, capsys)

    proc = run_python(
        ["-S", "-c", _CHILD, str(graph), str(journal), str(solution)], capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    first, *usage, last = proc.stderr.splitlines()
    assert first == "[0, 0] []"
    # a usage error (no --k) is argparse's, with its exit code
    assert usage[0].startswith("usage: planarcvc kernelize ")
    assert usage[-1] == "planarcvc kernelize: error: the following arguments are required: --k"
    assert last == "2 True"


_PHASE2 = ["planarcvc.embedding", "planarcvc.facematch", "planarcvc.generators", "planarcvc.matching"]

# `planarcvc ARGV`; prints the exit code and the loaded modules of
# _PHASE2 as the last line on stderr.
_LOADS = f"""
import sys
from planarcvc.cli import main
code = main(sys.argv[1:])
print(code, sorted({set(_PHASE2)!r} & sys.modules.keys()), file=sys.stderr)
"""


def _phase2_loaded_by(*argv: str) -> str:
    proc = run_python(["-S", "-c", _LOADS, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.splitlines()[-1]


def test_import_loads_no_phase2_module():
    proc = run_python(
        ["-S", "-c", f"import sys; import planarcvc, planarcvc.cli; print(sorted({set(_PHASE2)!r} & sys.modules.keys()))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_phase2_loads_only_for_a_kernelize_that_reaches_it(tmp_path, capsys):
    # A kernelize that Phase 1 answers NO (the 6-vertex path at k = 1
    # runs out of budget), a lift and a verify never run Phase 2; a YES
    # kernelize of the ring l = 3 does, but still not the generators.
    ring, journal, kernel, solution = _ring_round_trip(tmp_path, capsys)
    path = tmp_path / "path.cvc"
    path.write_text("p cvc 6 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 6\n")

    assert _phase2_loaded_by("kernelize", "--input", str(path), "--k", "1") == "1 []"
    assert _phase2_loaded_by("lift", "--input", str(ring), "--journal", str(journal),
                             "--solution", str(solution)) == "0 []"
    assert _phase2_loaded_by("verify", "--input", str(kernel), "--solution", str(solution)) == "0 []"
    assert _phase2_loaded_by("kernelize", "--input", str(ring), "--k", "11") == (
        "0 ['planarcvc.embedding', 'planarcvc.facematch', 'planarcvc.matching']"
    )


# The names of Phase 2, the generators and the exact solver, which the
# package does not re-export.
_MODULE_ONLY = {
    "embedding": ("Embedding", "Face", "NonPlanarGraphError", "embed"),
    "exact": ("Partition", "TooLargeError", "minimum_cvc", "partition_bound_holds", "partition_stats"),
    "facematch": ("AuxGraph", "PlanarizedMatching", "build_aux_graph", "planarize_matching", "run_phase2"),
    "generators": ("gen_exception_graph", "gen_random_planar", "gen_tightness"),
    "matching": ("Matching", "maximum_matching"),
}


def test_every_public_name_is_its_submodule_object():
    # `__all__` is what `import planarcvc` binds, each name its module's
    # object; Phase 2, generator and exact solver names are read from their
    # modules only.
    from planarcvc import embedding, exact, facematch, generators, graph, matching, oracle, pipeline, reductions

    star: dict[str, object] = {}
    exec("from planarcvc import *", star)
    assert star.keys() - {"__builtins__"} == set(planarcvc.__all__)
    bound = {name for name, obj in vars(planarcvc).items()
             if not name.startswith("__") and not isinstance(obj, types.ModuleType)}
    assert bound == set(planarcvc.__all__)
    modules = (embedding, exact, facematch, generators, graph, matching, oracle, pipeline, reductions)
    for name in planarcvc.__all__:
        obj = getattr(planarcvc, name)
        owners = [m for m in modules if hasattr(m, name)]
        assert owners and all(getattr(m, name) is obj for m in owners), name
        assert star[name] is obj, name
    for module, names in _MODULE_ONLY.items():
        for name in names:
            assert hasattr(getattr(planarcvc, module), name), name
            with pytest.raises(AttributeError, match=f"^module 'planarcvc' has no attribute '{name}'$"):
                getattr(planarcvc, name)


# `import planarcvc`, then `planarcvc ARGV` for each later argument (split
# at blanks); prints whether the module named first was loaded after each.
_LOADED_AFTER = """
import sys
import planarcvc, planarcvc.cli
module, *commands = sys.argv[1:]
loaded = [module in sys.modules]
for argv in commands:
    planarcvc.cli.main(argv.split())
    loaded.append(module in sys.modules)
print(loaded, file=sys.stderr)
"""


def _loaded_after(module: str, *commands: str) -> str:
    proc = run_python(["-S", "-c", _LOADED_AFTER, module, *commands], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.splitlines()[-1]


def test_detection_loads_only_for_phase1(tmp_path, capsys):
    # The Phase 1 detection index is compiled only by a process that runs
    # Phase 1: not by `import planarcvc`, a lift or a verify.
    ring, journal, kernel, solution = _ring_round_trip(tmp_path, capsys)

    assert _loaded_after(
        "planarcvc.detection",
        f"lift --input {ring} --journal {journal} --solution {solution}",
        f"verify --input {kernel} --solution {solution}",
        f"kernelize --input {ring} --k 11",
    ) == "[False, False, False, True]"


def test_exact_loads_only_for_solve_and_stats(tmp_path, capsys):
    # The exact solver and the partition only check the pipeline: a
    # kernelize without --stats (YES or NO), a lift and a verify never
    # compile them.
    ring, journal, kernel, solution = _ring_round_trip(tmp_path, capsys)
    path = tmp_path / "path.cvc"
    path.write_text("p cvc 6 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 6\n")
    out = tmp_path / "out.journal"

    assert _loaded_after(
        "planarcvc.exact",
        f"kernelize --input {ring} --k 11 --journal {out}",
        f"kernelize --input {path} --k 1",
        f"lift --input {ring} --journal {journal} --solution {solution}",
        f"verify --input {kernel} --solution {solution}",
        f"solve --input {kernel}",
    ) == "[False, False, False, False, False, True]"
    assert _loaded_after("planarcvc.exact", f"kernelize --input {ring} --k 11 --stats") == "[False, True]"


def test_json_loads_only_for_the_journal_reader(tmp_path, capsys):
    # Journals are written with a format string; only lift reads one.
    ring, journal, kernel, solution = _ring_round_trip(tmp_path, capsys)
    out = tmp_path / "out.journal"

    assert _loaded_after(
        "json",
        f"kernelize --input {ring} --k 11 --journal {out}",
        f"verify --input {kernel} --solution {solution}",
        f"solve --input {kernel}",
        f"lift --input {ring} --journal {journal} --solution {solution}",
    ) == "[False, False, False, False, True]"
    assert out.read_text() == journal.read_text()


def test_readme_library_example_runs():
    # The example imports each name from where it lives, and lifts a cover
    # of its input within the budget.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    names: dict[str, object] = {}
    exec(code, names)
    assert verify_cvc(names["g"], names["cover"])
    assert len(names["cover"]) <= 8
