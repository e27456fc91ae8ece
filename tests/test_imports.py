"""Start-up cost: importing the package and its CLI stays off heavy stdlib modules.

Every `planarcvc kernelize` or `planarcvc lift` is a fresh process that
pays for `import planarcvc` before any rule runs. `dataclasses` pulls in
`inspect` (and with it `ast`, `dis` and `tokenize`); the record types
are NamedTuples or plain classes instead. `pathlib` pulls in
`urllib.parse` and `ipaddress`; the CLI reads and writes its files with
`open()`. A well-formed command line is parsed without `argparse`,
which also loads `gettext`. Phase 2 (`embedding`, `facematch`,
`matching`) and the generators load on first use: a lift, a verify or a
kernelize that Phase 1 answers NO never imports them. Nor does a lift or
a verify import the Phase 1 detection index (`detection`). `-S` keeps what
site-packages' start-up hooks import out of the checked process.
"""

from __future__ import annotations

import types

import pytest

import planarcvc
from planarcvc import fileio
from planarcvc.cli import main
from planarcvc.generators import gen_tightness

from conftest import run_python


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
    graph = tmp_path / "ring.cvc"
    graph.write_text(fileio.serialize_graph(gen_tightness(3)))
    journal, solution = tmp_path / "ring.journal", tmp_path / "kernel.sol"
    assert main(["kernelize", "--input", str(graph), "--k", "11", "--journal", str(journal)]) == 0
    kernel = tmp_path / "kernel.cvc"
    kernel.write_text(capsys.readouterr().out)
    assert main(["solve", "--input", str(kernel)]) == 0
    solution.write_text(capsys.readouterr().out)

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
    ring, journal = tmp_path / "ring.cvc", tmp_path / "ring.journal"
    ring.write_text(fileio.serialize_graph(gen_tightness(3)))
    assert main(["kernelize", "--input", str(ring), "--k", "11", "--journal", str(journal)]) == 0
    kernel, solution = tmp_path / "kernel.cvc", tmp_path / "kernel.sol"
    kernel.write_text(capsys.readouterr().out)
    assert main(["solve", "--input", str(kernel)]) == 0
    solution.write_text(capsys.readouterr().out)
    path = tmp_path / "path.cvc"
    path.write_text("p cvc 6 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 6\n")

    assert _phase2_loaded_by("kernelize", "--input", str(path), "--k", "1") == "1 []"
    assert _phase2_loaded_by("lift", "--input", str(ring), "--journal", str(journal),
                             "--solution", str(solution)) == "0 []"
    assert _phase2_loaded_by("verify", "--input", str(kernel), "--solution", str(solution)) == "0 []"
    assert _phase2_loaded_by("kernelize", "--input", str(ring), "--k", "11") == (
        "0 ['planarcvc.embedding', 'planarcvc.facematch', 'planarcvc.matching']"
    )


# The names of Phase 2 and the generators, which the package does not re-export.
_MODULE_ONLY = {
    "embedding": ("Embedding", "Face", "NonPlanarGraphError", "embed"),
    "facematch": ("AuxGraph", "PlanarizedMatching", "build_aux_graph", "planarize_matching", "run_phase2"),
    "generators": ("gen_exception_graph", "gen_random_planar", "gen_tightness"),
    "matching": ("Matching", "maximum_matching"),
}


def test_every_public_name_is_its_submodule_object():
    # `__all__` is what `import planarcvc` binds, each name its module's
    # object; Phase 2 and generator names are read from their modules only.
    from planarcvc import embedding, facematch, generators, graph, matching, oracle, pipeline, reductions

    star: dict[str, object] = {}
    exec("from planarcvc import *", star)
    assert star.keys() - {"__builtins__"} == set(planarcvc.__all__)
    bound = {name for name, obj in vars(planarcvc).items()
             if not name.startswith("__") and not isinstance(obj, types.ModuleType)}
    assert bound == set(planarcvc.__all__)
    modules = (embedding, facematch, generators, graph, matching, oracle, pipeline, reductions)
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


# `import planarcvc`, then `planarcvc ARGV` for each argument (split at
# blanks); prints whether planarcvc.detection was loaded after each.
_DETECTION_LOADS = """
import sys
import planarcvc, planarcvc.cli
loaded = ["planarcvc.detection" in sys.modules]
for argv in sys.argv[1:]:
    planarcvc.cli.main(argv.split())
    loaded.append("planarcvc.detection" in sys.modules)
print(loaded, file=sys.stderr)
"""


def test_detection_loads_only_for_phase1(tmp_path, capsys):
    # The Phase 1 detection index is compiled only by a process that runs
    # Phase 1: not by `import planarcvc`, a lift or a verify.
    ring, journal = tmp_path / "ring.cvc", tmp_path / "ring.journal"
    ring.write_text(fileio.serialize_graph(gen_tightness(3)))
    assert main(["kernelize", "--input", str(ring), "--k", "11", "--journal", str(journal)]) == 0
    kernel, solution = tmp_path / "kernel.cvc", tmp_path / "kernel.sol"
    kernel.write_text(capsys.readouterr().out)
    assert main(["solve", "--input", str(kernel)]) == 0
    solution.write_text(capsys.readouterr().out)

    proc = run_python(
        ["-S", "-c", _DETECTION_LOADS,
         f"lift --input {ring} --journal {journal} --solution {solution}",
         f"verify --input {kernel} --solution {solution}",
         f"kernelize --input {ring} --k 11"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "[False, False, False, True]"
