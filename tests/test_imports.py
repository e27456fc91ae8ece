"""Start-up cost: importing the package and its CLI stays off heavy stdlib modules.

Every `planarcvc kernelize` or `planarcvc lift` is a fresh process that
pays for `import planarcvc` before any rule runs. `dataclasses` pulls in
`inspect` (and with it `ast`, `dis` and `tokenize`); the record types
are NamedTuples or plain classes instead. `pathlib` pulls in
`urllib.parse` and `ipaddress`; the CLI reads and writes its files with
`open()`. A well-formed command line is parsed without `argparse`,
which also loads `gettext`. `-S` keeps what site-packages' start-up
hooks import out of the checked process.
"""

from __future__ import annotations

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
