"""Start-up cost: importing the package and its CLI stays off heavy stdlib modules.

Every `planarcvc kernelize` or `planarcvc lift` is a fresh process that
pays for `import planarcvc` before any rule runs. `dataclasses` pulls in
`inspect` (and with it `ast`, `dis` and `tokenize`); the record types
are NamedTuples or plain classes instead. `pathlib` pulls in
`urllib.parse` and `ipaddress`; the CLI reads and writes its files with
`open()`. `-S` keeps what site-packages' start-up hooks import out of
the checked process.
"""

from __future__ import annotations

from conftest import run_python


def test_import_loads_neither_dataclasses_nor_inspect():
    proc = run_python(
        ["-S", "-c", "import sys; import planarcvc, planarcvc.cli;"
         " print(sorted({'dataclasses', 'inspect', 'pathlib'} & sys.modules.keys()))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
