"""Print every benchmark metric by name and unit, one row per workload.

    python3 perfbench/table.py [--seed N]

Runs perfbench/run.py on each workload of BENCHMARK.json for its
run_seconds, first untraced (--trace 0, end-to-end metrics) and then
traced (--trace 1, per-layer metrics), one process at a time, and prints
one row per workload. Exits 1 when any run reports a failed check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, cwd=HERE.parent,
    )
    return json.loads(out.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        cells = []
        for trace in (0, 1):
            result = run(workload, args.seed, spec["run_seconds"], trace)
            all_correct &= result["correct"]
            passed = result["attempted"] - result["failed"]
            cells.append(f"{('untraced', 'traced')[trace]}_checks={passed}/{result['attempted']}")
            cells.extend(f"{name}={m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items())
        print(f"{workload}  " + "  ".join(cells), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
