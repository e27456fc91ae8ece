"""Record the reference journal digests that run.py compares against.

    python3 perfbench/record_golden.py

Kernelizes every instance of every workload for seeds 0..9 at its
certified-YES budget through the CLI and writes, per input, the first
16 hex digits of the journal's sha256 to perfbench/golden_journals.json.
Re-record only when a journal change is intended.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def main() -> int:
    seeds = list(range(SEEDS))
    digests = {}
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_tmp") as tmp_name:
        tmp = Path(tmp_name)
        for name in sorted(workloads.WORKLOADS):
            for seed in seeds:
                instances = workloads.build(name, seed)
                workloads.write_inputs(instances, tmp)
                for inst in instances:
                    run = ops.kernelize(inst, inst.yes_k, tmp)
                    if run.error is not None:
                        sys.exit(f"{name} seed {seed} {inst.label}: {run.error}")
                    digests[inst.reference_key] = inputs.sha256(run.journal_text)[:16]
            print(f"{name}: seeds 0..{seeds[-1]} recorded", file=sys.stderr)
    (HERE / "golden_journals.json").write_text(
        json.dumps({"seeds": seeds, "digests": dict(sorted(digests.items()))}, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    import inputs
    import ops
    import workloads

    sys.exit(main())
