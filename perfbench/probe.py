"""Time `import planarcvc` in a fresh process; run.py starts it.

    python3 perfbench/probe.py SRC

Prints the seconds the import took, with SRC (the repository's src/)
first on sys.path.
"""

from __future__ import annotations

import sys
import time


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    start = time.perf_counter()
    import planarcvc  # noqa: F401
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
