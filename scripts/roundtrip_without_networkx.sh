#!/usr/bin/env bash
# planarcvc round trip with networkx blocked: generate the ring family
# (l = 3), kernelize it, solve the kernel, lift the solution back and
# verify it. Every step runs planarcvc.cli.main in a fresh Python process
# in which `import networkx` raises ImportError, and fails if any
# networkx module got loaded anyway. Prints one "ok <step>" line per step.
#
#   bash scripts/roundtrip_without_networkx.sh
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

planarcvc() {
  python3 -c '
import sys
sys.modules["networkx"] = None  # any import of networkx now fails
from planarcvc.cli import main
code = main(sys.argv[1:])
loaded = [m for m, mod in sys.modules.items() if m.split(".")[0] == "networkx" and mod]
sys.exit(f"networkx modules loaded: {loaded}" if loaded else code)
' "$@"
  echo "ok $1" >&2
}

planarcvc generate tightness --l 3 > "$work/ring.cvc"
planarcvc kernelize --input "$work/ring.cvc" --k 11 --journal "$work/ring.journal" > "$work/kernel.out"
grep -v '^c ' "$work/kernel.out" > "$work/kernel.cvc"
k=$(sed -n 's/^c kernel-k //p' "$work/kernel.out")
planarcvc solve --input "$work/kernel.cvc" --limit "$k" > "$work/kernel.sol"
planarcvc lift --input "$work/ring.cvc" --journal "$work/ring.journal" \
  --solution "$work/kernel.sol" > "$work/lifted.sol"
planarcvc verify --input "$work/ring.cvc" --solution "$work/lifted.sol"
