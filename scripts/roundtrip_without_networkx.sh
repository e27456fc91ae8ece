#!/usr/bin/env bash
# planarcvc round trip with networkx blocked: generate the ring family
# (l = 3), kernelize it, solve the kernel, lift the solution back and
# verify it. The kernel must have 11l + 2 = 35 vertices and the journal
# exactly l = 3 R8 (pendant merge) records, so a Phase 2 that loses
# merges fails here. The kernel's non-leaf cover, which holds each
# merged 2-vertex with both its owners, is lifted and verified too.
# `kernelize --stats` on the same ring (fixpoint replay, exact solver,
# partition) must report that the partition bound holds.
# The pendant wheel at m = 50, written here with the standard library,
# has all 50 pendant owners on its outer face: its journal must hold
# exactly 25 R8 records, and its kernel's non-leaf cover must lift to a
# cover of the wheel.
# The ring's Phase 1 makes no step, so a random planar graph (n = 120,
# density 0.5) makes the same round trip through Phase 1's contractions:
# its journal must hold at least one R2, one cut R3 and one R4 record.
# A larger one (n = 400, density 0.5, seed 16) makes it through the
# rules that remove 3-vertices: at least one R5, one R6 and one R7 record.
# A sparse one (n = 3200, density 0.35, seed 1), whose contractions grow
# hubs, takes Phase 1 through at least 3000 steps: its journal must hold
# that many records, and its kernel's non-leaf cover must lift to a
# cover of the input.
# Graph and solution files in the form the CLI writes are read in bulk,
# others line by line: a decorated copy of the n = 120 graph (comment
# lines, CRLF line ends, doubled spaces) must give the same kernel and
# journal, byte for byte, and a decorated copy of its kernel solution
# must lift to the same solution.
# Every step runs planarcvc.cli.main in a fresh
# Python process in which `import networkx` raises ImportError, and
# fails if any networkx module got loaded anyway; a step other than
# `generate` also fails if it loaded argparse, which only help and usage
# errors need, and a `lift`, `verify` or `solve` step fails if it loaded
# Phase 2 (planarcvc.embedding, .facematch, .matching), the Phase 1
# detection index (planarcvc.detection) or planarcvc.generators, which
# load on first use. A `lift`, a `verify` or a `kernelize` without
# `--stats` fails if it loaded the exact solver (planarcvc.exact), and
# a `kernelize`, `verify` or `solve` fails if it loaded json, which only
# the journal reader of `lift` needs. The ring's kernelize
# with abbreviated options and
# `--k=11`, which argparse parses, must write the same kernel and
# journal as the long form. Then one input error, a graph file
# with a self-loop, must exit 2 with a single `error:` line on stderr.
# The n = 120 journal holds no R8 record, so `lift` checks its records
# without replaying them: a lift whose journal lost the `w` role of its
# first R2 record must exit 2 with one `error:` line naming that step
# and the site keys, with no traceback, so must one whose first R2
# record gained a site key that is not a role, and one whose first cut
# R3 record says `"cut": false`, whose keys are those of a cut R3. An
# empty kernel solution of that kernel lifts to a set that is no cover:
# exit 2 with one `error:` line, under `python3` and `python3 -O` alike.
# A kernelize without `--k` must exit 2 with argparse's `usage:` line.
# K5 is its own Phase 1 fixpoint, with no pendant owner, so only a
# failing size gate tests its planarity: at k = 1 it must exit 2 with
# the not-planar error, and at k = 5 exit 0 with itself as kernel.
# Prints one "ok <step>" line per step.
#
#   bash scripts/roundtrip_without_networkx.sh
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# run [-O] [--argparse] ARGS...: `planarcvc ARGS`; -O runs it under
# `python3 -O`, and with --argparse the step may load argparse.
run() {
  local optimize="" argparse=no
  if [ "$1" = -O ]; then
    optimize=-O
    shift
  fi
  if [ "$1" = --argparse ]; then
    argparse=yes
    shift
  fi
  python3 $optimize -c '
import sys
sys.modules["networkx"] = None  # any import of networkx now fails
from planarcvc.cli import main
argparse, argv = sys.argv[1] == "yes" or sys.argv[2] == "generate", sys.argv[2:]
code = main(argv)
loaded = [m for m, mod in sys.modules.items() if m.split(".")[0] == "networkx" and mod]
if loaded:
    sys.exit(f"networkx modules loaded: {loaded}")
if "argparse" in sys.modules and not argparse:
    sys.exit(f"argparse loaded by {argv}")
lazy = {f"planarcvc.{m}" for m in ("embedding", "facematch", "matching", "detection", "generators")}
if argv[0] in ("lift", "verify", "solve") and lazy & sys.modules.keys():
    sys.exit(f"{sorted(lazy & sys.modules.keys())} loaded by {argv}")
if "planarcvc.exact" in sys.modules and (argv[0] in ("lift", "verify") or argv[0] == "kernelize" and "--stats" not in argv):
    sys.exit(f"planarcvc.exact loaded by {argv}")
if "json" in sys.modules and argv[0] in ("kernelize", "verify", "solve"):
    sys.exit(f"json loaded by {argv}")
sys.exit(code)
' "$argparse" "$@"
}

planarcvc() {
  run "$@"
  echo "ok $1" >&2
}

planarcvc generate tightness --l 3 > "$work/ring.cvc"
planarcvc kernelize --input "$work/ring.cvc" --k 11 --journal "$work/ring.journal" > "$work/kernel.out"
header=$(head -n 1 "$work/kernel.out")
merges=$(grep -c '"rule": "R8"' "$work/ring.journal" || true)
if [[ "$header" != "p cvc 35 "* ]] || [ "$merges" -ne 3 ]; then
  echo "ring l = 3: want header 'p cvc 35 ...' and 3 R8 records, got '$header' and $merges" >&2
  exit 1
fi
echo "ok ring-merges" >&2
run --argparse kernelize --inp "$work/ring.cvc" --k=11 --jour "$work/abbrev.journal" > "$work/abbrev.out"
if ! cmp -s "$work/kernel.out" "$work/abbrev.out" || ! cmp -s "$work/ring.journal" "$work/abbrev.journal"; then
  echo "kernelize --inp --k=11 --jour: kernel or journal differs from the long form" >&2
  exit 1
fi
echo "ok abbreviated-options" >&2
grep -v '^c ' "$work/kernel.out" > "$work/kernel.cvc"
k=$(sed -n 's/^c kernel-k //p' "$work/kernel.out")
planarcvc solve --input "$work/kernel.cvc" --limit "$k" > "$work/kernel.sol"
planarcvc lift --input "$work/ring.cvc" --journal "$work/ring.journal" \
  --solution "$work/kernel.sol" > "$work/lifted.sol"
planarcvc verify --input "$work/ring.cvc" --solution "$work/lifted.sol"
awk '$1 == "e" { d[$2]++; d[$3]++ } END { for (v in d) if (d[v] > 1) print v }' \
  "$work/kernel.cvc" | sort -n > "$work/nonleaf.sol"
run lift --input "$work/ring.cvc" --journal "$work/ring.journal" \
  --solution "$work/nonleaf.sol" > "$work/nonleaf-lifted.sol"
run verify --input "$work/ring.cvc" --solution "$work/nonleaf-lifted.sol"
echo "ok nonleaf-lift" >&2
run kernelize --input "$work/ring.cvc" --k 11 --stats > /dev/null 2> "$work/stats.err"
if ! grep -qx 'stats partition-bound holds' "$work/stats.err"; then
  echo "kernelize --stats: want 'stats partition-bound holds' on stderr, got:" >&2
  cat "$work/stats.err" >&2
  exit 1
fi
echo "ok stats" >&2

# The wheel: rim 1..2m, hub 2m + 1, and the pendant 2m + 1 + i on the rim
# vertex 2i - 1. The rim, 2m vertices, is a connected vertex cover.
python3 -c '
import sys
m = int(sys.argv[1])
hub = 2 * m + 1
edges = [(r, r + 1) for r in range(1, 2 * m)] + [(1, 2 * m)]
edges += [(r, hub) for r in range(1, hub)] + [(2 * i - 1, hub + i) for i in range(1, m + 1)]
sys.stdout.write(f"p cvc {3 * m + 1} {len(edges)}\n" + "".join(f"e {u} {w}\n" for u, w in sorted(edges)))
' 50 > "$work/wheel.cvc"
run kernelize --input "$work/wheel.cvc" --k 100 --journal "$work/wheel.journal" > "$work/wheel-kernel.out"
merges=$(grep -c '"rule": "R8"' "$work/wheel.journal" || true)
if [ "$merges" -ne 25 ]; then
  echo "wheel m = 50: want 25 R8 records, got $merges" >&2
  exit 1
fi
grep -v '^c ' "$work/wheel-kernel.out" > "$work/wheel-kernel.cvc"
awk '$1 == "e" { d[$2]++; d[$3]++ } END { for (v in d) if (d[v] > 1) print v }' \
  "$work/wheel-kernel.cvc" | sort -n > "$work/wheel-nonleaf.sol"
run lift --input "$work/wheel.cvc" --journal "$work/wheel.journal" \
  --solution "$work/wheel-nonleaf.sol" > "$work/wheel-lifted.sol"
run verify --input "$work/wheel.cvc" --solution "$work/wheel-lifted.sol"
echo "ok wheel-round-trip" >&2

# Random planar graph of N vertices and density 0.5: kernelize at k = N,
# require one journal record matching each PATTERN, then solve the
# kernel at its kernel-k, lift and verify.
#   random_round_trip NAME N SEED PATTERN...
random_round_trip() {
  local name=$1 n=$2 seed=$3 pattern k
  local g="$work/$name"
  shift 3
  run generate random --n "$n" --density 0.5 --seed "$seed" > "$g.cvc"
  run kernelize --input "$g.cvc" --k "$n" --journal "$g.journal" > "$g-kernel.out"
  for pattern in "$@"; do
    if ! grep -qF "$pattern" "$g.journal"; then
      echo "random n = $n, seed $seed: want a journal record with $pattern" >&2
      exit 1
    fi
  done
  grep -v '^c ' "$g-kernel.out" > "$g-kernel.cvc"
  k=$(sed -n 's/^c kernel-k //p' "$g-kernel.out")
  run solve --input "$g-kernel.cvc" --limit "$k" > "$g-kernel.sol"
  run lift --input "$g.cvc" --journal "$g.journal" \
    --solution "$g-kernel.sol" > "$g-lifted.sol"
  run verify --input "$g.cvc" --solution "$g-lifted.sol"
  echo "ok $name" >&2
}

random_round_trip contraction-round-trip 120 1 '"rule": "R2"' '"cut": true' '"rule": "R4"'
random_round_trip r5-r7-round-trip 400 16 '"rule": "R5"' '"rule": "R6"' '"rule": "R7"'

run generate random --n 3200 --density 0.35 --seed 1 > "$work/sparse.cvc"
run kernelize --input "$work/sparse.cvc" --k 3200 --journal "$work/sparse.journal" > "$work/sparse-kernel.out"
records=$(wc -l < "$work/sparse.journal")
if [ "$records" -lt 3000 ]; then
  echo "sparse n = 3200: want at least 3000 journal records, got $records" >&2
  exit 1
fi
grep -v '^c ' "$work/sparse-kernel.out" > "$work/sparse-kernel.cvc"
awk '$1 == "e" { d[$2]++; d[$3]++ } END { for (v in d) if (d[v] > 1) print v }' \
  "$work/sparse-kernel.cvc" | sort -n > "$work/sparse-nonleaf.sol"
run lift --input "$work/sparse.cvc" --journal "$work/sparse.journal" \
  --solution "$work/sparse-nonleaf.sol" > "$work/sparse-lifted.sol"
run verify --input "$work/sparse.cvc" --solution "$work/sparse-lifted.sol"
echo "ok sparse-scale-round-trip" >&2

g="$work/contraction-round-trip"
awk '{ gsub(/ /, "  "); printf "c decorated\r\n%s\r\n", $0 }' "$g.cvc" > "$g-decorated.cvc"
run kernelize --input "$g-decorated.cvc" --k 120 --journal "$g-decorated.journal" > "$g-decorated-kernel.out"
if ! cmp -s "$g-kernel.out" "$g-decorated-kernel.out" || ! cmp -s "$g.journal" "$g-decorated.journal"; then
  echo "decorated n = 120 graph: kernel or journal differs from the canonical file's" >&2
  exit 1
fi
awk '{ printf "c decorated\r\n  %s \r\n", $0 }' "$g-kernel.sol" > "$g-kernel-decorated.sol"
run lift --input "$g-decorated.cvc" --journal "$g.journal" \
  --solution "$g-kernel-decorated.sol" > "$g-decorated-lifted.sol"
if ! cmp -s "$g-lifted.sol" "$g-decorated-lifted.sol"; then
  echo "decorated n = 120 graph and kernel solution: lifted solution differs" >&2
  exit 1
fi
echo "ok decorated-input" >&2

printf 'p cvc 2 1\ne 1 1\n' > "$work/loop.cvc"
code=0
run kernelize --input "$work/loop.cvc" --k 1 > /dev/null 2> "$work/loop.err" || code=$?
if [ "$code" -ne 2 ] || [ "$(wc -l < "$work/loop.err")" -ne 1 ] || ! grep -q '^error: ' "$work/loop.err"; then
  echo "input error: want exit 2 and one error: line, got exit $code and:" >&2
  cat "$work/loop.err" >&2
  exit 1
fi
echo "ok input-error" >&2

# tamper ACTION OUT: copy the n = 120 journal to OUT with ACTION done to
# the site of one record ("del" drops w of the first R2 record, "add"
# adds an extra key to it, "cut" clears the flag of the first cut R3
# record); prints that record's index.
tamper() {
  python3 -c '
import json, sys
records = [json.loads(line) for line in open(sys.argv[1])]
action = sys.argv[3]
if action == "cut":
    idx = next(i for i, r in enumerate(records) if r["rule"] == "R3" and r["site"]["cut"])
    records[idx]["site"]["cut"] = False
else:
    idx = next(i for i, r in enumerate(records) if r["rule"] == "R2")
    if action == "del":
        del records[idx]["site"]["w"]
    else:
        records[idx]["site"]["extra"] = 0
open(sys.argv[2], "w").write("".join(json.dumps(r) + "\n" for r in records))
print(idx)
' "$g.journal" "$2" "$1"
}

# bad_record NAME ACTION DETAIL: a lift with the n = 120 journal tampered
# by ACTION must exit 2 with one line, the record check's DETAIL at the
# tampered record's own step.
bad_record() {
  local name=$1 idx want code=0
  idx=$(tamper "$2" "$g-$name.journal")
  want="error: bad journal record at step $idx: $3"
  run lift --input "$g.cvc" --journal "$g-$name.journal" --solution "$g-kernel.sol" \
    > /dev/null 2> "$work/$name.err" || code=$?
  if [ "$code" -ne 2 ] || [ "$(cat "$work/$name.err")" != "$want" ]; then
    echo "$name journal: want exit 2 and '$want', got exit $code and:" >&2
    cat "$work/$name.err" >&2
    exit 1
  fi
  echo "ok $name" >&2
}

bad_record missing-role del "R2: site keys ['c', 'u', 'v'] are not ['c', 'u', 'v', 'w']"
bad_record unknown-role add "R2: site keys ['c', 'extra', 'u', 'v', 'w'] are not ['c', 'u', 'v', 'w']"
bad_record flipped-cut cut "R3: site keys ['c', 'cut', 'u', 'v', 'w'] are not ['cut', 'pu', 'pw', 'u', 'v', 'w']"

: > "$work/empty.sol"
want='error: kernel solution does not lift to a connected vertex cover of the input'
for optimize in "" -O; do
  code=0
  run $optimize lift --input "$g.cvc" --journal "$g.journal" --solution "$work/empty.sol" \
    > /dev/null 2> "$work/empty.err" || code=$?
  if [ "$code" -ne 2 ] || [ "$(cat "$work/empty.err")" != "$want" ]; then
    echo "empty kernel solution, python3 $optimize: want exit 2 and '$want', got exit $code and:" >&2
    cat "$work/empty.err" >&2
    exit 1
  fi
done
echo "ok empty-solution" >&2

code=0
run kernelize --input "$work/ring.cvc" > /dev/null 2> "$work/usage.err" || code=$?
if [ "$code" -ne 2 ] || ! grep -q '^usage: ' "$work/usage.err"; then
  echo "kernelize without --k: want exit 2 and a usage: line, got exit $code and:" >&2
  cat "$work/usage.err" >&2
  exit 1
fi
echo "ok usage-error" >&2

printf 'p cvc 5 10\ne 1 2\ne 1 3\ne 1 4\ne 1 5\ne 2 3\ne 2 4\ne 2 5\ne 3 4\ne 3 5\ne 4 5\n' > "$work/k5.cvc"
# At k = 1 the size gate fails, and its NO would need planarity: exit 2.
want='error: input graph is not planar (graph with 5 vertices / 10 edges is not planar)'
code=0
run kernelize --input "$work/k5.cvc" --k 1 > /dev/null 2> "$work/k5.err" || code=$?
if [ "$code" -ne 2 ] || [ "$(cat "$work/k5.err")" != "$want" ]; then
  echo "K5 at k = 1: want exit 2 and '$want', got exit $code and:" >&2
  cat "$work/k5.err" >&2
  exit 1
fi
# At k = 5 it passes, and K5 is its own kernel.
code=0
run kernelize --input "$work/k5.cvc" --k 5 > "$work/k5-kernel.out" || code=$?
if [ "$code" -ne 0 ] || [ "$(tail -n 1 "$work/k5-kernel.out")" != "c kernel-k 5" ]; then
  echo "K5 at k = 5: want exit 0 and 'c kernel-k 5', got exit $code and:" >&2
  cat "$work/k5-kernel.out" >&2
  exit 1
fi
echo "ok nonplanar" >&2
