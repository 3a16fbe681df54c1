#!/usr/bin/env bash
# Same-window A/B of one Criterion benchmark of `crates/bench/benches/
# simulator.rs` between a base commit and the working tree. Both bench
# binaries are built once, then run in alternating pairs (each pair swaps
# which side goes first) so both see the same host-speed drift. Each run
# reports the benchmark's median over its own samples.
#
# Usage: scripts/ab_criterion.sh BENCH [PAIRS=10]
#   BENCH  a benchmark id such as serving/des_100k or cluster/des_3rep_100k
#   PAIRS  number of base/candidate run pairs (default 10)
#
# The base is the parent of the change: HEAD while tracked files differ
# from it, else HEAD~1. It is a `git archive` checkout in a temp dir
# (under $TMPDIR) with its own CARGO_TARGET_DIR; the candidate builds
# into the usual target dir.
#
# Prints each side's median and quartiles over the pairs' run medians,
# the median change, and in how many pairs the candidate was faster.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 ]]; then
  echo "usage: $0 BENCH [PAIRS=10]" >&2
  exit 2
fi
bench="$1"
pairs="${2:-10}"
if git diff --quiet HEAD --; then
  base="HEAD~1"
else
  base="HEAD"
fi
base_rev="$(git rev-parse --short "$base")"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

build() { # root target_dir -> prints the bench executable
  (cd "$1" && CARGO_TARGET_DIR="$2" cargo bench --offline \
    -p edgereasoning-bench --bench simulator --no-run 2>&1) |
    sed -n 's/.*Executable .* (\(.*\))$/\1/p' | tail -n 1
}

echo "== building base $base_rev and the working tree" >&2
mkdir -p "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
base_bin="$(build "$tmp/base" "$tmp/base-target")"
cand_bin="$(build "$PWD" "${CARGO_TARGET_DIR:-$PWD/target}")"

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then order="base cand"; else order="cand base"; fi
  for side in $order; do
    if [[ $side == base ]]; then bin="$base_bin"; else bin="$cand_bin"; fi
    CRITERION_LITE_JSON="$tmp/$side.jsonl" "$bin" --bench "$bench" >/dev/null
  done
done

python3 - "$tmp/base.jsonl" "$tmp/cand.jsonl" "$bench" "$base_rev" <<'EOF'
import json
import statistics
import sys

base_path, cand_path, bench, base_rev = sys.argv[1:]
load = lambda p: [json.loads(l)["median_ns"] / 1e6 for l in open(p) if l.strip()]
base, cand = load(base_path), load(cand_path)
q = lambda xs: statistics.quantiles(xs, n=4, method="inclusive")
bq, cq = q(base), q(cand)
wins = sum(c < b for b, c in zip(base, cand))
print(f"{bench}: base {base_rev} vs working tree, {len(base)} pairs (ms)")
print(f"  base median {bq[1]:.2f} [{bq[0]:.2f}, {bq[2]:.2f}]  "
      f"cand median {cq[1]:.2f} [{cq[0]:.2f}, {cq[2]:.2f}]  "
      f"change {(cq[1] - bq[1]) / bq[1] * 100:+.1f}%  "
      f"cand faster {wins}/{len(base)}  base IQR {bq[2] - bq[0]:.2f}")
EOF
