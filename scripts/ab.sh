#!/usr/bin/env bash
# Same-window A/B of the benchmark (`perfbench`, see perfbench/README.md)
# between a base commit and the working tree. Both sides are built once,
# then run in alternating pairs so that both see the same host-speed
# drift; each pair swaps which side goes first. Every run is
# `perfbench --trace 0` for BENCHMARK.json's `run_seconds`.
#
# Usage: scripts/ab.sh WORKLOAD [PAIRS=10] [SEED]
#   WORKLOAD  a workload named in BENCHMARK.json (e.g. sessions_agent)
#   PAIRS     number of base/candidate run pairs (default 10)
#   SEED      workload seed for every run (default: pair i uses seed i)
#
# The base is the parent of the change: HEAD while tracked files differ
# from it, else HEAD~1.
#
# Environment:
#   AB_OUT  directory to keep the raw result lines in (default: a temp
#           dir, removed on exit)
#
# Prints, per end-to-end metric, each side's median and quartiles, the
# median change, and in how many pairs the candidate beat the base. The
# `gate` column applies the benchmark's claim rule: the candidate wins
# at least 9 pairs in 10 and the medians differ by more than the base's
# interquartile range.
#
# The base is a `git archive` checkout in a temp dir (under $TMPDIR) built
# with its own CARGO_TARGET_DIR; the candidate builds into .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 ]]; then
  echo "usage: $0 WORKLOAD [PAIRS=10] [SEED]" >&2
  exit 2
fi
workload="$1"
pairs="${2:-10}"
seed="${3:-}"
if git diff --quiet HEAD --; then
  base="HEAD~1"
else
  base="HEAD"
fi
base_rev="$(git rev-parse --short "$base")"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
out="${AB_OUT:-$tmp/results}"
mkdir -p "$out"
rm -f "$out/base.jsonl" "$out/cand.jsonl"

echo "== building base $base_rev and the working tree" >&2
mkdir -p "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
CARGO_TARGET_DIR="$tmp/base-target" cargo build --release --offline -q \
  --manifest-path "$tmp/base/perfbench/Cargo.toml"
CARGO_TARGET_DIR=.bench_build cargo build --release --offline -q \
  --manifest-path perfbench/Cargo.toml
base_bin="$tmp/base-target/release/perfbench"
cand_bin="$PWD/.bench_build/release/perfbench"

run() { # side root binary seed
  local side="$1" root="$2" bin="$3" s="$4" line
  line="$(cd "$root" && "$bin" --workload "$workload" --seed "$s" \
    --seconds "$seconds" --trace 0 | tail -n 1)"
  echo "$line" >>"$out/$side.jsonl"
  echo "   $side seed $s: $(python3 -c 'import json, sys
m = json.loads(sys.argv[1])["metrics"]
print("wall_s %.4f  sim_req_per_s %.5g" % (m["wall_s"]["value"], m["sim_req_per_s"]["value"]))' "$line")" >&2
}

for ((i = 1; i <= pairs; i++)); do
  s="${seed:-$i}"
  echo "== pair $i/$pairs ($workload, seed $s, ${seconds}s per run)" >&2
  if ((i % 2)); then
    run base "$tmp/base" "$base_bin" "$s"
    run cand "$PWD" "$cand_bin" "$s"
  else
    run cand "$PWD" "$cand_bin" "$s"
    run base "$tmp/base" "$base_bin" "$s"
  fi
done

python3 - "$out/base.jsonl" "$out/cand.jsonl" BENCHMARK.json "$workload" "$base_rev" <<'EOF'
import json
import statistics
import sys

base_path, cand_path, bench_path, workload, base_rev = sys.argv[1:]
load = lambda p: [json.loads(l)["metrics"] for l in open(p) if l.strip()]
base, cand = load(base_path), load(cand_path)
metrics = json.load(open(bench_path))["end_to_end"]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

print(f"{workload}: base {base_rev} vs working tree, {len(base)} pairs")
print(f"{'metric':<24}{'base median [q1, q3]':>38}{'cand median [q1, q3]':>38}"
      f"{'change':>9}{'wins':>7}  gate")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    if not all(name in r for r in base + cand):
        continue
    b = [r[name]["value"] for r in base]
    c = [r[name]["value"] for r in cand]
    bq, cq = quartiles(b), quartiles(c)
    wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
    change = (cq[1] - bq[1]) / bq[1] * 100 if bq[1] else float("nan")
    gate = wins * 10 >= 9 * len(b) and abs(cq[1] - bq[1]) > bq[2] - bq[0]
    fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
    print(f"{name:<24}{fmt(bq):>38}{fmt(cq):>38}{change:>+8.1f}%"
          f"{wins:>4}/{len(b):<2}  {'pass' if gate else '-'}")
EOF
