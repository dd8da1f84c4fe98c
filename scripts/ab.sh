#!/usr/bin/env bash
# A/B timing of two checkouts on one perfbench workload.
#
#   scripts/ab.sh <checkout-a> <checkout-b> <workload> <seed> <seconds> <pairs>
#
# Runs each checkout's own perfbench/run.py in alternating order (A then B,
# then B then A, ...), so slow drift on the host lands on both sides
# evenly. Prints each pair's end-to-end metrics and which side won each
# metric, then every metric's median and interquartile range per side and
# the pairs each side won. "Better" comes from checkout A's BENCHMARK.json.
# Each checkout builds into its own .bench_build (or $CARGO_TARGET_DIR);
# perfbench/ is only read.
set -euo pipefail

if [[ $# -ne 6 ]]; then
  echo "usage: $0 <checkout-a> <checkout-b> <workload> <seed> <seconds> <pairs>" >&2
  exit 2
fi
a=$(cd "$1" && pwd)
b=$(cd "$2" && pwd)
workload=$3 seed=$4 seconds=$5 pairs=$6
for dir in "$a" "$b"; do
  [[ -f "$dir/perfbench/run.py" ]] || { echo "error: no perfbench/run.py in $dir" >&2; exit 2; }
done
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "error: <pairs> must be a positive integer" >&2; exit 2; }

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# One run of one side; its result line goes to $out/<side>.<pair>.
run_side() {
  local side=$1 dir=$2 pair=$3
  if ! (cd "$dir" && python3 perfbench/run.py --workload "$workload" \
          --seed "$seed" --seconds "$seconds") 2>"$out/log" | tail -n 1 >"$out/$side.$pair"; then
    cat "$out/log" >&2
    echo "error: run failed in $dir" >&2
    exit 1
  fi
  [[ -s "$out/$side.$pair" ]] || { cat "$out/log" >&2; echo "error: no result from $dir" >&2; exit 1; }
}

for ((p = 1; p <= pairs; p++)); do
  if ((p % 2)); then
    run_side A "$a" "$p"; run_side B "$b" "$p"
  else
    run_side B "$b" "$p"; run_side A "$a" "$p"
  fi
done

python3 - "$out" "$pairs" "$a/BENCHMARK.json" "$a" "$b" "$workload" "$seed" "$seconds" <<'EOF'
import json, statistics, sys

out, pairs, spec_path, a, b, workload, seed, seconds = sys.argv[1:]
pairs = int(pairs)
with open(spec_path) as f:
    better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

def load(side, p):
    with open(f"{out}/{side}.{p}") as f:
        res = json.load(f)
    return {k: v["value"] for k, v in res["metrics"].items()}

runs = {s: [load(s, p) for p in range(1, pairs + 1)] for s in "AB"}
names = [n for n in better if n in runs["A"][0]]
print(f"A = {a}\nB = {b}\nworkload {workload}, seed {seed}, {seconds} s runs, {pairs} pairs")

def winner(name, x, y):
    if x == y:
        return "="
    return "A" if (x < y) == (better[name] == "lower") else "B"

wins = {n: {"A": 0, "B": 0, "=": 0} for n in names}
for p in range(pairs):
    cells = []
    for n in names:
        x, y = runs["A"][p][n], runs["B"][p][n]
        w = winner(n, x, y)
        wins[n][w] += 1
        cells.append(f"{n} {x:.6g}/{y:.6g} {w}")
    print(f"pair {p + 1}: " + "  ".join(cells))

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]

print(f"{'metric':<18}{'median A':>12}{'IQR A':>12}{'median B':>12}{'IQR B':>12}"
      f"{'B vs A':>9}  wins A/B/=")
for n in names:
    va = [r[n] for r in runs["A"]]
    vb = [r[n] for r in runs["B"]]
    ma, mb = statistics.median(va), statistics.median(vb)
    qa, qb = quartiles(va), quartiles(vb)
    delta = f"{(mb - ma) / ma * 100:+.1f}%" if ma else "n/a"
    w = wins[n]
    print(f"{n:<18}{ma:>12.6g}{qa[1] - qa[0]:>12.4g}{mb:>12.6g}{qb[1] - qb[0]:>12.4g}"
          f"{delta:>9}  {w['A']}/{w['B']}/{w['=']}")
EOF
