#!/usr/bin/env bash
# Same-runner timing A/B of two checkouts with the benchmark's workloads.
#
#   .github/perf-ab.sh BASE_DIR HEAD_DIR OUT_DIR
#
# Builds perfbench/workloads.exe in both checkouts, then runs one
# `noise --runs 1` of every workload on each side five times, the two
# sides alternating (base first on even pairs, head first on odd), so
# load that drifts over the job lands on both sides alike.  Every run
# takes BENCHMARK.json's run_seconds and the workloads' default seeds.
# Runs of 4 s, even nine pairs of them, made a commit compared with
# itself fail on a shared 2-core host.  The single-run reports of a side are merged
# into OUT_DIR/base.json and OUT_DIR/head.json, with the medians and
# quartiles noise itself would compute, and `compare` (HEAD_DIR's)
# judges them against BENCHMARK.json's bounds; its output goes to
# OUT_DIR/compare.txt.  Exits 1 if compare finds a metric WORSE than its
# bound or the head side counts a failed check.
set -euo pipefail
base=$(realpath "$1") head=$(realpath "$2") out=$3 pairs=5
rm -rf "$out/runs"
mkdir -p "$out/runs"
out=$(realpath "$out")
for dir in "$base" "$head"; do
  dune build --root "$dir" --no-print-directory --display quiet perfbench/workloads.exe
done

noise() { # side dir pair
  (cd "$2" && _build/default/perfbench/workloads.exe noise --runs 1 \
     --out-dir "$out/tmp" --out "$out/runs/$1-$3.json" >/dev/null)
}
for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then
    noise base "$base" "$i"; noise head "$head" "$i"
  else
    noise head "$head" "$i"; noise base "$base" "$i"
  fi
  echo "perf-ab: pair $((i + 1))/$pairs done"
done

# Stat.median and Stat.quartiles of perfbench, over merged run values.
merge='
def median: sort as $s | ($s | length) as $n | (0.5 * ($n - 1)) as $r
  | ($r | floor) as $i
  | if $i >= $n - 1 then $s[$n - 1] else $s[$i] + ($r - $i) * ($s[$i + 1] - $s[$i]) end;
def quartile($k): sort as $s | ($s | length) as $n
  | if $n == 1 then $s[0] else
      ([1, ([$n - 1, ($k * ($n + 1) / 4 | floor)] | min)] | max) as $j
      | ($k * ($n + 1) - 4 * $j) as $d
      | ($s[$j - 1] * (4 - $d) + $s[$j] * $d) / 4 end;
def ordered_keys: reduce (.[] | keys_unsorted[]) as $k ([]; if index([$k]) then . else . + [$k] end);
. as $runs
| { runs: (map(.runs) | add), seconds: .[0].seconds, trace: .[0].trace,
    workloads: (map(.workloads) | ordered_keys | map(. as $w
      | ($runs | map(.workloads[$w] // empty)) as $ws
      | { key: $w,
          value: { seeds: ($ws | map(.seeds) | add), failed: ($ws | map(.failed) | add),
                   metrics: ($ws | map(.metrics) | ordered_keys | map(. as $m
                     | ($ws | map(.metrics[$m].values // []) | add) as $v
                     | { key: $m,
                         value: { values: $v, median: ($v | median),
                                  q1: ($v | quartile(1)), q3: ($v | quartile(3)),
                                  min: ($v | min), max: ($v | max) } })
                     | from_entries) } }) | from_entries) }'
for side in base head; do
  jq -s "$merge" "$out/runs/$side"-*.json > "$out/$side.json"
done

status=0
(cd "$head" && _build/default/perfbench/workloads.exe compare "$out/base.json" "$out/head.json") \
  | tee "$out/compare.txt" || status=1
if ! jq -e 'all(.workloads[]; .failed == 0)' "$out/head.json" >/dev/null; then
  echo "perf-ab: the head side counts failed checks" >&2
  status=1
fi
exit "$status"
