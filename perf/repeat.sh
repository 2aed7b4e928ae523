#!/usr/bin/env bash
# Runs N sets of every workload, each set with another seed, and then
# prints the spread of every (metric, workload) pair against its bound.
#
#   perf/repeat.sh N [DIR] [TRACE]
#
# Set i runs every workload once with --seed i. Results go to
# DIR/set-<i>.jsonl (default DIR: perf/out/repeat), one line per run:
# the workload, the seed and the run's result. TRACE=1 runs the traced
# (per-layer) runs instead.
set -euo pipefail
cd "$(dirname "$0")/.."

n=${1:?usage: perf/repeat.sh N [DIR] [TRACE]}
dir=${2:-perf/out/repeat}
trace=${3:-0}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
mapfile -t cmd < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

mkdir -p "$dir"
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml
for i in $(seq 1 "$n"); do
    : >"$dir/set-$i.jsonl"
    for workload in $workloads; do
        result=$("${cmd[@]}" --workload "$workload" --seed "$i" --seconds "$seconds" --trace "$trace" | tail -n 1)
        printf '{"workload": "%s", "seed": %d, "result": %s}\n' "$workload" "$i" "$result" >>"$dir/set-$i.jsonl"
    done
    echo "set $i of $n done" >&2
done
python3 perf/spread.py "$dir"
