#!/usr/bin/env bash
# Runs every workload untraced and traced with all its correctness
# checks, and validates each result line against BENCHMARK.json; then the
# contract's bare-directory case. Ready to be called from ci.sh.
#
#   perf/check.sh --smoke   1/16 size (--seconds 1), under 60 s in total
#   perf/check.sh           full size (--seconds from BENCHMARK.json)
set -euo pipefail
cd "$(dirname "$0")/.."

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
if [ "${1:-}" = "--smoke" ]; then
    seconds=1
elif [ $# -gt 0 ]; then
    echo "usage: perf/check.sh [--smoke]" >&2
    exit 2
fi
mapfile -t cmd < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

python3 perf/validate.py BENCHMARK.json
# Build once, outside the timed part, so a compile error reads as one.
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml

started=$SECONDS
for workload in $workloads; do
    for trace in 0 1; do
        out=$("${cmd[@]}" --workload "$workload" --seed 1 --seconds "$seconds" --trace "$trace")
        printf '%s\n' "$out" | python3 perf/validate.py BENCHMARK.json "$trace"
        echo "ok  $workload --trace $trace"
    done
done
echo "all workloads: $((SECONDS - started)) s"

# The contract's bare-directory case: with only BENCHMARK.json and perf/
# present the program cannot be built, so the command must fail without
# printing a result line.
bare=perf/out/bare-$$
rm -rf "$bare"
mkdir -p "$bare/perf"
cp BENCHMARK.json "$bare/"
(cd perf && find . -path ./target -prune -o -path ./out -prune -o -type f -print0) |
    (cd perf && xargs -0 cp --parents -t "../$bare/perf")
set +e
bare_out=$(cd "$bare" && CARGO_TARGET_DIR=.bench_build "${cmd[@]}" \
    --workload "${workloads%% *}" --seed 1 --seconds 1 --trace 0 2>/dev/null)
status=$?
set -e
rm -rf "$bare"
if [ "$status" -eq 0 ] || printf '%s' "$bare_out" | grep -q '"metrics"'; then
    echo "FAILED: the bare directory run exited $status and printed: $bare_out" >&2
    exit 1
fi
echo "ok  bare directory refused (exit $status, no result line)"
