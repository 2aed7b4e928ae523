#!/usr/bin/env bash
# Local CI: the checks a change must pass before merging.
#
#   ./ci.sh
#
# Runs entirely offline — the workspace has no registry dependencies.
# The paper ledger (crates/bench) is a workspace member, so the clippy
# step below type-checks every figure harness too; one figure also runs.
set -euo pipefail
cd "$(dirname "$0")"

echo "== format =="
cargo fmt --check

echo "== workspace size (informational, never a gate) =="
# Non-blank, non-comment lines of non-test code under crates/, the
# measure of ROADMAP needle 2's "smaller workspace" target.
scripts/loc.sh || echo "scripts/loc.sh failed; informational only"

echo "== build (release) =="
cargo build --release

echo "== build (release, examples) =="
cargo build --release --examples

echo "== quickstart (the README's first command) =="
# The seeded session must reach its accuracy target: it prints its
# time-to-accuracy only when it did. (No `grep -q`: grep must read to the
# end, or the example's last lines would hit a closed pipe.)
./target/release/examples/quickstart | grep "time-to-accuracy"

echo "== tests (wall-clock bounded) =="
# Checkpoint writers and other helper threads are joined before their
# entry points return; a join that never returns must fail CI instead of
# wedging it. `--no-fail-fast` runs every test binary even after one
# fails, so a flaky binary hides no later result (the step still fails).
timeout 900 cargo test -q --no-fail-fast

echo "== numeric suites on each forced GEMM tier (wall-clock bounded) =="
# Detection picks the fastest tier the CPU supports, so without these
# runs an AVX-512 host exercises the scalar and AVX2 packers and
# micro-kernels only inside `with_kernel` unit tests, never under a whole
# network. (An override the CPU cannot run falls back to detection.)
CROSSBOW_GEMM_KERNEL=scalar timeout 300 cargo test -q -p crossbow-tensor -p crossbow-nn
CROSSBOW_GEMM_KERNEL=avx2 timeout 300 cargo test -q -p crossbow-tensor -p crossbow-nn

echo "== distributed socket tests (wall-clock bounded) =="
# The multi-process crash-recovery suite talks over real TCP sockets and
# SIGKILLs worker processes; a wedged accept or a leaked child must be
# killed by a wall-clock bound, never allowed to hang CI. Every listener
# binds port 0 (OS-assigned), so parallel CI runs cannot collide.
timeout 300 cargo test -q -p crossbow --test dist_train
# The chaos suite spawns the real `crossbow chaos` binary over real
# sockets, so it gets the same bound.
timeout 300 cargo test -q -p crossbow --test chaos

echo "== chaos scenarios (seeded, wall-clock bounded) =="
# Replay two named chaos scenarios end to end through the real CLI: a
# SIGKILL of the primary coordinator with a warm-standby takeover, and a
# cascade across all three fault-injector families. Both are pure
# functions of --seed, every listener binds port 0, and the wall-clock
# bound reaps any wedged child. The grep asserts the machine-readable
# verdict, not just the exit code.
CHAOS_LOG=$(mktemp)
timeout 300 ./target/release/crossbow chaos --scenario kill-primary --seed 7 | tee "$CHAOS_LOG"
grep -q "CHAOS-REPORT scenario=kill-primary seed=7 .* pass=true" "$CHAOS_LOG"
timeout 300 ./target/release/crossbow chaos --scenario cascade --seed 7 | tee "$CHAOS_LOG"
grep -q "CHAOS-REPORT scenario=cascade seed=7 .* pass=true" "$CHAOS_LOG"
rm -f "$CHAOS_LOG"

echo "== fleet serving smoke (seeded, wall-clock bounded) =="
# Drive the multi-model serving fleet through the real CLI: an
# open-loop flood with mixed-priority closed streams, a canary staged
# and promoted mid-run, a shadow mirror, and manual autoscaler probes.
# The binary exits non-zero unless every admitted request was answered,
# per-client versions stayed monotone, the canary served, the promotion
# was observed, and the pools scaled both ways; the grep asserts the
# machine-readable verdict, not just the exit code.
FLEET_LOG=$(mktemp)
timeout 120 ./target/release/crossbow fleet --seed 7 | tee "$FLEET_LOG"
grep -q "FLEET-REPORT pass=true" "$FLEET_LOG"
# Same drill with an int8 canary: the candidate is quantized from the
# primary, staged with its measured accuracy delta, and the promoted
# primary must keep the precision label and delta (precision_ok).
timeout 120 ./target/release/crossbow fleet --seed 7 --precision int8 | tee "$FLEET_LOG"
grep -q "FLEET-REPORT pass=true .*precision=int8 precision_ok=true" "$FLEET_LOG"
rm -f "$FLEET_LOG"

echo "== train-and-serve smoke (seeded, wall-clock bounded) =="
# A one-model fleet serving a model while it trains; the binary exits
# non-zero when a request fails or is lost or a closed client sees a
# snapshot version regress.
timeout 120 ./target/release/crossbow serve --seed 7 --epochs 1

echo "== benchmark smoke (perf/check.sh --smoke) =="
# Every benchmark workload at 1/16 size, untraced and traced, with its
# correctness checks: bit-identical dist training, flat arenas, served
# classes equal to offline predictions, versions never going backwards,
# every request accounted for. Then the result lines are validated
# against BENCHMARK.json.
timeout 600 perf/check.sh --smoke

echo "== benchmark harness unit tests =="
# The harness's own tests: percentile and best-window statistics, layer
# shares that sum to one, the seeded load schedule, the CLI and result
# line contract, and that BENCHMARK.json is the catalogue it renders.
cargo test --release --offline --manifest-path perf/Cargo.toml

echo "== trace validity =="
# A short traced run must emit parseable Chrome Trace JSON holding the
# learning, local-sync and global-sync spans (the --check mode of the
# trace_tour example parses it back with the in-repo JSON parser).
TRACE_DIR=$(mktemp -d)
./target/release/crossbow train --model lenet --gpus 2 --learners 2 \
    --epochs 1 --trace "$TRACE_DIR/train.json" > /dev/null
cargo run --release -q -p crossbow --example trace_tour -- --check "$TRACE_DIR/train.json"
rm -rf "$TRACE_DIR"

echo "== data plane (pack/verify round trip, wall-clock bounded) =="
# Pack a small synthetic dataset into shards through the real CLI, then
# re-validate every header, page and index checksum. `verify` exits
# non-zero on any corrupt shard; the greps assert the machine-readable
# markers. (The corruption matrix and disk/RAM bit-identity are covered
# by `cargo test` above.)
DATA_DIR=$(mktemp -d)
timeout 120 ./target/release/crossbow data pack --dir "$DATA_DIR/shards" \
    --samples 1024 --samples-per-shard 256 | grep -q "PACKED .* shards=4 samples=1024"
timeout 120 ./target/release/crossbow data verify --dir "$DATA_DIR/shards" \
    | grep -q "VERIFIED valid=4 corrupt=0"
rm -rf "$DATA_DIR"

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== paper ledger figure (quick mode, wall-clock bounded) =="
# Clippy only type-checks the figure harnesses; run one end to end so a
# harness that builds but panics (a stale config literal, a changed
# default) fails CI. Figure 3 drives the synchronous trainer across
# batch sizes; quick mode shrinks it to fit the CI budget.
CROSSBOW_BENCH_QUICK=1 timeout 300 cargo bench --offline -q -p crossbow-bench --bench fig03_stat_efficiency

echo "== docs (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== ci: all green =="
