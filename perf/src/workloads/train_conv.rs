//! `train_conv`: the paper's headline configuration.
//!
//! `Benchmark::resnet32()`'s network (44.5k parameters) on its RAM
//! dataset (2000 train / 400 test, 30% label noise), trained by the
//! concurrent task engine of §4 (`exec_cpu::train_concurrent`) with 2
//! learners at b = 16 and lr 0.2: one warm-up epoch, then 9 measured
//! epochs (567 global steps). im2col + GEMM (`tensor`) and `nn` do at
//! least 85% of the work; `data`, `sync`, `checkpoint` and `comms`
//! almost none.
//!
//! `train_concurrent` has no per-step hook with tracing off, so both
//! `op_ms_p50` and `op_ms_tail` are the mean global-step time; the
//! traced run gives `core.step_ms_p50`/`p99` from the engine's spans.
//!
//! `peak_rss_mb` is read after the set-ups and the warm-up epoch (data
//! set, replicas, scratch, one evaluation), not after the measured
//! epochs. A learner takes its next correction buffer with `try_recv`
//! and allocates a fresh one (178 KB) whenever the manager has not yet
//! handed one back, and none is freed before the call returns: over 567
//! steps that adds 10 to 20 MB to a 36 MB process, by how the threads
//! happened to interleave. A number that wanders by a third of itself
//! on one commit bounds nothing, so the growth is named here and left
//! out.

use super::{report_step, scaled};
use crate::catalog::Workload;
use crate::harness::{
    self, overhead_share, timed_setups, Checks, EndToEndValues, LayerValues, Metrics, Outcome,
};
use crate::replay;
use crate::stats;
use crossbow::data::Dataset;
use crossbow::nn::Network;
use crossbow::telemetry::{Span, SpanKind, Telemetry, Timeline};
use crossbow::{train_concurrent, Benchmark, CpuEngineConfig, CpuEngineReport};

const LEARNERS: usize = 2;
const BATCH: usize = 16;
const MEASURED_EPOCHS: usize = 9;
/// Median-of-5 test accuracy that counts as "trained" for
/// `core.epochs_to_target`; with `samples_per_s` it gives TTA. Seeds 1–5
/// reach it in 2 to 4 epochs, inside the 4 epochs of the traced part.
const TARGET_ACCURACY: f64 = 0.65;

struct Inputs {
    bench: Benchmark,
    net: Network,
    train: Dataset,
    test: Dataset,
}

fn build(seed: u64) -> Inputs {
    let bench = Benchmark::resnet32();
    let (train, test) = bench.dataset(seed);
    Inputs {
        bench,
        net: bench.network(),
        train,
        test,
    }
}

struct Trained {
    report: CpuEngineReport,
    arena_allocs: u64,
    wall_s: f64,
}

fn train(inputs: &Inputs, seed: u64, epochs: usize, telemetry: Telemetry) -> Trained {
    let mut config = CpuEngineConfig::new(LEARNERS, BATCH);
    config.lr = inputs.bench.base_lr;
    config.max_epochs = epochs;
    config.target_accuracy = Some(TARGET_ACCURACY);
    config.seed = seed;
    config.telemetry = Some(telemetry.clone());
    let start = telemetry.recorder.now_ns();
    let report = train_concurrent(&inputs.net, &inputs.train, &inputs.test, &config)
        .expect("no checkpoint directory is configured, so no I/O can fail");
    Trained {
        wall_s: (telemetry.recorder.now_ns() - start) as f64 / 1e9,
        arena_allocs: telemetry.metrics.counter("memory.arena_alloc").get(),
        report,
    }
}

/// Global steps of `epochs` epochs: every learner passes over its share
/// of the batches once per epoch.
fn expected_steps(inputs: &Inputs, epochs: usize) -> u64 {
    (epochs * (inputs.train.len() / BATCH).div_ceil(LEARNERS)) as u64
}

fn check_run(inputs: &Inputs, short: &Trained, long: &Trained, epochs: usize, checks: &mut Checks) {
    let expected = expected_steps(inputs, epochs);
    checks.require(long.report.iterations == expected, || {
        format!(
            "expected {expected} global steps, the engine ran {}",
            long.report.iterations
        )
    });
    // §4.5: arena allocations must not grow with run length.
    checks.require(
        short.arena_allocs > 0 && short.arena_allocs == long.arena_allocs,
        || {
            format!(
                "arena allocations are not flat in run length: {} after {} steps, {} after {}",
                short.arena_allocs,
                short.report.iterations,
                long.arena_allocs,
                long.report.iterations
            )
        },
    );
}

pub fn run(seed: u64, scale: f64, trace: bool, checks: &mut Checks) -> Outcome {
    if trace {
        return traced(seed, scale, checks);
    }
    let epochs = scaled(MEASURED_EPOCHS, scale, 1);
    let (inputs, setup_s) = timed_setups(|| build(seed));
    let warm = train(&inputs, seed, 1, Telemetry::disabled());
    // Read before the measured epochs: see the module comment.
    let peak_rss_mb = harness::peak_rss_mb();
    let run = train(&inputs, seed, epochs, Telemetry::disabled());
    check_run(&inputs, &warm, &run, epochs, checks);
    let step_ms = 1e3 * (LEARNERS * BATCH) as f64 / run.report.throughput;
    Outcome {
        attempted: run.report.iterations,
        failed: 0,
        metrics: Metrics::EndToEnd(EndToEndValues {
            samples_per_s: run.report.throughput,
            op_ms_p50: step_ms,
            op_ms_tail: step_ms,
            accuracy: smoothed_accuracy(&run.report),
            goodput_ratio: run.report.iterations as f64 / expected_steps(&inputs, epochs) as f64,
            setup_s,
            peak_rss_mb,
        }),
    }
}

/// Median held-out accuracy of the last five epochs (of all, when fewer
/// ran): the smoothing the paper's TTA and the engine's own target test
/// use. With 400 test samples and 30% label noise the last epoch alone
/// moves by ±0.05 from one epoch to the next.
fn smoothed_accuracy(report: &CpuEngineReport) -> f64 {
    let epochs = &report.epoch_accuracy;
    stats::median(&epochs[epochs.len().saturating_sub(5)..])
}

fn lane_spans(timeline: &Timeline, lane: u32) -> Vec<&Span> {
    timeline.spans().iter().filter(|s| s.lane == lane).collect()
}

fn kind_ns(spans: &[&Span], kind: SpanKind) -> f64 {
    spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.duration_ns() as f64)
        .sum()
}

/// The engine's lanes from its own spans (the learner loop and the task
/// manager are entered only from inside `train_concurrent`). Learner
/// lanes: learn, local sync, batch fetch and idle shares of the lanes'
/// extents, summing to 1. Manager lane: global sync and eval shares of
/// the run's extent.
fn report_lanes(timeline: &Timeline, out: &mut LayerValues) {
    let (mut learn, mut local, mut fetch, mut extent) = (0.0, 0.0, 0.0, 0.0);
    for lane in 0..LEARNERS as u32 {
        let spans = lane_spans(timeline, lane);
        let start = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let end = spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        extent += (end - start) as f64;
        learn += kind_ns(&spans, SpanKind::Learn);
        local += kind_ns(&spans, SpanKind::LocalSync);
        fetch += kind_ns(&spans, SpanKind::BatchFetch);
    }
    let extent = extent.max(1.0);
    out.set("core.learn_share", learn / extent);
    out.set("core.local_sync_share", local / extent);
    out.set("core.batch_fetch_share", fetch / extent);
    out.set(
        "core.lane_idle_share",
        ((extent - learn - local - fetch) / extent).max(0.0),
    );
    let manager = lane_spans(timeline, LEARNERS as u32);
    let wall = timeline
        .extent_ns()
        .map_or(1.0, |(s, e)| (e - s).max(1) as f64);
    out.set(
        "core.global_sync_share",
        kind_ns(&manager, SpanKind::GlobalSync) / wall,
    );
    out.set("core.eval_share", kind_ns(&manager, SpanKind::Eval) / wall);
    out.set("core.sync_overlap_ratio", timeline.overlap().ratio);
    let sync_ends: Vec<u64> = manager
        .iter()
        .filter(|s| s.kind == SpanKind::GlobalSync)
        .map(|s| s.end_ns)
        .collect();
    let step_ms: Vec<f64> = stats::gaps_ms(&sync_ends).iter().map(|g| g.1).collect();
    out.set("core.step_ms_p50", stats::percentile(&step_ms, 0.50));
    out.set("core.step_ms_p99", stats::percentile(&step_ms, 0.99));
    out.set(
        "telemetry.hist_p99_rel_err",
        replay::hist_p99_rel_err(&step_ms),
    );
}

fn traced(seed: u64, scale: f64, checks: &mut Checks) -> Outcome {
    let epochs = scaled(MEASURED_EPOCHS, scale, 1);
    let inputs = build(seed);
    let warm = train(&inputs, seed, 1, Telemetry::disabled());
    let off = train(&inputs, seed, epochs, Telemetry::disabled());
    let telemetry = Telemetry::wall();
    let on = train(&inputs, seed, epochs, telemetry.clone());
    check_run(&inputs, &warm, &on, epochs, checks);
    checks.require(
        off.report.epoch_accuracy == on.report.epoch_accuracy
            && off.report.iterations == on.report.iterations,
        || {
            format!(
                "traced and untraced accuracy curves differ: {:?} vs {:?}",
                on.report.epoch_accuracy, off.report.epoch_accuracy
            )
        },
    );
    let timeline = telemetry.recorder.timeline();
    let mut out = LayerValues::default();
    report_lanes(&timeline, &mut out);
    // Not reached inside the traced part reads as one epoch past it.
    out.set(
        "core.epochs_to_target",
        on.report.epochs_to_target.unwrap_or(epochs + 1) as f64,
    );

    let spec = inputs.bench.data_spec;
    let (convs, others) = replay::resnet_inventory(2, 8, spec.channels, spec.hw, spec.classes);
    checks.require(
        replay::inventory_params(&convs, &others) == inputs.net.param_len(),
        || {
            format!(
                "the replayed layer inventory has {} parameters, the network {}: the zoo's \
                 ResNet recipe changed under the benchmark",
                replay::inventory_params(&convs, &others),
                inputs.net.param_len()
            )
        },
    );
    let step = replay::train_step(&inputs.net, BATCH, seed);
    let shares = replay::layer_shares(&convs, &others, BATCH, step.loss_and_grad_us, seed);
    report_step(&step, &shares, &mut out);
    let (gemm_gflops, im2col_gb) = replay::conv_kernels(&convs, BATCH, seed);
    out.set("tensor.gemm_conv_gflops", gemm_gflops);
    out.set("tensor.im2col_gb_per_s", im2col_gb);
    out.set(
        "telemetry.trace_overhead_share",
        overhead_share(off.wall_s, on.wall_s),
    );
    out.set(
        "telemetry.spans_recorded",
        harness::write_and_verify_trace(Workload::TrainConv, &timeline, checks) as f64,
    );
    Outcome {
        attempted: off.report.iterations + on.report.iterations,
        failed: 0,
        metrics: Metrics::PerLayer(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbow::telemetry::HOST_DEVICE;

    fn span(kind: SpanKind, lane: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            label: kind.name(),
            start_ns,
            end_ns,
            device: HOST_DEVICE,
            lane,
            iteration: None,
        }
    }

    #[test]
    fn learner_lane_shares_sum_to_one() {
        let manager = LEARNERS as u32;
        let timeline = Timeline::from_spans(vec![
            // Learner 0: 100 ns extent, 10 idle.
            span(SpanKind::BatchFetch, 0, 0, 5),
            span(SpanKind::Learn, 0, 5, 75),
            span(SpanKind::LocalSync, 0, 85, 100),
            // Learner 1: 100 ns extent, no idle.
            span(SpanKind::Learn, 1, 0, 90),
            span(SpanKind::LocalSync, 1, 90, 100),
            // Manager: two syncs 40 ns apart, one eval.
            span(SpanKind::GlobalSync, manager, 50, 60),
            span(SpanKind::GlobalSync, manager, 90, 100),
            span(SpanKind::Eval, manager, 100, 120),
        ]);
        let mut out = LayerValues::default();
        report_lanes(&timeline, &mut out);
        let lanes = [
            "core.learn_share",
            "core.local_sync_share",
            "core.batch_fetch_share",
            "core.lane_idle_share",
        ];
        let sum: f64 = lanes.iter().map(|n| out.get(n)).sum();
        assert!((sum - 1.0).abs() < 1e-12, "{sum}");
        assert_eq!(out.get("core.learn_share"), 0.8);
        assert_eq!(out.get("core.lane_idle_share"), 0.05);
        assert_eq!(out.get("core.global_sync_share"), 20.0 / 120.0);
        assert_eq!(out.get("core.eval_share"), 20.0 / 120.0);
        assert_eq!(out.get("core.step_ms_p50"), 40.0 / 1e6);
    }
}
