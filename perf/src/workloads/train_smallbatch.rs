//! `train_smallbatch`: the paper's "however small" regime.
//!
//! An MLP 256→[256,256]→10 trained with SMA, k = 2 learners at b = 2,
//! from an mmap-backed shard set, with a durable checkpoint every 25
//! steps, for one epoch. Gradient math is about a fifth of the wall; the
//! step driver (per-round `thread::scope`, gather, SMA `step`, state
//! capture + fsync) does the rest, so a faster `tensor` should *not*
//! show here, while `sync`, `checkpoint` and `data` changes should.

use super::{report_mlp_step, scaled, StepStats, TrainerBreakdown, WINDOW_NS};
use crate::catalog::Workload;
use crate::harness::{
    self, overhead_share, timed_setups, Checks, EndToEndValues, LayerValues, Metrics, Outcome,
};
use crate::replay;
use crate::stats;
use crate::wrappers::{TimedAlgo, TimedGradients, TimedSource};
use crossbow::data::synth::gaussian_mixture;
use crossbow::data::{Dataset, PartitionPlan, SampleSource};
use crossbow::nn::{zoo, Network};
use crossbow::shard::{pack_source, PackConfig, ShardedDataset};
use crossbow::sync::{
    train_with_source, CheckpointConfig, LocalGradients, LrSchedule, Sma, SmaConfig, TrainerConfig,
    TrainingCurve,
};
use crossbow::telemetry::Telemetry;
use crossbow::tensor::Rng;
use std::path::{Path, PathBuf};
use std::time::Instant;

const DIM: usize = 256;
const HIDDEN: [usize; 2] = [256, 256];
const CLASSES: usize = 10;
/// 31.6k × (256 × 4 + label) bytes is 32.5 MB of shards on disk.
const TRAIN_SAMPLES: usize = 31_600;
const TEST_SAMPLES: usize = 4_400;
const LEARNERS: usize = 2;
const BATCH: usize = 2;
const CHECKPOINT_EVERY: u64 = 25;
/// Wide enough clusters that one noisy small-batch epoch does not reach
/// 100%: the accuracy metric can then move in both directions.
const SPREAD: f32 = 6.0;
const LR: f32 = 0.01;

struct Inputs {
    net: Network,
    train: Dataset,
    test: Dataset,
    shards: ShardedDataset,
    pack_mb_per_s: f64,
    open_ms: f64,
}

/// Generates the mixture, packs the training split into shards under
/// `dir/shards` and opens it back (validating every page).
fn build(seed: u64, train_n: usize, test_n: usize, dir: &Path) -> Inputs {
    let data = gaussian_mixture(CLASSES, DIM, train_n + test_n, SPREAD, seed);
    let (train, test) = data.split_at(train_n).expect("split inside the set");
    let shard_dir = dir.join("shards");
    let _ = std::fs::remove_dir_all(&shard_dir);
    std::fs::create_dir_all(&shard_dir).expect("scratch directory is writable");
    let t = Instant::now();
    let report = pack_source(&shard_dir, &train, PackConfig::default()).expect("pack shards");
    let pack_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let shards = ShardedDataset::open(&shard_dir).expect("open shards");
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    Inputs {
        net: zoo::mlp(DIM, &HIDDEN, CLASSES),
        train,
        test,
        shards,
        pack_mb_per_s: report.bytes as f64 / 1e6 / pack_s.max(1e-9),
        open_ms,
    }
}

struct Trained {
    curve: TrainingCurve,
    step_starts: Vec<u64>,
    rounds: u64,
    wall_ns: u64,
    checkpoint_dir: PathBuf,
    checkpoint_bytes: u64,
}

fn train(inputs: &Inputs, seed: u64, checkpoint_dir: PathBuf, telemetry: &Telemetry) -> Trained {
    let recorder = &telemetry.recorder;
    let init = inputs.net.init_params(&mut Rng::new(seed ^ 0x1217));
    let mut sma = Sma::new(init, LEARNERS, SmaConfig::default());
    let config = TrainerConfig::new(BATCH, 1)
        .with_seed(seed)
        .with_schedule(LrSchedule::Constant { lr: LR })
        .with_partition(PartitionPlan::even(inputs.shards.len(), LEARNERS))
        .with_checkpointing(CheckpointConfig::new(&checkpoint_dir).every(CHECKPOINT_EVERY))
        .with_telemetry(telemetry.clone());
    let mut gradients = TimedGradients::new(
        LocalGradients::new(&inputs.net, LEARNERS, &config),
        recorder,
    );
    let source = TimedSource::new(&inputs.shards, recorder);
    let mut algo = TimedAlgo::new(&mut sma, recorder);
    let start = recorder.now_ns();
    let curve = train_with_source(
        &inputs.net,
        &source,
        &inputs.test,
        &mut algo,
        &config,
        &mut gradients,
    );
    let wall_ns = recorder.now_ns() - start;
    Trained {
        curve,
        step_starts: algo.step_starts(),
        rounds: gradients.rounds,
        wall_ns,
        checkpoint_dir,
        checkpoint_bytes: telemetry.metrics.counter("checkpoint.bytes").get(),
    }
    // The wrappers drop here and flush their spans into the recorder.
}

fn check_run(inputs: &Inputs, run: &Trained, seed: u64, checks: &mut Checks) {
    // One epoch, plus the round whose draw crosses the epoch boundary.
    let expected = (inputs.shards.len() / (LEARNERS * BATCH)) as u64 + 1;
    checks.require(
        run.curve.iterations == expected && run.rounds == expected && run.curve.rollbacks == 0,
        || {
            format!(
                "expected {expected} kept steps; ran {} rounds, kept {}, {} rollbacks",
                run.rounds, run.curve.iterations, run.curve.rollbacks
            )
        },
    );
    // The newest durable checkpoint must be the last step: a crash after
    // the run loses nothing.
    let newest = CheckpointConfig::new(&run.checkpoint_dir)
        .store()
        .and_then(|s| s.load_latest())
        .map(|l| l.map(|l| l.state.iterations));
    checks.require(
        matches!(newest, Ok(Some(i)) if i == run.curve.iterations),
        || {
            format!(
                "newest durable checkpoint is {newest:?}, the run ended at step {}",
                run.curve.iterations
            )
        },
    );
    // RAM and mmap must serve the same bits.
    checks.require(inputs.shards.skipped().is_empty(), || {
        format!("{} shards failed validation", inputs.shards.skipped().len())
    });
    let mut rng = Rng::new(seed ^ 0x6A7);
    for _ in 0..64 {
        let idx: Vec<usize> = (0..32).map(|_| rng.below(inputs.train.len())).collect();
        let (ram, ram_labels) = inputs.train.gather(&idx).expect("indices in range");
        let (disk, disk_labels) = inputs.shards.gather(&idx).expect("indices in range");
        let same = ram_labels == disk_labels
            && ram.shape() == disk.shape()
            && ram
                .data()
                .iter()
                .zip(disk.data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        checks.require(same, || {
            format!("mmap gather differs from RAM gather at {idx:?}")
        });
        if !same {
            break;
        }
    }
}

pub fn run(seed: u64, scale: f64, trace: bool, dir: &Path, checks: &mut Checks) -> Outcome {
    let unit = LEARNERS * BATCH;
    if trace {
        return traced(seed, scale, dir, checks);
    }
    let (train_n, test_n) = (
        scaled(TRAIN_SAMPLES, scale, unit),
        scaled(TEST_SAMPLES, scale, 1),
    );
    let (inputs, setup_s) = timed_setups(|| build(seed, train_n, test_n, dir));
    let run = train(
        &inputs,
        seed,
        dir.join("checkpoints"),
        &Telemetry::disabled(),
    );
    check_run(&inputs, &run, seed, checks);
    let steps = StepStats::new(&run.step_starts);
    Outcome {
        attempted: run.rounds,
        failed: run.rounds - run.curve.iterations + u64::from(run.curve.rollbacks),
        metrics: Metrics::EndToEnd(EndToEndValues {
            samples_per_s: steps.steps_per_s * unit as f64,
            op_ms_p50: steps.gap_ms_p50,
            // Lands on the checkpoint steps (one in 25).
            op_ms_tail: stats::best_windowed_percentile(&steps.gaps, 2 * WINDOW_NS, 0.99),
            accuracy: run.curve.final_accuracy,
            goodput_ratio: run.curve.iterations as f64 / run.rounds.max(1) as f64,
            setup_s,
            peak_rss_mb: harness::peak_rss_mb(),
        }),
    }
}

fn traced(seed: u64, scale: f64, dir: &Path, checks: &mut Checks) -> Outcome {
    let unit = LEARNERS * BATCH;
    let inputs = build(
        seed,
        scaled(TRAIN_SAMPLES, scale, unit),
        scaled(TEST_SAMPLES, scale, 1),
        dir,
    );
    let off = train(
        &inputs,
        seed,
        dir.join("checkpoints-off"),
        &Telemetry::disabled(),
    );
    let telemetry = Telemetry::wall();
    let on = train(&inputs, seed, dir.join("checkpoints-on"), &telemetry);
    check_run(&inputs, &on, seed, checks);
    checks.require(off.curve == on.curve, || {
        format!(
            "traced and untraced curves differ: {:?} vs {:?}",
            on.curve, off.curve
        )
    });
    let timeline = telemetry.recorder.timeline();
    let mut out = LayerValues::default();
    let step_us = report_mlp_step(&inputs.net, BATCH, seed, &mut out);
    TrainerBreakdown::new(&timeline, on.wall_ns).report(step_us, on.checkpoint_bytes, &mut out);
    out.set(
        "data.gather_ram_samples_per_s",
        replay::gather_rate(&inputs.train, BATCH, seed),
    );
    out.set(
        "shard.gather_mmap_samples_per_s",
        replay::gather_rate(&inputs.shards, BATCH, seed),
    );
    out.set("shard.pack_mb_per_s", inputs.pack_mb_per_s);
    out.set("shard.open_verify_ms", inputs.open_ms);
    out.set(
        "telemetry.trace_overhead_share",
        overhead_share(off.wall_ns as f64, on.wall_ns as f64),
    );
    out.set(
        "telemetry.spans_recorded",
        harness::write_and_verify_trace(Workload::TrainSmallbatch, &timeline, checks) as f64,
    );
    out.set(
        "telemetry.hist_p99_rel_err",
        replay::hist_p99_rel_err(&StepStats::new(&on.step_starts).gap_values()),
    );
    Outcome {
        attempted: off.rounds + on.rounds,
        failed: off.rounds + on.rounds - off.curve.iterations - on.curve.iterations,
        metrics: Metrics::PerLayer(out),
    }
}
