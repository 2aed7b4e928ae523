//! `dist_ps`: the distributed round.
//!
//! A `Coordinator` on `127.0.0.1:0` plus 2 `run_worker` threads in the
//! parameter-server topology, payload mode, no faults. MLP
//! 256→[1024,256]→16 (530k parameters), SMA k = 2, b = 8, 2 epochs (250
//! rounds of about 40 ms). Each round moves about 8.6 MB through
//! `Msg::encode` → `wire` framing (FNV-1a) → TCP → decode, so `comms`
//! does about 90% of the work. It drives the *same* `sync` loop as
//! `train_smallbatch`, through a remote `GradientSource`.

use super::{report_mlp_step, scaled, StepStats, TrainerBreakdown, WINDOW_NS};
use crate::catalog::Workload;
use crate::harness::{
    self, overhead_share, timed_setups, Checks, EndToEndValues, LayerValues, Metrics, Outcome,
};
use crate::replay;
use crate::stats;
use crate::wrappers::{TimedAlgo, TimedSource};
use crossbow::comms::{
    checksum_params, run_worker, Coordinator, DistConfig, DistReport, Topology, WorkerConfig,
};
use crossbow::data::synth::gaussian_mixture;
use crossbow::data::Dataset;
use crossbow::nn::{zoo, Network};
use crossbow::sync::{self, LrSchedule, Sma, SmaConfig, TrainerConfig, TrainingCurve};
use crossbow::telemetry::Telemetry;
use crossbow::tensor::Rng;

const DIM: usize = 256;
const HIDDEN: [usize; 2] = [1024, 256];
const CLASSES: usize = 16;
const TRAIN_SAMPLES: usize = 2_000;
const TEST_SAMPLES: usize = 400;
const WORKERS: usize = 2;
const BATCH: usize = 8;
const EPOCHS: usize = 2;
const SPREAD: f32 = 3.0;
const LR: f32 = 0.05;

struct Inputs {
    net: Network,
    train: Dataset,
    test: Dataset,
}

fn build(seed: u64, train_n: usize, test_n: usize) -> Inputs {
    let data = gaussian_mixture(CLASSES, DIM, train_n + test_n, SPREAD, seed);
    let (train, test) = data.split_at(train_n).expect("split inside the set");
    Inputs {
        net: zoo::mlp(DIM, &HIDDEN, CLASSES),
        train,
        test,
    }
}

fn trainer_config(seed: u64) -> TrainerConfig {
    TrainerConfig::new(BATCH, EPOCHS)
        .with_seed(seed)
        .with_schedule(LrSchedule::Constant { lr: LR })
}

fn fresh_algo(net: &Network, seed: u64) -> Sma {
    Sma::new(
        net.init_params(&mut Rng::new(seed ^ 0xD157)),
        WORKERS,
        SmaConfig::default(),
    )
}

struct Trained {
    report: DistReport,
    step_starts: Vec<u64>,
    wall_ns: u64,
    /// Rounds each worker served, or its terminal error.
    worker_rounds: Vec<Result<u64, String>>,
}

fn train(inputs: &Inputs, seed: u64, telemetry: &Telemetry) -> Trained {
    let recorder = &telemetry.recorder;
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        DistConfig::new(Topology::Ps, WORKERS),
        telemetry.clone(),
    )
    .expect("bind a loopback port");
    let addr = coordinator
        .local_addr()
        .expect("bound listener has an address")
        .to_string();
    let mut sma = fresh_algo(&inputs.net, seed);
    let config = trainer_config(seed).with_telemetry(telemetry.clone());
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    // Workers record on a sink of their own: they stand for
                    // other processes, whose spans the coordinator's trace
                    // would not hold.
                    run_worker(
                        &inputs.net,
                        &WorkerConfig::new(addr),
                        &Telemetry::disabled(),
                        &|_| {},
                    )
                })
            })
            .collect();
        let source = TimedSource::new(&inputs.train, recorder);
        let mut algo = TimedAlgo::new(&mut sma, recorder);
        let start = recorder.now_ns();
        let report = coordinator.run(&inputs.net, &source, &inputs.test, &mut algo, &config);
        let wall_ns = recorder.now_ns() - start;
        let worker_rounds = workers
            .into_iter()
            .map(|w| match w.join() {
                Ok(Ok(outcome)) => Ok(outcome.rounds),
                Ok(Err(e)) => Err(e.to_string()),
                Err(_) => Err("worker thread panicked".into()),
            })
            .collect();
        Trained {
            report,
            step_starts: algo.step_starts(),
            wall_ns,
            worker_rounds,
        }
    })
}

/// The single-process run of the same configuration: the reference the
/// distributed curve and model must equal bit for bit.
fn reference(inputs: &Inputs, seed: u64) -> (TrainingCurve, u64) {
    let mut sma = fresh_algo(&inputs.net, seed);
    let curve = sync::train(
        &inputs.net,
        &inputs.train,
        &inputs.test,
        &mut sma,
        &trainer_config(seed),
    );
    (curve, checksum_params(sync::SyncAlgorithm::consensus(&sma)))
}

fn check_run(inputs: &Inputs, run: &Trained, seed: u64, checks: &mut Checks) {
    let (curve, checksum) = reference(inputs, seed);
    checks.require(run.report.curve == curve, || {
        format!(
            "distributed curve differs from single-process: {:?} vs {curve:?}",
            run.report.curve
        )
    });
    checks.require(run.report.model_checksum == checksum, || {
        format!(
            "distributed model checksum {:#x} differs from single-process {checksum:#x}",
            run.report.model_checksum
        )
    });
    let c = run.report.counters;
    checks.require(c.retries == 0 && c.evictions == 0 && c.rejoins == 0, || {
        format!("a fault-free run saw {c:?}")
    });
    checks.require(run.report.workers == WORKERS, || {
        format!(
            "{} of {WORKERS} workers alive at the end",
            run.report.workers
        )
    });
    let clean = run
        .worker_rounds
        .iter()
        .all(|r| matches!(r, Ok(n) if *n == run.report.curve.iterations));
    checks.require(clean, || {
        format!(
            "workers did not shut down cleanly after {} rounds each: {:?}",
            run.report.curve.iterations, run.worker_rounds
        )
    });
}

/// Rounds the cluster ran: kept steps plus every re-issued, evicted or
/// rolled-back one.
fn rounds_run(report: &DistReport) -> u64 {
    report.curve.iterations + failed(report)
}

fn failed(report: &DistReport) -> u64 {
    report.counters.retries + report.counters.evictions + u64::from(report.curve.rollbacks)
}

fn sizes(scale: f64) -> (usize, usize) {
    (
        scaled(TRAIN_SAMPLES, scale, WORKERS * BATCH),
        scaled(TEST_SAMPLES, scale, 1),
    )
}

pub fn run(seed: u64, scale: f64, trace: bool, checks: &mut Checks) -> Outcome {
    if trace {
        return traced(seed, scale, checks);
    }
    let (train_n, test_n) = sizes(scale);
    let (inputs, setup_s) = timed_setups(|| build(seed, train_n, test_n));
    let run = train(&inputs, seed, &Telemetry::disabled());
    check_run(&inputs, &run, seed, checks);
    let steps = StepStats::new(&run.step_starts);
    Outcome {
        attempted: rounds_run(&run.report),
        failed: failed(&run.report),
        metrics: Metrics::EndToEnd(EndToEndValues {
            samples_per_s: steps.steps_per_s * (WORKERS * BATCH) as f64,
            op_ms_p50: steps.gap_ms_p50,
            // p90, not p95: a 2 s window holds 50 rounds, and a 2–5%
            // population of slow rounds makes p95 flip between two modes.
            op_ms_tail: stats::best_windowed_percentile(&steps.gaps, 2 * WINDOW_NS, 0.90),
            accuracy: run.report.curve.final_accuracy,
            goodput_ratio: run.report.curve.iterations as f64 / rounds_run(&run.report) as f64,
            setup_s,
            peak_rss_mb: harness::peak_rss_mb(),
        }),
    }
}

fn traced(seed: u64, scale: f64, checks: &mut Checks) -> Outcome {
    let (train_n, test_n) = sizes(scale);
    let inputs = build(seed, train_n, test_n);
    let off = train(&inputs, seed, &Telemetry::disabled());
    let telemetry = Telemetry::wall();
    let on = train(&inputs, seed, &telemetry);
    check_run(&inputs, &on, seed, checks);
    checks.require(off.report.curve == on.report.curve, || {
        format!(
            "traced and untraced curves differ: {:?} vs {:?}",
            on.report.curve, off.report.curve
        )
    });
    let timeline = telemetry.recorder.timeline();
    let mut out = LayerValues::default();
    let step_us = report_mlp_step(&inputs.net, BATCH, seed, &mut out);
    let breakdown = TrainerBreakdown::new(&timeline, on.wall_ns);
    breakdown.report(step_us, 0, &mut out);

    // Bytes per round are computed from the round's framed messages, so
    // they repeat exactly; the socket totals of `DistReport` (which also
    // hold the admission state and timing-dependent heartbeats) must
    // agree with them.
    let msgs = replay::RoundMessages::new(inputs.net.param_len(), BATCH, DIM, seed);
    let bytes_per_round = WORKERS as u64 * msgs.framed_bytes();
    let rounds = on.report.curve.iterations;
    let on_wire = on.report.bytes_sent + on.report.bytes_recv;
    let expected = bytes_per_round * rounds;
    // The once-per-worker Welcome carries a whole encoded training state
    // (four model copies); beyond it the overhead is heartbeats.
    let slack = WORKERS as u64 * 5 * (inputs.net.param_len() as u64 * 4) + (1 << 20);
    checks.require(on_wire >= expected && on_wire <= expected + slack, || {
        format!(
            "DistReport counts {on_wire} bytes on the wire; {rounds} rounds of {bytes_per_round} \
             computed bytes explain {expected} (+ at most {slack} of admission and heartbeats)"
        )
    });
    out.set("comms.bytes_per_round", bytes_per_round as f64);
    let round_ms: Vec<f64> = breakdown.round_us.iter().map(|us| us / 1e3).collect();
    let round_p50 = stats::percentile(&round_ms, 0.50);
    out.set("comms.round_ms_p50", round_p50);
    out.set("comms.round_ms_p99", stats::percentile(&round_ms, 0.99));
    // The two workers compute in parallel, so one replayed step is the
    // round's useful math; the rest is the wire and waiting on it.
    out.set(
        "comms.wire_wait_share",
        (1.0 - step_us / 1e3 / round_p50.max(1e-9)).max(0.0),
    );
    let (encode, decode) = replay::codec_rates(&msgs, checks);
    out.set("comms.encode_mb_per_s", encode);
    out.set("comms.decode_mb_per_s", decode);
    match replay::loopback_mb_per_s(bytes_per_round as usize) {
        Ok(rate) => out.set("comms.loopback_mb_per_s", rate),
        Err(e) => checks.require(false, || format!("loopback TCP replay failed: {e}")),
    }
    out.set("comms.retries", on.report.counters.retries as f64);
    out.set("comms.evictions", on.report.counters.evictions as f64);
    out.set(
        "telemetry.trace_overhead_share",
        overhead_share(off.wall_ns as f64, on.wall_ns as f64),
    );
    out.set(
        "telemetry.spans_recorded",
        harness::write_and_verify_trace(Workload::DistPs, &timeline, checks) as f64,
    );
    out.set(
        "telemetry.hist_p99_rel_err",
        replay::hist_p99_rel_err(&StepStats::new(&on.step_starts).gap_values()),
    );
    Outcome {
        attempted: rounds_run(&off.report) + rounds_run(&on.report),
        failed: failed(&off.report) + failed(&on.report),
        metrics: Metrics::PerLayer(out),
    }
}
