//! The five workloads, and what the training ones share.

pub mod dist_ps;
pub mod serve;
pub mod train_conv;
pub mod train_smallbatch;

use crate::catalog::{Workload, RUN_SECONDS};
use crate::cli::RunArgs;
use crate::harness::{Checks, LayerValues, Outcome};
use crate::replay;
use crate::stats;
use crate::wrappers::{GATHER_LABEL, ROUND_LABEL, STEP_LABEL};
use crossbow::nn::Network;
use crossbow::telemetry::{Span, Timeline};
use std::path::Path;

/// Each half of the traced run (tracing off, then on) runs the workload
/// at this share of its full size, so the pair plus the replays fit the
/// time of one untraced run.
const TRACED_PART: f64 = 0.4;

/// Runs one workload as the command line asked.
pub fn run(args: RunArgs, dir: &Path, checks: &mut Checks) -> Outcome {
    let mut scale = f64::from(args.seconds) / f64::from(RUN_SECONDS);
    if args.trace {
        scale *= TRACED_PART;
    }
    match args.workload {
        Workload::TrainConv => train_conv::run(args.seed, scale, args.trace, checks),
        Workload::TrainSmallbatch => {
            train_smallbatch::run(args.seed, scale, args.trace, dir, checks)
        }
        Workload::DistPs => dist_ps::run(args.seed, scale, args.trace, checks),
        Workload::ServeF32 => serve::run(false, args.seed, scale, args.trace, dir, checks),
        Workload::ServeInt8 => serve::run(true, args.seed, scale, args.trace, dir, checks),
    }
}

/// `count` scaled by `scale`, rounded to a multiple of `multiple` and at
/// least one multiple.
pub fn scaled(count: usize, scale: f64, multiple: usize) -> usize {
    let units = (count as f64 * scale / multiple as f64).round() as usize;
    units.max(1) * multiple
}

/// Window of the step statistics; the tails use twice this.
pub const WINDOW_NS: u64 = 1_000_000_000;

/// Throughput and step-gap statistics from the start times of successive
/// `SyncAlgorithm::step` calls.
pub struct StepStats {
    /// Steps/s of the best 1 s window.
    pub steps_per_s: f64,
    /// Median gap between successive steps, ms, of the 1 s window where
    /// it is lowest.
    pub gap_ms_p50: f64,
    /// Every gap with the time it ended, for the workload's tail rule.
    pub gaps: Vec<(u64, f64)>,
}

impl StepStats {
    pub fn new(step_starts: &[u64]) -> Self {
        let gaps = stats::gaps_ms(step_starts);
        StepStats {
            steps_per_s: stats::best_rate_per_s(step_starts, WINDOW_NS),
            gap_ms_p50: stats::best_windowed_percentile(&gaps, WINDOW_NS, 0.50),
            gaps,
        }
    }

    pub fn gap_values(&self) -> Vec<f64> {
        self.gaps.iter().map(|g| g.1).collect()
    }
}

fn durations_us(spans: &[&Span]) -> Vec<f64> {
    spans.iter().map(|s| s.duration_ns() as f64 / 1e3).collect()
}

fn total_ns(spans: &[&Span]) -> f64 {
    spans.iter().map(|s| s.duration_ns() as f64).sum()
}

/// Where the trainer thread's wall went in a traced `sync::train*` run.
///
/// Gather and step come from the benchmark's own wrapper spans. The
/// round comes from the wrapper too where the benchmark owns the
/// gradient source; a distributed run builds its source inside the
/// coordinator, so there the trainer's own `learn` span (which brackets
/// exactly `GradientSource::round`) is read. Evaluation and checkpoint
/// writes are entered only from inside the trainer, so its `eval` and
/// `checkpoint-write` spans are read.
pub struct TrainerBreakdown {
    pub step_us: Vec<f64>,
    pub round_us: Vec<f64>,
    pub save_us: Vec<f64>,
    pub gather_ns: f64,
    pub round_ns: f64,
    pub step_ns: f64,
    pub eval_ns: f64,
    pub save_ns: f64,
    pub wall_ns: f64,
}

impl TrainerBreakdown {
    pub fn new(timeline: &Timeline, wall_ns: u64) -> Self {
        let by_label = |label: &str| -> Vec<&Span> {
            timeline
                .spans()
                .iter()
                .filter(|s| s.label == label)
                .collect()
        };
        let steps = by_label(STEP_LABEL);
        let mut rounds = by_label(ROUND_LABEL);
        if rounds.is_empty() {
            rounds = by_label("learn");
        }
        let gathers = by_label(GATHER_LABEL);
        let evals = by_label("eval");
        let saves = by_label("checkpoint-write");
        TrainerBreakdown {
            step_us: durations_us(&steps),
            round_us: durations_us(&rounds),
            save_us: durations_us(&saves),
            gather_ns: total_ns(&gathers),
            round_ns: total_ns(&rounds),
            step_ns: total_ns(&steps),
            eval_ns: total_ns(&evals),
            save_ns: total_ns(&saves),
            wall_ns: wall_ns.max(1) as f64,
        }
    }

    /// Sets the `data.gather_*`, `sync.*` and `checkpoint.*` metrics. The
    /// six shares of the trainer thread's wall sum to 1.
    pub fn report(&self, loss_and_grad_us: f64, saved_bytes: u64, out: &mut LayerValues) {
        let steps = self.step_us.len().max(1) as f64;
        let named = [
            self.gather_ns,
            self.round_ns,
            self.step_ns,
            self.eval_ns,
            self.save_ns,
        ];
        let other = (self.wall_ns - named.iter().sum::<f64>()).max(0.0);
        let total = named.iter().sum::<f64>() + other;
        let share = |ns: f64| ns / total;
        out.set("data.gather_us_per_step", self.gather_ns / 1e3 / steps);
        out.set("data.gather_share", share(self.gather_ns));
        let round_us = stats::median(&self.round_us);
        out.set("sync.step_us", stats::median(&self.step_us));
        out.set("sync.grad_round_us", round_us);
        out.set("sync.round_overhead_us", round_us - loss_and_grad_us);
        out.set("sync.grad_round_share", share(self.round_ns));
        out.set("sync.step_share", share(self.step_ns));
        out.set("sync.eval_share", share(self.eval_ns));
        out.set("sync.driver_other_share", share(other));
        let saves = self.save_us.len() as f64;
        let save_ms: Vec<f64> = self.save_us.iter().map(|us| us / 1e3).collect();
        out.set("checkpoint.saves", saves);
        out.set(
            "checkpoint.bytes_per_save",
            if saves > 0.0 {
                saved_bytes as f64 / saves
            } else {
                0.0
            },
        );
        out.set("checkpoint.save_ms_p50", stats::percentile(&save_ms, 0.50));
        out.set("checkpoint.save_ms_p99", stats::percentile(&save_ms, 0.99));
        out.set("checkpoint.stall_share", share(self.save_ns));
    }
}

/// Replays one learner's step of an MLP at the workload's batch size and
/// sets the `nn.*` training metrics plus the arena and kernel-tier ones.
/// Returns the replayed `loss_and_grad` median, µs.
pub fn report_mlp_step(net: &Network, batch: usize, seed: u64, out: &mut LayerValues) -> f64 {
    let step = replay::train_step(net, batch, seed);
    let shares = replay::layer_shares(
        &[],
        &replay::flat_inventory(net),
        batch,
        step.loss_and_grad_us,
        seed,
    );
    report_step(&step, &shares, out);
    step.loss_and_grad_us
}

pub fn report_step(step: &replay::StepReplay, shares: &replay::LayerShares, out: &mut LayerValues) {
    out.set("tensor.arena_fresh_allocs", step.fresh_allocs);
    out.set("tensor.kernel_tier", replay::kernel_tier());
    out.set("nn.loss_and_grad_us", step.loss_and_grad_us);
    out.set("nn.fwd_share", step.fwd_share);
    out.set("nn.share_conv", shares.conv);
    out.set("nn.share_norm", shares.norm);
    out.set("nn.share_dense", shares.dense);
    out.set("nn.share_other", shares.other);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbow::telemetry::{SpanKind, HOST_DEVICE};

    fn span(label: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind: SpanKind::Host,
            label,
            start_ns,
            end_ns,
            device: HOST_DEVICE,
            lane: 0,
            iteration: None,
        }
    }

    #[test]
    fn trainer_shares_sum_to_one() {
        let timeline = Timeline::from_spans(vec![
            span(GATHER_LABEL, 0, 10),
            span(ROUND_LABEL, 10, 60),
            span("learn", 10, 60), // ignored: the wrapper's round wins
            span(STEP_LABEL, 60, 80),
            span("eval", 80, 85),
            span("checkpoint-write", 85, 95),
        ]);
        let b = TrainerBreakdown::new(&timeline, 100);
        let mut out = LayerValues::default();
        b.report(30.0 / 1e3, 4096, &mut out);
        let sum: f64 = [
            "data.gather_share",
            "sync.grad_round_share",
            "sync.step_share",
            "sync.eval_share",
            "sync.driver_other_share",
            "checkpoint.stall_share",
        ]
        .iter()
        .map(|n| out.get(n))
        .sum();
        assert!((sum - 1.0).abs() < 1e-12, "{sum}");
        assert_eq!(out.get("sync.grad_round_share"), 0.5);
        assert_eq!(out.get("sync.driver_other_share"), 0.05);
        assert_eq!(out.get("checkpoint.bytes_per_save"), 4096.0);
        assert!((out.get("sync.round_overhead_us") - 0.02).abs() < 1e-12);
    }

    #[test]
    fn distributed_runs_fall_back_to_the_trainers_round_span() {
        let timeline = Timeline::from_spans(vec![span("learn", 0, 40), span(STEP_LABEL, 40, 50)]);
        let b = TrainerBreakdown::new(&timeline, 50);
        assert_eq!(b.round_ns, 40.0);
    }

    #[test]
    fn sizes_scale_in_whole_multiples() {
        assert_eq!(scaled(31_600, 1.0, 4), 31_600);
        assert_eq!(scaled(31_600, 1.0 / 16.0, 4), 1_976);
        assert_eq!(scaled(9, 0.01, 1), 1);
    }

    #[test]
    fn step_stats_come_from_step_starts() {
        let starts: Vec<u64> = (0..=3000u64).map(|i| i * 1_000_000).collect();
        let s = StepStats::new(&starts);
        assert_eq!(s.steps_per_s, 1000.0);
        assert_eq!(s.gap_ms_p50, 1.0);
        assert_eq!(s.gaps.len(), 3000);
    }
}
