//! Trait wrappers: how the benchmark sees the trainer's calls into the
//! `data`, `sync` and gradient layers from outside.
//!
//! Each wrapper forwards to the real implementation and brackets the
//! call with the recorder's clock. With a disabled recorder (the
//! untraced run) only [`TimedAlgo`] keeps anything: the step times the
//! end-to-end metrics are computed from. With an enabled recorder every
//! call also becomes a span on the benchmark's own trace lane.

use crossbow::data::{DataError, SampleSource};
use crossbow::sync::{AlgoSnapshot, GradientSource, LearnerBatch, RoundStatus, SyncAlgorithm};
use crossbow::telemetry::{Recorder, Shard, Span, SpanKind, HOST_DEVICE};
use crossbow::tensor::{Shape, Tensor};
use std::sync::{Arc, Mutex};

/// Trace lane of the spans recorded here; lane 0 of the host device is
/// the trainer's own.
pub const PERF_LANE: u32 = 1;

pub const STEP_LABEL: &str = "perf.step";
pub const ROUND_LABEL: &str = "perf.round";
pub const GATHER_LABEL: &str = "perf.gather";

fn span(kind: SpanKind, label: &'static str, start_ns: u64, end_ns: u64, iteration: u64) -> Span {
    Span {
        kind,
        label,
        start_ns,
        end_ns,
        device: HOST_DEVICE,
        lane: PERF_LANE,
        iteration: Some(iteration),
    }
}

/// A [`SyncAlgorithm`] that times every `step` call.
pub struct TimedAlgo<'a> {
    inner: &'a mut dyn SyncAlgorithm,
    shard: Shard,
    /// `(start, end)` of every step, recorder nanoseconds.
    pub steps: Vec<(u64, u64)>,
}

impl<'a> TimedAlgo<'a> {
    pub fn new(inner: &'a mut dyn SyncAlgorithm, recorder: &Arc<Recorder>) -> Self {
        TimedAlgo {
            inner,
            shard: recorder.shard(),
            steps: Vec::new(),
        }
    }

    /// Start times of the steps, for rate and gap statistics.
    pub fn step_starts(&self) -> Vec<u64> {
        self.steps.iter().map(|s| s.0).collect()
    }
}

impl SyncAlgorithm for TimedAlgo<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn k(&self) -> usize {
        self.inner.k()
    }
    fn param_len(&self) -> usize {
        self.inner.param_len()
    }
    fn replica(&self, j: usize) -> &[f32] {
        self.inner.replica(j)
    }
    fn step(&mut self, grads: &[Vec<f32>], lr: f32) {
        let start = self.shard.now_ns();
        self.inner.step(grads, lr);
        let end = self.shard.now_ns();
        let n = self.steps.len() as u64;
        self.steps.push((start, end));
        self.shard
            .record(span(SpanKind::GlobalSync, STEP_LABEL, start, end, n));
    }
    fn consensus(&self) -> &[f32] {
        self.inner.consensus()
    }
    fn on_lr_change(&mut self) {
        self.inner.on_lr_change();
    }
    fn add_replica(&mut self) -> bool {
        self.inner.add_replica()
    }
    fn remove_replica(&mut self) -> bool {
        self.inner.remove_replica()
    }
    fn snapshot(&self) -> Option<AlgoSnapshot> {
        self.inner.snapshot()
    }
    fn restore(&mut self, snapshot: &AlgoSnapshot) -> bool {
        self.inner.restore(snapshot)
    }
}

/// A [`GradientSource`] that counts and times rounds.
pub struct TimedGradients<S> {
    inner: S,
    shard: Shard,
    /// Rounds run, kept or not: the denominator of `goodput_ratio`.
    pub rounds: u64,
}

impl<S: GradientSource> TimedGradients<S> {
    pub fn new(inner: S, recorder: &Arc<Recorder>) -> Self {
        TimedGradients {
            inner,
            shard: recorder.shard(),
            rounds: 0,
        }
    }
}

impl<S: GradientSource> GradientSource for TimedGradients<S> {
    fn round(
        &mut self,
        algo: &mut dyn SyncAlgorithm,
        batches: &[LearnerBatch],
        grads: &mut [Vec<f32>],
        losses: &mut [f32],
    ) -> RoundStatus {
        let start = self.shard.now_ns();
        let status = self.inner.round(algo, batches, grads, losses);
        let end = self.shard.now_ns();
        self.shard
            .record(span(SpanKind::Learn, ROUND_LABEL, start, end, self.rounds));
        self.rounds += 1;
        status
    }
}

/// A [`SampleSource`] that times every gather. The trait takes `&self`
/// and is `Sync`, so the shard sits behind a mutex; only the trainer
/// thread gathers, so it is never contended.
pub struct TimedSource<'a> {
    inner: &'a dyn SampleSource,
    shard: Mutex<(Shard, u64)>,
}

impl<'a> TimedSource<'a> {
    pub fn new(inner: &'a dyn SampleSource, recorder: &Arc<Recorder>) -> Self {
        TimedSource {
            inner,
            shard: Mutex::new((recorder.shard(), 0)),
        }
    }
}

impl SampleSource for TimedSource<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn sample_shape(&self) -> &Shape {
        self.inner.sample_shape()
    }
    fn classes(&self) -> usize {
        self.inner.classes()
    }
    fn label(&self, i: usize) -> Result<usize, DataError> {
        self.inner.label(i)
    }
    fn gather(&self, indices: &[usize]) -> Result<(Tensor, Vec<usize>), DataError> {
        let mut guard = self.shard.lock().expect("only the trainer thread gathers");
        let (shard, calls) = &mut *guard;
        let start = shard.now_ns();
        let out = self.inner.gather(indices);
        let end = shard.now_ns();
        shard.record(span(SpanKind::BatchFetch, GATHER_LABEL, start, end, *calls));
        *calls += 1;
        out
    }
}
