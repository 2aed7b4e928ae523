//! Typed spans and the sharded recorder.
//!
//! Hot paths (learner threads, serve workers) record into a thread-local
//! [`Shard`] — a plain `Vec` push, no shared state — and the shard folds
//! itself into the recorder when dropped (or on explicit
//! [`Shard::flush`]). Reading the [`Timeline`] is the cold path.

use crate::analyze::{self, OverlapStats, PhaseBreakdown};
use crate::chrome;
use crate::clock::{Clock, WallClock};
use std::fmt;
use std::sync::{Arc, Mutex};

/// What a span measures. The taxonomy follows the paper's task model:
/// a *learning task* computes a gradient, a *local sync* folds it into
/// the device's replicas, a *global sync* averages across devices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// Gradient computation for one batch (the learning task).
    Learn,
    /// Intra-device synchronisation (model update against the local
    /// difference, `reduce-local` style work).
    LocalSync,
    /// Inter-device/global synchronisation (all-reduce, average apply,
    /// or the CPU engine's ordered aggregation + publish).
    GlobalSync,
    /// Checkpoint serialisation + durable write.
    CheckpointWrite,
    /// Publishing a model snapshot to servers.
    SnapshotPublish,
    /// Fetching/gathering an input batch.
    BatchFetch,
    /// Held-out evaluation pass.
    Eval,
    /// Inference forward pass (serving).
    Infer,
    /// Host→device / device→host copy (simulator).
    Copy,
    /// Host-side bookkeeping (simulator scheduler, misc).
    Host,
    /// A framed message written to a socket (distributed runtime).
    NetSend,
    /// A framed message read from a socket (distributed runtime).
    NetRecv,
    /// An autoscaler decision evaluation (fleet serving): one probe of a
    /// pool's SLO health plus the resulting grow/shrink/hold verdict.
    Autoscale,
}

impl SpanKind {
    /// Stable lowercase name, used as the Chrome-trace category.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Learn => "learn",
            SpanKind::LocalSync => "local-sync",
            SpanKind::GlobalSync => "global-sync",
            SpanKind::CheckpointWrite => "checkpoint-write",
            SpanKind::SnapshotPublish => "snapshot-publish",
            SpanKind::BatchFetch => "batch-fetch",
            SpanKind::Eval => "eval",
            SpanKind::Infer => "infer",
            SpanKind::Copy => "copy",
            SpanKind::Host => "host",
            SpanKind::NetSend => "net-send",
            SpanKind::NetRecv => "net-recv",
            SpanKind::Autoscale => "autoscale",
        }
    }

    /// All kinds, in display order for breakdowns.
    pub const ALL: [SpanKind; 13] = [
        SpanKind::Learn,
        SpanKind::LocalSync,
        SpanKind::GlobalSync,
        SpanKind::CheckpointWrite,
        SpanKind::SnapshotPublish,
        SpanKind::BatchFetch,
        SpanKind::Eval,
        SpanKind::Infer,
        SpanKind::Copy,
        SpanKind::Host,
        SpanKind::NetSend,
        SpanKind::NetRecv,
        SpanKind::Autoscale,
    ];
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded interval with device/lane/iteration attribution.
///
/// `device` becomes the Chrome-trace `pid` (GPU index, or
/// [`crate::HOST_DEVICE`] for host runtimes) and `lane` the `tid`
/// (stream, learner or worker index).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Phase taxonomy entry.
    pub kind: SpanKind,
    /// Human-readable event name shown in the trace viewer.
    pub label: &'static str,
    /// Start, clock nanoseconds.
    pub start_ns: u64,
    /// End, clock nanoseconds (`>= start_ns`).
    pub end_ns: u64,
    /// Device attribution (Chrome `pid`).
    pub device: u32,
    /// Lane within the device: stream / learner / worker (Chrome `tid`).
    pub lane: u32,
    /// Training iteration this span belongs to, when meaningful.
    pub iteration: Option<u64>,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Whether two spans overlap in time (open intervals: touching
    /// endpoints do not count).
    pub fn overlaps(&self, other: &Span) -> bool {
        self.start_ns < other.end_ns && other.start_ns < self.end_ns
    }
}

/// Collects spans from many threads through per-thread [`Shard`]s.
pub struct Recorder {
    clock: Arc<dyn Clock>,
    enabled: bool,
    shards: Mutex<Vec<Vec<Span>>>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

impl Recorder {
    /// An enabled recorder on the given clock.
    pub fn new(clock: Arc<dyn Clock>) -> Arc<Self> {
        Arc::new(Recorder {
            clock,
            enabled: true,
            shards: Mutex::new(Vec::new()),
        })
    }

    /// An enabled recorder on a fresh wall clock.
    pub fn wall() -> Arc<Self> {
        Recorder::new(Arc::new(WallClock::new()))
    }

    /// A recorder that drops every span at record time. Runtimes that
    /// were not handed a sink use this so their instrumentation code has
    /// a single shape.
    pub fn disabled() -> Arc<Self> {
        Arc::new(Recorder {
            clock: Arc::new(WallClock::new()),
            enabled: false,
            shards: Mutex::new(Vec::new()),
        })
    }

    /// Whether spans are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Current clock reading in nanoseconds. Valid (monotonic) even when
    /// the recorder is disabled, so callers can use it for elapsed-time
    /// measurements unconditionally.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// A new shard for the calling thread. Spans pushed into the shard
    /// are folded into the recorder when the shard is dropped.
    pub fn shard(self: &Arc<Self>) -> Shard {
        Shard {
            recorder: Arc::clone(self),
            spans: Vec::new(),
        }
    }

    fn absorb(&self, spans: Vec<Span>) {
        if !spans.is_empty() {
            self.shards.lock().unwrap().push(spans);
        }
    }

    /// Snapshot of everything flushed so far, sorted by start time.
    /// Live (undropped) shards are not included — flush or drop them
    /// first.
    pub fn timeline(&self) -> Timeline {
        let shards = self.shards.lock().unwrap();
        let mut spans: Vec<Span> = shards.iter().flatten().cloned().collect();
        drop(shards);
        spans.sort_by_key(|s| (s.start_ns, s.end_ns, s.device, s.lane));
        Timeline { spans }
    }
}

/// A per-thread span buffer. Push is a `Vec` append; the buffer flushes
/// into its [`Recorder`] on drop.
pub struct Shard {
    recorder: Arc<Recorder>,
    spans: Vec<Span>,
}

impl Shard {
    /// Clock reading, for bracketing a phase manually.
    pub fn now_ns(&self) -> u64 {
        self.recorder.now_ns()
    }

    /// Whether this shard keeps spans. When false, [`Shard::record`] is
    /// a no-op and callers may skip building span arguments.
    pub fn is_enabled(&self) -> bool {
        self.recorder.enabled
    }

    /// Records a fully built span (dropped when the recorder is
    /// disabled).
    pub fn record(&mut self, span: Span) {
        if self.recorder.enabled {
            self.spans.push(span);
        }
    }

    /// Convenience: records `[start_ns, now]` with attribution.
    #[allow(clippy::too_many_arguments)]
    pub fn close(
        &mut self,
        kind: SpanKind,
        label: &'static str,
        start_ns: u64,
        device: u32,
        lane: u32,
        iteration: Option<u64>,
    ) {
        if self.recorder.enabled {
            let end_ns = self.recorder.now_ns().max(start_ns);
            self.spans.push(Span {
                kind,
                label,
                start_ns,
                end_ns,
                device,
                lane,
                iteration,
            });
        }
    }

    /// Folds buffered spans into the recorder now (also happens on
    /// drop).
    pub fn flush(&mut self) {
        self.recorder.absorb(std::mem::take(&mut self.spans));
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        self.flush();
    }
}

/// An immutable, time-sorted set of spans with analysis helpers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Timeline {
    spans: Vec<Span>,
}

impl Timeline {
    /// A timeline from already-collected spans (sorts them).
    pub fn from_spans(mut spans: Vec<Span>) -> Self {
        spans.sort_by_key(|s| (s.start_ns, s.end_ns, s.device, s.lane));
        Timeline { spans }
    }

    /// The spans, sorted by start time.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of spans of one kind.
    pub fn count(&self, kind: SpanKind) -> usize {
        self.spans.iter().filter(|s| s.kind == kind).count()
    }

    /// Earliest start and latest end, or `None` when empty.
    pub fn extent_ns(&self) -> Option<(u64, u64)> {
        let start = self.spans.iter().map(|s| s.start_ns).min()?;
        let end = self.spans.iter().map(|s| s.end_ns).max()?;
        Some((start, end))
    }

    /// Per-kind total time and span counts.
    pub fn phase_breakdown(&self) -> PhaseBreakdown {
        analyze::phase_breakdown(&self.spans)
    }

    /// The paper-style sync–compute overlap: how much of global-sync
    /// time ran concurrently with learning tasks.
    pub fn overlap(&self) -> OverlapStats {
        analyze::overlap(&self.spans)
    }

    /// Count of `(sync(N), learn(M))` span pairs with `M > N` that
    /// overlap in time — the Figure 8 property that synchronisation of
    /// one iteration overlaps the next iteration's learning.
    pub fn pipeline_overlaps(&self) -> usize {
        analyze::pipeline_overlaps(&self.spans)
    }

    /// Chrome Trace Event Format JSON for this timeline.
    pub fn to_chrome_json(&self) -> String {
        chrome::to_chrome_json(&self.spans, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn span(kind: SpanKind, start: u64, end: u64) -> Span {
        Span {
            kind,
            label: kind.name(),
            start_ns: start,
            end_ns: end,
            device: 0,
            lane: 0,
            iteration: None,
        }
    }

    #[test]
    fn shards_flush_on_drop_and_timeline_sorts() {
        let clock = Arc::new(ManualClock::new());
        let rec = Recorder::new(clock);
        let mut a = rec.shard();
        let mut b = rec.shard();
        b.record(span(SpanKind::GlobalSync, 50, 60));
        a.record(span(SpanKind::Learn, 10, 20));
        drop(a);
        drop(b);
        let tl = rec.timeline();
        assert_eq!(tl.len(), 2);
        assert_eq!(tl.spans()[0].kind, SpanKind::Learn);
        assert_eq!(tl.count(SpanKind::GlobalSync), 1);
    }

    #[test]
    fn disabled_recorder_drops_spans_but_keeps_time() {
        let rec = Recorder::disabled();
        let mut shard = rec.shard();
        let t0 = shard.now_ns();
        shard.record(span(SpanKind::Learn, 0, 1));
        shard.close(SpanKind::Eval, "eval", t0, 0, 0, None);
        drop(shard);
        assert!(rec.timeline().is_empty());
        assert!(rec.now_ns() >= t0);
    }

    #[test]
    fn concurrent_shards_from_many_threads() {
        let rec = Recorder::new(Arc::new(ManualClock::new()));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || {
                    let mut shard = rec.shard();
                    for j in 0..25 {
                        let t = (i * 100 + j) as u64;
                        shard.record(Span {
                            device: 0,
                            lane: i,
                            ..span(SpanKind::Learn, t, t + 1)
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.timeline().len(), 100);
    }

    #[test]
    fn close_records_the_bracketed_interval() {
        let clock = Arc::new(ManualClock::new());
        let rec = Recorder::new(Arc::clone(&clock) as Arc<dyn Clock>);
        let mut shard = rec.shard();
        clock.advance_to(100);
        let t0 = shard.now_ns();
        clock.advance_to(250);
        shard.close(SpanKind::Learn, "batch", t0, 2, 3, Some(7));
        drop(shard);
        let tl = rec.timeline();
        let s = &tl.spans()[0];
        assert_eq!((s.start_ns, s.end_ns), (100, 250));
        assert_eq!((s.device, s.lane, s.iteration), (2, 3, Some(7)));
    }

    #[test]
    fn extent_covers_all_spans() {
        let tl = Timeline::from_spans(vec![
            span(SpanKind::Learn, 30, 90),
            span(SpanKind::GlobalSync, 10, 40),
        ]);
        assert_eq!(tl.extent_ns(), Some((10, 90)));
        assert!(Timeline::default().extent_ns().is_none());
    }
}
