//! Unified tracing and metrics for the Crossbow runtimes.
//!
//! Every runtime in the workspace — the simulator (`exec_sim`/`gpu-sim`),
//! the concurrent CPU engine (`exec_cpu`), the synchronous trainer, the
//! checkpointer, and the serving fleet — needs to answer the same
//! question the paper answers with Figure 8: *where did the time go, and
//! does synchronisation of iteration N overlap with learning of iteration
//! N+1?* This crate is the shared substrate they all report against:
//!
//! * [`Clock`] abstracts the time source: [`WallClock`] for real runs,
//!   [`ManualClock`] for simulated nanoseconds, so spans from both render
//!   identically.
//! * [`Recorder`] collects typed [`Span`]s through cheap per-thread
//!   [`Shard`]s (no shared lock on the hot path; shards flush on drop).
//! * [`chrome`] exports spans in Chrome Trace Event Format, viewable in
//!   `chrome://tracing` or Perfetto; [`json`] is the minimal parser used
//!   to validate emitted traces without external dependencies.
//! * [`MetricsRegistry`] holds named [`Counter`]s, [`Gauge`]s and
//!   log2-bucketed [`Histogram`]s (the one implementation every runtime
//!   records latencies into).
//! * the analyzer ([`Timeline::overlap`], [`Timeline::phase_breakdown`],
//!   [`Timeline::pipeline_overlaps`]) computes the paper-style
//!   sync–compute overlap ratio and per-phase time breakdown from a
//!   recorded [`Timeline`].
//!
//! The crate is std-only and dependency-free by design: it sits below
//! every other crate in the workspace.

mod analyze;
pub mod chrome;
mod clock;
pub mod json;
mod metrics;
mod span;

pub use analyze::{OverlapStats, PhaseBreakdown, PhaseTotal};
pub use clock::{Clock, ManualClock, WallClock};
pub use metrics::{
    Counter, Gauge, GaugeValue, Histogram, HistogramCell, LatencySummary, MetricsRegistry,
    MetricsSnapshot,
};
pub use span::{Recorder, Shard, Span, SpanKind, Timeline};

use std::sync::Arc;

/// Process id used in Chrome traces for host-side (wall-clock) spans, so
/// they never collide with simulated GPU device ids.
pub const HOST_DEVICE: u32 = 1000;

/// The sink handle threaded through runtime configs: a span recorder plus
/// a metrics registry, shared by reference.
///
/// Cloning is cheap (two `Arc`s); all clones feed the same recorder and
/// registry.
#[derive(Clone, Debug)]
pub struct Telemetry {
    /// Span recorder for timeline/trace output.
    pub recorder: Arc<Recorder>,
    /// Named counters, gauges and histograms.
    pub metrics: Arc<MetricsRegistry>,
}

impl Telemetry {
    /// An enabled sink on the wall clock — what the CLI `--trace` flag
    /// constructs.
    pub fn wall() -> Self {
        Telemetry {
            recorder: Recorder::wall(),
            metrics: Arc::new(MetricsRegistry::new()),
        }
    }

    /// An enabled sink on an explicit clock (e.g. a [`ManualClock`]
    /// driven by simulated time).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Telemetry {
            recorder: Recorder::new(clock),
            metrics: Arc::new(MetricsRegistry::new()),
        }
    }

    /// A disabled sink: spans are dropped at record time, metrics still
    /// work (they are cheap and always useful).
    pub fn disabled() -> Self {
        Telemetry {
            recorder: Recorder::disabled(),
            metrics: Arc::new(MetricsRegistry::new()),
        }
    }
}
