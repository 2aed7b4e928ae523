//! Execution traces.
//!
//! Every timed item the machine dispatches can be recorded with its stream,
//! device, label and `[start, end)` interval. Integration tests use traces
//! to assert the paper's overlap claims — e.g. that iteration *N*'s global
//! synchronisation tasks run concurrently with iteration *N+1*'s learning
//! tasks (Figure 8, point *f*).

use crate::stream::{DeviceId, StreamId};
use crate::time::{SimDuration, SimTime};
use crossbow_telemetry::{chrome, Span, SpanKind};

/// What kind of work a trace record covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A compute kernel.
    Kernel,
    /// A DMA copy.
    Copy,
    /// A collective span.
    Collective,
    /// A host-side stall ([`crate::work::WorkItem::Delay`]).
    Host,
}

/// One dispatched item.
#[derive(Clone, Copy, Debug)]
pub struct TraceRecord {
    /// Stream the item ran on.
    pub stream: StreamId,
    /// Device owning the stream.
    pub device: DeviceId,
    /// Item kind.
    pub kind: TraceKind,
    /// Item label (kernel/copy/collective label).
    pub label: &'static str,
    /// Dispatch time.
    pub start: SimTime,
    /// Completion time.
    pub end: SimTime,
    /// SMs granted (kernels only; 0 otherwise).
    pub sms: u32,
}

impl TraceRecord {
    /// Item duration.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }

    /// True when the two records overlap in time (half-open intervals).
    pub fn overlaps(&self, other: &TraceRecord) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// A recorded execution.
#[derive(Debug, Default)]
pub struct Trace {
    records: Vec<TraceRecord>,
    enabled: bool,
}

impl Trace {
    pub(crate) fn new(enabled: bool) -> Self {
        Trace {
            records: Vec::new(),
            enabled,
        }
    }

    pub(crate) fn push(&mut self, record: TraceRecord) {
        if self.enabled {
            self.records.push(record);
        }
    }

    /// All records, in dispatch order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Records whose label matches a predicate.
    pub fn with_label<'a>(
        &'a self,
        pred: impl Fn(&str) -> bool + 'a,
    ) -> impl Iterator<Item = &'a TraceRecord> + 'a {
        self.records.iter().filter(move |r| pred(r.label))
    }

    /// True when any record labelled `a` overlaps any record labelled `b`.
    pub fn labels_overlap(&self, a: &str, b: &str) -> bool {
        let bs: Vec<&TraceRecord> = self.with_label(|l| l == b).collect();
        self.with_label(|l| l == a)
            .any(|ra| bs.iter().any(|rb| ra.overlaps(rb)))
    }

    /// Total busy time (sum of record durations) on one device.
    pub fn device_busy(&self, device: DeviceId) -> SimDuration {
        let ns: u64 = self
            .records
            .iter()
            .filter(|r| r.device == device)
            .map(|r| r.duration().as_nanos())
            .sum();
        SimDuration::from_nanos(ns)
    }

    /// Converts the trace into telemetry spans so simulated timelines go
    /// through the same analyzer/exporter as real ones.
    ///
    /// Kind mapping follows the paper's task model: collectives and the
    /// average/apply kernels are *global* synchronisation, `local-sync`
    /// kernels are *local* synchronisation, and every other kernel
    /// (gradient compute, replica update) is learning-task work.
    pub fn to_spans(&self) -> Vec<Span> {
        self.records.iter().map(record_to_span).collect()
    }

    /// Chrome Trace Event Format JSON for this trace, with devices named
    /// `gpu N`. Load the output in `chrome://tracing` or Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let spans = self.to_spans();
        let mut devices: Vec<u32> = spans.iter().map(|s| s.device).collect();
        devices.sort_unstable();
        devices.dedup();
        let names: Vec<(u32, String)> = devices.iter().map(|&d| (d, format!("gpu {d}"))).collect();
        let name_refs: Vec<(u32, &str)> = names.iter().map(|(d, n)| (*d, n.as_str())).collect();
        chrome::to_chrome_json(&spans, &name_refs)
    }
}

fn record_to_span(r: &TraceRecord) -> Span {
    let kind = match r.kind {
        TraceKind::Collective => SpanKind::GlobalSync,
        TraceKind::Copy => SpanKind::Copy,
        TraceKind::Host => SpanKind::Host,
        TraceKind::Kernel => match r.label {
            "local-sync" => SpanKind::LocalSync,
            "reduce-local" | "apply-average" => SpanKind::GlobalSync,
            _ => SpanKind::Learn,
        },
    };
    Span {
        kind,
        label: r.label,
        start_ns: r.start.as_nanos(),
        end_ns: r.end.as_nanos(),
        device: r.device.index() as u32,
        lane: r.stream.index() as u32,
        iteration: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(label: &'static str, start: u64, end: u64) -> TraceRecord {
        TraceRecord {
            stream: StreamId(0),
            device: DeviceId(0),
            kind: TraceKind::Kernel,
            label,
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
            sms: 1,
        }
    }

    #[test]
    fn overlap_is_half_open() {
        let a = rec("a", 0, 10);
        let b = rec("b", 10, 20);
        let c = rec("c", 5, 15);
        assert!(!a.overlaps(&b), "touching intervals do not overlap");
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&b));
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        t.push(rec("a", 0, 1));
        assert!(t.records().is_empty());
    }

    #[test]
    fn labels_overlap_queries() {
        let mut t = Trace::new(true);
        t.push(rec("learn", 0, 10));
        t.push(rec("sync", 5, 15));
        t.push(rec("learn", 20, 30));
        assert!(t.labels_overlap("learn", "sync"));
        assert!(!t.labels_overlap("sync", "missing"));
        assert_eq!(t.with_label(|l| l == "learn").count(), 2);
    }

    #[test]
    fn spans_map_kinds_by_task_model() {
        let mut t = Trace::new(true);
        t.push(rec("learn", 0, 10));
        t.push(rec("local-sync", 10, 12));
        t.push(rec("reduce-local", 12, 14));
        t.push(TraceRecord {
            kind: TraceKind::Collective,
            ..rec("allreduce", 14, 20)
        });
        t.push(TraceRecord {
            kind: TraceKind::Copy,
            ..rec("input", 0, 3)
        });
        let spans = t.to_spans();
        let kinds: Vec<SpanKind> = spans.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SpanKind::Learn,
                SpanKind::LocalSync,
                SpanKind::GlobalSync,
                SpanKind::GlobalSync,
                SpanKind::Copy,
            ]
        );
        assert_eq!(spans[0].start_ns, 0);
        assert_eq!(spans[3].end_ns, 20);
    }

    #[test]
    fn chrome_json_round_trips_record_counts() {
        use crossbow_telemetry::json::Json;

        let mut t = Trace::new(true);
        t.push(rec("learn", 0, 10));
        t.push(rec("local-sync", 10, 12));
        t.push(TraceRecord {
            device: DeviceId(1),
            kind: TraceKind::Collective,
            ..rec("allreduce", 12, 20)
        });
        let text = t.to_chrome_json();
        let doc = Json::parse(&text).expect("emitted trace must be valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        // One "X" event per record, one "M" process-name event per device.
        let complete: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        let metadata = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .count();
        assert_eq!(complete.len(), t.records().len());
        assert_eq!(metadata, 2, "two devices appear in the trace");
        // Names and categories survive the round trip.
        assert_eq!(
            complete[2].get("name").and_then(Json::as_str),
            Some("allreduce")
        );
        assert_eq!(
            complete[2].get("cat").and_then(Json::as_str),
            Some("global-sync")
        );
        assert_eq!(complete[2].get("pid").and_then(Json::as_f64), Some(1.0));
        // 8ns duration = 0.008µs in trace units.
        assert_eq!(complete[2].get("dur").and_then(Json::as_f64), Some(0.008));
    }

    #[test]
    fn device_busy_sums_durations() {
        let mut t = Trace::new(true);
        t.push(rec("a", 0, 10));
        t.push(rec("b", 20, 25));
        assert_eq!(t.device_busy(DeviceId(0)).as_nanos(), 15);
        assert_eq!(t.device_busy(DeviceId(1)).as_nanos(), 0);
    }
}
