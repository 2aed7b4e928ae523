//! A tour of the telemetry subsystem: typed spans, the metrics registry,
//! the overlap analyzer, and Chrome-trace export.
//!
//! ```sh
//! cargo run --release -p crossbow --example trace_tour
//! ```
//!
//! The run writes `crossbow_trace_tour.json` into the system temp
//! directory; open it in chrome://tracing or https://ui.perfetto.dev to
//! see learning tasks overlap synchronisation, per device and lane.
//!
//! With `-- --check FILE` the example instead validates an emitted
//! trace (ci.sh uses this to keep `crossbow train --trace` honest).

use crossbow::engine::{Session, SessionConfig};
use crossbow::telemetry::json::Json;
use crossbow::telemetry::{chrome, SpanKind, Telemetry, HOST_DEVICE};
use std::time::Duration;

/// Parses a Chrome trace back with the crate's own JSON parser and
/// requires a non-empty span set covering the three core phases.
fn check(path: &str) {
    let text = std::fs::read_to_string(path).expect("trace file readable");
    let parsed = Json::parse(&text).expect("trace must be valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("top-level traceEvents array");
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    assert!(!names.is_empty(), "trace holds no spans");
    for required in ["learn", "local-sync", "global-sync"] {
        assert!(
            names.contains(&required),
            "trace is missing `{required}` spans"
        );
    }
    println!(
        "{path}: {} spans, learn/local-sync/global-sync present",
        names.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check") {
        check(args.get(1).expect("--check needs a trace file"));
        return;
    }
    // 1. Every runtime takes the same sink: a span recorder plus a
    //    metrics registry, cheap to clone and share across threads.
    let telemetry = Telemetry::wall();
    let config = SessionConfig::lenet_quick()
        .with_gpus(2)
        .with_learners_per_gpu(2)
        .with_telemetry(telemetry.clone());
    let report = Session::new(config)
        .run()
        .expect("no checkpointing configured");
    println!("{}", report.summary());

    // 2. The recorder's timeline: typed spans with device/lane/iteration
    //    attribution. Simulated-GPU spans sit on devices 0..g; host-side
    //    work (training epochs, evaluation) on the HOST_DEVICE pid.
    let timeline = telemetry.recorder.timeline();
    println!("\nrecorded {} spans:", timeline.len());
    for kind in SpanKind::ALL {
        let n = timeline.count(kind);
        if n > 0 {
            println!("  {:<18} x{n}", kind.name());
        }
    }

    // 3. The analyzer: per-phase totals, and the paper's Figure 8 claim —
    //    global synchronisation hidden under the next iteration's
    //    learning tasks.
    println!("\nphase breakdown:\n{}", timeline.phase_breakdown());
    if let Some(overlap) = report.sim.overlap {
        println!("sync-compute overlap: {overlap}");
    }

    // 4. Chrome Trace Event export: one pid per device, one tid per
    //    stream/lane.
    let mut names: Vec<(u32, String)> = (0..2).map(|d| (d, format!("gpu {d}"))).collect();
    names.push((HOST_DEVICE, "host".to_string()));
    let names: Vec<(u32, &str)> = names.iter().map(|(d, n)| (*d, n.as_str())).collect();
    let json = chrome::to_chrome_json(timeline.spans(), &names);
    let path = std::env::temp_dir().join("crossbow_trace_tour.json");
    std::fs::write(&path, json).expect("temp dir is writable");
    println!("\nwrote {} -> open in chrome://tracing", path.display());

    // 5. The metrics half: counters, gauges and log2 latency histograms,
    //    shared by the serving, checkpoint and distributed runtimes.
    let m = &telemetry.metrics;
    m.counter("tour.widgets").add(3);
    m.gauge("tour.depth").set(7);
    m.gauge("tour.depth").set(2); // gauges keep value *and* high-water mark
    m.histogram("tour.latency_us")
        .record(Duration::from_micros(250));
    println!("\nmetrics snapshot:\n{}", m.snapshot());
}
