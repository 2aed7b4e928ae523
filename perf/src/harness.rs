//! What every workload shares: correctness checks, the result line, the
//! scratch directory, set-up timing and the trace file.

use crate::catalog::{Workload, END_TO_END, PER_LAYER};
use crate::stats;
use crossbow::telemetry::json::Json;
use crossbow::telemetry::{chrome, Timeline, HOST_DEVICE};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A run repeats its set-up at least this often, and goes on until the
/// set-ups have taken [`SETUP_BUDGET`] or there are [`SETUP_REPEATS_MAX`];
/// `setup_s` is the median. Three readings of a 14 ms set-up have a
/// median that moves by a fifth between two sets of runs; forty do not.
pub const SETUP_REPEATS_MIN: usize = 3;
pub const SETUP_REPEATS_MAX: usize = 41;
pub const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Correctness checks wired into a run. A failed check prints
/// `CHECK FAILED: …`, marks the result incorrect and makes the process
/// exit non-zero; the run still finishes so every failure is listed.
#[derive(Debug, Default)]
pub struct Checks {
    failures: usize,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    pub fn passed(&self) -> bool {
        self.failures == 0
    }
}

/// The seven end-to-end metrics, in catalogue order.
#[derive(Clone, Copy, Debug, Default)]
pub struct EndToEndValues {
    pub samples_per_s: f64,
    pub op_ms_p50: f64,
    pub op_ms_tail: f64,
    pub accuracy: f64,
    pub goodput_ratio: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
}

impl EndToEndValues {
    fn values(&self) -> [f64; 7] {
        [
            self.samples_per_s,
            self.op_ms_p50,
            self.op_ms_tail,
            self.accuracy,
            self.goodput_ratio,
            self.setup_s,
            self.peak_rss_mb,
        ]
    }
}

/// Per-layer metrics by full name; absent ones print as 0 ("a layer the
/// workload never enters reads 0").
#[derive(Debug, Default)]
pub struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    /// Records one metric.
    ///
    /// # Panics
    /// Panics on a name the catalogue does not list, or one set twice:
    /// both are bugs in the benchmark, not in the program under test.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "metric {name:?} is not in the catalogue"
        );
        assert!(self.0.insert(name, value).is_none(), "{name} set twice");
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The metrics of one run: end-to-end with tracing off, per-layer from
/// the traced run.
#[derive(Debug)]
pub enum Metrics {
    EndToEnd(EndToEndValues),
    PerLayer(LayerValues),
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (training rounds, requests scheduled).
    pub attempted: u64,
    /// Operations that failed: rollbacks, retries, evictions, lost
    /// requests, and requests shed or refused outside the overload phase.
    pub failed: u64,
    pub metrics: Metrics,
}

fn number(v: f64) -> String {
    // JSON has no NaN/inf; a metric that is not a number is a bug the
    // result line must not hide behind a parse error.
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(outcome: &Outcome, correct: bool) -> String {
    let mut metrics = String::new();
    let mut push = |name: &str, value: f64, unit: &str| {
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        );
    };
    match &outcome.metrics {
        Metrics::EndToEnd(v) => {
            for (def, value) in END_TO_END.iter().zip(v.values()) {
                push(def.name, value, def.unit);
            }
        }
        Metrics::PerLayer(v) => {
            for def in PER_LAYER {
                push(def.name, v.get(def.name), def.unit);
            }
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    )
}

/// The run's scratch directory, `perf/out/<workload>-<pid>` under the
/// current directory (the root of the checkout). Emptied and recreated.
///
/// # Errors
/// When `perf/` is not in the current directory (the benchmark reads and
/// writes only inside its checkout) or the directory cannot be created.
pub fn scratch_dir(workload: Workload) -> Result<PathBuf, String> {
    let perf = Path::new("perf");
    if !perf.join("Cargo.toml").is_file() {
        return Err("run from the root of a checkout: perf/Cargo.toml not found".into());
    }
    let dir = perf
        .join("out")
        .join(format!("{}-{}", workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Where the traced run leaves its Chrome trace.
pub fn trace_path(workload: Workload) -> PathBuf {
    Path::new("perf")
        .join("out")
        .join(format!("{}.trace.json", workload.name()))
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `build` repeatedly (see [`SETUP_REPEATS_MIN`]) and returns the
/// last product with the median wall time in seconds. Earlier products
/// are dropped before the next build so peak memory is that of one
/// set-up.
pub fn timed_setups<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    let started = Instant::now();
    while times.len() < SETUP_REPEATS_MIN
        || (times.len() < SETUP_REPEATS_MAX && started.elapsed() < SETUP_BUDGET)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPEATS_MIN > 0"), stats::median(&times))
}

/// Writes the timeline as a Chrome trace (open it in `chrome://tracing`
/// or Perfetto), reads the file back, parses it and checks that it holds
/// one complete event per span. Returns the span count.
pub fn write_and_verify_trace(workload: Workload, timeline: &Timeline, checks: &mut Checks) -> u64 {
    let path = trace_path(workload);
    let text = chrome::to_chrome_json(timeline.spans(), &[(HOST_DEVICE, "host")]);
    if let Err(e) = std::fs::write(&path, &text) {
        checks.require(false, || format!("cannot write {}: {e}", path.display()));
        return 0;
    }
    let events = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|back| Json::parse(&back))
        .map(|doc| {
            doc.get("traceEvents")
                .and_then(Json::as_array)
                .map_or(0, |events| {
                    events
                        .iter()
                        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
                        .count()
                })
        });
    checks.require(events == Ok(timeline.len()), || {
        format!(
            "trace {} parsed back to {events:?} events for {} spans",
            path.display(),
            timeline.len()
        )
    });
    timeline.len() as u64
}

/// `(on − off) / off`: the share of the untraced wall that tracing adds.
pub fn overhead_share(off_s: f64, on_s: f64) -> f64 {
    if off_s <= 0.0 {
        0.0
    } else {
        (on_s - off_s) / off_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let e2e = Outcome {
            attempted: 0,
            failed: 2,
            metrics: Metrics::EndToEnd(EndToEndValues {
                samples_per_s: 1234.5678,
                op_ms_p50: 0.25,
                op_ms_tail: 1.5,
                accuracy: 0.75,
                goodput_ratio: 1.0,
                setup_s: 0.4,
                peak_rss_mb: 99.0,
            }),
        };
        let doc = Json::parse(&result_line(&e2e, true)).expect("valid JSON");
        let Json::Obj(top) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            doc.get("attempted").and_then(Json::as_f64),
            Some(1.0),
            "at least 1"
        );
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics is not an object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        let m = &metrics["samples_per_s"];
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1234.5678));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("1/s"));

        let mut layers = LayerValues::default();
        layers.set("tensor.kernel_tier", 2.0);
        let traced = Outcome {
            attempted: 5,
            failed: 0,
            metrics: Metrics::PerLayer(layers),
        };
        let doc = Json::parse(&result_line(&traced, false)).expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics is not an object")
        };
        assert_eq!(
            metrics.len(),
            PER_LAYER.len(),
            "every per-layer metric prints"
        );
        assert_eq!(
            metrics["tensor.kernel_tier"]
                .get("value")
                .and_then(Json::as_f64),
            Some(2.0)
        );
        assert_eq!(
            metrics["comms.retries"].get("value").and_then(Json::as_f64),
            Some(0.0),
            "a layer never entered reads 0"
        );
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_layer_metrics_are_refused() {
        LayerValues::default().set("tensor.made_up", 1.0);
    }

    #[test]
    fn failed_checks_mark_the_run() {
        let mut checks = Checks::default();
        checks.require(true, || unreachable!());
        assert!(checks.passed());
        checks.require(false, || {
            "expected failure from the harness self-test".into()
        });
        assert!(!checks.passed());
    }

    #[test]
    fn setups_report_the_median_and_keep_the_last_product() {
        let mut n = 0;
        let (last, secs) = timed_setups(|| {
            n += 1;
            n
        });
        assert_eq!(
            last, SETUP_REPEATS_MAX,
            "an instant set-up repeats to the cap"
        );
        assert!(secs >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
