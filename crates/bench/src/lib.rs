//! Shared utilities for the figure/table harnesses.
//!
//! Every table and figure of the paper's evaluation (§5) has a `[[bench]]`
//! target in this crate (run them all with `cargo bench`, or one with
//! `cargo bench --bench fig10_tta`). Each harness prints the same rows or
//! series the paper reports, so EXPERIMENTS.md can record paper-reported
//! vs. measured values side by side.
//!
//! Set `CROSSBOW_BENCH_QUICK=1` to shrink the statistical runs (fewer
//! epochs, single seed) for a fast smoke pass; the full runs are sized for
//! a few minutes each on one CPU core.

use crossbow::benchmark::Benchmark;
use crossbow::engine::{AlgorithmKind, Session, SessionConfig};
use crossbow::sync::TrainingCurve;
use std::time::Instant;

/// True when `CROSSBOW_BENCH_QUICK` is set: harnesses shrink their epoch
/// budgets and sweeps.
pub fn quick_mode() -> bool {
    std::env::var_os("CROSSBOW_BENCH_QUICK").is_some()
}

/// Scales an epoch budget down in quick mode.
pub fn epochs(full: usize) -> usize {
    if quick_mode() {
        (full / 4).max(3)
    } else {
        full
    }
}

/// Prints a section header.
pub fn section(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints an aligned table.
///
/// # Panics
/// Panics if a row's width differs from the header's.
pub fn table(headers: &[&str], rows: &[Vec<String>]) {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let print_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("  {}", line.join("  "));
    };
    print_row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("  {}", "-".repeat(total));
    for row in rows {
        print_row(row);
    }
}

/// Formats an optional epoch count.
pub fn fmt_eta(eta: Option<usize>) -> String {
    match eta {
        Some(e) => e.to_string(),
        None => "-".to_string(),
    }
}

/// Formats seconds human-readably.
pub fn fmt_secs(s: f64) -> String {
    if s >= 3600.0 {
        format!("{:.1}h", s / 3600.0)
    } else if s >= 60.0 {
        format!("{:.1}m", s / 60.0)
    } else {
        format!("{s:.1}s")
    }
}

/// Runs the statistical half of a session (real training) with explicit
/// knobs, timing it.
#[allow(clippy::too_many_arguments)] // experiment axes mirror the paper's
pub fn stat_run(
    benchmark: Benchmark,
    algorithm: AlgorithmKind,
    gpus: usize,
    m: usize,
    batch_full: usize,
    max_epochs: usize,
    target: f64,
    seed: u64,
) -> TrainingCurve {
    let t0 = Instant::now();
    let config = SessionConfig::new(benchmark)
        .with_gpus(gpus)
        .with_learners_per_gpu(m)
        .with_batch(batch_full)
        .with_algorithm(algorithm)
        .with_epochs(max_epochs)
        .with_target(target)
        .with_seed(seed);
    let session = Session::new(config);
    let curve = session
        .train_statistics(m)
        .expect("no checkpointing in benches");
    eprintln!(
        "    [stat {} {:?} g={gpus} m={m} b={batch_full}: {} epochs in {:.1}s]",
        benchmark.name,
        algorithm,
        curve.epochs(),
        t0.elapsed().as_secs_f64()
    );
    curve
}

/// A combined hardware + statistical measurement for one configuration.
#[derive(Clone, Debug)]
pub struct RunRow {
    /// Simulated training throughput (images/s) at the paper's scale.
    pub throughput: f64,
    /// Simulated full-scale epoch time in seconds.
    pub epoch_secs: f64,
    /// Epochs to the target (median-of-5 rule), if reached.
    pub eta: Option<usize>,
    /// Time-to-accuracy in (simulated) seconds, if the target was reached.
    pub tta_secs: Option<f64>,
    /// Final test accuracy of the statistical run.
    pub final_accuracy: f64,
    /// Accuracy after each epoch.
    pub curve: Vec<f64>,
    /// Learners per GPU actually used.
    pub m: usize,
}

/// Runs the full pipeline (simulator + real training) for one
/// configuration and returns the combined row.
#[allow(clippy::too_many_arguments)] // experiment axes mirror the paper's
pub fn full_run(
    benchmark: Benchmark,
    algorithm: AlgorithmKind,
    gpus: usize,
    m: Option<usize>,
    batch_full: usize,
    max_epochs: usize,
    target: f64,
    seed: u64,
) -> RunRow {
    let t0 = Instant::now();
    let mut config = SessionConfig::new(benchmark)
        .with_gpus(gpus)
        .with_batch(batch_full)
        .with_algorithm(algorithm)
        .with_epochs(max_epochs)
        .with_target(target)
        .with_seed(seed);
    if let Some(m) = m {
        config = config.with_learners_per_gpu(m);
    }
    let report = Session::new(config)
        .run()
        .expect("no checkpointing in benches");
    eprintln!(
        "    [run {} {:?} g={gpus} m={} b={batch_full}: {} epochs in {:.1}s wall]",
        benchmark.name,
        algorithm,
        report.learners_per_gpu,
        report.curve.epochs(),
        t0.elapsed().as_secs_f64()
    );
    RunRow {
        throughput: report.sim.throughput,
        epoch_secs: report.epoch_time.as_secs_f64(),
        eta: report.curve.epochs_to_target,
        tta_secs: report.tta.map(|t| t.as_secs_f64()),
        final_accuracy: report.curve.final_accuracy,
        curve: report.curve.epoch_accuracy.clone(),
        m: report.learners_per_gpu,
    }
}

/// Formats an optional TTA.
pub fn fmt_tta(tta: Option<f64>) -> String {
    match tta {
        Some(t) => fmt_secs(t),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_does_not_panic_on_aligned_rows() {
        table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn table_rejects_ragged_rows() {
        table(&["a"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_eta(Some(7)), "7");
        assert_eq!(fmt_eta(None), "-");
        assert_eq!(fmt_secs(30.0), "30.0s");
        assert_eq!(fmt_secs(90.0), "1.5m");
        assert_eq!(fmt_secs(7200.0), "2.0h");
    }

    #[test]
    fn quick_epochs_shrink() {
        // Cannot set env vars safely in tests; just exercise both paths.
        let full = 40;
        let q = (full / 4).max(3);
        assert!(q < full);
        let _ = epochs(full);
    }
}
