//! Exact order statistics and best-window statistics.
//!
//! Every timing the benchmark reports is an exact percentile of stored
//! samples (never a histogram bucket edge), taken inside fixed windows
//! of the run, and the run reports its **best window**: the highest
//! rate, the lowest percentile. The machine is a share of a busy host
//! whose speed flips between two levels within seconds (a closed loop
//! reads 9.8k, 6.7k, 9.8k, 6.5k requests/s in four successive windows
//! of one run). A mean over the run lands anywhere between the two
//! levels and a median of windows jumps from one to the other as the
//! mix crosses a half; but the host only ever takes time away, so the
//! best window is the one that measured the program.

/// Exact nearest-rank percentile: the smallest sample with at least `q`
/// of the population at or below it, never an interpolated value that
/// was not observed (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    // Clock differences are never NaN; were one to appear it sorts last.
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the usual midpoint rule for even counts (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    crossbow::tensor::stats::median(values).unwrap_or(0.0)
}

/// Splits `[first, last]` of the ascending event times into whole
/// windows of `window_ns` and returns the index range of the events in
/// each. The trailing partial window is dropped; when not even one whole
/// window fits, the whole extent is the single window.
fn windows(times_ns: &[u64], window_ns: u64) -> Vec<std::ops::Range<usize>> {
    let (Some(&first), Some(&last)) = (times_ns.first(), times_ns.last()) else {
        return Vec::new();
    };
    let whole = ((last - first) / window_ns.max(1)) as usize;
    if whole == 0 {
        return std::iter::once(0..times_ns.len()).collect();
    }
    (0..whole)
        .map(|w| {
            let lo = first + w as u64 * window_ns;
            let hi = lo + window_ns;
            times_ns.partition_point(|&t| t < lo)..times_ns.partition_point(|&t| t < hi)
        })
        .collect()
}

/// Events per second of the best whole `window_ns` window of the
/// ascending event times. A window's rate is its event count over the
/// time from its first event to the next window's first event, so it is
/// continuous rather than a multiple of `1 / window`. Falls back to
/// count / extent when the run is shorter than one window.
pub fn best_rate_per_s(times_ns: &[u64], window_ns: u64) -> f64 {
    windows(times_ns, window_ns)
        .into_iter()
        .filter_map(|r| {
            let (events, until) = if r.end < times_ns.len() {
                (r.len(), times_ns[r.end])
            } else {
                (r.len().saturating_sub(1), *times_ns.last()?)
            };
            let span_ns = until.checked_sub(*times_ns.get(r.start)?)?;
            (events > 0 && span_ns > 0).then(|| events as f64 * 1e9 / span_ns as f64)
        })
        .fold(0.0, f64::max)
}

/// Gaps between successive event times, in milliseconds, each tagged
/// with the time of the event that ended it.
pub fn gaps_ms(times_ns: &[u64]) -> Vec<(u64, f64)> {
    times_ns
        .windows(2)
        .map(|w| (w[1], (w[1] - w[0]) as f64 / 1e6))
        .collect()
}

/// The `q` percentile of the gaps inside each whole `window_ns` window,
/// then the lowest over windows (0 when there are no gaps). What recurs
/// in every window (a checkpoint every 25 steps) is in it; a stall that
/// some windows escape is not.
pub fn best_windowed_percentile(gaps: &[(u64, f64)], window_ns: u64, q: f64) -> f64 {
    let times: Vec<u64> = gaps.iter().map(|g| g.0).collect();
    windows(&times, window_ns)
        .into_iter()
        .filter(|r| !r.is_empty())
        .map(|r| {
            let vals: Vec<f64> = gaps[r].iter().map(|g| g.1).collect();
            percentile(&vals, q)
        })
        .reduce(f64::min)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Never an interpolated value that was not observed.
        assert_eq!(percentile(&[1.0, 10.0], 0.75), 10.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn window_rate_ignores_slow_windows() {
        // 10 events/s for two seconds, a stalled third second (2 events),
        // then 10/s again: the best window reads 10/s.
        let mut t = Vec::new();
        for s in [0u64, 1, 3, 4] {
            for i in 0..10 {
                t.push(s * 1_000_000_000 + i * 100_000_000);
            }
        }
        t.extend([2_000_000_000, 2_500_000_000]);
        t.sort_unstable();
        t.push(5_000_000_000);
        assert_eq!(best_rate_per_s(&t, 1_000_000_000), 10.0);
        // Continuous, not a multiple of 1/window: 7 events 150 ms apart.
        let slow: Vec<u64> = (0..20u64).map(|i| i * 150_000_000).collect();
        let r = best_rate_per_s(&slow, 1_000_000_000);
        assert!((r - 1e3 / 150.0).abs() < 1e-9, "{r}");
    }

    #[test]
    fn short_runs_fall_back_to_count_over_extent() {
        let t = [0u64, 100_000_000, 200_000_000, 300_000_000];
        let r = best_rate_per_s(&t, 1_000_000_000);
        assert!((r - 10.0).abs() < 1e-9, "{r}");
        assert_eq!(best_rate_per_s(&[], 1_000_000_000), 0.0);
    }

    #[test]
    fn windowed_tail_takes_the_best_window() {
        // Three whole 1 s windows of 1 ms gaps (and a partial fourth); the
        // middle one holds a 50 ms outlier. The per-window max is
        // 1, 50, 1 → best 1.
        let mut times = vec![0u64];
        for i in 1..=4000u64 {
            times.push(i * 1_000_000);
        }
        let mut gaps = gaps_ms(&times);
        gaps[1500].1 = 50.0;
        assert_eq!(best_windowed_percentile(&gaps, 1_000_000_000, 1.0), 1.0);
        assert_eq!(best_windowed_percentile(&[], 1_000_000_000, 0.5), 0.0);
        assert_eq!(
            percentile(&gaps.iter().map(|g| g.1).collect::<Vec<_>>(), 1.0),
            50.0
        );
    }
}
