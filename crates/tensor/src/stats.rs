//! Medians.
//!
//! The paper's time-to-accuracy metric is defined on the *median* test
//! accuracy of the last five epochs (§5.1); the trainers track it with a
//! [`WindowedMedian`], and reports take [`median`]s of samples.

/// Median over a sliding window of the last `window` samples.
///
/// The paper's TTA metric uses the median test accuracy of the last five
/// epochs; `WindowedMedian::new(5)` implements exactly that.
#[derive(Clone, Debug)]
pub struct WindowedMedian {
    window: usize,
    buf: Vec<f64>,
    next: usize,
    filled: bool,
}

impl WindowedMedian {
    /// Creates a windowed median over the last `window` samples.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        WindowedMedian {
            window,
            buf: Vec::with_capacity(window),
            next: 0,
            filled: false,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        if self.buf.len() < self.window {
            self.buf.push(x);
            if self.buf.len() == self.window {
                self.filled = true;
            }
        } else {
            self.buf[self.next] = x;
            self.next = (self.next + 1) % self.window;
        }
    }

    /// Median of the current window contents (`None` before any sample).
    ///
    /// With an even count, the mean of the two central values is returned.
    pub fn median(&self) -> Option<f64> {
        if self.buf.is_empty() {
            return None;
        }
        let mut sorted = self.buf.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median window"));
        let n = sorted.len();
        Some(if n % 2 == 1 {
            sorted[n / 2]
        } else {
            0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
        })
    }

    /// True once `window` samples have been seen.
    pub fn is_full(&self) -> bool {
        self.filled
    }
}

/// Median of a slice (convenience for report generation). `None` if empty
/// or if any value is NaN.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("checked for NaN"));
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_median_tracks_last_n() {
        let mut m = WindowedMedian::new(3);
        assert_eq!(m.median(), None);
        m.push(1.0);
        assert_eq!(m.median(), Some(1.0));
        m.push(9.0);
        assert_eq!(m.median(), Some(5.0)); // even count: midpoint
        m.push(2.0);
        assert!(m.is_full());
        assert_eq!(m.median(), Some(2.0));
        m.push(10.0); // evicts 1.0 -> window {9, 2, 10}
        assert_eq!(m.median(), Some(9.0));
        m.push(11.0); // evicts 9.0 -> {2, 10, 11}
        assert_eq!(m.median(), Some(10.0));
    }

    #[test]
    fn median_of_slice() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[1.0, f64::NAN]), None);
    }
}
