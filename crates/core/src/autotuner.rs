//! Auto-tuning the number of learners per GPU (Algorithm 2, §3.4, §4.4).
//!
//! The auto-tuner watches the training throughput reported by the task
//! manager. Starting from one learner per GPU, it adds a learner whenever
//! throughput grew by more than a tolerance `τ` since the last
//! observation, and removes one when throughput *fell*. On a server with
//! homogeneous GPUs one throughput signal tunes all GPUs (§4.4).
//!
//! The tuner is a pure decision procedure — the engine applies its
//! [`Action`]s by pausing the pipeline, allocating a replica initialised
//! from the average model, and resuming (§4.4). That separation makes it
//! directly testable against Algorithm 2.

/// A resize decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Add one learner per GPU.
    AddLearner,
    /// Remove one learner per GPU.
    RemoveLearner,
    /// Keep the current configuration.
    Keep,
}

/// Algorithm 2 over one throughput signal.
#[derive(Clone, Debug)]
pub struct AutoTuner {
    /// Tolerance τ: minimum throughput gain (images/s) that justifies
    /// another learner.
    tolerance: f64,
    /// Current learners per GPU.
    learners: usize,
    /// Throughput observed at the previous decision point (`t'` in
    /// Algorithm 2).
    prev_throughput: f64,
    /// Whether the tuner has settled (stopped changing the count).
    settled: bool,
    /// Whether the last decision added a learner.
    last_added: bool,
}

impl AutoTuner {
    /// Creates a tuner with the given tolerance, starting from one
    /// learner per GPU (Algorithm 2, line 1).
    ///
    /// # Panics
    /// Panics if the tolerance is negative or not finite.
    pub fn new(tolerance: f64) -> Self {
        assert!(
            tolerance.is_finite() && tolerance >= 0.0,
            "bad tolerance {tolerance}"
        );
        AutoTuner {
            tolerance,
            learners: 1,
            prev_throughput: 0.0,
            settled: false,
            last_added: false,
        }
    }

    /// Current learners per GPU.
    pub fn learners(&self) -> usize {
        self.learners
    }

    /// True once the tuner has stopped changing the configuration.
    pub fn is_settled(&self) -> bool {
        self.settled
    }

    /// Observes the current throughput (images/s) and decides
    /// (Algorithm 2, lines 5–8).
    ///
    /// One refinement over the algorithm listing implements the paper's
    /// stated intent — "it then uses the number of learners that resulted
    /// in *peak* throughput" (§1): when the last added learner produced a
    /// below-tolerance gain, the tuner backs it off rather than keeping a
    /// learner that buys nothing.
    pub fn observe(&mut self, throughput: f64) -> Action {
        assert!(throughput.is_finite() && throughput >= 0.0);
        let gained = throughput - self.prev_throughput > self.tolerance;
        let degraded = throughput < self.prev_throughput;
        let action = if gained {
            self.learners += 1;
            self.last_added = true;
            Action::AddLearner
        } else if (degraded || self.last_added) && self.learners > 1 {
            // Either throughput fell, or the learner we just added was not
            // worth its tolerance: back off and settle.
            self.learners -= 1;
            self.last_added = false;
            self.settled = true;
            Action::RemoveLearner
        } else {
            self.last_added = false;
            self.settled = true;
            Action::Keep
        };
        self.prev_throughput = throughput;
        action
    }
}

/// The tuner's throughput tolerance, as a fraction of the one-learner
/// throughput (Algorithm 2's τ parameter).
pub const TUNER_TOLERANCE: f64 = 0.05;

/// Cap on the learners per GPU the tuner may reach.
pub const MAX_LEARNERS_PER_GPU: usize = 8;

/// Runs the tuner against a throughput oracle until it settles (or a step
/// cap is hit) and returns `(chosen learners per GPU, the (m, throughput)
/// observations)`. The oracle is typically a GPU-simulator run; tests use
/// closed-form curves.
pub fn tune_to_convergence(
    tolerance: f64,
    max_learners: usize,
    mut oracle: impl FnMut(usize) -> f64,
) -> (usize, Vec<(usize, f64)>) {
    assert!(max_learners >= 1);
    let mut tuner = AutoTuner::new(tolerance);
    let mut observations = Vec::new();
    // Algorithm 2 observes the throughput of the *current* configuration,
    // then adapts.
    for _ in 0..max_learners + 2 {
        let m = tuner.learners();
        let t = oracle(m);
        observations.push((m, t));
        match tuner.observe(t) {
            Action::AddLearner if tuner.learners() <= max_learners => {}
            Action::AddLearner => {
                // Hit the cap: stay at the cap.
                return (max_learners, observations);
            }
            Action::RemoveLearner | Action::Keep => {
                return (tuner.learners(), observations);
            }
        }
    }
    (tuner.learners(), observations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_with_one_learner() {
        let t = AutoTuner::new(10.0);
        assert_eq!(t.learners(), 1);
        assert!(!t.is_settled());
    }

    #[test]
    fn growing_throughput_adds_learners() {
        let mut t = AutoTuner::new(10.0);
        assert_eq!(t.observe(100.0), Action::AddLearner);
        assert_eq!(t.observe(150.0), Action::AddLearner);
        assert_eq!(t.learners(), 3);
    }

    #[test]
    fn plateau_backs_off_the_useless_learner() {
        let mut t = AutoTuner::new(10.0);
        t.observe(100.0); // -> 2
                          // The second learner gained only 5 images/s: not worth it.
        assert_eq!(t.observe(105.0), Action::RemoveLearner);
        assert_eq!(t.learners(), 1);
        assert!(t.is_settled());
        // A later plateau at the same count keeps it.
        assert_eq!(t.observe(105.0), Action::Keep);
        assert_eq!(t.learners(), 1);
    }

    #[test]
    fn drop_removes_a_learner() {
        let mut t = AutoTuner::new(10.0);
        t.observe(100.0); // -> 2
        t.observe(150.0); // -> 3
        assert_eq!(t.observe(140.0), Action::RemoveLearner);
        assert_eq!(t.learners(), 2);
    }

    #[test]
    fn never_removes_below_one() {
        let mut t = AutoTuner::new(0.5);
        t.observe(10.0); // -> 2
        t.observe(5.0); // -> 1
        assert_eq!(t.observe(1.0), Action::Keep);
        assert_eq!(t.learners(), 1);
    }

    #[test]
    fn finds_the_knee_of_a_saturating_curve() {
        // Throughput grows to m = 4 then plateaus: the tuner must settle
        // at 4 (the paper's Figure 14 behaviour: best m saturates
        // throughput).
        let curve = |m: usize| match m {
            1 => 1000.0,
            2 => 1500.0,
            3 => 1800.0,
            4 => 2000.0,
            _ => 2010.0, // within tolerance: not worth another learner
        };
        let (m, obs) = tune_to_convergence(50.0, 8, curve);
        assert_eq!(m, 4, "observations: {obs:?}");
    }

    #[test]
    fn backs_off_when_throughput_degrades() {
        // Throughput peaks at m = 3 then falls (over-sequentialised GPU,
        // §3.4): the tuner must back off to 3.
        let curve = |m: usize| match m {
            1 => 1000.0,
            2 => 1600.0,
            3 => 1900.0,
            _ => 1700.0,
        };
        let (m, _) = tune_to_convergence(50.0, 8, curve);
        assert_eq!(m, 3);
    }

    #[test]
    fn respects_learner_cap() {
        let (m, _) = tune_to_convergence(1.0, 4, |m| (m * 1000) as f64);
        assert_eq!(m, 4);
    }

    #[test]
    fn flat_curve_stays_at_one() {
        // First observation from 0 always adds (any throughput beats
        // nothing), then the flat curve stops it at 2 -> removal -> 1.
        let (m, _) = tune_to_convergence(10.0, 8, |_| 500.0);
        assert!(m <= 2, "flat curve must not grow: {m}");
    }
}
