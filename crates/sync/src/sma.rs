//! Synchronous model averaging (SMA) — Algorithm 1, the paper's central
//! contribution.
//!
//! `k` learners train independent replicas `w_1..w_k`. Each iteration:
//!
//! 1. learner `j` computes gradient `g_j = γ ∇l_{B_j}(w_j)` (line 8);
//! 2. its correction is `c_j = α (w_j − z)` with `α ≈ 1/k` (line 9);
//! 3. the replica is updated `w_j ← w_j − g_j − c_j` (line 10);
//! 4. the central average model advances with all corrections and Polyak
//!    momentum: `z ← z + Σ_j c_j + µ (z − z_prev)` (line 12).
//!
//! Two extra rules from the text:
//!
//! * **τ-gated synchronisation** (§5.5–5.6): corrections may be applied
//!   every τ-th iteration only (EA-SGD style); the paper shows τ = 1 is
//!   best for time-to-accuracy and uses τ as the knob in Figures 16/17.
//! * **restart on learning-rate change** (§3.2): when the schedule steps,
//!   Algorithm 1 restarts with the current `z` as the new initial model —
//!   replicas are re-seeded from `z` and the momentum history is cleared.
//!
//! [`easgd`] configures the same machinery as elastic averaging SGD \[69\]:
//! no centre momentum (µ = 0). This is the comparator of Figure 15.
//!
//! # The step
//!
//! [`Sma::step`] is one fused pass over the parameters, split into
//! ranges of `STEP_RANGE` elements that the caller and the process's
//! parked [`lanes`] claim. Each range is walked in stack blocks of
//! `STEP_BLOCK` elements: the block's corrections are summed into a
//! stack accumulator, replica by replica, and `z` is updated while the
//! block is still in cache. Every element gets Algorithm 1's operations
//! in Algorithm 1's order (every `c_j` in ascending `j` into a `0.0`
//! accumulator, then `z`), whatever the range, block or thread, so the
//! result is bit-identical to the textbook loop.

use crate::algorithm::{AlgoSnapshot, SyncAlgorithm};
use crossbow_tensor::{lanes, ops};

/// Elements per range a step participant claims: large enough that a
/// claim is rare next to the work, small enough that a lane that wakes
/// late still finds ranges to take.
const STEP_RANGE: usize = 16384;

/// Elements per stack block inside a range (the correction sum's size).
const STEP_BLOCK: usize = 512;

/// SMA hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct SmaConfig {
    /// Centre momentum µ (Polyak). The paper uses 0.9; 0 yields EA-SGD.
    pub momentum: f32,
    /// Correction strength α; `None` uses the paper's `α ≈ 1/k`,
    /// re-derived whenever `k` changes.
    pub alpha: Option<f32>,
    /// Apply corrections every `tau` iterations (1 = every iteration).
    pub tau: usize,
}

impl Default for SmaConfig {
    fn default() -> Self {
        SmaConfig {
            momentum: 0.9,
            alpha: None,
            tau: 1,
        }
    }
}

/// Synchronous model averaging over `k` replicas.
pub struct Sma {
    name: &'static str,
    config: SmaConfig,
    replicas: Vec<Vec<f32>>,
    /// The central average model `z`.
    center: Vec<f32>,
    /// `z` at the beginning of the previous iteration (`z_prev`).
    center_prev: Vec<f32>,
    iter: u64,
}

impl Sma {
    /// Creates SMA with `k` replicas, all initialised to `initial` (the
    /// `w_0` of Algorithm 1).
    ///
    /// # Panics
    /// Panics on `k == 0`, an empty model or `tau == 0`.
    pub fn new(initial: Vec<f32>, k: usize, config: SmaConfig) -> Self {
        assert!(k > 0, "need at least one learner");
        assert!(!initial.is_empty(), "empty model");
        assert!(config.tau > 0, "tau must be at least 1");
        Sma {
            name: "sma",
            config,
            replicas: vec![initial.clone(); k],
            center_prev: initial.clone(),
            center: initial,
            iter: 0,
        }
    }

    fn alpha(&self) -> f32 {
        self.config
            .alpha
            .unwrap_or(1.0 / self.replicas.len() as f32)
    }

    /// The configured τ.
    pub fn tau(&self) -> usize {
        self.config.tau
    }
}

/// The scalars of one step.
#[derive(Clone, Copy)]
struct Update {
    /// Whether this iteration applies corrections (τ gating).
    sync: bool,
    alpha: f32,
    mu: f32,
    lr: f32,
}

/// One claimed range of a step: elements `start..start + z.len()` of
/// every replica, of `z` and of `z_prev`.
struct Range<'a, 'w> {
    start: usize,
    replicas: &'a mut [&'w mut [f32]],
    z: &'a mut [f32],
    z_prev: &'a mut [f32],
}

impl Range<'_, '_> {
    fn step(&mut self, grads: &[Vec<f32>], u: Update) {
        let end = self.start + self.z.len();
        if !u.sync {
            for (w, g) in self.replicas.iter_mut().zip(grads) {
                ops::axpy(-u.lr, &g[self.start..end], w);
            }
            return;
        }
        for b0 in (0..self.z.len()).step_by(STEP_BLOCK) {
            let b1 = (b0 + STEP_BLOCK).min(self.z.len());
            let (g0, g1) = (self.start + b0, self.start + b1);
            let z = &mut self.z[b0..b1];
            let mut sum = [0.0f32; STEP_BLOCK];
            let sum = &mut sum[..z.len()];
            for (w, g) in self.replicas.iter_mut().zip(grads) {
                for ((wi, &gi), (si, &zi)) in w[b0..b1]
                    .iter_mut()
                    .zip(&g[g0..g1])
                    .zip(sum.iter_mut().zip(z.iter()))
                {
                    let c = u.alpha * (*wi - zi);
                    *wi -= u.lr * gi + c;
                    *si += c;
                }
            }
            // z <- z + sum(c) + mu * (z - z_prev); z_prev <- old z.
            for ((zi, zpi), &si) in z.iter_mut().zip(&mut self.z_prev[b0..b1]).zip(sum.iter()) {
                let old = *zi;
                *zi = old + si + u.mu * (old - *zpi);
                *zpi = old;
            }
        }
    }
}

/// Elastic averaging SGD \[69\]: SMA without centre momentum, optionally
/// synchronising only every `tau` iterations to cut communication.
pub fn easgd(initial: Vec<f32>, k: usize, alpha: Option<f32>, tau: usize) -> Sma {
    let mut algo = Sma::new(
        initial,
        k,
        SmaConfig {
            momentum: 0.0,
            alpha,
            tau,
        },
    );
    algo.name = "ea-sgd";
    algo
}

impl SyncAlgorithm for Sma {
    fn name(&self) -> &'static str {
        self.name
    }

    fn k(&self) -> usize {
        self.replicas.len()
    }

    fn param_len(&self) -> usize {
        self.center.len()
    }

    fn replica(&self, j: usize) -> &[f32] {
        &self.replicas[j]
    }

    fn step(&mut self, grads: &[Vec<f32>], lr: f32) {
        let k = self.replicas.len();
        assert_eq!(grads.len(), k, "one gradient per learner");
        let len = self.center.len();
        debug_assert!(grads.iter().all(|g| g.len() == len));
        let update = Update {
            sync: self.iter.is_multiple_of(self.config.tau as u64),
            alpha: self.alpha(),
            mu: self.config.momentum,
            lr,
        };
        // Range `r` of every replica, in range-major order, so that the
        // `k` slices of one range sit together.
        let mut columns: Vec<_> = self
            .replicas
            .iter_mut()
            .map(|w| w.chunks_mut(STEP_RANGE))
            .collect();
        let mut replica_ranges: Vec<&mut [f32]> = Vec::with_capacity(len.div_ceil(STEP_RANGE) * k);
        while let Some(first) = columns[0].next() {
            replica_ranges.push(first);
            replica_ranges.extend(
                columns[1..]
                    .iter_mut()
                    .map(|c| c.next().expect("equal lengths")),
            );
        }
        let mut ranges: Vec<Range<'_, '_>> = replica_ranges
            .chunks_mut(k)
            .zip(self.center.chunks_mut(STEP_RANGE))
            .zip(self.center_prev.chunks_mut(STEP_RANGE))
            .enumerate()
            .map(|(r, ((replicas, z), z_prev))| Range {
                start: r * STEP_RANGE,
                replicas,
                z,
                z_prev,
            })
            .collect();
        lanes::for_each(&mut ranges, |range| range.step(grads, update));
        self.iter += 1;
    }

    fn consensus(&self) -> &[f32] {
        &self.center
    }

    /// Restart (§3.2): Algorithm 1 is executed again with the latest `z`
    /// as the new initial model.
    fn on_lr_change(&mut self) {
        for w in &mut self.replicas {
            w.copy_from_slice(&self.center);
        }
        self.center_prev.copy_from_slice(&self.center);
        self.iter = 0;
    }

    /// The auto-tuner adds a learner: the new replica "is initialised with
    /// the latest value of the average model" (§4.4).
    fn add_replica(&mut self) -> bool {
        self.replicas.push(self.center.clone());
        true
    }

    fn remove_replica(&mut self) -> bool {
        if self.replicas.len() > 1 {
            self.replicas.pop();
            true
        } else {
            false
        }
    }

    fn snapshot(&self) -> Option<AlgoSnapshot> {
        Some(AlgoSnapshot {
            center: self.center.clone(),
            center_prev: self.center_prev.clone(),
            replicas: self.replicas.clone(),
            aux: Vec::new(),
            iter: self.iter,
        })
    }

    /// Per the trait contract, a snapshot that cannot fit this algorithm
    /// (taken from a different model) is refused with `false`, leaving the
    /// current state untouched — it does not panic.
    fn restore(&mut self, snapshot: &AlgoSnapshot) -> bool {
        let len = self.center.len();
        let fits = snapshot.center.len() == len
            && snapshot.center_prev.len() == len
            && !snapshot.replicas.is_empty()
            && snapshot.replicas.iter().all(|r| r.len() == len);
        if !fits {
            return false;
        }
        self.center.copy_from_slice(&snapshot.center);
        self.center_prev.copy_from_slice(&snapshot.center_prev);
        self.replicas = snapshot.replicas.clone();
        self.iter = snapshot.iter;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::replica_spread;

    fn zeros(k: usize, len: usize) -> Vec<Vec<f32>> {
        vec![vec![0.0; len]; k]
    }

    #[test]
    fn consensus_fixed_point_with_zero_gradients() {
        // All replicas at z, zero gradients: nothing moves.
        let mut sma = Sma::new(vec![1.0, -2.0], 3, SmaConfig::default());
        sma.step(&zeros(3, 2), 0.1);
        assert_eq!(sma.consensus(), &[1.0, -2.0]);
        assert_eq!(replica_spread(&sma), 0.0);
    }

    #[test]
    fn center_becomes_replica_mean_with_alpha_one_over_k() {
        // With mu = 0 and zero gradients, one step moves z to the replica
        // mean exactly: z + (1/k) sum(w_j - z) = mean(w_j).
        let mut sma = easgd(vec![0.0], 2, None, 1);
        sma.replicas[0] = vec![2.0];
        sma.replicas[1] = vec![6.0];
        sma.step(&zeros(2, 1), 0.0);
        assert!((sma.consensus()[0] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn corrections_pull_replicas_toward_center() {
        let mut sma = Sma::new(vec![0.0, 0.0], 2, SmaConfig::default());
        sma.replicas[0] = vec![4.0, 0.0];
        sma.replicas[1] = vec![-4.0, 0.0];
        let before = replica_spread(&sma);
        sma.step(&zeros(2, 2), 0.0);
        let after = replica_spread(&sma);
        assert!(after < before, "spread {before} -> {after}");
    }

    #[test]
    fn momentum_keeps_center_moving() {
        // Give z one kick via corrections, then confirm momentum carries
        // it further with zero future corrections.
        let mut sma = Sma::new(
            vec![0.0],
            1,
            SmaConfig {
                momentum: 0.9,
                alpha: Some(0.5),
                tau: 1,
            },
        );
        sma.replicas[0] = vec![2.0]; // correction = 1.0 -> z = 1.0
        sma.step(&zeros(1, 1), 0.0);
        let z1 = sma.consensus()[0];
        assert!((z1 - 1.0).abs() < 1e-6);
        // Pin replica to z so corrections are 0; momentum term = 0.9 * 1.
        sma.replicas[0] = vec![z1];
        sma.step(&zeros(1, 1), 0.0);
        assert!((sma.consensus()[0] - 1.9).abs() < 1e-6);
    }

    #[test]
    fn step_pins_algorithm_1_arithmetic_bit_for_bit() {
        // Pin the exact §3.1/Algorithm 1 update, including evaluation
        // order, so in-place rewrites of the hot loop cannot silently
        // change it:
        //   c_j = alpha * (w_j - z)
        //   w_j <- w_j - lr*g_j - c_j
        //   z   <- z + sum_j(c_j) + mu * (z - z_prev); z_prev <- old z
        let (alpha, mu, lr) = (0.25f32, 0.9f32, 0.1f32);
        let mut sma = Sma::new(
            vec![1.0, -2.0],
            2,
            SmaConfig {
                momentum: mu,
                alpha: Some(alpha),
                tau: 1,
            },
        );
        sma.replicas[0] = vec![1.5, -1.0];
        sma.replicas[1] = vec![0.5, -3.0];
        let grads = vec![vec![0.3, -0.7], vec![-0.2, 0.4]];
        let (mut z, mut z_prev) = (vec![1.0f32, -2.0], vec![1.0f32, -2.0]);
        let mut w: Vec<Vec<f32>> = sma.replicas.clone();
        for _ in 0..3 {
            let mut sum_c = [0.0f32; 2];
            for (wj, gj) in w.iter_mut().zip(&grads) {
                for i in 0..2 {
                    let c = alpha * (wj[i] - z[i]);
                    wj[i] -= lr * gj[i] + c;
                    sum_c[i] += c;
                }
            }
            for i in 0..2 {
                let old = z[i];
                z[i] = old + sum_c[i] + mu * (old - z_prev[i]);
                z_prev[i] = old;
            }
            sma.step(&grads, lr);
        }
        assert_eq!(sma.consensus(), z.as_slice());
        assert_eq!(sma.replica(0), w[0].as_slice());
        assert_eq!(sma.replica(1), w[1].as_slice());
    }

    /// Algorithm 1 as textbook serial loops (one pass per replica, then
    /// one for `z`) over whole vectors: the oracle of the property test.
    struct Serial {
        w: Vec<Vec<f32>>,
        z: Vec<f32>,
        z_prev: Vec<f32>,
        iter: u64,
    }

    impl Serial {
        fn step(&mut self, grads: &[Vec<f32>], lr: f32, alpha: f32, mu: f32, tau: u64) {
            if self.iter.is_multiple_of(tau) {
                let mut sum_c = vec![0.0f32; self.z.len()];
                for (w, g) in self.w.iter_mut().zip(grads) {
                    for ((wi, &gi), (sci, &zi)) in
                        w.iter_mut().zip(g).zip(sum_c.iter_mut().zip(&self.z))
                    {
                        let c = alpha * (*wi - zi);
                        *wi -= lr * gi + c;
                        *sci += c;
                    }
                }
                for ((zi, zpi), &sci) in self.z.iter_mut().zip(&mut self.z_prev).zip(&sum_c) {
                    let old = *zi;
                    *zi = old + sci + mu * (old - *zpi);
                    *zpi = old;
                }
            } else {
                for (w, g) in self.w.iter_mut().zip(grads) {
                    ops::axpy(-lr, g, w);
                }
            }
            self.iter += 1;
        }
    }

    #[test]
    fn range_parallel_step_matches_the_serial_loops_bit_for_bit() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Participants in a step: the caller and every lane.
        let w = std::thread::available_parallelism().map_or(1, |p| p.get());
        let lengths = [1, 63, 64 * w + 5, 3 * STEP_RANGE + STEP_BLOCK + 5];
        let mut rng = crossbow_tensor::Rng::new(11);
        for len in lengths {
            for k in [1, 2, 4] {
                for tau in [1, 2] {
                    let mut normal = |n: usize| (0..n).map(|_| rng.normal()).collect::<Vec<f32>>();
                    let init = normal(len);
                    let config = SmaConfig {
                        tau,
                        ..SmaConfig::default()
                    };
                    let mut sma = Sma::new(init.clone(), k, config);
                    for j in 0..k {
                        sma.replicas[j] = normal(len);
                    }
                    let mut serial = Serial {
                        w: sma.replicas.clone(),
                        z: init.clone(),
                        z_prev: init,
                        iter: 0,
                    };
                    for t in 0..9 {
                        if t == 5 {
                            // A learning-rate change restarts Algorithm 1.
                            sma.on_lr_change();
                            for wj in &mut serial.w {
                                wj.copy_from_slice(&serial.z);
                            }
                            serial.z_prev.copy_from_slice(&serial.z);
                            serial.iter = 0;
                        }
                        let lr = if t < 5 { 0.1 } else { 0.01 };
                        let grads: Vec<Vec<f32>> = (0..k).map(|_| normal(len)).collect();
                        sma.step(&grads, lr);
                        let alpha = 1.0 / k as f32;
                        serial.step(&grads, lr, alpha, 0.9, tau as u64);
                        let ctx = format!("len {len}, k {k}, tau {tau}, step {t}");
                        assert_eq!(bits(sma.consensus()), bits(&serial.z), "z, {ctx}");
                        assert_eq!(
                            bits(&sma.center_prev),
                            bits(&serial.z_prev),
                            "z_prev, {ctx}"
                        );
                        for j in 0..k {
                            assert_eq!(bits(sma.replica(j)), bits(&serial.w[j]), "w_{j}, {ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn easgd_has_no_momentum() {
        let mut e = easgd(vec![0.0], 1, Some(0.5), 1);
        e.replicas[0] = vec![2.0];
        e.step(&zeros(1, 1), 0.0);
        let z1 = e.consensus()[0];
        e.replicas[0] = vec![z1];
        e.step(&zeros(1, 1), 0.0);
        assert!(
            (e.consensus()[0] - z1).abs() < 1e-6,
            "no drift without momentum"
        );
        assert_eq!(e.name(), "ea-sgd");
    }

    #[test]
    fn tau_gates_synchronisation() {
        let mut sma = Sma::new(
            vec![0.0],
            1,
            SmaConfig {
                momentum: 0.0,
                alpha: Some(0.5),
                tau: 3,
            },
        );
        // Iteration 0 syncs (0 % 3 == 0); 1 and 2 do not.
        sma.replicas[0] = vec![2.0];
        sma.step(&zeros(1, 1), 0.0);
        assert!((sma.consensus()[0] - 1.0).abs() < 1e-6, "iter 0 synced");
        sma.replicas[0] = vec![100.0];
        sma.step(&zeros(1, 1), 0.0); // iter 1: no sync
        sma.step(&zeros(1, 1), 0.0); // iter 2: no sync
        assert!((sma.consensus()[0] - 1.0).abs() < 1e-6, "no sync at 1, 2");
        sma.step(&zeros(1, 1), 0.0); // iter 3: sync
        assert!(sma.consensus()[0] > 1.0, "iter 3 synced");
    }

    #[test]
    fn restart_reseeds_replicas_from_center() {
        let mut sma = Sma::new(vec![0.0, 0.0], 3, SmaConfig::default());
        sma.replicas[0] = vec![5.0, 5.0];
        sma.replicas[2] = vec![-1.0, 3.0];
        sma.on_lr_change();
        assert_eq!(replica_spread(&sma), 0.0);
        for j in 0..3 {
            assert_eq!(sma.replica(j), sma.consensus());
        }
    }

    #[test]
    fn add_replica_starts_from_center() {
        let mut sma = Sma::new(vec![1.5], 2, SmaConfig::default());
        assert!(sma.add_replica());
        assert_eq!(sma.k(), 3);
        assert_eq!(sma.replica(2), sma.consensus());
        assert!(sma.remove_replica());
        assert_eq!(sma.k(), 2);
    }

    #[test]
    fn remove_keeps_at_least_one() {
        let mut sma = Sma::new(vec![0.0], 1, SmaConfig::default());
        assert!(!sma.remove_replica());
        assert_eq!(sma.k(), 1);
    }

    #[test]
    fn gradients_descend_replicas() {
        let mut sma = Sma::new(vec![0.0], 2, SmaConfig::default());
        sma.step(&[vec![1.0], vec![1.0]], 0.5);
        // Replicas moved by -lr*g (corrections were zero: all at z).
        assert!((sma.replica(0)[0] + 0.5).abs() < 1e-6);
    }

    #[test]
    fn sma_converges_on_a_quadratic() {
        // Minimise f(w) = 0.5 (w - 3)^2 with 4 learners whose gradients
        // are exact; z must approach 3.
        let mut sma = Sma::new(vec![0.0], 4, SmaConfig::default());
        for _ in 0..300 {
            let grads: Vec<Vec<f32>> = (0..4).map(|j| vec![sma.replica(j)[0] - 3.0]).collect();
            sma.step(&grads, 0.05);
        }
        let z = sma.consensus()[0];
        assert!((z - 3.0).abs() < 0.05, "z = {z}");
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut sma = Sma::new(vec![0.0, 0.0], 3, SmaConfig::default());
        for i in 0..5 {
            let grads: Vec<Vec<f32>> = (0..3).map(|j| vec![0.1 * (i + j) as f32, -0.2]).collect();
            sma.step(&grads, 0.1);
        }
        let snap = sma.snapshot().expect("sma supports snapshots");
        let center_at_snap = sma.consensus().to_vec();
        // Diverge wildly, then roll back.
        sma.step(&[vec![1e9, 1e9], vec![1e9, 1e9], vec![1e9, 1e9]], 1.0);
        assert_ne!(sma.consensus(), center_at_snap.as_slice());
        assert!(sma.restore(&snap));
        assert_eq!(sma.consensus(), center_at_snap.as_slice());
        assert_eq!(sma.snapshot().unwrap(), snap, "full state restored");
        // The restored state steps identically to the original.
        let replay = |mut algo: Sma| {
            algo.step(&zeros(3, 2), 0.05);
            algo.consensus().to_vec()
        };
        let mut from_snap = Sma::new(vec![0.0, 0.0], 3, SmaConfig::default());
        assert!(from_snap.restore(&snap));
        assert_eq!(replay(sma), replay(from_snap));
    }

    #[test]
    fn mismatched_snapshot_is_refused_not_panicking() {
        // Regression: `restore` used to assert on a shape mismatch; the
        // trait contract says it must return `false` and leave the state
        // untouched.
        let mut sma = Sma::new(vec![1.0, 2.0], 2, SmaConfig::default());
        let before = sma.snapshot().expect("sma supports snapshots");
        let foreign = Sma::new(vec![0.0; 3], 2, SmaConfig::default())
            .snapshot()
            .expect("snapshot");
        assert!(!sma.restore(&foreign), "wrong model size must be refused");
        // A torn snapshot (replica length disagrees with the centre) is
        // refused too.
        let mut torn = before.clone();
        torn.replicas[1] = vec![0.0; 5];
        assert!(!sma.restore(&torn));
        let mut empty = before.clone();
        empty.replicas.clear();
        assert!(!sma.restore(&empty), "a snapshot without replicas is torn");
        assert_eq!(sma.snapshot().unwrap(), before, "state left untouched");
    }

    #[test]
    fn alpha_defaults_to_one_over_k() {
        let sma = Sma::new(vec![0.0], 8, SmaConfig::default());
        assert!((sma.alpha() - 0.125).abs() < 1e-9);
        let sma = Sma::new(
            vec![0.0],
            8,
            SmaConfig {
                alpha: Some(0.3),
                ..SmaConfig::default()
            },
        );
        assert!((sma.alpha() - 0.3).abs() < 1e-9);
    }
}
