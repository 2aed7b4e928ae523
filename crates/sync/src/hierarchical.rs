//! Two-level (hierarchical) synchronisation — §3.3 and Figure 6.
//!
//! With multiple learners per GPU, CROSSBOW splits synchronisation by
//! communication scope: learners on one GPU synchronise against a local
//! *reference model* through fast shared memory ("direct application of
//! model difference"), and only the reference models — one per GPU — take
//! part in the global SMA exchange over PCIe.
//!
//! Statistically this is a nested version of Algorithm 1:
//!
//! * **intra-GPU**: replica `w` receives `c = α_l (w − r_g)` toward its
//!   GPU's reference `r_g`, which absorbs `Σ c`;
//! * **inter-GPU**: the references receive SMA corrections
//!   `c_g = α (r_g − z)` and the central model advances
//!   `z ← z + Σ c_g + µ (z − z_prev)`.
//!
//! Integration tests verify it tracks flat SMA's convergence, which is why
//! the engine may use either interchangeably.

use crate::algorithm::{AlgoSnapshot, SyncAlgorithm};
use crate::sma::SmaConfig;
use crossbow_tensor::ops;

/// Hierarchical SMA: groups of replicas (one group per GPU) with local
/// reference models, global SMA across references.
pub struct HierarchicalSma {
    groups: Vec<Group>,
    center: Vec<f32>,
    center_prev: Vec<f32>,
    config: SmaConfig,
    iter: u64,
    sum_c: Vec<f32>,
}

struct Group {
    reference: Vec<f32>,
    replicas: Vec<Vec<f32>>,
}

impl HierarchicalSma {
    /// Creates `gpus` groups of `per_gpu` replicas each, all initialised
    /// to `initial`.
    ///
    /// # Panics
    /// Panics on zero sizes or an empty model.
    pub fn new(initial: Vec<f32>, gpus: usize, per_gpu: usize, config: SmaConfig) -> Self {
        assert!(gpus > 0 && per_gpu > 0, "need at least one learner");
        assert!(!initial.is_empty(), "empty model");
        assert!(config.tau > 0, "tau must be at least 1");
        let len = initial.len();
        let groups = (0..gpus)
            .map(|_| Group {
                reference: initial.clone(),
                replicas: vec![initial.clone(); per_gpu],
            })
            .collect();
        HierarchicalSma {
            groups,
            center_prev: initial.clone(),
            center: initial,
            config,
            iter: 0,
            sum_c: vec![0.0; len],
        }
    }

    /// Number of groups (GPUs).
    pub fn gpus(&self) -> usize {
        self.groups.len()
    }

    /// The reference model of group `g` (test hook).
    pub fn reference(&self, g: usize) -> &[f32] {
        &self.groups[g].reference
    }

    fn locate(&self, j: usize) -> (usize, usize) {
        let mut rest = j;
        for (g, group) in self.groups.iter().enumerate() {
            if rest < group.replicas.len() {
                return (g, rest);
            }
            rest -= group.replicas.len();
        }
        panic!("replica {j} out of range");
    }
}

impl SyncAlgorithm for HierarchicalSma {
    fn name(&self) -> &'static str {
        "sma-hierarchical"
    }

    fn k(&self) -> usize {
        self.groups.iter().map(|g| g.replicas.len()).sum()
    }

    fn param_len(&self) -> usize {
        self.center.len()
    }

    fn replica(&self, j: usize) -> &[f32] {
        let (g, l) = self.locate(j);
        &self.groups[g].replicas[l]
    }

    fn step(&mut self, grads: &[Vec<f32>], lr: f32) {
        assert_eq!(grads.len(), self.k(), "one gradient per learner");
        let sync = self.iter.is_multiple_of(self.config.tau as u64);
        let mut gi = 0usize;
        if sync {
            // Intra-group: replicas toward their reference.
            for group in &mut self.groups {
                let m = group.replicas.len();
                let alpha_l = 1.0 / m as f32;
                for w in &mut group.replicas {
                    let g = &grads[gi];
                    gi += 1;
                    for ((wi, &ggi), ri) in
                        w.iter_mut().zip(g.iter()).zip(group.reference.iter_mut())
                    {
                        let c = alpha_l * (*wi - *ri);
                        *wi -= lr * ggi + c;
                        *ri += c;
                    }
                }
            }
            // Inter-group: references toward the central average model.
            let n_groups = self.groups.len();
            let alpha = self.config.alpha.unwrap_or(1.0 / n_groups as f32);
            ops::zero(&mut self.sum_c);
            for group in &mut self.groups {
                for ((ri, zi), sci) in group
                    .reference
                    .iter_mut()
                    .zip(self.center.iter())
                    .zip(self.sum_c.iter_mut())
                {
                    let c = alpha * (*ri - *zi);
                    *ri -= c;
                    *sci += c;
                }
            }
            let mu = self.config.momentum;
            for ((zi, zpi), &sci) in self
                .center
                .iter_mut()
                .zip(self.center_prev.iter_mut())
                .zip(self.sum_c.iter())
            {
                let old = *zi;
                *zi = old + sci + mu * (old - *zpi);
                *zpi = old;
            }
        } else {
            for group in &mut self.groups {
                for w in &mut group.replicas {
                    ops::axpy(-lr, &grads[gi], w);
                    gi += 1;
                }
            }
        }
        self.iter += 1;
    }

    fn consensus(&self) -> &[f32] {
        &self.center
    }

    fn on_lr_change(&mut self) {
        for group in &mut self.groups {
            group.reference.copy_from_slice(&self.center);
            for w in &mut group.replicas {
                w.copy_from_slice(&self.center);
            }
        }
        self.center_prev.copy_from_slice(&self.center);
        self.iter = 0;
    }

    /// Adds a learner to the least-loaded group, seeded from the centre.
    fn add_replica(&mut self) -> bool {
        let g = self
            .groups
            .iter()
            .enumerate()
            .min_by_key(|(_, g)| g.replicas.len())
            .map(|(i, _)| i)
            .expect("at least one group");
        self.groups[g].replicas.push(self.center.clone());
        true
    }

    fn remove_replica(&mut self) -> bool {
        if self.k() <= 1 {
            return false;
        }
        let g = self
            .groups
            .iter()
            .enumerate()
            .max_by_key(|(_, g)| g.replicas.len())
            .map(|(i, _)| i)
            .expect("at least one group");
        self.groups[g].replicas.pop();
        true
    }

    /// Replicas are flattened in `Self::locate` order; the per-group
    /// reference models travel in `aux` (one entry per group), which also
    /// records the group layout for restore.
    fn snapshot(&self) -> Option<AlgoSnapshot> {
        let mut replicas = Vec::with_capacity(self.k());
        let mut aux = Vec::with_capacity(self.groups.len() + 1);
        // aux[0] records the per-group replica counts so restore can
        // verify the layout; the remaining entries are the references.
        aux.push(
            self.groups
                .iter()
                .map(|g| g.replicas.len() as f32)
                .collect(),
        );
        for group in &self.groups {
            replicas.extend(group.replicas.iter().cloned());
            aux.push(group.reference.clone());
        }
        Some(AlgoSnapshot {
            center: self.center.clone(),
            center_prev: self.center_prev.clone(),
            replicas,
            aux,
            iter: self.iter,
        })
    }

    fn restore(&mut self, snapshot: &AlgoSnapshot) -> bool {
        let len = self.center.len();
        let Some(layout) = snapshot.aux.first() else {
            return false;
        };
        let fits = snapshot.center.len() == len
            && snapshot.center_prev.len() == len
            && layout.len() == self.groups.len()
            && snapshot.aux.len() == self.groups.len() + 1
            && snapshot.aux[1..].iter().all(|r| r.len() == len)
            && layout
                .iter()
                .zip(self.groups.iter())
                .all(|(&n, g)| n as usize == g.replicas.len())
            && snapshot.replicas.len() == self.k()
            && snapshot.replicas.iter().all(|r| r.len() == len);
        if !fits {
            return false;
        }
        self.center.copy_from_slice(&snapshot.center);
        self.center_prev.copy_from_slice(&snapshot.center_prev);
        let mut next = 0usize;
        for (group, reference) in self.groups.iter_mut().zip(&snapshot.aux[1..]) {
            group.reference.copy_from_slice(reference);
            for w in &mut group.replicas {
                w.copy_from_slice(&snapshot.replicas[next]);
                next += 1;
            }
        }
        self.iter = snapshot.iter;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::replica_spread;
    use crate::sma::Sma;

    fn zeros(k: usize, len: usize) -> Vec<Vec<f32>> {
        vec![vec![0.0; len]; k]
    }

    #[test]
    fn layout_maps_learners_to_groups() {
        let h = HierarchicalSma::new(vec![0.0], 2, 3, SmaConfig::default());
        assert_eq!(h.k(), 6);
        assert_eq!(h.gpus(), 2);
        assert_eq!(h.locate(0), (0, 0));
        assert_eq!(h.locate(2), (0, 2));
        assert_eq!(h.locate(3), (1, 0));
        assert_eq!(h.locate(5), (1, 2));
    }

    #[test]
    fn fixed_point_with_zero_gradients() {
        let mut h = HierarchicalSma::new(vec![2.0, -1.0], 2, 2, SmaConfig::default());
        h.step(&zeros(4, 2), 0.1);
        assert_eq!(h.consensus(), &[2.0, -1.0]);
        assert_eq!(replica_spread(&h), 0.0);
    }

    #[test]
    fn converges_on_quadratic_like_flat_sma() {
        let target = 3.0f32;
        let run_hier = || {
            let mut h = HierarchicalSma::new(vec![0.0], 2, 2, SmaConfig::default());
            for _ in 0..300 {
                let grads: Vec<Vec<f32>> = (0..4).map(|j| vec![h.replica(j)[0] - target]).collect();
                h.step(&grads, 0.05);
            }
            h.consensus()[0]
        };
        let run_flat = || {
            let mut s = Sma::new(vec![0.0], 4, SmaConfig::default());
            for _ in 0..300 {
                let grads: Vec<Vec<f32>> = (0..4).map(|j| vec![s.replica(j)[0] - target]).collect();
                s.step(&grads, 0.05);
            }
            s.consensus()[0]
        };
        let (zh, zf) = (run_hier(), run_flat());
        assert!((zh - target).abs() < 0.1, "hierarchical z = {zh}");
        assert!((zh - zf).abs() < 0.1, "hierarchical {zh} tracks flat {zf}");
    }

    #[test]
    fn references_absorb_local_diversity() {
        let mut h = HierarchicalSma::new(vec![0.0], 1, 2, SmaConfig::default());
        h.groups[0].replicas[0] = vec![4.0];
        h.groups[0].replicas[1] = vec![-4.0];
        h.step(&zeros(2, 1), 0.0);
        // Symmetric replicas: reference stays at their mean (0), replicas
        // pulled inward.
        assert!(h.reference(0)[0].abs() < 1e-6);
        assert!(h.replica(0)[0] < 4.0);
        assert!(h.replica(1)[0] > -4.0);
    }

    #[test]
    fn resize_balances_groups() {
        let mut h = HierarchicalSma::new(vec![0.0], 2, 1, SmaConfig::default());
        assert!(h.add_replica());
        assert!(h.add_replica());
        assert_eq!(h.groups[0].replicas.len(), 2);
        assert_eq!(h.groups[1].replicas.len(), 2);
        assert!(h.remove_replica());
        assert_eq!(h.k(), 3);
    }

    #[test]
    fn snapshot_restore_round_trips_exactly() {
        let mut h = HierarchicalSma::new(vec![0.0, 0.0], 2, 2, SmaConfig::default());
        for i in 0..7 {
            let grads: Vec<Vec<f32>> = (0..4)
                .map(|j| vec![0.1 * (i + j) as f32, -0.05 * j as f32])
                .collect();
            h.step(&grads, 0.05);
        }
        let snap = h.snapshot().expect("hierarchical SMA snapshots");
        let mut fresh = HierarchicalSma::new(vec![0.0, 0.0], 2, 2, SmaConfig::default());
        assert!(fresh.restore(&snap));
        // Both must evolve identically from here.
        let grads = vec![vec![0.3, -0.2]; 4];
        h.step(&grads, 0.05);
        fresh.step(&grads, 0.05);
        assert_eq!(h.consensus(), fresh.consensus());
        for j in 0..4 {
            assert_eq!(h.replica(j), fresh.replica(j));
        }
        assert_eq!(h.reference(0), fresh.reference(0));
        assert_eq!(h.reference(1), fresh.reference(1));
    }

    #[test]
    fn restore_refuses_layout_mismatch() {
        let h = HierarchicalSma::new(vec![0.0], 2, 2, SmaConfig::default());
        let snap = h.snapshot().unwrap();
        // Different group count.
        let mut other = HierarchicalSma::new(vec![0.0], 4, 1, SmaConfig::default());
        assert!(!other.restore(&snap));
        // Different parameter length.
        let mut wider = HierarchicalSma::new(vec![0.0, 0.0], 2, 2, SmaConfig::default());
        assert!(!wider.restore(&snap));
        // Missing layout record.
        let mut torn = snap.clone();
        torn.aux.clear();
        let mut same = HierarchicalSma::new(vec![0.0], 2, 2, SmaConfig::default());
        assert!(!same.restore(&torn));
    }

    #[test]
    fn restart_collapses_everything_to_center() {
        let mut h = HierarchicalSma::new(vec![0.0], 2, 2, SmaConfig::default());
        h.groups[1].replicas[0] = vec![9.0];
        h.groups[0].reference = vec![-3.0];
        h.on_lr_change();
        assert_eq!(replica_spread(&h), 0.0);
        assert_eq!(h.reference(0), h.consensus());
        assert_eq!(h.reference(1), h.consensus());
    }
}
