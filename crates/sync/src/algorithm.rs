//! The synchronisation-algorithm abstraction.
//!
//! Every algorithm manages `k` model replicas, one per learner. Each
//! iteration the training driver:
//!
//! 1. reads the replicas ([`SyncAlgorithm::replica`]) and computes one
//!    gradient per replica, each on its own batch (in parallel threads);
//! 2. hands all `k` gradients to [`SyncAlgorithm::step`], which applies
//!    updates *and* performs the algorithm's synchronisation;
//! 3. evaluates the [`SyncAlgorithm::consensus`] model at epoch ends.
//!
//! The abstraction deliberately matches Figure 4: learners always compute
//! gradients against their own replica; what differs between S-SGD, SMA
//! and EA-SGD is purely what `step` does.

/// A parallel training algorithm over `k` model replicas.
pub trait SyncAlgorithm: Send {
    /// Algorithm name for reports.
    fn name(&self) -> &'static str;

    /// Number of replicas / learners.
    fn k(&self) -> usize;

    /// Parameter length of one replica.
    fn param_len(&self) -> usize;

    /// Current parameters of replica `j` (what learner `j` computes its
    /// gradient against).
    fn replica(&self, j: usize) -> &[f32];

    /// Applies one iteration: `grads[j]` is learner `j`'s gradient
    /// evaluated at `replica(j)`, `lr` the current learning rate.
    fn step(&mut self, grads: &[Vec<f32>], lr: f32);

    /// The model whose accuracy defines convergence (the central average
    /// model for SMA, the single model for S-SGD).
    fn consensus(&self) -> &[f32];

    /// Called when the learning-rate schedule changes; SMA restarts its
    /// averaging process here (§3.2). Default: no-op.
    fn on_lr_change(&mut self) {}

    /// Adds a learner (auto-tuner grows parallelism, §3.4/§4.4). The new
    /// replica must start from the consensus model. Returns `false` when
    /// the algorithm does not support resizing (e.g. S-SGD couples k to
    /// the data partitioning).
    fn add_replica(&mut self) -> bool {
        false
    }

    /// Removes the last learner. Returns `false` when unsupported or when
    /// only one replica remains.
    fn remove_replica(&mut self) -> bool {
        false
    }

    /// Captures the algorithm's complete training state for the
    /// divergence guard's in-memory checkpoint. Default: unsupported.
    fn snapshot(&self) -> Option<AlgoSnapshot> {
        None
    }

    /// Restores a snapshot previously taken from this algorithm. Returns
    /// `false` when unsupported; after a successful restore the state —
    /// including `k` — matches the snapshot exactly.
    fn restore(&mut self, snapshot: &AlgoSnapshot) -> bool {
        let _ = snapshot;
        false
    }
}

/// A point-in-time copy of an algorithm's full training state —
/// `(z, z_prev, replicas, aux, iteration)`. This is the unit of rollback
/// for the divergence guard: restoring one and restarting averaging
/// (§3.2) resumes training from a known-good model. It is the same type
/// a durable checkpoint stores, so a snapshot moves into a checkpoint,
/// and back, without a copy.
pub use crossbow_checkpoint::AlgoState as AlgoSnapshot;

/// Test helper: mean pairwise squared distance between replicas — a
/// measure of replica diversity used by SMA tests.
pub fn replica_spread(algo: &dyn SyncAlgorithm) -> f64 {
    let k = algo.k();
    if k < 2 {
        return 0.0;
    }
    let mut total = 0.0f64;
    let mut pairs = 0usize;
    for i in 0..k {
        for j in (i + 1)..k {
            total += f64::from(crossbow_tensor::ops::dist_sq(
                algo.replica(i),
                algo.replica(j),
            ));
            pairs += 1;
        }
    }
    total / pairs as f64
}
