//! The checkpointed training state and its binary encoding.

use crate::codec::{DecodeError, Reader, Writer};
use crossbow_tensor::RngState;

/// Position of the data pipeline: which shuffle epoch the sampler is in
/// and how many batches of it have been handed out. Replaying the
/// per-epoch reshuffles from the seed and skipping `batch` batches puts a
/// fresh sampler in exactly this position, so resume restarts mid-epoch at
/// the right batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DataCursor {
    /// Shuffle epoch the sampler is positioned in.
    pub epoch: u64,
    /// Batches (lockstep rounds, when partitioned) already drawn within
    /// that epoch.
    pub batch: u64,
    /// Partition groups the sampler was split into; 0 = unpartitioned
    /// (a single `BatchSampler`). A resume refuses a mismatch, since the
    /// index streams of a partitioned and an unpartitioned run differ.
    pub groups: u64,
}

/// A synchronisation algorithm's complete state, both in a checkpoint
/// and in memory (the sync crate's `AlgoSnapshot` is this type). `aux`
/// carries whatever per-algorithm extras exist beyond centre/replicas —
/// S-SGD's optimiser velocity, hierarchical SMA's per-group reference
/// models.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AlgoState {
    /// The consensus / central average model `z`.
    pub center: Vec<f32>,
    /// `z_prev`, carrying the Polyak momentum history.
    pub center_prev: Vec<f32>,
    /// All replicas.
    pub replicas: Vec<Vec<f32>>,
    /// Algorithm-specific auxiliary buffers (momentum, references, …).
    pub aux: Vec<Vec<f32>>,
    /// The iteration counter (the τ phase).
    pub iter: u64,
}

/// Everything a crashed run needs to continue bit-exactly.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrainingState {
    /// Master seed of the run; a resume under a different seed is refused.
    pub seed: u64,
    /// Algorithm name, as a consistency check at restore time.
    pub algorithm: String,
    /// Applied synchronisation iterations so far.
    pub iterations: u64,
    /// Training samples consumed so far.
    pub samples_processed: u64,
    /// Loop passes so far (counts discarded NaN attempts too, so the
    /// deterministic fault-injection hooks stay aligned after resume).
    pub attempt: u64,
    /// Current epoch of the learning-rate schedule.
    pub current_epoch: u64,
    /// Running loss sum of the unfinished epoch.
    pub epoch_loss_sum: f64,
    /// Running loss count of the unfinished epoch.
    pub epoch_loss_count: u64,
    /// Best epoch-end accuracy so far (the guard's collapse baseline).
    pub best_accuracy: f64,
    /// Divergence-guard rollbacks performed so far.
    pub rollbacks: u32,
    /// Epoch at which the TTA target was met, when it already was.
    pub epochs_to_target: Option<u64>,
    /// Accuracy after each completed epoch.
    pub epoch_accuracy: Vec<f64>,
    /// Mean training loss of each completed epoch.
    pub epoch_loss: Vec<f32>,
    /// Data-pipeline position.
    pub cursor: DataCursor,
    /// The algorithm's full state.
    pub algo: AlgoState,
    /// The divergence guard's in-memory checkpoint, when the guard is on.
    pub guard: Option<AlgoState>,
    /// Raw state of every RNG stream the run owns, in a driver-defined
    /// order (the synchronous trainer stores its sampler stream first).
    pub rngs: Vec<RngState>,
    /// Auto-tuned learners per GPU, so a resumed session skips re-tuning;
    /// 0 = unknown / not applicable.
    pub learners_per_gpu: u32,
}

fn write_algo(w: &mut Writer, a: &AlgoState) {
    w.f32_slice(&a.center);
    w.f32_slice(&a.center_prev);
    w.f32_slices(&a.replicas);
    w.f32_slices(&a.aux);
    w.u64(a.iter);
}

fn read_algo(r: &mut Reader<'_>) -> Result<AlgoState, DecodeError> {
    Ok(AlgoState {
        center: r.f32_vec()?,
        center_prev: r.f32_vec()?,
        replicas: r.f32_vecs()?,
        aux: r.f32_vecs()?,
        iter: r.u64()?,
    })
}

impl TrainingState {
    /// Whether this state belongs to a run with this seed, algorithm
    /// name and parameter count: the one fit test every resume applies
    /// before it trusts a checkpoint.
    pub fn fits(&self, seed: u64, algorithm: &str, param_len: usize) -> bool {
        self.seed == seed
            && self.algorithm == algorithm
            && self.algo.center.len() == param_len
            && self.algo.center_prev.len() == param_len
    }

    /// Serialises the state to the stable little-endian payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.seed);
        w.str(&self.algorithm);
        w.u64(self.iterations);
        w.u64(self.samples_processed);
        w.u64(self.attempt);
        w.u64(self.current_epoch);
        w.f64(self.epoch_loss_sum);
        w.u64(self.epoch_loss_count);
        w.f64(self.best_accuracy);
        w.u32(self.rollbacks);
        w.opt_u64(self.epochs_to_target);
        w.f64_slice(&self.epoch_accuracy);
        w.f32_slice(&self.epoch_loss);
        w.u64(self.cursor.epoch);
        w.u64(self.cursor.batch);
        w.u64(self.cursor.groups);
        write_algo(&mut w, &self.algo);
        match &self.guard {
            Some(g) => {
                w.u8(1);
                write_algo(&mut w, g);
            }
            None => w.u8(0),
        }
        w.u64(self.rngs.len() as u64);
        for rng in &self.rngs {
            w.u64(rng.state);
            w.u64(rng.inc);
            w.opt_f32(rng.spare_normal);
        }
        w.u32(self.learners_per_gpu);
        w.into_bytes()
    }

    /// Deserialises a payload produced by [`TrainingState::encode`].
    /// Rejects trailing garbage as well as truncation, so any corruption
    /// the checksum somehow missed still cannot produce a silently wrong
    /// state.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let seed = r.u64()?;
        let algorithm = r.str()?;
        let iterations = r.u64()?;
        let samples_processed = r.u64()?;
        let attempt = r.u64()?;
        let current_epoch = r.u64()?;
        let epoch_loss_sum = r.f64()?;
        let epoch_loss_count = r.u64()?;
        let best_accuracy = r.f64()?;
        let rollbacks = r.u32()?;
        let epochs_to_target = r.opt_u64()?;
        let epoch_accuracy = r.f64_vec()?;
        let epoch_loss = r.f32_vec()?;
        let cursor = DataCursor {
            epoch: r.u64()?,
            batch: r.u64()?,
            groups: r.u64()?,
        };
        let algo = read_algo(&mut r)?;
        let guard = match r.u8()? {
            0 => None,
            1 => Some(read_algo(&mut r)?),
            _ => return Err(DecodeError("invalid guard tag")),
        };
        let n_rngs = r.u64()?;
        let mut rngs = Vec::new();
        for _ in 0..n_rngs {
            rngs.push(RngState {
                state: r.u64()?,
                inc: r.u64()?,
                spare_normal: r.opt_f32()?,
            });
        }
        let learners_per_gpu = r.u32()?;
        if !r.is_empty() {
            return Err(DecodeError("trailing bytes after payload"));
        }
        Ok(TrainingState {
            seed,
            algorithm,
            iterations,
            samples_processed,
            attempt,
            current_epoch,
            epoch_loss_sum,
            epoch_loss_count,
            best_accuracy,
            rollbacks,
            epochs_to_target,
            epoch_accuracy,
            epoch_loss,
            cursor,
            algo,
            guard,
            rngs,
            learners_per_gpu,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> TrainingState {
        TrainingState {
            seed: 42,
            algorithm: "sma".to_string(),
            iterations: 123,
            samples_processed: 123 * 32,
            attempt: 125,
            current_epoch: 3,
            epoch_loss_sum: 17.25,
            epoch_loss_count: 9,
            best_accuracy: 0.91,
            rollbacks: 1,
            epochs_to_target: Some(2),
            epoch_accuracy: vec![0.5, 0.8, 0.91],
            epoch_loss: vec![1.2, 0.6, 0.3],
            cursor: DataCursor {
                epoch: 3,
                batch: 7,
                groups: 2,
            },
            algo: AlgoState {
                center: vec![1.0, -2.0],
                center_prev: vec![0.5, -1.5],
                replicas: vec![vec![1.1, -2.1], vec![0.9, -1.9]],
                aux: vec![vec![0.01, -0.02]],
                iter: 123,
            },
            guard: Some(AlgoState {
                center: vec![0.0, 0.0],
                center_prev: vec![0.0, 0.0],
                replicas: vec![vec![0.0, 0.0]],
                aux: vec![],
                iter: 100,
            }),
            rngs: vec![crossbow_tensor::RngState {
                state: 99,
                inc: 101,
                spare_normal: Some(-0.75),
            }],
            learners_per_gpu: 4,
        }
    }

    #[test]
    fn fits_only_its_own_run() {
        let state = sample_state();
        assert!(state.fits(42, "sma", 2));
        assert!(!state.fits(43, "sma", 2), "another seed");
        assert!(!state.fits(42, "ea-sgd", 2), "another algorithm");
        assert!(!state.fits(42, "sma", 3), "another model");
        let mut torn = sample_state();
        torn.algo.center_prev.pop();
        assert!(!torn.fits(42, "sma", 2), "a torn centre");
    }

    #[test]
    fn encode_decode_round_trips() {
        let state = sample_state();
        let decoded = TrainingState::decode(&state.encode()).expect("decodes");
        assert_eq!(decoded, state);
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample_state().encode();
        for cut in 0..bytes.len() {
            assert!(
                TrainingState::decode(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes must fail"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample_state().encode();
        bytes.push(0);
        assert!(TrainingState::decode(&bytes).is_err());
    }

    #[test]
    fn default_state_round_trips() {
        let state = TrainingState::default();
        assert_eq!(TrainingState::decode(&state.encode()).unwrap(), state);
    }
}
