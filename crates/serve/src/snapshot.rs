//! Checkpoint-backed snapshot exchange.
//!
//! The PR-2 checkpoint format is the model-exchange medium between
//! training and serving: a trainer (or [`export_snapshot`]) writes a
//! `TrainingState` whose `algo.center` is the deployable consensus model
//! `z`, and [`load_into`] publishes the newest valid one into a
//! [`SnapshotRegistry`]. Because only `center` is read, a serving process
//! can point directly at a live training checkpoint directory — the
//! corruption fallback and atomic-write guarantees carry over for free.

use crate::registry::{ModelSnapshot, SnapshotRegistry};
use crossbow_checkpoint::{
    AlgoState, CheckpointError, CheckpointStore, RetentionPolicy, TrainingState,
};
use std::path::Path;

/// The `algorithm` tag of checkpoints written by [`export_snapshot`].
///
/// Distinct from every trainer algorithm name, and exported snapshots
/// carry no RNG streams, so the trainer's `resume` can never mistake one
/// for a resumable training state.
pub const SNAPSHOT_ALGORITHM: &str = "serve-snapshot";

/// Why a checkpointed model could not be imported.
#[derive(Debug)]
pub enum ImportError {
    /// The store could not be opened or read.
    Checkpoint(CheckpointError),
    /// The checkpointed model does not fit the registry's spec.
    Mismatch {
        /// Parameter count the registry serves.
        expected: usize,
        /// Parameter count found in the checkpoint.
        got: usize,
    },
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::Checkpoint(e) => write!(f, "snapshot import failed: {e}"),
            ImportError::Mismatch { expected, got } => {
                write!(
                    f,
                    "checkpointed model has {got} parameters, registry serves {expected}"
                )
            }
        }
    }
}

impl std::error::Error for ImportError {}

impl From<CheckpointError> for ImportError {
    fn from(e: CheckpointError) -> Self {
        ImportError::Checkpoint(e)
    }
}

/// Durably exports a snapshot's weights into `dir` using the checkpoint
/// format (atomic write, checksummed, epoch-boundary retention class).
///
/// # Note
/// A quantized snapshot is persisted as its effective `f32` parameters
/// (dense weights dequantized). Its precision and accuracy delta are not
/// stored: [`load_into`] publishes it back as an f32 snapshot.
///
/// # Errors
/// [`CheckpointError::Io`] when the directory or file cannot be written.
pub fn export_snapshot(dir: &Path, snapshot: &ModelSnapshot) -> Result<(), CheckpointError> {
    let store = CheckpointStore::open(dir, RetentionPolicy::default())?;
    let state = TrainingState {
        algorithm: SNAPSHOT_ALGORITHM.to_string(),
        iterations: snapshot.iteration,
        algo: AlgoState {
            center: snapshot.params.clone(),
            ..AlgoState::default()
        },
        ..TrainingState::default()
    };
    store.save(&state, true)?;
    Ok(())
}

/// Publishes the newest valid checkpointed model in `dir` into the
/// registry. Returns the assigned registry version, or `None` when the
/// directory holds no usable checkpoint (absent, empty, or all corrupt —
/// the same fallback semantics the trainer's resume has).
///
/// Accepts both [`export_snapshot`] output and live training checkpoints:
/// either way `algo.center` is the deployable consensus model.
///
/// # Errors
/// [`ImportError::Checkpoint`] on I/O failure, [`ImportError::Mismatch`]
/// when the model does not fit the registry.
pub fn load_into(registry: &SnapshotRegistry, dir: &Path) -> Result<Option<u64>, ImportError> {
    let store = CheckpointStore::open(dir, RetentionPolicy::default())?;
    let loaded = match store.load_latest() {
        Ok(Some(loaded)) => loaded,
        Ok(None) => return Ok(None),
        Err(CheckpointError::Corrupt(_)) => return Ok(None),
        Err(e @ CheckpointError::Io(_)) => return Err(e.into()),
    };
    let center = loaded.state.algo.center;
    let expected = registry.spec().param_len;
    if center.len() != expected {
        return Err(ImportError::Mismatch {
            expected,
            got: center.len(),
        });
    }
    let version = registry
        .publish(center, loaded.state.iterations)
        .expect("length checked above");
    Ok(Some(version))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelSpec;

    fn spec(n: usize) -> ModelSpec {
        ModelSpec {
            input_shape: vec![2],
            classes: 2,
            param_len: n,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("crossbow-serve-{name}-{}", std::process::id()))
    }

    #[test]
    fn export_then_import_round_trips_weights_and_iteration() {
        let dir = tmp("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let registry = SnapshotRegistry::new(spec(3));
        registry.publish(vec![1.0, 2.0, 3.0], 40).unwrap();
        let snapshot = registry.current().unwrap();
        export_snapshot(&dir, &snapshot).expect("export");

        let fresh = SnapshotRegistry::new(spec(3));
        let version = load_into(&fresh, &dir).expect("import").expect("present");
        assert_eq!(version, 1);
        let imported = fresh.current().unwrap();
        assert_eq!(imported.params, vec![1.0, 2.0, 3.0]);
        assert_eq!(imported.iteration, 40);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_empty_directory_imports_nothing() {
        let dir = tmp("empty");
        let _ = std::fs::remove_dir_all(&dir);
        let registry = SnapshotRegistry::new(spec(2));
        assert!(load_into(&registry, &dir).expect("no error").is_none());
        assert_eq!(registry.version(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_mismatched_checkpoint_is_refused() {
        let dir = tmp("mismatch");
        let _ = std::fs::remove_dir_all(&dir);
        let registry = SnapshotRegistry::new(spec(3));
        registry.publish(vec![0.0; 3], 1).unwrap();
        export_snapshot(&dir, &registry.current().unwrap()).expect("export");
        let narrow = SnapshotRegistry::new(spec(2));
        match load_into(&narrow, &dir) {
            Err(ImportError::Mismatch {
                expected: 2,
                got: 3,
            }) => {}
            other => panic!("expected mismatch, got {other:?}"),
        }
        assert_eq!(narrow.version(), 0, "nothing published");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_live_training_checkpoint_is_servable() {
        // A training checkpoint (any algorithm tag, RNG streams present)
        // serves its center model directly.
        let dir = tmp("training");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir, RetentionPolicy::default()).unwrap();
        let state = TrainingState {
            algorithm: "sma".to_string(),
            iterations: 99,
            algo: AlgoState {
                center: vec![0.5, -0.5],
                center_prev: vec![0.4, -0.4],
                replicas: vec![vec![0.6, -0.6]],
                aux: vec![],
                iter: 99,
            },
            rngs: vec![crossbow_tensor::RngState {
                state: 1,
                inc: 2,
                spare_normal: None,
            }],
            ..TrainingState::default()
        };
        store.save(&state, false).unwrap();
        let registry = SnapshotRegistry::new(spec(2));
        let version = load_into(&registry, &dir)
            .expect("import")
            .expect("present");
        assert_eq!(version, 1);
        assert_eq!(registry.current().unwrap().params, vec![0.5, -0.5]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
