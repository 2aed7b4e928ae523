//! The snapshot registry: versioned, immutable model snapshots swapped
//! atomically under concurrent readers.
//!
//! Serving the paper's average model `z` while a trainer keeps improving
//! it needs one synchronisation point: a single cell holding the *current*
//! [`ModelSnapshot`]. Publishers replace the cell; readers clone an `Arc`
//! out of it. In-flight requests keep serving the snapshot they already
//! hold — a hot swap never blocks or invalidates them — and because
//! versions only ever grow, two reads ordered in time always observe
//! non-decreasing versions.

use crossbow_nn::{Network, PackedDense, QuantizedModel};
use crossbow_sync::PublishHook;
use crossbow_tensor::Precision;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The shape contract a snapshot must satisfy to be servable by a given
/// network: parameter count, per-sample input shape and class count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelSpec {
    /// Per-sample input shape (no batch dimension).
    pub input_shape: Vec<usize>,
    /// Number of output classes.
    pub classes: usize,
    /// Total parameter count.
    pub param_len: usize,
}

impl ModelSpec {
    /// The spec of a concrete network.
    pub fn of(net: &Network) -> ModelSpec {
        ModelSpec {
            input_shape: net.input_shape().dims().to_vec(),
            classes: net.output_classes(),
            param_len: net.param_len(),
        }
    }

    /// Flat length of one input sample.
    pub fn sample_len(&self) -> usize {
        self.input_shape.iter().product::<usize>().max(1)
    }
}

/// An immutable published model: weights plus provenance metadata.
///
/// Snapshots are shared as `Arc<ModelSnapshot>`; once published they are
/// never mutated (the packed dense weights are derived from `params` once,
/// on first use), so a worker thread can keep computing against one while
/// a newer version is being swapped in.
#[derive(Clone, Debug)]
pub struct ModelSnapshot {
    /// Registry-assigned version; strictly increasing per registry.
    pub version: u64,
    /// Training iteration the weights came from (0 for an initial or
    /// imported model without provenance).
    pub iteration: u64,
    /// The flat parameter vector (the trainer's consensus model `z`).
    /// For a quantized snapshot these are the *effective* parameters
    /// (dense weights dequantized), so every f32 consumer keeps working.
    pub params: Vec<f32>,
    /// The shape contract the weights satisfy.
    pub spec: ModelSpec,
    /// Serving precision of this snapshot.
    pub precision: Precision,
    /// Accuracy this snapshot gains (+) or loses (−) against its f32
    /// source, measured at quantization time (`None` for f32 snapshots
    /// or when no eval set was available).
    pub accuracy_delta: Option<f32>,
    /// The quantized serving form. Workers serve an int8 model through
    /// its integer kernels; otherwise (`None` or bf16) they run the f32
    /// forward on `params` with its packed dense weights.
    pub quant: Option<Arc<QuantizedModel>>,
    /// `params`' dense weights packed for the GEMM kernel, built on first
    /// use by [`ModelSnapshot::packed_dense`] and freed with the snapshot.
    packed: OnceLock<PackedDense>,
}

impl ModelSnapshot {
    /// The f32 serving form of `params`' dense weights: packed with `net`
    /// on the first call, then shared by every caller for the life of
    /// the snapshot. The registry cannot pack at publication because it
    /// knows only the [`ModelSpec`], not the network.
    ///
    /// # Panics
    /// Panics if `net` does not match the snapshot's spec.
    pub fn packed_dense(&self, net: &Network) -> &PackedDense {
        self.packed.get_or_init(|| net.pack_dense(&self.params))
    }
}

/// Why a publication was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PublishError {
    /// The parameter vector does not fit the registry's [`ModelSpec`].
    ShapeMismatch {
        /// Parameter count the registry serves.
        expected: usize,
        /// Parameter count that was offered.
        got: usize,
    },
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::ShapeMismatch { expected, got } => {
                write!(
                    f,
                    "snapshot has {got} parameters, registry serves {expected}"
                )
            }
        }
    }
}

impl std::error::Error for PublishError {}

/// A single-cell registry of [`ModelSnapshot`]s with atomic hot-swap.
#[derive(Debug)]
pub struct SnapshotRegistry {
    spec: ModelSpec,
    current: Mutex<Option<Arc<ModelSnapshot>>>,
    /// Version of the newest published snapshot (0 = none yet). Written
    /// under the `current` lock, read lock-free.
    version: AtomicU64,
}

impl SnapshotRegistry {
    /// An empty registry for models of the given spec.
    pub fn new(spec: ModelSpec) -> Self {
        SnapshotRegistry {
            spec,
            current: Mutex::new(None),
            version: AtomicU64::new(0),
        }
    }

    /// The shape contract snapshots must satisfy.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Publishes a new snapshot, swapping it in atomically, and returns
    /// its assigned version. Readers holding the previous snapshot are
    /// unaffected; new reads see the new version.
    ///
    /// # Errors
    /// [`PublishError::ShapeMismatch`] when `params` does not fit the
    /// registry's spec; the current snapshot is left in place.
    pub fn publish(&self, params: Vec<f32>, iteration: u64) -> Result<u64, PublishError> {
        self.publish_snapshot(params, iteration, Precision::F32, None, None)
    }

    /// Publishes a quantized model as the next snapshot. The snapshot's
    /// `params` are the model's effective f32 parameters, so f32
    /// consumers (candidate staging, checkpoint export) keep working;
    /// workers serve through the quantized forward path.
    ///
    /// # Errors
    /// [`PublishError::ShapeMismatch`] when the model does not fit the
    /// registry's spec.
    pub fn publish_quantized(
        &self,
        quant: Arc<QuantizedModel>,
        iteration: u64,
        accuracy_delta: Option<f32>,
    ) -> Result<u64, PublishError> {
        let precision = quant.precision();
        self.publish_snapshot(
            quant.params().to_vec(),
            iteration,
            precision,
            accuracy_delta,
            Some(quant),
        )
    }

    fn publish_snapshot(
        &self,
        params: Vec<f32>,
        iteration: u64,
        precision: Precision,
        accuracy_delta: Option<f32>,
        quant: Option<Arc<QuantizedModel>>,
    ) -> Result<u64, PublishError> {
        if params.len() != self.spec.param_len {
            return Err(PublishError::ShapeMismatch {
                expected: self.spec.param_len,
                got: params.len(),
            });
        }
        let mut cell = self.current.lock().expect("registry lock poisoned");
        let version = self.version.load(Ordering::Relaxed) + 1;
        *cell = Some(Arc::new(ModelSnapshot {
            version,
            iteration,
            params,
            spec: self.spec.clone(),
            precision,
            accuracy_delta,
            quant,
            packed: OnceLock::new(),
        }));
        self.version.store(version, Ordering::Release);
        Ok(version)
    }

    /// The current snapshot, or `None` before the first publication.
    pub fn current(&self) -> Option<Arc<ModelSnapshot>> {
        self.current
            .lock()
            .expect("registry lock poisoned")
            .as_ref()
            .map(Arc::clone)
    }

    /// Version of the newest published snapshot (0 = none yet).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// A trainer-side publication hook: every `every` applied iterations
    /// the trainer hands its consensus model here and the registry swaps
    /// in a fresh snapshot. Publications that do not fit the spec are
    /// dropped (the trainer must not die because a registry was
    /// misconfigured); the registry version simply does not advance.
    pub fn hook(self: &Arc<Self>, every: u64) -> PublishHook {
        let registry = Arc::clone(self);
        PublishHook::new(every, move |iteration, z| {
            let _ = registry.publish(z.to_vec(), iteration);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(n: usize) -> ModelSpec {
        ModelSpec {
            input_shape: vec![n],
            classes: 2,
            param_len: n,
        }
    }

    #[test]
    fn starts_empty_and_versions_increase() {
        let reg = SnapshotRegistry::new(spec(3));
        assert!(reg.current().is_none());
        assert_eq!(reg.version(), 0);
        assert_eq!(reg.publish(vec![0.0; 3], 10), Ok(1));
        assert_eq!(reg.publish(vec![1.0; 3], 20), Ok(2));
        let snap = reg.current().expect("published");
        assert_eq!(snap.version, 2);
        assert_eq!(snap.iteration, 20);
        assert_eq!(snap.params, vec![1.0; 3]);
        assert_eq!(reg.version(), 2);
    }

    #[test]
    fn shape_mismatch_is_refused_and_keeps_the_old_snapshot() {
        let reg = SnapshotRegistry::new(spec(3));
        reg.publish(vec![0.5; 3], 1).unwrap();
        let err = reg.publish(vec![0.0; 4], 2).unwrap_err();
        assert_eq!(
            err,
            PublishError::ShapeMismatch {
                expected: 3,
                got: 4
            }
        );
        assert_eq!(reg.current().unwrap().version, 1, "old snapshot kept");
    }

    #[test]
    fn readers_keep_their_snapshot_across_a_swap() {
        let reg = SnapshotRegistry::new(spec(2));
        reg.publish(vec![1.0, 1.0], 1).unwrap();
        let held = reg.current().unwrap();
        reg.publish(vec![2.0, 2.0], 2).unwrap();
        assert_eq!(held.params, vec![1.0, 1.0], "in-flight reader unaffected");
        assert_eq!(reg.current().unwrap().params, vec![2.0, 2.0]);
    }

    #[test]
    fn concurrent_reads_see_nondecreasing_versions() {
        let reg = Arc::new(SnapshotRegistry::new(spec(1)));
        reg.publish(vec![0.0], 0).unwrap();
        std::thread::scope(|scope| {
            let reader = {
                let reg = Arc::clone(&reg);
                scope.spawn(move || {
                    let mut last = 0;
                    for _ in 0..2000 {
                        let v = reg.current().expect("published").version;
                        assert!(v >= last, "version went backwards: {last} -> {v}");
                        last = v;
                    }
                })
            };
            for i in 1..200u64 {
                reg.publish(vec![i as f32], i).unwrap();
            }
            reader.join().expect("reader");
        });
    }

    #[test]
    fn concurrent_publishers_keep_versions_dense_and_snapshots_untorn() {
        const PUBLISHERS: u64 = 4;
        const ROUNDS: u64 = 250;
        let reg = Arc::new(SnapshotRegistry::new(spec(8)));
        std::thread::scope(|scope| {
            // A reader races the publishers: every snapshot it pulls must
            // be internally consistent (all 8 params carry the same tag —
            // a torn swap would mix tags) and versions must never move
            // backwards across reads.
            let reader = {
                let reg = Arc::clone(&reg);
                scope.spawn(move || {
                    let mut last = 0u64;
                    while last < PUBLISHERS * ROUNDS {
                        if let Some(snap) = reg.current() {
                            let tag = snap.params[0];
                            assert!(
                                snap.params.iter().all(|&p| p == tag),
                                "torn snapshot at version {}",
                                snap.version
                            );
                            assert!(
                                snap.version >= last,
                                "version went backwards: {last} -> {}",
                                snap.version
                            );
                            last = snap.version;
                        }
                        std::hint::spin_loop();
                    }
                })
            };
            let publishers: Vec<_> = (0..PUBLISHERS)
                .map(|p| {
                    let reg = Arc::clone(&reg);
                    scope.spawn(move || {
                        let mut versions = Vec::with_capacity(ROUNDS as usize);
                        for r in 0..ROUNDS {
                            let tag = (p * ROUNDS + r) as f32;
                            versions.push(reg.publish(vec![tag; 8], r).unwrap());
                        }
                        versions
                    })
                })
                .collect();
            let mut all: Vec<u64> = publishers
                .into_iter()
                .flat_map(|h| h.join().expect("publisher"))
                .collect();
            reader.join().expect("reader");
            // Each publisher's own versions are strictly increasing by
            // construction of publish(); across all publishers the
            // assigned versions must be exactly 1..=N with no gaps or
            // duplicates — the registry never loses or reuses a version.
            all.sort_unstable();
            let expected: Vec<u64> = (1..=PUBLISHERS * ROUNDS).collect();
            assert_eq!(all, expected, "versions are dense and unique");
        });
        assert_eq!(reg.version(), PUBLISHERS * ROUNDS);
    }

    #[test]
    fn a_snapshot_packs_once_and_a_newer_one_packs_its_own() {
        use crossbow_nn::zoo::mlp;
        let net = mlp(4, &[6], 3);
        let reg = SnapshotRegistry::new(ModelSpec::of(&net));
        reg.publish(net.init_params(&mut crossbow_tensor::Rng::new(1)), 1)
            .unwrap();
        let held = reg.current().unwrap();
        let first: *const PackedDense = held.packed_dense(&net);
        assert!(
            std::ptr::eq(first, reg.current().unwrap().packed_dense(&net)),
            "every reader shares one packing"
        );
        reg.publish(net.init_params(&mut crossbow_tensor::Rng::new(2)), 2)
            .unwrap();
        assert!(!std::ptr::eq(
            first,
            reg.current().unwrap().packed_dense(&net)
        ));
    }

    #[test]
    fn hook_publishes_into_the_registry() {
        let reg = Arc::new(SnapshotRegistry::new(spec(2)));
        let hook = reg.hook(5);
        hook.publish(5, &[1.0, 2.0]);
        let snap = reg.current().expect("hook published");
        assert_eq!(snap.version, 1);
        assert_eq!(snap.iteration, 5);
        // A mis-shaped publication is dropped, not fatal.
        hook.publish(10, &[1.0, 2.0, 3.0]);
        assert_eq!(reg.version(), 1);
    }
}
