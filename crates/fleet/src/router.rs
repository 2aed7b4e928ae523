//! Canary and shadow routing between snapshot versions.
//!
//! A model's traffic normally goes to its *primary* registry snapshot.
//! A **candidate** parameter set can be staged next to it in one of two
//! modes:
//!
//! * **Canary** — a fixed percentage of requests, chosen
//!   *deterministically by request id*, is answered by the candidate.
//!   A given id always routes the same way, so retries are stable and
//!   test runs are reproducible. Canary replies are flagged but carry
//!   the primary's version (the candidate has no version until
//!   promotion), so per-client version sequences stay monotone through
//!   a promotion or an abort.
//! * **Shadow** — every request is answered by the primary, and the
//!   candidate *also* runs on the same inputs; divergence (different
//!   argmax) and shadow latency are recorded without ever affecting a
//!   reply.
//!
//! `promote` publishes the candidate into the primary registry (the
//! next version), `abort` discards it; both are atomic with respect to
//! in-flight batches, which finish on whichever plan they already took.

use crossbow_nn::{Network, PackedDense, QuantizedModel};
use crossbow_serve::{ModelSnapshot, PublishError, SnapshotRegistry};
use crossbow_tensor::Precision;
use std::sync::{Arc, Mutex, OnceLock};

/// How a staged candidate receives traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CandidateMode {
    /// Serve `percent`% of requests (by id) from the candidate.
    Canary {
        /// Percentage of traffic routed to the candidate (clamped 0–100).
        percent: u8,
    },
    /// Mirror every request to the candidate; replies always come from
    /// the primary.
    Shadow,
}

#[derive(Clone, Debug)]
struct Candidate {
    route: CandidateRoute,
    /// Accuracy delta vs f32 measured at staging time, carried into the
    /// primary snapshot on promotion.
    accuracy_delta: Option<f32>,
}

/// A staged candidate's weights.
#[derive(Clone, Debug)]
pub(crate) enum CandidateModel {
    /// Plain f32 parameters.
    F32(Arc<Vec<f32>>),
    /// A quantized model; its effective parameters are read in place.
    Quantized(Arc<QuantizedModel>),
}

impl CandidateModel {
    fn params(&self) -> &[f32] {
        match self {
            CandidateModel::F32(params) => params,
            CandidateModel::Quantized(quant) => quant.params(),
        }
    }
}

/// One side of a batch's routing plan: what answers (or mirrors) the
/// candidate's share of traffic.
#[derive(Clone, Debug)]
pub(crate) struct CandidateRoute {
    pub model: CandidateModel,
    /// The f32 and bf16 serving form, packed on first use like a
    /// snapshot's; every clone of the route shares it.
    packed: Arc<OnceLock<PackedDense>>,
    pub mode: CandidateMode,
}

impl CandidateRoute {
    fn new(model: CandidateModel, mode: CandidateMode) -> Self {
        CandidateRoute {
            model,
            packed: Arc::new(OnceLock::new()),
            mode,
        }
    }

    /// The weights the candidate serves with.
    pub fn weights(&self, net: &Network) -> Weights<'_> {
        match &self.model {
            CandidateModel::Quantized(quant) if quant.precision() == Precision::Int8 => {
                Weights::Int8(quant)
            }
            model => Weights::Packed {
                params: model.params(),
                packed: self.packed.get_or_init(|| net.pack_dense(model.params())),
            },
        }
    }
}

/// A batch's routing plan, taken once per batch so every job in it sees
/// a consistent primary/candidate pair.
#[derive(Clone, Debug)]
pub(crate) struct RoutePlan {
    pub primary: Arc<ModelSnapshot>,
    pub candidate: Option<CandidateRoute>,
}

impl RoutePlan {
    /// The weights the primary serves with.
    pub fn primary_weights(&self, net: &Network) -> Weights<'_> {
        match &self.primary.quant {
            Some(quant) if quant.precision() == Precision::Int8 => Weights::Int8(quant),
            _ => Weights::Packed {
                params: &self.primary.params,
                packed: self.primary.packed_dense(net),
            },
        }
    }
}

/// What one forward pass runs on.
pub(crate) enum Weights<'a> {
    /// f32 or bf16 parameters with their dense weights pre-packed.
    Packed {
        params: &'a [f32],
        packed: &'a PackedDense,
    },
    /// An int8 model through the exact-integer kernels.
    Int8(&'a QuantizedModel),
}

/// Primary registry plus an optional staged candidate.
#[derive(Debug)]
pub struct ModelRouter {
    primary: Arc<SnapshotRegistry>,
    candidate: Mutex<Option<Candidate>>,
}

impl ModelRouter {
    /// A router over an existing primary registry.
    pub fn new(primary: Arc<SnapshotRegistry>) -> Self {
        ModelRouter {
            primary,
            candidate: Mutex::new(None),
        }
    }

    /// The primary registry (live-publishable, e.g. by a trainer hook).
    pub fn primary(&self) -> &Arc<SnapshotRegistry> {
        &self.primary
    }

    /// Stages candidate parameters in the given mode, replacing any
    /// previously staged candidate.
    ///
    /// # Errors
    /// [`PublishError::ShapeMismatch`] when `params` does not fit the
    /// primary's spec.
    pub fn stage(&self, params: Vec<f32>, mode: CandidateMode) -> Result<(), PublishError> {
        let expected = self.primary.spec().param_len;
        if params.len() != expected {
            return Err(PublishError::ShapeMismatch {
                expected,
                got: params.len(),
            });
        }
        *self.candidate.lock().expect("router lock poisoned") = Some(Candidate {
            route: CandidateRoute::new(CandidateModel::F32(Arc::new(params)), mode),
            accuracy_delta: None,
        });
        Ok(())
    }

    /// Stages a quantized candidate — the staged-rollout path for a
    /// reduced-precision model: canary (or shadow) it against the f32
    /// primary, then promote or abort on the observed divergence. The
    /// accuracy delta measured at quantization time travels with the
    /// candidate into the primary snapshot on promotion.
    ///
    /// # Errors
    /// [`PublishError::ShapeMismatch`] when the model does not fit the
    /// primary's spec.
    pub fn stage_quantized(
        &self,
        quant: Arc<QuantizedModel>,
        accuracy_delta: Option<f32>,
        mode: CandidateMode,
    ) -> Result<(), PublishError> {
        let expected = self.primary.spec().param_len;
        if quant.params().len() != expected {
            return Err(PublishError::ShapeMismatch {
                expected,
                got: quant.params().len(),
            });
        }
        *self.candidate.lock().expect("router lock poisoned") = Some(Candidate {
            route: CandidateRoute::new(CandidateModel::Quantized(quant), mode),
            accuracy_delta,
        });
        Ok(())
    }

    /// Promotes the staged candidate into the primary registry.
    ///
    /// Returns the new primary version, or `None` when nothing was
    /// staged. After promotion there is no candidate; all traffic goes
    /// to the (new) primary. A quantized candidate is published as a
    /// quantized primary, so its serving path (and precision label)
    /// survives promotion.
    pub fn promote(&self, iteration: u64) -> Option<u64> {
        let candidate = self
            .candidate
            .lock()
            .expect("router lock poisoned")
            .take()?;
        let version = match candidate.route.model {
            CandidateModel::Quantized(quant) => self
                .primary
                .publish_quantized(quant, iteration, candidate.accuracy_delta)
                .expect("staged candidate already validated against the spec"),
            CandidateModel::F32(params) => self
                .primary
                .publish(params.as_ref().clone(), iteration)
                .expect("staged candidate already validated against the spec"),
        };
        Some(version)
    }

    /// Discards the staged candidate, if any. Returns whether one was
    /// staged.
    pub fn abort(&self) -> bool {
        self.candidate
            .lock()
            .expect("router lock poisoned")
            .take()
            .is_some()
    }

    /// True when a candidate is currently staged.
    pub fn has_candidate(&self) -> bool {
        self.candidate
            .lock()
            .expect("router lock poisoned")
            .is_some()
    }

    /// The routing plan for one batch, or `None` before the first
    /// primary publication (candidates never serve a model that has no
    /// primary — there would be no baseline to diverge from).
    pub(crate) fn plan(&self) -> Option<RoutePlan> {
        let primary = self.primary.current()?;
        let candidate = self
            .candidate
            .lock()
            .expect("router lock poisoned")
            .as_ref()
            .map(|c| c.route.clone());
        Some(RoutePlan { primary, candidate })
    }
}

/// Whether request `id` routes to a canary at `percent`% traffic.
///
/// SplitMix64 over the id: uniform, stateless and stable — the same id
/// always lands on the same side of the split, on every worker.
pub fn routes_to_canary(id: u64, percent: u8) -> bool {
    let mut z = id.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % 100) < u64::from(percent.min(100))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbow_serve::ModelSpec;

    fn registry(n: usize) -> Arc<SnapshotRegistry> {
        Arc::new(SnapshotRegistry::new(ModelSpec {
            input_shape: vec![n],
            classes: 2,
            param_len: n,
        }))
    }

    #[test]
    fn canary_split_is_deterministic_and_roughly_fractional() {
        let hits: usize = (0..10_000).filter(|&id| routes_to_canary(id, 20)).count();
        assert!((1500..2500).contains(&hits), "≈20% of ids: {hits}");
        for id in [0u64, 1, 42, 9999] {
            assert_eq!(routes_to_canary(id, 20), routes_to_canary(id, 20));
        }
        assert!(!routes_to_canary(123, 0), "0% routes nothing");
        assert!(routes_to_canary(123, 100), "100% routes everything");
    }

    #[test]
    fn staging_validates_against_the_primary_spec() {
        let router = ModelRouter::new(registry(3));
        assert!(router.stage(vec![0.0; 4], CandidateMode::Shadow).is_err());
        assert!(!router.has_candidate());
        router
            .stage(vec![0.5; 3], CandidateMode::Canary { percent: 25 })
            .unwrap();
        assert!(router.has_candidate());
    }

    #[test]
    fn plan_requires_a_primary() {
        let router = ModelRouter::new(registry(2));
        router.stage(vec![0.0; 2], CandidateMode::Shadow).unwrap();
        assert!(router.plan().is_none(), "no baseline, no plan");
        router.primary().publish(vec![1.0; 2], 1).unwrap();
        let plan = router.plan().unwrap();
        assert_eq!(plan.primary.version, 1);
        assert!(plan.candidate.is_some());
    }

    #[test]
    fn promote_publishes_the_candidate_as_the_next_version() {
        let router = ModelRouter::new(registry(2));
        router.primary().publish(vec![1.0; 2], 1).unwrap();
        router
            .stage(vec![2.0; 2], CandidateMode::Canary { percent: 50 })
            .unwrap();
        assert_eq!(router.promote(7), Some(2));
        assert!(!router.has_candidate());
        let current = router.primary().current().unwrap();
        assert_eq!(current.params, vec![2.0; 2]);
        assert_eq!(current.iteration, 7);
        assert_eq!(router.promote(8), None, "nothing left to promote");
    }

    #[test]
    fn a_quantized_candidate_promotes_to_a_quantized_primary() {
        use crossbow_nn::zoo::mlp;
        use crossbow_tensor::{Precision, Rng};
        let net = mlp(4, &[6], 3);
        let registry = Arc::new(SnapshotRegistry::new(ModelSpec::of(&net)));
        let router = ModelRouter::new(Arc::clone(&registry));
        let params = net.init_params(&mut Rng::new(3));
        registry.publish(params.clone(), 1).unwrap();

        let model = Arc::new(net.quantize(&params, Precision::Int8));
        router
            .stage_quantized(
                Arc::clone(&model),
                Some(-0.02),
                CandidateMode::Canary { percent: 30 },
            )
            .unwrap();
        let plan = router.plan().unwrap();
        let route = plan.candidate.as_ref().unwrap();
        match &route.model {
            CandidateModel::Quantized(quant) => assert!(
                std::ptr::eq(quant.params(), model.params()),
                "the route reads the staged model's parameters, not a copy"
            ),
            CandidateModel::F32(_) => panic!("candidate carries the quant model"),
        }
        assert!(matches!(route.weights(&net), Weights::Int8(_)));

        assert_eq!(router.promote(9), Some(2));
        let current = registry.current().unwrap();
        assert_eq!(current.precision, Precision::Int8);
        assert_eq!(current.accuracy_delta, Some(-0.02));
        assert!(current.quant.is_some(), "promotion keeps the quant path");
        assert_eq!(current.params.as_slice(), model.params());
    }

    #[test]
    fn a_mis_sized_quantized_candidate_is_refused() {
        use crossbow_nn::zoo::mlp;
        use crossbow_tensor::{Precision, Rng};
        let net = mlp(4, &[6], 3);
        let router = ModelRouter::new(registry(net.param_len() + 1));
        let params = net.init_params(&mut Rng::new(4));
        let model = Arc::new(net.quantize(&params, Precision::Bf16));
        assert!(router
            .stage_quantized(model, None, CandidateMode::Shadow)
            .is_err());
        assert!(!router.has_candidate());
    }

    #[test]
    fn abort_discards_without_touching_the_primary() {
        let router = ModelRouter::new(registry(2));
        router.primary().publish(vec![1.0; 2], 1).unwrap();
        router
            .stage(vec![9.0; 2], CandidateMode::Canary { percent: 50 })
            .unwrap();
        assert!(router.abort());
        assert!(!router.abort(), "already gone");
        assert_eq!(router.primary().version(), 1);
        assert_eq!(router.primary().current().unwrap().params, vec![1.0; 2]);
    }
}
