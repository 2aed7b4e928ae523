//! Full-size model cost profiles (paper Table 1).
//!
//! The GPU simulator needs per-model cost parameters at the *paper's*
//! scale, independent of the reduced models we actually train on CPU.
//! Table 1 provides input size, operator count and model size; FLOP counts
//! come from the literature for each architecture; the SM-demand
//! coefficient encodes how much of a GPU one learning task of batch `b`
//! can usefully occupy (small batches occupy few SMs — the premise of
//! training multiple learners per GPU, §3.3).

/// Cost profile of one benchmark model at full (paper) scale.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelProfile {
    /// Model name as in Table 1.
    pub name: &'static str,
    /// Dataset name as in Table 1.
    pub dataset: &'static str,
    /// Total input size (MB) — Table 1.
    pub input_mb: f64,
    /// Device operators per learning task — Table 1 ("# Ops").
    pub num_ops: usize,
    /// Model size (MB) — Table 1.
    pub model_mb: f64,
    /// Training-set cardinality.
    pub train_samples: usize,
    /// Training FLOPs per sample (forward + backward, ~3x forward).
    pub flops_per_sample: u64,
    /// Input bytes per sample (input_mb / train_samples).
    pub bytes_per_sample: u64,
    /// SM demand per sample in a batch: a learning task of batch `b`
    /// demands `ceil(b * sm_per_sample)` SMs (clamped by the device).
    pub sm_per_sample: f64,
    /// The per-learner batch size the paper's headline runs use.
    pub default_batch: usize,
    /// The paper's TTA threshold for this model (§5.1).
    pub target_accuracy: f64,
}

impl ModelProfile {
    /// LeNet on MNIST (Table 1 row 1).
    pub fn lenet() -> Self {
        ModelProfile {
            name: "lenet",
            dataset: "mnist",
            input_mb: 179.45,
            num_ops: 24,
            model_mb: 4.24,
            train_samples: 60_000,
            // ~0.8 MFLOP forward for LeNet-5 at 28x28; x3 for training.
            flops_per_sample: 2_400_000,
            bytes_per_sample: 2_990, // 179.45 MB / 60k
            sm_per_sample: 0.5,
            default_batch: 4,
            target_accuracy: 0.99,
        }
    }

    /// ResNet-32 on CIFAR-10 (Table 1 row 2).
    pub fn resnet32() -> Self {
        ModelProfile {
            name: "resnet-32",
            dataset: "cifar-10",
            input_mb: 703.12,
            num_ops: 267,
            model_mb: 1.79,
            train_samples: 50_000,
            // ~69 MMACs = 138 MFLOP forward; x3 for training.
            flops_per_sample: 414_000_000,
            bytes_per_sample: 14_062, // 703.12 MB / 50k
            sm_per_sample: 0.25,
            default_batch: 64,
            target_accuracy: 0.88,
        }
    }

    /// VGG-16 on CIFAR-100 (Table 1 row 3).
    pub fn vgg16() -> Self {
        ModelProfile {
            name: "vgg-16",
            dataset: "cifar-100",
            input_mb: 703.12,
            num_ops: 121,
            model_mb: 57.37,
            train_samples: 50_000,
            // ~313 MMACs = 626 MFLOP forward at 32x32; x3 for training.
            flops_per_sample: 1_878_000_000,
            bytes_per_sample: 14_062,
            sm_per_sample: 0.08,
            default_batch: 256,
            target_accuracy: 0.69,
        }
    }

    /// ResNet-50 on ILSVRC 2012 (Table 1 row 4).
    pub fn resnet50() -> Self {
        ModelProfile {
            name: "resnet-50",
            dataset: "ilsvrc-2012",
            input_mb: 1_073_375.25,
            num_ops: 384,
            model_mb: 97.49,
            train_samples: 1_281_167,
            // ~3.8 GFLOP forward at 224x224; x3 for training.
            flops_per_sample: 11_400_000_000,
            bytes_per_sample: 837_808, // ~1.07 TB / 1.28M
            sm_per_sample: 1.5,
            default_batch: 16,
            target_accuracy: 0.53,
        }
    }

    /// All four benchmark profiles, in Table 1 order.
    pub fn all() -> [ModelProfile; 4] {
        [
            Self::lenet(),
            Self::resnet32(),
            Self::vgg16(),
            Self::resnet50(),
        ]
    }

    /// Looks a profile up by name.
    pub fn by_name(name: &str) -> Option<ModelProfile> {
        Self::all().into_iter().find(|p| p.name == name)
    }

    /// Model size in bytes.
    pub fn model_bytes(&self) -> u64 {
        (self.model_mb * 1e6) as u64
    }

    /// SM demand of a learning task with batch `b`.
    pub fn sm_demand(&self, batch: usize) -> u32 {
        (batch as f64 * self.sm_per_sample).ceil().max(1.0) as u32
    }

    /// Training FLOPs of a learning task with batch `b`.
    pub fn task_flops(&self, batch: usize) -> u64 {
        self.flops_per_sample * batch as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_numbers_are_preserved() {
        let rows = ModelProfile::all();
        assert_eq!(rows[0].num_ops, 24);
        assert_eq!(rows[1].num_ops, 267);
        assert_eq!(rows[2].num_ops, 121);
        assert_eq!(rows[3].num_ops, 384);
        assert!((rows[1].model_mb - 1.79).abs() < 1e-9);
        assert!((rows[3].input_mb - 1_073_375.25).abs() < 1e-9);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(
            ModelProfile::by_name("resnet-32").unwrap().dataset,
            "cifar-10"
        );
        assert!(ModelProfile::by_name("alexnet").is_none());
    }

    #[test]
    fn sm_demand_scales_with_batch_and_clamps_low() {
        let p = ModelProfile::resnet32();
        assert_eq!(p.sm_demand(64), 16);
        assert_eq!(p.sm_demand(1), 1);
        assert_eq!(ModelProfile::lenet().sm_demand(4), 2);
    }

    #[test]
    fn derived_quantities() {
        let p = ModelProfile::resnet32();
        assert_eq!(p.task_flops(64), 64 * 414_000_000);
    }

    #[test]
    fn resnet50_learning_task_is_paper_scale() {
        // §5.2: a ResNet-50 learning task takes ~220 ms. At TF's 32
        // samples/GPU and the simulator's effective throughput this FLOP
        // count must land in the hundreds of milliseconds.
        let p = ModelProfile::resnet50();
        let flops = p.task_flops(32) as f64;
        let effective = 10.0e12 * 0.17; // titan preset peak x efficiency
        let secs = flops / effective;
        assert!((0.15..0.30).contains(&secs), "task time {secs}s");
    }
}
