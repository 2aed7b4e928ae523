//! Datasets and batching for the CROSSBOW reproduction.
//!
//! The paper trains on MNIST, CIFAR-10, CIFAR-100 and ILSVRC 2012
//! (Table 1). Those datasets are not available offline, so [`synth`]
//! provides *deterministic synthetic substitutes* with the same structure:
//! image tensors with class structure, per-sample noise, nuisance
//! transforms and a train/test split. Statistical-efficiency phenomena
//! (small batches converge in fewer epochs; replica diversity helps SMA)
//! arise from running real SGD on a non-trivial loss surface, which these
//! tasks provide while converging in seconds on a CPU.
//!
//! The remaining modules feed the trainers:
//!
//! * [`batch`] — epoch-aware shuffled batch sampling (§4.1);
//! * [`source`] — the [`SampleSource`] trait every trainer gathers
//!   batches through, in RAM or from disk.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod dataset;
pub mod source;
pub mod synth;

pub use batch::{BatchSampler, PartitionPlan, PartitionSampler};
pub use dataset::Dataset;
pub use source::{DataError, SampleSource};
