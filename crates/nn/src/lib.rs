//! Neural-network substrate for the CROSSBOW reproduction.
//!
//! The paper trains LeNet, ResNet-32, VGG-16 and ResNet-50 with cuDNN
//! kernels. This crate supplies the same ingredients in pure Rust:
//!
//! * [`layer`] — the [`Layer`] trait plus dense, convolution, pooling,
//!   activation, normalisation and residual layers, each with a hand-written
//!   backward pass (validated against finite differences in tests);
//! * [`network::Network`] — a sequential container whose parameters and
//!   gradients live in *flat contiguous vectors*, matching the paper's
//!   observation (§4.4) that contiguous weights let a model replica be
//!   allocated with a single call — and letting the synchronisation
//!   algorithms in `crossbow-sync` treat a replica as one `&[f32]`;
//! * [`loss`] — softmax cross-entropy and accuracy;
//! * [`graph`] — an operator-graph export consumed by the memory planner in
//!   the `crossbow` crate (offline buffer-reuse plan of §4.5);
//! * [`zoo`] — reduced-width versions of the paper's four models, for real
//!   CPU training of the statistical-efficiency experiments;
//! * [`profile`] — full-size cost profiles (Table 1: input size, operator
//!   count, model size) that parameterise the GPU simulator for the
//!   hardware-efficiency experiments.
//!
//! Training state is externalised: a [`network::Network`] is immutable and
//! shareable across learner threads; each learner owns its parameter vector
//! and a [`network::Scratch`] workspace.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod graph;
pub mod init;
pub mod layer;
pub mod loss;
pub mod network;
pub mod profile;
pub mod quant;
pub mod served;
pub mod zoo;

pub use layer::{Layer, Slot};
pub use network::{NetPlan, Network, Scratch};
pub use profile::ModelProfile;
pub use quant::{accuracy_delta, QuantDense, QuantizedModel};
pub use served::PackedDense;
