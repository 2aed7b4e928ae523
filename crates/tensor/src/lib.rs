//! Dense `f32` tensors and the numeric kernels used throughout the CROSSBOW
//! reproduction.
//!
//! This crate is the lowest layer of the workspace: it provides
//!
//! * [`Shape`] and [`Tensor`] — owned, row-major dense `f32` tensors;
//! * element-wise and BLAS-like kernels ([`ops`], [`gemm`]) used by the
//!   neural-network substrate;
//! * [`conv`] — im2col/col2im lowering for convolution layers;
//! * [`rng`] — a small, deterministic random number generator
//!   (SplitMix64 + PCG32) so that every experiment in the workspace is
//!   bit-reproducible given a seed;
//! * [`stats`] — the windowed median behind the time-to-accuracy metric;
//! * [`lanes`] — the process-wide pool of persistent, work-claiming helper
//!   threads behind the trainer's fork-joins and [`gemm::gemm_parallel`].
//!
//! The training *math* of the paper (gradients, momentum, model averaging)
//! operates on flat `&[f32]`/`&mut [f32]` parameter vectors, so most hot
//! kernels here are slice-based rather than tensor-based.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod conv;
pub mod gemm;
pub mod lanes;
pub mod ops;
pub mod quant;
pub mod rng;
pub mod shape;
pub mod stats;
pub mod tensor;
pub mod workspace;

pub use gemm::GemmKernel;
pub use quant::{PackedQuantLinear, Precision, QuantLinear};
pub use rng::{Rng, RngState};
pub use shape::Shape;
pub use tensor::Tensor;
pub use workspace::{Workspace, WorkspaceStats};
