//! Training and synchronisation algorithms.
//!
//! This crate implements the paper's algorithmic layer:
//!
//! * [`optimizer`] — mini-batch SGD with Polyak momentum and weight decay
//!   (Eq. 1–3) and the learning-rate schedules of §5.1;
//! * [`algorithm`] — the [`SyncAlgorithm`] abstraction: `k` model replicas
//!   trained by `k` learners, synchronised once per iteration;
//! * [`ssgd`] — parallel synchronous SGD, the TensorFlow-style baseline
//!   (§2.3): one logical model, batch partitioned across learners,
//!   gradients aggregated;
//! * [`sma`] — **synchronous model averaging** (Algorithm 1), the paper's
//!   contribution: independent replicas corrected toward a central average
//!   model that advances with Polyak momentum, plus the restart rule on
//!   learning-rate changes; [`sma::easgd`] configures the same machinery
//!   as the EA-SGD comparator (no centre momentum, optional τ);
//! * [`hierarchical`] — the two-level synchronisation of §3.3: learners on
//!   one GPU synchronise against a local reference model, and only the
//!   reference models participate in global SMA;
//! * [`trainer`] — a multi-threaded training driver that runs any
//!   [`SyncAlgorithm`] on a dataset and records accuracy per epoch (the
//!   statistical-efficiency half of every experiment).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algorithm;
pub mod hierarchical;
pub mod optimizer;
pub mod schedule;
pub mod sma;
pub mod ssgd;
pub mod trainer;

pub use algorithm::{AlgoSnapshot, SyncAlgorithm};
pub use optimizer::{Sgd, SgdConfig};
pub use schedule::LrSchedule;
pub use sma::{easgd, Sma, SmaConfig};
pub use ssgd::SSgd;
pub use trainer::{
    resume, train, train_from, train_with_source, CheckpointConfig, GradientSource, GuardConfig,
    LearnerBatch, LocalGradients, PublishHook, RoundStatus, Start, StateHook, TrainerConfig,
    TrainingCurve, EVAL_BATCH,
};
