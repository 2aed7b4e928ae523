//! Crash-consistent checkpointing for long training runs.
//!
//! A host crash must not cost a multi-day run more than the interval since
//! the last checkpoint, and a resumed run must be *bit-exact*: the same
//! seed produces the same `TrainingCurve` whether or not the process died
//! half-way. This crate provides the durable half of that guarantee:
//!
//! * [`TrainingState`] — everything the trainer needs to re-enter the
//!   training loop exactly where it left off: the algorithm snapshot
//!   (centre, momentum history, replicas, optimiser aux buffers, τ phase),
//!   the data-pipeline cursor (shuffle epoch + batch index), every RNG
//!   stream's raw state, the divergence-guard checkpoint, loss/accuracy
//!   accumulators and the auto-tuner's learner count;
//! * [`write_checkpoint`] / [`read_checkpoint`] — a versioned, checksummed
//!   binary format written *atomically*: temp file → fsync → rename →
//!   directory fsync, so a crash mid-write can never leave a live
//!   checkpoint path with torn contents;
//! * [`CheckpointStore`] — a directory of checkpoints with a retention
//!   policy (keep the newest N plus every epoch-boundary checkpoint) and a
//!   [`CheckpointStore::load_latest`] that detects truncated or bit-flipped
//!   files and falls back to the most recent valid one;
//! * [`CheckpointWriter`] — the store's background writer, so a training
//!   loop only captures a state and hands it over; joining the writer
//!   puts every handed-over state on disk.
//!
//! The crate has no registry dependencies (the encoder is a hand-rolled
//! little-endian byte codec, the checksum word-wise FNV-1a/64), matching the
//! workspace's offline-build rule.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod state;
pub mod store;

pub use state::{AlgoState, DataCursor, TrainingState};
pub use store::{
    read_checkpoint, write_checkpoint, CheckpointError, CheckpointStore, CheckpointWriter, Loaded,
    RetentionPolicy, FORMAT_VERSION, MAGIC,
};
