//! Model snapshots for serving in the CROSSBOW reproduction.
//!
//! Training's product — the central average model `z` (§3.1–3.2) — is
//! what a deployment actually runs. This crate holds what a serving
//! stack needs to know about that model; `crossbow-fleet` is the stack
//! itself (admission, queues, worker pools, load generation):
//!
//! * [`registry`] — versioned, immutable [`ModelSnapshot`]s swapped
//!   atomically under concurrent readers (hot swap without blocking
//!   in-flight requests), fed either by a live trainer's
//!   [`PublishHook`](crossbow_sync::PublishHook) or from a checkpoint
//!   store;
//! * [`batcher`] — the micro-batching parameters ([`BatchConfig`]):
//!   flush on `max_batch` or `max_delay`, bounded by `queue_depth`;
//! * [`snapshot`] — model exchange over the PR-2 checkpoint format
//!   (export a snapshot durably, serve straight out of a training
//!   checkpoint directory).
//!
//! Quantized snapshots live in memory only
//! ([`SnapshotRegistry::publish_quantized`]); [`export_snapshot`] writes
//! their effective `f32` parameters.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batcher;
pub mod registry;
pub mod snapshot;

pub use batcher::BatchConfig;
pub use registry::{ModelSnapshot, ModelSpec, PublishError, SnapshotRegistry};
pub use snapshot::{export_snapshot, load_into, ImportError, SNAPSHOT_ALGORITHM};
