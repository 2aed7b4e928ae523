//! Multi-model, SLO-driven serving for the CROSSBOW reproduction.
//!
//! This crate is the serving stack: many named models behind one
//! admission edge, each with its own pool, sharing capacity and scaling
//! themselves. One model, one class and the autoscaler off is the plain
//! case (`crossbow serve`). Built entirely on std plus the snapshot
//! registry and formats of `crossbow-serve`:
//!
//! * [`request`] — the admission vocabulary: [`SloClass`] priority
//!   lattice, per-request deadlines, goodput-aware replies;
//! * [`queue`] — a bounded queue ordered (class, deadline, FIFO) that
//!   sheds *strictly lower* classes under pressure and answers every
//!   evicted request with a typed error — never a silent drop;
//! * [`router`] — canary/shadow routing between snapshot versions: a
//!   deterministic-by-request-id fractional split to a staged
//!   candidate, or full mirroring with divergence counting, plus
//!   atomic promote/abort;
//! * [`autoscaler`] — the serving analogue of the paper's Algorithm 2:
//!   probe interval p99 and queue high-water marks, grow/shrink each
//!   pool with hysteresis and cooldown;
//! * [`fleet`] — the pools themselves: elastic workers, work stealing
//!   across spec-compatible models, graceful drain;
//! * [`loadgen`] + [`train_fleet`] — mixed-priority stream load
//!   generation (open and closed arrivals, per-class goodput) and the
//!   combined run where a live trainer publishes into one fleet model
//!   mid-load.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod autoscaler;
pub mod fleet;
pub mod loadgen;
pub mod queue;
pub mod report;
pub mod request;
pub mod router;
pub mod train_fleet;

pub use autoscaler::{decide, AutoscalerConfig, Observation, ScaleDecision, ScaleReason};
pub use fleet::{Fleet, FleetBuilder, FleetClient, FleetConfig};
pub use loadgen::{run_fleet_load, Arrival, FleetLoadReport, StreamReport, StreamSpec};
pub use queue::{Admission, SloQueue};
pub use report::{FleetReport, ModelReport};
pub use request::{FleetError, FleetPrediction, FleetTicket, SloClass};
pub use router::{routes_to_canary, CandidateMode, ModelRouter};
pub use train_fleet::{train_into_fleet, FleetTrainConfig, FleetTrainReport};
