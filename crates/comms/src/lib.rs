//! Fault-tolerant multi-node training over real sockets.
//!
//! Crossbow's SMA trainer synchronises `k` learners every iteration;
//! this crate stretches those learners across OS processes connected by
//! TCP, without changing the arithmetic: a healthy distributed run
//! produces a training curve *bit-identical* to the single-process
//! trainer at the same configuration.
//!
//! The pieces, bottom up:
//!
//! - [`wire`]: length-prefixed frames with an FNV-1a checksum, parsed
//!   incrementally so read timeouts never desynchronise a stream.
//! - [`proto`]: the message set, serialized with the checkpoint crate's
//!   codec — the admission message literally carries an encoded
//!   checkpoint.
//! - [`fault`]: seeded transport-level fault injection (drop / delay /
//!   disconnect / partition), the socket analogue of the GPU simulator's
//!   fault plan; same seed, same faults.
//! - [`transport`]: framed connections with telemetry (`net.*` counters,
//!   `net-send`/`net-recv` spans) and capped-exponential retry.
//! - [`coordinator`]: the control plane. Runs the unmodified trainer
//!   loop and drives workers in one of two topologies — parameter
//!   server or a decentralized all-gather ring — with heartbeat failure
//!   detection, work resend with backoff, worker eviction (SMA
//!   renormalizes over survivors), and mid-run rejoin from the latest
//!   checkpoint.
//! - [`worker`]: the data plane — a stateless gradient server, with a
//!   failover loop that re-`Hello`s to fallback coordinator addresses.
//! - [`standby`]: the warm standby — registers for state replication,
//!   watches lease renewals, and takes over as primary at the next term
//!   when the leases stop.
//! - [`cluster`]: loopback clusters (threads as processes) so the fault
//!   matrix — including primary-crash failover — is testable from plain
//!   unit tests.
//! - [`chaos`]: named, seeded, replayable chaos scenarios composing the
//!   fault injectors end to end, each asserting a recovery invariant and
//!   emitting a machine-readable `CHAOS-REPORT` marker.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod cluster;
pub mod coordinator;
pub mod fault;
pub mod proto;
pub mod standby;
pub mod transport;
pub mod wire;
pub mod worker;

pub use chaos::{run_chaos, ChaosOptions, ChaosReport, ChaosScenario, SimPhase, SimPhaseReport};
pub use cluster::{
    checksum_params, demo_algo, demo_task, run_local_cluster, run_local_failover,
    LocalClusterOptions, LocalClusterReport, LocalFailoverOptions, LocalFailoverReport,
};
pub use coordinator::{
    ClusterEvent, Coordinator, DistConfig, DistCounters, DistReport, EventHook, Topology,
};
pub use fault::{FaultAction, FaultInjector, NetFaultPlan};
pub use proto::Msg;
pub use standby::{run_standby, StandbyConfig, StandbyEvent, StandbyOutcome};
pub use transport::{connect_retry, Conn, MsgSender, RetryPolicy};
pub use wire::WireError;
pub use worker::{run_worker, run_worker_with_data, WorkerConfig, WorkerEvent, WorkerOutcome};
