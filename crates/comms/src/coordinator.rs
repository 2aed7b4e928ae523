//! The coordinator: control plane and state authority of a cluster.
//!
//! The coordinator runs the *unmodified* training loop
//! ([`crossbow_sync::train_from`]) — sampling, synchronisation,
//! evaluation, divergence guard, durable checkpointing — and plugs a
//! `RemoteCluster` in as the gradient source. Workers are stateless
//! gradient servers, so a healthy distributed run produces a
//! [`TrainingCurve`] bit-identical to the single-process trainer at the
//! same configuration, and every robustness feature the trainer already
//! has (guard rollback, checkpoint resume) works distributed for free.
//!
//! Failure handling is the Rudra-style degraded mode: a worker that
//! misses its heartbeat window, disconnects, or exhausts its work
//! retries is *evicted* — its learner slot is removed by snapshot-edit
//! and SMA renormalizes the central average over the survivors (`alpha =
//! 1/k` tracks the new `k`). A restarted worker rejoins between rounds:
//! the coordinator re-adds a replica initialised from the latest average
//! model and hands the newcomer the most recent durable checkpoint (or a
//! live snapshot encoded the same way) as its admission state.

use crate::cluster::checksum_params;
use crate::fault::{FaultInjector, NetFaultPlan};
use crate::proto::{self, Msg};
use crate::transport::{Conn, RetryPolicy};
use crate::wire::{self, WireError};
use crossbow_checkpoint::{CheckpointStore, TrainingState};
use crossbow_data::{PartitionPlan, SampleSource};
use crossbow_nn::Network;
use crossbow_sync::{
    train_from, GradientSource, LearnerBatch, RoundStatus, Start, StateHook, SyncAlgorithm,
    TrainerConfig, TrainingCurve,
};
use crossbow_telemetry::Telemetry;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Per-member receive poll interval while collecting a round.
const POLL: Duration = Duration::from_millis(10);

/// How gradients travel between processes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Parameter server: every worker exchanges (params, gradient) with
    /// the coordinator directly.
    Ps,
    /// Decentralized ring: workers all-gather gradient blocks over
    /// worker-to-worker TCP links; slot 0 uploads the gathered round.
    Ring,
}

impl Topology {
    /// Wire encoding.
    pub(crate) fn as_u8(self) -> u8 {
        match self {
            Topology::Ps => 0,
            Topology::Ring => 1,
        }
    }
}

/// Coordinator-side cluster configuration.
#[derive(Clone, Debug)]
pub struct DistConfig {
    /// Gradient exchange topology.
    pub topology: Topology,
    /// Cluster size at formation; also the algorithm's initial `k`.
    pub workers: usize,
    /// Evict a worker silent for longer than this.
    pub heartbeat_timeout: Duration,
    /// Heartbeat interval workers are told to ping at (handed out in
    /// `Welcome` in whole milliseconds, so at least 1 ms); must stay below
    /// `heartbeat_timeout`.
    pub heartbeat_interval: Duration,
    /// Re-issue a round's work after this long without a reply.
    pub work_resend: Duration,
    /// How long to wait for cluster formation, and for a replacement
    /// worker when every member is gone.
    pub join_timeout: Duration,
    /// How long an accepted connection may take to introduce itself
    /// (`Hello` or `Lease`) before it is dropped.
    pub hello_timeout: Duration,
    /// Lease-renewal interval toward registered standbys; must stay
    /// below `lease_timeout`.
    pub lease_interval: Duration,
    /// How long a standby tolerates lease silence before it elects
    /// itself primary.
    pub lease_timeout: Duration,
    /// Stream the training state to standbys every this many applied
    /// iterations (1 = every step; must be at least 1).
    pub state_every: u64,
    /// This coordinator's failover term (0 for the original primary; a
    /// standby takes over at the last observed term + 1).
    pub term: u64,
    /// Test hook: end the run by closing every socket *without* the
    /// `Shutdown` farewell — the FIN pattern a SIGKILLed process leaves
    /// behind, for in-process crash simulation.
    pub crash_drop: bool,
    /// Backoff discipline for work re-issues.
    pub retry: RetryPolicy,
    /// Transport fault injection applied to coordinator-side sends.
    pub fault: Option<NetFaultPlan>,
    /// Ship sample *indices* instead of batch payloads (`WorkIdx` rather
    /// than `Work`). Workers must then open the dataset locally (see
    /// `run_worker_with_data`) and gather their own batches — the
    /// shard-partitioned data plane, which cuts per-round bytes from
    /// O(batch × sample) to O(batch).
    pub index_work: bool,
}

impl DistConfig {
    /// Defaults for `workers` members in `topology`.
    pub fn new(topology: Topology, workers: usize) -> Self {
        DistConfig {
            topology,
            workers,
            heartbeat_timeout: Duration::from_secs(3),
            heartbeat_interval: Duration::from_millis(200),
            work_resend: Duration::from_secs(1),
            join_timeout: Duration::from_secs(30),
            hello_timeout: Duration::from_secs(5),
            lease_interval: Duration::from_millis(250),
            lease_timeout: Duration::from_secs(1),
            state_every: 1,
            term: 0,
            crash_drop: false,
            retry: RetryPolicy::default(),
            fault: None,
            index_work: false,
        }
    }

    /// Installs a fault plan (builder style).
    pub fn with_fault(mut self, plan: NetFaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Enables index-shipping work dispatch (builder style). Workers must
    /// hold a local copy of the dataset.
    pub fn with_index_work(mut self) -> Self {
        self.index_work = true;
        self
    }

    /// Checks the timing relations the protocol depends on: heartbeats
    /// must be at least 1 ms apart (the unit `Welcome` carries) and
    /// outpace eviction, lease renewals must outpace takeover, and every
    /// resend interval and timeout must be positive.
    ///
    /// # Errors
    /// A description of the first violated relation.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("workers must be at least 1".into());
        }
        if self.heartbeat_interval < Duration::from_millis(1) {
            // `Welcome` carries whole milliseconds: a shorter interval
            // would arrive as 0 and the worker would fall back to its own
            // default, which may not outpace the eviction timeout.
            return Err(format!(
                "heartbeat interval ({:?}) must be at least 1 ms",
                self.heartbeat_interval
            ));
        }
        if self.heartbeat_interval >= self.heartbeat_timeout {
            return Err(format!(
                "heartbeat interval ({:?}) must be below the eviction timeout ({:?})",
                self.heartbeat_interval, self.heartbeat_timeout
            ));
        }
        if self.lease_interval.is_zero() {
            return Err("lease interval must be positive".into());
        }
        if self.lease_interval >= self.lease_timeout {
            return Err(format!(
                "lease interval ({:?}) must be below the lease timeout ({:?})",
                self.lease_interval, self.lease_timeout
            ));
        }
        if self.work_resend.is_zero() {
            return Err("work resend interval must be positive".into());
        }
        if self.join_timeout.is_zero() || self.hello_timeout.is_zero() {
            return Err("join and hello timeouts must be positive".into());
        }
        if self.state_every == 0 {
            return Err("state_every must be at least 1".into());
        }
        Ok(())
    }
}

/// Fault-handling counters of one distributed run — the run report's
/// `faults` block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DistCounters {
    /// Workers evicted (heartbeat timeout, disconnect, retry exhaustion).
    pub evictions: u64,
    /// Workers admitted after training started.
    pub rejoins: u64,
    /// Work re-issues after a lost or unanswered round.
    pub retries: u64,
}

/// A cluster membership event, surfaced to the embedding process (the
/// CLI prints these as progress markers).
#[derive(Clone, Debug)]
pub enum ClusterEvent {
    /// A worker joined; `rejoin` is true once training has started.
    Joined {
        /// The slot it owns.
        slot: usize,
        /// Whether this is a mid-run (re)join.
        rejoin: bool,
    },
    /// A worker was evicted.
    Evicted {
        /// The slot it owned.
        slot: usize,
        /// Why.
        reason: &'static str,
    },
    /// A round's work was re-issued.
    Resent {
        /// The round id.
        iter: u64,
        /// The retry attempt (1-based).
        attempt: u32,
    },
    /// A warm standby registered for state replication.
    StandbyJoined {
        /// The standby's takeover priority (lower takes over first).
        priority: u32,
    },
}

/// Callback type for [`ClusterEvent`]s.
pub type EventHook = Arc<dyn Fn(ClusterEvent) + Send + Sync>;

/// The end-of-run report: the curve plus the robustness and network
/// ledger.
#[derive(Clone, Debug)]
pub struct DistReport {
    /// The training curve (bit-identical to a local run when no faults
    /// changed membership).
    pub curve: TrainingCurve,
    /// Eviction/rejoin/retry counters.
    pub counters: DistCounters,
    /// Total framed bytes written (`net.bytes_sent`).
    pub bytes_sent: u64,
    /// Total framed bytes read (`net.bytes_recv`).
    pub bytes_recv: u64,
    /// Probabilistic faults the injector fired (`net.faults_injected`).
    pub faults_injected: u64,
    /// Live workers at the end of the run.
    pub workers: usize,
    /// FNV-1a/64 over the consensus model bits — a cheap cross-process
    /// fingerprint for "same model" assertions.
    pub model_checksum: u64,
    /// The failover term this report was produced under (0 = the
    /// original primary; n = the n-th takeover).
    pub term: u64,
}

/// One registered warm standby. The connection stays open for the life
/// of the run — the primary pushes leases and state updates through it
/// and never reads from it.
struct StandbyLink {
    conn: Conn,
    #[allow(dead_code)] // recorded for operators; selection runs standby-side
    priority: u32,
}

/// The newest replicated state. It stays a [`TrainingState`] while no
/// standby is registered — nobody needs its bytes — and is encoded once,
/// when a registrant needs the catch-up.
enum Latest {
    State(Box<TrainingState>),
    Encoded(Vec<u8>),
}

/// The registered links, the update sequence counter and the newest
/// state (numbered `seq`), under one lock so a registration never lands
/// between a publish's standby check and its cache update.
#[derive(Default)]
struct ReplState {
    standbys: Vec<StandbyLink>,
    seq: u64,
    latest: Option<Latest>,
}

/// Shared standby-replication state. Shared between the accept path
/// (registration), the trainer's state hook (updates), and the
/// lease-renewal thread.
pub(crate) struct Replication {
    term: u64,
    state: Mutex<ReplState>,
}

impl Replication {
    fn new(term: u64) -> Arc<Self> {
        Arc::new(Replication {
            term,
            state: Mutex::new(ReplState::default()),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ReplState> {
        // Every update replaces whole fields, so a poisoned guard still
        // holds consistent data.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sends `msg` to every standby, silently dropping links whose send
    /// failed — a dead standby must never stall the training loop.
    fn broadcast(&self, msg: &Msg) {
        self.lock()
            .standbys
            .retain(|link| link.conn.send(msg).is_ok());
    }

    /// Publishes one state update: encoded and sent to every standby when
    /// there is one, otherwise only cached for a late registrant.
    fn publish(&self, state: TrainingState) {
        let mut repl = self.lock();
        repl.seq += 1;
        if repl.standbys.is_empty() {
            repl.latest = Some(Latest::State(Box::new(state)));
            return;
        }
        let bytes = state.encode();
        let frame = wire::frame_with(|w| proto::write_state(w, self.term, repl.seq, &bytes));
        repl.standbys
            .retain(|link| link.conn.send_frame(&frame).is_ok());
        repl.latest = Some(Latest::Encoded(bytes));
    }

    /// Registers a standby: acks with the current term, catches it up
    /// with the latest state, and keeps the connection. Returns false
    /// when the link died during the handshake.
    fn register(&self, conn: Conn, priority: u32) -> bool {
        let ack = Msg::Lease {
            term: self.term,
            priority: 0,
        };
        let mut repl = self.lock();
        if conn.send(&ack).is_err() {
            return false;
        }
        if let Some(latest) = repl.latest.take() {
            let bytes = match latest {
                Latest::State(state) => state.encode(),
                Latest::Encoded(bytes) => bytes,
            };
            let catch_up = wire::frame_with(|w| proto::write_state(w, self.term, repl.seq, &bytes));
            repl.latest = Some(Latest::Encoded(bytes));
            if conn.send_frame(&catch_up).is_err() {
                return false;
            }
        }
        repl.standbys.push(StandbyLink { conn, priority });
        true
    }

    /// Releases every standby at end of run. A graceful finish sends
    /// `Shutdown` (so standbys exit instead of taking over); a simulated
    /// crash just closes the sockets.
    fn shutdown(&self, crash_drop: bool) {
        for link in self.lock().standbys.drain(..) {
            if !crash_drop {
                let _ = link.conn.send(&Msg::Shutdown);
            }
            link.conn.shutdown();
        }
    }
}

/// The lease-renewal thread's handle: stops and joins on drop or via
/// [`LeaseTask::stop`].
struct LeaseTask {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl LeaseTask {
    fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for LeaseTask {
    fn drop(&mut self) {
        self.halt();
    }
}

fn spawn_lease(repl: Arc<Replication>, interval: Duration) -> LeaseTask {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        // Sleep in short slices so stop is prompt even with long leases.
        let slice = interval.min(Duration::from_millis(50));
        let mut next = Instant::now() + interval;
        while !flag.load(Ordering::Relaxed) {
            std::thread::sleep(slice);
            if Instant::now() >= next {
                repl.broadcast(&Msg::Lease {
                    term: repl.term,
                    priority: 0,
                });
                next = Instant::now() + interval;
            }
        }
    });
    LeaseTask {
        stop,
        handle: Some(handle),
    }
}

/// A TCP-listening coordinator. Bind, then [`Coordinator::run`], or
/// [`Coordinator::run_from`] a durable checkpoint ([`Start::Latest`]) or,
/// on takeover, a replicated state ([`Start::State`]).
pub struct Coordinator {
    listener: TcpListener,
    cfg: DistConfig,
    telemetry: Telemetry,
    events: Option<EventHook>,
}

impl Coordinator {
    /// Binds `addr` (use port 0 for an OS-assigned port, so parallel
    /// runs never collide).
    ///
    /// # Errors
    /// Any bind failure, or `InvalidInput` when `cfg` fails
    /// [`DistConfig::validate`].
    pub fn bind(addr: &str, cfg: DistConfig, telemetry: Telemetry) -> std::io::Result<Self> {
        Coordinator::from_listener(TcpListener::bind(addr)?, cfg, telemetry)
    }

    /// Wraps an already-bound listener — the takeover path, where the
    /// standby has been listening on its advertised address all along
    /// and now runs the cluster from it.
    ///
    /// # Errors
    /// Any socket failure, or `InvalidInput` when `cfg` fails
    /// [`DistConfig::validate`].
    pub fn from_listener(
        listener: TcpListener,
        cfg: DistConfig,
        telemetry: Telemetry,
    ) -> std::io::Result<Self> {
        cfg.validate()
            .map_err(|why| std::io::Error::new(std::io::ErrorKind::InvalidInput, why))?;
        listener.set_nonblocking(true)?;
        Ok(Coordinator {
            listener,
            cfg,
            telemetry,
            events: None,
        })
    }

    /// The bound address (report this to workers).
    ///
    /// # Errors
    /// Any socket failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Installs an event callback (builder style).
    pub fn with_events(mut self, events: EventHook) -> Self {
        self.events = Some(events);
        self
    }

    /// Forms the cluster, trains to completion, shuts the workers down.
    ///
    /// # Panics
    /// Panics when the cluster cannot form (or re-form) within
    /// `join_timeout`, on trainer-level mismatches, and when a durable
    /// checkpoint cannot be written.
    pub fn run(
        &self,
        net: &Network,
        train_set: &dyn SampleSource,
        test_set: &dyn SampleSource,
        algo: &mut dyn SyncAlgorithm,
        tcfg: &TrainerConfig,
    ) -> DistReport {
        self.run_from(net, train_set, test_set, algo, tcfg, Start::Fresh)
            .unwrap_or_else(|e| panic!("checkpoint write failed: {e}"))
    }

    /// As [`Coordinator::run`], but starts where `start` says:
    /// [`Start::Latest`] resumes from the newest durable checkpoint that
    /// fits (coordinator crash recovery); [`Start::State`] continues from
    /// the last state the old primary streamed (standby takeover), which
    /// keeps the curve bit-identical to an undisturbed run.
    ///
    /// # Errors
    /// [`crossbow_checkpoint::CheckpointError`] when the checkpoint
    /// directory is unreadable or a durable checkpoint cannot be written.
    ///
    /// # Panics
    /// As [`Coordinator::run`], but for checkpoint errors; and when a
    /// [`Start::State`] does not fit the run.
    pub fn run_from(
        &self,
        net: &Network,
        train_set: &dyn SampleSource,
        test_set: &dyn SampleSource,
        algo: &mut dyn SyncAlgorithm,
        tcfg: &TrainerConfig,
        start: Start,
    ) -> Result<DistReport, crossbow_checkpoint::CheckpointError> {
        let store = tcfg.store()?;
        let (tcfg, repl, lease) = self.start_replication(tcfg);
        let mut cluster = RemoteCluster::form(self, algo, &tcfg, store.clone(), Arc::clone(&repl));
        let curve = train_from(
            net,
            train_set,
            test_set,
            algo,
            &tcfg,
            start,
            store,
            &mut cluster,
        )?;
        lease.stop();
        Ok(self.finish(cluster, curve, algo, &repl))
    }

    /// Wires the replication tap into the trainer config and starts the
    /// lease-renewal thread. Every run goes through here, so a primary is
    /// always standby-capable.
    fn start_replication(
        &self,
        tcfg: &TrainerConfig,
    ) -> (TrainerConfig, Arc<Replication>, LeaseTask) {
        let repl = Replication::new(self.cfg.term);
        let tap = Arc::clone(&repl);
        let hooked = tcfg
            .clone()
            .with_state_hook(StateHook::new(self.cfg.state_every, move |state| {
                tap.publish(state)
            }));
        let lease = spawn_lease(Arc::clone(&repl), self.cfg.lease_interval);
        (hooked, repl, lease)
    }

    fn finish(
        &self,
        mut cluster: RemoteCluster<'_>,
        curve: TrainingCurve,
        algo: &dyn SyncAlgorithm,
        repl: &Replication,
    ) -> DistReport {
        if self.cfg.crash_drop {
            // Simulated primary crash: every socket closes without the
            // Shutdown farewell — the same FIN a SIGKILLed process
            // leaves, so peers observe `Disconnected`, not a clean end.
            for member in &cluster.members {
                member.conn.shutdown();
            }
        } else {
            cluster.shutdown();
        }
        repl.shutdown(self.cfg.crash_drop);
        let metrics = &self.telemetry.metrics;
        DistReport {
            curve,
            counters: cluster.counters,
            bytes_sent: metrics.counter("net.bytes_sent").get(),
            bytes_recv: metrics.counter("net.bytes_recv").get(),
            faults_injected: metrics.counter("net.faults_injected").get(),
            workers: cluster.members.len(),
            model_checksum: checksum_params(algo.consensus()),
            term: self.cfg.term,
        }
    }
}

/// One admitted worker, indexed by its slot.
struct Member {
    conn: Conn,
    last_seen: Instant,
    ring_addr: String,
}

/// The remote [`GradientSource`]: owns the worker connections and the
/// round protocol for both topologies.
struct RemoteCluster<'a> {
    listener: &'a TcpListener,
    cfg: &'a DistConfig,
    telemetry: Telemetry,
    events: Option<EventHook>,
    members: Vec<Member>,
    store: Option<CheckpointStore>,
    repl: Arc<Replication>,
    partition: Option<PartitionPlan>,
    seed: u64,
    weight_decay: f32,
    round: u64,
    generation: u64,
    counters: DistCounters,
    next_conn: u64,
    started: bool,
}

impl<'a> RemoteCluster<'a> {
    /// Blocks until `cfg.workers` workers have joined.
    fn form(
        coordinator: &'a Coordinator,
        algo: &mut dyn SyncAlgorithm,
        tcfg: &TrainerConfig,
        store: Option<CheckpointStore>,
        repl: Arc<Replication>,
    ) -> Self {
        assert_eq!(
            algo.k(),
            coordinator.cfg.workers,
            "the algorithm's learner count must match the worker count"
        );
        let mut cluster = RemoteCluster {
            listener: &coordinator.listener,
            cfg: &coordinator.cfg,
            telemetry: coordinator.telemetry.clone(),
            events: coordinator.events.clone(),
            members: Vec::new(),
            store,
            repl,
            partition: tcfg.partition,
            seed: tcfg.seed,
            weight_decay: tcfg.weight_decay,
            round: 0,
            generation: 0,
            counters: DistCounters::default(),
            next_conn: 0,
            started: false,
        };
        let deadline = Instant::now() + cluster.cfg.join_timeout;
        while cluster.members.len() < cluster.cfg.workers {
            if !cluster.accept_one(algo) {
                assert!(
                    Instant::now() < deadline,
                    "distributed run aborted: only {}/{} workers joined within {:?}",
                    cluster.members.len(),
                    cluster.cfg.workers,
                    cluster.cfg.join_timeout
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        if cluster.cfg.topology == Topology::Ring {
            cluster.push_ring_config();
        }
        cluster
    }

    fn emit(&self, event: ClusterEvent) {
        if let Some(hook) = &self.events {
            hook(event);
        }
    }

    /// Accepts and admits at most one pending worker. Returns whether a
    /// worker joined.
    fn accept_one(&mut self, algo: &mut dyn SyncAlgorithm) -> bool {
        let (stream, _) = match self.listener.accept() {
            Ok(accepted) => accepted,
            Err(_) => return false,
        };
        let _ = stream.set_nonblocking(false);
        let id = self.next_conn;
        self.next_conn += 1;
        let mut conn = match Conn::new(stream, self.telemetry.clone()) {
            Ok(conn) => conn,
            Err(_) => return false,
        };
        if let Some(plan) = &self.cfg.fault {
            conn = conn.with_injector(FaultInjector::new(plan, id));
        }
        // Wait briefly for the introduction (a worker's Hello or a
        // standby's Lease); a connector that never introduces itself is
        // dropped, not admitted.
        let hello_deadline = Instant::now() + self.cfg.hello_timeout;
        let poll = self.cfg.hello_timeout.min(Duration::from_millis(100));
        let (rejoin, ring_addr) = loop {
            match conn.recv_timeout(poll) {
                Ok(Msg::Hello { rejoin, ring_addr }) => break (rejoin, ring_addr),
                Ok(Msg::Lease { priority, .. }) => {
                    // A warm standby, not a worker: hand the connection
                    // to the replication registry and keep accepting.
                    if self.repl.register(conn, priority) {
                        self.emit(ClusterEvent::StandbyJoined { priority });
                    }
                    return false;
                }
                Ok(_) => continue,
                Err(WireError::Timeout) if Instant::now() < hello_deadline => continue,
                Err(_) => return false,
            }
        };
        // Slot assignment: the next free index. Mid-run joins normally
        // grow the learner group; after a last-man-standing eviction the
        // algorithm still holds an orphan replica, which the newcomer
        // adopts instead.
        let slot = self.members.len();
        if slot >= algo.k() && !algo.add_replica() {
            // The algorithm cannot grow; turn the worker away.
            let _ = conn.send(&Msg::Shutdown);
            return false;
        }
        // A partitioned run tells the worker which global sample range its
        // slot owns; the range follows the slot, so a rejoiner adopting a
        // different slot is re-ranged exactly like its replica. Plans are
        // sized for the formation `k` — a grown cluster's extra slots get
        // no range (the trainer rebuilds its plan on resize anyway).
        let (data_lo, data_hi) = match &self.partition {
            Some(plan) if slot < plan.groups() => {
                let (lo, hi) = plan.range(slot);
                (lo as u64, hi as u64)
            }
            _ => (0, 0),
        };
        let welcome = Msg::Welcome {
            slot: slot as u32,
            k: algo.k() as u32,
            topology: self.cfg.topology.as_u8(),
            weight_decay: self.weight_decay,
            heartbeat_ms: self.cfg.heartbeat_interval.as_millis() as u64,
            data_lo,
            data_hi,
            state: self.admission_state(algo),
        };
        if conn.send(&welcome).is_err() {
            return false;
        }
        self.members.push(Member {
            conn,
            last_seen: Instant::now(),
            ring_addr,
        });
        if self.started {
            self.counters.rejoins += 1;
        }
        self.emit(ClusterEvent::Joined {
            slot,
            rejoin: self.started || rejoin,
        });
        true
    }

    /// The state a joining worker recovers from: the latest durable
    /// checkpoint when one exists, else a live snapshot encoded with the
    /// same `TrainingState` serialization.
    fn admission_state(&self, algo: &dyn SyncAlgorithm) -> Vec<u8> {
        if let Some(store) = &self.store {
            if let Ok(Some(loaded)) = store.load_latest() {
                return loaded.state.encode();
            }
        }
        let state = match algo.snapshot() {
            Some(snap) => TrainingState {
                seed: self.seed,
                algorithm: algo.name().to_string(),
                iterations: snap.iter,
                algo: snap,
                ..TrainingState::default()
            },
            None => TrainingState {
                seed: self.seed,
                algorithm: algo.name().to_string(),
                ..TrainingState::default()
            },
        };
        state.encode()
    }

    /// Admits every worker waiting on the listener. Returns whether
    /// membership changed.
    fn adopt_joiners(&mut self, algo: &mut dyn SyncAlgorithm) -> bool {
        let mut changed = false;
        while self.accept_one(algo) {
            changed = true;
        }
        if changed && self.cfg.topology == Topology::Ring {
            self.push_ring_config();
        }
        changed
    }

    /// Removes member `j` and renormalizes the algorithm over the
    /// survivors by snapshot-edit (SMA's `alpha = 1/k` follows `k`).
    ///
    /// # Panics
    /// Panics for algorithms without per-replica state (S-SGD): they
    /// have no degraded mode to continue in.
    fn evict(&mut self, algo: &mut dyn SyncAlgorithm, j: usize, reason: &'static str) {
        let member = self.members.remove(j);
        member.conn.shutdown();
        self.counters.evictions += 1;
        self.emit(ClusterEvent::Evicted { slot: j, reason });
        let old_k = algo.k();
        if old_k > 1 {
            let mut snap = algo
                .snapshot()
                .expect("degraded-mode eviction needs a snapshot-capable algorithm");
            assert_eq!(
                snap.replicas.len(),
                old_k,
                "{} has no per-replica state and cannot renormalize over \
                 survivors; degraded mode needs sma",
                algo.name()
            );
            snap.replicas.remove(j);
            assert!(algo.restore(&snap), "snapshot-edit eviction failed");
        }
        // old_k == 1: keep the orphan replica for a future rejoiner.
        if self.cfg.topology == Topology::Ring {
            self.push_ring_config();
        }
    }

    /// Sends fresh ring links (slot, successor address) to every member
    /// under a new generation. Send failures are left for the next
    /// round's work dispatch to discover and evict.
    fn push_ring_config(&mut self) {
        self.generation += 1;
        let k = self.members.len();
        for j in 0..k {
            let msg = Msg::Ring {
                generation: self.generation,
                slot: j as u32,
                k: k as u32,
                next: self.members[(j + 1) % k].ring_addr.clone(),
            };
            let _ = self.members[j].conn.send(&msg);
        }
    }

    /// Re-sends the current ring generation without bumping it (heals
    /// dropped config frames during a resend).
    fn repeat_ring_config(&mut self) {
        let k = self.members.len();
        for j in 0..k {
            let msg = Msg::Ring {
                generation: self.generation,
                slot: j as u32,
                k: k as u32,
                next: self.members[(j + 1) % k].ring_addr.clone(),
            };
            let _ = self.members[j].conn.send(&msg);
        }
    }

    /// Dispatches one round's work to member `j`, framed straight from
    /// the replica and batch buffers.
    fn send_work(
        &self,
        j: usize,
        round: u64,
        params: &[f32],
        batch: &LearnerBatch,
    ) -> Result<(), WireError> {
        let slot = j as u32;
        let frame = if self.cfg.index_work {
            let indices: Vec<u64> = batch.indices.iter().map(|&i| i as u64).collect();
            wire::frame_with(|w| proto::write_work_idx(w, round, slot, params, &indices))
        } else {
            let images = &batch.images;
            let dims: Vec<u64> = images.shape().dims().iter().map(|&d| d as u64).collect();
            let labels: Vec<u64> = batch.labels.iter().map(|&l| l as u64).collect();
            wire::frame_with(|w| {
                proto::write_work(w, round, slot, params, &dims, images.data(), &labels)
            })
        };
        self.members[j].conn.send_frame(&frame)
    }

    /// One parameter-server round: dispatch work, collect gradients,
    /// resend with backoff, evict the silent.
    fn ps_round(
        &mut self,
        algo: &mut dyn SyncAlgorithm,
        batches: &[LearnerBatch],
        grads: &mut [Vec<f32>],
        losses: &mut [f32],
    ) -> RoundStatus {
        let k = self.members.len();
        self.round += 1;
        let round = self.round;
        for (j, batch) in batches.iter().enumerate().take(k) {
            if self.send_work(j, round, algo.replica(j), batch).is_err() {
                self.evict(algo, j, "work dispatch failed");
                return RoundStatus::Resized;
            }
        }
        let mut pending = vec![true; k];
        let mut sent_at = vec![Instant::now(); k];
        let mut attempts = vec![1u32; k];
        while pending.iter().any(|&p| p) {
            for j in 0..k {
                loop {
                    match self.members[j].conn.recv_timeout(POLL) {
                        Ok(Msg::Grad {
                            iter,
                            slot,
                            loss,
                            grad,
                        }) => {
                            self.members[j].last_seen = Instant::now();
                            if iter == round
                                && slot as usize == j
                                && grad.len() == grads[j].len()
                                && pending[j]
                            {
                                grads[j].copy_from_slice(&grad);
                                losses[j] = loss;
                                pending[j] = false;
                            }
                            break;
                        }
                        Ok(Msg::Ping { .. }) => {
                            self.members[j].last_seen = Instant::now();
                            continue;
                        }
                        Ok(_) => continue,
                        Err(WireError::Timeout) => break,
                        Err(_) => {
                            self.evict(algo, j, "connection lost");
                            return RoundStatus::Resized;
                        }
                    }
                }
            }
            let now = Instant::now();
            for j in 0..k {
                if !pending[j] {
                    continue;
                }
                if now.duration_since(self.members[j].last_seen) > self.cfg.heartbeat_timeout {
                    self.evict(algo, j, "heartbeat timeout");
                    return RoundStatus::Resized;
                }
                if now.duration_since(sent_at[j]) > self.cfg.work_resend {
                    if attempts[j] > self.cfg.retry.max_retries {
                        self.evict(algo, j, "work retries exhausted");
                        return RoundStatus::Resized;
                    }
                    std::thread::sleep(self.cfg.retry.backoff_for(attempts[j]));
                    self.counters.retries += 1;
                    self.telemetry.metrics.counter("net.retries").inc();
                    self.emit(ClusterEvent::Resent {
                        iter: round,
                        attempt: attempts[j],
                    });
                    if self
                        .send_work(j, round, algo.replica(j), &batches[j])
                        .is_err()
                    {
                        self.evict(algo, j, "work dispatch failed");
                        return RoundStatus::Resized;
                    }
                    attempts[j] += 1;
                    sent_at[j] = Instant::now();
                }
            }
        }
        RoundStatus::Done
    }

    /// One ring round: dispatch work to every member, wait for slot 0's
    /// gathered upload, resend to all with backoff, evict the silent.
    fn ring_round(
        &mut self,
        algo: &mut dyn SyncAlgorithm,
        batches: &[LearnerBatch],
        grads: &mut [Vec<f32>],
        losses: &mut [f32],
    ) -> RoundStatus {
        let k = self.members.len();
        self.round += 1;
        let round = self.round;
        for (j, batch) in batches.iter().enumerate().take(k) {
            if self.send_work(j, round, algo.replica(j), batch).is_err() {
                self.evict(algo, j, "work dispatch failed");
                return RoundStatus::Resized;
            }
        }
        let mut sent_at = Instant::now();
        let mut attempt = 1u32;
        loop {
            for j in 0..k {
                loop {
                    match self.members[j].conn.recv_timeout(POLL) {
                        Ok(Msg::GradSet {
                            iter,
                            losses: ls,
                            grads: gs,
                        }) => {
                            self.members[j].last_seen = Instant::now();
                            let fits = iter == round
                                && j == 0
                                && ls.len() == k
                                && gs.len() == k
                                && gs.iter().all(|g| g.len() == grads[0].len());
                            if fits {
                                for (dst, src) in grads.iter_mut().zip(&gs) {
                                    dst.copy_from_slice(src);
                                }
                                losses.copy_from_slice(&ls);
                                return RoundStatus::Done;
                            }
                            break;
                        }
                        Ok(Msg::Ping { .. }) => {
                            self.members[j].last_seen = Instant::now();
                            continue;
                        }
                        Ok(_) => continue,
                        Err(WireError::Timeout) => break,
                        Err(_) => {
                            self.evict(algo, j, "connection lost");
                            return RoundStatus::Resized;
                        }
                    }
                }
            }
            let now = Instant::now();
            for j in 0..k {
                if now.duration_since(self.members[j].last_seen) > self.cfg.heartbeat_timeout {
                    self.evict(algo, j, "heartbeat timeout");
                    return RoundStatus::Resized;
                }
            }
            if now.duration_since(sent_at) > self.cfg.work_resend {
                assert!(
                    attempt <= self.cfg.retry.max_retries,
                    "ring round {round} stalled with every worker responsive"
                );
                std::thread::sleep(self.cfg.retry.backoff_for(attempt));
                self.counters.retries += 1;
                self.telemetry.metrics.counter("net.retries").inc();
                self.emit(ClusterEvent::Resent {
                    iter: round,
                    attempt,
                });
                // Heal possibly-lost ring config, then replay the round.
                self.repeat_ring_config();
                for (j, batch) in batches.iter().enumerate().take(k) {
                    if self.send_work(j, round, algo.replica(j), batch).is_err() {
                        self.evict(algo, j, "work dispatch failed");
                        return RoundStatus::Resized;
                    }
                }
                attempt += 1;
                sent_at = Instant::now();
            }
        }
    }

    /// Blocks until at least one worker is connected (the last-survivor
    /// path: every member died; a replacement must appear).
    fn await_any_worker(&mut self, algo: &mut dyn SyncAlgorithm) {
        let deadline = Instant::now() + self.cfg.join_timeout;
        while self.members.is_empty() {
            if !self.accept_one(algo) {
                assert!(
                    Instant::now() < deadline,
                    "distributed run aborted: every worker died and none \
                     rejoined within {:?}",
                    self.cfg.join_timeout
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        if self.cfg.topology == Topology::Ring {
            self.push_ring_config();
        }
    }

    fn shutdown(&mut self) {
        for member in &self.members {
            let _ = member.conn.send(&Msg::Shutdown);
        }
        for member in &self.members {
            member.conn.shutdown();
        }
    }
}

impl GradientSource for RemoteCluster<'_> {
    fn round(
        &mut self,
        algo: &mut dyn SyncAlgorithm,
        batches: &[LearnerBatch],
        grads: &mut [Vec<f32>],
        losses: &mut [f32],
    ) -> RoundStatus {
        self.started = true;
        if self.members.is_empty() {
            self.await_any_worker(algo);
            return RoundStatus::Resized;
        }
        if self.adopt_joiners(algo) {
            return RoundStatus::Resized;
        }
        debug_assert_eq!(algo.k(), self.members.len(), "one member per slot");
        match self.cfg.topology {
            Topology::Ps => self.ps_round(algo, batches, grads, losses),
            Topology::Ring => self.ring_round(algo, batches, grads, losses),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbow_checkpoint::AlgoState;

    #[test]
    fn config_validation_enforces_timing_relations() {
        assert!(DistConfig::new(Topology::Ps, 2).validate().is_ok());

        let mut bad = DistConfig::new(Topology::Ps, 0);
        assert!(bad.validate().unwrap_err().contains("workers"));

        bad = DistConfig::new(Topology::Ps, 2);
        bad.heartbeat_interval = bad.heartbeat_timeout;
        assert!(bad.validate().unwrap_err().contains("heartbeat interval"));

        bad = DistConfig::new(Topology::Ring, 2);
        bad.lease_interval = bad.lease_timeout + Duration::from_millis(1);
        assert!(bad.validate().unwrap_err().contains("lease interval"));

        bad = DistConfig::new(Topology::Ps, 2);
        bad.state_every = 0;
        assert!(bad.validate().unwrap_err().contains("state_every"));

        // A sub-millisecond interval would reach workers as 0 ms.
        bad = DistConfig::new(Topology::Ps, 2);
        bad.heartbeat_interval = Duration::from_micros(500);
        bad.heartbeat_timeout = Duration::from_millis(100);
        assert!(bad.validate().unwrap_err().contains("heartbeat interval"));
    }

    #[test]
    fn a_late_standby_is_caught_up_with_the_newest_state() {
        use std::net::TcpStream;
        let coordinator = Coordinator::bind(
            "127.0.0.1:0",
            DistConfig::new(Topology::Ps, 1),
            Telemetry::disabled(),
        )
        .unwrap();
        let (tcfg, repl, lease) = coordinator.start_replication(&TrainerConfig::new(8, 1));
        let hook = tcfg
            .state_hook
            .expect("every run installs the replication tap");
        let state_at = |n: u64| TrainingState {
            seed: 7,
            algorithm: "sma".into(),
            iterations: n,
            algo: AlgoState {
                center: vec![n as f32; 33],
                replicas: vec![vec![-(n as f32); 33]; 2],
                iter: n,
                ..AlgoState::default()
            },
            ..TrainingState::default()
        };
        // N rounds with nobody to replicate to.
        const N: u64 = 5;
        for n in 1..=N {
            hook.publish(state_at(n));
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let standby_side = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (primary_side, _) = listener.accept().unwrap();
        assert!(repl.register(Conn::new(primary_side, Telemetry::disabled()).unwrap(), 1));
        let mut standby = Conn::new(standby_side, Telemetry::disabled()).unwrap();
        let mut next_state = || loop {
            match standby.recv_timeout(Duration::from_secs(5)).unwrap() {
                Msg::Lease { .. } => continue,
                Msg::State { term, seq, state } => break (term, seq, state),
                other => panic!("unexpected {other:?}"),
            }
        };
        // The catch-up is the newest state, byte for byte, at its seq.
        let (term, seq, bytes) = next_state();
        assert_eq!((term, seq), (0, N));
        assert_eq!(bytes, state_at(N).encode());
        assert_eq!(TrainingState::decode(&bytes).unwrap().iterations, N);
        // Once registered, every update is broadcast in sequence.
        hook.publish(state_at(N + 1));
        let (_, seq, bytes) = next_state();
        assert_eq!(seq, N + 1);
        assert_eq!(bytes, state_at(N + 1).encode());
        lease.stop();
        repl.shutdown(false);
    }

    #[test]
    fn an_unopenable_checkpoint_directory_fails_the_run_before_it_forms() {
        // A file where the checkpoint directory's parent should be: the
        // run's one open of the store fails, and the run returns that
        // error instead of waiting for workers that never come.
        let file =
            std::env::temp_dir().join(format!("crossbow-coord-store-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let mut cfg = DistConfig::new(Topology::Ps, 1);
        cfg.join_timeout = Duration::from_secs(2);
        let coordinator = Coordinator::bind("127.0.0.1:0", cfg, Telemetry::disabled()).unwrap();
        let net = crossbow_nn::zoo::mlp(4, &[4], 2);
        let data = crossbow_data::synth::gaussian_mixture(2, 4, 16, 0.3, 1);
        let init = net.init_params(&mut crossbow_tensor::Rng::new(1));
        let mut algo = crossbow_sync::Sma::new(init, 1, crossbow_sync::SmaConfig::default());
        let tcfg = TrainerConfig::new(4, 1).with_checkpointing(
            crossbow_sync::CheckpointConfig::new(file.join("checkpoints")),
        );
        let run = coordinator.run_from(&net, &data, &data, &mut algo, &tcfg, Start::Fresh);
        assert!(matches!(
            run,
            Err(crossbow_checkpoint::CheckpointError::Io(_))
        ));
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn bind_rejects_an_invalid_config() {
        let mut cfg = DistConfig::new(Topology::Ps, 2);
        cfg.heartbeat_interval = cfg.heartbeat_timeout * 2;
        let err = match Coordinator::bind("127.0.0.1:0", cfg, Telemetry::disabled()) {
            Err(err) => err,
            Ok(_) => panic!("validation must gate the bind"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}
