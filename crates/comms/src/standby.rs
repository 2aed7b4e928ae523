//! The warm standby: a coordinator-in-waiting.
//!
//! A standby binds its own listener (advertised to workers as a fallback
//! address), registers with the primary by sending a `Lease`
//! introduction instead of a `Hello`, and then *follows*: it keeps the
//! latest `State` update the primary streams (the same post-step
//! [`TrainingState`] a durable checkpoint would persist) and watches the
//! lease renewals. When leases stop — silence past the lease timeout, or
//! the abrupt FIN a killed primary leaves — it runs a deterministic
//! election: wait out a priority-proportional stagger, defer to any
//! higher-priority peer that answers a re-registration probe, and
//! otherwise take over at `term + 1` by running
//! [`Coordinator::run_from_state`] on its own listener. Because the
//! streamed state is an exact post-step snapshot and workers are
//! stateless, a takeover with no in-flight loss continues the curve
//! bit-identically.

use crate::coordinator::{Coordinator, DistConfig, DistReport, EventHook};
use crate::proto::Msg;
use crate::transport::{connect_retry, Conn, RetryPolicy};
use crate::wire::WireError;
use crossbow_checkpoint::TrainingState;
use crossbow_data::Dataset;
use crossbow_nn::Network;
use crossbow_sync::{SyncAlgorithm, TrainerConfig};
use crossbow_telemetry::Telemetry;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Poll granularity on the follow link.
const RECV_TIMEOUT: Duration = Duration::from_millis(100);
/// How long to wait for the primary's `Lease` ack at registration.
const REGISTER_TIMEOUT: Duration = Duration::from_secs(5);
/// Extra election delay per priority unit, so standbys self-promote in
/// priority order instead of racing.
const ELECTION_STAGGER: Duration = Duration::from_millis(500);
/// Per-peer ack window when probing during an election.
const PROBE_TIMEOUT: Duration = Duration::from_millis(500);

/// Standby-side configuration.
#[derive(Clone, Debug)]
pub struct StandbyConfig {
    /// The primary coordinator's address.
    pub connect: String,
    /// Takeover priority: lower values take over first. Ties are broken
    /// by whoever wins the workers, so give every standby a distinct
    /// priority.
    pub priority: u32,
    /// Advertised addresses of *higher-priority* standbys. During an
    /// election these are probed (oldest first) before self-promotion;
    /// one that answers becomes this standby's new primary.
    pub peers: Vec<String>,
    /// Dial/backoff discipline for registration and probes.
    pub retry: RetryPolicy,
}

impl StandbyConfig {
    /// Defaults for a standby following the primary at `connect`.
    pub fn new(connect: impl Into<String>) -> Self {
        StandbyConfig {
            connect: connect.into(),
            priority: 1,
            peers: Vec::new(),
            retry: RetryPolicy::default(),
        }
    }
}

/// Standby lifecycle events, surfaced to the embedding process (the CLI
/// prints these as progress markers).
#[derive(Clone, Debug)]
pub enum StandbyEvent {
    /// Registered with a primary.
    Registered {
        /// The primary's current term.
        term: u64,
    },
    /// Received a state update.
    State {
        /// The term the update was produced under.
        term: u64,
        /// The update's sequence number.
        seq: u64,
        /// Trainer iterations captured in the update.
        iterations: u64,
    },
    /// Deferred to a higher-priority peer during an election.
    Deferred {
        /// The peer that answered the probe.
        peer: String,
        /// Its term.
        term: u64,
    },
    /// Won the election; promoting to primary at this term.
    TakingOver {
        /// The new term (last observed + 1).
        term: u64,
    },
}

/// How a standby's watch ended.
#[derive(Debug)]
pub enum StandbyOutcome {
    /// The primary finished the run and said goodbye; nothing to do.
    PrimaryFinished,
    /// This standby took over and drove the run to completion.
    TookOver(DistReport),
}

/// What the follow loop observed before it ended.
struct Followed {
    term_seen: u64,
    last_state: Option<Vec<u8>>,
    finished: bool,
}

/// Registers with the coordinator at `addr` and returns the follow link
/// plus the acked term.
fn register(
    addr: &str,
    term_seen: u64,
    scfg: &StandbyConfig,
    telemetry: &Telemetry,
) -> Result<(Conn, u64), WireError> {
    let stream = connect_retry(addr, &scfg.retry, telemetry)?;
    let mut conn = Conn::new(stream, telemetry.clone()).map_err(WireError::Io)?;
    conn.send(&Msg::Lease {
        term: term_seen,
        priority: scfg.priority,
    })?;
    let until = Instant::now() + REGISTER_TIMEOUT;
    loop {
        match conn.recv_timeout(RECV_TIMEOUT) {
            Ok(Msg::Lease { term, .. }) => return Ok((conn, term)),
            Ok(Msg::Shutdown) => return Err(WireError::Disconnected),
            Ok(_) => continue,
            Err(WireError::Timeout) if Instant::now() < until => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Follows one primary until it finishes, dies, or goes silent past the
/// lease timeout.
fn follow(
    conn: &mut Conn,
    mut term_seen: u64,
    mut last_state: Option<Vec<u8>>,
    lease_timeout: Duration,
    on_event: &dyn Fn(StandbyEvent),
) -> Followed {
    let mut last_signal = Instant::now();
    loop {
        match conn.recv_timeout(RECV_TIMEOUT) {
            Ok(Msg::Lease { term, .. }) => {
                term_seen = term_seen.max(term);
                last_signal = Instant::now();
            }
            Ok(Msg::State { term, seq, state }) => {
                // A stale-term update (an old primary flushing its last
                // write) must never overwrite a newer term's state.
                if term >= term_seen {
                    term_seen = term;
                    let iterations = TrainingState::decode(&state)
                        .map(|s| s.iterations)
                        .unwrap_or(0);
                    on_event(StandbyEvent::State {
                        term,
                        seq,
                        iterations,
                    });
                    last_state = Some(state);
                }
                last_signal = Instant::now();
            }
            Ok(Msg::Shutdown) => {
                return Followed {
                    term_seen,
                    last_state,
                    finished: true,
                }
            }
            Ok(_) => last_signal = Instant::now(),
            Err(WireError::Timeout) => {
                if last_signal.elapsed() > lease_timeout {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    Followed {
        term_seen,
        last_state,
        finished: false,
    }
}

/// Probes a peer during an election: dial once (no retry — a dead peer
/// must not stall the election), re-introduce, and wait briefly for the
/// `Lease` ack.
fn probe(
    addr: &str,
    term_seen: u64,
    scfg: &StandbyConfig,
    telemetry: &Telemetry,
) -> Option<(Conn, u64)> {
    let stream = TcpStream::connect(addr).ok()?;
    let mut conn = Conn::new(stream, telemetry.clone()).ok()?;
    conn.send(&Msg::Lease {
        term: term_seen,
        priority: scfg.priority,
    })
    .ok()?;
    let until = Instant::now() + PROBE_TIMEOUT;
    loop {
        match conn.recv_timeout(PROBE_TIMEOUT) {
            Ok(Msg::Lease { term, .. }) => return Some((conn, term)),
            Ok(Msg::Shutdown) => return None,
            Ok(_) if Instant::now() < until => continue,
            _ => return None,
        }
    }
}

/// Runs a warm standby to completion: register, follow, and — if the
/// primary dies — win or defer the election. On takeover the standby
/// promotes its own `listener` into a [`Coordinator`] at the next term,
/// rebuilds the algorithm at the replicated state's learner count via
/// `algo_factory`, and drives the rest of the run.
///
/// `dist` supplies the takeover-side cluster configuration; its
/// `lease_timeout` also sets how long this standby tolerates lease
/// silence (keep it identical across the fleet).
///
/// # Errors
/// A [`WireError`] when registration with the primary fails, or an `Io`
/// wrap of a takeover bind failure.
///
/// # Panics
/// On takeover, as [`Coordinator::run_from_state`] — notably when the
/// replicated state does not fit the configured run.
#[allow(clippy::too_many_arguments)] // the coordinator run surface, plus standby identity
pub fn run_standby(
    net: &Network,
    train_set: &Dataset,
    test_set: &Dataset,
    algo_factory: &dyn Fn(usize) -> Box<dyn SyncAlgorithm>,
    tcfg: &TrainerConfig,
    dist: &DistConfig,
    scfg: &StandbyConfig,
    listener: TcpListener,
    telemetry: Telemetry,
    events: Option<EventHook>,
    on_event: &dyn Fn(StandbyEvent),
) -> Result<StandbyOutcome, WireError> {
    let (mut conn, mut term_seen) = register(&scfg.connect, dist.term, scfg, &telemetry)?;
    on_event(StandbyEvent::Registered { term: term_seen });
    let mut last_state: Option<Vec<u8>> = None;
    loop {
        let followed = follow(
            &mut conn,
            term_seen,
            last_state.take(),
            dist.lease_timeout,
            on_event,
        );
        term_seen = followed.term_seen;
        last_state = followed.last_state;
        if followed.finished {
            return Ok(StandbyOutcome::PrimaryFinished);
        }
        // Election. Stagger by priority so the fleet self-promotes in
        // order, then give way to any higher-priority peer still alive.
        conn.shutdown();
        std::thread::sleep(ELECTION_STAGGER * scfg.priority.saturating_sub(1));
        let mut deferred = None;
        for peer in &scfg.peers {
            if let Some((peer_conn, term)) = probe(peer, term_seen, scfg, &telemetry) {
                on_event(StandbyEvent::Deferred {
                    peer: peer.clone(),
                    term,
                });
                deferred = Some((peer_conn, term));
                break;
            }
        }
        if let Some((peer_conn, term)) = deferred {
            conn = peer_conn;
            term_seen = term_seen.max(term);
            continue;
        }
        // Won: promote at the next term and finish the run ourselves.
        let term = term_seen + 1;
        on_event(StandbyEvent::TakingOver { term });
        telemetry.metrics.counter("net.takeovers").inc();
        let state = last_state
            .as_deref()
            .map(|bytes| TrainingState::decode(bytes).expect("replicated state must decode"));
        // The replicated state's replica count is the cluster size the
        // old primary last ran with — honor it even if it drifted from
        // the configured formation size through evictions or rejoins.
        let k = state
            .as_ref()
            .map(|s| s.algo.replicas.len())
            .filter(|k| *k > 0)
            .unwrap_or(dist.workers);
        let mut cfg = dist.clone();
        cfg.term = term;
        cfg.workers = k;
        let mut coordinator =
            Coordinator::from_listener(listener, cfg, telemetry).map_err(WireError::Io)?;
        if let Some(hook) = events {
            coordinator = coordinator.with_events(hook);
        }
        let mut algo = algo_factory(k);
        let report =
            coordinator.run_from_state(net, train_set, test_set, algo.as_mut(), tcfg, state);
        return Ok(StandbyOutcome::TookOver(report));
    }
}
