//! The worker: a stateless gradient server.
//!
//! A worker connects to the coordinator (with capped-exponential retry),
//! introduces itself, validates the admission state it is handed — the
//! latest durable checkpoint, recovered through exactly the
//! checkpoint-resume path — and then serves rounds: receive `Work`
//! (replica parameters plus a batch), compute the gradient with the same
//! arithmetic as the in-process trainer, and return it. A background
//! thread heartbeats over the same socket so the coordinator can tell a
//! slow worker from a dead one.
//!
//! In ring topology the gradient does not go straight back: workers
//! all-gather their gradient blocks over worker-to-worker TCP links
//! (each block travels `k - 1` hops), and slot 0 uploads the assembled
//! round. Membership changes re-key the ring under a new generation.

use crate::proto::{self, Msg};
use crate::transport::{connect_retry, Conn, MsgSender, RetryPolicy};
use crate::wire::{self, FrameReader, WireError};
use crossbow_checkpoint::TrainingState;
use crossbow_data::SampleSource;
use crossbow_nn::network::Scratch;
use crossbow_nn::Network;
use crossbow_telemetry::Telemetry;
use crossbow_tensor::Tensor;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Heartbeat interval when the coordinator's `Welcome` carries 0 ms.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(200);
/// The heartbeat thread checks its stop flag at least this often.
const HEARTBEAT_SLICE: Duration = Duration::from_millis(50);
/// Main-loop receive poll interval.
const RECV_TIMEOUT: Duration = Duration::from_millis(500);
/// Abandon a wedged ring all-gather after this long (the coordinator's
/// resend restarts the round for everyone).
const RING_TIMEOUT: Duration = Duration::from_secs(2);
/// How long to wait for the `Welcome` after sending `Hello` — long
/// enough to sit in a standby's accept backlog through a takeover.
const ADMIT_TIMEOUT: Duration = Duration::from_secs(30);

/// Worker-side configuration.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Coordinator address.
    pub connect: String,
    /// Backoff discipline for the initial connect and ring links.
    pub retry: RetryPolicy,
    /// Announce this join as a crash-recovery rejoin.
    pub rejoin: bool,
    /// Fallback coordinator addresses (standbys, in takeover-priority
    /// order) that [`run_worker_with_data`] rotates through when the
    /// current link dies. Non-empty turns the failover loop on.
    pub fallbacks: Vec<String>,
    /// How many consecutive *failed* sessions (ended in error without
    /// being admitted) the failover loop tolerates before it gives up.
    /// Above 0 turns the failover loop on.
    pub failover_retries: u32,
    /// Seed of the full-jitter reconnect backoff; give each worker a
    /// distinct seed so a herd restarting after a failover decorrelates.
    pub jitter_seed: u64,
}

impl WorkerConfig {
    /// Defaults for a worker dialing `connect`.
    pub fn new(connect: impl Into<String>) -> Self {
        WorkerConfig {
            connect: connect.into(),
            retry: RetryPolicy::default(),
            rejoin: false,
            fallbacks: Vec::new(),
            failover_retries: 0,
            jitter_seed: 0,
        }
    }
}

/// Worker lifecycle events, surfaced to the embedding process.
#[derive(Clone, Debug)]
pub enum WorkerEvent {
    /// Admission completed.
    Joined {
        /// The slot this worker owns.
        slot: usize,
        /// The run iteration recorded in the admission state.
        iterations: u64,
        /// Whether this process announced itself as a rejoin.
        rejoin: bool,
    },
}

/// What a worker did before shutting down.
#[derive(Clone, Copy, Debug)]
pub struct WorkerOutcome {
    /// The slot owned at admission (the last session's, under the
    /// failover loop).
    pub slot: usize,
    /// Gradient rounds served in the last session.
    pub rounds: u64,
    /// The run iteration recorded in the admission state (non-zero for
    /// a rejoin against a mid-run checkpoint).
    pub joined_at_iteration: u64,
    /// Coordinator sessions this worker served (1 unless the failover
    /// loop re-admitted it after a link loss or failover).
    pub sessions: u32,
}

/// Ring-link state: one inbound (predecessor) and one outbound
/// (successor) TCP stream, keyed by a membership generation.
struct RingLinks {
    generation: u64,
    slot: usize,
    k: usize,
    next_addr: String,
    pred: Option<(TcpStream, FrameReader)>,
    succ: Option<TcpStream>,
}

impl RingLinks {
    fn new(generation: u64, slot: usize, k: usize, next_addr: String) -> Self {
        RingLinks {
            generation,
            slot,
            k,
            next_addr,
            pred: None,
            succ: None,
        }
    }

    /// Dials the successor lazily, introducing this link's generation
    /// first so a stale peer can reject it.
    fn ensure_succ(&mut self, retry: &RetryPolicy, telemetry: &Telemetry) -> Result<(), WireError> {
        if self.succ.is_some() {
            return Ok(());
        }
        let stream = connect_retry(&self.next_addr, retry, telemetry)?;
        stream.set_nodelay(true).map_err(WireError::Io)?;
        let hello = Msg::RingHello {
            generation: self.generation,
            origin: self.slot as u32,
        };
        let mut stream = stream;
        stream
            .write_all(&hello.framed())
            .map_err(wire::map_write_err)?;
        self.succ = Some(stream);
        Ok(())
    }

    /// Writes one frame to the successor; a failed link is dropped so the
    /// next attempt redials.
    fn send_block(&mut self, msg: &Msg) -> Result<(), WireError> {
        let Some(succ) = self.succ.as_mut() else {
            return Err(WireError::Disconnected);
        };
        let res = succ.write_all(&msg.framed()).map_err(wire::map_write_err);
        if res.is_err() {
            self.succ = None;
        }
        res
    }

    /// Accepts a pending predecessor link, validating its generation.
    fn try_accept_pred(&mut self, listener: &TcpListener) {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        if stream.set_nonblocking(false).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        if stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .is_err()
        {
            return;
        }
        let mut frames = FrameReader::new();
        let mut stream = stream;
        if let Ok(payload) = frames.next_frame(&mut stream) {
            if let Ok(Msg::RingHello { generation, .. }) = Msg::decode(payload) {
                if generation == self.generation {
                    self.pred = Some((stream, frames));
                }
            }
        }
    }

    /// Reads one message from the predecessor, accepting the link first
    /// if necessary. Partial frames stay buffered across polls.
    fn recv_block(&mut self, listener: &TcpListener, poll: Duration) -> Result<Msg, WireError> {
        if self.pred.is_none() {
            self.try_accept_pred(listener);
        }
        let Some((stream, frames)) = self.pred.as_mut() else {
            std::thread::sleep(poll.min(Duration::from_millis(20)));
            return Err(WireError::Timeout);
        };
        stream.set_read_timeout(Some(poll)).map_err(WireError::Io)?;
        let payload = frames.next_frame(stream)?;
        Msg::decode(payload).map_err(|_| WireError::Corrupt("undecodable ring message"))
    }
}

/// All-gathers this round's blocks around the ring. Returns the per-slot
/// `(loss, gradient)` table, or `None` when the exchange wedged (a
/// membership change or lost link) — the coordinator's resend restarts
/// the round.
#[allow(clippy::too_many_arguments)]
fn ring_exchange(
    ring: &mut RingLinks,
    listener: &TcpListener,
    iter: u64,
    my_loss: f32,
    my_grad: &[f32],
    timeout: Duration,
    retry: &RetryPolicy,
    telemetry: &Telemetry,
) -> Option<(Vec<f32>, Vec<Vec<f32>>)> {
    let k = ring.k;
    if k == 1 {
        return Some((vec![my_loss], vec![my_grad.to_vec()]));
    }
    let mut blocks: Vec<Option<(f32, Vec<f32>)>> = vec![None; k];
    blocks[ring.slot] = Some((my_loss, my_grad.to_vec()));
    ring.ensure_succ(retry, telemetry).ok()?;
    ring.send_block(&Msg::Block {
        iter,
        origin: ring.slot as u32,
        loss: my_loss,
        grad: my_grad.to_vec(),
    })
    .ok()?;
    let succ_slot = (ring.slot + 1) % k;
    let deadline = Instant::now() + timeout;
    while blocks.iter().any(Option::is_none) {
        if Instant::now() > deadline {
            return None;
        }
        match ring.recv_block(listener, Duration::from_millis(20)) {
            Ok(Msg::Block {
                iter: i,
                origin,
                loss,
                grad,
            }) if i == iter => {
                let o = origin as usize;
                if o < k && blocks[o].is_none() {
                    // Forward before keeping, unless the next hop is the
                    // block's own origin (it already has it).
                    if o != succ_slot {
                        ring.send_block(&Msg::Block {
                            iter: i,
                            origin,
                            loss,
                            grad: grad.clone(),
                        })
                        .ok()?;
                    }
                    blocks[o] = Some((loss, grad));
                }
            }
            Ok(_) => {}
            Err(WireError::Timeout) => {}
            Err(_) => {
                // Predecessor gone; wait for it to redial or for the
                // deadline to abandon the round.
                ring.pred = None;
            }
        }
    }
    let mut losses = Vec::with_capacity(k);
    let mut grads = Vec::with_capacity(k);
    for block in blocks {
        let (loss, grad) = block.expect("all blocks gathered");
        losses.push(loss);
        grads.push(grad);
    }
    Some((losses, grads))
}

/// Runs one worker to completion: connect, admit, serve gradients until
/// the coordinator says `Shutdown`. With `cfg.fallbacks` or
/// `cfg.failover_retries` set, a lost link is survived as
/// [`run_worker_with_data`] describes.
///
/// # Errors
/// [`WireError`] when the coordinator link dies or admission fails.
///
/// # Panics
/// Panics when the admission state disagrees with the local network
/// architecture — serving gradients for a different model corrupts the
/// run, so it must be loud.
pub fn run_worker(
    net: &Network,
    cfg: &WorkerConfig,
    telemetry: &Telemetry,
    on_event: &dyn Fn(WorkerEvent),
) -> Result<WorkerOutcome, WireError> {
    run_worker_with_data(net, None, cfg, telemetry, on_event)
}

/// [`run_worker`] with a locally held dataset: when the coordinator runs
/// shard-partitioned, it ships [`Msg::WorkIdx`] (sample indices) instead
/// of gathered batch payloads, and the worker gathers from `data` — the
/// mmap-backed shard set it opened itself. Workers without local data
/// still serve payload-mode [`Msg::Work`] rounds.
///
/// With no `cfg.fallbacks` and `cfg.failover_retries == 0` the worker
/// serves one coordinator session. Otherwise it runs a failover loop:
/// when a session ends in a link error, it reconnects — rotating through
/// `cfg.connect` and `cfg.fallbacks` — and re-`Hello`s as a rejoin, with
/// seeded full-jitter backoff between attempts so a worker herd
/// restarting after a primary crash decorrelates. The same dataset
/// handle is reused across sessions. The loop returns once a session
/// ends with the coordinator's `Shutdown`; `slot`/`rounds` describe that
/// final session, `sessions` counts every admission attempt.
///
/// # Errors
/// As [`run_worker`]; additionally [`WireError::Corrupt`] when index
/// work arrives without local data, when the assigned sample range does
/// not fit the local dataset, or when a gather fails. The failover loop
/// returns the last session's error once `cfg.failover_retries + 1`
/// consecutive sessions failed without being admitted; a session that
/// was admitted (its `Joined` event fired) refreshes the retry budget
/// and restarts the dial rotation at the primary address.
///
/// # Panics
/// As [`run_worker`].
pub fn run_worker_with_data(
    net: &Network,
    data: Option<Arc<dyn SampleSource>>,
    cfg: &WorkerConfig,
    telemetry: &Telemetry,
    on_event: &dyn Fn(WorkerEvent),
) -> Result<WorkerOutcome, WireError> {
    if cfg.fallbacks.is_empty() && cfg.failover_retries == 0 {
        return run_session(net, data, cfg, telemetry, on_event);
    }
    let mut addrs = vec![cfg.connect.clone()];
    addrs.extend(cfg.fallbacks.iter().cloned());
    let mut jitter = cfg.jitter_seed;
    let mut sessions = 0u32;
    let mut failures = 0u32; // consecutive sessions that never joined
    let mut next_addr = 0usize;
    loop {
        let joined = AtomicBool::new(false);
        let tap = |ev: WorkerEvent| {
            if matches!(ev, WorkerEvent::Joined { .. }) {
                joined.store(true, Ordering::Relaxed);
            }
            on_event(ev);
        };
        let mut session_cfg = cfg.clone();
        session_cfg.connect = addrs[next_addr % addrs.len()].clone();
        // Any session after the first is a crash-recovery rejoin.
        session_cfg.rejoin = cfg.rejoin || sessions > 0;
        sessions += 1;
        match run_session(net, data.clone(), &session_cfg, telemetry, &tap) {
            Ok(outcome) => {
                telemetry
                    .metrics
                    .counter("net.worker_sessions")
                    .add(u64::from(sessions));
                return Ok(WorkerOutcome {
                    sessions,
                    ..outcome
                });
            }
            Err(e) => {
                if joined.load(Ordering::Relaxed) {
                    // Admitted, then the link died mid-run — the primary
                    // crashed or we were evicted. Fresh budget, dial the
                    // primary address first again.
                    failures = 0;
                    next_addr = 0;
                } else {
                    failures += 1;
                    next_addr += 1;
                    if failures > cfg.failover_retries {
                        return Err(e);
                    }
                }
                telemetry.metrics.counter("net.worker_failovers").inc();
                std::thread::sleep(
                    cfg.retry
                        .jittered_backoff_for(failures.clamp(1, 6), &mut jitter),
                );
            }
        }
    }
}

/// One coordinator session: connect, admit, serve until `Shutdown` or
/// a link error.
fn run_session(
    net: &Network,
    data: Option<Arc<dyn SampleSource>>,
    cfg: &WorkerConfig,
    telemetry: &Telemetry,
    on_event: &dyn Fn(WorkerEvent),
) -> Result<WorkerOutcome, WireError> {
    let stream = connect_retry(&cfg.connect, &cfg.retry, telemetry)?;
    // The ring listener binds on the interface that reaches the
    // coordinator, so the advertised address works for peers too.
    let local_ip = stream.local_addr().map_err(WireError::Io)?.ip();
    let ring_listener = TcpListener::bind((local_ip, 0)).map_err(WireError::Io)?;
    ring_listener.set_nonblocking(true).map_err(WireError::Io)?;
    let ring_addr = ring_listener
        .local_addr()
        .map_err(WireError::Io)?
        .to_string();

    let mut conn = Conn::new(stream, telemetry.clone()).map_err(WireError::Io)?;
    conn.send(&Msg::Hello {
        rejoin: cfg.rejoin,
        ring_addr,
    })?;

    // Admission: wait for the Welcome, tolerate quiet (a standby queues
    // the Hello and answers only once it has taken over).
    let admit_deadline = Instant::now() + ADMIT_TIMEOUT;
    let (slot, _k, topology, weight_decay, heartbeat_ms, data_range, state) = loop {
        match conn.recv_timeout(RECV_TIMEOUT) {
            Ok(Msg::Welcome {
                slot,
                k,
                topology,
                weight_decay,
                heartbeat_ms,
                data_lo,
                data_hi,
                state,
            }) => {
                break (
                    slot as usize,
                    k as usize,
                    topology,
                    weight_decay,
                    heartbeat_ms,
                    (data_lo, data_hi),
                    state,
                )
            }
            Ok(Msg::Shutdown) => return Err(WireError::Disconnected),
            Ok(_) => continue,
            Err(WireError::Timeout) if Instant::now() < admit_deadline => continue,
            Err(WireError::Timeout) => return Err(WireError::Timeout),
            Err(e) => return Err(e),
        }
    };
    let state = TrainingState::decode(&state)
        .map_err(|_| WireError::Corrupt("undecodable admission state"))?;
    // Crash recovery hands the newcomer a checkpoint; it must describe
    // the model this process was started with.
    if !state.algo.center.is_empty() {
        assert_eq!(
            state.algo.center.len(),
            net.param_len(),
            "admission state is for a different model ({} params, local net has {})",
            state.algo.center.len(),
            net.param_len()
        );
    }
    // A data-range assignment only makes sense against a local dataset
    // that actually covers it.
    if data_range.1 > data_range.0 {
        let Some(local) = &data else {
            return Err(WireError::Corrupt(
                "coordinator assigned a data range but no local dataset was opened",
            ));
        };
        if data_range.1 > local.len() as u64 {
            return Err(WireError::Corrupt(
                "assigned data range lies outside the local dataset",
            ));
        }
    }
    let joined_at_iteration = state.iterations;
    on_event(WorkerEvent::Joined {
        slot,
        iterations: joined_at_iteration,
        rejoin: cfg.rejoin,
    });

    // Heartbeats share the socket through the frame-atomic sender. The
    // coordinator's Welcome dictates the interval (keeping the validated
    // interval < eviction-timeout relation cluster-wide); 0 falls back
    // to the worker's own default.
    let hb_interval = if heartbeat_ms > 0 {
        Duration::from_millis(heartbeat_ms)
    } else {
        HEARTBEAT_INTERVAL
    };
    let stop = Arc::new(AtomicBool::new(false));
    let slot_cell = Arc::new(AtomicU32::new(slot as u32));
    let hb = spawn_heartbeat(
        conn.sender(),
        Arc::clone(&stop),
        Arc::clone(&slot_cell),
        hb_interval,
    );

    let result = serve(
        net,
        data.as_deref(),
        cfg,
        telemetry,
        &mut conn,
        &ring_listener,
        topology,
        weight_decay,
        &slot_cell,
    );
    stop.store(true, Ordering::Relaxed);
    let _ = hb.join();
    result.map(|rounds| WorkerOutcome {
        slot,
        rounds,
        joined_at_iteration,
        sessions: 1,
    })
}

/// Pings every `interval` until `stop` is set. Sleeps in slices of at
/// most [`HEARTBEAT_SLICE`], so a session end never waits a whole
/// interval for the thread to notice, even when a peer-supplied interval
/// is huge.
fn spawn_heartbeat(
    sender: MsgSender,
    stop: Arc<AtomicBool>,
    slot: Arc<AtomicU32>,
    interval: Duration,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        // `None` when the interval runs past what `Instant` can hold: no
        // ping is ever due.
        let mut due = Instant::now().checked_add(interval);
        while !stop.load(Ordering::Relaxed) {
            let now = Instant::now();
            match due {
                Some(at) if now >= at => {
                    let ping = Msg::Ping {
                        slot: slot.load(Ordering::Relaxed),
                    };
                    if sender.send(&ping).is_err() {
                        break;
                    }
                    due = Instant::now().checked_add(interval);
                }
                Some(at) => std::thread::sleep((at - now).min(HEARTBEAT_SLICE)),
                None => std::thread::sleep(HEARTBEAT_SLICE),
            }
        }
    })
}

/// Checks a `Work` batch against the local model before any tensor is
/// built from it — every field is peer-controlled, so a mismatch is a
/// `None`, never a panic: at least one sample, per-sample dims equal to
/// the network's input shape, a dims product (computed without overflow)
/// equal to the image count, one label per sample, every label a class
/// the network has.
fn work_batch(
    net: &Network,
    dims: &[u64],
    images: Vec<f32>,
    labels: &[u64],
) -> Option<(Tensor, Vec<usize>)> {
    let dims: Vec<usize> = dims
        .iter()
        .map(|&d| usize::try_from(d).ok())
        .collect::<Option<_>>()?;
    let (&batch, sample) = dims.split_first()?;
    let elems = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d))?;
    let classes = net.output_classes() as u64;
    let fits = batch > 0
        && sample == net.input_shape().dims()
        && elems == images.len()
        && labels.len() == batch
        && labels.iter().all(|&l| l < classes);
    if !fits {
        return None;
    }
    let labels = labels.iter().map(|&l| l as usize).collect();
    Some((Tensor::from_vec(dims.as_slice(), images), labels))
}

/// The round-serving loop. Returns the number of rounds served.
#[allow(clippy::too_many_arguments)]
fn serve(
    net: &Network,
    data: Option<&dyn SampleSource>,
    cfg: &WorkerConfig,
    telemetry: &Telemetry,
    conn: &mut Conn,
    ring_listener: &TcpListener,
    topology: u8,
    weight_decay: f32,
    slot_cell: &AtomicU32,
) -> Result<u64, WireError> {
    let plen = net.param_len();
    let mut grad = vec![0.0f32; plen];
    let mut cached: Option<(usize, Scratch)> = None;
    let mut ring: Option<RingLinks> = None;
    let mut rounds = 0u64;

    // One round's compute + reply, shared by payload (`Work`) and index
    // (`WorkIdx`) modes: exactly the in-process trainer's arithmetic, so
    // the distributed curve is bit-identical to the local one.
    macro_rules! compute_round {
        ($iter:expr, $slot:expr, $params:expr, $images:expr, $labels:expr) => {{
            let (iter, slot, params, images, labels) = ($iter, $slot, $params, $images, $labels);
            slot_cell.store(slot, Ordering::Relaxed);
            let batch = images.shape().dims()[0];
            // Scratch follows the §4.5 memory plan for this batch size
            // and is reused across rounds.
            let scratch = match &mut cached {
                Some((b, scratch)) if *b == batch => scratch,
                _ => {
                    let plan = net.plan(batch);
                    cached = Some((batch, net.scratch_with_plan(&plan)));
                    &mut cached.as_mut().expect("just set").1
                }
            };
            let (loss, _) = net.loss_and_grad(&params, &images, &labels, &mut grad, scratch);
            if weight_decay != 0.0 {
                crossbow_tensor::ops::axpy(weight_decay, &params, &mut grad);
            }
            rounds += 1;
            if topology == 0 {
                conn.send_frame(&wire::frame_with(|w| {
                    proto::write_grad(w, iter, slot, loss, &grad)
                }))?;
            } else if let Some(links) = &mut ring {
                let gathered = ring_exchange(
                    links,
                    ring_listener,
                    iter,
                    loss,
                    &grad,
                    RING_TIMEOUT,
                    &cfg.retry,
                    telemetry,
                );
                if let Some((losses, grads)) = gathered {
                    if links.slot == 0 {
                        conn.send(&Msg::GradSet {
                            iter,
                            losses,
                            grads,
                        })?;
                    }
                }
                // A wedged exchange falls through: the coordinator's
                // resend (or a new Ring config) arrives here.
            }
        }};
    }

    loop {
        match conn.recv_timeout(RECV_TIMEOUT) {
            Ok(Msg::Work {
                iter,
                slot,
                params,
                dims,
                images,
                labels,
            }) => {
                if params.len() != plen {
                    return Err(WireError::Corrupt("work does not fit the local model"));
                }
                let (images, labels) = work_batch(net, &dims, images, &labels)
                    .ok_or(WireError::Corrupt("work does not fit the local model"))?;
                compute_round!(iter, slot, params, images, labels);
            }
            Ok(Msg::WorkIdx {
                iter,
                slot,
                params,
                indices,
            }) => {
                if params.len() != plen || indices.is_empty() {
                    return Err(WireError::Corrupt(
                        "index work does not fit the local model",
                    ));
                }
                let Some(local) = data else {
                    return Err(WireError::Corrupt(
                        "index work arrived but no local dataset was opened",
                    ));
                };
                let indices: Vec<usize> = indices.iter().map(|&i| i as usize).collect();
                // The gather is bit-identical to the coordinator's own
                // (the shard format stores f32 bit patterns), which is
                // what keeps index-mode runs on the same curve.
                let (images, labels) = local
                    .gather(&indices)
                    .map_err(|_| WireError::Corrupt("local gather failed for index work"))?;
                compute_round!(iter, slot, params, images, labels);
            }
            Ok(Msg::Ring {
                generation,
                slot,
                k,
                next,
            }) => {
                let stale = ring
                    .as_ref()
                    .is_some_and(|links| generation <= links.generation);
                if !stale {
                    slot_cell.store(slot, Ordering::Relaxed);
                    ring = Some(RingLinks::new(generation, slot as usize, k as usize, next));
                }
            }
            Ok(Msg::Shutdown) => return Ok(rounds),
            Ok(_) => continue,
            Err(WireError::Timeout) => continue,
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbow_nn::zoo::mlp;

    /// Admits one `run_worker` session over loopback with the given
    /// `Welcome` heartbeat interval, hands it `work`, keeps the session
    /// open for `linger`, then sends `Shutdown` and returns how the
    /// session ended. A worker panic fails the test at the join.
    fn serve_one(
        net: &Network,
        work: Msg,
        heartbeat_ms: u64,
        linger: Duration,
    ) -> Result<WorkerOutcome, WireError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                run_worker(
                    net,
                    &WorkerConfig::new(addr),
                    &Telemetry::disabled(),
                    &|_| {},
                )
            });
            let (stream, _) = listener.accept().unwrap();
            let mut conn = Conn::new(stream, Telemetry::disabled()).unwrap();
            while !matches!(
                conn.recv_timeout(Duration::from_secs(5)).unwrap(),
                Msg::Hello { .. }
            ) {}
            conn.send(&Msg::Welcome {
                slot: 0,
                k: 1,
                topology: 0,
                weight_decay: 0.0,
                heartbeat_ms,
                data_lo: 0,
                data_hi: 0,
                state: TrainingState::default().encode(),
            })
            .unwrap();
            conn.send(&work).unwrap();
            std::thread::sleep(linger);
            // The worker may already have hung up on a bad frame.
            let _ = conn.send(&Msg::Shutdown);
            worker.join().expect("the worker must not panic")
        })
    }

    /// A `Work` message for `net` (input shape [4]).
    fn work_for(net: &Network, dims: Vec<u64>, images: usize, labels: Vec<u64>) -> Msg {
        Msg::Work {
            iter: 1,
            slot: 0,
            params: vec![0.01; net.param_len()],
            dims,
            images: vec![0.5; images],
            labels,
        }
    }

    #[test]
    fn malformed_work_is_a_typed_error_not_a_panic() {
        // Input shape [4], 3 classes.
        let net = mlp(4, &[8], 3);
        let work = |dims, images, labels| work_for(&net, dims, images, labels);
        let outcome = serve_one(&net, work(vec![2, 4], 8, vec![0, 2]), 0, Duration::ZERO)
            .expect("well-formed work");
        assert_eq!(outcome.rounds, 1);
        let bad = [
            (
                "dims product != image count",
                work(vec![2, 4], 7, vec![0, 2]),
            ),
            (
                "dims product overflows",
                work(vec![2, 1 << 62, 1 << 62], 8, vec![0, 2]),
            ),
            ("labels != batch", work(vec![2, 4], 8, vec![0])),
            (
                "sample dims != input shape",
                work(vec![4, 2], 8, vec![0; 4]),
            ),
            ("label out of range", work(vec![2, 4], 8, vec![0, 3])),
            ("no dims", work(vec![], 8, vec![0, 2])),
            ("empty batch", work(vec![0, 4], 0, vec![])),
        ];
        for (why, msg) in bad {
            match serve_one(&net, msg, 0, Duration::ZERO) {
                Err(WireError::Corrupt(what)) => {
                    assert_eq!(what, "work does not fit the local model", "{why}")
                }
                other => panic!("{why}: expected a corrupt-work error, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_huge_heartbeat_interval_does_not_wedge_the_session_end() {
        // A peer-supplied interval near `u64::MAX` ms: the heartbeat
        // thread, asleep by the time the session ends, must still notice
        // the end promptly.
        let net = mlp(4, &[8], 3);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let work = work_for(&net, vec![2, 4], 8, vec![0, 2]);
            let linger = Duration::from_millis(200);
            let _ = tx.send(serve_one(&net, work, u64::MAX, linger).map(|o| o.rounds));
        });
        let served = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the session must end within 5 s");
        assert_eq!(served.expect("well-formed work"), 1);
    }
}
