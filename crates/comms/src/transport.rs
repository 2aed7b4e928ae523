//! Message-level transport: retry policy, connections, heartbeat senders.
//!
//! A [`Conn`] wraps one TCP stream with framing, fault injection, and
//! telemetry (`net.bytes_sent` / `net.bytes_recv` counters, `net-send` /
//! `net-recv` spans). The write half lives behind a mutex in a cloneable
//! [`MsgSender`], so a worker's heartbeat thread and its main loop share
//! one socket without interleaving frames.

use crate::fault::{FaultAction, FaultInjector};
use crate::proto::Msg;
use crate::wire::{self, FrameReader, WireError};
use crossbow_telemetry::{Shard, SpanKind, Telemetry, HOST_DEVICE};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Capped-exponential backoff for sends, connects, and work re-issues —
/// the socket-scale mirror of the GPU simulator's retry discipline.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Give up (and escalate to eviction/error) after this many retries.
    pub max_retries: u32,
    /// First-retry backoff; doubles every attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (1-based): `base * 2^(attempt-1)`,
    /// capped.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        self.backoff_base
            .saturating_mul(1u32 << exp)
            .min(self.backoff_cap)
    }

    /// Full-jitter backoff: a uniform draw in `[0, backoff_for(attempt)]`
    /// from the seeded SplitMix64 stream behind `state`. Workers that all
    /// lost the same primary restart with decorrelated sleeps instead of
    /// hammering the standby in lockstep — and a fixed seed keeps the
    /// schedule replayable, like every other fault-path decision here.
    pub fn jittered_backoff_for(&self, attempt: u32, state: &mut u64) -> Duration {
        let cap = self.backoff_for(attempt);
        if cap.is_zero() {
            return cap;
        }
        // 53 high bits → a uniform fraction in [0, 1).
        let frac = (crate::fault::splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
        cap.mul_f64(frac)
    }
}

/// The mutex-guarded write half of a connection.
struct SendHalf {
    stream: TcpStream,
    injector: Option<FaultInjector>,
    shard: Shard,
}

/// A cloneable handle that writes whole frames under the connection's
/// write lock. Heartbeat threads hold one of these.
#[derive(Clone)]
pub struct MsgSender {
    half: Arc<Mutex<SendHalf>>,
    telemetry: Telemetry,
}

impl MsgSender {
    /// Encodes, applies the fault plan, and writes one frame.
    ///
    /// # Errors
    /// [`WireError::Disconnected`] when the peer (or an injected
    /// disconnect) killed the link; [`WireError::Io`] otherwise.
    pub fn send(&self, msg: &Msg) -> Result<(), WireError> {
        self.send_frame(&msg.framed())
    }

    /// Applies the fault plan to, and writes, one already built frame —
    /// the path for messages framed straight from borrowed buffers.
    ///
    /// # Errors
    /// As [`MsgSender::send`].
    pub(crate) fn send_frame(&self, bytes: &[u8]) -> Result<(), WireError> {
        let mut half = self.half.lock().unwrap_or_else(PoisonError::into_inner);
        let action = half
            .injector
            .as_mut()
            .map_or(FaultAction::Deliver, FaultInjector::on_send);
        match action {
            FaultAction::Deliver => {}
            FaultAction::Drop => {
                // The frame vanishes on the wire: the caller believes it
                // was sent, exactly like a lost packet past the kernel.
                self.telemetry.metrics.counter("net.faults_injected").inc();
                return Ok(());
            }
            FaultAction::Delay(d) => {
                self.telemetry.metrics.counter("net.faults_injected").inc();
                std::thread::sleep(d);
            }
            FaultAction::Disconnect => {
                self.telemetry.metrics.counter("net.faults_injected").inc();
                let _ = half.stream.shutdown(Shutdown::Both);
                return Err(WireError::Disconnected);
            }
        }
        let t = half.shard.now_ns();
        half.stream.write_all(bytes).map_err(wire::map_write_err)?;
        half.shard
            .close(SpanKind::NetSend, "net-send", t, HOST_DEVICE, 0, None);
        self.telemetry
            .metrics
            .counter("net.bytes_sent")
            .add(bytes.len() as u64);
        Ok(())
    }
}

/// One framed, telemetered TCP connection.
pub struct Conn {
    read: TcpStream,
    frames: FrameReader,
    send: Arc<Mutex<SendHalf>>,
    telemetry: Telemetry,
    shard: Shard,
    read_timeout: Option<Duration>,
}

impl Conn {
    /// Wraps `stream`. `TCP_NODELAY` is set: frames are latency-bound
    /// control traffic, not bulk throughput.
    ///
    /// # Errors
    /// Any socket-option or clone failure.
    pub fn new(stream: TcpStream, telemetry: Telemetry) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        let write = stream.try_clone()?;
        let shard = telemetry.recorder.shard();
        let send_shard = telemetry.recorder.shard();
        Ok(Conn {
            read: stream,
            frames: FrameReader::new(),
            send: Arc::new(Mutex::new(SendHalf {
                stream: write,
                injector: None,
                shard: send_shard,
            })),
            telemetry,
            shard,
            read_timeout: None,
        })
    }

    /// Attaches a fault injector to the send path (builder style).
    pub fn with_injector(self, injector: FaultInjector) -> Self {
        self.send
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .injector = Some(injector);
        self
    }

    /// A cloneable handle to the write half.
    pub fn sender(&self) -> MsgSender {
        MsgSender {
            half: Arc::clone(&self.send),
            telemetry: self.telemetry.clone(),
        }
    }

    /// Sends one message (see [`MsgSender::send`]).
    ///
    /// # Errors
    /// As [`MsgSender::send`].
    pub fn send(&self, msg: &Msg) -> Result<(), WireError> {
        self.sender().send(msg)
    }

    /// Sends one already built frame (see [`MsgSender::send_frame`]).
    ///
    /// # Errors
    /// As [`MsgSender::send`].
    pub(crate) fn send_frame(&self, frame: &[u8]) -> Result<(), WireError> {
        self.sender().send_frame(frame)
    }

    /// Receives one message, waiting at most `timeout`.
    ///
    /// # Errors
    /// [`WireError::Timeout`] when no complete frame arrived (resumable);
    /// [`WireError::Disconnected`] on EOF/reset; [`WireError::Corrupt`]
    /// when framing or decoding failed (the connection is unusable).
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Msg, WireError> {
        if self.read_timeout != Some(timeout) {
            self.read
                .set_read_timeout(Some(timeout))
                .map_err(WireError::Io)?;
            self.read_timeout = Some(timeout);
        }
        let t = self.shard.now_ns();
        let payload = self.frames.next_frame(&mut self.read)?;
        let msg = Msg::decode(payload).map_err(|_| WireError::Corrupt("undecodable message"))?;
        self.shard
            .close(SpanKind::NetRecv, "net-recv", t, HOST_DEVICE, 0, None);
        self.telemetry
            .metrics
            .counter("net.bytes_recv")
            .add((wire::HEADER_LEN + payload.len()) as u64);
        Ok(msg)
    }

    /// Shuts both directions down; subsequent operations on either half
    /// fail fast.
    pub fn shutdown(&self) {
        let _ = self.read.shutdown(Shutdown::Both);
    }
}

/// Connects with capped-exponential backoff, counting each retry in
/// `net.retries`.
///
/// # Errors
/// The final connect error once `policy.max_retries` is exhausted.
pub fn connect_retry(
    addr: &str,
    policy: &RetryPolicy,
    telemetry: &Telemetry,
) -> Result<TcpStream, WireError> {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if attempt > policy.max_retries {
                    return Err(WireError::Io(e));
                }
                telemetry.metrics.counter("net.retries").inc();
                std::thread::sleep(policy.backoff_for(attempt));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::NetFaultPlan;
    use std::net::TcpListener;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_retries: 8,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_millis(300),
        };
        assert_eq!(p.backoff_for(1), Duration::from_millis(50));
        assert_eq!(p.backoff_for(2), Duration::from_millis(100));
        assert_eq!(p.backoff_for(3), Duration::from_millis(200));
        assert_eq!(p.backoff_for(4), Duration::from_millis(300), "capped");
        assert_eq!(p.backoff_for(10), Duration::from_millis(300));
    }

    #[test]
    fn jittered_backoff_spreads_simultaneous_restarts() {
        let p = RetryPolicy {
            max_retries: 8,
            backoff_base: Duration::from_millis(64),
            backoff_cap: Duration::from_secs(2),
        };
        let cap = p.backoff_for(4);
        // 32 workers restarting at once, each seeded by its identity.
        let sleeps: Vec<Duration> = (0..32u64)
            .map(|w| {
                let mut state = 0x5EED ^ w.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                p.jittered_backoff_for(4, &mut state)
            })
            .collect();
        assert!(sleeps.iter().all(|d| *d <= cap), "never above the cap");
        let distinct: std::collections::BTreeSet<_> = sleeps.iter().collect();
        assert!(
            distinct.len() >= 30,
            "herd must decorrelate, got {} distinct sleeps",
            distinct.len()
        );
        let (min, max) = (sleeps.iter().min().unwrap(), sleeps.iter().max().unwrap());
        assert!(
            *max >= *min + cap / 2,
            "jitter must cover a wide band, got [{min:?}, {max:?}] of cap {cap:?}"
        );
        // Same seed → same schedule: the jitter is replayable.
        let mut a = 7u64;
        let mut b = 7u64;
        for attempt in 1..=6 {
            assert_eq!(
                p.jittered_backoff_for(attempt, &mut a),
                p.jittered_backoff_for(attempt, &mut b)
            );
        }
    }

    #[test]
    fn messages_cross_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let tel = Telemetry::disabled();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let tx = Conn::new(client, tel.clone()).unwrap();
        let mut rx = Conn::new(server, tel.clone()).unwrap();
        tx.send(&Msg::Ping { slot: 3 }).unwrap();
        tx.send(&Msg::Grad {
            iter: 1,
            slot: 3,
            loss: 0.5,
            grad: vec![1.0, -2.0],
        })
        .unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(2)).unwrap(),
            Msg::Ping { slot: 3 }
        );
        match rx.recv_timeout(Duration::from_secs(2)).unwrap() {
            Msg::Grad {
                iter: 1, slot: 3, ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(tel.metrics.counter("net.bytes_recv").get() > 0);
    }

    #[test]
    fn recv_times_out_then_resumes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let tel = Telemetry::disabled();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let tx = Conn::new(client, tel.clone()).unwrap();
        let mut rx = Conn::new(server, tel).unwrap();
        match rx.recv_timeout(Duration::from_millis(30)) {
            Err(WireError::Timeout) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        tx.send(&Msg::Shutdown).unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(2)).unwrap(),
            Msg::Shutdown
        );
    }

    #[test]
    fn injected_drop_loses_the_frame() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let tel = Telemetry::disabled();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        // Drop every frame after the first.
        let plan = NetFaultPlan::seeded(1).drop(1.0);
        let tx = Conn::new(client, tel.clone())
            .unwrap()
            .with_injector(FaultInjector::new(&plan, 0));
        let mut rx = Conn::new(server, tel.clone()).unwrap();
        tx.send(&Msg::Ping { slot: 0 }).unwrap();
        tx.send(&Msg::Ping { slot: 1 }).unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(2)).unwrap(),
            Msg::Ping { slot: 0 }
        );
        match rx.recv_timeout(Duration::from_millis(50)) {
            Err(WireError::Timeout) => {}
            other => panic!("dropped frame must not arrive, got {other:?}"),
        }
        assert_eq!(tel.metrics.counter("net.faults_injected").get(), 1);
    }

    #[test]
    fn connect_retry_counts_retries_then_gives_up() {
        // A port with no listener: every connect fails fast on loopback.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let tel = Telemetry::disabled();
        let policy = RetryPolicy {
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
        };
        let err = connect_retry(&addr.to_string(), &policy, &tel);
        assert!(err.is_err());
        assert_eq!(tel.metrics.counter("net.retries").get(), 2);
    }
}
