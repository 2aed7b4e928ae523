//! A small bounded MPMC channel built on `std::sync` primitives.
//!
//! The shard packer (`crossbow-shard`) streams samples from a producer
//! thread to the shard writer through it: a timed send, a blocking and a
//! non-blocking receive, and disconnection detection on both ends. The
//! buffer's capacity is the packer's back-pressure window. The build
//! runs without registry access, so this is std only.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

// A poisoned mutex means some thread panicked while holding the channel
// lock. For everyone else sharing the channel that peer has effectively
// vanished, so the public operations report *disconnection* instead of
// cascading the panic across every producer and consumer. `Clone`/`Drop`
// recover the guard (`PoisonError::into_inner`) to keep the endpoint
// counts accurate: push/pop happen entirely under the lock, so the inner
// state is never torn.

/// Why a send did not complete.
#[derive(Debug, PartialEq, Eq)]
pub enum SendTimeoutError<T> {
    /// The buffer stayed full for the whole timeout; the value is returned.
    Timeout(T),
    /// Every receiver is gone; the value is returned.
    Disconnected(T),
}

struct Inner<T> {
    queue: VecDeque<T>,
    capacity: usize,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// The sending half; clone one per producer thread.
pub struct Sender<T>(Arc<Shared<T>>);

/// The receiving half.
pub struct Receiver<T>(Arc<Shared<T>>);

/// Creates a bounded channel with room for `capacity` values.
///
/// # Panics
/// Panics on zero capacity.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "need a buffer");
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            queue: VecDeque::with_capacity(capacity),
            capacity,
            senders: 1,
            receivers: 1,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender(Arc::clone(&shared)), Receiver(shared))
}

impl<T> Sender<T> {
    /// Sends `value`, blocking while the buffer is full, for at most
    /// `timeout`.
    pub fn send_timeout(&self, value: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
        let deadline = Instant::now() + timeout;
        let Ok(mut inner) = self.0.inner.lock() else {
            return Err(SendTimeoutError::Disconnected(value));
        };
        loop {
            if inner.receivers == 0 {
                return Err(SendTimeoutError::Disconnected(value));
            }
            if inner.queue.len() < inner.capacity {
                inner.queue.push_back(value);
                self.0.not_empty.notify_one();
                return Ok(());
            }
            let Some(wait) = deadline.checked_duration_since(Instant::now()) else {
                return Err(SendTimeoutError::Timeout(value));
            };
            let Ok((guard, res)) = self.0.not_full.wait_timeout(inner, wait) else {
                return Err(SendTimeoutError::Disconnected(value));
            };
            inner = guard;
            if res.timed_out() && inner.queue.len() >= inner.capacity {
                return Err(SendTimeoutError::Timeout(value));
            }
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.0.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.senders -= 1;
        if inner.senders == 0 {
            // Wake receivers so they observe the disconnection.
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Receives a value, blocking until one arrives; `None` once the
    /// buffer is empty and every sender is gone.
    pub fn recv(&self) -> Option<T> {
        let mut inner = self.0.inner.lock().ok()?;
        loop {
            if let Some(v) = inner.queue.pop_front() {
                self.0.not_full.notify_one();
                return Some(v);
            }
            if inner.senders == 0 {
                return None;
            }
            inner = self.0.not_empty.wait(inner).ok()?;
        }
    }

    /// Takes a value only if one is buffered right now.
    pub fn try_recv(&self) -> Option<T> {
        let Ok(mut inner) = self.0.inner.lock() else {
            return None;
        };
        let v = inner.queue.pop_front();
        if v.is_some() {
            self.0.not_full.notify_one();
        }
        v
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut inner = self.0.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.receivers -= 1;
        if inner.receivers == 0 {
            // Wake senders blocked on a full buffer.
            self.0.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_in_order() {
        let (tx, rx) = bounded::<u32>(4);
        for v in 0..4 {
            tx.send_timeout(v, Duration::from_secs(1)).unwrap();
        }
        for v in 0..4 {
            assert_eq!(rx.recv(), Some(v));
        }
        assert!(rx.try_recv().is_none());
    }

    #[test]
    fn full_buffer_times_out() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send_timeout(1, Duration::from_millis(10)).unwrap();
        match tx.send_timeout(2, Duration::from_millis(10)) {
            Err(SendTimeoutError::Timeout(2)) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        let _ = rx.recv();
    }

    #[test]
    fn dropping_all_senders_disconnects_receiver() {
        let (tx, rx) = bounded::<u32>(2);
        tx.send_timeout(7, Duration::from_millis(10)).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(7), "buffered values drain first");
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn dropping_receiver_disconnects_blocked_sender() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send_timeout(1, Duration::from_millis(10)).unwrap();
        let handle = std::thread::spawn(move || tx.send_timeout(2, Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(30));
        drop(rx);
        match handle.join().unwrap() {
            Err(SendTimeoutError::Disconnected(2)) => {}
            other => panic!("expected disconnect, got {other:?}"),
        }
    }

    #[test]
    fn blocked_receiver_wakes_on_send() {
        let (tx, rx) = bounded::<u32>(1);
        let handle = std::thread::spawn(move || rx.recv());
        std::thread::sleep(Duration::from_millis(20));
        tx.send_timeout(9, Duration::from_secs(1)).unwrap();
        assert_eq!(handle.join().unwrap(), Some(9));
    }

    #[test]
    fn poisoned_lock_reads_as_disconnect_not_panic() {
        let (tx, rx) = bounded::<u32>(2);
        tx.send_timeout(1, Duration::from_millis(10)).unwrap();
        // Poison the channel mutex by panicking while holding it.
        let shared = Arc::clone(&tx.0);
        let poisoner = std::thread::spawn(move || {
            let _guard = shared.inner.lock().unwrap();
            panic!("poison the channel lock");
        });
        assert!(poisoner.join().is_err());

        match tx.send_timeout(2, Duration::from_millis(10)) {
            Err(SendTimeoutError::Disconnected(2)) => {}
            other => panic!("expected disconnect, got {other:?}"),
        }
        assert_eq!(rx.recv(), None);
        assert!(rx.try_recv().is_none());
        // Clone/Drop recover the guard instead of panicking.
        let tx2 = tx.clone();
        drop(tx2);
        drop(tx);
        drop(rx);
    }
}
