//! The SLO-aware admission queue.
//!
//! A bounded queue ordered by the admission lattice: higher
//! [`SloClass`] first, earlier deadline first within a class, FIFO
//! within a (class, deadline) tie. When the queue is full, a new
//! arrival may *evict* the worst queued entry — but only if that entry
//! belongs to a strictly lower class, and the evicted request is always
//! answered with [`FleetError::Shed`], never silently dropped. An
//! arrival that cannot displace anything is refused at admission with
//! [`FleetError::Overloaded`]; either way every admitted request gets
//! exactly one answer.

use crate::request::{FleetError, FleetJob, SloClass};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// One queued entry: the job plus its ordering keys.
#[derive(Debug)]
struct Entry {
    job: FleetJob,
    /// Admission sequence number, the FIFO tiebreaker.
    seq: u64,
}

impl Entry {
    /// True when `self` should be served before `other`: higher class,
    /// then earlier deadline, then earlier admission.
    fn before(&self, other: &Entry) -> bool {
        use std::cmp::Reverse;
        (
            self.job.class,
            Reverse(self.job.deadline),
            Reverse(self.seq),
        ) > (
            other.job.class,
            Reverse(other.job.deadline),
            Reverse(other.seq),
        )
    }
}

#[derive(Debug, Default)]
struct State {
    entries: VecDeque<Entry>,
    next_seq: u64,
    closed: bool,
}

impl State {
    /// Index of the entry to serve next (best class, earliest deadline).
    fn best(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, e) in self.entries.iter().enumerate() {
            match best {
                None => best = Some(i),
                Some(b) if e.before(&self.entries[b]) => best = Some(i),
                Some(_) => {}
            }
        }
        best
    }

    /// Index of the entry to shed first (worst class, latest deadline,
    /// youngest).
    fn worst(&self) -> Option<usize> {
        let mut worst: Option<usize> = None;
        for (i, e) in self.entries.iter().enumerate() {
            match worst {
                None => worst = Some(i),
                Some(w) if self.entries[w].before(e) => worst = Some(i),
                Some(_) => {}
            }
        }
        worst
    }
}

/// What admission did with a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Queued without displacing anyone.
    Queued,
    /// Queued by evicting one strictly-lower-class entry (which was
    /// answered [`FleetError::Shed`]).
    QueuedAfterShedding(SloClass),
}

/// A bounded, priority/deadline-ordered request queue.
#[derive(Debug)]
pub struct SloQueue {
    state: Mutex<State>,
    available: Condvar,
    capacity: usize,
}

impl SloQueue {
    /// An empty queue holding at most `capacity` requests.
    pub fn new(capacity: usize) -> Self {
        SloQueue {
            state: Mutex::new(State::default()),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admits `job`, possibly shedding one strictly-lower-class entry.
    ///
    /// # Errors
    /// [`FleetError::ShuttingDown`] after [`SloQueue::close`];
    /// [`FleetError::Overloaded`] when full and nothing queued is
    /// strictly lower-class than `job`. The refused job is dropped with
    /// the error — its ticket was never handed out, so nothing waits on
    /// it. On success the job is queued and a waiting worker woken.
    pub(crate) fn push(&self, job: FleetJob) -> Result<Admission, FleetError> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        if state.closed {
            return Err(FleetError::ShuttingDown);
        }
        let mut outcome = Admission::Queued;
        if state.entries.len() >= self.capacity {
            let Some(w) = state.worst() else {
                return Err(FleetError::Overloaded);
            };
            if state.entries[w].job.class >= job.class {
                return Err(FleetError::Overloaded);
            }
            let evicted = state.entries.remove(w).expect("index from worst()");
            outcome = Admission::QueuedAfterShedding(evicted.job.class);
            evicted.job.answer(Err(FleetError::Shed));
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        state.entries.push_back(Entry { job, seq });
        drop(state);
        self.available.notify_one();
        Ok(outcome)
    }

    /// Takes the best queued job without waiting.
    pub(crate) fn try_pop(&self) -> Option<FleetJob> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        let best = state.best()?;
        Some(state.entries.remove(best).expect("index from best()").job)
    }

    /// Takes the best queued job, waiting up to `timeout` for one. A
    /// closed, empty queue returns `None` at once: nothing can arrive.
    pub(crate) fn pop_timeout(&self, timeout: Duration) -> Option<FleetJob> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("queue lock poisoned");
        loop {
            if let Some(best) = state.best() {
                return Some(state.entries.remove(best).expect("index from best()").job);
            }
            if state.closed {
                return None;
            }
            let remaining = deadline.checked_duration_since(Instant::now())?;
            let (next, timed_out) = self
                .available
                .wait_timeout(state, remaining)
                .expect("queue lock poisoned");
            state = next;
            if timed_out.timed_out() && state.best().is_none() {
                return None;
            }
        }
    }

    /// Requests currently queued.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .expect("queue lock poisoned")
            .entries
            .len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Refuses all future admissions; queued jobs remain poppable so the
    /// drain can answer them.
    pub fn close(&self) {
        self.state.lock().expect("queue lock poisoned").closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn job(
        id: u64,
        class: SloClass,
        deadline_ms: u64,
    ) -> (FleetJob, mpsc::Receiver<crate::request::Reply>) {
        let (resp, rx) = mpsc::channel();
        let now = Instant::now();
        (
            FleetJob {
                id,
                input: vec![0.0],
                class,
                enqueued: now,
                deadline: now + Duration::from_millis(deadline_ms),
                resp,
            },
            rx,
        )
    }

    #[test]
    fn pops_highest_class_earliest_deadline_first() {
        let q = SloQueue::new(8);
        let (a, _ra) = job(1, SloClass::Batch, 10);
        let (b, _rb) = job(2, SloClass::Interactive, 500);
        let (c, _rc) = job(3, SloClass::Interactive, 100);
        let (d, _rd) = job(4, SloClass::Standard, 1);
        for j in [a, b, c, d] {
            q.push(j).unwrap();
        }
        let order: Vec<u64> = (0..4).map(|_| q.try_pop().unwrap().id).collect();
        assert_eq!(order, vec![3, 2, 4, 1], "class first, then deadline");
    }

    #[test]
    fn ties_within_class_and_deadline_are_fifo() {
        let q = SloQueue::new(8);
        let now = Instant::now();
        let deadline = now + Duration::from_secs(1);
        let mut receivers = Vec::new();
        for id in 1..=3 {
            let (resp, rx) = mpsc::channel();
            receivers.push(rx);
            q.push(FleetJob {
                id,
                input: vec![],
                class: SloClass::Standard,
                enqueued: now,
                deadline,
                resp,
            })
            .unwrap();
        }
        let order: Vec<u64> = (0..3).map(|_| q.try_pop().unwrap().id).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn a_full_queue_sheds_only_strictly_lower_classes() {
        let q = SloQueue::new(2);
        let (a, ra) = job(1, SloClass::Batch, 10);
        let (b, _rb) = job(2, SloClass::Standard, 10);
        q.push(a).unwrap();
        q.push(b).unwrap();
        // A same-class arrival cannot displace its own class.
        let (c, _rc) = job(3, SloClass::Batch, 1);
        assert_eq!(q.push(c).unwrap_err(), FleetError::Overloaded);
        // A higher-class arrival evicts the worst (the Batch entry),
        // which is answered Shed, not dropped.
        let (d, _rd) = job(4, SloClass::Interactive, 10);
        assert_eq!(
            q.push(d).unwrap(),
            Admission::QueuedAfterShedding(SloClass::Batch)
        );
        assert_eq!(ra.recv().unwrap(), Err(FleetError::Shed));
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_pop().unwrap().id, 4);
        assert_eq!(q.try_pop().unwrap().id, 2);
    }

    #[test]
    fn an_interactive_flood_cannot_evict_interactive() {
        let q = SloQueue::new(1);
        let (a, _ra) = job(1, SloClass::Interactive, 10);
        q.push(a).unwrap();
        let (b, _rb) = job(2, SloClass::Interactive, 1);
        assert_eq!(q.push(b).unwrap_err(), FleetError::Overloaded);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn close_refuses_new_work_but_keeps_the_backlog_poppable() {
        let q = SloQueue::new(4);
        let (a, _ra) = job(1, SloClass::Standard, 10);
        q.push(a).unwrap();
        q.close();
        let (b, _rb) = job(2, SloClass::Standard, 10);
        assert_eq!(q.push(b).unwrap_err(), FleetError::ShuttingDown);
        assert_eq!(q.try_pop().unwrap().id, 1, "drain still sees the backlog");
    }

    #[test]
    fn pop_timeout_wakes_on_push() {
        let q = std::sync::Arc::new(SloQueue::new(4));
        let popper = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || q.pop_timeout(Duration::from_secs(30)).map(|j| j.id))
        };
        std::thread::sleep(Duration::from_millis(20));
        let (a, _ra) = job(7, SloClass::Standard, 10);
        q.push(a).unwrap();
        assert_eq!(popper.join().unwrap(), Some(7));
    }

    #[test]
    fn pop_timeout_returns_when_an_empty_queue_closes() {
        let q = std::sync::Arc::new(SloQueue::new(4));
        let (waiting_tx, waiting_rx) = mpsc::channel();
        let popper = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || {
                waiting_tx.send(()).unwrap();
                let started = Instant::now();
                (
                    q.pop_timeout(Duration::from_secs(30)).is_none(),
                    started.elapsed(),
                )
            })
        };
        waiting_rx.recv().unwrap();
        q.close();
        let (empty, waited) = popper.join().unwrap();
        assert!(empty);
        assert!(waited < Duration::from_secs(5), "waited {waited:?}");
        // Closed and empty before the call: no wait at all.
        let started = Instant::now();
        assert!(q.pop_timeout(Duration::from_secs(30)).is_none());
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn pop_timeout_times_out_empty() {
        let q = SloQueue::new(4);
        assert!(q.pop_timeout(Duration::from_millis(5)).is_none());
    }
}
