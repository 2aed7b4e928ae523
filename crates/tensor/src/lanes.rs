//! Persistent work-claiming lanes: the one process-wide pool of helper
//! threads behind every fork-join of the training hot path.
//!
//! A call splits its work into *chunks* (one per item of a slice) and
//! runs them to completion before it returns, like `std::thread::scope`,
//! but without spawning a thread:
//!
//! * **Claiming.** The caller publishes the job, wakes as many parked
//!   lanes as could help, and runs chunks itself, taking the next index
//!   from an atomic counter. A lane that wakes while chunks remain claims
//!   them from the same counter. Nobody owns a static share, so a lane
//!   that wakes late (or is preempted before it claims) costs nothing:
//!   the caller has already run its chunks.
//! * **Closing.** When the counter runs out the caller closes the job and
//!   waits only for lanes that have *entered* it, i.e. for chunks a lane
//!   has already claimed. A lane that wakes after the close finds no job
//!   and goes back to sleep without touching it.
//! * **Parking.** Idle lanes block on a condition variable; there is no
//!   spinning and no knob.
//! * **One caller at a time.** A call made while another is in flight
//!   (from another thread, or nested inside a chunk) runs all its chunks
//!   inline on its own thread. Nothing blocks on the pool itself, so it
//!   cannot deadlock.
//! * **Panics.** A panicking chunk stops further claims. The caller
//!   re-raises the first payload only after every lane has left the job,
//!   so no lane can still hold a borrow of the caller's data, and the
//!   pool stays usable.
//!
//! Every chunk runs exactly once, and which thread runs it never changes
//! what it computes, so results are independent of the lane count and of
//! scheduling.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Runs `f` on every item of `items`, sharing the work with the
/// process's parked lanes. Returns when every item has been processed.
///
/// # Panics
/// Re-raises the first panic of `f`, after every lane has left the job.
pub fn for_each<T: Send>(items: &mut [T], f: impl Fn(&mut T) + Sync) {
    // `()` is zero-sized: this vector never allocates.
    let mut states = vec![(); items.len().max(1)];
    pool().for_each_with(&mut states, items, |_, item| f(item));
}

/// [`for_each`] with per-participant state: at most `states.len()`
/// threads (the caller included) work on the call, and each holds one
/// `&mut S` of its own for the whole call (the caller holds
/// `states[0]`). A `states` of length 1 runs everything on the caller.
///
/// # Panics
/// Panics when `states` is empty and `items` is not; otherwise as
/// [`for_each`].
pub fn for_each_with<S: Send, T: Send>(
    states: &mut [S],
    items: &mut [T],
    f: impl Fn(&mut S, &mut T) + Sync,
) {
    pool().for_each_with(states, items, f);
}

/// The process-wide pool: one lane fewer than the machine's available
/// parallelism, since the caller is a participant too.
fn pool() -> &'static Lanes {
    static POOL: OnceLock<Lanes> = OnceLock::new();
    POOL.get_or_init(|| {
        let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
        Lanes::new(hw.saturating_sub(1))
    })
}

/// A pool of parked lanes. The process uses one (see [`pool`]); tests
/// build their own so that they control every lane.
struct Lanes {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Parked lanes wait here for a new generation.
    wake: Condvar,
    /// A closing caller waits here for the lanes inside its job.
    left: Condvar,
    /// Set while a caller owns the pool.
    busy: AtomicBool,
    /// Runs on a lane after it sees a new job and before it tries to
    /// enter it, with no lock held: lets a test hold a lane until the
    /// job has closed.
    #[cfg(test)]
    on_wake: Option<Box<dyn Fn() + Send + Sync>>,
}

/// The pool's published state, guarded by `Shared::slot`.
struct Slot {
    /// Bumped by every published job.
    generation: u64,
    /// The open job, if any; `None` once its caller has closed it.
    job: Option<JobRef>,
    /// Lanes that have entered the open job (worker indices handed out).
    joined: usize,
    /// Lanes currently inside a job, open or closed.
    inside: usize,
    shutdown: bool,
}

/// One call's work, living on the caller's stack for the call.
struct Job<'a> {
    chunks: usize,
    /// The most threads that may work on the job, the caller included.
    workers: usize,
    next: AtomicUsize,
    panicked: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    run: &'a (dyn Fn(usize, usize) + Sync),
}

/// A pointer to the open [`Job`], its lifetime erased.
#[derive(Clone, Copy)]
struct JobRef(*const Job<'static>);

// SAFETY: a `JobRef` is only dereferenced by a lane that entered the job
// under `Shared::slot` while it was open, and the job's caller does not
// return (so the `Job` and everything it borrows stay alive) until every
// such lane has left (`Slot::inside == 0` after the close). `Job` itself
// is `Sync`: atomics, a mutex, and a `Sync` closure.
unsafe impl Send for JobRef {}

/// A raw pointer handed to chunks running on other threads.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Taken by method (not by field) so that closures capture the whole
    /// wrapper, whose `Sync` impl carries the argument below.
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: `for_each_with` hands element `i` of the pointed-to slice to
// one thread at a time (see the argument there), which moves a `&mut T`
// across threads: sound for `T: Send`.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl Lanes {
    fn new(lanes: usize) -> Self {
        Self::spawn(lanes, Shared::new())
    }

    fn spawn(lanes: usize, shared: Shared) -> Self {
        let shared = Arc::new(shared);
        // A lane that cannot be spawned is one fewer helper, not an error.
        let handles = (0..lanes)
            .map_while(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("crossbow-lane-{i}"))
                    .spawn(move || shared.lane())
                    .ok()
            })
            .collect();
        Lanes { shared, handles }
    }

    fn for_each_with<S: Send, T: Send>(
        &self,
        states: &mut [S],
        items: &mut [T],
        f: impl Fn(&mut S, &mut T) + Sync,
    ) {
        assert!(
            !states.is_empty() || items.is_empty(),
            "at least one participant state"
        );
        let (state_ptr, item_ptr) = (SendPtr(states.as_mut_ptr()), SendPtr(items.as_mut_ptr()));
        let run = |worker: usize, chunk: usize| {
            // SAFETY: `run` calls this with `chunk < items.len()` and
            // `worker < states.len()` (the job's `workers`). Each chunk
            // index is claimed exactly once (`Job::next.fetch_add`), and
            // each worker index belongs to one thread for the whole job
            // (0 is the caller's; lanes take 1.. under the slot lock), so
            // no element of either slice is borrowed twice at a time. The
            // slices outlive the call, and the call outlives every use
            // (`run` returns only after every lane has left).
            let (state, item) = unsafe {
                (
                    &mut *state_ptr.get().add(worker),
                    &mut *item_ptr.get().add(chunk),
                )
            };
            f(state, item);
        };
        self.run(items.len(), states.len(), &run);
    }

    /// Runs `run(worker, chunk)` for every `chunk` in `0..chunks`, with
    /// at most `workers` distinct worker indices `0..workers`.
    fn run(&self, chunks: usize, workers: usize, run: &(dyn Fn(usize, usize) + Sync)) {
        let helpers = self
            .handles
            .len()
            .min(workers.saturating_sub(1))
            .min(chunks.saturating_sub(1));
        // `busy` guards no data of its own (the slot mutex orders the job's
        // publication and the lanes' results); Acquire here pairs with the
        // Release in `Release::drop` all the same.
        if helpers == 0
            || self
                .shared
                .busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            // Nothing to share, or another call owns the pool (possibly
            // this thread's own, one level up): run everything here.
            (0..chunks).for_each(|chunk| run(0, chunk));
            return;
        }
        let _release = Release(&self.shared.busy);
        let job = Job {
            chunks,
            workers,
            next: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
            run,
        };
        {
            let mut slot = self.shared.lock();
            slot.generation += 1;
            slot.job = Some(JobRef(std::ptr::from_ref(&job).cast()));
            slot.joined = 0;
        }
        for _ in 0..helpers {
            self.shared.wake.notify_one();
        }
        job.work(0);
        {
            let mut slot = self.shared.lock();
            slot.job = None;
            while slot.inside > 0 {
                slot = self
                    .shared
                    .left
                    .wait(slot)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        let payload = job
            .panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }
}

/// Clears `Shared::busy` when the owning call returns or unwinds.
struct Release<'a>(&'a AtomicBool);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

impl Drop for Lanes {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Shared {
    fn new() -> Self {
        Shared {
            slot: Mutex::new(Slot {
                generation: 0,
                job: None,
                joined: 0,
                inside: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            left: Condvar::new(),
            busy: AtomicBool::new(false),
            #[cfg(test)]
            on_wake: None,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Slot> {
        // No code panics while holding the lock; recover regardless.
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A lane's life: park, wake for a new job, enter it if it is still
    /// open and needs another worker, claim chunks, leave.
    fn lane(&self) {
        let mut seen = 0;
        let mut slot = self.lock();
        loop {
            while slot.generation == seen && !slot.shutdown {
                slot = self.wake.wait(slot).unwrap_or_else(PoisonError::into_inner);
            }
            if slot.shutdown {
                return;
            }
            seen = slot.generation;
            #[cfg(test)]
            if let Some(hook) = &self.on_wake {
                drop(slot);
                hook();
                slot = self.lock();
            }
            let Some(job) = slot.job else {
                continue;
            };
            // SAFETY: the job is open (its caller cannot close it while we
            // hold the slot lock), and entering (`inside += 1`) before
            // releasing the lock keeps its caller from returning until we
            // leave. See `JobRef`.
            let job = unsafe { &*job.0 };
            if slot.joined + 1 >= job.workers {
                continue;
            }
            slot.joined += 1;
            slot.inside += 1;
            let worker = slot.joined;
            drop(slot);
            job.work(worker);
            slot = self.lock();
            slot.inside -= 1;
            if slot.inside == 0 && slot.job.is_none() {
                // The caller closed the job and is waiting for us.
                self.left.notify_one();
            }
        }
    }
}

impl Job<'_> {
    /// Claims and runs chunks until none are left or one has panicked.
    /// `next` only hands out indices and `panicked` is only a hint to
    /// stop early, so both are `Relaxed`: the chunks' results and the
    /// panic payload reach the caller through the slot mutex and the
    /// payload's own mutex.
    fn work(&self, worker: usize) {
        while !self.panicked.load(Ordering::Relaxed) {
            let chunk = self.next.fetch_add(1, Ordering::Relaxed);
            if chunk >= self.chunks {
                break;
            }
            if let Err(payload) =
                panic::catch_unwind(AssertUnwindSafe(|| (self.run)(worker, chunk)))
            {
                self.panicked.store(true, Ordering::Relaxed);
                let mut first = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
                first.get_or_insert(payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Barrier};
    use std::thread;
    use std::time::Duration;

    fn is_lane() -> bool {
        thread::current()
            .name()
            .is_some_and(|n| n.starts_with("crossbow-lane-"))
    }

    /// A value that depends on every bit of the rounding of `x`'s chain.
    fn work(x: usize) -> f32 {
        (0..200).fold(x as f32 * 0.37, |acc, i| (acc * 1.0001 + i as f32).sin())
    }

    #[test]
    fn every_item_runs_once_on_at_most_states_len_threads() {
        let pool = Lanes::new(3);
        for workers in 1..=4 {
            let mut items: Vec<(usize, u32)> = (0..64).map(|i| (i, 0)).collect();
            let mut states = vec![0usize; workers];
            let threads = Mutex::new(Vec::new());
            pool.for_each_with(&mut states, &mut items, |count, item| {
                *count += 1;
                item.1 += 1;
                let id = thread::current().id();
                let mut seen = threads.lock().unwrap();
                if !seen.contains(&id) {
                    seen.push(id);
                }
            });
            assert!(items.iter().all(|&(_, runs)| runs == 1));
            assert_eq!(states.iter().sum::<usize>(), 64);
            assert!(threads.into_inner().unwrap().len() <= workers);
        }
    }

    #[test]
    fn a_panicking_chunk_reraises_after_every_lane_has_left() {
        let pool = Lanes::new(1);
        let both_claimed = Barrier::new(2);
        let lane_done = AtomicBool::new(false);
        let run = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_with(&mut [(); 2], &mut [0, 1], |_, _| {
                // Each participant holds one of the two chunks here.
                both_claimed.wait();
                if is_lane() {
                    thread::sleep(Duration::from_millis(50));
                    lane_done.store(true, Ordering::SeqCst);
                } else {
                    panic!("chunk failed");
                }
            })
        }));
        let payload = run.expect_err("the caller's chunk panicked");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk failed"));
        assert!(
            lane_done.load(Ordering::SeqCst),
            "re-raised while a lane was still inside the job"
        );
        // The pool is still whole: a job that needs the lane completes.
        let mut items = [0u32; 2];
        pool.for_each_with(&mut [(); 2], &mut items, |_, x| {
            both_claimed.wait();
            *x += 1;
        });
        assert_eq!(items, [1, 1]);
    }

    #[test]
    fn concurrent_and_nested_callers_get_bit_equal_results() {
        let pool = Lanes::new(1);
        let reference: Vec<f32> = (0..48).map(work).collect();
        let call = || {
            let mut items: Vec<(usize, f32)> = (0..48).map(|i| (i, 0.0)).collect();
            pool.for_each_with(&mut [(); 2], &mut items, |_, (i, out)| {
                // A nested call: the pool is taken, so this runs inline.
                let mut inner = [(*i, 0.0f32)];
                pool.for_each_with(&mut [(); 2], &mut inner, |_, (i, y)| *y = work(*i));
                *out = inner[0].1;
            });
            items.into_iter().map(|(_, y)| y).collect::<Vec<f32>>()
        };
        thread::scope(|s| {
            let callers: Vec<_> = (0..2)
                .map(|_| s.spawn(|| (0..40).map(|_| call()).collect::<Vec<_>>()))
                .collect();
            for caller in callers {
                for got in caller.join().unwrap() {
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&reference));
                }
            }
        });
    }

    #[test]
    fn a_lane_that_wakes_after_the_close_does_not_run_the_job() {
        let (woke_tx, woke_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let gated = Arc::new(AtomicBool::new(true));
        let gate = Arc::clone(&gated);
        let (woke_tx, go_rx) = (Mutex::new(woke_tx), Mutex::new(go_rx));
        let pool = Lanes::spawn(
            1,
            Shared {
                on_wake: Some(Box::new(move || {
                    if gate.load(Ordering::SeqCst) {
                        woke_tx.lock().unwrap().send(()).unwrap();
                        let _ = go_rx.lock().unwrap().recv();
                    }
                })),
                ..Shared::new()
            },
        );
        // If the caller waited for the held lane it would never return:
        // a watchdog releases the lane and marks the test failed.
        let timed_out = Arc::new(AtomicBool::new(false));
        let watchdog = {
            let (timed_out, go_tx) = (Arc::clone(&timed_out), go_tx.clone());
            thread::spawn(move || {
                thread::sleep(Duration::from_secs(20));
                timed_out.store(true, Ordering::SeqCst);
                let _ = go_tx.send(());
            })
        };
        let ran = Mutex::new(Vec::new());
        let calls = AtomicUsize::new(0);
        pool.for_each_with(&mut [(); 2], &mut [0, 1, 2], |_, i| {
            calls.fetch_add(1, Ordering::SeqCst);
            ran.lock().unwrap().push((*i, is_lane()));
        });
        assert!(
            !timed_out.load(Ordering::SeqCst),
            "the caller waited for a lane that had not entered"
        );
        woke_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("the lane woke for the job");
        gated.store(false, Ordering::SeqCst);
        go_tx.send(()).unwrap();
        // The released lane finds the job closed; it is alive and serves
        // the next job, which cannot finish without it.
        let both = Barrier::new(2);
        pool.for_each_with(&mut [(); 2], &mut [0, 1], |_, _| {
            both.wait();
        });
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(
            ran.into_inner().unwrap(),
            vec![(0, false), (1, false), (2, false)],
            "only the caller ran the closed job"
        );
        drop(pool);
        drop(watchdog);
    }
}
