//! Load generation for the serve workloads: a seeded Poisson schedule
//! and the open- and closed-loop pacing loops.
//!
//! An open loop sends on its schedule whatever the system does, so a
//! stall queues requests up and every one of them is timed from when it
//! was *due*, not from when the generator got round to sending it. A
//! closed loop keeps a fixed number of requests outstanding, so a slow
//! system receives less load; it measures capacity.

use crossbow::fleet::SloClass;
use crossbow::telemetry::Recorder;
use crossbow::tensor::Rng;
use std::sync::Arc;
use std::time::Duration;

/// The traffic mix: class, share of requests, relative deadline.
pub const MIX: [(SloClass, f64, Duration); 3] = [
    (SloClass::Interactive, 0.20, Duration::from_millis(10)),
    (SloClass::Standard, 0.30, Duration::from_millis(50)),
    (SloClass::Batch, 0.50, Duration::from_millis(250)),
];

/// Index of a class in [`MIX`] and in per-class tallies.
pub fn class_index(class: SloClass) -> usize {
    MIX.iter()
        .position(|m| m.0 == class)
        .expect("every class is in the mix")
}

/// One generated request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Request {
    /// Arrival time in a unit-rate Poisson process; at `rate` requests
    /// per second it is due `at_unit / rate` seconds into its phase.
    pub at_unit: f64,
    /// Index into the input pool.
    pub input: usize,
    pub class: SloClass,
}

impl Request {
    pub fn deadline(&self) -> Duration {
        MIX[class_index(self.class)].2
    }
}

/// A seeded unit-rate Poisson arrival process over a pool of inputs. The
/// same seed gives the same requests at every rate: the rate only
/// stretches the time axis.
pub struct Schedule {
    rng: Rng,
    at_unit: f64,
    pool: usize,
}

impl Schedule {
    pub fn new(seed: u64, pool: usize) -> Self {
        Schedule {
            rng: Rng::new(seed ^ 0x10AD),
            at_unit: 0.0,
            pool,
        }
    }
}

impl Iterator for Schedule {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        // Exponential inter-arrival times; 1 − u is in (0, 1].
        self.at_unit += -(1.0 - self.rng.next_f64()).ln();
        let input = self.rng.below(self.pool);
        let u = self.rng.next_f64();
        let mut acc = 0.0;
        let class = MIX
            .iter()
            .find(|m| {
                acc += m.1;
                u < acc
            })
            .map_or(SloClass::Batch, |m| m.0);
        Some(Request {
            at_unit: self.at_unit,
            input,
            class,
        })
    }
}

/// The generator's view of time; a test substitutes a fake with a stall.
pub trait Pace {
    fn now_ns(&mut self) -> u64;
    fn wait_until(&mut self, ns: u64);
}

/// Paces on the recorder's clock, so phases, spans and latencies share
/// one time axis. Sleeps while the target is far, yields when near: on a
/// 2-vCPU box a spinning generator would starve the server it measures.
pub struct WallPace(pub Arc<Recorder>);

impl Pace for WallPace {
    fn now_ns(&mut self) -> u64 {
        self.0.now_ns()
    }

    fn wait_until(&mut self, ns: u64) {
        loop {
            let now = self.0.now_ns();
            if now >= ns {
                return;
            }
            if ns - now > 60_000 {
                std::thread::sleep(Duration::from_nanos(ns - now - 50_000));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// A request on its way into the system.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sent {
    pub request: Request,
    /// When the schedule wanted it sent.
    pub due_ns: u64,
    /// When the generator actually started to submit it.
    pub submit_ns: u64,
}

impl Sent {
    /// How late the generator ran.
    pub fn lateness_ns(&self) -> u64 {
        self.submit_ns.saturating_sub(self.due_ns)
    }

    /// Open-loop latency: the wait the generator's lateness imposed plus
    /// the served latency (queue + inference).
    pub fn latency(&self, served: Duration) -> Duration {
        Duration::from_nanos(self.lateness_ns()) + served
    }
}

/// Sends every request of the schedule due within `duration_ns` at
/// `rate` per second, each no earlier than its due time. Returns the
/// phase's `(start, end)`. How many requests that is depends only on the
/// seed and the rate, not on how fast the machine is.
pub fn open_loop(
    pace: &mut impl Pace,
    schedule: &mut Schedule,
    rate: f64,
    duration_ns: u64,
    mut submit: impl FnMut(Sent),
) -> (u64, u64) {
    let start = pace.now_ns();
    let origin = schedule.at_unit;
    for request in schedule.by_ref() {
        let offset_ns = ((request.at_unit - origin) / rate * 1e9) as u64;
        if offset_ns >= duration_ns {
            break;
        }
        let due_ns = start + offset_ns;
        pace.wait_until(due_ns);
        submit(Sent {
            request,
            due_ns,
            submit_ns: pace.now_ns(),
        });
    }
    (start, pace.now_ns().max(start + duration_ns))
}

/// Keeps `outstanding` requests in flight for `duration_ns`: `submit`
/// sends one, `wait_one` blocks until one completes. Returns the phase's
/// `(start, end)` and the completions seen inside it.
pub fn closed_loop(
    pace: &mut impl Pace,
    schedule: &mut Schedule,
    outstanding: usize,
    duration_ns: u64,
    mut submit: impl FnMut(Sent),
    mut wait_one: impl FnMut(),
) -> (u64, u64, u64) {
    let start = pace.now_ns();
    let (mut in_flight, mut completed) = (0usize, 0u64);
    loop {
        let now = pace.now_ns();
        if now - start >= duration_ns {
            return (start, now, completed);
        }
        if in_flight == outstanding {
            wait_one();
            in_flight -= 1;
            completed += 1;
            continue;
        }
        let request = schedule.next().expect("the schedule never ends");
        submit(Sent {
            request,
            due_ns: now,
            submit_ns: now,
        });
        in_flight += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_is_deterministic_in_the_seed() {
        let a: Vec<Request> = Schedule::new(7, 100).take(500).collect();
        let b: Vec<Request> = Schedule::new(7, 100).take(500).collect();
        let c: Vec<Request> = Schedule::new(8, 100).take(500).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[1].at_unit > w[0].at_unit));
        assert!(a.iter().all(|r| r.input < 100));
    }

    #[test]
    fn arrivals_are_unit_rate_with_the_stated_mix() {
        let n = 40_000;
        let reqs: Vec<Request> = Schedule::new(3, 16).take(n).collect();
        let mean_gap = reqs.last().unwrap().at_unit / n as f64;
        assert!((mean_gap - 1.0).abs() < 0.02, "{mean_gap}");
        for (class, share, _) in MIX {
            let got = reqs.iter().filter(|r| r.class == class).count() as f64 / n as f64;
            assert!((got - share).abs() < 0.01, "{class}: {got}");
        }
        assert_eq!(MIX.iter().map(|m| m.1).sum::<f64>(), 1.0);
    }

    /// A clock that only moves when told to, plus one injected stall.
    struct FakePace {
        now: u64,
        stall_at_wait: usize,
        stall_ns: u64,
        waits: usize,
    }

    impl Pace for FakePace {
        fn now_ns(&mut self) -> u64 {
            self.now
        }
        fn wait_until(&mut self, ns: u64) {
            self.now = self.now.max(ns);
            if self.waits == self.stall_at_wait {
                self.now += self.stall_ns;
            }
            self.waits += 1;
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_it_delays() {
        let mut pace = FakePace {
            now: 1_000,
            stall_at_wait: 10,
            stall_ns: 50_000_000,
            waits: 0,
        };
        let mut sent = Vec::new();
        // 1000 rps for 100 ms: about 100 requests, 1 ms apart on average.
        let (start, end) = open_loop(
            &mut pace,
            &mut Schedule::new(1, 4),
            1000.0,
            100_000_000,
            |s| sent.push(s),
        );
        assert_eq!(start, 1_000);
        assert!(end >= start + 100_000_000);
        assert!(sent.len() > 60 && sent.len() < 140, "{}", sent.len());
        // Due times follow the schedule, never the stall.
        assert!(sent.windows(2).all(|w| w[1].due_ns >= w[0].due_ns));
        assert!(sent.iter().all(|s| s.due_ns < start + 100_000_000));
        // Before the stall nobody is late; the stalled request is 50 ms
        // late; those due during the stall are late by what is left of it.
        assert!(sent[..10].iter().all(|s| s.lateness_ns() == 0));
        assert_eq!(sent[10].lateness_ns(), 50_000_000);
        let stall_end = sent[10].submit_ns;
        for s in &sent[11..] {
            assert_eq!(s.lateness_ns(), stall_end.saturating_sub(s.due_ns));
        }
        assert!(sent[11].lateness_ns() > 40_000_000);
        assert_eq!(
            sent.last().unwrap().lateness_ns(),
            0,
            "caught up by the end"
        );
        // The served latency is added on top of the lateness.
        let served = Duration::from_millis(2);
        assert_eq!(sent[10].latency(served), Duration::from_millis(52));
        assert_eq!(sent[0].latency(served), served);
    }

    #[test]
    fn the_request_count_does_not_depend_on_machine_speed() {
        let count = |stall_ns| {
            let mut pace = FakePace {
                now: 0,
                stall_at_wait: 3,
                stall_ns,
                waits: 0,
            };
            let mut n = 0;
            open_loop(
                &mut pace,
                &mut Schedule::new(9, 4),
                2000.0,
                50_000_000,
                |_| n += 1,
            );
            n
        };
        assert_eq!(count(0), count(30_000_000));
    }

    #[test]
    fn a_closed_loop_never_exceeds_its_outstanding_limit() {
        struct Tick(u64);
        impl Pace for Tick {
            fn now_ns(&mut self) -> u64 {
                self.0 += 1_000;
                self.0
            }
            fn wait_until(&mut self, _: u64) {}
        }
        let in_flight = std::cell::Cell::new(0i64);
        let peak = std::cell::Cell::new(0i64);
        let (start, end, completed) = closed_loop(
            &mut Tick(0),
            &mut Schedule::new(2, 4),
            8,
            1_000_000,
            |s| {
                assert_eq!(s.lateness_ns(), 0);
                in_flight.set(in_flight.get() + 1);
                peak.set(peak.get().max(in_flight.get()));
            },
            || in_flight.set(in_flight.get() - 1),
        );
        assert_eq!(peak.get(), 8);
        assert!(completed > 100 && end - start >= 1_000_000);
        assert!(
            in_flight.get() >= 7,
            "the window ends with the loop still full"
        );
    }
}
