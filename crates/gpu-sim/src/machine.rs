//! The simulated machine: devices, streams, events, collectives and the
//! discrete-event engine that drives them.
//!
//! # Driving model
//!
//! The host (CROSSBOW's task engine) interacts with a [`Machine`] like a
//! CUDA host thread interacts with a driver:
//!
//! 1. create streams on devices and events;
//! 2. submit work items — all submissions are non-blocking;
//! 3. advance the simulation with [`Machine::run`] (until quiescent) or
//!    [`Machine::run_until_callback`] (until a host callback fires), and
//!    react to [`Completion`]s by submitting more work.
//!
//! Host reactions take zero simulated time; per-task host overhead is
//! modelled explicitly by the task engine where it matters (the paper's
//! LeNet experiment shows scheduling overhead dominating sub-millisecond
//! tasks, §5.2).
//!
//! The engine is deterministic: ties in the event queue are broken by
//! submission order, and all wake-ups process waiters in FIFO order.

use crate::collective::{ring_all_reduce_duration, Collective};
use crate::config::MachineConfig;
use crate::device::Device;
use crate::fault::{FaultKind, FaultStats, WorkOutcome};
use crate::kernel::KernelDesc;
use crate::stream::{CollectiveId, DeviceId, EventId, Stream, StreamId, StreamState};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceKind, TraceRecord};
use crate::work::{CopyKind, WorkItem};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A host-visible completion, produced by [`WorkItem::Callback`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// Simulated time at which the callback fired.
    pub time: SimTime,
    /// The tag given at submission.
    pub tag: u64,
    /// Whether the work preceding the callback succeeded. Injected faults
    /// poison the stream with a sticky error; the callback that observes
    /// it reports [`WorkOutcome::Failed`] and clears it, so the host can
    /// resubmit on the same stream.
    pub outcome: WorkOutcome,
}

#[derive(Debug, PartialEq, Eq)]
struct Scheduled {
    time: SimTime,
    seq: u64,
    action: Action,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, PartialEq, Eq)]
enum Action {
    KernelDone {
        stream: StreamId,
        sms: u32,
    },
    CopyDone {
        stream: StreamId,
    },
    CollectiveDone {
        stream: StreamId,
    },
    /// Re-idles a stream parked by an offline window when its device
    /// returns to service.
    StreamWake {
        stream: StreamId,
    },
}

#[derive(Debug, Default)]
struct EventState {
    signalled: bool,
    waiters: Vec<StreamId>,
}

/// A simulated multi-GPU server.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<Scheduled>>,
    devices: Vec<Device>,
    streams: Vec<Stream>,
    events: Vec<EventState>,
    collectives: Vec<Collective>,
    completions: VecDeque<Completion>,
    trace: Trace,
    /// Kernel launches so far, per device — the index faults match on.
    kernel_launches: Vec<u64>,
    /// Collectives started machine-wide — the index faults match on.
    collectives_started: u64,
    fault_stats: FaultStats,
}

impl Machine {
    /// Builds a machine from a configuration.
    pub fn new(config: MachineConfig) -> Self {
        let devices = (0..config.n_gpus)
            .map(|_| Device::new(config.device))
            .collect();
        let trace = Trace::new(config.record_trace);
        let kernel_launches = vec![0; config.n_gpus];
        Machine {
            config,
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            devices,
            streams: Vec::new(),
            events: Vec::new(),
            collectives: Vec::new(),
            completions: VecDeque::new(),
            trace,
            kernel_launches,
            collectives_started: 0,
            fault_stats: FaultStats::default(),
        }
    }

    /// Counters of injected faults fired so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Id of the `i`-th GPU.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn device(&self, i: usize) -> DeviceId {
        assert!(i < self.devices.len(), "device {i} out of range");
        DeviceId(i as u32)
    }

    /// Creates a stream on a device.
    pub fn create_stream(&mut self, device: DeviceId) -> StreamId {
        assert!(device.index() < self.devices.len(), "unknown device");
        self.streams.push(Stream::new(device));
        StreamId((self.streams.len() - 1) as u32)
    }

    /// Creates a one-shot event.
    pub fn create_event(&mut self) -> EventId {
        self.events.push(EventState::default());
        EventId((self.events.len() - 1) as u32)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The execution trace (empty when recording is disabled).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// SM utilisation of a device over the elapsed simulated time.
    pub fn utilisation(&self, device: DeviceId) -> f64 {
        self.devices[device.index()].utilisation(self.now - SimTime::ZERO)
    }

    /// True when no stream has queued or in-flight work.
    pub fn is_quiescent(&self) -> bool {
        self.heap.is_empty() && self.streams.iter().all(|s| s.is_quiescent())
    }

    /// Submits a work item to a stream (non-blocking).
    pub fn submit(&mut self, stream: StreamId, item: WorkItem) {
        let s = &mut self.streams[stream.index()];
        s.queue.push_back(item);
        s.submitted += 1;
        if s.state == StreamState::Idle {
            self.pump(vec![stream]);
        }
    }

    /// Submits a kernel.
    pub fn submit_kernel(&mut self, stream: StreamId, kernel: KernelDesc) {
        self.submit(stream, WorkItem::Kernel(kernel));
    }

    /// Submits a copy.
    pub fn submit_copy(
        &mut self,
        stream: StreamId,
        kind: CopyKind,
        bytes: u64,
        label: &'static str,
    ) {
        self.submit(stream, WorkItem::Copy { kind, bytes, label });
    }

    /// Records an event on a stream: the event signals once all previously
    /// submitted work on that stream has completed.
    pub fn record_event(&mut self, stream: StreamId, event: EventId) {
        self.submit(stream, WorkItem::RecordEvent(event));
    }

    /// Makes a stream wait for an event before running later work.
    pub fn wait_event(&mut self, stream: StreamId, event: EventId) {
        self.submit(stream, WorkItem::WaitEvent(event));
    }

    /// Enqueues a host callback behind all prior work on the stream.
    pub fn callback(&mut self, stream: StreamId, tag: u64) {
        self.submit(stream, WorkItem::Callback { tag });
    }

    /// Stalls the stream for a fixed span (host scheduling overhead).
    pub fn delay(&mut self, stream: StreamId, duration: SimDuration, label: &'static str) {
        self.submit(stream, WorkItem::Delay { duration, label });
    }

    /// Starts a ring all-reduce across `streams` (one join item per
    /// stream). The collective begins when every stream reaches its join
    /// item and occupies all of them for the modelled duration.
    ///
    /// # Panics
    /// Panics if `streams` is empty.
    pub fn all_reduce(&mut self, streams: &[StreamId], bytes: u64, label: &'static str) {
        assert!(!streams.is_empty(), "all_reduce needs at least one stream");
        self.collectives
            .push(Collective::new(streams.to_vec(), bytes, label));
        let cid = CollectiveId((self.collectives.len() - 1) as u32);
        for &s in streams {
            self.submit(s, WorkItem::JoinCollective(cid));
        }
    }

    /// Takes the oldest pending completion, if any, without advancing time.
    pub fn poll_completion(&mut self) -> Option<Completion> {
        self.completions.pop_front()
    }

    /// Advances the simulation until a completion is available (returning
    /// it) or the machine is quiescent (returning `None`).
    pub fn run_until_callback(&mut self) -> Option<Completion> {
        loop {
            if let Some(c) = self.completions.pop_front() {
                return Some(c);
            }
            if !self.step() {
                return None;
            }
        }
    }

    /// Runs the machine until quiescent and returns all completions fired
    /// along the way (including previously pending ones), in time order.
    pub fn run(&mut self) -> Vec<Completion> {
        while self.step() {}
        let mut out: Vec<Completion> = self.completions.drain(..).collect();
        out.sort_by_key(|c| (c.time, c.tag));
        out
    }

    /// Processes the next scheduled action. Returns `false` when nothing
    /// is scheduled.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(sch)) = self.heap.pop() else {
            return false;
        };
        debug_assert!(sch.time >= self.now, "time went backwards");
        self.now = sch.time;
        let mut worklist = Vec::new();
        match sch.action {
            Action::KernelDone { stream, sms } => {
                let dev_id = self.streams[stream.index()].device;
                let dev = &mut self.devices[dev_id.index()];
                dev.release(sms);
                // Wake SM waiters while capacity remains; a woken stream
                // re-enters the wait queue if others grab the SMs first.
                while dev.free_sms > 0 {
                    let Some(w) = dev.sm_waiters.pop_front() else {
                        break;
                    };
                    self.streams[w.index()].state = StreamState::Idle;
                    worklist.push(w);
                }
                self.finish_item(stream, &mut worklist);
            }
            Action::CopyDone { stream } | Action::CollectiveDone { stream } => {
                self.finish_item(stream, &mut worklist);
            }
            Action::StreamWake { stream } => {
                debug_assert_eq!(self.streams[stream.index()].state, StreamState::Offline);
                self.streams[stream.index()].state = StreamState::Idle;
                worklist.push(stream);
            }
        }
        self.pump(worklist);
        true
    }

    fn finish_item(&mut self, stream: StreamId, worklist: &mut Vec<StreamId>) {
        let s = &mut self.streams[stream.index()];
        debug_assert!(matches!(
            s.state,
            StreamState::Running | StreamState::InCollective(_)
        ));
        s.state = StreamState::Idle;
        s.retired += 1;
        worklist.push(stream);
    }

    fn schedule(&mut self, time: SimTime, action: Action) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled { time, seq, action }));
    }

    /// Dispatches ready work on every stream in the worklist until each is
    /// running, blocked or drained. Iterative (no recursion) so deep
    /// event chains cannot overflow the stack.
    fn pump(&mut self, mut worklist: Vec<StreamId>) {
        while let Some(s) = worklist.pop() {
            self.advance_stream(s, &mut worklist);
        }
    }

    fn advance_stream(&mut self, sid: StreamId, worklist: &mut Vec<StreamId>) {
        loop {
            if self.streams[sid.index()].state != StreamState::Idle {
                return;
            }
            let Some(&item) = self.streams[sid.index()].queue.front() else {
                return;
            };
            // An offline device dispatches nothing; park the stream and
            // schedule its wake for when the device returns. In-flight
            // work (already Running) is not interrupted.
            {
                let dev_id = self.streams[sid.index()].device;
                if let Some(until) = self
                    .config
                    .fault_plan
                    .offline_until(dev_id.index(), self.now)
                {
                    self.streams[sid.index()].state = StreamState::Offline;
                    self.fault_stats.offline_stalls += 1;
                    self.schedule(until, Action::StreamWake { stream: sid });
                    return;
                }
            }
            match item {
                WorkItem::Kernel(k) => {
                    let dev_id = self.streams[sid.index()].device;
                    let stretch = self.config.fault_plan.stretch(dev_id.index(), self.now);
                    let launch_index = self.kernel_launches[dev_id.index()];
                    let fails = self
                        .config
                        .fault_plan
                        .kernel_fails(dev_id.index(), launch_index);
                    let dev = &mut self.devices[dev_id.index()];
                    let Some(granted) = dev.grant(k.sm_demand) else {
                        dev.sm_waiters.push_back(sid);
                        self.streams[sid.index()].state = StreamState::WaitingForSms;
                        return;
                    };
                    dev.acquire(granted);
                    let mut dur = dev.kernel_duration(&k, granted);
                    if stretch > 1.0 {
                        // Straggler window: the device runs slow.
                        dur = SimDuration::from_secs_f64(dur.as_secs_f64() * stretch);
                    }
                    dev.sm_busy_ns += u128::from(granted) * u128::from(dur.as_nanos());
                    self.kernel_launches[dev_id.index()] = launch_index + 1;
                    if stretch > 1.0 {
                        self.fault_stats.straggler_kernels += 1;
                    }
                    if fails {
                        // The kernel consumes its duration, then the sticky
                        // error surfaces at the next callback.
                        self.streams[sid.index()].error = Some(FaultKind::Kernel);
                        self.fault_stats.kernel_faults += 1;
                    }
                    let end = self.now + dur;
                    self.trace.push(TraceRecord {
                        stream: sid,
                        device: dev_id,
                        kind: TraceKind::Kernel,
                        label: k.label,
                        start: self.now,
                        end,
                        sms: granted,
                    });
                    self.streams[sid.index()].queue.pop_front();
                    self.streams[sid.index()].state = StreamState::Running;
                    self.schedule(
                        end,
                        Action::KernelDone {
                            stream: sid,
                            sms: granted,
                        },
                    );
                    return;
                }
                WorkItem::Copy { kind, bytes, label } => {
                    let dev_id = self.streams[sid.index()].device;
                    let (engine_free, bandwidth) = self.copy_route(dev_id, kind);
                    let start = self.now.max(engine_free);
                    let dur = self.config.device.copy_latency
                        + SimDuration::from_secs_f64(bytes as f64 / bandwidth);
                    let end = start + dur;
                    self.set_copy_engine_free(dev_id, kind, end);
                    self.trace.push(TraceRecord {
                        stream: sid,
                        device: dev_id,
                        kind: TraceKind::Copy,
                        label,
                        start,
                        end,
                        sms: 0,
                    });
                    self.streams[sid.index()].queue.pop_front();
                    self.streams[sid.index()].state = StreamState::Running;
                    self.schedule(end, Action::CopyDone { stream: sid });
                    return;
                }
                WorkItem::RecordEvent(e) => {
                    self.streams[sid.index()].queue.pop_front();
                    self.streams[sid.index()].retired += 1;
                    let ev = &mut self.events[e.index()];
                    ev.signalled = true;
                    for w in ev.waiters.drain(..) {
                        // Waiters re-examine their WaitEvent item, which now
                        // passes immediately.
                        self.streams[w.index()].state = StreamState::Idle;
                        worklist.push(w);
                    }
                }
                WorkItem::WaitEvent(e) => {
                    if self.events[e.index()].signalled {
                        self.streams[sid.index()].queue.pop_front();
                        self.streams[sid.index()].retired += 1;
                    } else {
                        self.events[e.index()].waiters.push(sid);
                        self.streams[sid.index()].state = StreamState::BlockedOnEvent(e);
                        return;
                    }
                }
                WorkItem::Callback { tag } => {
                    self.streams[sid.index()].queue.pop_front();
                    self.streams[sid.index()].retired += 1;
                    let outcome = match self.streams[sid.index()].error.take() {
                        Some(kind) => WorkOutcome::Failed(kind),
                        None => WorkOutcome::Success,
                    };
                    self.completions.push_back(Completion {
                        time: self.now,
                        tag,
                        outcome,
                    });
                }
                WorkItem::Delay { duration, label } => {
                    let dev_id = self.streams[sid.index()].device;
                    let end = self.now + duration;
                    self.trace.push(TraceRecord {
                        stream: sid,
                        device: dev_id,
                        kind: TraceKind::Host,
                        label,
                        start: self.now,
                        end,
                        sms: 0,
                    });
                    self.streams[sid.index()].queue.pop_front();
                    self.streams[sid.index()].state = StreamState::Running;
                    self.schedule(end, Action::CopyDone { stream: sid });
                    return;
                }
                WorkItem::JoinCollective(cid) => {
                    self.streams[sid.index()].queue.pop_front();
                    self.streams[sid.index()].state = StreamState::InCollective(cid);
                    if self.collectives[cid.index()].arrive() {
                        self.start_collective(cid);
                    }
                    return;
                }
            }
        }
    }

    fn start_collective(&mut self, cid: CollectiveId) {
        let (participants, bytes, label) = {
            let c = &mut self.collectives[cid.index()];
            debug_assert!(!c.started, "collective started twice");
            c.started = true;
            (c.participants.clone(), c.bytes, c.label)
        };
        let k = participants.len();
        let bottleneck = self.collective_bottleneck(&participants);
        let dur =
            ring_all_reduce_duration(bytes, k, bottleneck, self.config.collective_step_latency);
        let start_index = self.collectives_started;
        self.collectives_started += 1;
        let fails = self.config.fault_plan.collective_fails(start_index);
        if fails {
            // The rendezvous still costs its full duration, then every
            // participant's stream carries the sticky error.
            self.fault_stats.collective_faults += 1;
        }
        let end = self.now + dur;
        for &p in &participants {
            if fails {
                self.streams[p.index()].error = Some(FaultKind::Collective);
            }
            let dev = self.streams[p.index()].device;
            self.trace.push(TraceRecord {
                stream: p,
                device: dev,
                kind: TraceKind::Collective,
                label,
                start: self.now,
                end,
                sms: 0,
            });
            self.schedule(end, Action::CollectiveDone { stream: p });
        }
    }

    /// Slowest neighbour link around the participants' device ring.
    fn collective_bottleneck(&self, participants: &[StreamId]) -> f64 {
        if participants.len() <= 1 {
            return 1e12;
        }
        let devices: Vec<usize> = participants
            .iter()
            .map(|p| self.streams[p.index()].device.index())
            .collect();
        let k = devices.len();
        (0..k)
            .map(|i| {
                self.config
                    .topology
                    .gpu_to_gpu_bandwidth(devices[i], devices[(i + 1) % k])
            })
            .fold(f64::INFINITY, f64::min)
    }

    fn copy_route(&self, device: DeviceId, kind: CopyKind) -> (SimTime, f64) {
        let dev = &self.devices[device.index()];
        match kind {
            CopyKind::HostToDevice => (
                dev.h2d_free,
                self.config.topology.host_to_gpu_bandwidth(device.index()),
            ),
            CopyKind::DeviceToHost => (
                dev.d2h_free,
                self.config.topology.host_to_gpu_bandwidth(device.index()),
            ),
            CopyKind::PeerToPeer { to } => (
                dev.d2h_free,
                self.config
                    .topology
                    .gpu_to_gpu_bandwidth(device.index(), to as usize),
            ),
        }
    }

    fn set_copy_engine_free(&mut self, device: DeviceId, kind: CopyKind, free_at: SimTime) {
        let dev = &mut self.devices[device.index()];
        match kind {
            CopyKind::HostToDevice => dev.h2d_free = free_at,
            CopyKind::DeviceToHost | CopyKind::PeerToPeer { .. } => dev.d2h_free = free_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(gpus: usize) -> Machine {
        Machine::new(MachineConfig::titan_x_server(gpus))
    }

    /// A kernel with an exactly predictable duration: `ms` milliseconds of
    /// compute on `sms` SMs (plus kernel latency).
    fn timed_kernel(label: &'static str, ms: u64, sms: u32) -> KernelDesc {
        let cfg = crate::config::DeviceConfig::titan_x_pascal();
        let flops = (cfg.effective_flops(sms) * ms as f64 / 1e3) as u64;
        KernelDesc::compute(label, flops, sms)
    }

    #[test]
    fn same_stream_work_serialises() {
        let mut m = machine(1);
        let s = m.create_stream(m.device(0));
        m.submit_kernel(s, timed_kernel("a", 10, 24));
        m.submit_kernel(s, timed_kernel("b", 10, 24));
        m.run();
        let recs = m.trace().records();
        assert_eq!(recs.len(), 2);
        assert!(recs[0].end <= recs[1].start, "in-order execution");
    }

    #[test]
    fn different_streams_overlap_when_sms_allow() {
        let mut m = machine(1);
        let s1 = m.create_stream(m.device(0));
        let s2 = m.create_stream(m.device(0));
        m.submit_kernel(s1, timed_kernel("a", 10, 8));
        m.submit_kernel(s2, timed_kernel("b", 10, 8));
        m.run();
        let recs = m.trace().records();
        assert!(recs[0].overlaps(&recs[1]), "independent streams overlap");
        assert_eq!(recs[0].sms, 8);
        assert_eq!(recs[1].sms, 8);
    }

    #[test]
    fn sm_exhaustion_queues_kernels() {
        let mut m = machine(1);
        let s1 = m.create_stream(m.device(0));
        let s2 = m.create_stream(m.device(0));
        // First kernel takes the whole device.
        m.submit_kernel(s1, timed_kernel("big", 10, 24));
        m.submit_kernel(s2, timed_kernel("queued", 1, 4));
        m.run();
        let recs = m.trace().records();
        assert!(
            recs[1].start >= recs[0].end,
            "second kernel must wait for SMs"
        );
    }

    #[test]
    fn partial_grant_slows_kernel_down() {
        let mut m = machine(1);
        let s1 = m.create_stream(m.device(0));
        let s2 = m.create_stream(m.device(0));
        m.submit_kernel(s1, timed_kernel("hog", 50, 20));
        // Demands 24 but only 4 are free: runs 6x slower.
        m.submit_kernel(s2, timed_kernel("starved", 10, 24));
        m.run();
        let recs = m.trace().records();
        assert_eq!(recs[1].sms, 4);
        let slowdown =
            recs[1].duration().as_nanos() as f64 / SimDuration::from_millis(10).as_nanos() as f64;
        assert!(
            slowdown > 5.0,
            "granted 4/24 SMs -> ~6x slower, got {slowdown}"
        );
    }

    #[test]
    fn events_order_across_streams() {
        let mut m = machine(1);
        let s1 = m.create_stream(m.device(0));
        let s2 = m.create_stream(m.device(0));
        let e = m.create_event();
        // s2 waits for s1's kernel even though s2's kernel was submitted
        // first in wall-clock terms.
        m.wait_event(s2, e);
        m.submit_kernel(s2, timed_kernel("after", 1, 4));
        m.submit_kernel(s1, timed_kernel("before", 10, 4));
        m.record_event(s1, e);
        m.run();
        let recs = m.trace().records();
        let before = recs.iter().find(|r| r.label == "before").unwrap();
        let after = recs.iter().find(|r| r.label == "after").unwrap();
        assert!(after.start >= before.end, "event enforces ordering");
    }

    #[test]
    fn wait_on_already_signalled_event_passes() {
        let mut m = machine(1);
        let s1 = m.create_stream(m.device(0));
        let s2 = m.create_stream(m.device(0));
        let e = m.create_event();
        m.record_event(s1, e);
        m.run();
        m.wait_event(s2, e);
        m.callback(s2, 7);
        let done = m.run();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 7);
    }

    #[test]
    fn callbacks_fire_in_order_with_time() {
        let mut m = machine(1);
        let s = m.create_stream(m.device(0));
        m.submit_kernel(s, timed_kernel("k", 5, 24));
        m.callback(s, 1);
        m.submit_kernel(s, timed_kernel("k", 5, 24));
        m.callback(s, 2);
        let done = m.run();
        assert_eq!(done.iter().map(|c| c.tag).collect::<Vec<_>>(), vec![1, 2]);
        assert!(done[0].time < done[1].time);
    }

    #[test]
    fn run_until_callback_pauses_for_host() {
        let mut m = machine(1);
        let s = m.create_stream(m.device(0));
        m.submit_kernel(s, timed_kernel("k", 5, 24));
        m.callback(s, 1);
        let c = m.run_until_callback().expect("one callback");
        assert_eq!(c.tag, 1);
        // Host reacts by submitting more work at the paused time.
        m.submit_kernel(s, timed_kernel("k2", 5, 24));
        m.callback(s, 2);
        let c2 = m.run_until_callback().expect("second callback");
        assert_eq!(c2.tag, 2);
        assert!(c2.time > c.time);
        assert!(m.run_until_callback().is_none());
        assert!(m.is_quiescent());
    }

    #[test]
    fn copies_serialise_per_engine_but_overlap_compute() {
        let mut m = machine(1);
        let sc = m.create_stream(m.device(0));
        let s1 = m.create_stream(m.device(0));
        let s2 = m.create_stream(m.device(0));
        m.submit_kernel(sc, timed_kernel("compute", 50, 12));
        // Two 120 MB H2D copies at 12 GB/s = 10 ms each.
        m.submit_copy(s1, CopyKind::HostToDevice, 120_000_000, "h2d-a");
        m.submit_copy(s2, CopyKind::HostToDevice, 120_000_000, "h2d-b");
        m.run();
        let t = m.trace();
        let a = t.with_label(|l| l == "h2d-a").next().unwrap();
        let b = t.with_label(|l| l == "h2d-b").next().unwrap();
        let k = t.with_label(|l| l == "compute").next().unwrap();
        assert!(!a.overlaps(b), "one H2D engine serialises copies");
        assert!(a.overlaps(k) && b.overlaps(k), "copies overlap compute");
    }

    #[test]
    fn all_reduce_waits_for_all_participants() {
        let mut m = machine(4);
        let streams: Vec<StreamId> = (0..4).map(|g| m.create_stream(m.device(g))).collect();
        // GPU 3 is busy for 20 ms before joining.
        m.submit_kernel(streams[3], timed_kernel("straggler", 20, 24));
        m.all_reduce(&streams, 12_000_000, "allreduce");
        for (i, &s) in streams.iter().enumerate() {
            m.callback(s, i as u64);
        }
        let done = m.run();
        // All callbacks fire at the same time: the collective completes
        // simultaneously everywhere.
        assert_eq!(done.len(), 4);
        let t0 = done[0].time;
        assert!(done.iter().all(|c| c.time == t0));
        // And not before the straggler finished.
        let straggler_end = m
            .trace()
            .with_label(|l| l == "straggler")
            .next()
            .unwrap()
            .end;
        assert!(t0 > straggler_end);
    }

    #[test]
    fn single_participant_all_reduce_is_cheap() {
        let mut m = machine(1);
        let s = m.create_stream(m.device(0));
        m.all_reduce(&[s], 100_000_000, "ar1");
        m.callback(s, 0);
        let done = m.run();
        assert_eq!(done.len(), 1);
        // Only the step latency, no wire time.
        assert!(done[0].time.as_nanos() <= 50_000, "got {}", done[0].time);
    }

    #[test]
    fn larger_rings_pay_more_for_sync() {
        let time_for = |g: usize| {
            let mut m = machine(g);
            let streams: Vec<StreamId> = (0..g).map(|i| m.create_stream(m.device(i))).collect();
            m.all_reduce(&streams, 100_000_000, "ar");
            m.callback(streams[0], 0);
            m.run()[0].time
        };
        let t2 = time_for(2);
        let t8 = time_for(8);
        assert!(t8 > t2, "8-GPU ring slower than 2-GPU ring");
    }

    #[test]
    fn deterministic_replay() {
        let run_once = || {
            let mut m = machine(2);
            let s0 = m.create_stream(m.device(0));
            let s1 = m.create_stream(m.device(1));
            for i in 0..10 {
                m.submit_kernel(s0, timed_kernel("a", 1 + (i % 3), 8));
                m.submit_kernel(s1, timed_kernel("b", 2, 12));
            }
            m.all_reduce(&[s0, s1], 1_000_000, "ar");
            m.callback(s0, 99);
            let done = m.run();
            (done, m.now())
        };
        let (d1, t1) = run_once();
        let (d2, t2) = run_once();
        assert_eq!(d1, d2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn utilisation_reflects_sm_occupancy() {
        let mut m = machine(1);
        let s = m.create_stream(m.device(0));
        m.submit_kernel(s, timed_kernel("k", 100, 24));
        m.run();
        let u = m.utilisation(m.device(0));
        assert!(u > 0.9, "full-width kernel should near-saturate: {u}");
    }

    #[test]
    fn empty_machine_is_quiescent() {
        let mut m = machine(1);
        assert!(m.is_quiescent());
        assert!(m.run().is_empty());
        assert_eq!(m.now(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_device_index_panics() {
        let m = machine(1);
        let _ = m.device(3);
    }

    #[test]
    fn delay_stalls_stream_without_consuming_sms() {
        let mut m = machine(1);
        let s1 = m.create_stream(m.device(0));
        let s2 = m.create_stream(m.device(0));
        m.delay(s1, SimDuration::from_millis(10), "sched");
        m.submit_kernel(s1, timed_kernel("after-delay", 1, 24));
        // A full-width kernel on another stream runs during the delay.
        m.submit_kernel(s2, timed_kernel("during-delay", 5, 24));
        m.run();
        let t = m.trace();
        let delay = t.with_label(|l| l == "sched").next().unwrap();
        let during = t.with_label(|l| l == "during-delay").next().unwrap();
        let after = t.with_label(|l| l == "after-delay").next().unwrap();
        assert!(delay.overlaps(during), "delay holds no SMs");
        assert!(after.start >= delay.end, "delay stalls its own stream");
        assert_eq!(during.sms, 24, "all SMs were free during the delay");
    }

    #[test]
    fn transient_kernel_fault_surfaces_and_clears() {
        let plan = crate::fault::FaultPlan::none().transient_kernel(0, 1, 1);
        let mut m = Machine::new(MachineConfig::titan_x_server(1).with_faults(plan));
        let s = m.create_stream(m.device(0));
        m.submit_kernel(s, timed_kernel("ok", 1, 8));
        m.callback(s, 0);
        m.submit_kernel(s, timed_kernel("doomed", 1, 8));
        m.callback(s, 1);
        m.submit_kernel(s, timed_kernel("retry", 1, 8));
        m.callback(s, 2);
        let done = m.run();
        assert_eq!(done[0].outcome, WorkOutcome::Success);
        assert_eq!(done[1].outcome, WorkOutcome::Failed(FaultKind::Kernel));
        assert_eq!(
            done[2].outcome,
            WorkOutcome::Success,
            "observation cleared the sticky error"
        );
        assert_eq!(m.fault_stats().kernel_faults, 1);
    }

    #[test]
    fn straggler_window_stretches_kernels() {
        let healthy = {
            let mut m = machine(1);
            let s = m.create_stream(m.device(0));
            m.submit_kernel(s, timed_kernel("k", 10, 24));
            m.callback(s, 0);
            m.run()[0].time
        };
        let plan = crate::fault::FaultPlan::none().straggler(
            0,
            SimTime::ZERO,
            SimTime::from_nanos(1_000_000_000),
            3.0,
        );
        let mut m = Machine::new(MachineConfig::titan_x_server(1).with_faults(plan));
        let s = m.create_stream(m.device(0));
        m.submit_kernel(s, timed_kernel("k", 10, 24));
        m.callback(s, 0);
        let done = m.run();
        assert_eq!(done[0].outcome, WorkOutcome::Success, "slow, not broken");
        let ratio = done[0].time.as_nanos() as f64 / healthy.as_nanos() as f64;
        assert!((ratio - 3.0).abs() < 0.05, "3x straggler, got {ratio}x");
        assert_eq!(m.fault_stats().straggler_kernels, 1);
    }

    #[test]
    fn offline_device_parks_then_resumes() {
        let plan = crate::fault::FaultPlan::none().offline(
            0,
            SimTime::ZERO,
            SimTime::from_nanos(50_000_000),
        );
        let mut m = Machine::new(MachineConfig::titan_x_server(2).with_faults(plan));
        let s0 = m.create_stream(m.device(0));
        let s1 = m.create_stream(m.device(1));
        m.submit_kernel(s0, timed_kernel("on-offline", 1, 8));
        m.callback(s0, 0);
        m.submit_kernel(s1, timed_kernel("on-healthy", 1, 8));
        m.callback(s1, 1);
        let done = m.run();
        assert_eq!(done.len(), 2, "no deadlock");
        let offline = done.iter().find(|c| c.tag == 0).unwrap();
        let healthy = done.iter().find(|c| c.tag == 1).unwrap();
        assert!(
            offline.time.as_nanos() >= 50_000_000,
            "work deferred past the outage, got {}",
            offline.time
        );
        assert!(
            healthy.time.as_nanos() < 50_000_000,
            "other device unaffected"
        );
        assert!(m.fault_stats().offline_stalls >= 1);
    }

    #[test]
    fn failed_collective_poisons_every_participant() {
        let plan = crate::fault::FaultPlan::none().transient_collective(0, 1);
        let mut m = Machine::new(MachineConfig::titan_x_server(4).with_faults(plan));
        let streams: Vec<StreamId> = (0..4).map(|g| m.create_stream(m.device(g))).collect();
        m.all_reduce(&streams, 1_000_000, "ar");
        for (i, &s) in streams.iter().enumerate() {
            m.callback(s, i as u64);
        }
        let done = m.run();
        assert_eq!(done.len(), 4);
        assert!(done
            .iter()
            .all(|c| c.outcome == WorkOutcome::Failed(FaultKind::Collective)));
        assert_eq!(m.fault_stats().collective_faults, 1, "counted once");
        // A retry of the same collective succeeds.
        m.all_reduce(&streams, 1_000_000, "ar-retry");
        for (i, &s) in streams.iter().enumerate() {
            m.callback(s, 10 + i as u64);
        }
        let retry = m.run();
        assert!(retry.iter().all(|c| c.outcome == WorkOutcome::Success));
    }

    #[test]
    fn p2p_copy_uses_topology_bandwidth() {
        let mut m = machine(8);
        let s = m.create_stream(m.device(0));
        // Cross-socket: bounded by the inter-socket link (9.6 GB/s).
        m.submit_copy(s, CopyKind::PeerToPeer { to: 7 }, 96_000_000, "p2p");
        m.run();
        let r = m.trace().with_label(|l| l == "p2p").next().unwrap();
        // 96 MB at 9.6 GB/s = 10 ms.
        let ms = r.duration().as_secs_f64() * 1e3;
        assert!((ms - 10.0).abs() < 0.5, "p2p took {ms} ms");
    }
}
