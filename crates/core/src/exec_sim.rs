//! The CROSSBOW task engine, driven against the GPU simulator.
//!
//! This module reproduces the execution structure of §4.2–4.3 / Figure 8
//! and measures *hardware efficiency* (throughput, per-iteration time) on
//! the simulated multi-GPU server:
//!
//! * each learner has its own **learner stream**; each GPU additionally
//!   has one **synchronisation stream**;
//! * a **learning task** is the batch's H2D copy followed by the model's
//!   `num_ops` kernels (costs from the [`ModelProfile`]);
//! * a **local synchronisation task** runs on the learner stream right
//!   after the learning task: it computes the replica's difference from
//!   the GPU-local average model and updates the replica. It must *wait*
//!   (via an event) for the previous iteration's global synchronisation to
//!   have updated that average model (Figure 8, point *d*);
//! * a **global synchronisation task** runs on the sync streams: it waits
//!   for the GPU's local syncs (events), aggregates the local differences,
//!   joins a ring **all-reduce** with the other GPUs, and applies the
//!   update to the local copy of the average model;
//! * the next learning task of a learner starts immediately after its
//!   local sync — *overlapping* with the global synchronisation of the
//!   current iteration (Figure 8, points *f*, *g*). Integration tests
//!   assert this overlap from the trace.
//!
//! The TensorFlow-style baseline ([`EngineKind::BaselineSSgd`]) instead
//! runs one learner per GPU, all-reduces *gradients* inside the iteration
//! and places a global barrier before the next one (Figure 1), with the
//! larger per-iteration host overhead of a session-style executor.

use crossbow_gpu_sim::{
    Completion, CopyKind, EventId, FaultPlan, FaultStats, KernelDesc, Machine, MachineConfig,
    SimDuration, SimTime, StreamId,
};
use crossbow_nn::ModelProfile;
use crossbow_telemetry::{OverlapStats, Timeline};

/// Which execution engine to simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// CROSSBOW: multiple learners per GPU, SMA synchronisation overlapped
    /// with the next iteration's learning tasks.
    Crossbow,
    /// Parallel S-SGD with a per-iteration barrier — the TensorFlow
    /// baseline of §2.3.
    BaselineSSgd,
}

/// Per-task host scheduling overhead of the CROSSBOW task engine: worker
/// threads issue non-blocking kernels (§4.3).
pub const CROSSBOW_TASK_OVERHEAD: SimDuration = SimDuration::from_micros(10);

/// Per-iteration host overhead of the baseline's session-style executor
/// (round-robin dispatch, feed/fetch marshalling). Dominates sub-
/// millisecond models like LeNet — the effect behind Figure 10d.
pub const BASELINE_ITERATION_OVERHEAD: SimDuration = SimDuration::from_micros(300);

/// Configuration of one simulated training run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Engine to simulate.
    pub kind: EngineKind,
    /// Number of GPUs (`g`).
    pub gpus: usize,
    /// Learners per GPU (`m`); must be 1 for the baseline.
    pub learners_per_gpu: usize,
    /// Batch size per learner (`b`).
    pub batch_per_learner: usize,
    /// Full-scale model cost profile.
    pub profile: ModelProfile,
    /// Synchronise every `tau` iterations; `None` disables synchronisation
    /// entirely (the τ = ∞ point of Figure 17).
    pub tau: Option<usize>,
    /// Iterations to simulate per learner.
    pub iterations: usize,
    /// Iterations excluded from the throughput measurement.
    pub warmup: usize,
    /// Record the execution trace (needed by overlap tests).
    pub record_trace: bool,
    /// Ablation: force a global barrier between iterations (a learning
    /// task may not start until the previous iteration's global
    /// synchronisation finished on its GPU), disabling the Figure 8
    /// overlap. Only meaningful for the CROSSBOW engine.
    pub force_barrier: bool,
}

impl SimConfig {
    /// CROSSBOW with τ = 1 (the paper's default).
    pub fn crossbow(profile: ModelProfile, gpus: usize, m: usize, batch: usize) -> Self {
        SimConfig {
            kind: EngineKind::Crossbow,
            gpus,
            learners_per_gpu: m,
            batch_per_learner: batch,
            profile,
            tau: Some(1),
            iterations: 24,
            warmup: 4,
            record_trace: false,
            force_barrier: false,
        }
    }

    /// The TensorFlow-style baseline at per-GPU batch `batch`.
    pub fn baseline(profile: ModelProfile, gpus: usize, batch: usize) -> Self {
        SimConfig {
            kind: EngineKind::BaselineSSgd,
            gpus,
            learners_per_gpu: 1,
            batch_per_learner: batch,
            profile,
            tau: Some(1),
            iterations: 24,
            warmup: 4,
            record_trace: false,
            force_barrier: false,
        }
    }

    /// Enables trace recording (builder style).
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Total learners.
    pub fn total_learners(&self) -> usize {
        self.gpus * self.learners_per_gpu
    }

    /// Aggregate batch per iteration.
    pub fn aggregate_batch(&self) -> usize {
        self.total_learners() * self.batch_per_learner
    }
}

/// Fault and recovery counters of one simulated run. All zero for the
/// fault-free drivers; populated by [`simulate_robust`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Failed learning / local-sync tasks resubmitted on the same stream.
    pub task_retries: u64,
    /// Failed global synchronisations resubmitted (with backoff).
    pub sync_retries: u64,
    /// Global synchronisations abandoned after the retry cap.
    pub dropped_syncs: u64,
    /// Times a GPU's learners were removed from the all-reduce group for
    /// persistent slowness.
    pub quarantines: u64,
    /// Times a quarantined GPU was readmitted after sustained health.
    pub rejoins: u64,
    /// Host crashes observed: the driver abandoned the run mid-flight,
    /// leaving recovery to a resumed run (`RobustSimConfig::start_iter`).
    pub host_crashes: u64,
    /// What the machine actually injected (ground truth).
    pub injected: FaultStats,
}

/// Hardware-efficiency measurements of one simulated run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Steady-state training throughput (images/s).
    pub throughput: f64,
    /// Mean steady-state iteration time.
    pub iteration_time: SimDuration,
    /// Mean SM utilisation across GPUs over the whole run.
    pub utilisation: f64,
    /// Total simulated time.
    pub total_time: SimTime,
    /// Aggregate batch (images consumed per iteration across learners).
    pub aggregate_batch: usize,
    /// Fault / recovery counters (all zero for fault-free runs).
    pub faults: FaultCounters,
    /// Sync–compute overlap of the run (Figure 8): the fraction of
    /// global-synchronisation time hidden under learning tasks. Only
    /// computed when the trace is recorded ([`SimConfig::record_trace`]).
    pub overlap: Option<OverlapStats>,
}

impl SimReport {
    /// Simulated wall-clock time of one epoch over `train_samples`.
    pub fn epoch_time(&self, train_samples: usize) -> SimDuration {
        SimDuration::from_secs_f64(train_samples as f64 / self.throughput)
    }
}

/// Runs the simulation and returns the report.
pub fn simulate(config: &SimConfig) -> SimReport {
    simulate_with_machine(config).0
}

/// Runs the simulation, also returning the machine for trace inspection.
///
/// # Panics
/// Panics on invalid configurations (zero sizes, baseline with `m > 1`,
/// `warmup >= iterations`).
pub fn simulate_with_machine(config: &SimConfig) -> (SimReport, Machine) {
    assert!(config.gpus >= 1, "need at least one GPU");
    assert!(config.learners_per_gpu >= 1, "need at least one learner");
    assert!(config.batch_per_learner >= 1, "need a batch");
    assert!(
        config.iterations > config.warmup,
        "need measured iterations after warmup"
    );
    if config.kind == EngineKind::BaselineSSgd {
        assert_eq!(
            config.learners_per_gpu, 1,
            "the baseline trains one replica per GPU"
        );
    }
    if let Some(tau) = config.tau {
        assert!(tau >= 1, "tau must be at least 1");
    }
    let mut machine_config = MachineConfig::titan_x_server(config.gpus);
    machine_config.record_trace = config.record_trace;
    let mut machine = Machine::new(machine_config);
    match config.kind {
        EngineKind::Crossbow => build_crossbow(&mut machine, config),
        EngineKind::BaselineSSgd => build_baseline(&mut machine, config),
    }
    let completions = machine.run();
    assert!(machine.is_quiescent(), "work left behind");

    // Learning-task completions are tagged (iter << 32 | learner).
    let learners = config.total_learners();
    let iter_of = |tag: u64| (tag >> 32) as usize;
    let warm_end = completions
        .iter()
        .filter(|c| config.warmup == 0 || iter_of(c.tag) == config.warmup - 1)
        .map(|c| c.time)
        .max()
        .map_or(SimTime::ZERO, |t| {
            if config.warmup == 0 {
                SimTime::ZERO
            } else {
                t
            }
        });
    let end = completions
        .iter()
        .map(|c| c.time)
        .max()
        .expect("at least one completion");
    let measured_iters = config.iterations - config.warmup;
    let images = (learners * config.batch_per_learner * measured_iters) as f64;
    let span = (end - warm_end).as_secs_f64();
    assert!(span > 0.0, "zero measurement span");
    let throughput = images / span;
    let utilisation = (0..config.gpus)
        .map(|g| machine.utilisation(machine.device(g)))
        .sum::<f64>()
        / config.gpus as f64;
    let overlap = trace_overlap(&machine, config.record_trace);
    let report = SimReport {
        throughput,
        iteration_time: SimDuration::from_secs_f64(span / measured_iters as f64),
        utilisation,
        total_time: machine.now(),
        aggregate_batch: config.aggregate_batch(),
        faults: FaultCounters::default(),
        overlap,
    };
    (report, machine)
}

/// Overlap statistics from the machine's recorded trace, when it has one.
fn trace_overlap(machine: &Machine, recorded: bool) -> Option<OverlapStats> {
    recorded.then(|| Timeline::from_spans(machine.trace().to_spans()).overlap())
}

/// Builds the per-operator kernel sequence of one learning task.
///
/// Operators within a task are *heterogeneous*: a model mixes wide
/// convolutions with narrow element-wise layers, so per-op SM demand
/// cycles around the profile's batch-derived demand. The narrow kernels
/// leave SMs idle under a single learner — the very gap further learners
/// fill (§3.3) — while the wide ones keep the average cost calibrated.
fn learn_kernels(config: &SimConfig) -> Vec<KernelDesc> {
    let p = &config.profile;
    let flops_per_op = p.task_flops(config.batch_per_learner) / p.num_ops as u64;
    let base = p.sm_demand(config.batch_per_learner);
    const DEMAND_CYCLE: [f64; 4] = [1.5, 1.25, 1.0, 0.625];
    (0..p.num_ops)
        .map(|i| {
            let demand = (f64::from(base) * DEMAND_CYCLE[i % DEMAND_CYCLE.len()]).ceil() as u32;
            KernelDesc::compute("learn", flops_per_op, demand.max(1))
        })
        .collect()
}

fn tag(iter: usize, learner: usize) -> u64 {
    ((iter as u64) << 32) | learner as u64
}

/// Builds the CROSSBOW dataflow of Figure 8.
fn build_crossbow(machine: &mut Machine, config: &SimConfig) {
    let p = &config.profile;
    let m = config.learners_per_gpu;
    let kernels = learn_kernels(config);
    let input_bytes = (config.batch_per_learner as u64) * p.bytes_per_sample;
    let model_bytes = p.model_bytes();

    // Streams: learner streams grouped by GPU, plus one sync stream/GPU.
    let mut learner_streams: Vec<Vec<StreamId>> = Vec::with_capacity(config.gpus);
    let mut sync_streams: Vec<StreamId> = Vec::with_capacity(config.gpus);
    for g in 0..config.gpus {
        let dev = machine.device(g);
        learner_streams.push((0..m).map(|_| machine.create_stream(dev)).collect());
        sync_streams.push(machine.create_stream(dev));
    }

    let local_sync_kernel = KernelDesc::memory("local-sync", 3 * model_bytes, 2);
    let update_kernel = KernelDesc::memory("update", 2 * model_bytes, 2);
    let reduce_kernel = KernelDesc::memory("reduce-local", (m as u64) * model_bytes, 2);
    let apply_kernel = KernelDesc::memory("apply-average", 2 * model_bytes, 2);

    let mut last_avg: Vec<Option<EventId>> = vec![None; config.gpus];
    for iter in 0..config.iterations {
        let sync = config.tau.is_some_and(|t| iter % t == 0);
        let mut local_done: Vec<Vec<EventId>> = vec![Vec::with_capacity(m); config.gpus];
        for g in 0..config.gpus {
            for (l, &stream) in learner_streams[g].iter().enumerate() {
                let learner = g * m + l;
                if config.force_barrier {
                    // Ablation: no overlap — wait for the previous global
                    // sync before even starting the learning task.
                    if let Some(avg) = last_avg[g] {
                        machine.wait_event(stream, avg);
                    }
                }
                machine.delay(stream, CROSSBOW_TASK_OVERHEAD, "sched");
                machine.submit_copy(stream, CopyKind::HostToDevice, input_bytes, "input");
                for &kernel in &kernels {
                    machine.submit_kernel(stream, kernel);
                }
                if sync {
                    // The local average model must be consistent: wait for
                    // the previous global synchronisation on this GPU.
                    if let Some(avg) = last_avg[g] {
                        machine.wait_event(stream, avg);
                    }
                    machine.submit_kernel(stream, local_sync_kernel);
                    let ev = machine.create_event();
                    machine.record_event(stream, ev);
                    local_done[g].push(ev);
                } else {
                    machine.submit_kernel(stream, update_kernel);
                }
                machine.callback(stream, tag(iter, learner));
            }
        }
        if sync {
            for g in 0..config.gpus {
                let ss = sync_streams[g];
                for &ev in &local_done[g] {
                    machine.wait_event(ss, ev);
                }
                machine.submit_kernel(ss, reduce_kernel);
            }
            machine.all_reduce(&sync_streams, model_bytes, "allreduce");
            for g in 0..config.gpus {
                let ss = sync_streams[g];
                machine.submit_kernel(ss, apply_kernel);
                let ev = machine.create_event();
                machine.record_event(ss, ev);
                last_avg[g] = Some(ev);
            }
        }
    }
}

/// Builds the TensorFlow-style S-SGD dataflow of Figure 1.
fn build_baseline(machine: &mut Machine, config: &SimConfig) {
    let p = &config.profile;
    let kernels = learn_kernels(config);
    let input_bytes = (config.batch_per_learner as u64) * p.bytes_per_sample;
    let model_bytes = p.model_bytes();
    let streams: Vec<StreamId> = (0..config.gpus)
        .map(|g| machine.create_stream(machine.device(g)))
        .collect();
    let update_kernel = KernelDesc::memory("update", 2 * model_bytes, 2);
    for iter in 0..config.iterations {
        for (g, &stream) in streams.iter().enumerate() {
            machine.delay(stream, BASELINE_ITERATION_OVERHEAD, "session");
            machine.submit_copy(stream, CopyKind::HostToDevice, input_bytes, "input");
            for &kernel in &kernels {
                machine.submit_kernel(stream, kernel);
            }
            let _ = g;
        }
        // Gradient aggregation doubles as the barrier: every stream joins
        // before any proceeds (Figure 1's "aggregate gradients" step).
        machine.all_reduce(&streams, model_bytes, "grad-allreduce");
        for (g, &stream) in streams.iter().enumerate() {
            machine.submit_kernel(stream, update_kernel);
            machine.callback(stream, tag(iter, g));
        }
    }
}

/// Configuration of a fault-tolerant (robust) simulated run.
///
/// The robust driver submits work one iteration at a time and *reacts* to
/// completions instead of pre-building the whole dataflow: failed tasks
/// are retried with capped exponential backoff, a persistently slow GPU
/// has its learners quarantined out of the all-reduce group (the SMA
/// group `k` shrinks), and a quarantined GPU rejoins once its measured
/// iteration span is healthy again. The price of reactivity is that the
/// global synchronisation no longer overlaps the next iteration's
/// learning tasks — the host must observe each sync outcome before it can
/// decide what the next iteration looks like.
#[derive(Clone, Debug)]
pub struct RobustSimConfig {
    /// The underlying run (must use [`EngineKind::Crossbow`]).
    pub sim: SimConfig,
    /// Faults to inject.
    pub faults: FaultPlan,
    /// First iteration to execute (0 for a fresh run). A run resumed from
    /// a checkpoint sets this to the checkpoint's iteration so the
    /// simulation replays only the remaining work.
    pub start_iter: usize,
}

impl RobustSimConfig {
    /// Robust run with default recovery policy.
    pub fn new(sim: SimConfig, faults: FaultPlan) -> Self {
        RobustSimConfig {
            sim,
            faults,
            start_iter: 0,
        }
    }

    /// Resumes the simulated run at `iter` (builder style).
    pub fn with_start_iter(mut self, iter: usize) -> Self {
        self.start_iter = iter;
        self
    }
}

/// Retry cap per task and per global synchronisation.
const MAX_RETRIES: u32 = 4;
/// First backoff delay; doubles per retry.
const BACKOFF_BASE: SimDuration = SimDuration::from_micros(50);
/// Upper bound on a single backoff delay.
const BACKOFF_CAP: SimDuration = SimDuration::from_millis(5);
/// A GPU is "slow" when its iteration span exceeds the median span
/// across GPUs by this factor.
const SLOW_FACTOR: f64 = 1.5;
/// Consecutive slow iterations before quarantine.
const QUARANTINE_AFTER: u32 = 2;
/// Consecutive healthy iterations before a quarantined GPU rejoins.
const REJOIN_AFTER: u32 = 2;

/// Backoff before retry `attempt` (1-based): `base * 2^(attempt-1)`,
/// capped.
fn backoff_for(attempt: u32) -> SimDuration {
    let exp = attempt.saturating_sub(1).min(20);
    let nanos = BACKOFF_BASE
        .as_nanos()
        .saturating_mul(1u64 << exp)
        .min(BACKOFF_CAP.as_nanos());
    SimDuration::from_nanos(nanos)
}

/// High bit distinguishing global-sync callbacks from learner callbacks.
const SYNC_TAG: u64 = 1 << 63;

/// One learning task + local sync, submitted (or resubmitted) on a
/// learner stream. Returns the event recording the local sync, if any.
#[allow(clippy::too_many_arguments)]
fn submit_learn_task(
    machine: &mut Machine,
    stream: StreamId,
    kernels: &[KernelDesc],
    input_bytes: u64,
    sync: bool,
    wait_on: Option<EventId>,
    local_sync_kernel: KernelDesc,
    update_kernel: KernelDesc,
    callback_tag: u64,
) -> Option<EventId> {
    machine.delay(stream, CROSSBOW_TASK_OVERHEAD, "sched");
    machine.submit_copy(stream, CopyKind::HostToDevice, input_bytes, "input");
    for &kernel in kernels {
        machine.submit_kernel(stream, kernel);
    }
    let ev = if sync {
        if let Some(avg) = wait_on {
            machine.wait_event(stream, avg);
        }
        machine.submit_kernel(stream, local_sync_kernel);
        let ev = machine.create_event();
        machine.record_event(stream, ev);
        Some(ev)
    } else {
        machine.submit_kernel(stream, update_kernel);
        None
    };
    machine.callback(stream, callback_tag);
    ev
}

/// Runs the fault-tolerant simulation and returns the report.
pub fn simulate_robust(config: &RobustSimConfig) -> SimReport {
    simulate_robust_with_machine(config).0
}

/// Runs the fault-tolerant simulation, also returning the machine.
///
/// # Panics
/// Panics on invalid configurations (see [`simulate_with_machine`]) or a
/// non-CROSSBOW engine, and if the machine deadlocks (a callback that
/// never arrives).
pub fn simulate_robust_with_machine(config: &RobustSimConfig) -> (SimReport, Machine) {
    let sim = &config.sim;
    assert_eq!(
        sim.kind,
        EngineKind::Crossbow,
        "the robust driver simulates the CROSSBOW engine"
    );
    assert!(sim.gpus >= 1, "need at least one GPU");
    assert!(sim.learners_per_gpu >= 1, "need at least one learner");
    assert!(sim.batch_per_learner >= 1, "need a batch");
    assert!(
        sim.iterations > sim.warmup,
        "need measured iterations after warmup"
    );

    let mut machine_config =
        MachineConfig::titan_x_server(sim.gpus).with_faults(config.faults.clone());
    machine_config.record_trace = sim.record_trace;
    let mut machine = Machine::new(machine_config);

    let p = &sim.profile;
    let m = sim.learners_per_gpu;
    let gpus = sim.gpus;
    let kernels = learn_kernels(sim);
    let input_bytes = (sim.batch_per_learner as u64) * p.bytes_per_sample;
    let model_bytes = p.model_bytes();

    let mut learner_streams: Vec<Vec<StreamId>> = Vec::with_capacity(gpus);
    let mut sync_streams: Vec<StreamId> = Vec::with_capacity(gpus);
    for g in 0..gpus {
        let dev = machine.device(g);
        learner_streams.push((0..m).map(|_| machine.create_stream(dev)).collect());
        sync_streams.push(machine.create_stream(dev));
    }

    let local_sync_kernel = KernelDesc::memory("local-sync", 3 * model_bytes, 2);
    let update_kernel = KernelDesc::memory("update", 2 * model_bytes, 2);
    let reduce_kernel = KernelDesc::memory("reduce-local", (m as u64) * model_bytes, 2);
    let apply_kernel = KernelDesc::memory("apply-average", 2 * model_bytes, 2);

    let mut counters = FaultCounters::default();
    let mut active = vec![true; gpus];
    let mut slow_streak = vec![0u32; gpus];
    let mut healthy_streak = vec![0u32; gpus];
    let mut last_avg: Vec<Option<EventId>> = vec![None; gpus];
    let mut learn_done: Vec<Completion> = Vec::new();

    for iter in config.start_iter..sim.iterations {
        // A scheduled host crash kills the whole training process: no
        // orderly teardown, no further iterations. Only the durable
        // checkpoint store survives; a fresh run with `start_iter` set to
        // the last checkpoint replays the remaining work.
        if let Some(t) = config.faults.host_crash_at() {
            if machine.now() >= t {
                counters.host_crashes += 1;
                break;
            }
        }
        let sync = sim.tau.is_some_and(|t| iter % t == 0);
        let iter_start = machine.now();

        // Phase 1: learning tasks on EVERY GPU — quarantined GPUs keep
        // training against their (stale) local average model, which is
        // both SMA-legal and what lets us observe their recovery.
        let mut learn_ev: Vec<Option<EventId>> = vec![None; gpus * m];
        for g in 0..gpus {
            for (l, &stream) in learner_streams[g].iter().enumerate() {
                let learner = g * m + l;
                learn_ev[learner] = submit_learn_task(
                    &mut machine,
                    stream,
                    &kernels,
                    input_bytes,
                    sync,
                    last_avg[g],
                    local_sync_kernel,
                    update_kernel,
                    tag(iter, learner),
                );
            }
        }

        // Await every learner callback; retry failed tasks on the same
        // stream (the sticky error is cleared once observed).
        let mut outstanding = gpus * m;
        let mut retries_left = vec![MAX_RETRIES; gpus * m];
        let mut gpu_done = vec![iter_start; gpus];
        while outstanding > 0 {
            let c = machine
                .run_until_callback()
                .expect("deadlock: learner callbacks missing");
            debug_assert_eq!(c.tag & SYNC_TAG, 0, "unexpected sync callback");
            let learner = (c.tag & 0xFFFF_FFFF) as usize;
            let g = learner / m;
            if c.outcome.is_success() || retries_left[learner] == 0 {
                // Done (or given up: the replica skips this iteration).
                outstanding -= 1;
                if c.time > gpu_done[g] {
                    gpu_done[g] = c.time;
                }
                if c.outcome.is_success() {
                    learn_done.push(c);
                }
            } else {
                retries_left[learner] -= 1;
                counters.task_retries += 1;
                let attempt = MAX_RETRIES - retries_left[learner];
                let stream = learner_streams[g][learner % m];
                machine.delay(stream, backoff_for(attempt), "retry-backoff");
                learn_ev[learner] = submit_learn_task(
                    &mut machine,
                    stream,
                    &kernels,
                    input_bytes,
                    sync,
                    last_avg[g],
                    local_sync_kernel,
                    update_kernel,
                    c.tag,
                );
            }
        }

        // Phase 2: straggler bookkeeping from the observed per-GPU spans.
        let spans: Vec<f64> = (0..gpus)
            .map(|g| (gpu_done[g] - iter_start).as_secs_f64())
            .collect();
        let mut sorted = spans.clone();
        sorted.sort_by(f64::total_cmp);
        // Lower median: with an even GPU count the baseline must come
        // from the healthy half, or a straggler inflates its own yardstick.
        let median = sorted[(gpus - 1) / 2];
        for g in 0..gpus {
            let slow = median > 0.0 && spans[g] > SLOW_FACTOR * median;
            if slow {
                slow_streak[g] += 1;
                healthy_streak[g] = 0;
            } else {
                healthy_streak[g] += 1;
                slow_streak[g] = 0;
            }
            let active_count = active.iter().filter(|&&a| a).count();
            if active[g] && slow_streak[g] >= QUARANTINE_AFTER && active_count > 1 {
                active[g] = false;
                counters.quarantines += 1;
            } else if !active[g] && healthy_streak[g] >= REJOIN_AFTER {
                active[g] = true;
                counters.rejoins += 1;
            }
        }

        // Phase 3: global synchronisation across the *active* group only,
        // retried wholesale with backoff when the collective fails.
        if sync {
            let group: Vec<usize> = (0..gpus).filter(|&g| active[g]).collect();
            for &g in &group {
                let ss = sync_streams[g];
                for &ev in learn_ev[g * m..(g + 1) * m].iter().flatten() {
                    machine.wait_event(ss, ev);
                }
                machine.submit_kernel(ss, reduce_kernel);
            }
            let group_streams: Vec<StreamId> = group.iter().map(|&g| sync_streams[g]).collect();
            let mut attempt = 0u32;
            loop {
                machine.all_reduce(&group_streams, model_bytes, "allreduce");
                let mut avg_ev: Vec<(usize, EventId)> = Vec::with_capacity(group.len());
                for &g in &group {
                    let ss = sync_streams[g];
                    machine.submit_kernel(ss, apply_kernel);
                    let ev = machine.create_event();
                    machine.record_event(ss, ev);
                    avg_ev.push((g, ev));
                    machine.callback(ss, SYNC_TAG | tag(iter, g));
                }
                let mut failed = false;
                for _ in 0..group.len() {
                    let c = machine
                        .run_until_callback()
                        .expect("deadlock: global sync callbacks missing");
                    debug_assert_ne!(c.tag & SYNC_TAG, 0, "unexpected learner callback");
                    if !c.outcome.is_success() {
                        failed = true;
                    }
                }
                if !failed {
                    for (g, ev) in avg_ev {
                        last_avg[g] = Some(ev);
                    }
                    break;
                }
                if attempt >= MAX_RETRIES {
                    // Give up: replicas continue against the previous
                    // average model (SMA tolerates a skipped sync).
                    counters.dropped_syncs += 1;
                    break;
                }
                attempt += 1;
                counters.sync_retries += 1;
                for &s in &group_streams {
                    machine.delay(s, backoff_for(attempt), "sync-backoff");
                }
            }
        }
    }

    while machine.step() {}
    assert!(machine.is_quiescent(), "work left behind");
    counters.injected = machine.fault_stats();

    // Throughput from the *successful* learning-task completions. A run
    // cut short by a host crash may have few (or zero) of them; it still
    // deserves a report — with zero throughput — rather than a panic, so
    // a resuming driver can inspect the counters.
    let iter_of = |tag: u64| (tag >> 32) as usize;
    let warm_end = if sim.warmup == 0 {
        SimTime::ZERO
    } else {
        learn_done
            .iter()
            .filter(|c| iter_of(c.tag) == sim.warmup - 1)
            .map(|c| c.time)
            .max()
            .unwrap_or(SimTime::ZERO)
    };
    let end = learn_done.iter().map(|c| c.time).max();
    let measured = learn_done
        .iter()
        .filter(|c| iter_of(c.tag) >= sim.warmup)
        .count();
    let completed_iters = learn_done
        .iter()
        .map(|c| iter_of(c.tag) + 1)
        .max()
        .unwrap_or(0);
    let measured_iters = completed_iters.saturating_sub(sim.warmup);
    let span = end.map_or(0.0, |e| (e - warm_end).as_secs_f64());
    let (throughput, iteration_time) = if span > 0.0 && measured_iters > 0 {
        let images = (measured * sim.batch_per_learner) as f64;
        (
            images / span,
            SimDuration::from_secs_f64(span / measured_iters as f64),
        )
    } else {
        (0.0, SimDuration::ZERO)
    };
    let utilisation = (0..gpus)
        .map(|g| machine.utilisation(machine.device(g)))
        .sum::<f64>()
        / gpus as f64;
    let overlap = trace_overlap(&machine, sim.record_trace);
    let report = SimReport {
        throughput,
        iteration_time,
        utilisation,
        total_time: machine.now(),
        aggregate_batch: sim.aggregate_batch(),
        faults: counters,
        overlap,
    };
    (report, machine)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resnet32() -> ModelProfile {
        ModelProfile::resnet32()
    }

    #[test]
    fn crossbow_single_learner_throughput_is_paper_scale() {
        // Paper Figure 12a: ResNet-32, b = 64, 1 GPU, m = 1 trains at
        // roughly 2-3k images/s.
        let report = simulate(&SimConfig::crossbow(resnet32(), 1, 1, 64));
        assert!(
            (1_500.0..5_000.0).contains(&report.throughput),
            "throughput {} images/s",
            report.throughput
        );
    }

    #[test]
    fn multiple_learners_raise_throughput_then_saturate() {
        // Figure 12a: m = 4 beats m = 1 on one GPU; gains taper.
        let t = |m| simulate(&SimConfig::crossbow(resnet32(), 1, m, 64)).throughput;
        let (t1, t2, t4) = (t(1), t(2), t(4));
        assert!(t2 > t1 * 1.1, "m=2 {t2} should beat m=1 {t1}");
        assert!(t4 > t2, "m=4 {t4} should beat m=2 {t2}");
        let gain12 = t2 / t1;
        let gain24 = t4 / t2;
        assert!(gain24 < gain12, "gains must taper: {gain12} then {gain24}");
    }

    #[test]
    fn baseline_scales_with_gpus_at_constant_per_gpu_batch() {
        // Figure 2's linear regime: constant per-GPU batch.
        let t = |g| simulate(&SimConfig::baseline(resnet32(), g, 128)).throughput;
        let (t1, t8) = (t(1), t(8));
        let speedup = t8 / t1;
        assert!(
            (5.0..8.5).contains(&speedup),
            "8-GPU speed-up {speedup} should be near-linear"
        );
    }

    #[test]
    fn baseline_scales_poorly_with_shrinking_per_gpu_batch() {
        // Figure 2's sub-linear regime: constant aggregate batch 64.
        let t = |g: usize| simulate(&SimConfig::baseline(resnet32(), g, 64 / g)).throughput;
        let speedup = t(8) / t(1);
        assert!(
            speedup < 5.0,
            "aggregate-64 speed-up {speedup} must be sub-linear"
        );
    }

    #[test]
    fn sync_overhead_is_modest() {
        // Figure 17: throughput without synchronisation is only ~20-30%
        // higher than with tau = 1.
        let with_sync = simulate(&SimConfig::crossbow(resnet32(), 8, 1, 64)).throughput;
        let mut cfg = SimConfig::crossbow(resnet32(), 8, 1, 64);
        cfg.tau = None;
        let without = simulate(&cfg).throughput;
        let gain = without / with_sync;
        assert!(
            (1.0..1.6).contains(&gain),
            "no-sync gain {gain} should be modest"
        );
    }

    #[test]
    fn global_sync_overlaps_next_learning_tasks() {
        // Figure 8, point f: iteration N's all-reduce runs concurrently
        // with iteration N+1's learning kernels.
        let cfg = SimConfig::crossbow(resnet32(), 2, 2, 64).with_trace();
        let (_, machine) = simulate_with_machine(&cfg);
        assert!(
            machine.trace().labels_overlap("allreduce", "learn"),
            "global sync must overlap learning"
        );
    }

    #[test]
    fn traced_crossbow_run_reports_positive_overlap() {
        // The concurrent engine hides global synchronisation under the
        // next iteration's learning tasks, so a traced run must report a
        // strictly positive sync–compute overlap ratio.
        let cfg = SimConfig::crossbow(resnet32(), 2, 2, 64).with_trace();
        let report = simulate(&cfg);
        let overlap = report.overlap.expect("traced run reports overlap");
        assert!(overlap.ratio > 0.0, "{overlap}");
        assert!(overlap.sync_ns > 0);
        // Untraced runs skip the analysis entirely.
        let untraced = simulate(&SimConfig::crossbow(resnet32(), 2, 2, 64));
        assert!(untraced.overlap.is_none());
    }

    #[test]
    fn baseline_barrier_prevents_overlap() {
        let cfg = SimConfig::baseline(resnet32(), 2, 64).with_trace();
        let (_, machine) = simulate_with_machine(&cfg);
        assert!(
            !machine.trace().labels_overlap("grad-allreduce", "learn"),
            "the baseline's barrier forbids overlap"
        );
    }

    #[test]
    fn crossbow_beats_baseline_on_small_models() {
        // Figure 10d: LeNet tasks are ~1 ms, so the baseline's session
        // overhead dominates; CROSSBOW's task engine wins even at m = 1.
        let lenet = ModelProfile::lenet();
        let cb = simulate(&SimConfig::crossbow(lenet, 1, 1, 4)).throughput;
        let tf = simulate(&SimConfig::baseline(lenet, 1, 4)).throughput;
        assert!(
            cb > tf * 1.2,
            "CROSSBOW {cb} should clearly beat the baseline {tf} on LeNet"
        );
    }

    #[test]
    fn resnet50_learning_task_takes_paper_time() {
        // §5.2 quotes ~220 ms per ResNet-50 learning task (TF, b = 32).
        let report = simulate(&SimConfig::baseline(ModelProfile::resnet50(), 8, 32));
        let iter_ms = report.iteration_time.as_secs_f64() * 1e3;
        assert!(
            (150.0..400.0).contains(&iter_ms),
            "iteration took {iter_ms} ms"
        );
    }

    #[test]
    fn reports_are_deterministic() {
        let cfg = SimConfig::crossbow(resnet32(), 4, 2, 64);
        let a = simulate(&cfg);
        let b = simulate(&cfg);
        assert_eq!(a.throughput, b.throughput);
        assert_eq!(a.total_time, b.total_time);
    }

    #[test]
    fn epoch_time_follows_throughput() {
        let report = simulate(&SimConfig::crossbow(resnet32(), 8, 2, 64));
        let epoch = report.epoch_time(50_000).as_secs_f64();
        assert!((epoch - 50_000.0 / report.throughput).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one replica per GPU")]
    fn baseline_rejects_multiple_learners() {
        let mut cfg = SimConfig::baseline(resnet32(), 2, 64);
        cfg.learners_per_gpu = 2;
        let _ = simulate(&cfg);
    }

    #[test]
    fn utilisation_increases_with_learners() {
        let u = |m| simulate(&SimConfig::crossbow(resnet32(), 1, m, 16)).utilisation;
        assert!(u(4) > u(1), "more learners, busier SMs");
    }

    #[test]
    fn robust_driver_without_faults_reports_zero_counters() {
        let cfg =
            RobustSimConfig::new(SimConfig::crossbow(resnet32(), 2, 2, 64), FaultPlan::none());
        let report = simulate_robust(&cfg);
        assert_eq!(report.faults, FaultCounters::default());
        assert!(report.throughput > 0.0);
    }

    #[test]
    fn robust_throughput_is_close_to_the_plain_driver() {
        // Same dataflow, reactive submission: the robust driver trades the
        // sync/learn overlap for reactivity but must stay in the same
        // ballpark on a fault-free run.
        let sim = SimConfig::crossbow(resnet32(), 2, 2, 64);
        let plain = simulate(&sim).throughput;
        let robust = simulate_robust(&RobustSimConfig::new(sim, FaultPlan::none())).throughput;
        let ratio = robust / plain;
        assert!(
            (0.5..1.2).contains(&ratio),
            "robust {robust} vs plain {plain} (ratio {ratio})"
        );
    }

    #[test]
    fn failed_collective_is_retried_to_success() {
        let cfg = RobustSimConfig::new(
            SimConfig::crossbow(resnet32(), 2, 1, 64),
            FaultPlan::none().transient_collective(0, 1),
        );
        let report = simulate_robust(&cfg);
        assert!(report.faults.sync_retries >= 1, "{:?}", report.faults);
        assert_eq!(report.faults.dropped_syncs, 0);
        assert_eq!(report.faults.injected.collective_faults, 1);
    }

    #[test]
    fn failed_kernel_task_is_retried_on_the_same_stream() {
        let cfg = RobustSimConfig::new(
            SimConfig::crossbow(resnet32(), 1, 2, 64),
            FaultPlan::none().transient_kernel(0, 40, 1),
        );
        let report = simulate_robust(&cfg);
        assert!(report.faults.task_retries >= 1, "{:?}", report.faults);
        assert_eq!(report.faults.injected.kernel_faults, 1);
    }

    #[test]
    fn straggler_is_quarantined_and_rejoins() {
        // GPU 1 runs 4x slow for a mid-run window: the driver must shrink
        // the all-reduce group while it lags and restore it after.
        let mut sim = SimConfig::crossbow(resnet32(), 2, 1, 64);
        sim.iterations = 30;
        let probe = simulate(&sim).total_time;
        let mid = SimTime::ZERO + SimDuration::from_nanos(probe.as_nanos() / 4);
        let until = SimTime::ZERO + SimDuration::from_nanos(probe.as_nanos() / 2);
        let cfg = RobustSimConfig::new(sim, FaultPlan::none().straggler(1, mid, until, 4.0));
        let report = simulate_robust(&cfg);
        assert!(report.faults.quarantines >= 1, "{:?}", report.faults);
        assert!(report.faults.rejoins >= 1, "{:?}", report.faults);
        assert!(report.faults.injected.straggler_kernels > 0);
    }

    #[test]
    fn host_crash_aborts_the_run_and_resume_finishes_it() {
        let sim = SimConfig::crossbow(resnet32(), 2, 1, 64);
        let probe = simulate(&sim).total_time;
        let mid = SimTime::ZERO + SimDuration::from_nanos(probe.as_nanos() / 2);
        let crashed = simulate_robust(&RobustSimConfig::new(
            sim.clone(),
            FaultPlan::none().host_crash(mid),
        ));
        assert_eq!(crashed.faults.host_crashes, 1);
        // A fresh process resumes the remaining iterations.
        let resumed =
            simulate_robust(&RobustSimConfig::new(sim, FaultPlan::none()).with_start_iter(12));
        assert!(resumed.throughput > 0.0);
        assert_eq!(resumed.faults.host_crashes, 0);
    }

    #[test]
    fn immediate_host_crash_yields_a_zero_throughput_report() {
        let cfg = RobustSimConfig::new(
            SimConfig::crossbow(resnet32(), 1, 1, 64),
            FaultPlan::none().host_crash(SimTime::ZERO),
        );
        let report = simulate_robust(&cfg);
        assert_eq!(report.faults.host_crashes, 1);
        assert_eq!(report.throughput, 0.0, "no work, no throughput — no panic");
    }

    #[test]
    fn robust_reports_are_deterministic() {
        let sim = SimConfig::crossbow(resnet32(), 4, 2, 64);
        let horizon = SimDuration::from_secs_f64(simulate(&sim).total_time.as_secs_f64());
        let plan = FaultPlan::from_seed(7, 4, horizon);
        let cfg = RobustSimConfig::new(sim, plan);
        let a = simulate_robust(&cfg);
        let b = simulate_robust(&cfg);
        assert_eq!(a.throughput, b.throughput);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.faults, b.faults);
    }
}
