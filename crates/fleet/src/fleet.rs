//! The fleet: named model pools, elastic workers, work stealing and the
//! autoscaler loop.
//!
//! A [`Fleet`] owns one [`SloQueue`] and one elastic worker pool per
//! registered model. Workers serve their *home* queue first; when it is
//! empty and work stealing is on, they take batches from peer queues
//! whose [`ModelSpec`] matches, serving the
//! stolen work against the *owning* model's router (the spec contract
//! makes the forward pass shape-safe; the parameters are always the
//! owner's). Pool sizes move: each pool has a worker *target*; the
//! autoscaler raises it (spawning threads) or lowers it (workers retire
//! themselves at a safe point) based on interval tail latency and queue
//! backlog — the serving analogue of the paper's Algorithm 2.
//!
//! Shutdown is a graceful drain: admission closes,
//! every queued request is answered (predictions for what drains, a
//! typed error for nothing), workers join, and per-model stats merge
//! into a [`FleetReport`].

use crate::autoscaler::{decide, AutoscalerConfig, Observation, ScaleDecision};
use crate::queue::{Admission, SloQueue};
use crate::report::{FleetReport, ModelReport};
use crate::request::{FleetError, FleetJob, FleetPrediction, FleetTicket, SloClass};
use crate::router::{routes_to_canary, CandidateMode, ModelRouter, Weights};
use crossbow_nn::{Network, QuantizedModel, Scratch};
use crossbow_serve::{BatchConfig, ModelSpec, SnapshotRegistry};
use crossbow_telemetry::{
    Counter, Gauge, Histogram, HistogramCell, SpanKind, Telemetry, HOST_DEVICE,
};
use crossbow_tensor::{Shape, Tensor};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a parked worker re-checks for work and retirement.
const POLL: Duration = Duration::from_millis(10);

/// Fleet-wide parameters.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Micro-batching parameters; `queue_depth` bounds each model's
    /// admission queue.
    pub batch: BatchConfig,
    /// Worker threads each pool starts with.
    pub initial_workers: usize,
    /// Whether idle workers take batches from spec-compatible peers.
    pub work_stealing: bool,
    /// Load-testing knob: sleep this long inside every forward pass so
    /// overload, shedding and scaling can be exercised deterministically
    /// with tiny models (`None` = off).
    pub synthetic_delay: Option<Duration>,
    /// Autoscaler; `None` pins every pool at `initial_workers`.
    pub autoscaler: Option<AutoscalerConfig>,
    /// Tracing + metrics sink; `None` keeps metrics on a private
    /// registry and drops spans.
    pub telemetry: Option<Telemetry>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            batch: BatchConfig::default(),
            initial_workers: 1,
            work_stealing: true,
            synthetic_delay: None,
            autoscaler: None,
            telemetry: None,
        }
    }
}

/// One model's pool: routing, queue, elastic worker state and shared
/// instruments.
struct ModelRuntime {
    name: String,
    net: Arc<Network>,
    router: ModelRouter,
    queue: SloQueue,
    /// Desired worker count; the scaler writes, workers read.
    target: AtomicUsize,
    /// Workers currently running; retirement decrements via CAS.
    live: AtomicUsize,
    /// Ticks since this pool last changed size (cooldown clock).
    ticks_since_change: AtomicU64,
    /// Interval latency window; the scaler takes it each tick.
    window_hist: Mutex<Histogram>,
    /// Interval queue high-water mark; the scaler swaps it to 0.
    window_queue_hw: AtomicU64,
    completed: Arc<Counter>,
    shed: Arc<Counter>,
    rejected: Arc<Counter>,
    no_model: Arc<Counter>,
    batches: Arc<Counter>,
    stolen: Arc<Counter>,
    canary_served: Arc<Counter>,
    shadow_divergence: Arc<Counter>,
    workers_gauge: Arc<Gauge>,
    queue_gauge: Arc<Gauge>,
    latency: Arc<HistogramCell>,
    shadow_latency: Arc<HistogramCell>,
    min_version: AtomicU64,
    max_version: AtomicU64,
}

impl ModelRuntime {
    fn sample_queue_depth(&self) {
        let depth = self.queue.len() as u64;
        self.queue_gauge.set(depth);
        self.window_queue_hw.fetch_max(depth, Ordering::Relaxed);
    }

    fn observe_version(&self, version: u64) {
        self.min_version.fetch_min(version, Ordering::Relaxed);
        self.max_version.fetch_max(version, Ordering::Relaxed);
    }

    fn observe_latency(&self, latency: Duration) {
        self.latency.record(latency);
        self.window_hist
            .lock()
            .expect("window lock poisoned")
            .record(latency);
    }
}

struct Inner {
    models: Vec<Arc<ModelRuntime>>,
    by_name: HashMap<String, usize>,
    /// Per model: indices of spec-compatible peers, in steal order.
    peers: Vec<Vec<usize>>,
    config: FleetConfig,
    telemetry: Telemetry,
    stopping: AtomicBool,
    next_request_id: AtomicU64,
    next_worker_id: AtomicU64,
    handles: Mutex<Vec<JoinHandle<()>>>,
    decisions: Mutex<Vec<ScaleDecision>>,
    ticks: AtomicU64,
    scale_up: Arc<Counter>,
    scale_down: Arc<Counter>,
}

/// A submission handle; clone one per caller thread.
#[derive(Clone)]
pub struct FleetClient {
    inner: Arc<Inner>,
}

impl FleetClient {
    /// Submits one request to the named model without blocking for the
    /// answer.
    ///
    /// `deadline` is relative to now; the reply's `met_deadline` records
    /// whether it was honoured. Admission may shed a queued
    /// strictly-lower-class request to make room (that request is
    /// answered [`FleetError::Shed`]).
    ///
    /// # Errors
    /// [`FleetError::UnknownModel`], [`FleetError::ShuttingDown`],
    /// [`FleetError::BadRequest`] on a shape mismatch, or
    /// [`FleetError::Overloaded`] when the queue is full and nothing in
    /// it is strictly lower-class.
    pub fn submit(
        &self,
        model: &str,
        input: Vec<f32>,
        class: SloClass,
        deadline: Duration,
    ) -> Result<FleetTicket, FleetError> {
        let inner = &self.inner;
        let Some(&idx) = inner.by_name.get(model) else {
            return Err(FleetError::UnknownModel);
        };
        if inner.stopping.load(Ordering::Acquire) {
            return Err(FleetError::ShuttingDown);
        }
        let rt = &inner.models[idx];
        let expected = rt.router.primary().spec().sample_len();
        if input.len() != expected {
            return Err(FleetError::BadRequest {
                expected,
                got: input.len(),
            });
        }
        let (resp, ticket) = mpsc::channel();
        let now = Instant::now();
        let job = FleetJob {
            id: inner.next_request_id.fetch_add(1, Ordering::Relaxed),
            input,
            class,
            enqueued: now,
            deadline: now + deadline,
            resp,
        };
        match rt.queue.push(job) {
            Ok(admission) => {
                if let Admission::QueuedAfterShedding(_) = admission {
                    rt.shed.inc();
                }
                rt.sample_queue_depth();
                Ok(FleetTicket(ticket))
            }
            Err(e) => {
                if e == FleetError::Overloaded {
                    rt.rejected.inc();
                }
                Err(e)
            }
        }
    }

    /// Submits and blocks until the deadline for the answer.
    ///
    /// # Errors
    /// Everything [`FleetClient::submit`] returns, plus whatever the
    /// worker answers and [`FleetError::Deadline`] past the bound.
    pub fn call(
        &self,
        model: &str,
        input: Vec<f32>,
        class: SloClass,
        deadline: Duration,
    ) -> Result<FleetPrediction, FleetError> {
        // Wait past the SLO deadline (the reply still reports a missed
        // deadline via `met_deadline`) but never unboundedly.
        let wait = deadline.max(Duration::from_secs(1)).saturating_mul(64);
        self.submit(model, input, class, deadline)?
            .wait_deadline(wait)
    }
}

/// Registers models before the pools start.
pub struct FleetBuilder {
    config: FleetConfig,
    models: Vec<(String, Arc<Network>, Arc<SnapshotRegistry>)>,
}

impl FleetBuilder {
    /// Adds a model with a fresh, empty registry (publish via
    /// [`Fleet::registry`] or a router stage/promote).
    pub fn model(self, name: &str, net: Arc<Network>) -> Self {
        let registry = Arc::new(SnapshotRegistry::new(ModelSpec::of(&net)));
        self.model_with_registry(name, net, registry)
    }

    /// Adds a model backed by an existing registry — e.g. one a live
    /// trainer publishes into via its
    /// [`hook`](crossbow_serve::SnapshotRegistry::hook).
    ///
    /// # Panics
    /// Panics on a duplicate name or a registry whose spec does not
    /// match the network (both are configuration bugs, not load-time
    /// conditions).
    pub fn model_with_registry(
        mut self,
        name: &str,
        net: Arc<Network>,
        registry: Arc<SnapshotRegistry>,
    ) -> Self {
        assert!(
            self.models.iter().all(|(n, _, _)| n != name),
            "duplicate model name {name:?}"
        );
        assert_eq!(
            *registry.spec(),
            ModelSpec::of(&net),
            "registry spec must match the network for model {name:?}"
        );
        self.models.push((name.to_string(), net, registry));
        self
    }

    /// Starts the worker pools (and the autoscaler thread when its
    /// config has an interval).
    ///
    /// # Panics
    /// Panics when no model was registered.
    pub fn start(self) -> Fleet {
        assert!(!self.models.is_empty(), "a fleet needs at least one model");
        let telemetry = self
            .config
            .telemetry
            .clone()
            .unwrap_or_else(Telemetry::disabled);
        let initial = self.config.initial_workers.max(1);
        let mut models = Vec::with_capacity(self.models.len());
        let mut by_name = HashMap::new();
        for (i, (name, net, registry)) in self.models.into_iter().enumerate() {
            by_name.insert(name.clone(), i);
            let m = &telemetry.metrics;
            models.push(Arc::new(ModelRuntime {
                router: ModelRouter::new(registry),
                queue: SloQueue::new(self.config.batch.queue_depth),
                target: AtomicUsize::new(initial),
                live: AtomicUsize::new(0),
                ticks_since_change: AtomicU64::new(u64::MAX / 2),
                window_hist: Mutex::new(Histogram::new()),
                window_queue_hw: AtomicU64::new(0),
                completed: m.counter(format!("fleet.{name}.completed")),
                shed: m.counter(format!("fleet.{name}.shed")),
                rejected: m.counter(format!("fleet.{name}.rejected")),
                no_model: m.counter(format!("fleet.{name}.no_model")),
                batches: m.counter(format!("fleet.{name}.batches")),
                stolen: m.counter(format!("fleet.{name}.stolen")),
                canary_served: m.counter(format!("fleet.{name}.canary_served")),
                shadow_divergence: m.counter(format!("fleet.{name}.shadow_divergence")),
                workers_gauge: m.gauge(format!("fleet.{name}.workers")),
                queue_gauge: m.gauge(format!("fleet.{name}.queue_depth")),
                latency: m.histogram(format!("fleet.{name}.latency")),
                shadow_latency: m.histogram(format!("fleet.{name}.shadow_latency")),
                min_version: AtomicU64::new(u64::MAX),
                max_version: AtomicU64::new(0),
                name,
                net,
            }));
        }
        let peers = models
            .iter()
            .enumerate()
            .map(|(i, rt)| {
                (0..models.len())
                    .filter(|&j| {
                        j != i && models[j].router.primary().spec() == rt.router.primary().spec()
                    })
                    .collect()
            })
            .collect();
        let inner = Arc::new(Inner {
            models,
            by_name,
            peers,
            telemetry: telemetry.clone(),
            stopping: AtomicBool::new(false),
            next_request_id: AtomicU64::new(0),
            next_worker_id: AtomicU64::new(0),
            handles: Mutex::new(Vec::new()),
            decisions: Mutex::new(Vec::new()),
            ticks: AtomicU64::new(0),
            scale_up: telemetry.metrics.counter("fleet.scale_up"),
            scale_down: telemetry.metrics.counter("fleet.scale_down"),
            config: self.config,
        });
        for idx in 0..inner.models.len() {
            inner.models[idx].workers_gauge.set(initial as u64);
            for _ in 0..initial {
                spawn_worker(&inner, idx);
            }
        }
        let scaler = inner
            .config
            .autoscaler
            .as_ref()
            .and_then(|a| a.interval)
            .map(|interval| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name("fleet-autoscaler".into())
                    .spawn(move || {
                        while !inner.stopping.load(Ordering::Acquire) {
                            std::thread::sleep(interval);
                            run_tick(&inner);
                        }
                    })
                    .expect("spawn autoscaler")
            });
        Fleet {
            inner,
            scaler,
            started: Instant::now(),
        }
    }
}

/// A running multi-model serving fleet.
pub struct Fleet {
    inner: Arc<Inner>,
    scaler: Option<JoinHandle<()>>,
    started: Instant,
}

impl Fleet {
    /// A builder for a fleet with the given configuration.
    pub fn builder(config: FleetConfig) -> FleetBuilder {
        FleetBuilder {
            config,
            models: Vec::new(),
        }
    }

    /// A submission handle; clone freely across threads.
    pub fn client(&self) -> FleetClient {
        FleetClient {
            inner: Arc::clone(&self.inner),
        }
    }

    /// The named model's primary registry (for publishing snapshots).
    pub fn registry(&self, model: &str) -> Option<Arc<SnapshotRegistry>> {
        let idx = *self.inner.by_name.get(model)?;
        Some(Arc::clone(self.inner.models[idx].router.primary()))
    }

    /// Stages candidate parameters on the named model.
    ///
    /// # Errors
    /// [`FleetError::UnknownModel`], or [`FleetError::BadRequest`] when
    /// the parameters do not fit the model's spec.
    pub fn stage_candidate(
        &self,
        model: &str,
        params: Vec<f32>,
        mode: CandidateMode,
    ) -> Result<(), FleetError> {
        let idx = *self
            .inner
            .by_name
            .get(model)
            .ok_or(FleetError::UnknownModel)?;
        let rt = &self.inner.models[idx];
        let expected = rt.router.primary().spec().param_len;
        let got = params.len();
        rt.router
            .stage(params, mode)
            .map_err(|_| FleetError::BadRequest { expected, got })
    }

    /// Stages a quantized candidate on the named model — how a
    /// reduced-precision build is rolled out: canary a slice of real
    /// traffic against the f32 primary (or shadow all of it), watch the
    /// divergence counters, then [`Fleet::promote`] or
    /// [`Fleet::abort_candidate`]. `accuracy_delta` is the offline
    /// quantization cost vs f32; it is published with the snapshot on
    /// promotion so the primary registry carries it.
    ///
    /// # Errors
    /// [`FleetError::UnknownModel`], or [`FleetError::BadRequest`] when
    /// the model does not fit the spec.
    pub fn stage_quantized_candidate(
        &self,
        model: &str,
        quant: Arc<QuantizedModel>,
        accuracy_delta: Option<f32>,
        mode: CandidateMode,
    ) -> Result<(), FleetError> {
        let idx = *self
            .inner
            .by_name
            .get(model)
            .ok_or(FleetError::UnknownModel)?;
        let rt = &self.inner.models[idx];
        let expected = rt.router.primary().spec().param_len;
        let got = quant.params().len();
        rt.router
            .stage_quantized(quant, accuracy_delta, mode)
            .map_err(|_| FleetError::BadRequest { expected, got })
    }

    /// Promotes the named model's staged candidate into its primary
    /// registry; returns the new version, `None` when nothing is staged.
    ///
    /// # Errors
    /// [`FleetError::UnknownModel`].
    pub fn promote(&self, model: &str, iteration: u64) -> Result<Option<u64>, FleetError> {
        let idx = *self
            .inner
            .by_name
            .get(model)
            .ok_or(FleetError::UnknownModel)?;
        Ok(self.inner.models[idx].router.promote(iteration))
    }

    /// Discards the named model's staged candidate; returns whether one
    /// was staged.
    ///
    /// # Errors
    /// [`FleetError::UnknownModel`].
    pub fn abort_candidate(&self, model: &str) -> Result<bool, FleetError> {
        let idx = *self
            .inner
            .by_name
            .get(model)
            .ok_or(FleetError::UnknownModel)?;
        Ok(self.inner.models[idx].router.abort())
    }

    /// Runs one autoscaler probe over every pool, applying any resizes.
    /// Returns the decisions applied this tick (also appended to the
    /// report's history). With [`AutoscalerConfig::interval`] unset this
    /// is the only way pools move — deterministic for tests.
    pub fn tick(&self) -> Vec<ScaleDecision> {
        run_tick(&self.inner)
    }

    /// The current worker target of the named model's pool.
    pub fn workers(&self, model: &str) -> Option<usize> {
        let idx = *self.inner.by_name.get(model)?;
        Some(self.inner.models[idx].target.load(Ordering::Acquire))
    }

    /// Drains and stops the fleet: admission closes, every queued
    /// request is answered, workers and the scaler join, and per-model
    /// stats merge into the final [`FleetReport`].
    pub fn shutdown(self) -> FleetReport {
        self.inner.stopping.store(true, Ordering::Release);
        for rt in &self.inner.models {
            rt.queue.close();
        }
        if let Some(scaler) = self.scaler {
            scaler.join().expect("autoscaler panicked");
        }
        loop {
            let handles: Vec<JoinHandle<()>> =
                std::mem::take(&mut *self.inner.handles.lock().expect("handles lock poisoned"));
            if handles.is_empty() {
                break;
            }
            for h in handles {
                h.join().expect("fleet worker panicked");
            }
        }
        let wall = self.started.elapsed();
        let models = self
            .inner
            .models
            .iter()
            .map(|rt| {
                let min = rt.min_version.load(Ordering::Relaxed);
                ModelReport {
                    name: rt.name.clone(),
                    completed: rt.completed.get(),
                    shed: rt.shed.get(),
                    rejected: rt.rejected.get(),
                    no_model: rt.no_model.get(),
                    batches: rt.batches.get(),
                    stolen: rt.stolen.get(),
                    canary_served: rt.canary_served.get(),
                    shadow_divergence: rt.shadow_divergence.get(),
                    latency: rt.latency.snapshot().summary(),
                    max_queue_depth: rt.queue_gauge.max(),
                    final_workers: rt.target.load(Ordering::Acquire),
                    max_workers: rt.workers_gauge.max() as usize,
                    min_version: if min == u64::MAX { 0 } else { min },
                    max_version: rt.max_version.load(Ordering::Relaxed),
                }
            })
            .collect();
        FleetReport {
            models,
            decisions: self
                .inner
                .decisions
                .lock()
                .expect("decisions lock poisoned")
                .clone(),
            wall,
        }
    }
}

fn spawn_worker(inner: &Arc<Inner>, model: usize) {
    inner.models[model].live.fetch_add(1, Ordering::AcqRel);
    let id = inner.next_worker_id.fetch_add(1, Ordering::Relaxed);
    let worker_inner = Arc::clone(inner);
    let handle = std::thread::Builder::new()
        .name(format!("fleet-{}-{id}", inner.models[model].name))
        .spawn(move || worker_loop(&worker_inner, model, id as u32))
        .expect("spawn fleet worker");
    inner
        .handles
        .lock()
        .expect("handles lock poisoned")
        .push(handle);
}

fn worker_loop(inner: &Inner, home: usize, lane: u32) {
    let rt = &inner.models[home];
    let max_batch = inner.config.batch.max_batch.max(1);
    // Scratch per servable model, built lazily: stolen batches run the
    // owner's network, whose plan may differ from home's.
    let mut scratches: Vec<Option<Scratch>> = (0..inner.models.len()).map(|_| None).collect();
    let mut shard = inner.telemetry.recorder.shard();
    loop {
        let stopping = inner.stopping.load(Ordering::Acquire);
        // Retire at a safe point (between batches) when over target.
        // During the drain everyone stays: more hands empty queues
        // faster and shutdown joins every thread anyway.
        if !stopping {
            let live = rt.live.load(Ordering::Acquire);
            if live > rt.target.load(Ordering::Acquire)
                && rt
                    .live
                    .compare_exchange(live, live - 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                return;
            }
        }
        let fetch_start = shard.now_ns();
        let (owner, first) = match rt.queue.try_pop() {
            Some(job) => (home, job),
            None => {
                let stolen = if inner.config.work_stealing && !stopping {
                    inner.peers[home]
                        .iter()
                        .find_map(|&p| inner.models[p].queue.try_pop().map(|job| (p, job)))
                } else {
                    None
                };
                match stolen {
                    Some((owner, job)) => {
                        inner.models[owner].stolen.inc();
                        (owner, job)
                    }
                    None => {
                        if stopping && rt.queue.is_empty() {
                            return;
                        }
                        match rt.queue.pop_timeout(POLL) {
                            Some(job) => (home, job),
                            None => continue,
                        }
                    }
                }
            }
        };
        let owner_rt = &inner.models[owner];
        let batch = collect_batch(owner_rt, first, max_batch, &inner.config, stopping);
        // Flush-time depth sample: the high-water mark must see backlog
        // that built up while this worker was busy.
        owner_rt.sample_queue_depth();
        shard.close(
            SpanKind::BatchFetch,
            "fleet-fetch",
            fetch_start,
            HOST_DEVICE,
            lane,
            None,
        );
        if scratches[owner].is_none() {
            let net = &owner_rt.net;
            scratches[owner] = Some(net.scratch_with_plan(&net.plan(max_batch)));
        }
        let scratch = scratches[owner].as_mut().expect("just built");
        owner_rt.batches.inc();
        let infer_start = shard.now_ns();
        serve_batch(owner_rt, batch, &inner.config, scratch);
        shard.close(
            SpanKind::Infer,
            "fleet-infer",
            infer_start,
            HOST_DEVICE,
            lane,
            None,
        );
    }
}

/// Coalesces `first` with more of the owner's queued jobs: flush on
/// `max_batch` or when the oldest job has waited `max_delay`; during a
/// drain, take only what is already buffered.
fn collect_batch(
    owner: &ModelRuntime,
    first: FleetJob,
    max_batch: usize,
    config: &FleetConfig,
    stopping: bool,
) -> Vec<FleetJob> {
    let deadline = first.enqueued + config.batch.max_delay;
    let mut batch = Vec::with_capacity(max_batch);
    batch.push(first);
    while batch.len() < max_batch {
        if let Some(job) = owner.queue.try_pop() {
            batch.push(job);
            continue;
        }
        if stopping {
            break;
        }
        let Some(wait) = deadline.checked_duration_since(Instant::now()) else {
            break;
        };
        match owner.queue.pop_timeout(wait) {
            Some(job) => batch.push(job),
            None => break,
        }
    }
    batch
}

/// Runs one forward pass over `jobs`' inputs: the exact-integer kernels
/// for an int8 model, the f32 forward on pre-packed dense weights
/// otherwise (the classes of `predict`, bit for bit).
fn forward(
    net: &Network,
    weights: Weights<'_>,
    jobs: &[FleetJob],
    spec: &ModelSpec,
    config: &FleetConfig,
    scratch: &mut Scratch,
) -> Vec<usize> {
    let sample_len = spec.sample_len();
    let mut data = Vec::with_capacity(jobs.len() * sample_len);
    for job in jobs {
        data.extend_from_slice(&job.input);
    }
    let mut dims = vec![jobs.len()];
    dims.extend_from_slice(&spec.input_shape);
    if let Some(delay) = config.synthetic_delay {
        std::thread::sleep(delay);
    }
    let input = Tensor::from_vec(Shape::new(&dims), data);
    match weights {
        Weights::Packed { params, packed } => net.predict_packed(params, packed, &input, scratch),
        Weights::Int8(model) => net.predict_quant(model, &input, scratch),
    }
}

fn serve_batch(
    rt: &ModelRuntime,
    batch: Vec<FleetJob>,
    config: &FleetConfig,
    scratch: &mut Scratch,
) {
    let Some(plan) = rt.router.plan() else {
        rt.no_model.add(batch.len() as u64);
        for job in batch {
            job.answer(Err(FleetError::NoModel));
        }
        return;
    };
    let spec = plan.primary.spec.clone();
    // Split the batch by route. Shadow keeps everything on the primary
    // (the candidate is mirrored, never answers); canary moves the
    // deterministic id-fraction to the candidate.
    let mut primary_jobs = Vec::with_capacity(batch.len());
    let mut canary_jobs = Vec::new();
    match plan.candidate.as_ref().map(|route| route.mode) {
        Some(CandidateMode::Canary { percent }) => {
            for job in batch {
                if routes_to_canary(job.id, percent) {
                    canary_jobs.push(job);
                } else {
                    primary_jobs.push(job);
                }
            }
        }
        _ => primary_jobs = batch,
    }
    let version = plan.primary.version;
    if !primary_jobs.is_empty() {
        let classes = forward(
            &rt.net,
            plan.primary_weights(&rt.net),
            &primary_jobs,
            &spec,
            config,
            scratch,
        );
        if let Some(route) = plan
            .candidate
            .as_ref()
            .filter(|route| route.mode == CandidateMode::Shadow)
        {
            // Mirror the same inputs through the candidate and count
            // disagreements; replies below still come from the primary.
            let shadow_started = Instant::now();
            let shadow = forward(
                &rt.net,
                route.weights(&rt.net),
                &primary_jobs,
                &spec,
                config,
                scratch,
            );
            rt.shadow_latency.record(shadow_started.elapsed());
            let diverged = classes.iter().zip(&shadow).filter(|(a, b)| a != b).count();
            rt.shadow_divergence.add(diverged as u64);
        }
        answer_all(rt, primary_jobs, classes, version, false);
    }
    if !canary_jobs.is_empty() {
        let route = plan
            .candidate
            .as_ref()
            .expect("canary jobs imply candidate");
        let classes = forward(
            &rt.net,
            route.weights(&rt.net),
            &canary_jobs,
            &spec,
            config,
            scratch,
        );
        rt.canary_served.add(canary_jobs.len() as u64);
        answer_all(rt, canary_jobs, classes, version, true);
    }
}

fn answer_all(
    rt: &ModelRuntime,
    jobs: Vec<FleetJob>,
    classes: Vec<usize>,
    version: u64,
    canary: bool,
) {
    let answered = Instant::now();
    for (job, class) in jobs.into_iter().zip(classes) {
        let latency = answered.saturating_duration_since(job.enqueued);
        let met_deadline = answered <= job.deadline;
        rt.completed.inc();
        rt.observe_version(version);
        rt.observe_latency(latency);
        job.answer(Ok(FleetPrediction {
            class,
            version,
            latency,
            met_deadline,
            canary,
        }));
    }
}

fn run_tick(inner: &Arc<Inner>) -> Vec<ScaleDecision> {
    let Some(config) = inner.config.autoscaler.as_ref() else {
        return Vec::new();
    };
    let tick = inner.ticks.fetch_add(1, Ordering::Relaxed) + 1;
    let mut applied = Vec::new();
    let mut shard = inner.telemetry.recorder.shard();
    for (idx, rt) in inner.models.iter().enumerate() {
        let window = std::mem::take(&mut *rt.window_hist.lock().expect("window lock poisoned"));
        let queue_high_water = rt.window_queue_hw.swap(0, Ordering::Relaxed);
        let workers = rt.target.load(Ordering::Acquire);
        let obs = Observation {
            p99: window.quantile(0.99),
            queue_high_water,
            workers,
            ticks_since_change: rt.ticks_since_change.load(Ordering::Relaxed),
        };
        let Some((to, reason)) = decide(config, &obs) else {
            rt.ticks_since_change.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        let span_start = shard.now_ns();
        rt.target.store(to, Ordering::Release);
        rt.ticks_since_change.store(0, Ordering::Relaxed);
        rt.workers_gauge.set(to as u64);
        if to > workers {
            inner.scale_up.inc();
            for _ in workers..to {
                spawn_worker(inner, idx);
            }
        } else {
            // Shrink is lazy: workers notice the lower target at their
            // next safe point and retire themselves.
            inner.scale_down.inc();
        }
        shard.close(
            SpanKind::Autoscale,
            reason.name(),
            span_start,
            HOST_DEVICE,
            idx as u32,
            Some(tick),
        );
        let decision = ScaleDecision {
            model: rt.name.clone(),
            tick,
            from: workers,
            to,
            p99: obs.p99.unwrap_or(Duration::ZERO),
            queue_high_water,
            reason,
        };
        applied.push(decision.clone());
        inner
            .decisions
            .lock()
            .expect("decisions lock poisoned")
            .push(decision);
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbow_nn::zoo::mlp;
    use crossbow_tensor::Rng;

    fn fleet_of(names: &[&str], config: FleetConfig) -> Fleet {
        let mut builder = Fleet::builder(config);
        for (i, name) in names.iter().enumerate() {
            let net = Arc::new(mlp(4, &[8], 3));
            let registry = Arc::new(SnapshotRegistry::new(ModelSpec::of(&net)));
            registry
                .publish(net.init_params(&mut Rng::new(i as u64 + 1)), 1)
                .unwrap();
            builder = builder.model_with_registry(name, net, registry);
        }
        builder.start()
    }

    #[test]
    fn serves_multiple_models_and_drains_cleanly() {
        let fleet = fleet_of(&["alpha", "beta"], FleetConfig::default());
        let client = fleet.client();
        for _ in 0..10 {
            for model in ["alpha", "beta"] {
                let p = client
                    .call(
                        model,
                        vec![0.3; 4],
                        SloClass::Standard,
                        Duration::from_secs(5),
                    )
                    .expect("served");
                assert_eq!(p.version, 1);
                assert!(p.met_deadline);
                assert!(!p.canary);
            }
        }
        let report = fleet.shutdown();
        assert_eq!(report.model("alpha").unwrap().completed, 10);
        assert_eq!(report.model("beta").unwrap().completed, 10);
        assert_eq!(report.total_shed(), 0);
        assert!(report.decisions.is_empty(), "no autoscaler configured");
    }

    #[test]
    fn unknown_model_and_bad_shapes_are_typed_refusals() {
        let fleet = fleet_of(&["only"], FleetConfig::default());
        let client = fleet.client();
        assert_eq!(
            client
                .submit(
                    "ghost",
                    vec![0.0; 4],
                    SloClass::Batch,
                    Duration::from_secs(1)
                )
                .err(),
            Some(FleetError::UnknownModel)
        );
        assert_eq!(
            client
                .submit(
                    "only",
                    vec![0.0; 7],
                    SloClass::Batch,
                    Duration::from_secs(1)
                )
                .err(),
            Some(FleetError::BadRequest {
                expected: 4,
                got: 7
            })
        );
        fleet.shutdown();
    }

    #[test]
    fn an_unpublished_model_answers_no_model() {
        let net = Arc::new(mlp(4, &[8], 3));
        let fleet = Fleet::builder(FleetConfig::default())
            .model("empty", net)
            .start();
        let client = fleet.client();
        assert_eq!(
            client.call(
                "empty",
                vec![0.0; 4],
                SloClass::Standard,
                Duration::from_secs(1)
            ),
            Err(FleetError::NoModel)
        );
        let report = fleet.shutdown();
        assert_eq!(report.model("empty").unwrap().no_model, 1);
    }

    #[test]
    fn idle_compatible_pools_steal_queued_batches() {
        let config = FleetConfig {
            batch: BatchConfig {
                max_batch: 1,
                max_delay: Duration::ZERO,
                queue_depth: 64,
            },
            initial_workers: 1,
            work_stealing: true,
            synthetic_delay: Some(Duration::from_millis(5)),
            ..FleetConfig::default()
        };
        let fleet = fleet_of(&["busy", "idle"], config);
        let client = fleet.client();
        let tickets: Vec<FleetTicket> = (0..24)
            .map(|_| {
                client
                    .submit(
                        "busy",
                        vec![0.1; 4],
                        SloClass::Standard,
                        Duration::from_secs(30),
                    )
                    .expect("admitted")
            })
            .collect();
        for t in tickets {
            t.wait().expect("served");
        }
        let report = fleet.shutdown();
        let busy = report.model("busy").unwrap();
        assert_eq!(busy.completed, 24, "every admitted request answered");
        assert!(
            busy.stolen > 0,
            "the idle pool must take some of the backlog"
        );
        assert_eq!(report.model("idle").unwrap().completed, 0);
    }

    /// A worker already assembling a batch when shutdown begins stops
    /// waiting for more: the closed queue can deliver nothing, so the
    /// drain does not sit out the rest of `max_delay`.
    #[test]
    fn shutdown_does_not_wait_out_max_delay_in_batch_assembly() {
        let config = FleetConfig {
            batch: BatchConfig {
                max_batch: 16,
                max_delay: Duration::from_secs(30),
                queue_depth: 8,
            },
            ..FleetConfig::default()
        };
        let fleet = fleet_of(&["slow"], config);
        let ticket = fleet
            .client()
            .submit(
                "slow",
                vec![0.1; 4],
                SloClass::Standard,
                Duration::from_secs(60),
            )
            .expect("admitted");
        // Once the worker has taken the request it waits in batch
        // assembly for up to 15 more.
        while !fleet.inner.models[0].queue.is_empty() {
            std::thread::yield_now();
        }
        let started = Instant::now();
        let report = fleet.shutdown();
        let drained_in = started.elapsed();
        ticket
            .wait_deadline(Duration::from_secs(1))
            .expect("answered by the drain");
        assert!(
            drained_in < Duration::from_secs(5),
            "the drain took {drained_in:?} against a 30 s max_delay"
        );
        assert_eq!(report.model("slow").unwrap().completed, 1);
    }

    #[test]
    fn stealing_respects_spec_compatibility() {
        let config = FleetConfig {
            work_stealing: true,
            ..FleetConfig::default()
        };
        let small = Arc::new(mlp(4, &[8], 3));
        let large = Arc::new(mlp(6, &[8], 3));
        let fleet = Fleet::builder(config)
            .model("small", small)
            .model("large", large)
            .start();
        // Incompatible specs: no peer edges either way.
        assert!(fleet.inner.peers.iter().all(Vec::is_empty));
        fleet.shutdown();
    }

    #[test]
    fn manual_ticks_scale_the_pool_both_ways() {
        let config = FleetConfig {
            batch: BatchConfig {
                max_batch: 4,
                max_delay: Duration::ZERO,
                queue_depth: 256,
            },
            initial_workers: 1,
            work_stealing: false,
            synthetic_delay: Some(Duration::from_millis(4)),
            autoscaler: Some(AutoscalerConfig {
                slo_p99: Duration::from_millis(10),
                queue_high_water: 4,
                shrink_margin: 0.9,
                min_workers: 1,
                max_workers: 3,
                cooldown_ticks: 0,
                interval: None,
            }),
            ..FleetConfig::default()
        };
        let fleet = fleet_of(&["scaled"], config);
        let client = fleet.client();
        // Flood: queue builds, latencies blow the 10ms SLO.
        let tickets: Vec<FleetTicket> = (0..64)
            .map(|_| {
                client
                    .submit(
                        "scaled",
                        vec![0.2; 4],
                        SloClass::Standard,
                        Duration::from_secs(30),
                    )
                    .expect("admitted")
            })
            .collect();
        for t in tickets {
            t.wait().expect("served");
        }
        let up = fleet.tick();
        assert_eq!(up.len(), 1, "overload grows the pool: {up:?}");
        assert!(up[0].to > up[0].from);
        assert_eq!(fleet.workers("scaled"), Some(2));
        // One idle-but-sampled interval: cheap requests, calm queue.
        for _ in 0..8 {
            client
                .call(
                    "scaled",
                    vec![0.2; 4],
                    SloClass::Standard,
                    Duration::from_secs(30),
                )
                .expect("served");
        }
        let down = fleet.tick();
        assert_eq!(down.len(), 1, "headroom shrinks the pool: {down:?}");
        assert!(down[0].to < down[0].from);
        assert_eq!(fleet.workers("scaled"), Some(1));
        // A silent interval holds: no samples is not headroom.
        assert!(fleet.tick().is_empty());
        let report = fleet.shutdown();
        assert_eq!(report.decisions.len(), 2);
        assert!(report.scaled_both_ways());
    }
}
