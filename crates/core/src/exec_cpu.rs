//! A concurrent CPU training runtime mirroring the paper's system
//! architecture (Figure 7).
//!
//! The synchronous driver in `crossbow-sync::trainer` computes all `k`
//! gradients, then synchronises — convenient for statistical experiments,
//! but it hides the system structure the paper builds. This module is the
//! *runtime* version: real threads, real queues, and the same pipelined
//! overlap as the GPU engine:
//!
//! * there is no separate **data pre-processor** stage: each learner
//!   gathers its next batch inline from its own sampler, so batch
//!   assembly is on the learner's critical path (the paper's bounded
//!   batch queue of §4.5 is not reproduced);
//! * each **learner** runs on a worker thread: it gathers a batch, computes
//!   the gradient against its replica (the *learning task*), applies the
//!   gradient plus the SMA correction against its snapshot of the central
//!   average model (the *local synchronisation task*), and posts its
//!   correction to the task manager;
//! * the **task manager** aggregates the `k` corrections of iteration `n`
//!   (the *global synchronisation task*), advances the central average
//!   model with Polyak momentum, and publishes the new version;
//! * learners may start iteration `n+1`'s learning task immediately after
//!   updating their replica — they only *wait for the published average
//!   model of iteration `n`* at their next local sync, reproducing the
//!   one-iteration-deep pipeline of Figure 8 (points *d*, *f*, *g*).
//!
//! Every learner draws batches from its own seeded sampler, so the
//! *numerics* are deterministic regardless of thread interleaving — a
//! property the tests rely on.

use crate::memory::ExecMemoryPlan;
use crossbow_checkpoint::{AlgoState, CheckpointError, CheckpointStore, DataCursor, TrainingState};
use crossbow_data::{BatchSampler, Dataset};
use crossbow_nn::{Network, Scratch};
use crossbow_sync::{CheckpointConfig, SmaConfig, EVAL_BATCH};
use crossbow_telemetry::{SpanKind, Telemetry, HOST_DEVICE};
use crossbow_tensor::ops;
use crossbow_tensor::stats::WindowedMedian;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Algorithm tag written into the runtime's checkpoints; a store holding
/// a different algorithm's state is ignored rather than restored.
const ALGO_NAME: &str = "concurrent-sma";

/// Configuration of the concurrent runtime.
#[derive(Clone, Debug)]
pub struct CpuEngineConfig {
    /// Number of learners (worker threads).
    pub learners: usize,
    /// Batch size per learner.
    pub batch_per_learner: usize,
    /// Learning rate (constant; the runtime demonstrates the engine, not
    /// schedules). Centre momentum µ and correction strength α = 1/k are
    /// [`SmaConfig::default`]'s.
    pub lr: f32,
    /// Weight decay added to gradients.
    pub weight_decay: f32,
    /// Stop after this many epochs (per the shared epoch clock).
    pub max_epochs: usize,
    /// Record in [`CpuEngineReport::epochs_to_target`] the first epoch
    /// at which the median-of-5 test accuracy reaches this value. The run
    /// still trains for `max_epochs`.
    pub target_accuracy: Option<f64>,
    /// Master seed.
    pub seed: u64,
    /// Durable checkpointing of the central average model. Unlike the
    /// synchronous trainer's bit-exact resume, the concurrent runtime
    /// restarts *approximately*: replicas are re-seeded from the restored
    /// average model — the same warm-restart rule the paper applies on
    /// learning-rate changes (§3.2) — and the per-learner samplers restart
    /// from their seeds, so a resumed run continues the optimisation
    /// trajectory without reproducing the exact batch order.
    pub checkpoint: Option<CheckpointConfig>,
    /// Span/metrics sink. Learners record batch-fetch, learning-task and
    /// local-sync spans; the task manager records global-sync, eval and
    /// checkpoint-write spans. `None` disables recording; elapsed-time
    /// measurement (throughput) always runs off the telemetry clock.
    pub telemetry: Option<Telemetry>,
}

impl CpuEngineConfig {
    /// A small default suitable for the synthetic tasks.
    pub fn new(learners: usize, batch_per_learner: usize) -> Self {
        CpuEngineConfig {
            learners,
            batch_per_learner,
            lr: 0.1,
            weight_decay: 1e-4,
            max_epochs: 10,
            target_accuracy: None,
            seed: 42,
            checkpoint: None,
            telemetry: None,
        }
    }
}

/// Result of a concurrent training run.
#[derive(Clone, Debug)]
pub struct CpuEngineReport {
    /// Test accuracy of the central average model after each epoch.
    pub epoch_accuracy: Vec<f64>,
    /// Epochs until the median-of-5 accuracy reached the target.
    pub epochs_to_target: Option<usize>,
    /// Global synchronisation rounds executed.
    pub iterations: u64,
    /// Wall-clock training throughput (samples/s) — *real* time, unlike
    /// the simulator's.
    pub throughput: f64,
    /// Final accuracy.
    pub final_accuracy: f64,
    /// Global iterations recorded in the checkpoint this run warm-started
    /// from (`None` when it started fresh).
    pub resumed_from: Option<u64>,
}

/// Shared state: the published central average model.
struct CentralModel {
    /// (version, z); version counts completed global syncs.
    state: Mutex<(u64, Arc<Vec<f32>>)>,
    ready: Condvar,
    /// Set when the task manager stops early; waiting learners then stop
    /// too. Written and read only while holding `state`'s lock, which
    /// orders it, so `Relaxed` suffices.
    aborted: AtomicBool,
}

impl CentralModel {
    fn new(init: Vec<f32>) -> Self {
        CentralModel {
            state: Mutex::new((0, Arc::new(init))),
            ready: Condvar::new(),
            aborted: AtomicBool::new(false),
        }
    }

    /// Blocks until version >= `version`, returning that snapshot, or
    /// `None` once the run is aborted.
    fn wait_for(&self, version: u64) -> Option<Arc<Vec<f32>>> {
        let mut guard = self.state.lock().expect("central-model lock poisoned");
        while guard.0 < version {
            if self.aborted.load(Ordering::Relaxed) {
                return None;
            }
            guard = self.ready.wait(guard).expect("central-model lock poisoned");
        }
        Some(Arc::clone(&guard.1))
    }

    /// Stops the run: every learner waiting for a version that will not
    /// come returns from [`CentralModel::wait_for`] with `None`.
    fn abort(&self) {
        let _guard = self.state.lock().expect("central-model lock poisoned");
        self.aborted.store(true, Ordering::Relaxed);
        self.ready.notify_all();
    }

    /// Publishes a new version, returning the displaced snapshot so the
    /// caller can recycle its storage once no learner holds it.
    fn publish(&self, version: u64, z: Vec<f32>) -> Arc<Vec<f32>> {
        let mut guard = self.state.lock().expect("central-model lock poisoned");
        debug_assert_eq!(guard.0 + 1, version, "versions advance one at a time");
        let old = std::mem::replace(&mut *guard, (version, Arc::new(z)));
        self.ready.notify_all();
        old.1
    }

    fn snapshot(&self) -> Arc<Vec<f32>> {
        Arc::clone(&self.state.lock().expect("central-model lock poisoned").1)
    }
}

/// A correction message from a learner to the task manager.
struct Contribution {
    iteration: u64,
    /// Learner lane the message came from (for buffer return).
    lane: usize,
    /// Sum contribution `c_j = α (w_j − z)` (computed pre-update).
    correction: Vec<f32>,
    /// Epoch of the batch that produced it (for the epoch clock).
    epoch: usize,
}

/// Runs SMA training with the concurrent runtime.
///
/// # Errors
/// [`CheckpointError::Io`] when the checkpoint directory cannot be
/// created or read, or a checkpoint cannot be written; the run stops at
/// the first failed write.
///
/// # Panics
/// Panics on configuration mismatches (empty model, zero learners, batch
/// larger than the training set).
pub fn train_concurrent(
    net: &Network,
    train_set: &Dataset,
    test_set: &Dataset,
    config: &CpuEngineConfig,
) -> Result<CpuEngineReport, CheckpointError> {
    assert!(config.learners > 0, "need at least one learner");
    assert!(config.max_epochs > 0, "need at least one epoch");
    let k = config.learners;
    let sma = SmaConfig::default();
    let alpha = sma.alpha.unwrap_or(1.0 / k as f32);
    let momentum = sma.momentum;
    let plen = net.param_len();
    let mut rng = crossbow_tensor::Rng::new(config.seed ^ 0xC0FFEE);
    let mut init = net.init_params(&mut rng);
    let mut init_prev = init.clone();

    // Warm-start from the newest valid checkpoint, when one fits.
    let store = config
        .checkpoint
        .as_ref()
        .map(CheckpointConfig::store)
        .transpose()?;
    let mut resumed_from = None;
    let mut prior_accuracy = Vec::new();
    let mut prior_samples = 0u64;
    if let Some(store) = &store {
        match store.load_latest() {
            Ok(Some(loaded)) if loaded.state.fits(config.seed, ALGO_NAME, plen) => {
                init = loaded.state.algo.center.clone();
                init_prev = loaded.state.algo.center_prev.clone();
                resumed_from = Some(loaded.state.iterations);
                prior_accuracy = loaded.state.epoch_accuracy.clone();
                prior_samples = loaded.state.samples_processed;
            }
            // No checkpoint, a foreign one, or all copies corrupt: fresh.
            Ok(_) | Err(CheckpointError::Corrupt(_)) => {}
            Err(e @ CheckpointError::Io(_)) => return Err(e),
        }
    }

    // Checkpoints are written off the manager lane; the writer is joined
    // before this function returns (dropped on unwind).
    let mut writer = store.as_ref().map(CheckpointStore::writer).transpose()?;
    let central = Arc::new(CentralModel::new(init.clone()));
    let (tx, rx) = std::sync::mpsc::channel::<Contribution>();
    // All timing — spans *and* the report's throughput — runs off the
    // telemetry clock, so a trace and the report can never disagree about
    // elapsed time.
    let telemetry = config.telemetry.clone().unwrap_or_else(Telemetry::disabled);
    let recorder = Arc::clone(&telemetry.recorder);
    let start_ns = recorder.now_ns();
    let batches_per_epoch_per_learner = {
        // Each learner owns a sampler over the whole set; an "epoch" of
        // the engine is one pass of every learner over its sampler, i.e.
        // k passes over the data in aggregate — matching the paper's
        // convention that epochs count data consumed across all learners.
        let per = train_set.len() / config.batch_per_learner;
        assert!(per > 0, "batch larger than the training set");
        per.div_ceil(k)
    };
    let iterations_total = (config.max_epochs * batches_per_epoch_per_learner) as u64;

    // Executable §4.5 plan: one pre-warmed arena per learner lane, built
    // before any thread starts so the hot path performs no fresh
    // allocations after warm-up. When lanes outnumber cores the GEMMs stay
    // serial; with idle cores each lane fans its large GEMMs out
    // (bit-identical to serial by the packed kernel's contract).
    let plan = ExecMemoryPlan::new(net, config.batch_per_learner, k);
    let threads_per_lane = std::thread::available_parallelism().map_or(1, |n| (n.get() / k).max(1));
    let mut lane_scratches: Vec<Scratch> = plan.build_scratches(net);
    for s in &mut lane_scratches {
        s.set_parallelism(threads_per_lane);
    }
    let arena_bytes_gauge = telemetry.metrics.gauge("memory.arena_bytes");
    let arena_reuse_gauge = telemetry.metrics.gauge("memory.arena_reuse");
    let arena_alloc_counter = telemetry.metrics.counter("memory.arena_alloc");
    let correction_alloc_counter = telemetry.metrics.counter("memory.correction_alloc");
    // Per-lane return channels: the manager hands every correction buffer
    // back to the lane that sent it, so each lane gets one buffer back per
    // buffer sent and the learner/manager loop is allocation-free in the
    // steady state.
    let (return_txs, mut return_rxs): (Vec<_>, Vec<_>) = (0..k)
        .map(|_| std::sync::mpsc::channel::<Vec<f32>>())
        .unzip();

    // Spawn learners.
    let report = std::thread::scope(|scope| {
        for (j, mut scratch) in lane_scratches.into_iter().enumerate() {
            let central = Arc::clone(&central);
            let tx = tx.clone();
            let config = config.clone();
            let recorder = Arc::clone(&recorder);
            let return_rx = return_rxs.remove(0);
            let arena_bytes_gauge = Arc::clone(&arena_bytes_gauge);
            let arena_reuse_gauge = Arc::clone(&arena_reuse_gauge);
            let arena_alloc_counter = Arc::clone(&arena_alloc_counter);
            let correction_alloc_counter = Arc::clone(&correction_alloc_counter);
            scope.spawn(move || {
                let mut shard = recorder.shard();
                let lane = j as u32;
                let mut sampler = BatchSampler::new(
                    train_set.len(),
                    config.batch_per_learner,
                    true,
                    config.seed.wrapping_add(j as u64 * 7919),
                );
                let mut replica = central.snapshot().as_ref().clone();
                let mut grad = vec![0.0f32; plen];
                let mut correction = vec![0.0f32; plen];
                for iteration in 0..iterations_total {
                    // Learning task: batch + gradient on the replica.
                    let t_fetch = shard.now_ns();
                    let (indices, _) = sampler.next_batch();
                    let (images, labels) = train_set
                        .gather(&indices)
                        .expect("sampler indices are in range");
                    shard.close(
                        SpanKind::BatchFetch,
                        "batch-fetch",
                        t_fetch,
                        HOST_DEVICE,
                        lane,
                        Some(iteration),
                    );
                    let epoch = (iteration / batches_per_epoch_per_learner as u64) as usize;
                    let t_learn = shard.now_ns();
                    net.loss_and_grad(&replica, &images, &labels, &mut grad, &mut scratch);
                    if config.weight_decay != 0.0 {
                        ops::axpy(config.weight_decay, &replica, &mut grad);
                    }
                    shard.close(
                        SpanKind::Learn,
                        "learn",
                        t_learn,
                        HOST_DEVICE,
                        lane,
                        Some(iteration),
                    );
                    // Local synchronisation task: needs the average model
                    // of the previous iteration (Figure 8, point d).
                    let t_local = shard.now_ns();
                    let Some(z) = central.wait_for(iteration) else {
                        break;
                    };
                    ops::scaled_diff(alpha, &replica, &z, &mut correction);
                    for ((w, &g), &c) in replica.iter_mut().zip(grad.iter()).zip(correction.iter())
                    {
                        *w -= config.lr * g + c;
                    }
                    shard.close(
                        SpanKind::LocalSync,
                        "local-sync",
                        t_local,
                        HOST_DEVICE,
                        lane,
                        Some(iteration),
                    );
                    // Hand the correction to the task manager; the next
                    // learning task starts immediately (point g). The
                    // buffer travels by move; a drained one comes back on
                    // the return channel, so the steady state allocates
                    // nothing.
                    tx.send(Contribution {
                        iteration,
                        lane: j,
                        correction: std::mem::take(&mut correction),
                        epoch,
                    })
                    .expect("manager alive");
                    correction = return_rx.try_recv().unwrap_or_else(|_| {
                        correction_alloc_counter.inc();
                        vec![0.0f32; plen]
                    });
                }
                let stats = scratch.workspace_stats();
                arena_bytes_gauge.set(stats.high_water as u64);
                arena_reuse_gauge.set(stats.reuse_hits);
                arena_alloc_counter.add(stats.fresh_allocs);
            });
        }
        drop(tx);

        // Task manager: aggregate corrections, run global sync, evaluate
        // at epoch boundaries.
        let test_images = test_set.images_tensor();
        let test_labels = test_set.labels().to_vec();
        let mut report = CpuEngineReport {
            epoch_accuracy: Vec::new(),
            epochs_to_target: None,
            iterations: 0,
            throughput: 0.0,
            final_accuracy: 0.0,
            resumed_from,
        };
        // The manager records on its own lane, after the learner lanes.
        let mut shard = recorder.shard();
        let manager_lane = k as u32;
        let mut z = init;
        let mut z_prev = init_prev;
        let mut median5 = WindowedMedian::new(5);
        // Per iteration: arrivals so far, the accumulator (the first
        // arrival's buffer), the latest epoch seen, and the first
        // arrival's lane, which gets the accumulator back.
        let mut pending: std::collections::BTreeMap<u64, (usize, Vec<f32>, usize, usize)> =
            std::collections::BTreeMap::new();
        let mut next_iteration = 0u64;
        let mut current_epoch = 0usize;
        let mut samples = 0u64;
        // Recycled storage for published snapshots: once every learner has
        // dropped an old version, its Vec comes back here.
        let mut snapshot_pool: Vec<Vec<f32>> = Vec::new();
        // The first failed checkpoint write stops the run.
        let mut failure = None;
        'manager: while let Ok(msg) = rx.recv() {
            let entry = pending
                .entry(msg.iteration)
                .or_insert_with(|| (0, Vec::new(), 0, msg.lane));
            entry.0 += 1;
            if entry.1.is_empty() {
                // First arrival: its buffer becomes the accumulator.
                entry.1 = msg.correction;
            } else {
                ops::add_assign(&mut entry.1, &msg.correction);
                let _ = return_txs[msg.lane].send(msg.correction);
            }
            entry.2 = entry.2.max(msg.epoch);
            // Apply ready iterations in order.
            while pending
                .get(&next_iteration)
                .is_some_and(|(count, _, _, _)| *count == k)
            {
                let (_, sum_c, epoch, first_lane) =
                    pending.remove(&next_iteration).expect("checked");
                // Global synchronisation: z += Σc + µ(z − z_prev).
                let t_sync = shard.now_ns();
                for ((zi, zpi), &ci) in z.iter_mut().zip(z_prev.iter_mut()).zip(&sum_c) {
                    let old = *zi;
                    *zi = old + ci + momentum * (old - *zpi);
                    *zpi = old;
                }
                // Return the drained accumulator to the lane it came from.
                let _ = return_txs[first_lane].send(sum_c);
                // Publish from recycled snapshot storage when available.
                let mut published = snapshot_pool.pop().unwrap_or_default();
                published.clear();
                published.extend_from_slice(&z);
                let old_snapshot = central.publish(next_iteration + 1, published);
                if let Ok(v) = Arc::try_unwrap(old_snapshot) {
                    snapshot_pool.push(v);
                }
                shard.close(
                    SpanKind::GlobalSync,
                    "global-sync",
                    t_sync,
                    HOST_DEVICE,
                    manager_lane,
                    Some(next_iteration),
                );
                report.iterations += 1;
                samples += (k * config.batch_per_learner) as u64;
                next_iteration += 1;
                let boundary = epoch > current_epoch || next_iteration == iterations_total;
                if boundary {
                    let t_eval = shard.now_ns();
                    let acc = net.evaluate(&z, &test_images, &test_labels, EVAL_BATCH);
                    shard.close(
                        SpanKind::Eval,
                        "eval",
                        t_eval,
                        HOST_DEVICE,
                        manager_lane,
                        Some(next_iteration - 1),
                    );
                    report.epoch_accuracy.push(acc);
                    median5.push(acc);
                    let finished = report.epoch_accuracy.len();
                    if let (Some(target), None) = (config.target_accuracy, report.epochs_to_target)
                    {
                        if median5.median().is_some_and(|m| m >= target) {
                            report.epochs_to_target = Some(finished);
                        }
                    }
                    current_epoch = epoch;
                    report.final_accuracy = acc;
                }
                if let (Some(writer), Some(ck)) = (writer.as_mut(), config.checkpoint.as_ref()) {
                    let periodic = ck.every > 0 && report.iterations.is_multiple_of(ck.every);
                    if boundary || periodic {
                        let mut epoch_accuracy = prior_accuracy.clone();
                        epoch_accuracy.extend_from_slice(&report.epoch_accuracy);
                        let state = TrainingState {
                            seed: config.seed,
                            algorithm: ALGO_NAME.to_string(),
                            iterations: resumed_from.unwrap_or(0) + report.iterations,
                            samples_processed: prior_samples + samples,
                            current_epoch: current_epoch as u64,
                            best_accuracy: report.final_accuracy,
                            epoch_accuracy,
                            cursor: DataCursor {
                                epoch: current_epoch as u64,
                                batch: 0,
                                groups: 0,
                            },
                            algo: AlgoState {
                                center: z.clone(),
                                center_prev: z_prev.clone(),
                                replicas: Vec::new(),
                                aux: Vec::new(),
                                iter: next_iteration,
                            },
                            ..TrainingState::default()
                        };
                        let t_ck = shard.now_ns();
                        if let Err(e) = writer.submit(state, boundary) {
                            central.abort();
                            failure = Some(e);
                            break 'manager;
                        }
                        shard.close(
                            SpanKind::CheckpointWrite,
                            "checkpoint-write",
                            t_ck,
                            HOST_DEVICE,
                            manager_lane,
                            Some(next_iteration - 1),
                        );
                    }
                }
            }
        }
        if let Some(e) = failure {
            return Err(e);
        }
        let elapsed_secs = (recorder.now_ns().saturating_sub(start_ns)) as f64 / 1e9;
        report.throughput = samples as f64 / elapsed_secs.max(1e-9);
        Ok(report)
    })?;
    if let Some(writer) = writer {
        writer.finish()?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbow_data::synth::gaussian_mixture;
    use crossbow_nn::zoo::mlp;

    fn setup() -> (Network, Dataset, Dataset) {
        let net = mlp(6, &[16], 4);
        let data = gaussian_mixture(4, 6, 480, 0.35, 7);
        let (train_set, test_set) = data.split_at(400).expect("split in range");
        (net, train_set, test_set)
    }

    #[test]
    fn concurrent_engine_learns() {
        let (net, train_set, test_set) = setup();
        let mut cfg = CpuEngineConfig::new(4, 8);
        cfg.max_epochs = 8;
        let report = train_concurrent(&net, &train_set, &test_set, &cfg).expect("run");
        assert!(
            report.final_accuracy > 0.85,
            "accuracy {}",
            report.final_accuracy
        );
        assert!(report.throughput > 0.0);
        assert_eq!(report.epoch_accuracy.len(), 8);
    }

    #[test]
    fn deterministic_despite_threads() {
        // Batches come from per-learner samplers and synchronisation is
        // ordered by iteration number, so thread interleaving cannot
        // change the numerics.
        let (net, train_set, test_set) = setup();
        let run = || {
            let mut cfg = CpuEngineConfig::new(3, 8);
            cfg.max_epochs = 4;
            train_concurrent(&net, &train_set, &test_set, &cfg)
                .expect("run")
                .epoch_accuracy
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn iterations_count_global_syncs() {
        let (net, train_set, test_set) = setup();
        let mut cfg = CpuEngineConfig::new(2, 10);
        cfg.max_epochs = 3;
        let report = train_concurrent(&net, &train_set, &test_set, &cfg).expect("run");
        // 400 samples / batch 10 = 40 batches/epoch, / 2 learners = 20
        // iterations per epoch, x3 epochs.
        assert_eq!(report.iterations, 60);
    }

    #[test]
    fn single_learner_works() {
        let (net, train_set, test_set) = setup();
        let mut cfg = CpuEngineConfig::new(1, 16);
        cfg.max_epochs = 6;
        let report = train_concurrent(&net, &train_set, &test_set, &cfg).expect("run");
        assert!(report.final_accuracy > 0.8, "{}", report.final_accuracy);
    }

    #[test]
    fn target_is_recorded() {
        let (net, train_set, test_set) = setup();
        let mut cfg = CpuEngineConfig::new(2, 8);
        cfg.max_epochs = 12;
        cfg.target_accuracy = Some(0.8);
        let report = train_concurrent(&net, &train_set, &test_set, &cfg).expect("run");
        let eta = report.epochs_to_target.expect("easy target");
        assert!(eta <= 12);
    }

    #[test]
    fn warm_start_resumes_from_the_checkpointed_average_model() {
        let (net, train_set, test_set) = setup();
        let dir =
            std::env::temp_dir().join(format!("crossbow-cpu-engine-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = CpuEngineConfig::new(3, 8);
        cfg.max_epochs = 5;
        cfg.checkpoint = Some(CheckpointConfig::new(&dir).every(0));
        let first = train_concurrent(&net, &train_set, &test_set, &cfg).expect("run");
        assert_eq!(first.resumed_from, None);
        assert!(first.final_accuracy > 0.8, "{}", first.final_accuracy);

        // The second run warm-starts from the final epoch-boundary
        // checkpoint and keeps learning rather than restarting from
        // random initialisation.
        let second = train_concurrent(&net, &train_set, &test_set, &cfg).expect("run");
        assert_eq!(second.resumed_from, Some(first.iterations));
        assert!(second.final_accuracy > 0.8, "{}", second.final_accuracy);
        assert!(
            second.epoch_accuracy[0] > 0.7,
            "first epoch after warm start should not regress to random: {}",
            second.epoch_accuracy[0]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_checkpoint_write_stops_the_run_with_a_typed_error() {
        let (net, train_set, test_set) = setup();
        let dir = std::env::temp_dir().join(format!(
            "crossbow-cpu-engine-writefail-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // A directory where the save of iteration 10 puts its temp file:
        // creating that file fails even for root.
        std::fs::create_dir_all(dir.join("ckpt-000000000010.tmp")).expect("mkdir");
        let mut cfg = CpuEngineConfig::new(2, 8);
        cfg.max_epochs = 4;
        cfg.checkpoint = Some(CheckpointConfig::new(&dir).every(5));
        let err = train_concurrent(&net, &train_set, &test_set, &cfg)
            .expect_err("the save at iteration 10 cannot be written");
        assert!(matches!(err, CheckpointError::Io(_)), "got {err:?}");
        // Nothing after the failed write was written.
        let store = CheckpointConfig::new(&dir).store().expect("store");
        let loaded = store.load_latest().expect("load").expect("present");
        assert_eq!(loaded.state.iterations, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn arena_allocations_are_flat_across_iterations() {
        // The §4.5 executable plan promises O(1) fresh arena allocations
        // per learner regardless of how long training runs: doubling the
        // epoch count must not change the allocation counter.
        let (net, train_set, test_set) = setup();
        let allocs_for = |epochs: usize| {
            let telemetry = Telemetry::disabled();
            let mut cfg = CpuEngineConfig::new(2, 8);
            cfg.max_epochs = epochs;
            cfg.telemetry = Some(telemetry.clone());
            train_concurrent(&net, &train_set, &test_set, &cfg).expect("run");
            telemetry.metrics.counter("memory.arena_alloc").get()
        };
        let short = allocs_for(2);
        let long = allocs_for(4);
        assert!(short > 0, "arena was used");
        assert_eq!(
            short, long,
            "fresh arena allocations must not scale with iteration count"
        );
    }

    #[test]
    fn correction_buffers_return_to_their_lane() {
        // Each lane gets back one correction buffer per buffer it sends,
        // the manager's accumulator included, so a lane allocates only
        // while its first buffer is still in flight. A buffer sent to the
        // wrong lane piles up there and the other lane allocates a fresh
        // one for every miss, growing with the run.
        let (net, train_set, test_set) = setup();
        for learners in [2, 3] {
            let telemetry = Telemetry::disabled();
            let mut cfg = CpuEngineConfig::new(learners, 8);
            cfg.max_epochs = 12;
            cfg.telemetry = Some(telemetry.clone());
            let report = train_concurrent(&net, &train_set, &test_set, &cfg).expect("run");
            assert!(report.iterations >= 200, "{}", report.iterations);
            let fresh = telemetry.metrics.counter("memory.correction_alloc").get();
            assert!(
                fresh <= 2 * learners as u64,
                "{fresh} fresh correction buffers over {} iterations on {learners} lanes",
                report.iterations
            );
        }
    }

    #[test]
    fn arena_telemetry_gauges_are_recorded() {
        let (net, train_set, test_set) = setup();
        let telemetry = Telemetry::disabled();
        let mut cfg = CpuEngineConfig::new(2, 8);
        cfg.max_epochs = 2;
        cfg.telemetry = Some(telemetry.clone());
        train_concurrent(&net, &train_set, &test_set, &cfg).expect("run");
        assert!(telemetry.metrics.gauge("memory.arena_bytes").max() > 0);
        assert!(telemetry.metrics.gauge("memory.arena_reuse").max() > 0);
    }

    #[test]
    fn matches_synchronous_sma_closely() {
        // The runtime computes the same algorithm as `sync::Sma` driven by
        // the synchronous trainer (modulo batch-order differences);
        // accuracies must land in the same region.
        let (net, train_set, test_set) = setup();
        let mut cfg = CpuEngineConfig::new(4, 8);
        cfg.max_epochs = 8;
        let concurrent = train_concurrent(&net, &train_set, &test_set, &cfg).expect("run");
        let mut algo = crossbow_sync::Sma::new(
            {
                let mut rng = crossbow_tensor::Rng::new(cfg.seed ^ 0xC0FFEE);
                net.init_params(&mut rng)
            },
            4,
            crossbow_sync::SmaConfig::default(),
        );
        let trainer_cfg = crossbow_sync::TrainerConfig {
            batch_per_learner: 8,
            max_epochs: 8,
            target_accuracy: None,
            schedule: crossbow_sync::LrSchedule::Constant { lr: cfg.lr },
            weight_decay: cfg.weight_decay,
            seed: cfg.seed,
            threads: 1,
            partition: None,
            guard: None,
            inject_nan_at: None,
            checkpoint: None,
            crash_after: None,
            publish: None,
            state_hook: None,
            telemetry: None,
        };
        let synchronous =
            crossbow_sync::train(&net, &train_set, &test_set, &mut algo, &trainer_cfg);
        let diff = (concurrent.final_accuracy - synchronous.final_accuracy).abs();
        assert!(
            diff < 0.15,
            "concurrent {} vs synchronous {}",
            concurrent.final_accuracy,
            synchronous.final_accuracy
        );
    }
}
