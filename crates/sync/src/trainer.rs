//! The multi-threaded training driver.
//!
//! Runs any [`SyncAlgorithm`] over a dataset: every iteration draws one
//! batch per learner from a shared epoch-aware sampler (Algorithm 1, lines
//! 5–7), computes the learners' gradients *in parallel*, performs the
//! algorithm's synchronisation step, and — at epoch boundaries —
//! evaluates the consensus model on the test set.
//!
//! Both fork-joins of an iteration run on the process's persistent
//! [`lanes`], the long-lived streams of the paper's task engine
//! (§4.2–4.3), so no iteration spawns a thread:
//! [`LocalGradients`] hands learners to the driver thread and the parked
//! lanes one claim at a time, and [`Sma`](crate::Sma)'s step splits its
//! fused pass into parameter ranges the same way. Neither the lane count
//! nor which lane runs what changes a bit of the result.
//!
//! This driver produces the statistical-efficiency half of every paper
//! experiment: accuracy-per-epoch curves and epochs-to-accuracy (ETA). The
//! hardware-efficiency half (time per epoch) comes from the GPU simulator
//! in the `crossbow` crate; time-to-accuracy is their product.

use crate::algorithm::{AlgoSnapshot, SyncAlgorithm};
use crate::schedule::LrSchedule;
use crossbow_checkpoint::{
    CheckpointError, CheckpointStore, CheckpointWriter, DataCursor, RetentionPolicy, TrainingState,
};
use crossbow_data::{BatchSampler, PartitionPlan, PartitionSampler, SampleSource};
use crossbow_nn::{Network, Scratch};
use crossbow_telemetry::{Shard, SpanKind, Telemetry, HOST_DEVICE};
use crossbow_tensor::stats::WindowedMedian;
use crossbow_tensor::{lanes, RngState, Tensor};
use std::path::PathBuf;
use std::sync::Arc;

/// Evaluation batch size of the epoch-end test pass (also used by the
/// concurrent runtime in the `crossbow` crate).
pub const EVAL_BATCH: usize = 256;

/// Divergence guard: refresh the in-memory rollback snapshot every this
/// many applied iterations.
const GUARD_CHECKPOINT_EVERY: u64 = 50;

/// Divergence guard: roll back when an epoch's test accuracy drops more
/// than this below the best epoch so far.
const GUARD_COLLAPSE_DROP: f64 = 0.25;

/// A consumer of freshly synchronised consensus models.
///
/// Installed via [`TrainerConfig::with_publish`], the hook is called with
/// `(applied iterations, consensus model z)` after every `every`-th
/// synchronisation step — the moment the paper's average model is
/// coherent and deployable. The callback runs on the training thread, so
/// it should hand the model off quickly (e.g. swap it into a snapshot
/// registry) rather than do heavy work inline.
#[derive(Clone)]
pub struct PublishHook {
    every: u64,
    hook: PublishFn,
}

/// The callback type a [`PublishHook`] wraps: `(iterations, z)`.
type PublishFn = Arc<dyn Fn(u64, &[f32]) + Send + Sync>;

impl PublishHook {
    /// A hook firing after every `every`-th applied iteration (`every`
    /// is clamped to at least 1).
    pub fn new(every: u64, hook: impl Fn(u64, &[f32]) + Send + Sync + 'static) -> Self {
        PublishHook {
            every: every.max(1),
            hook: Arc::new(hook),
        }
    }

    /// The publication interval in applied iterations.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Invokes the hook unconditionally.
    pub fn publish(&self, iteration: u64, z: &[f32]) {
        (self.hook)(iteration, z);
    }
}

impl std::fmt::Debug for PublishHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PublishHook")
            .field("every", &self.every)
            .finish_non_exhaustive()
    }
}

/// A consumer of the trainer's complete durable state.
///
/// Installed via [`TrainerConfig::with_state_hook`], the hook is handed
/// a freshly captured [`TrainingState`] (owned: the hook may keep it
/// without a copy) after every `every`-th
/// applied iteration — the same post-step snapshot a durable checkpoint
/// would persist, so a consumer that later resumes from it (through
/// [`train_from`] with [`Start::State`]) replays the remaining run
/// bit-identically. This is the replication tap: `crossbow-comms`
/// streams these states to warm-standby coordinators.
#[derive(Clone)]
pub struct StateHook {
    every: u64,
    hook: StateFn,
}

/// The callback type a [`StateHook`] wraps.
type StateFn = Arc<dyn Fn(TrainingState) + Send + Sync>;

impl StateHook {
    /// A hook firing after every `every`-th applied iteration (`every`
    /// is clamped to at least 1).
    pub fn new(every: u64, hook: impl Fn(TrainingState) + Send + Sync + 'static) -> Self {
        StateHook {
            every: every.max(1),
            hook: Arc::new(hook),
        }
    }

    /// The replication interval in applied iterations.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Invokes the hook unconditionally.
    pub fn publish(&self, state: TrainingState) {
        (self.hook)(state);
    }
}

impl std::fmt::Debug for StateHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateHook")
            .field("every", &self.every)
            .finish_non_exhaustive()
    }
}

/// Configuration of a training run.
#[derive(Clone, Debug)]
pub struct TrainerConfig {
    /// Batch size per learner (`b` in the paper).
    pub batch_per_learner: usize,
    /// Hard stop after this many epochs.
    pub max_epochs: usize,
    /// Stop early once the median test accuracy of the last 5 epochs
    /// reaches this value — the paper's `TTA(x)` rule (§5.1).
    pub target_accuracy: Option<f64>,
    /// Learning-rate schedule; changes trigger [`SyncAlgorithm::on_lr_change`].
    pub schedule: LrSchedule,
    /// Weight decay added to every learner gradient.
    pub weight_decay: f32,
    /// Seed for batch order.
    pub seed: u64,
    /// Gradient-computation threads (0 = one per learner, capped at the
    /// machine's parallelism).
    pub threads: usize,
    /// Divergence guard: periodic in-memory checkpoints plus rollback on
    /// non-finite loss or accuracy collapse (`None` = off).
    pub guard: Option<GuardConfig>,
    /// Test hook: treat the losses of this (0-based) iteration as
    /// non-finite, simulating numerical divergence deterministically.
    pub inject_nan_at: Option<u64>,
    /// Durable checkpointing to disk (`None` = off). Unlike the in-memory
    /// divergence guard, these checkpoints survive a host crash; resume
    /// with [`resume`] to continue bit-exactly.
    pub checkpoint: Option<CheckpointConfig>,
    /// Fault injection: simulate a host crash by abandoning the run after
    /// this many *applied* iterations. The partial curve is returned;
    /// durable checkpoints written so far stay on disk for [`resume`].
    pub crash_after: Option<u64>,
    /// Publication hook: periodically hands the consensus model `z` to a
    /// consumer (e.g. a serving snapshot registry) right after a
    /// synchronisation step (`None` = off).
    pub publish: Option<PublishHook>,
    /// State-replication hook: periodically hands the run's complete
    /// [`TrainingState`] to a consumer (e.g. a warm-standby coordinator)
    /// at the end of an applied iteration (`None` = off).
    pub state_hook: Option<StateHook>,
    /// Span/metrics sink: records learning, global-sync, eval,
    /// snapshot-publish and checkpoint-write spans per iteration, and
    /// wires checkpoint size/latency metrics into the store (`None` =
    /// off). Never affects the [`TrainingCurve`]: timing is observed,
    /// not fed back.
    pub telemetry: Option<Telemetry>,
    /// Shard-aware sampling: split the dataset into one contiguous range
    /// per learner and draw lockstep rounds with a [`PartitionSampler`]
    /// (`None` = the classic shared [`BatchSampler`]). The plan's group
    /// count must equal the algorithm's learner count; with faults off,
    /// a partitioned distributed run draws the exact index stream a
    /// partitioned single-process run draws.
    pub partition: Option<PartitionPlan>,
}

/// Settings of durable (on-disk) checkpointing.
///
/// The trainer captures its *complete* state — central and replica
/// models, optimiser momentum, divergence-guard snapshot, the data
/// cursor, every RNG stream, and the curve so far — so a resumed run
/// replays the identical sample/update sequence and produces a
/// bit-identical [`TrainingCurve`].
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory the checkpoints live in (created on first save).
    pub dir: PathBuf,
    /// Write a periodic checkpoint every this many iterations (0 turns
    /// periodic checkpoints off). Every epoch boundary is checkpointed
    /// too (after evaluation and any learning-rate restart), flagged so
    /// the retention policy can pin it.
    pub every: u64,
    /// Retention: keep the newest this many checkpoints (epoch-boundary
    /// checkpoints are always kept).
    pub keep_last: usize,
    /// Recorded into every checkpoint so a resuming session can skip the
    /// auto-tuner and recreate the same parallelism (0 = not recorded).
    pub learners_per_gpu: u32,
}

impl CheckpointConfig {
    /// Checkpoints into `dir` every 50 iterations plus at epoch
    /// boundaries, keeping the last 3.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            every: 50,
            keep_last: 3,
            learners_per_gpu: 0,
        }
    }

    /// Sets the periodic interval (builder style).
    pub fn every(mut self, every: u64) -> Self {
        self.every = every;
        self
    }

    /// Sets how many checkpoints to keep (builder style).
    pub fn keep_last(mut self, keep_last: usize) -> Self {
        self.keep_last = keep_last;
        self
    }

    /// Opens (creating if necessary) the checkpoint store this
    /// configuration points at.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] when the directory cannot be created or
    /// read.
    pub fn store(&self) -> Result<CheckpointStore, CheckpointError> {
        CheckpointStore::open(
            &self.dir,
            RetentionPolicy {
                keep_last: self.keep_last,
                keep_epoch_boundaries: true,
            },
        )
    }
}

/// Settings of the divergence guard.
///
/// The guard keeps an in-memory checkpoint of the algorithm's full
/// state (`z`, replicas, momentum — an [`AlgoSnapshot`]), refreshed every
/// 50 applied iterations. When an iteration produces a non-finite loss,
/// or an epoch's test accuracy drops more than 0.25 below the best epoch
/// so far, it restores the checkpoint and restarts the averaging process
/// through the §3.2 restart path ([`SyncAlgorithm::on_lr_change`]).
#[derive(Clone, Copy, Debug)]
pub struct GuardConfig {
    /// Stop rolling back (and train on unguarded) after this many
    /// rollbacks, so a fundamentally broken run still terminates.
    pub max_rollbacks: u32,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig { max_rollbacks: 4 }
    }
}

impl TrainerConfig {
    /// A sensible starting point for the synthetic tasks.
    pub fn new(batch_per_learner: usize, max_epochs: usize) -> Self {
        TrainerConfig {
            batch_per_learner,
            max_epochs,
            target_accuracy: None,
            schedule: LrSchedule::Constant { lr: 0.05 },
            weight_decay: 1e-4,
            seed: 42,
            threads: 0,
            guard: None,
            inject_nan_at: None,
            checkpoint: None,
            crash_after: None,
            publish: None,
            state_hook: None,
            telemetry: None,
            partition: None,
        }
    }

    /// Sets the target accuracy (builder style).
    pub fn with_target(mut self, target: f64) -> Self {
        self.target_accuracy = Some(target);
        self
    }

    /// Sets the schedule (builder style).
    pub fn with_schedule(mut self, schedule: LrSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables the divergence guard (builder style).
    pub fn with_guard(mut self, guard: GuardConfig) -> Self {
        self.guard = Some(guard);
        self
    }

    /// Enables durable checkpointing (builder style).
    pub fn with_checkpointing(mut self, checkpoint: CheckpointConfig) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// Injects a simulated host crash (builder style).
    pub fn with_crash_after(mut self, iterations: u64) -> Self {
        self.crash_after = Some(iterations);
        self
    }

    /// Installs a consensus-model publication hook (builder style).
    pub fn with_publish(mut self, publish: PublishHook) -> Self {
        self.publish = Some(publish);
        self
    }

    /// Installs a state-replication hook (builder style).
    pub fn with_state_hook(mut self, hook: StateHook) -> Self {
        self.state_hook = Some(hook);
        self
    }

    /// Attaches a telemetry sink (builder style).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Enables partitioned (shard-aware) sampling (builder style).
    pub fn with_partition(mut self, plan: PartitionPlan) -> Self {
        self.partition = Some(plan);
        self
    }

    /// Opens the checkpoint store of [`TrainerConfig::checkpoint`]
    /// (`None` when checkpointing is off): the store a run hands to
    /// [`train_from`].
    ///
    /// # Errors
    /// As [`CheckpointConfig::store`].
    pub fn store(&self) -> Result<Option<CheckpointStore>, CheckpointError> {
        self.checkpoint
            .as_ref()
            .map(CheckpointConfig::store)
            .transpose()
    }
}

/// The result of a training run.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainingCurve {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Test accuracy of the consensus model after each epoch.
    pub epoch_accuracy: Vec<f64>,
    /// Mean training loss of each epoch.
    pub epoch_loss: Vec<f32>,
    /// First epoch (1-based) at which the median test accuracy of the
    /// last 5 epochs reached the target.
    pub epochs_to_target: Option<usize>,
    /// Total synchronisation iterations executed.
    pub iterations: u64,
    /// Total training samples consumed.
    pub samples_processed: u64,
    /// Accuracy after the final epoch.
    pub final_accuracy: f64,
    /// Divergence-guard rollbacks performed during the run.
    pub rollbacks: u32,
}

impl TrainingCurve {
    /// Epochs run.
    pub fn epochs(&self) -> usize {
        self.epoch_accuracy.len()
    }

    /// Best accuracy along the curve.
    pub fn best_accuracy(&self) -> f64 {
        self.epoch_accuracy.iter().copied().fold(0.0f64, f64::max)
    }
}

/// How a [`GradientSource`] round ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundStatus {
    /// Every learner's gradient and loss were produced.
    Done,
    /// Cluster membership changed mid-round (a remote learner was evicted
    /// or rejoined): `algo` already reflects the new learner count, the
    /// drawn batches were discarded, and the caller must re-draw and
    /// retry the iteration. Local sources never return this.
    Resized,
}

/// One learner's batch for one round: the gathered payload plus the
/// global sample indices it came from. A local source consumes the
/// tensors; a remote source whose workers hold the dataset themselves
/// (shard-partitioned `dist-train`) ships just the indices and lets the
/// worker gather locally — same round, a fraction of the bytes.
#[derive(Clone, Debug)]
pub struct LearnerBatch {
    /// Batched images, `[b, …sample dims]`.
    pub images: Tensor,
    /// Per-sample class labels.
    pub labels: Vec<usize>,
    /// Global dataset indices the batch was gathered from.
    pub indices: Vec<usize>,
}

/// Where the per-learner gradients of one iteration come from.
///
/// Every iteration the training loop draws one batch per learner and asks
/// its source to fill one gradient and one loss per learner, each
/// evaluated against the matching replica of `algo` (`grads[j]` against
/// `algo.replica(j)` on `batches[j]`). [`LocalGradients`] computes them in
/// in-process threads — the classic single-node driver; `crossbow-comms`
/// provides a remote source whose learners are worker processes reached
/// over TCP. Because everything else (sampling, synchronisation,
/// evaluation, checkpointing) stays in this loop, a remote run with a
/// healthy cluster produces a bit-identical [`TrainingCurve`].
pub trait GradientSource {
    /// Fills `grads[j]`/`losses[j]` for every learner `j` in
    /// `0..algo.k()`. May instead resize the algorithm's learner group
    /// and return [`RoundStatus::Resized`]; gradients are then discarded.
    fn round(
        &mut self,
        algo: &mut dyn SyncAlgorithm,
        batches: &[LearnerBatch],
        grads: &mut [Vec<f32>],
        losses: &mut [f32],
    ) -> RoundStatus;
}

/// What a run's state (Algorithm 1's `z`, `z_prev` and replicas, the
/// data cursor, the curve so far) starts from. A state *fits* the run
/// when it has the run's seed, algorithm and parameter count, and RNG
/// streams to replay.
#[derive(Debug)]
pub enum Start {
    /// The algorithm as handed in.
    Fresh,
    /// The newest valid checkpoint in `config.checkpoint.dir` if it fits;
    /// otherwise (no checkpointing, no fit, every file corrupt) fresh.
    Latest,
    /// A state streamed to a warm standby through a [`StateHook`]. One
    /// that does not fit panics: a takeover that silently retrained from
    /// scratch would break the failover bit-identity invariant.
    State(Box<TrainingState>),
}

/// Trains `algo` on `train_set`, evaluating on `test_set` at epoch ends.
///
/// # Panics
/// Panics on configuration/dataset/network mismatches, and — on the
/// calling thread, with the [`CheckpointError`] in the message — when the
/// checkpoint directory cannot be opened or a durable checkpoint cannot
/// be written ([`resume`] returns that error instead).
pub fn train(
    net: &Network,
    train_set: &dyn SampleSource,
    test_set: &dyn SampleSource,
    algo: &mut dyn SyncAlgorithm,
    config: &TrainerConfig,
) -> TrainingCurve {
    let mut source = LocalGradients::new(net, algo.k(), config);
    train_with_source(net, train_set, test_set, algo, config, &mut source)
}

/// [`train`] with an explicit gradient source (e.g. a remote cluster).
///
/// # Panics
/// As [`train`].
pub fn train_with_source(
    net: &Network,
    train_set: &dyn SampleSource,
    test_set: &dyn SampleSource,
    algo: &mut dyn SyncAlgorithm,
    config: &TrainerConfig,
    source: &mut dyn GradientSource,
) -> TrainingCurve {
    let fresh = Start::Fresh;
    config
        .store()
        .and_then(|store| train_from(net, train_set, test_set, algo, config, fresh, store, source))
        .unwrap_or_else(|e| panic!("checkpoint write failed: {e}"))
}

/// [`train`] from [`Start::Latest`]: resumes from the newest checkpoint
/// that fits the run, or trains from scratch when none does.
///
/// # Errors
/// As [`train_from`].
///
/// # Panics
/// Panics on configuration/dataset/network mismatches.
pub fn resume(
    net: &Network,
    train_set: &dyn SampleSource,
    test_set: &dyn SampleSource,
    algo: &mut dyn SyncAlgorithm,
    config: &TrainerConfig,
) -> Result<TrainingCurve, CheckpointError> {
    let mut source = LocalGradients::new(net, algo.k(), config);
    let (start, store) = (Start::Latest, config.store()?);
    train_from(
        net,
        train_set,
        test_set,
        algo,
        config,
        start,
        store,
        &mut source,
    )
}

/// Trains `algo` from `start` with the gradients of `source`: the one
/// way to start a run. Checkpoints and streamed states are post-step
/// snapshots, so a continued run's curve and model are bit-identical to
/// an undisturbed run's.
///
/// `store` is [`TrainerConfig::store`], opened once by the caller, so
/// that a gradient source can share it (a coordinator admits rejoining
/// workers from the newest checkpoint).
///
/// # Errors
/// [`CheckpointError::Io`] when the checkpoint directory cannot be read,
/// or a durable checkpoint cannot be written; the run stops at the first
/// failed write.
///
/// # Panics
/// Panics on configuration/dataset/network mismatches (a `store` for
/// another directory than `config.checkpoint`'s included), and when a
/// [`Start::State`] does not fit the run.
#[allow(clippy::too_many_arguments)]
pub fn train_from(
    net: &Network,
    train_set: &dyn SampleSource,
    test_set: &dyn SampleSource,
    algo: &mut dyn SyncAlgorithm,
    config: &TrainerConfig,
    start: Start,
    store: Option<CheckpointStore>,
    source: &mut dyn GradientSource,
) -> Result<TrainingCurve, CheckpointError> {
    assert_eq!(
        store.as_ref().map(CheckpointStore::dir),
        config.checkpoint.as_ref().map(|c| c.dir.as_path()),
        "the store is not the configured checkpoint directory"
    );
    // The trainer also replays the state's RNG streams.
    let fits = |st: &TrainingState| {
        st.fits(config.seed, algo.name(), algo.param_len()) && !st.rngs.is_empty()
    };
    let restored = match start {
        Start::Fresh => None,
        Start::Latest => match store.as_ref().map(CheckpointStore::load_latest) {
            Some(Ok(Some(loaded))) => Some(loaded.state).filter(fits),
            // Every file failed validation: durable state exists but none
            // of it is trustworthy — start over rather than guess.
            None | Some(Ok(None) | Err(CheckpointError::Corrupt(_))) => None,
            Some(Err(e)) => return Err(e),
        },
        Start::State(st) => {
            assert!(
                fits(&st),
                "replicated state does not fit this run (seed {} vs {}, algorithm {:?} vs {:?}, \
                 params {} vs {})",
                st.seed,
                config.seed,
                st.algorithm,
                algo.name(),
                st.algo.center.len(),
                algo.param_len(),
            );
            Some(*st)
        }
    };
    let store = store.map(|s| match &config.telemetry {
        // Saves report their bytes and latency into the run's registry.
        Some(t) => s.with_metrics(Arc::clone(&t.metrics)),
        None => s,
    });
    run(
        net, train_set, test_set, algo, config, restored, store, source,
    )
}

/// Mutable loop state beyond the curve itself — bundled so the
/// checkpoint capture sees one coherent picture of the run.
struct Progress {
    /// Counts every loop pass (unlike `curve.iterations`, which counts
    /// applied steps), so the NaN-injection hook fires exactly once.
    attempt: u64,
    current_epoch: usize,
    epoch_loss_sum: f64,
    epoch_loss_count: u64,
    best_accuracy: f64,
    /// The divergence guard's in-memory rollback snapshot.
    guard: Option<AlgoSnapshot>,
}

/// The trainer's data-order engine: either the classic shared
/// [`BatchSampler`] (one global shuffle, `k` draws per iteration) or a
/// [`PartitionSampler`] (one contiguous range per learner, lockstep
/// rounds). Both expose the same `(epoch, position)` cursor and exact
/// seek, so checkpoint capture and restore are mode-agnostic.
enum Sampling {
    Single(BatchSampler),
    Parts(PartitionSampler),
}

impl Sampling {
    /// Draws one index list per learner.
    fn next_round(&mut self, k: usize) -> Vec<Vec<usize>> {
        match self {
            Sampling::Single(s) => (0..k).map(|_| s.next_batch().0).collect(),
            Sampling::Parts(p) => {
                let (round, _) = p.next_round();
                debug_assert_eq!(round.len(), k, "one partition group per learner");
                round
            }
        }
    }

    fn epoch(&self) -> usize {
        match self {
            Sampling::Single(s) => s.epoch(),
            Sampling::Parts(p) => p.epoch(),
        }
    }

    fn cursor(&self) -> (usize, usize) {
        match self {
            Sampling::Single(s) => s.cursor(),
            Sampling::Parts(p) => p.cursor(),
        }
    }

    fn seek(&mut self, epoch: usize, pos: usize) {
        match self {
            Sampling::Single(s) => s.seek(epoch, pos),
            Sampling::Parts(p) => p.seek(epoch, pos),
        }
    }

    /// RNG streams in checkpoint order: the single sampler stream, or one
    /// stream per partition group.
    fn rng_states(&self) -> Vec<RngState> {
        match self {
            Sampling::Single(s) => vec![s.rng_state()],
            Sampling::Parts(p) => p.rng_states(),
        }
    }

    /// Partition groups, 0 when unpartitioned — the value the checkpoint
    /// cursor records so a resume refuses a sampling-mode mismatch.
    fn groups(&self) -> u64 {
        match self {
            Sampling::Single(_) => 0,
            Sampling::Parts(p) => p.groups() as u64,
        }
    }
}

/// Captures the run's complete durable state: the algorithm's snapshot
/// moves in whole, only the guard's (kept for rollback) is copied.
/// Returns `None` when the algorithm does not support snapshots (nothing
/// useful to persist).
fn capture_state(
    algo: &dyn SyncAlgorithm,
    sampler: &Sampling,
    curve: &TrainingCurve,
    config: &TrainerConfig,
    progress: &Progress,
) -> Option<TrainingState> {
    let snap = algo.snapshot()?;
    let (epoch, batch) = sampler.cursor();
    Some(TrainingState {
        seed: config.seed,
        algorithm: algo.name().to_string(),
        iterations: curve.iterations,
        samples_processed: curve.samples_processed,
        attempt: progress.attempt,
        current_epoch: progress.current_epoch as u64,
        epoch_loss_sum: progress.epoch_loss_sum,
        epoch_loss_count: progress.epoch_loss_count,
        best_accuracy: progress.best_accuracy,
        rollbacks: curve.rollbacks,
        epochs_to_target: curve.epochs_to_target.map(|e| e as u64),
        epoch_accuracy: curve.epoch_accuracy.clone(),
        epoch_loss: curve.epoch_loss.clone(),
        cursor: DataCursor {
            epoch: epoch as u64,
            batch: batch as u64,
            groups: sampler.groups(),
        },
        algo: snap,
        guard: progress.guard.clone(),
        rngs: sampler.rng_states(),
        learners_per_gpu: config.checkpoint.as_ref().map_or(0, |c| c.learners_per_gpu),
    })
}

/// Hands a captured state to the background writer. The
/// `checkpoint-write` span brackets the hand-off, including any wait for
/// the writer to take the state already waiting: exactly what the
/// training loop stalls on.
fn hand_over(
    writer: &mut CheckpointWriter,
    state: TrainingState,
    epoch_boundary: bool,
    shard: &mut Shard,
) -> Result<(), CheckpointError> {
    let iterations = state.iterations;
    let t = shard.now_ns();
    writer.submit(state, epoch_boundary)?;
    shard.close(
        SpanKind::CheckpointWrite,
        "checkpoint-write",
        t,
        HOST_DEVICE,
        0,
        Some(iterations),
    );
    Ok(())
}

/// Joins the checkpoint writer before the run returns, so every state it
/// handed over is on disk (or its write error is the run's result).
fn finish(
    writer: Option<CheckpointWriter>,
    curve: TrainingCurve,
) -> Result<TrainingCurve, CheckpointError> {
    if let Some(writer) = writer {
        writer.finish()?;
    }
    Ok(curve)
}

// Out of line so the training loop compiles to the same code whichever
// entry point starts the run: with `train_from` its only caller, it would
// otherwise be inlined there.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn run(
    net: &Network,
    train_set: &dyn SampleSource,
    test_set: &dyn SampleSource,
    algo: &mut dyn SyncAlgorithm,
    config: &TrainerConfig,
    restored: Option<TrainingState>,
    store: Option<CheckpointStore>,
    source: &mut dyn GradientSource,
) -> Result<TrainingCurve, CheckpointError> {
    assert_eq!(
        algo.param_len(),
        net.param_len(),
        "algorithm replicas do not match the network"
    );
    assert_eq!(
        train_set.sample_len(),
        net.input_shape().len(),
        "dataset does not match the network input"
    );
    assert!(config.max_epochs > 0, "need at least one epoch");
    let mut sampler = match config.partition {
        Some(plan) => {
            assert_eq!(
                plan.n(),
                train_set.len(),
                "partition plan does not cover the dataset"
            );
            assert_eq!(plan.groups(), algo.k(), "one partition group per learner");
            Sampling::Parts(PartitionSampler::new(
                plan,
                config.batch_per_learner,
                config.seed,
            ))
        }
        None => Sampling::Single(BatchSampler::new(
            train_set.len(),
            config.batch_per_learner,
            true,
            config.seed,
        )),
    };
    let (test_images, test_labels) = test_set
        .eval_tensors()
        .expect("test set must gather cleanly");
    let recorder = config
        .telemetry
        .as_ref()
        .map_or_else(crossbow_telemetry::Recorder::disabled, |t| {
            Arc::clone(&t.recorder)
        });
    let mut shard = recorder.shard();

    let mut curve = TrainingCurve {
        algorithm: algo.name(),
        epoch_accuracy: Vec::new(),
        epoch_loss: Vec::new(),
        epochs_to_target: None,
        iterations: 0,
        samples_processed: 0,
        final_accuracy: 0.0,
        rollbacks: 0,
    };
    let mut median5 = WindowedMedian::new(5);
    let mut progress = Progress {
        attempt: 0,
        current_epoch: 0,
        epoch_loss_sum: 0.0,
        epoch_loss_count: 0,
        best_accuracy: 0.0,
        // Divergence guard: the initial model is the first checkpoint, so
        // a run that diverges immediately can still roll back somewhere.
        guard: config.guard.and_then(|_| algo.snapshot()),
    };

    if let Some(st) = restored {
        assert!(
            algo.restore(&st.algo),
            "checkpoint does not fit this algorithm"
        );
        assert_eq!(
            st.cursor.groups,
            sampler.groups(),
            "checkpoint partitioning does not match this run: the index streams of \
             partitioned and unpartitioned sampling differ"
        );
        sampler.seek(st.cursor.epoch as usize, st.cursor.batch as usize);
        // The sampler replays its RNG streams from the seed; every
        // replayed stream must land exactly where the interrupted run
        // left it.
        assert_eq!(
            sampler.rng_states(),
            st.rngs,
            "checkpoint data cursor is inconsistent with the sampler stream"
        );
        curve.iterations = st.iterations;
        curve.samples_processed = st.samples_processed;
        curve.epoch_accuracy.clone_from(&st.epoch_accuracy);
        curve.epoch_loss.clone_from(&st.epoch_loss);
        curve.epochs_to_target = st.epochs_to_target.map(|e| e as usize);
        curve.rollbacks = st.rollbacks;
        let window = curve.epoch_accuracy.len().saturating_sub(5);
        for &acc in &curve.epoch_accuracy[window..] {
            median5.push(acc);
        }
        progress.attempt = st.attempt;
        progress.current_epoch = st.current_epoch as usize;
        progress.epoch_loss_sum = st.epoch_loss_sum;
        progress.epoch_loss_count = st.epoch_loss_count;
        progress.best_accuracy = st.best_accuracy;
        progress.guard = st
            .guard
            .or_else(|| config.guard.and_then(|_| algo.snapshot()));
        // A checkpoint written at completion resumes to a finished run.
        let done_target = config.target_accuracy.is_some() && curve.epochs_to_target.is_some();
        if curve.epoch_accuracy.len() >= config.max_epochs || done_target {
            curve.final_accuracy = curve.epoch_accuracy.last().copied().unwrap_or(0.0);
            return Ok(curve);
        }
    }

    // Durable checkpoints are written off this thread; dropping the
    // writer (on `?` or a panic) joins it like `finish` does.
    let mut writer = store.as_ref().map(CheckpointStore::writer).transpose()?;

    // Pre-build the per-learner gradient vectors once; the loop below then
    // runs allocation-flat (§4.5) as long as the learner count is stable
    // (it only changes when a remote source resizes the cluster).
    let plen = algo.param_len();
    let mut grads: Vec<Vec<f32>> = Vec::new();
    let mut losses: Vec<f32> = Vec::new();

    loop {
        let k = algo.k();
        if grads.len() != k {
            grads.resize_with(k, || vec![0.0; plen]);
            losses.resize(k, 0.0);
        }
        // Draw one batch per learner.
        let t_fetch = shard.now_ns();
        let batches: Vec<LearnerBatch> = sampler
            .next_round(k)
            .into_iter()
            .map(|indices| {
                let (images, labels) = train_set
                    .gather(&indices)
                    .expect("sampler indices are in range by construction");
                LearnerBatch {
                    images,
                    labels,
                    indices,
                }
            })
            .collect();
        shard.close(
            SpanKind::BatchFetch,
            "batch-fetch",
            t_fetch,
            HOST_DEVICE,
            0,
            Some(curve.iterations),
        );
        let lr = config.schedule.lr_at(progress.current_epoch);
        let t_learn = shard.now_ns();
        let status = source.round(algo, &batches, &mut grads, &mut losses);
        shard.close(
            SpanKind::Learn,
            "learn",
            t_learn,
            HOST_DEVICE,
            0,
            Some(curve.iterations),
        );
        if status == RoundStatus::Resized {
            // Membership changed under us: the algorithm already holds the
            // new learner group; redo the iteration at the new size. Under
            // partitioned sampling the group count just changed too, so
            // rebuild the partition over the new learner count, restarting
            // the current shuffle epoch — faults make the index stream
            // diverge from an undisturbed run by design (the bit-identity
            // claim holds with faults off).
            if let Sampling::Parts(p) = &mut sampler {
                let (epoch, _) = p.cursor();
                let mut rebuilt = PartitionSampler::new(
                    PartitionPlan::even(train_set.len(), algo.k()),
                    config.batch_per_learner,
                    config.seed,
                );
                rebuilt.seek(epoch, 0);
                *p = rebuilt;
            }
            continue;
        }
        let diverged =
            config.inject_nan_at == Some(progress.attempt) || losses.iter().any(|l| !l.is_finite());
        progress.attempt += 1;
        if diverged {
            if let Some(g) = config.guard {
                if curve.rollbacks < g.max_rollbacks {
                    // Roll back to the checkpoint and restart averaging
                    // from its `z` via the §3.2 restart path. The poisoned
                    // gradients are discarded, not applied.
                    if let Some(snap) = &progress.guard {
                        if algo.restore(snap) {
                            algo.on_lr_change();
                        }
                    }
                    curve.rollbacks += 1;
                    // The restored model scores lower than the pre-fault
                    // best; rebuild the collapse baseline from here so the
                    // rollback itself is not mistaken for a collapse.
                    progress.best_accuracy = 0.0;
                    continue;
                }
            }
            // Unguarded (or out of rollbacks): fall through, preserving
            // the historic fail-loudly behaviour.
        }
        for &l in &losses {
            progress.epoch_loss_sum += f64::from(l);
            progress.epoch_loss_count += 1;
        }
        let t_sync = shard.now_ns();
        algo.step(&grads, lr);
        shard.close(
            SpanKind::GlobalSync,
            "global-sync",
            t_sync,
            HOST_DEVICE,
            0,
            Some(curve.iterations),
        );
        curve.iterations += 1;
        curve.samples_processed += (k * config.batch_per_learner) as u64;
        if let Some(hook) = &config.publish {
            // Right after the synchronisation step the consensus model is
            // coherent — this is the paper's deployable average model `z`.
            if curve.iterations.is_multiple_of(hook.every()) {
                let t_pub = shard.now_ns();
                hook.publish(curve.iterations, algo.consensus());
                shard.close(
                    SpanKind::SnapshotPublish,
                    "snapshot-publish",
                    t_pub,
                    HOST_DEVICE,
                    0,
                    Some(curve.iterations),
                );
            }
        }
        if config.guard.is_some() && curve.iterations.is_multiple_of(GUARD_CHECKPOINT_EVERY) {
            if let Some(snap) = algo.snapshot() {
                progress.guard = Some(snap);
            }
        }

        // `Some(epoch_boundary)` when a durable checkpoint falls due.
        let mut save = None;
        if sampler.epoch() > progress.current_epoch {
            // Epoch boundary: evaluate, record, handle schedule changes.
            let t_eval = shard.now_ns();
            let acc = net.evaluate(algo.consensus(), &test_images, &test_labels, EVAL_BATCH);
            shard.close(
                SpanKind::Eval,
                "eval",
                t_eval,
                HOST_DEVICE,
                0,
                Some(curve.iterations),
            );
            curve.epoch_accuracy.push(acc);
            curve.epoch_loss.push(if progress.epoch_loss_count > 0 {
                (progress.epoch_loss_sum / progress.epoch_loss_count as f64) as f32
            } else {
                0.0
            });
            progress.epoch_loss_sum = 0.0;
            progress.epoch_loss_count = 0;
            if let Some(g) = config.guard {
                // Accuracy collapse (e.g. silent numeric corruption):
                // restore the checkpoint and restart averaging.
                if acc + GUARD_COLLAPSE_DROP < progress.best_accuracy
                    && curve.rollbacks < g.max_rollbacks
                {
                    if let Some(snap) = &progress.guard {
                        if algo.restore(snap) {
                            algo.on_lr_change();
                        }
                    }
                    curve.rollbacks += 1;
                    progress.best_accuracy = 0.0;
                }
            }
            progress.best_accuracy = progress.best_accuracy.max(acc);
            median5.push(acc);
            let finished_epoch = curve.epoch_accuracy.len();
            if let Some(target) = config.target_accuracy {
                if curve.epochs_to_target.is_none() {
                    if let Some(m) = median5.median() {
                        if m >= target {
                            curve.epochs_to_target = Some(finished_epoch);
                        }
                    }
                }
            }
            let done_target = config.target_accuracy.is_some() && curve.epochs_to_target.is_some();
            if finished_epoch >= config.max_epochs || done_target {
                curve.final_accuracy = acc;
                // A final checkpoint: resuming a finished run is a no-op
                // instead of silently training past its stopping point.
                if let Some(w) = writer.as_mut() {
                    if let Some(state) = capture_state(algo, &sampler, &curve, config, &progress) {
                        hand_over(w, state, true, &mut shard)?;
                    }
                }
                return finish(writer, curve);
            }
            progress.current_epoch = sampler.epoch();
            if config.schedule.changes_at(progress.current_epoch) {
                algo.on_lr_change();
            }
            // Saved *after* the learning-rate restart so the restored
            // state reflects the post-restart algorithm, not a hybrid.
            if config.checkpoint.is_some() {
                save = Some(true);
            }
        }
        if let (None, Some(ckpt)) = (save, &config.checkpoint) {
            if ckpt.every > 0 && curve.iterations.is_multiple_of(ckpt.every) {
                save = Some(false);
            }
        }
        // End-of-iteration replication tap: the captured state is the
        // same post-step snapshot a durable checkpoint persists (cursor
        // points at the next batch), so a standby resuming from it
        // replays the rest of the run bit-identically.
        let hook = config
            .state_hook
            .as_ref()
            .filter(|hook| curve.iterations.is_multiple_of(hook.every()));
        let save = writer.as_mut().zip(save);
        if save.is_some() || hook.is_some() {
            // One capture per iteration: when both fall due, the hook
            // gets a copy of the state the writer gets.
            if let Some(state) = capture_state(algo, &sampler, &curve, config, &progress) {
                match (save, hook) {
                    (Some((w, boundary)), hook) => {
                        let copy = hook.map(|hook| (hook, state.clone()));
                        hand_over(w, state, boundary, &mut shard)?;
                        if let Some((hook, state)) = copy {
                            hook.publish(state);
                        }
                    }
                    (None, Some(hook)) => hook.publish(state),
                    (None, None) => {}
                }
            }
        }
        if config.crash_after == Some(curve.iterations) {
            // Simulated host crash: abandon the run mid-flight. Durable
            // checkpoints survive on disk; the returned curve is partial.
            curve.final_accuracy = curve.epoch_accuracy.last().copied().unwrap_or(0.0);
            return finish(writer, curve);
        }
    }
}

/// The in-process [`GradientSource`]: one plan-pre-warmed [`Scratch`] per
/// gradient thread, built once before the training loop so steady-state
/// iterations reuse every buffer instead of reallocating them (§4.5
/// executable memory plan). A round runs on the driver thread and the
/// process's parked lanes, at most one participant per scratch.
pub struct LocalGradients<'a> {
    net: &'a Network,
    weight_decay: f32,
    scratches: Vec<Scratch>,
}

impl<'a> LocalGradients<'a> {
    /// A local source computing `k` learners' gradients on `net` with the
    /// thread/batch settings of `config`.
    pub fn new(net: &'a Network, k: usize, config: &TrainerConfig) -> Self {
        let hw = std::thread::available_parallelism().map_or(4, |p| p.get());
        let threads = if config.threads == 0 {
            k.min(hw)
        } else {
            config.threads.min(k)
        }
        .max(1);
        let plan = net.plan(config.batch_per_learner.max(1));
        // Cores left idle by the learners serve packed parallel GEMMs;
        // `gemm_parallel` is bit-identical to the serial kernel, so this
        // does not perturb training curves. (Inside a round that already
        // holds the lanes, a nested GEMM runs inline.)
        let gemm_threads = (hw / threads).max(1);
        let scratches = (0..threads)
            .map(|_| {
                let mut s = net.scratch_with_plan(&plan);
                s.set_parallelism(gemm_threads);
                s
            })
            .collect();
        LocalGradients {
            net,
            weight_decay: config.weight_decay,
            scratches,
        }
    }
}

impl GradientSource for LocalGradients<'_> {
    /// Computes one gradient per learner, each learner claimed by the
    /// driver thread or a parked lane. Gradients land in `grads` (fully
    /// overwritten), per-batch training losses in `losses`.
    fn round(
        &mut self,
        algo: &mut dyn SyncAlgorithm,
        batches: &[LearnerBatch],
        grads: &mut [Vec<f32>],
        losses: &mut [f32],
    ) -> RoundStatus {
        let k = batches.len();
        debug_assert_eq!(k, grads.len(), "one gradient per learner");
        let net = self.net;
        let replicas: Vec<&[f32]> = (0..k).map(|j| algo.replica(j)).collect();
        let wd = self.weight_decay;
        let mut learners: Vec<(usize, &mut Vec<f32>, &mut f32)> = grads
            .iter_mut()
            .zip(losses.iter_mut())
            .enumerate()
            .map(|(j, (g, l))| (j, g, l))
            .collect();
        // One learner per claim; at most one participant per scratch.
        lanes::for_each_with(
            &mut self.scratches,
            &mut learners,
            |scratch, (j, grad, loss)| {
                let (batch, replica) = (&batches[*j], replicas[*j]);
                let (l, _) =
                    net.loss_and_grad(replica, &batch.images, &batch.labels, grad, scratch);
                **loss = l;
                if wd != 0.0 {
                    crossbow_tensor::ops::axpy(wd, replica, grad);
                }
            },
        );
        RoundStatus::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::SgdConfig;
    use crate::sma::{Sma, SmaConfig};
    use crate::ssgd::SSgd;
    use crossbow_data::synth::gaussian_mixture;
    use crossbow_nn::zoo::mlp;
    use crossbow_tensor::Rng;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn setup() -> (Network, crossbow_data::Dataset, crossbow_data::Dataset) {
        let net = mlp(6, &[16], 4);
        let data = gaussian_mixture(4, 6, 480, 0.35, 7);
        let (train_set, test_set) = data.split_at(400).expect("split in range");
        (net, train_set, test_set)
    }

    #[test]
    fn ssgd_learns_the_mixture() {
        let (net, train_set, test_set) = setup();
        let init = net.init_params(&mut Rng::new(1));
        let mut algo = SSgd::new(init, 2, SgdConfig::paper_default());
        let curve = train(
            &net,
            &train_set,
            &test_set,
            &mut algo,
            &TrainerConfig::new(8, 12),
        );
        assert_eq!(curve.epochs(), 12);
        assert!(
            curve.final_accuracy > 0.9,
            "accuracy {}",
            curve.final_accuracy
        );
        assert!(curve.iterations > 0);
    }

    #[test]
    fn sma_learns_the_mixture() {
        let (net, train_set, test_set) = setup();
        let init = net.init_params(&mut Rng::new(1));
        let mut algo = Sma::new(init, 4, SmaConfig::default());
        let curve = train(
            &net,
            &train_set,
            &test_set,
            &mut algo,
            &TrainerConfig::new(8, 12),
        );
        assert!(
            curve.final_accuracy > 0.9,
            "accuracy {}",
            curve.final_accuracy
        );
        assert_eq!(curve.algorithm, "sma");
    }

    #[test]
    fn target_stops_early_with_median_rule() {
        let (net, train_set, test_set) = setup();
        let init = net.init_params(&mut Rng::new(1));
        let mut algo = SSgd::new(init, 2, SgdConfig::paper_default());
        let curve = train(
            &net,
            &train_set,
            &test_set,
            &mut algo,
            &TrainerConfig::new(8, 60).with_target(0.85),
        );
        let eta = curve.epochs_to_target.expect("should reach 85%");
        // Median-of-5 needs at least 5 epochs... but the window fills
        // gradually; the rule fires no earlier than epoch 1.
        assert!(eta >= 1 && eta <= curve.epochs());
        assert!(curve.epochs() < 60, "stopped early");
    }

    #[test]
    fn deterministic_given_seed_single_thread() {
        let (net, train_set, test_set) = setup();
        let run = || {
            let init = net.init_params(&mut Rng::new(3));
            let mut algo = Sma::new(init, 2, SmaConfig::default());
            let mut cfg = TrainerConfig::new(8, 3).with_seed(11);
            cfg.threads = 1;
            train(&net, &train_set, &test_set, &mut algo, &cfg)
        };
        let a = run();
        let b = run();
        assert_eq!(a.epoch_accuracy, b.epoch_accuracy);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn parallel_threads_match_single_thread() {
        // Gradient computation is read-only on replicas; threading must
        // not change the numbers.
        let (net, train_set, test_set) = setup();
        let run = |threads: usize| {
            let init = net.init_params(&mut Rng::new(3));
            let mut algo = Sma::new(init, 4, SmaConfig::default());
            let mut cfg = TrainerConfig::new(8, 2).with_seed(11);
            cfg.threads = threads;
            train(&net, &train_set, &test_set, &mut algo, &cfg)
        };
        let single = run(1);
        let multi = run(4);
        assert_eq!(single.epoch_accuracy, multi.epoch_accuracy);
    }

    #[test]
    fn samples_processed_counts_all_learners() {
        let (net, train_set, test_set) = setup();
        let init = net.init_params(&mut Rng::new(1));
        let mut algo = Sma::new(init, 4, SmaConfig::default());
        let curve = train(
            &net,
            &train_set,
            &test_set,
            &mut algo,
            &TrainerConfig::new(8, 2),
        );
        assert_eq!(curve.samples_processed, curve.iterations * 4 * 8);
    }

    #[test]
    fn injected_nan_rolls_back_and_still_converges() {
        let (net, train_set, test_set) = setup();
        let init = net.init_params(&mut Rng::new(1));
        let mut algo = Sma::new(init, 4, SmaConfig::default());
        let cfg = TrainerConfig::new(8, 12).with_guard(GuardConfig::default());
        let cfg = TrainerConfig {
            inject_nan_at: Some(30),
            ..cfg
        };
        let curve = train(&net, &train_set, &test_set, &mut algo, &cfg);
        assert_eq!(curve.rollbacks, 1, "one rollback for one injection");
        assert!(
            curve.final_accuracy > 0.9,
            "recovered run reaches accuracy, got {}",
            curve.final_accuracy
        );
    }

    #[test]
    fn unguarded_nan_passes_through() {
        // Without the guard the historic behaviour is preserved: the
        // poisoned loss is recorded, nothing rolls back.
        let (net, train_set, test_set) = setup();
        let init = net.init_params(&mut Rng::new(1));
        let mut algo = Sma::new(init, 2, SmaConfig::default());
        let cfg = TrainerConfig {
            inject_nan_at: Some(3),
            ..TrainerConfig::new(8, 2)
        };
        let curve = train(&net, &train_set, &test_set, &mut algo, &cfg);
        assert_eq!(curve.rollbacks, 0);
    }

    #[test]
    fn rollbacks_are_capped() {
        let (net, train_set, test_set) = setup();
        let init = net.init_params(&mut Rng::new(1));
        let mut algo = Sma::new(init, 2, SmaConfig::default());
        // Every iteration "diverges": losses can never be non-finite here,
        // so force it by injecting at attempt 0 and relying on the rolled
        // back state replaying attempt numbers... instead, cap at 0 and
        // check the guard stands down immediately.
        let guard = GuardConfig { max_rollbacks: 0 };
        let cfg = TrainerConfig {
            inject_nan_at: Some(1),
            ..TrainerConfig::new(8, 2).with_guard(guard)
        };
        let curve = train(&net, &train_set, &test_set, &mut algo, &cfg);
        assert_eq!(curve.rollbacks, 0, "cap honoured");
    }

    #[test]
    fn crash_and_resume_reproduces_the_curve_bit_exactly() {
        let (net, train_set, test_set) = setup();
        let dir =
            std::env::temp_dir().join(format!("crossbow-trainer-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let checkpointed = || {
            TrainerConfig::new(8, 6)
                .with_seed(11)
                .with_checkpointing(CheckpointConfig::new(&dir).every(10))
        };
        let fresh_algo = || {
            let init = net.init_params(&mut Rng::new(3));
            Sma::new(init, 2, SmaConfig::default())
        };
        let mut algo = fresh_algo();
        let uninterrupted = train(
            &net,
            &train_set,
            &test_set,
            &mut algo,
            &TrainerConfig::new(8, 6).with_seed(11),
        );
        let mut algo = fresh_algo();
        let crashed = train(
            &net,
            &train_set,
            &test_set,
            &mut algo,
            &checkpointed().with_crash_after(107),
        );
        assert!(crashed.epochs() < 6, "the crash cut the run short");
        let mut algo = fresh_algo();
        let resumed = resume(&net, &train_set, &test_set, &mut algo, &checkpointed())
            .expect("checkpoint directory readable");
        assert_eq!(resumed, uninterrupted, "resume must be bit-exact");
        // Resuming the finished run changes nothing.
        let mut algo = fresh_algo();
        let again = resume(&net, &train_set, &test_set, &mut algo, &checkpointed())
            .expect("checkpoint directory readable");
        assert_eq!(again, uninterrupted);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_surfaces_an_unreadable_checkpoint_directory() {
        // A plain file where the directory should be: store creation is
        // an io error, and resume must return it instead of panicking.
        let (net, train_set, test_set) = setup();
        let path =
            std::env::temp_dir().join(format!("crossbow-trainer-notadir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::write(&path, b"occupied").expect("tmp write");
        let init = net.init_params(&mut Rng::new(1));
        let mut algo = Sma::new(init, 2, SmaConfig::default());
        let cfg = TrainerConfig::new(8, 1).with_checkpointing(CheckpointConfig::new(&path));
        let err = resume(&net, &train_set, &test_set, &mut algo, &cfg)
            .expect_err("a file is not a checkpoint directory");
        assert!(matches!(err, CheckpointError::Io(_)), "got {err:?}");
        let _ = std::fs::remove_file(&path);
    }

    /// A scratch path unique to this process and `tag`, emptied.
    fn scratch_path(tag: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("crossbow-trainer-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Checkpoints into `dir` after every iteration, keeping every file.
    fn keep_all(dir: &std::path::Path) -> CheckpointConfig {
        CheckpointConfig::new(dir).every(1).keep_last(usize::MAX)
    }

    /// A publish hook that, after iteration `at`, replaces the checkpoint
    /// directory with a plain file (which fails `File::create` even for
    /// root), and logs every iteration it sees.
    fn occupy_dir_after(dir: &std::path::Path, at: u64, seen: Arc<AtomicU64>) -> PublishHook {
        let dir = dir.to_path_buf();
        PublishHook::new(1, move |iteration, _| {
            seen.store(iteration, Ordering::SeqCst);
            // The writer may be mid-save inside the directory: retry
            // until the path is a plain file.
            while iteration == at && !dir.is_file() {
                let _ = std::fs::remove_dir_all(&dir);
                let _ = std::fs::write(&dir, b"occupied");
            }
        })
    }

    #[test]
    fn resume_surfaces_a_failed_checkpoint_write() {
        let (net, train_set, test_set) = setup();
        let dir = scratch_path("writefail");
        let seen = Arc::new(AtomicU64::new(0));
        let mut algo = Sma::new(net.init_params(&mut Rng::new(1)), 2, SmaConfig::default());
        let cfg = TrainerConfig::new(8, 4)
            .with_checkpointing(keep_all(&dir))
            .with_publish(occupy_dir_after(&dir, 10, Arc::clone(&seen)));
        let err = resume(&net, &train_set, &test_set, &mut algo, &cfg)
            .expect_err("a file is not a checkpoint directory");
        assert!(matches!(err, CheckpointError::Io(_)), "got {err:?}");
        // One state is being written and one waits: the third hand-off
        // after the failure at the latest reports it.
        let last = seen.load(Ordering::SeqCst);
        assert!(
            (10..=12).contains(&last),
            "the run went on to iteration {last}"
        );
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    #[should_panic(expected = "checkpoint write failed: checkpoint I/O error")]
    fn train_panics_on_the_callers_thread_when_a_checkpoint_write_fails() {
        let (net, train_set, test_set) = setup();
        let dir = scratch_path("writefail-panic");
        let seen = Arc::new(AtomicU64::new(0));
        let mut algo = Sma::new(net.init_params(&mut Rng::new(1)), 2, SmaConfig::default());
        let cfg = TrainerConfig::new(8, 4)
            .with_checkpointing(keep_all(&dir))
            .with_publish(occupy_dir_after(&dir, 10, seen));
        let _ = train(&net, &train_set, &test_set, &mut algo, &cfg);
    }

    /// `(iterations, epoch_boundary)` of every checkpoint in `dir`, in
    /// store order.
    fn on_disk(dir: &std::path::Path) -> Vec<(u64, bool)> {
        let store = keep_all(dir).store().expect("store");
        let paths = store.list().expect("list");
        paths
            .iter()
            .map(|p| {
                let (state, boundary) = crossbow_checkpoint::read_checkpoint(p).expect("valid");
                (state.iterations, boundary)
            })
            .collect()
    }

    #[test]
    fn every_due_save_is_on_disk_when_the_run_returns() {
        let (net, train_set, test_set) = setup();
        let dir = scratch_path("every-save");
        let mut algo = Sma::new(net.init_params(&mut Rng::new(1)), 2, SmaConfig::default());
        let cfg = TrainerConfig::new(8, 2).with_checkpointing(keep_all(&dir));
        let curve = train(&net, &train_set, &test_set, &mut algo, &cfg);
        let saved = on_disk(&dir);
        let iterations: Vec<u64> = saved.iter().map(|&(i, _)| i).collect();
        assert_eq!(iterations, (1..=curve.iterations).collect::<Vec<_>>());
        let boundaries = saved.iter().filter(|&&(_, b)| b).count();
        assert_eq!(
            boundaries,
            curve.epochs(),
            "one epoch-boundary save per epoch"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A local source that panics on its `at`-th round.
    struct PanicsAt<'a> {
        inner: LocalGradients<'a>,
        rounds: u64,
        at: u64,
    }

    impl GradientSource for PanicsAt<'_> {
        fn round(
            &mut self,
            algo: &mut dyn SyncAlgorithm,
            batches: &[LearnerBatch],
            grads: &mut [Vec<f32>],
            losses: &mut [f32],
        ) -> RoundStatus {
            self.rounds += 1;
            assert!(
                self.rounds < self.at,
                "gradient source lost at round {}",
                self.rounds
            );
            self.inner.round(algo, batches, grads, losses)
        }
    }

    #[test]
    fn a_panicking_run_leaves_its_last_due_state_and_no_writer_behind() {
        let (net, train_set, test_set) = setup();
        let dir = scratch_path("panic-save");
        let telemetry = Telemetry::disabled();
        let mut algo = Sma::new(net.init_params(&mut Rng::new(1)), 2, SmaConfig::default());
        let cfg = TrainerConfig::new(8, 2)
            .with_checkpointing(keep_all(&dir))
            .with_telemetry(telemetry.clone());
        let holders = Arc::strong_count(&telemetry.metrics);
        let mut source = PanicsAt {
            inner: LocalGradients::new(&net, algo.k(), &cfg),
            rounds: 0,
            at: 30,
        };
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            train_with_source(&net, &train_set, &test_set, &mut algo, &cfg, &mut source)
        }));
        assert!(run.is_err(), "the source panicked");
        // Round 30 never finished, so iteration 29 was the last save due.
        let iterations: Vec<u64> = on_disk(&dir).iter().map(|&(i, _)| i).collect();
        assert_eq!(iterations, (1..=29).collect::<Vec<_>>());
        // The writer thread held a store, and so the metrics registry:
        // it is gone by the time the call unwound.
        assert_eq!(Arc::strong_count(&telemetry.metrics), holders);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_state_hook_due_with_a_save_sees_the_saved_state() {
        use std::sync::Mutex;
        let (net, train_set, test_set) = setup();
        let dir = scratch_path("hook-and-save");
        let last: Arc<Mutex<Option<TrainingState>>> = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&last);
        let hook = StateHook::new(10, move |st| *slot.lock().unwrap() = Some(st));
        let mut algo = Sma::new(net.init_params(&mut Rng::new(1)), 2, SmaConfig::default());
        let cfg = TrainerConfig::new(8, 2)
            .with_checkpointing(CheckpointConfig::new(&dir).every(10))
            .with_state_hook(hook)
            .with_crash_after(30);
        let curve = train(&net, &train_set, &test_set, &mut algo, &cfg);
        assert_eq!(curve.iterations, 30);
        let hooked = last.lock().unwrap().take().expect("the hook fired");
        assert_eq!(hooked.iterations, 30);
        let loaded = cfg
            .checkpoint
            .as_ref()
            .expect("set")
            .store()
            .expect("store");
        let loaded = loaded.load_latest().expect("load").expect("present");
        assert_eq!(loaded.state, hooked);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn publish_hook_sees_fresh_consensus_models() {
        use std::sync::Mutex;
        let (net, train_set, test_set) = setup();
        let init = net.init_params(&mut Rng::new(1));
        let mut algo = Sma::new(init, 2, SmaConfig::default());
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        let plen = net.param_len();
        let hook = PublishHook::new(10, move |iteration, z| {
            assert_eq!(z.len(), plen, "hook receives the full model");
            assert!(z.iter().all(|w| w.is_finite()));
            log.lock().unwrap().push(iteration);
        });
        let cfg = TrainerConfig::new(8, 2).with_publish(hook);
        let curve = train(&net, &train_set, &test_set, &mut algo, &cfg);
        let seen = seen.lock().unwrap();
        assert_eq!(
            seen.len() as u64,
            curve.iterations / 10,
            "fires every 10th applied iteration"
        );
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "iterations increase");
        assert!(seen.iter().all(|i| i.is_multiple_of(10)));
    }

    #[test]
    fn resume_from_a_streamed_state_is_bit_identical() {
        use std::sync::Mutex;
        let (net, train_set, test_set) = setup();
        let fresh_algo = || Sma::new(net.init_params(&mut Rng::new(1)), 2, SmaConfig::default());
        let cfg = TrainerConfig::new(8, 3);
        let mut algo = fresh_algo();
        let full = train(&net, &train_set, &test_set, &mut algo, &cfg);
        let full_model = algo.consensus().to_vec();
        assert!(full.iterations > 20, "run long enough to capture mid-way");
        // Stream every state; keep the one captured after iteration 20.
        let captured: Arc<Mutex<Option<TrainingState>>> = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&captured);
        let hook = StateHook::new(1, move |st| {
            if st.iterations == 20 {
                *slot.lock().unwrap() = Some(st);
            }
        });
        let mut algo = fresh_algo();
        let _ = train(
            &net,
            &train_set,
            &test_set,
            &mut algo,
            &cfg.clone().with_state_hook(hook),
        );
        let st = captured
            .lock()
            .unwrap()
            .take()
            .expect("the hook saw iteration 20");
        assert_eq!(st.iterations, 20);
        // A standby resuming from the streamed snapshot replays the tail
        // and lands on the exact same curve and model.
        let mut algo = fresh_algo();
        let mut source = LocalGradients::new(&net, algo.k(), &cfg);
        let resumed = train_from(
            &net,
            &train_set,
            &test_set,
            &mut algo,
            &cfg,
            Start::State(Box::new(st)),
            None,
            &mut source,
        )
        .expect("no checkpointing");
        assert_eq!(resumed, full, "curve must be bit-exact after takeover");
        assert_eq!(algo.consensus(), &full_model[..], "model must match");
    }

    #[test]
    fn resume_over_another_runs_store_trains_fresh_and_matches() {
        let (net, train_set, test_set) = setup();
        let narrow = mlp(6, &[12], 4);
        let sma = |n: &Network| Sma::new(n.init_params(&mut Rng::new(1)), 2, SmaConfig::default());
        let cfg = TrainerConfig::new(8, 2).with_seed(11);
        let mut algo = sma(&net);
        let fresh = train(&net, &train_set, &test_set, &mut algo, &cfg);
        let fresh = (fresh, algo.consensus().to_vec());
        let ssgd = SSgd::new(net.init_params(&mut Rng::new(1)), 2, SgdConfig::plain());
        let others: [(&str, &Network, Box<dyn SyncAlgorithm>, u64); 3] = [
            ("seed", &net, Box::new(sma(&net)), 12),
            ("algorithm", &net, Box::new(ssgd), 11),
            ("params", &narrow, Box::new(sma(&narrow)), 11),
        ];
        for (other, other_net, mut other_algo, seed) in others {
            let ckpt = CheckpointConfig::new(scratch_path(&format!("other-{other}"))).every(10);
            let crashed = TrainerConfig::new(8, 2)
                .with_seed(seed)
                .with_crash_after(30);
            let crashed = crashed.with_checkpointing(ckpt.clone());
            train(
                other_net,
                &train_set,
                &test_set,
                other_algo.as_mut(),
                &crashed,
            );
            let left = ckpt.store().unwrap().load_latest().unwrap();
            assert_eq!(
                left.map(|l| l.state.iterations),
                Some(30),
                "another {other}"
            );
            let mut algo = sma(&net);
            let cfg = cfg.clone().with_checkpointing(ckpt.clone());
            let resumed = resume(&net, &train_set, &test_set, &mut algo, &cfg).unwrap();
            let resumed = (resumed, algo.consensus().to_vec());
            assert_eq!(
                resumed, fresh,
                "another {other}: curve and model of a fresh run"
            );
            let _ = std::fs::remove_dir_all(&ckpt.dir);
        }
    }

    #[test]
    #[should_panic(expected = "replicated state does not fit this run")]
    fn misfit_replicated_state_is_rejected() {
        let (net, train_set, test_set) = setup();
        let mut algo = Sma::new(net.init_params(&mut Rng::new(1)), 2, SmaConfig::default());
        let cfg = TrainerConfig::new(8, 1);
        let st = TrainingState {
            seed: cfg.seed + 1, // wrong run
            algorithm: algo.name().to_string(),
            ..TrainingState::default()
        };
        let mut source = LocalGradients::new(&net, algo.k(), &cfg);
        let _ = train_from(
            &net,
            &train_set,
            &test_set,
            &mut algo,
            &cfg,
            Start::State(Box::new(st)),
            None,
            &mut source,
        );
    }

    #[test]
    #[should_panic(expected = "do not match the network")]
    fn mismatched_model_rejected() {
        let (net, train_set, test_set) = setup();
        let mut algo = SSgd::new(vec![0.0; 3], 1, SgdConfig::plain());
        let _ = train(
            &net,
            &train_set,
            &test_set,
            &mut algo,
            &TrainerConfig::new(8, 1),
        );
    }
}
