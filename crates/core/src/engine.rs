//! The end-to-end engine: the public façade of the reproduction.
//!
//! A [`Session`] runs one training configuration the way the paper
//! evaluates one (§5.1):
//!
//! 1. if the learner count is not pinned, the **auto-tuner** picks the
//!    number of learners per GPU by probing simulated throughput
//!    (Algorithm 2);
//! 2. the **task engine** runs on the GPU simulator to measure hardware
//!    efficiency — steady-state throughput and epoch time at the paper's
//!    full model/dataset scale;
//! 3. the **trainer** really trains the reduced model on the synthetic
//!    dataset to measure statistical efficiency — accuracy per epoch and
//!    epochs-to-accuracy under the `TTA(x)` median-of-5 rule;
//! 4. the two halves multiply into **time-to-accuracy**, the paper's
//!    headline metric.

use crate::autotuner::{tune_to_convergence, MAX_LEARNERS_PER_GPU, TUNER_TOLERANCE};
use crate::benchmark::Benchmark;
use crate::exec_sim::{
    simulate, simulate_robust_with_machine, simulate_with_machine, EngineKind, RobustSimConfig,
    SimConfig, SimReport,
};
use crossbow_checkpoint::CheckpointError;
use crossbow_gpu_sim::{FaultPlan, Machine, SimDuration};
use crossbow_nn::Network;
use crossbow_sync::algorithm::SyncAlgorithm;
use crossbow_sync::hierarchical::HierarchicalSma;
use crossbow_sync::optimizer::SgdConfig;
use crossbow_sync::sma::{easgd, Sma, SmaConfig};
use crossbow_sync::ssgd::SSgd;
use crossbow_sync::{resume, CheckpointConfig, GuardConfig, TrainerConfig, TrainingCurve};
use crossbow_telemetry::Telemetry;
use crossbow_tensor::Rng;

/// Which training algorithm a session uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgorithmKind {
    /// Synchronous model averaging (the paper's contribution), with a
    /// synchronisation period τ (1 = every iteration, the default).
    Sma {
        /// Synchronisation period.
        tau: usize,
    },
    /// The two-level SMA of §3.3 (local reference models per GPU).
    HierarchicalSma,
    /// Parallel S-SGD — the TensorFlow-style baseline.
    SSgd,
    /// Elastic averaging SGD \[69\] — the §5.5 comparator.
    EaSgd {
        /// Synchronisation period.
        tau: usize,
    },
}

/// Fault-tolerance policy of a session: what faults to simulate on the
/// hardware half and how aggressively to self-heal on both halves.
#[derive(Clone, Debug, Default)]
pub struct RobustnessConfig {
    /// Fault plan for the simulated hardware run. `None` derives a small
    /// seeded plan from the session seed ([`FaultPlan::from_seed`]) over
    /// the horizon of a fault-free probe run.
    pub fault_plan: Option<FaultPlan>,
    /// Divergence guard for the statistical (real training) run.
    pub guard: GuardConfig,
    /// Test hook: treat the n-th training iteration's losses as NaN, so
    /// the rollback path can be exercised end to end.
    pub inject_nan_at: Option<u64>,
    /// Fault injection: simulate a host crash by abandoning the
    /// statistical run after this many applied iterations. Durable
    /// checkpoints (see [`SessionConfig::checkpoint`]) survive for a
    /// resumed session.
    pub crash_after: Option<u64>,
}

/// Configuration of one training session.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// The benchmark (model family + dataset + profile).
    pub benchmark: Benchmark,
    /// Number of GPUs (`g`).
    pub gpus: usize,
    /// Learners per GPU (`m`); `None` lets the auto-tuner decide.
    pub learners_per_gpu: Option<usize>,
    /// Batch size per learner (`b`).
    pub batch_per_learner: usize,
    /// Training algorithm.
    pub algorithm: AlgorithmKind,
    /// Epoch budget for the statistical run (`None` = benchmark default).
    pub max_epochs: Option<usize>,
    /// TTA threshold (`None` = benchmark default).
    pub target_accuracy: Option<f64>,
    /// Master seed (dataset, init, batch order).
    pub seed: u64,
    /// Fault injection + self-healing policy; `None` runs fault-free.
    pub robustness: Option<RobustnessConfig>,
    /// Durable checkpointing of the statistical run; a session restarted
    /// with the same configuration resumes from the newest valid
    /// checkpoint (and reuses the recorded learner count instead of
    /// re-running the auto-tuner). `None` = off.
    pub checkpoint: Option<CheckpointConfig>,
    /// Tracing + metrics sink. When set, the hardware-efficiency run
    /// records its simulator trace (flushed into the recorder as typed
    /// spans, devices `0..g`) and the statistical run records wall-clock
    /// host spans and checkpoint metrics (device
    /// [`crossbow_telemetry::HOST_DEVICE`]). `None` = telemetry off; the
    /// training result is identical either way.
    pub telemetry: Option<Telemetry>,
}

impl SessionConfig {
    /// A session on the given benchmark with paper-style defaults:
    /// 1 GPU, auto-tuned learners, the benchmark's default batch.
    pub fn new(benchmark: Benchmark) -> Self {
        SessionConfig {
            batch_per_learner: benchmark.profile.default_batch,
            benchmark,
            gpus: 1,
            learners_per_gpu: None,
            algorithm: AlgorithmKind::Sma { tau: 1 },
            max_epochs: None,
            target_accuracy: None,
            seed: 42,
            robustness: None,
            checkpoint: None,
            telemetry: None,
        }
    }

    /// A small LeNet session that trains in a couple of seconds — the
    /// quickstart configuration.
    pub fn lenet_quick() -> Self {
        let mut cfg = SessionConfig::new(Benchmark::lenet());
        cfg.max_epochs = Some(6);
        cfg.learners_per_gpu = Some(2);
        cfg
    }

    /// Sets the GPU count (builder style).
    pub fn with_gpus(mut self, gpus: usize) -> Self {
        self.gpus = gpus;
        self
    }

    /// Pins the learners per GPU (builder style).
    pub fn with_learners_per_gpu(mut self, m: usize) -> Self {
        self.learners_per_gpu = Some(m);
        self
    }

    /// Sets the per-learner batch size (builder style).
    pub fn with_batch(mut self, b: usize) -> Self {
        self.batch_per_learner = b;
        self
    }

    /// Sets the algorithm (builder style).
    pub fn with_algorithm(mut self, algorithm: AlgorithmKind) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the epoch budget (builder style).
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.max_epochs = Some(epochs);
        self
    }

    /// Sets the TTA target (builder style).
    pub fn with_target(mut self, target: f64) -> Self {
        self.target_accuracy = Some(target);
        self
    }

    /// Sets the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables fault injection + self-healing (builder style).
    pub fn with_robustness(mut self, robustness: RobustnessConfig) -> Self {
        self.robustness = Some(robustness);
        self
    }

    /// Enables durable checkpointing (builder style).
    pub fn with_checkpointing(mut self, checkpoint: CheckpointConfig) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// Attaches a telemetry sink (builder style).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }
}

/// The combined result of a session.
#[derive(Clone, Debug)]
pub struct TrainingReport {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Algorithm used.
    pub algorithm: AlgorithmKind,
    /// GPUs used.
    pub gpus: usize,
    /// Learners per GPU actually used (after auto-tuning).
    pub learners_per_gpu: usize,
    /// Batch size per learner.
    pub batch_per_learner: usize,
    /// Statistical-efficiency result (real training).
    pub curve: TrainingCurve,
    /// Hardware-efficiency result (simulator).
    pub sim: SimReport,
    /// Simulated time of one full-scale epoch.
    pub epoch_time: SimDuration,
    /// Time-to-accuracy: epochs-to-target x epoch time, when the target
    /// was reached.
    pub tta: Option<SimDuration>,
}

impl TrainingReport {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let tta = match self.tta {
            Some(t) => format!("TTA {t}"),
            None => "target not reached".to_string(),
        };
        let overlap = self
            .sim
            .overlap
            .map(|o| format!(", sync overlap {:.0}%", o.ratio * 100.0))
            .unwrap_or_default();
        format!(
            "{} [{:?}] g={} m={} b={}: {:.1} images/s, epoch {}, ETA {:?} epochs, acc {:.3}, {}{}",
            self.benchmark,
            self.algorithm,
            self.gpus,
            self.learners_per_gpu,
            self.batch_per_learner,
            self.sim.throughput,
            self.epoch_time,
            self.curve.epochs_to_target,
            self.curve.final_accuracy,
            tta,
            overlap
        )
    }
}

/// A configured training session.
pub struct Session {
    config: SessionConfig,
}

impl Session {
    /// Creates a session.
    ///
    /// # Panics
    /// Panics on zero-sized configuration values.
    pub fn new(config: SessionConfig) -> Self {
        assert!(config.gpus >= 1, "need at least one GPU");
        assert!(config.batch_per_learner >= 1, "need a batch");
        if config.algorithm == AlgorithmKind::SSgd {
            assert!(
                config.learners_per_gpu.unwrap_or(1) == 1,
                "S-SGD trains one replica per GPU"
            );
        }
        Session { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Builds the simulator configuration for a given learner count.
    fn sim_config(&self, m: usize) -> SimConfig {
        let c = &self.config;
        let (kind, tau) = match c.algorithm {
            AlgorithmKind::SSgd => (EngineKind::BaselineSSgd, Some(1)),
            AlgorithmKind::Sma { tau } | AlgorithmKind::EaSgd { tau } => {
                (EngineKind::Crossbow, Some(tau))
            }
            AlgorithmKind::HierarchicalSma => (EngineKind::Crossbow, Some(1)),
        };
        let mut sim = match kind {
            EngineKind::Crossbow => {
                SimConfig::crossbow(c.benchmark.profile, c.gpus, m, c.batch_per_learner)
            }
            EngineKind::BaselineSSgd => {
                SimConfig::baseline(c.benchmark.profile, c.gpus, c.batch_per_learner)
            }
        };
        sim.tau = tau;
        sim
    }

    /// Auto-tunes (or reads) the learners-per-GPU count, then measures
    /// hardware efficiency on the simulator.
    ///
    /// When the session has a [`RobustnessConfig`] and runs the CROSSBOW
    /// engine, the measurement run goes through the fault-tolerant driver
    /// ([`simulate_robust`](crate::exec_sim::simulate_robust)) with the
    /// configured (or seed-derived) fault
    /// plan; the auto-tuner's probe runs stay fault-free so tuning remains
    /// a property of the hardware, not of the injected faults.
    pub fn plan_hardware(&self) -> (usize, SimReport) {
        let c = &self.config;
        if c.algorithm == AlgorithmKind::SSgd {
            return (1, self.measure_hardware(1));
        }
        let m = match c.learners_per_gpu {
            Some(m) => m,
            None => {
                let probe = |m: usize| simulate(&self.sim_config(m)).throughput;
                let base = probe(1);
                let (m, _) =
                    tune_to_convergence(base * TUNER_TOLERANCE, MAX_LEARNERS_PER_GPU, probe);
                m
            }
        };
        (m, self.measure_hardware(m))
    }

    /// Measures hardware efficiency at a fixed learner count.
    ///
    /// With telemetry attached the run records its trace: the report
    /// carries the sync–compute overlap and the simulator spans are
    /// flushed into the session's recorder (devices `0..g`).
    fn measure_hardware(&self, m: usize) -> SimReport {
        let c = &self.config;
        let mut sim = self.sim_config(m);
        if c.telemetry.is_some() {
            sim.record_trace = true;
        }
        let robustness = (c.algorithm != AlgorithmKind::SSgd)
            .then_some(c.robustness.as_ref())
            .flatten();
        let (report, machine) = match robustness {
            Some(r) => {
                let plan = r.fault_plan.clone().unwrap_or_else(|| {
                    // Derive a small seeded plan over the fault-free horizon.
                    let horizon = simulate(&sim).total_time;
                    FaultPlan::from_seed(
                        c.seed,
                        c.gpus,
                        SimDuration::from_secs_f64(horizon.as_secs_f64()),
                    )
                });
                simulate_robust_with_machine(&RobustSimConfig::new(sim, plan))
            }
            None => simulate_with_machine(&sim),
        };
        self.flush_sim_spans(&machine);
        report
    }

    /// Flushes the simulator trace into the telemetry recorder as typed
    /// spans, so an exported Chrome trace shows the hardware half of the
    /// session next to the wall-clock host spans of the statistical half.
    fn flush_sim_spans(&self, machine: &Machine) {
        if let Some(t) = &self.config.telemetry {
            let mut shard = t.recorder.shard();
            for span in machine.trace().to_spans() {
                shard.record(span);
            }
        }
    }

    /// The learners-per-GPU count recorded in the newest valid checkpoint
    /// of this session's store, when one exists and fits this session's
    /// run (seed, algorithm, model). Resuming must reuse it: re-running
    /// the auto-tuner could pick a different parallelism, whose `k` the
    /// checkpoint would not fit.
    fn recorded_learners(&self) -> Option<usize> {
        let c = &self.config;
        let store = c.checkpoint.as_ref()?.store().ok()?;
        let state = store.load_latest().ok().flatten()?.state;
        let m = state.learners_per_gpu as usize;
        let algo = self.algorithm(&c.benchmark.network(), m.max(1));
        (m > 0 && state.fits(c.seed, algo.name(), algo.param_len())).then_some(m)
    }

    /// The session's algorithm at `m` learners per GPU, from the seeded
    /// initial model of `net`.
    fn algorithm(&self, net: &Network, m: usize) -> Box<dyn SyncAlgorithm> {
        let c = &self.config;
        let init = net.init_params(&mut Rng::new(c.seed ^ 0xC0FFEE));
        let k = m * c.gpus;
        match c.algorithm {
            AlgorithmKind::Sma { tau } => Box::new(Sma::new(
                init,
                k,
                SmaConfig {
                    tau,
                    ..SmaConfig::default()
                },
            )),
            AlgorithmKind::HierarchicalSma => {
                Box::new(HierarchicalSma::new(init, c.gpus, m, SmaConfig::default()))
            }
            AlgorithmKind::SSgd => Box::new(SSgd::new(init, k, SgdConfig::paper_default())),
            AlgorithmKind::EaSgd { tau } => Box::new(easgd(init, k, None, tau)),
        }
    }

    /// Runs the statistical-efficiency half: real training of the reduced
    /// model with `k = m * gpus` learners.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] when the configured checkpoint directory
    /// cannot be created or read, or a checkpoint cannot be written.
    pub fn train_statistics(&self, m: usize) -> Result<TrainingCurve, CheckpointError> {
        let c = &self.config;
        let net = c.benchmark.network();
        let (train_set, test_set) = c.benchmark.dataset(c.seed);
        let k = m * c.gpus;
        let mut algo = self.algorithm(&net, m);
        // The simulator runs at the paper's full scale; the statistical
        // run maps the batch onto the (smaller) synthetic task.
        let stat_batch = c.benchmark.scale_batch(c.batch_per_learner);
        let trainer_config = TrainerConfig {
            batch_per_learner: stat_batch.min(train_set.len() / k.max(1)).max(1),
            max_epochs: c.max_epochs.unwrap_or(c.benchmark.default_epochs),
            target_accuracy: Some(c.target_accuracy.unwrap_or(c.benchmark.scaled_target)),
            schedule: c.benchmark.schedule(),
            weight_decay: 1e-4,
            seed: c.seed,
            threads: 0,
            partition: None,
            guard: c.robustness.as_ref().map(|r| r.guard),
            inject_nan_at: c.robustness.as_ref().and_then(|r| r.inject_nan_at),
            checkpoint: c.checkpoint.clone().map(|mut ck| {
                // Stamp the parallelism so a resumed session can reuse it.
                ck.learners_per_gpu = m as u32;
                ck
            }),
            crash_after: c.robustness.as_ref().and_then(|r| r.crash_after),
            publish: None,
            state_hook: None,
            telemetry: c.telemetry.clone(),
        };
        resume(&net, &train_set, &test_set, algo.as_mut(), &trainer_config)
    }

    /// Runs the full session: auto-tune, simulate, train, combine.
    ///
    /// With [`SessionConfig::checkpoint`] set, a session whose store holds
    /// a checkpoint from the same seed skips the auto-tuner and reuses the
    /// recorded learner count, then resumes training from that checkpoint.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] when the configured checkpoint directory
    /// cannot be created or read, or a checkpoint cannot be written.
    pub fn run(&self) -> Result<TrainingReport, CheckpointError> {
        let (m, sim) = match self.recorded_learners() {
            Some(m) => (m, self.measure_hardware(m)),
            None => self.plan_hardware(),
        };
        let curve = self.train_statistics(m)?;
        let epoch_time = sim.epoch_time(self.config.benchmark.profile.train_samples);
        let tta = curve
            .epochs_to_target
            .map(|e| SimDuration::from_secs_f64(e as f64 * epoch_time.as_secs_f64()));
        Ok(TrainingReport {
            benchmark: self.config.benchmark.name,
            algorithm: self.config.algorithm,
            gpus: self.config.gpus,
            learners_per_gpu: m,
            batch_per_learner: self.config.batch_per_learner,
            curve,
            sim,
            epoch_time,
            tta,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lenet_quick_session_learns() {
        let report = Session::new(SessionConfig::lenet_quick())
            .run()
            .expect("run");
        assert!(report.curve.final_accuracy > 0.5, "{}", report.summary());
        assert!(report.sim.throughput > 0.0);
        assert_eq!(report.learners_per_gpu, 2);
        assert!(report.epoch_time.as_nanos() > 0);
    }

    #[test]
    fn auto_tuner_picks_more_than_one_learner_for_small_batches() {
        // ResNet-32 at b = 64 cannot saturate a Titan X with one learner;
        // the paper's tuner lands at m = 4 on one GPU (Figure 14a).
        let cfg = SessionConfig::new(Benchmark::resnet32()).with_batch(64);
        let session = Session::new(cfg);
        let (m, _) = session.plan_hardware();
        assert!(m >= 2, "tuner chose m = {m}");
        assert!(m <= 8);
    }

    #[test]
    fn ssgd_sessions_use_one_replica_per_gpu() {
        let cfg = SessionConfig::new(Benchmark::lenet())
            .with_algorithm(AlgorithmKind::SSgd)
            .with_gpus(2);
        let session = Session::new(cfg);
        let (m, _) = session.plan_hardware();
        assert_eq!(m, 1);
    }

    #[test]
    #[should_panic(expected = "one replica per GPU")]
    fn ssgd_rejects_multiple_learners() {
        let cfg = SessionConfig::new(Benchmark::lenet())
            .with_algorithm(AlgorithmKind::SSgd)
            .with_learners_per_gpu(3);
        let _ = Session::new(cfg);
    }

    #[test]
    fn tta_combines_eta_and_epoch_time() {
        let mut cfg = SessionConfig::lenet_quick();
        cfg.max_epochs = Some(12);
        cfg.target_accuracy = Some(0.6); // easily reached
        let report = Session::new(cfg).run().expect("run");
        let eta = report.curve.epochs_to_target.expect("easy target");
        let tta = report.tta.expect("tta present");
        let expect = eta as f64 * report.epoch_time.as_secs_f64();
        assert!((tta.as_secs_f64() - expect).abs() < 1e-6);
    }

    #[test]
    fn reports_are_deterministic() {
        let run = || {
            Session::new(SessionConfig::lenet_quick().with_seed(7))
                .run()
                .expect("run")
                .curve
                .epoch_accuracy
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn summary_mentions_the_benchmark() {
        let report = Session::new(SessionConfig::lenet_quick())
            .run()
            .expect("run");
        let s = report.summary();
        assert!(s.contains("lenet"), "{s}");
    }

    #[test]
    fn telemetry_session_records_spans_and_overlap() {
        use crossbow_telemetry::SpanKind;
        let telemetry = Telemetry::wall();
        let report = Session::new(SessionConfig::lenet_quick().with_telemetry(telemetry.clone()))
            .run()
            .expect("run");
        // The traced hardware run reports Figure 8's sync–compute overlap.
        let overlap = report.sim.overlap.expect("telemetry implies a trace");
        assert!(overlap.ratio > 0.0, "{overlap}");
        assert!(
            report.summary().contains("sync overlap"),
            "{}",
            report.summary()
        );
        // The recorder holds the simulator spans (learn / local-sync /
        // global-sync) and the wall-clock host spans of the trainer.
        let timeline = telemetry.recorder.timeline();
        assert!(timeline.count(SpanKind::Learn) > 0);
        assert!(timeline.count(SpanKind::LocalSync) > 0);
        assert!(timeline.count(SpanKind::GlobalSync) > 0);
        assert!(timeline.count(SpanKind::Eval) > 0);
    }

    #[test]
    fn telemetry_does_not_change_the_curve() {
        let run = |telemetry: Option<Telemetry>| {
            let mut cfg = SessionConfig::lenet_quick().with_seed(9);
            cfg.telemetry = telemetry;
            Session::new(cfg).run().expect("run").curve
        };
        assert_eq!(run(None), run(Some(Telemetry::wall())));
    }

    #[test]
    fn session_crash_and_resume_reproduces_the_uninterrupted_curve() {
        let dir =
            std::env::temp_dir().join(format!("crossbow-session-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let robustness = |crash_after| RobustnessConfig {
            crash_after,
            ..RobustnessConfig::default()
        };
        let baseline = Session::new(
            SessionConfig::lenet_quick()
                .with_seed(7)
                .with_robustness(robustness(None)),
        )
        .run()
        .expect("run");

        // Crash mid-run; durable checkpoints survive in `dir`.
        let crashed = Session::new(
            SessionConfig::lenet_quick()
                .with_seed(7)
                .with_robustness(robustness(Some(40)))
                .with_checkpointing(CheckpointConfig::new(&dir).every(10)),
        )
        .run()
        .expect("run");
        assert_eq!(crashed.curve.iterations, 40);
        assert!(crashed.curve.epoch_accuracy.len() < baseline.curve.epoch_accuracy.len());

        // A restarted session reads the learner count from the checkpoint
        // (no re-tuning, even though `learners_per_gpu` is unpinned) and
        // finishes with a curve bit-identical to the uninterrupted run.
        let mut resume_cfg = SessionConfig::lenet_quick()
            .with_seed(7)
            .with_robustness(robustness(None))
            .with_checkpointing(CheckpointConfig::new(&dir).every(10));
        resume_cfg.learners_per_gpu = None;
        let resumed = Session::new(resume_cfg).run().expect("run");
        assert_eq!(resumed.learners_per_gpu, 2);
        assert_eq!(resumed.curve, baseline.curve);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checkpoint_of_another_algorithm_changes_nothing() {
        // Same seed, another algorithm, another parallelism: the state
        // fits neither the auto-tuner's shortcut nor the trainer, so a
        // session over that directory equals one over an empty directory.
        let dir = |name: &str| {
            let dir = std::env::temp_dir().join(format!(
                "crossbow-session-foreign-{name}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        };
        let session = |algorithm, m: Option<usize>, dir: &std::path::Path| {
            let mut cfg = SessionConfig::lenet_quick()
                .with_seed(7)
                .with_algorithm(algorithm)
                .with_checkpointing(CheckpointConfig::new(dir).every(10));
            cfg.max_epochs = Some(2);
            cfg.learners_per_gpu = m;
            Session::new(cfg).run().expect("run")
        };
        let (empty, foreign) = (dir("empty"), dir("written"));
        let sma = AlgorithmKind::Sma { tau: 1 };
        let fresh = session(sma, None, &empty);
        let other = AlgorithmKind::EaSgd { tau: 1 };
        session(other, Some(fresh.learners_per_gpu + 1), &foreign);
        let over_foreign = session(sma, None, &foreign);
        assert_eq!(over_foreign.learners_per_gpu, fresh.learners_per_gpu);
        assert_eq!(over_foreign.curve, fresh.curve);
        let _ = std::fs::remove_dir_all(&empty);
        let _ = std::fs::remove_dir_all(&foreign);
    }
}
