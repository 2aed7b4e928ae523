//! In-process clusters: threads as processes.
//!
//! [`run_local_cluster`] stands a coordinator and `n` workers up inside
//! one process, each worker on its own thread with its own TCP
//! connections through the loopback interface. Every wire byte, retry,
//! heartbeat, and eviction behaves exactly as it does across real
//! processes — only `SIGKILL` needs the multi-process harness — which
//! makes the full fault matrix testable from a plain `#[test]`.

use crate::coordinator::{Coordinator, DistConfig, DistReport, EventHook};
use crate::standby::{run_standby, StandbyConfig, StandbyOutcome};
use crate::transport::RetryPolicy;
use crate::wire::WireError;
use crate::worker::{run_worker, run_worker_with_data, WorkerConfig, WorkerOutcome};
use crossbow_checkpoint::codec::fnv1a64;
use crossbow_data::synth::gaussian_mixture;
use crossbow_data::{Dataset, SampleSource};
use crossbow_nn::zoo::mlp;
use crossbow_nn::Network;
use crossbow_sync::{SSgd, SgdConfig, Sma, SmaConfig, SyncAlgorithm, TrainerConfig};
use crossbow_telemetry::Telemetry;
use crossbow_tensor::Rng;
use std::sync::Arc;
use std::time::Duration;

/// FNV-1a/64 over the little-endian bits of `params` — the model
/// fingerprint printed in run reports and compared across processes.
pub fn checksum_params(params: &[f32]) -> u64 {
    let mut bytes = Vec::with_capacity(params.len() * 4);
    for p in params {
        bytes.extend_from_slice(&p.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// The standard small demo task: a 6→16→4 MLP on a 4-class Gaussian
/// mixture, split 400 train / 80 test. Coordinator and workers build the
/// same task independently from the same constants.
pub fn demo_task() -> (Network, Dataset, Dataset) {
    let net = mlp(6, &[16], 4);
    let (train_set, test_set) = gaussian_mixture(4, 6, 480, 0.35, 7)
        .split_at(400)
        .expect("demo split is in range");
    (net, train_set, test_set)
}

/// Builds a `k`-learner algorithm by name ("sma" or "ssgd"), initialised
/// from `init_seed`.
///
/// # Panics
/// Panics on an unknown name.
pub fn demo_algo(net: &Network, k: usize, name: &str, init_seed: u64) -> Box<dyn SyncAlgorithm> {
    let init = net.init_params(&mut Rng::new(init_seed));
    match name {
        "sma" => Box::new(Sma::new(init, k, SmaConfig::default())),
        "ssgd" | "s-sgd" => Box::new(SSgd::new(init, k, SgdConfig::paper_default())),
        other => panic!("unknown algorithm {other:?} (expected sma or ssgd)"),
    }
}

/// Options for an in-process cluster on the demo task.
pub struct LocalClusterOptions {
    /// Cluster size at formation.
    pub workers: usize,
    /// Algorithm name ("sma" or "ssgd").
    pub algo: String,
    /// Model initialisation seed.
    pub init_seed: u64,
    /// Trainer configuration (epochs, batch, seed, checkpointing…).
    pub trainer: TrainerConfig,
    /// Cluster configuration (topology, timeouts, fault plan…).
    pub dist: DistConfig,
    /// Extra workers spawned after these delays, joining mid-run with
    /// `rejoin = true` (crash-recovery drills).
    pub late_workers: Vec<Duration>,
    /// Coordinator-side event hook.
    pub events: Option<EventHook>,
    /// A locally held dataset handed to every worker — required when
    /// `dist.index_work` is on (the coordinator ships indices, workers
    /// gather from this source). `None` = payload mode.
    pub worker_data: Option<Arc<dyn SampleSource>>,
}

/// What [`run_local_cluster`] produced.
pub struct LocalClusterReport {
    /// The coordinator's end-of-run report.
    pub report: DistReport,
    /// Per-worker outcomes, initial workers first, then late joiners in
    /// spawn order. Evicted workers surface their terminal [`WireError`].
    pub workers: Vec<Result<WorkerOutcome, WireError>>,
}

/// Runs a full cluster on loopback: the coordinator on this thread, each
/// worker on its own.
///
/// # Panics
/// Panics when the cluster cannot form or a worker thread panics.
pub fn run_local_cluster(opts: LocalClusterOptions) -> LocalClusterReport {
    let telemetry = Telemetry::disabled();
    let mut coordinator = Coordinator::bind("127.0.0.1:0", opts.dist.clone(), telemetry.clone())
        .expect("bind loopback coordinator");
    if let Some(events) = opts.events.clone() {
        coordinator = coordinator.with_events(events);
    }
    let addr = coordinator
        .local_addr()
        .expect("coordinator address")
        .to_string();

    let mut handles = Vec::new();
    for _ in 0..opts.workers {
        handles.push(spawn_worker(
            addr.clone(),
            Duration::ZERO,
            false,
            opts.worker_data.clone(),
        ));
    }
    for delay in &opts.late_workers {
        handles.push(spawn_worker(
            addr.clone(),
            *delay,
            true,
            opts.worker_data.clone(),
        ));
    }

    let (net, train_set, test_set) = demo_task();
    let mut algo = demo_algo(&net, opts.workers, &opts.algo, opts.init_seed);
    let report = coordinator.run(&net, &train_set, &test_set, algo.as_mut(), &opts.trainer);

    let workers = handles
        .into_iter()
        .map(|h| h.join().expect("worker thread panicked"))
        .collect();
    LocalClusterReport { report, workers }
}

/// Options for an in-process primary-crash failover drill on the demo
/// task.
pub struct LocalFailoverOptions {
    /// Cluster size at formation.
    pub workers: usize,
    /// Algorithm name ("sma" or "ssgd").
    pub algo: String,
    /// Model initialisation seed.
    pub init_seed: u64,
    /// The *full* trainer configuration; the primary runs a copy with
    /// `crash_after` set, the standby finishes the run under this one.
    pub trainer: TrainerConfig,
    /// Cluster configuration shared by the primary and the takeover.
    pub dist: DistConfig,
    /// The primary "crashes" (sockets close with no farewell) after this
    /// many iterations.
    pub crash_after: u64,
}

/// What [`run_local_failover`] produced.
pub struct LocalFailoverReport {
    /// The crashed primary's partial report (term 0).
    pub primary: DistReport,
    /// The standby's end-of-run report (term 1) — the one whose curve
    /// must match an undisturbed local run bit-for-bit.
    pub takeover: DistReport,
    /// Per-worker outcomes; each should have served ≥ 2 sessions.
    pub workers: Vec<Result<WorkerOutcome, WireError>>,
}

/// Runs a primary-crash failover drill on loopback: a primary that
/// crash-drops mid-run, one warm standby that takes over from the
/// streamed state, and `workers` resilient workers that re-`Hello` to
/// the standby's advertised address.
///
/// # Panics
/// Panics when any piece fails to come up, the standby does not take
/// over, or a thread panics.
pub fn run_local_failover(opts: LocalFailoverOptions) -> LocalFailoverReport {
    let telemetry = Telemetry::disabled();
    let mut primary_dist = opts.dist.clone();
    primary_dist.crash_drop = true;
    let primary_trainer = opts.trainer.clone().with_crash_after(opts.crash_after);

    let primary = Coordinator::bind("127.0.0.1:0", primary_dist, telemetry.clone())
        .expect("bind loopback primary");
    let primary_addr = primary.local_addr().expect("primary address").to_string();
    let standby_listener =
        std::net::TcpListener::bind("127.0.0.1:0").expect("bind standby listener");
    let standby_addr = standby_listener
        .local_addr()
        .expect("standby address")
        .to_string();

    let standby = {
        let takeover_dist = opts.dist.clone();
        let scfg = StandbyConfig::new(primary_addr.clone());
        let trainer = opts.trainer.clone();
        let algo_name = opts.algo.clone();
        let init_seed = opts.init_seed;
        let telemetry = telemetry.clone();
        std::thread::spawn(move || {
            let (net, train_set, test_set) = demo_task();
            run_standby(
                &net,
                &train_set,
                &test_set,
                &|k| demo_algo(&net, k, &algo_name, init_seed),
                &trainer,
                &takeover_dist,
                &scfg,
                standby_listener,
                telemetry,
                None,
                &|_| {},
            )
        })
    };

    let handles: Vec<_> = (0..opts.workers)
        .map(|i| {
            let primary_addr = primary_addr.clone();
            let standby_addr = standby_addr.clone();
            std::thread::spawn(move || {
                let (net, _, _) = demo_task();
                let mut cfg = WorkerConfig::new(primary_addr);
                cfg.fallbacks = vec![standby_addr];
                cfg.failover_retries = 10;
                cfg.jitter_seed = i as u64 + 1;
                // A short dial budget per session: the dead primary's
                // refused connections should fail over fast.
                cfg.retry = RetryPolicy {
                    max_retries: 2,
                    backoff_base: Duration::from_millis(25),
                    backoff_cap: Duration::from_millis(100),
                };
                run_worker(&net, &cfg, &Telemetry::disabled(), &|_| {})
            })
        })
        .collect();

    let primary_report = {
        let (net, train_set, test_set) = demo_task();
        let mut algo = demo_algo(&net, opts.workers, &opts.algo, opts.init_seed);
        let report = primary.run(&net, &train_set, &test_set, algo.as_mut(), &primary_trainer);
        // Drop the primary so its listener closes and reconnecting
        // workers are refused (as a killed process's would be) instead
        // of queueing in a backlog nobody accepts.
        drop(primary);
        report
    };
    let takeover = match standby.join().expect("standby thread panicked") {
        Ok(StandbyOutcome::TookOver(report)) => report,
        other => panic!("standby must take over, got {other:?}"),
    };
    let workers = handles
        .into_iter()
        .map(|h| h.join().expect("worker thread panicked"))
        .collect();
    LocalFailoverReport {
        primary: primary_report,
        takeover,
        workers,
    }
}

fn spawn_worker(
    addr: String,
    delay: Duration,
    rejoin: bool,
    data: Option<Arc<dyn SampleSource>>,
) -> std::thread::JoinHandle<Result<WorkerOutcome, WireError>> {
    std::thread::spawn(move || {
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        // Each worker rebuilds the demo network itself, exactly as a
        // separate process would.
        let (net, _, _) = demo_task();
        let mut cfg = WorkerConfig::new(addr);
        cfg.rejoin = rejoin;
        let telemetry = Telemetry::disabled();
        run_worker_with_data(&net, data, &cfg, &telemetry, &|_| {})
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::Topology;
    use crossbow_sync::train;

    #[test]
    fn loopback_ps_matches_local_training_bit_for_bit() {
        let trainer = TrainerConfig::new(8, 2).with_seed(11);
        let out = run_local_cluster(LocalClusterOptions {
            workers: 2,
            algo: "sma".into(),
            init_seed: 3,
            trainer: trainer.clone(),
            dist: DistConfig::new(Topology::Ps, 2),
            late_workers: Vec::new(),
            events: None,
            worker_data: None,
        });
        let (net, train_set, test_set) = demo_task();
        let mut algo = demo_algo(&net, 2, "sma", 3);
        let local = train(&net, &train_set, &test_set, algo.as_mut(), &trainer);
        assert_eq!(
            out.report.curve, local,
            "distributed curve must be bit-identical"
        );
        assert_eq!(
            out.report.counters,
            crate::coordinator::DistCounters::default()
        );
        assert!(out.workers.iter().all(|w| w.is_ok()));
        assert!(out.report.bytes_sent > 0 && out.report.bytes_recv > 0);
    }

    #[test]
    fn loopback_ring_matches_local_training_bit_for_bit() {
        let trainer = TrainerConfig::new(8, 2).with_seed(11);
        let out = run_local_cluster(LocalClusterOptions {
            workers: 3,
            algo: "sma".into(),
            init_seed: 3,
            trainer: trainer.clone(),
            dist: DistConfig::new(Topology::Ring, 3),
            late_workers: Vec::new(),
            events: None,
            worker_data: None,
        });
        let (net, train_set, test_set) = demo_task();
        let mut algo = demo_algo(&net, 3, "sma", 3);
        let local = train(&net, &train_set, &test_set, algo.as_mut(), &trainer);
        assert_eq!(
            out.report.curve, local,
            "ring all-gather must not change the arithmetic"
        );
        assert!(out.workers.iter().all(|w| w.is_ok()));
    }

    #[test]
    fn loopback_index_shipping_matches_local_partitioned_run() {
        use crossbow_data::PartitionPlan;
        let (_, train_set, _) = demo_task();
        let trainer = TrainerConfig::new(8, 2)
            .with_seed(11)
            .with_partition(PartitionPlan::even(train_set.len(), 2));
        let out = run_local_cluster(LocalClusterOptions {
            workers: 2,
            algo: "sma".into(),
            init_seed: 3,
            trainer: trainer.clone(),
            dist: DistConfig::new(Topology::Ps, 2).with_index_work(),
            late_workers: Vec::new(),
            events: None,
            worker_data: Some(Arc::new(train_set)),
        });
        let (net, train_set, test_set) = demo_task();
        let mut algo = demo_algo(&net, 2, "sma", 3);
        let local = train(&net, &train_set, &test_set, algo.as_mut(), &trainer);
        assert_eq!(
            out.report.curve, local,
            "index-shipping must not change the arithmetic"
        );
        assert!(out.workers.iter().all(|w| w.is_ok()));
        // Index mode ships O(batch) indices instead of O(batch × sample)
        // payloads; with 6-float samples the payload saving is visible
        // even on this toy task.
        assert!(out.report.bytes_sent > 0);
    }

    #[test]
    fn primary_crash_fails_over_bit_identically() {
        let trainer = TrainerConfig::new(8, 3).with_seed(11);
        let mut dist = DistConfig::new(Topology::Ps, 2);
        dist.lease_interval = Duration::from_millis(100);
        dist.lease_timeout = Duration::from_millis(400);
        let out = run_local_failover(LocalFailoverOptions {
            workers: 2,
            algo: "sma".into(),
            init_seed: 3,
            trainer: trainer.clone(),
            dist,
            crash_after: 20,
        });
        let (net, train_set, test_set) = demo_task();
        let mut algo = demo_algo(&net, 2, "sma", 3);
        let local = train(&net, &train_set, &test_set, algo.as_mut(), &trainer);
        assert_eq!(
            out.primary.curve.iterations, 20,
            "the primary must die exactly at the scheduled iteration"
        );
        assert_eq!(out.primary.term, 0);
        assert_eq!(out.takeover.term, 1, "one takeover, one term bump");
        assert_eq!(
            out.takeover.curve, local,
            "the takeover must continue the curve bit-identically"
        );
        assert_eq!(
            out.takeover.model_checksum,
            checksum_params(algo.consensus()),
            "the final model must be the undisturbed run's, bit for bit"
        );
        for worker in &out.workers {
            let outcome = worker.as_ref().expect("workers survive the failover");
            assert!(
                outcome.sessions >= 2,
                "every worker must have re-admitted itself, got {} sessions",
                outcome.sessions
            );
        }
    }
}
