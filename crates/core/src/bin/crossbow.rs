//! The `crossbow` command-line interface.
//!
//! ```text
//! crossbow train    --model resnet-32 --gpus 8 --learners 2 --batch 64
//! crossbow simulate --model resnet-50 --gpus 8 --learners 2 --batch 16
//! crossbow autotune --model vgg-16 --gpus 1
//! crossbow models
//! ```
//!
//! `train` runs the full session (simulated hardware + real training on
//! the synthetic benchmark); `simulate` only measures hardware
//! efficiency; `autotune` shows Algorithm 2's decisions; `serve` trains
//! a small model while serving it under load with micro-batching and
//! hot-swapped snapshots; `models` lists the benchmarks.

use crossbow::autotuner::{tune_to_convergence, MAX_LEARNERS_PER_GPU, TUNER_TOLERANCE};
use crossbow::benchmark::Benchmark;
use crossbow::comms::{
    demo_algo, demo_task, run_chaos, run_standby, run_worker_with_data, ChaosOptions,
    ChaosScenario, ClusterEvent, Coordinator, DistConfig, DistReport, NetFaultPlan, SimPhase,
    SimPhaseReport, StandbyConfig, StandbyEvent, StandbyOutcome, Topology, WorkerConfig,
    WorkerEvent,
};
use crossbow::engine::{AlgorithmKind, Session, SessionConfig};
use crossbow::exec_sim::{
    simulate, simulate_robust, simulate_with_machine, RobustSimConfig, SimConfig,
};
use crossbow::fleet::{
    run_fleet_load, train_into_fleet, Arrival, AutoscalerConfig, CandidateMode, Fleet, FleetConfig,
    FleetLoadReport, FleetTrainConfig, SloClass, StreamSpec,
};
use crossbow::gpu_sim::{FaultPlan, SimDuration};
use crossbow::nn::ModelProfile;
use crossbow::serve::BatchConfig;
use crossbow::sync::sma::{Sma, SmaConfig};
use crossbow::sync::trainer::PublishHook;
use crossbow::sync::TrainerConfig;
use crossbow::telemetry::{chrome, Telemetry, Timeline, HOST_DEVICE};
use crossbow::CheckpointConfig;
use crossbow_nn::zoo::mlp;
use crossbow_tensor::{Precision, Rng};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "train" => cmd_train(rest),
        "data" => cmd_data(rest),
        "dist-train" => cmd_dist_train(rest),
        "chaos" => cmd_chaos(rest),
        "simulate" => cmd_simulate(rest),
        "autotune" => cmd_autotune(rest),
        "serve" => cmd_serve(rest),
        "fleet" => cmd_fleet(rest),
        "models" => cmd_models(),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
crossbow — CROSSBOW (VLDB 2019) reproduction

USAGE:
    crossbow train    [--model NAME] [--gpus N] [--learners M|auto]
                      [--batch B] [--algorithm sma|ssgd|easgd|hier]
                      [--tau T] [--epochs E] [--target ACC] [--seed S]
                      [--trace FILE]
    crossbow data pack    --dir DIR [--classes C] [--dim D] [--samples N]
                      [--noise F] [--seed S] [--samples-per-shard N]
                      [--page-samples N]
    crossbow data inspect --dir DIR
    crossbow data verify  --dir DIR
    crossbow dist-train --role coordinator [--workers N] [--topology ps|ring]
                      [--algo sma|ssgd] [--epochs E] [--batch B] [--seed S]
                      [--init-seed S] [--bind ADDR] [--checkpoint-dir DIR]
                      [--progress-every I] [--fault-seed S] [--drop P]
                      [--delay-prob P] [--delay-us U] [--disconnect-after N]
                      [--only-conn ID] [--partition-start F] [--partition-len F]
                      [--heartbeat-timeout-ms T] [--heartbeat-interval-ms T]
                      [--work-resend-ms T] [--join-timeout-ms T]
                      [--hello-timeout-ms T] [--lease-interval-ms T]
                      [--lease-timeout-ms T] [--state-every I] [--term N]
                      [--data-dir DIR]
    crossbow dist-train --role standby --connect ADDR [--bind ADDR]
                      [--priority P] [--peers A,B,...] [--workers N]
                      [--topology ps|ring] [--algo sma|ssgd] [--epochs E]
                      [--batch B] [--seed S] [--init-seed S]
                      [--progress-every I] [+ the coordinator timing flags]
    crossbow dist-train --role worker --connect ADDR[,FALLBACK...]
                      [--rejoin 0|1] [--failover-retries N] [--jitter-seed S]
                      [--data-dir DIR]
    crossbow chaos    --scenario kill-primary|partition-heal|cascade
                      [--seed S] [--topology ps|ring] | --list 1
    crossbow simulate [--model NAME] [--gpus N] [--learners M] [--batch B]
                      [--tau T|inf] [--trace FILE]
    crossbow autotune [--model NAME] [--gpus N] [--batch B]
    crossbow serve    [--workers N] [--max-batch B] [--max-delay-us U]
                      [--mode closed|open] [--clients C] [--requests R]
                      [--rate RPS] [--epochs E] [--publish-every I]
                      [--precision f32|bf16|int8] [--seed S] [--trace FILE]
    crossbow fleet    [--models N] [--workers N] [--max-batch B]
                      [--requests R] [--rate RPS] [--canary-pct P]
                      [--precision f32|bf16|int8] [--autoscale 0|1]
                      [--seed S] [--trace FILE]
    crossbow models

MODELS: lenet, resnet-32, vgg-16, resnet-50 (default: resnet-32)

--trace writes a Chrome Trace Event JSON file; open it in
chrome://tracing or https://ui.perfetto.dev to inspect the timeline.";

/// Writes Chrome Trace Event JSON to `path` and reports where it went.
fn write_trace(path: &str, json: &str, spans: usize) -> Result<(), String> {
    std::fs::write(path, json).map_err(|e| format!("cannot write trace `{path}`: {e}"))?;
    println!("trace: {spans} spans -> {path} (open in chrome://tracing)");
    Ok(())
}

/// Minimal `--key value` parser.
struct Flags<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    fn parse(args: &'a [String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got `{key}`"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            pairs.push((key, value.as_str()));
        }
        Ok(Flags { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects a number, got `{v}`")),
        }
    }

    fn benchmark(&self) -> Result<Benchmark, String> {
        let name = self.get("model").unwrap_or("resnet-32");
        Benchmark::by_name(name)
            .ok_or_else(|| format!("unknown model `{name}` (try `crossbow models`)"))
    }

    fn reject_unknown(&self, allowed: &[&str]) -> Result<(), String> {
        for (key, _) in &self.pairs {
            if !allowed.contains(key) {
                return Err(format!("unknown flag --{key}"));
            }
        }
        Ok(())
    }
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.reject_unknown(&[
        "model",
        "gpus",
        "learners",
        "batch",
        "algorithm",
        "tau",
        "epochs",
        "target",
        "seed",
        "trace",
    ])?;
    let benchmark = flags.benchmark()?;
    let gpus = flags.parse_num("gpus", 1usize)?;
    let batch = flags.parse_num("batch", benchmark.profile.default_batch)?;
    let tau = flags.parse_num("tau", 1usize)?;
    let algorithm = match flags.get("algorithm").unwrap_or("sma") {
        "sma" => AlgorithmKind::Sma { tau },
        "ssgd" => AlgorithmKind::SSgd,
        "easgd" => AlgorithmKind::EaSgd { tau },
        "hier" => AlgorithmKind::HierarchicalSma,
        other => return Err(format!("unknown algorithm `{other}`")),
    };
    let mut config = SessionConfig::new(benchmark)
        .with_gpus(gpus)
        .with_batch(batch)
        .with_algorithm(algorithm)
        .with_seed(flags.parse_num("seed", 42u64)?);
    match flags.get("learners") {
        None | Some("auto") => {}
        Some(m) => {
            config = config.with_learners_per_gpu(
                m.parse()
                    .map_err(|_| "--learners expects a number or `auto`")?,
            )
        }
    }
    if let Some(e) = flags.get("epochs") {
        config = config.with_epochs(e.parse().map_err(|_| "--epochs expects a number")?);
    }
    if let Some(t) = flags.get("target") {
        config = config.with_target(t.parse().map_err(|_| "--target expects a number")?);
    }
    let telemetry = flags.get("trace").map(|_| Telemetry::wall());
    if let Some(t) = &telemetry {
        config = config.with_telemetry(t.clone());
    }
    let report = Session::new(config)
        .run()
        .map_err(|e| format!("checkpoint store: {e}"))?;
    println!("{}", report.summary());
    println!();
    println!("accuracy per epoch:");
    for (e, acc) in report.curve.epoch_accuracy.iter().enumerate() {
        println!("  epoch {:>3}: {:.4}", e + 1, acc);
    }
    if let (Some(path), Some(t)) = (flags.get("trace"), &telemetry) {
        let timeline = t.recorder.timeline();
        // Simulated-GPU spans sit on device pids 0..g; host-side spans
        // (training epochs, evaluation, checkpoints) on the HOST pid.
        let mut names: Vec<(u32, String)> =
            (0..gpus as u32).map(|d| (d, format!("gpu {d}"))).collect();
        names.push((HOST_DEVICE, "host".to_string()));
        let names: Vec<(u32, &str)> = names.iter().map(|(d, n)| (*d, n.as_str())).collect();
        println!();
        if let Some(overlap) = report.sim.overlap {
            println!("sync-compute overlap: {overlap}");
        }
        write_trace(
            path,
            &chrome::to_chrome_json(timeline.spans(), &names),
            timeline.len(),
        )?;
    }
    Ok(())
}

/// `crossbow data pack|inspect|verify`: the on-disk data plane. `pack`
/// freezes a synthetic Gaussian-mixture dataset into checksummed,
/// mmap-ready shards; `inspect` prints the shard map; `verify`
/// re-validates every shard (header, index, every page checksum) and
/// fails when any is corrupt.
fn cmd_data(args: &[String]) -> Result<(), String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err(format!(
            "data needs a subcommand: pack|inspect|verify\n{USAGE}"
        ));
    };
    let flags = Flags::parse(rest)?;
    match sub.as_str() {
        "pack" => data_pack(&flags),
        "inspect" => data_inspect(&flags),
        "verify" => data_verify(&flags),
        other => Err(format!(
            "unknown data subcommand `{other}` (pack|inspect|verify)"
        )),
    }
}

fn data_dir_flag<'a>(flags: &'a Flags<'_>) -> Result<&'a str, String> {
    flags
        .get("dir")
        .ok_or_else(|| "--dir DIR is required".into())
}

fn data_pack(flags: &Flags<'_>) -> Result<(), String> {
    flags.reject_unknown(&[
        "dir",
        "classes",
        "dim",
        "samples",
        "noise",
        "seed",
        "samples-per-shard",
        "page-samples",
    ])?;
    let dir = data_dir_flag(flags)?;
    let classes = flags.parse_num("classes", 4usize)?;
    let dim = flags.parse_num("dim", 6usize)?;
    let samples = flags.parse_num("samples", 2048usize)?;
    let noise = flags.parse_num("noise", 0.35f32)?;
    let seed = flags.parse_num("seed", 7u64)?;
    let cfg = crossbow::shard::PackConfig {
        samples_per_shard: flags.parse_num("samples-per-shard", 512usize)?,
        page_samples: flags.parse_num("page-samples", 64usize)?,
    };
    let set = crossbow::data::synth::gaussian_mixture(classes, dim, samples, noise, seed);
    let started = std::time::Instant::now();
    let report =
        crossbow::shard::pack_source(dir.as_ref(), &set, cfg).map_err(|e| format!("pack: {e}"))?;
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    println!(
        "PACKED dir={dir} shards={} samples={} bytes={} mb_per_s={:.1}",
        report.shards,
        report.samples,
        report.bytes,
        report.bytes as f64 / (1024.0 * 1024.0) / secs,
    );
    Ok(())
}

/// One shard file's validation outcome, by file name.
type ShardScan = (
    String,
    Result<crossbow::shard::ShardReader, crossbow::shard::ShardError>,
);

/// Scans `dir` for sealed shard files in name order, validating each.
fn scan_shards(dir: &str) -> Result<Vec<ShardScan>, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read `{dir}`: {e}"))?
        .filter_map(|entry| entry.ok())
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter(|name| {
            name.starts_with("shard-") && name.ends_with(&format!(".{}", crossbow::shard::FILE_EXT))
        })
        .collect();
    names.sort();
    Ok(names
        .into_iter()
        .map(|name| {
            let opened = crossbow::shard::ShardReader::open(&std::path::Path::new(dir).join(&name));
            (name, opened)
        })
        .collect())
}

fn data_inspect(flags: &Flags<'_>) -> Result<(), String> {
    flags.reject_unknown(&["dir"])?;
    let dir = data_dir_flag(flags)?;
    let set = crossbow::shard::ShardedDataset::open(dir.as_ref())
        .map_err(|e| format!("open `{dir}`: {e}"))?;
    use crossbow::data::SampleSource;
    println!(
        "dataset: {} samples, {} classes, sample shape {:?}",
        set.len(),
        set.classes(),
        set.sample_shape().dims(),
    );
    println!(
        "shards : {} valid ({} bytes on disk, mmap={})",
        set.shard_count(),
        set.total_file_bytes(),
        set.fully_mmapped(),
    );
    for (name, opened) in scan_shards(dir)? {
        match opened {
            Ok(reader) => println!(
                "  {name}: {} samples, {} bytes, page size {}",
                reader.samples(),
                reader.file_bytes(),
                reader.page_samples(),
            ),
            Err(err) => println!("  {name}: CORRUPT ({err})"),
        }
    }
    for (path, err) in set.skipped() {
        println!("skipped: {} ({err})", path.display());
    }
    Ok(())
}

fn data_verify(flags: &Flags<'_>) -> Result<(), String> {
    flags.reject_unknown(&["dir"])?;
    let dir = data_dir_flag(flags)?;
    let mut valid = 0usize;
    let mut corrupt = Vec::new();
    for (name, opened) in scan_shards(dir)? {
        match opened {
            Ok(reader) => {
                println!("OK {name} samples={}", reader.samples());
                valid += 1;
            }
            Err(err) => {
                println!("BAD {name} error={err}");
                corrupt.push(name);
            }
        }
    }
    println!("VERIFIED valid={valid} corrupt={}", corrupt.len());
    if corrupt.is_empty() && valid > 0 {
        Ok(())
    } else if valid == 0 {
        Err(format!("no valid shards under `{dir}`"))
    } else {
        Err(format!("corrupt shards: {}", corrupt.join(", ")))
    }
}

/// `dist-train`: fault-tolerant multi-process training on the comms demo
/// task. One process runs `--role coordinator`; the others `--role
/// worker --connect ADDR`. Machine-readable markers go to stdout
/// (`LISTENING`, `JOINED`, `EVICTED`, `RESENT`, `PROGRESS`, `REPORT`) so
/// harnesses — and the crash-recovery integration test — can script it.
/// With `--data-dir` the coordinator trains from a packed shard
/// directory and ships sample *indices*; workers then need the same
/// `--data-dir` to gather batches from their own mmap of the shards.
fn cmd_dist_train(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    match flags.get("role").unwrap_or("coordinator") {
        "coordinator" => dist_coordinator(&flags),
        "standby" => dist_standby(&flags),
        "worker" => dist_worker(&flags),
        other => Err(format!(
            "unknown role `{other}` (coordinator|standby|worker)"
        )),
    }
}

/// The coordinator timing knobs shared by the coordinator and standby
/// roles; all validated together by `DistConfig::validate` at bind time.
const DIST_TIMING_FLAGS: &[&str] = &[
    "heartbeat-timeout-ms",
    "heartbeat-interval-ms",
    "work-resend-ms",
    "join-timeout-ms",
    "hello-timeout-ms",
    "lease-interval-ms",
    "lease-timeout-ms",
    "state-every",
    "term",
];

fn apply_timing_flags(flags: &Flags<'_>, dist: &mut DistConfig) -> Result<(), String> {
    let ms = |flags: &Flags<'_>, key: &str, default: Duration| -> Result<Duration, String> {
        Ok(Duration::from_millis(
            flags.parse_num(key, default.as_millis() as u64)?,
        ))
    };
    dist.heartbeat_timeout = ms(flags, "heartbeat-timeout-ms", dist.heartbeat_timeout)?;
    dist.heartbeat_interval = ms(flags, "heartbeat-interval-ms", dist.heartbeat_interval)?;
    dist.work_resend = ms(flags, "work-resend-ms", dist.work_resend)?;
    dist.join_timeout = ms(flags, "join-timeout-ms", dist.join_timeout)?;
    dist.hello_timeout = ms(flags, "hello-timeout-ms", dist.hello_timeout)?;
    dist.lease_interval = ms(flags, "lease-interval-ms", dist.lease_interval)?;
    dist.lease_timeout = ms(flags, "lease-timeout-ms", dist.lease_timeout)?;
    dist.state_every = flags.parse_num("state-every", dist.state_every)?;
    dist.term = flags.parse_num("term", dist.term)?;
    Ok(())
}

fn parse_topology(flags: &Flags<'_>) -> Result<Topology, String> {
    match flags.get("topology").unwrap_or("ps") {
        "ps" => Ok(Topology::Ps),
        "ring" => Ok(Topology::Ring),
        other => Err(format!("unknown topology `{other}` (ps|ring)")),
    }
}

fn cluster_event_hook() -> Arc<dyn Fn(ClusterEvent) + Send + Sync> {
    Arc::new(|event| match event {
        ClusterEvent::Joined { slot, rejoin } => {
            println!("JOINED slot={slot} rejoin={rejoin}")
        }
        ClusterEvent::Evicted { slot, reason } => {
            println!("EVICTED slot={slot} reason={reason}")
        }
        ClusterEvent::Resent { iter, attempt } => {
            println!("RESENT iter={iter} attempt={attempt}")
        }
        ClusterEvent::StandbyJoined { priority } => {
            println!("STANDBY-JOINED priority={priority}")
        }
    })
}

fn print_report(report: &DistReport) {
    println!(
        "REPORT evictions={} rejoins={} retries={} faults_injected={} bytes_sent={} \
         bytes_recv={} workers={} term={} checksum={:016x} final_acc={:.4} epochs={} iterations={}",
        report.counters.evictions,
        report.counters.rejoins,
        report.counters.retries,
        report.faults_injected,
        report.bytes_sent,
        report.bytes_recv,
        report.workers,
        report.term,
        report.model_checksum,
        report.curve.final_accuracy,
        report.curve.epoch_accuracy.len(),
        report.curve.iterations,
    );
}

fn dist_coordinator(flags: &Flags<'_>) -> Result<(), String> {
    let mut allowed = vec![
        "role",
        "workers",
        "topology",
        "algo",
        "epochs",
        "batch",
        "seed",
        "init-seed",
        "bind",
        "checkpoint-dir",
        "progress-every",
        "fault-seed",
        "drop",
        "delay-prob",
        "delay-us",
        "disconnect-after",
        "only-conn",
        "partition-start",
        "partition-len",
        "data-dir",
    ];
    allowed.extend_from_slice(DIST_TIMING_FLAGS);
    flags.reject_unknown(&allowed)?;
    let workers = flags.parse_num("workers", 2usize)?;
    let topology = parse_topology(flags)?;
    let mut dist = DistConfig::new(topology, workers);
    // A shard directory switches the run to the real data plane: the
    // coordinator trains from disk and ships indices, not payloads.
    let shard_train = match flags.get("data-dir") {
        Some(dir) => {
            dist = dist.with_index_work();
            let set = crossbow::shard::ShardedDataset::open(dir.as_ref())
                .map_err(|e| format!("open shard dir `{dir}`: {e}"))?;
            println!(
                "DATA dir={dir} shards={} samples={} bytes={} mmap={}",
                set.shard_count(),
                crossbow::data::SampleSource::len(&set),
                set.total_file_bytes(),
                set.fully_mmapped(),
            );
            Some(set)
        }
        None => None,
    };
    apply_timing_flags(flags, &mut dist)?;
    if flags.get("fault-seed").is_some() || flags.get("partition-start").is_some() {
        let seed: u64 = flags.parse_num("fault-seed", 0u64)?;
        let mut plan = NetFaultPlan::seeded(seed)
            .drop(flags.parse_num("drop", 0.0f64)?)
            .delay(
                flags.parse_num("delay-prob", 0.0f64)?,
                Duration::from_micros(flags.parse_num("delay-us", 1000u64)?),
            );
        if let Some(n) = flags.get("disconnect-after") {
            plan = plan.disconnect_after(
                n.parse()
                    .map_err(|_| "--disconnect-after expects a number")?,
            );
        }
        if let Some(start) = flags.get("partition-start") {
            let start: u64 = start
                .parse()
                .map_err(|_| "--partition-start expects a frame index")?;
            let len: u64 = flags.parse_num("partition-len", 4u64)?;
            plan = plan.partition(start, start + len);
        }
        if let Some(id) = flags.get("only-conn") {
            plan = plan.only_conn(id.parse().map_err(|_| "--only-conn expects a number")?);
        }
        dist = dist.with_fault(plan);
    }
    let telemetry = Telemetry::disabled();
    let coordinator =
        Coordinator::bind(flags.get("bind").unwrap_or("127.0.0.1:0"), dist, telemetry)
            .map_err(|e| format!("bind failed: {e}"))?
            .with_events(cluster_event_hook());
    println!(
        "LISTENING {}",
        coordinator.local_addr().map_err(|e| e.to_string())?
    );

    let (net, train_set, test_set) = demo_task();
    let mut algo = demo_algo(
        &net,
        workers,
        flags.get("algo").unwrap_or("sma"),
        flags.parse_num("init-seed", 3u64)?,
    );
    let mut trainer = TrainerConfig::new(
        flags.parse_num("batch", 8usize)?,
        flags.parse_num("epochs", 4usize)?,
    )
    .with_seed(flags.parse_num("seed", 11u64)?)
    .with_publish(PublishHook::new(
        flags.parse_num("progress-every", 5u64)?,
        |iter, _| println!("PROGRESS iter={iter}"),
    ));
    let checkpoint_dir = flags.get("checkpoint-dir");
    if let Some(dir) = checkpoint_dir {
        trainer = trainer.with_checkpointing(CheckpointConfig::new(dir));
    }
    // Disk-backed runs partition the shard set across the worker slots.
    let train_from_disk: Option<&dyn crossbow::data::SampleSource> = match &shard_train {
        Some(set) => {
            let n = crossbow::data::SampleSource::len(set);
            trainer = trainer.with_partition(crossbow::data::PartitionPlan::even(n, workers));
            Some(set)
        }
        None => None,
    };
    let train_source: &dyn crossbow::data::SampleSource = train_from_disk.unwrap_or(&train_set);
    let report = if checkpoint_dir.is_some() {
        coordinator
            .resume(&net, train_source, &test_set, algo.as_mut(), &trainer)
            .map_err(|e| format!("checkpoint store: {e}"))?
    } else {
        coordinator.run(&net, train_source, &test_set, algo.as_mut(), &trainer)
    };
    print_report(&report);
    Ok(())
}

/// `--role standby`: bind an advertised listener, register with the
/// primary for state replication, and — if its leases stop — take over
/// and finish the run, printing the same `REPORT` line a coordinator
/// would.
fn dist_standby(flags: &Flags<'_>) -> Result<(), String> {
    let mut allowed = vec![
        "role",
        "connect",
        "bind",
        "priority",
        "peers",
        "workers",
        "topology",
        "algo",
        "epochs",
        "batch",
        "seed",
        "init-seed",
        "progress-every",
    ];
    allowed.extend_from_slice(DIST_TIMING_FLAGS);
    flags.reject_unknown(&allowed)?;
    let connect = flags
        .get("connect")
        .ok_or("--role standby needs --connect ADDR")?;
    let listener = std::net::TcpListener::bind(flags.get("bind").unwrap_or("127.0.0.1:0"))
        .map_err(|e| format!("bind failed: {e}"))?;
    println!(
        "STANDBY LISTENING {}",
        listener.local_addr().map_err(|e| e.to_string())?
    );
    let workers = flags.parse_num("workers", 2usize)?;
    let mut dist = DistConfig::new(parse_topology(flags)?, workers);
    apply_timing_flags(flags, &mut dist)?;
    dist.validate()?;
    let mut scfg = StandbyConfig::new(connect);
    scfg.priority = flags.parse_num("priority", 1u32)?;
    if let Some(peers) = flags.get("peers") {
        scfg.peers = peers.split(',').map(str::to_string).collect();
    }
    let trainer = TrainerConfig::new(
        flags.parse_num("batch", 8usize)?,
        flags.parse_num("epochs", 4usize)?,
    )
    .with_seed(flags.parse_num("seed", 11u64)?)
    .with_publish(PublishHook::new(
        flags.parse_num("progress-every", 5u64)?,
        |iter, _| println!("PROGRESS iter={iter}"),
    ));
    let (net, train_set, test_set) = demo_task();
    let algo_name = flags.get("algo").unwrap_or("sma").to_string();
    let init_seed = flags.parse_num("init-seed", 3u64)?;
    let outcome = run_standby(
        &net,
        &train_set,
        &test_set,
        &|k| demo_algo(&net, k, &algo_name, init_seed),
        &trainer,
        &dist,
        &scfg,
        listener,
        Telemetry::disabled(),
        Some(cluster_event_hook()),
        &|event| match event {
            StandbyEvent::Registered { term } => println!("STANDBY REGISTERED term={term}"),
            StandbyEvent::State { term, seq, .. } if seq % 100 == 1 => {
                println!("STANDBY STATE term={term} seq={seq}")
            }
            StandbyEvent::State { .. } => {}
            StandbyEvent::Deferred { peer, term } => {
                println!("STANDBY DEFERRED peer={peer} term={term}")
            }
            StandbyEvent::TakingOver { term } => println!("STANDBY TAKEOVER term={term}"),
        },
    )
    .map_err(|e| format!("standby failed: {e}"))?;
    match outcome {
        StandbyOutcome::PrimaryFinished => println!("STANDBY DONE primary-finished"),
        StandbyOutcome::TookOver(report) => print_report(&report),
    }
    Ok(())
}

fn dist_worker(flags: &Flags<'_>) -> Result<(), String> {
    flags.reject_unknown(&[
        "role",
        "connect",
        "rejoin",
        "failover-retries",
        "jitter-seed",
        "data-dir",
    ])?;
    let connect = flags
        .get("connect")
        .ok_or("--role worker needs --connect ADDR[,FALLBACK...]")?;
    let mut addrs = connect.split(',').map(str::to_string);
    let mut cfg = WorkerConfig::new(addrs.next().expect("split yields at least one"));
    cfg.fallbacks = addrs.collect();
    cfg.rejoin = matches!(flags.get("rejoin"), Some("1") | Some("true"));
    cfg.failover_retries = flags.parse_num("failover-retries", 0u32)?;
    cfg.jitter_seed = flags.parse_num("jitter-seed", 0u64)?;
    let data: Option<Arc<dyn crossbow::data::SampleSource>> = match flags.get("data-dir") {
        Some(dir) => {
            let set = crossbow::shard::ShardedDataset::open(dir.as_ref())
                .map_err(|e| format!("open shard dir `{dir}`: {e}"))?;
            println!(
                "WORKER DATA dir={dir} shards={} samples={} mmap={}",
                set.shard_count(),
                crossbow::data::SampleSource::len(&set),
                set.fully_mmapped(),
            );
            Some(Arc::new(set))
        }
        None => None,
    };
    let (net, _, _) = demo_task();
    let telemetry = Telemetry::disabled();
    let on_event = |event: WorkerEvent| match event {
        WorkerEvent::Joined {
            slot,
            iterations,
            rejoin,
        } => println!("WORKER JOINED slot={slot} iter={iterations} rejoin={rejoin}"),
    };
    let outcome = run_worker_with_data(&net, data, &cfg, &telemetry, &on_event)
        .map_err(|e| format!("worker failed: {e}"))?;
    println!(
        "WORKER DONE slot={} rounds={} joined_at={} sessions={}",
        outcome.slot, outcome.rounds, outcome.joined_at_iteration, outcome.sessions
    );
    Ok(())
}

/// `crossbow chaos`: run one named, seeded chaos scenario and print its
/// `CHAOS-REPORT` marker. Exits non-zero when an invariant fails.
fn cmd_chaos(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.reject_unknown(&["scenario", "seed", "topology", "list"])?;
    if flags.get("list").is_some() {
        println!("chaos scenarios:");
        for s in ChaosScenario::all() {
            println!("  {}", s.name());
        }
        return Ok(());
    }
    let name = flags
        .get("scenario")
        .ok_or("chaos needs --scenario NAME (try --list 1)")?;
    let scenario = ChaosScenario::parse(name)
        .ok_or_else(|| format!("unknown scenario `{name}` (try --list 1)"))?;
    let opts = ChaosOptions {
        scenario,
        seed: flags.parse_num("seed", 7u64)?,
        topology: parse_topology(&flags)?,
        binary: std::env::current_exe().ok(),
        sim: Some(sim_phase()),
    };
    let telemetry = Telemetry::disabled();
    let report = run_chaos(&opts, &telemetry, &|line| println!("{line}"));
    println!("{}", report.marker());
    println!(
        "chaos counters: scenarios={} kills={} failed={}",
        telemetry.metrics.counter("chaos.scenarios").get(),
        telemetry.metrics.counter("chaos.kills").get(),
        telemetry.metrics.counter("chaos.failed").get(),
    );
    if report.pass {
        Ok(())
    } else {
        Err(format!("chaos invariant violated: {}", report.marker()))
    }
}

/// The cascade scenario's GPU-simulation phase: a seeded straggler +
/// transient-collective plan on a 4-GPU ResNet-32 run under the robust
/// driver, summarised into a deterministic fingerprint.
fn sim_phase() -> SimPhase {
    Box::new(|seed| {
        let mut sim = SimConfig::crossbow(ModelProfile::resnet32(), 4, 1, 64);
        sim.iterations = 32;
        let horizon = simulate(&sim).total_time;
        let plan = FaultPlan::from_seed(seed, 4, SimDuration::from_nanos(horizon.as_nanos()));
        let report = simulate_robust(&RobustSimConfig::new(sim, plan));
        let c = &report.faults;
        let mut checksum = 0xcbf2_9ce4_8422_2325u64;
        for v in [
            report.total_time.as_nanos(),
            c.task_retries,
            c.sync_retries,
            c.dropped_syncs,
            c.quarantines,
            c.rejoins,
            c.injected.total(),
        ] {
            checksum ^= v;
            checksum = checksum.wrapping_mul(0x0000_0100_0000_01b3);
        }
        SimPhaseReport {
            checksum,
            recovered: c.dropped_syncs == 0 && c.injected.total() > 0,
            faults: c.injected.total(),
        }
    })
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.reject_unknown(&["model", "gpus", "learners", "batch", "tau", "trace"])?;
    let benchmark = flags.benchmark()?;
    let gpus = flags.parse_num("gpus", 1usize)?;
    let m = flags.parse_num("learners", 1usize)?;
    let batch = flags.parse_num("batch", benchmark.profile.default_batch)?;
    let mut config = SimConfig::crossbow(benchmark.profile, gpus, m, batch);
    config.tau = match flags.get("tau") {
        None => Some(1),
        Some("inf") => None,
        Some(v) => Some(v.parse().map_err(|_| "--tau expects a number or `inf`")?),
    };
    let trace_path = flags.get("trace");
    config.record_trace = trace_path.is_some();
    let (report, machine) = simulate_with_machine(&config);
    println!(
        "{} on {gpus} GPU(s), m={m}, b={batch}:",
        benchmark.profile.name
    );
    println!("  throughput      : {:.0} images/s", report.throughput);
    println!("  iteration time  : {}", report.iteration_time);
    println!("  SM utilisation  : {:.0}%", report.utilisation * 100.0);
    println!(
        "  epoch time      : {}",
        report.epoch_time(benchmark.profile.train_samples)
    );
    if let Some(path) = trace_path {
        let timeline = Timeline::from_spans(machine.trace().to_spans());
        println!("  sync overlap    : {}", timeline.overlap());
        write_trace(path, &machine.trace().to_chrome_json(), timeline.len())?;
    }
    Ok(())
}

fn cmd_autotune(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.reject_unknown(&["model", "gpus", "batch"])?;
    let benchmark = flags.benchmark()?;
    let gpus = flags.parse_num("gpus", 1usize)?;
    let batch = flags.parse_num("batch", benchmark.profile.default_batch)?;
    let probe =
        |m: usize| simulate(&SimConfig::crossbow(benchmark.profile, gpus, m, batch)).throughput;
    let base = probe(1);
    let (chosen, observations) =
        tune_to_convergence(base * TUNER_TOLERANCE, MAX_LEARNERS_PER_GPU, probe);
    println!("{} on {gpus} GPU(s), b={batch}:", benchmark.profile.name);
    for (m, t) in &observations {
        println!(
            "  m={m}: {t:.0} images/s{}",
            if *m == chosen { "   <- chosen" } else { "" }
        );
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.reject_unknown(&[
        "workers",
        "max-batch",
        "max-delay-us",
        "mode",
        "clients",
        "requests",
        "rate",
        "epochs",
        "publish-every",
        "seed",
        "trace",
        "precision",
    ])?;
    let seed = flags.parse_num("seed", 42u64)?;
    let precision: Precision = flags.get("precision").unwrap_or("f32").parse()?;
    // One model and one class: `--clients` closed streams, or one open
    // stream paced at `--rate`.
    const MODEL: &str = "live";
    let stream = |arrival, requests| StreamSpec {
        model: MODEL.into(),
        class: SloClass::Standard,
        arrival,
        requests,
        deadline: Duration::from_secs(1),
    };
    let load = match flags.get("mode").unwrap_or("closed") {
        "closed" => vec![
            stream(Arrival::Closed, flags.parse_num("requests", 200usize)?);
            flags.parse_num("clients", 4usize)?
        ],
        "open" => vec![stream(
            Arrival::Open {
                rps: flags.parse_num("rate", 2000.0f64)?,
            },
            flags.parse_num("requests", 500usize)?,
        )],
        other => return Err(format!("unknown mode `{other}` (closed|open)")),
    };
    if load.is_empty() || load[0].requests == 0 {
        return Err("--clients and --requests must be positive".into());
    }
    let telemetry = flags.get("trace").map(|_| Telemetry::wall());
    let config = FleetConfig {
        batch: BatchConfig {
            max_batch: flags.parse_num("max-batch", 16usize)?,
            max_delay: Duration::from_micros(flags.parse_num("max-delay-us", 2000u64)?),
            ..BatchConfig::default()
        },
        initial_workers: flags.parse_num("workers", 2usize)?,
        telemetry: telemetry.clone(),
        ..FleetConfig::default()
    };

    // A Gaussian-mixture task small enough that training and serving both
    // run in seconds on one core.
    let net = Arc::new(mlp(6, &[16], 4));
    let (train_set, test_set) = crossbow::data::synth::gaussian_mixture(4, 6, 2560, 0.25, seed)
        .split_at(2048)
        .expect("demo split is in range");
    let mut rng = Rng::new(seed);
    let initial = net.init_params(&mut rng);
    let mut algo = Sma::new(initial, 4, SmaConfig::default());

    let mut trainer = TrainerConfig::new(16, flags.parse_num("epochs", 4usize)?).with_seed(seed);
    if let Some(t) = &telemetry {
        trainer = trainer.with_telemetry(t.clone());
    }
    let fleet = Fleet::builder(config)
        .model(MODEL, Arc::clone(&net))
        .start();
    let registry = fleet.registry(MODEL).expect("just registered");
    let config = FleetTrainConfig {
        live_model: MODEL.into(),
        trainer,
        publish_every: flags.parse_num("publish-every", 20u64)?,
        load,
        seed,
        precision,
    };
    let report = train_into_fleet(fleet, &net, &train_set, &test_set, &mut algo, &config);

    let streams = &report.load.streams;
    let submitted: u64 = streams.iter().map(|s| s.submitted).sum();
    let ok = report.load.total_ok();
    let rejected: u64 = streams.iter().map(|s| s.shed + s.rejected).sum();
    let failed: u64 = streams.iter().map(|s| s.failed).sum();
    let monotonic = report.load.versions_monotonic();
    let server = report.fleet.model(MODEL).expect("registered above");
    let served = registry
        .current()
        .ok_or("the live model lost its snapshot")?;
    println!("train-and-serve (mlp on a 4-class Gaussian mixture)");
    println!("---------------------------------------------------");
    println!(
        "trained            : {} iterations, final accuracy {:.3}",
        report.curve.iterations, report.curve.final_accuracy
    );
    println!(
        "load               : {submitted} submitted, {ok} ok, {rejected} rejected, {failed} failed"
    );
    println!(
        "snapshot versions  : {}..{} (monotonic per client: {monotonic})",
        streams.iter().map(|s| s.min_version).min().unwrap_or(0),
        streams.iter().map(|s| s.max_version).max().unwrap_or(0),
    );
    println!("server             : {}", server.summary());
    println!(
        "final precision    : {}{}",
        served.precision,
        match served.accuracy_delta {
            Some(d) => format!(" (accuracy delta vs f32: {d:+.4})"),
            None => String::new(),
        }
    );
    println!(
        "latency            : p50 {:?}  p95 {:?}  p99 {:?}",
        server.latency.p50, server.latency.p95, server.latency.p99
    );
    if let (Some(path), Some(t)) = (flags.get("trace"), &telemetry) {
        let timeline = t.recorder.timeline();
        let json = chrome::to_chrome_json(timeline.spans(), &[(HOST_DEVICE, "host")]);
        write_trace(path, &json, timeline.len())?;
    }
    // The invariants `crossbow fleet` checks: every submission got a
    // terminal answer, no closed client saw a version regress, and the
    // final round served at the requested precision.
    if failed > 0 || ok + rejected != submitted || !monotonic || served.precision != precision {
        return Err(
            "serve invariants violated (a failed or lost request, a version \
                    regress, or the wrong final precision)"
                .into(),
        );
    }
    Ok(())
}

/// Prints the per-(model, class) goodput table for one load round.
fn print_fleet_round(label: &str, names: &[String], report: &FleetLoadReport) {
    println!("{label}:");
    for name in names {
        let classes = [SloClass::Interactive, SloClass::Standard, SloClass::Batch];
        let cells: Vec<String> = classes
            .iter()
            .map(|&c| format!("{c} {}", report.goodput(name, c)))
            .collect();
        println!("  {name}: goodput {}", cells.join(", "));
    }
    for s in &report.streams {
        if s.shed + s.rejected + s.failed > 0 {
            println!(
                "  {}/{}: {} shed, {} rejected, {} failed",
                s.model, s.class, s.shed, s.rejected, s.failed
            );
        }
    }
}

fn cmd_fleet(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.reject_unknown(&[
        "models",
        "workers",
        "max-batch",
        "requests",
        "rate",
        "canary-pct",
        "autoscale",
        "seed",
        "trace",
        "precision",
    ])?;
    let seed = flags.parse_num("seed", 42u64)?;
    let n_models = flags.parse_num("models", 3usize)?.max(1);
    let requests = flags.parse_num("requests", 120usize)?.max(8);
    let rate = flags.parse_num("rate", 1200.0f64)?;
    let canary_pct: u8 = flags.parse_num("canary-pct", 30u8)?.min(100);
    let precision: Precision = flags.get("precision").unwrap_or("f32").parse()?;
    let autoscale = flags.parse_num("autoscale", 1u8)? != 0;
    let telemetry = flags.get("trace").map(|_| Telemetry::wall());

    let config = FleetConfig {
        batch: BatchConfig {
            max_batch: flags.parse_num("max-batch", 4usize)?,
            max_delay: Duration::from_micros(500),
            queue_depth: 32,
        },
        initial_workers: flags.parse_num("workers", 1usize)?,
        work_stealing: true,
        // The forward pass is microseconds on these tiny models; a fixed
        // synthetic service time makes overload and scaling observable.
        synthetic_delay: Some(Duration::from_millis(5)),
        autoscaler: autoscale.then(|| AutoscalerConfig {
            slo_p99: Duration::from_millis(25),
            queue_high_water: 8,
            shrink_margin: 0.5,
            min_workers: 1,
            max_workers: 4,
            cooldown_ticks: 0,
            interval: None,
        }),
        telemetry: telemetry.clone(),
    };

    let net = Arc::new(mlp(6, &[16], 4));
    let names: Vec<String> = (0..n_models).map(|i| format!("model-{i}")).collect();
    let mut builder = Fleet::builder(config);
    for name in &names {
        builder = builder.model(name, Arc::clone(&net));
    }
    let fleet = builder.start();
    let mut rng = Rng::new(seed);
    for name in &names {
        let registry = fleet.registry(name).expect("just registered");
        registry
            .publish(net.init_params(&mut rng), 1)
            .map_err(|e| format!("publish {name}: {e}"))?;
    }
    let inputs: Vec<Vec<f32>> = (0..64)
        .map(|_| (0..6).map(|_| rng.uniform(-1.0, 1.0)).collect())
        .collect();
    let client = fleet.client();

    // Phase 1 — overload: every model floods with open-loop Batch
    // traffic past pool capacity while closed Interactive/Standard
    // streams keep submitting; queues fill, Batch work is shed first.
    let mut specs = Vec::new();
    for name in &names {
        specs.push(StreamSpec {
            model: name.clone(),
            class: SloClass::Batch,
            arrival: Arrival::Open { rps: rate },
            requests,
            deadline: Duration::from_millis(50),
        });
        specs.push(StreamSpec {
            model: name.clone(),
            class: SloClass::Interactive,
            arrival: Arrival::Closed,
            requests: requests / 4,
            deadline: Duration::from_millis(100),
        });
        specs.push(StreamSpec {
            model: name.clone(),
            class: SloClass::Standard,
            arrival: Arrival::Closed,
            requests: requests / 4,
            deadline: Duration::from_millis(200),
        });
    }
    let overload = run_fleet_load(&client, &inputs, &specs, seed);
    fleet.tick();
    print_fleet_round("phase 1 (overload)", &names, &overload);

    // Phase 2 — canary: stage a candidate on model-0 as a canary and
    // (with >1 model) shadow-mirror model-1, then drive moderate closed
    // load; canary replies carry the id-fraction split. At f32 the
    // candidate is a fresh parameter set; at bf16/int8 it is the
    // *current primary quantized* — the staged-rollout path for a
    // reduced-precision build, with its accuracy delta measured on a
    // labelled mixture set before any traffic touches it.
    let canary_model = names[0].clone();
    let mut staged_delta = None;
    if precision == Precision::F32 {
        fleet
            .stage_candidate(
                &canary_model,
                net.init_params(&mut rng),
                CandidateMode::Canary {
                    percent: canary_pct,
                },
            )
            .map_err(|e| format!("stage canary: {e}"))?;
    } else {
        let primary = fleet
            .registry(&canary_model)
            .expect("registered above")
            .current()
            .expect("published above");
        let quant = Arc::new(net.quantize(&primary.params, precision));
        let eval = crossbow::data::synth::gaussian_mixture(4, 6, 512, 0.25, seed ^ 7);
        let delta = crossbow::nn::accuracy_delta(
            &net,
            &primary.params,
            &quant,
            &eval.images_tensor(),
            eval.labels(),
            64,
        );
        staged_delta = Some(delta);
        fleet
            .stage_quantized_candidate(
                &canary_model,
                quant,
                Some(delta),
                CandidateMode::Canary {
                    percent: canary_pct,
                },
            )
            .map_err(|e| format!("stage quantized canary: {e}"))?;
        println!(
            "staged {precision} canary on {canary_model} (accuracy delta vs f32: {delta:+.4})"
        );
    }
    if let Some(shadow_model) = names.get(1) {
        fleet
            .stage_candidate(
                shadow_model,
                net.init_params(&mut rng),
                CandidateMode::Shadow,
            )
            .map_err(|e| format!("stage shadow: {e}"))?;
    }
    let specs: Vec<StreamSpec> = names
        .iter()
        .map(|name| StreamSpec {
            model: name.clone(),
            class: SloClass::Standard,
            arrival: Arrival::Closed,
            requests: requests / 2,
            deadline: Duration::from_millis(100),
        })
        .collect();
    let canary_round = run_fleet_load(&client, &inputs, &specs, seed ^ 1);
    let promoted = fleet
        .promote(&canary_model, 2)
        .map_err(|e| format!("promote: {e}"))?;
    let canary_registry = fleet.registry(&canary_model).expect("registered above");
    if let Some(shadow_model) = names.get(1) {
        fleet.abort_candidate(shadow_model).ok();
    }
    fleet.tick();
    print_fleet_round("phase 2 (canary + shadow)", &names, &canary_round);

    // Phase 3 — calm: light closed traffic sees the promoted version;
    // the probe now reads headroom and shrinks the pools back down.
    let specs: Vec<StreamSpec> = names
        .iter()
        .map(|name| StreamSpec {
            model: name.clone(),
            class: SloClass::Standard,
            arrival: Arrival::Closed,
            requests: (requests / 8).max(4),
            deadline: Duration::from_millis(200),
        })
        .collect();
    let calm = run_fleet_load(&client, &inputs, &specs, seed ^ 2);
    fleet.tick();
    print_fleet_round("phase 3 (calm)", &names, &calm);

    let report = fleet.shutdown();
    println!("{}", report.summary());
    if let (Some(path), Some(t)) = (flags.get("trace"), &telemetry) {
        let timeline = t.recorder.timeline();
        let json = chrome::to_chrome_json(timeline.spans(), &[(HOST_DEVICE, "host")]);
        write_trace(path, &json, timeline.len())?;
    }

    // Invariants the run must uphold; ci.sh greps the marker line.
    let rounds = [&overload, &canary_round, &calm];
    let answered = rounds.iter().all(|r| {
        r.streams
            .iter()
            .all(|s| s.failed == 0 && s.ok + s.shed + s.rejected == s.submitted)
    });
    let monotonic = rounds.iter().all(|r| r.versions_monotonic());
    let canary_seen = canary_pct == 0 || canary_round.streams.iter().any(|s| s.canary > 0);
    let promoted_ok =
        promoted == Some(2) && report.model(&canary_model).map(|m| m.max_version) == Some(2);
    let scaled = !autoscale || report.scaled_both_ways();
    // With a quantized candidate, promotion must carry the precision and
    // its measured accuracy delta into the primary snapshot.
    let final_snapshot = canary_registry
        .current()
        .ok_or("canary model lost its snapshot")?;
    let precision_ok =
        final_snapshot.precision == precision && final_snapshot.accuracy_delta == staged_delta;
    let pass = answered && monotonic && canary_seen && promoted_ok && scaled && precision_ok;
    println!(
        "FLEET-REPORT pass={pass} answered={answered} monotonic={monotonic} \
         canary={canary_seen} promoted={promoted_ok} scaled={scaled} \
         precision={} precision_ok={precision_ok} \
         completed={} shed={} decisions={}",
        final_snapshot.precision,
        report.total_completed(),
        report.total_shed(),
        report.decisions.len(),
    );
    if !pass {
        return Err("fleet invariants violated (see FLEET-REPORT line)".into());
    }
    Ok(())
}

fn cmd_models() -> Result<(), String> {
    println!("available benchmarks:");
    for b in Benchmark::all() {
        println!(
            "  {:<10} {:<12} default batch {:<4} target {:.0}%",
            b.name,
            b.profile.dataset,
            b.profile.default_batch,
            b.scaled_target * 100.0
        );
    }
    Ok(())
}
