//! The one catalogue of workloads and metrics.
//!
//! `BENCHMARK.json` at the repository root is generated from this file
//! (`--catalog`); a unit test fails when the committed file drifts. The
//! result line is checked against the same tables before it is printed,
//! so a metric can be neither forgotten nor misnamed.

/// How long one run measures at full size. Training workloads run a
/// fixed number of steps sized for this; `--seconds` scales the work
/// linearly (`--seconds 1` is the 1/16 smoke size).
pub const RUN_SECONDS: u32 = 16;

/// The command the driver runs from the root of a checkout, before the
/// `--workload … --seed … --seconds … --trace …` arguments.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perf/Cargo.toml",
    "--",
];

/// The directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["perf"];

/// One set of inputs the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TrainConv,
    TrainSmallbatch,
    DistPs,
    ServeF32,
    ServeInt8,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::TrainConv,
        Workload::TrainSmallbatch,
        Workload::DistPs,
        Workload::ServeF32,
        Workload::ServeInt8,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainConv => "train_conv",
            Workload::TrainSmallbatch => "train_smallbatch",
            Workload::DistPs => "dist_ps",
            Workload::ServeF32 => "serve_f32",
            Workload::ServeInt8 => "serve_int8",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload was chosen: which layers it stresses and which it
    /// bypasses (one line; goes into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::TrainConv => {
                "ResNet on the concurrent task engine, 2 learners at b=16: im2col+GEMM and nn do \
                 most of the work; data, sync, checkpoint and comms almost none"
            }
            Workload::TrainSmallbatch => {
                "MLP at b=2 from mmap shards with a durable checkpoint every 25 steps: the step \
                 driver, SMA step and fsync dominate, so tensor speed-ups should not show"
            }
            Workload::DistPs => {
                "coordinator plus 2 TCP workers moving 8.6 MB per round: comms (encode, framing, \
                 socket) dominates the same sync loop driven through a remote gradient source"
            }
            Workload::ServeF32 => {
                "one fleet model under seeded Poisson load at fixed and saturation-relative \
                 rates: queueing, batching, shedding and forward-only f32 dense GEMM"
            }
            Workload::ServeInt8 => {
                "the same fleet with an int8 canary promoted mid-load: the quantised kernels \
                 instead of f32 GEMM, and a publish racing reads"
            }
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see, with the share of the
/// parent's median by which it may worsen before a change is rejected.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Named by role because every workload reports all of them; what each
/// means per workload is in `perf/README.md`.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "samples_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_tail",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "accuracy",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "goodput_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of a single layer, from the traced run. No bound.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn up(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn down(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

/// Grouped by layer (crate). A layer the workload never enters reads 0.
pub const PER_LAYER: [PerLayer; 71] = [
    // tensor: kernels replayed at the workload's shapes.
    up("tensor.gemm_conv_gflops", "GFLOP/s"),
    up("tensor.im2col_gb_per_s", "GB/s"),
    up("tensor.gemm_dense_b1_gflops", "GFLOP/s"),
    up("tensor.gemm_dense_b16_gflops", "GFLOP/s"),
    up("tensor.int8_b1_gops", "GOP/s"),
    up("tensor.int8_b16_gops", "GOP/s"),
    down("tensor.arena_fresh_allocs", "count"),
    up("tensor.kernel_tier", "count"),
    // nn: one learner's step and forward-only inference.
    down("nn.loss_and_grad_us", "us"),
    down("nn.fwd_share", "ratio"),
    down("nn.share_conv", "ratio"),
    down("nn.share_norm", "ratio"),
    down("nn.share_dense", "ratio"),
    down("nn.share_other", "ratio"),
    down("nn.eval_us_b1", "us"),
    down("nn.eval_us_b16", "us"),
    // data, shard: gathering batches, packing and opening shards.
    down("data.gather_us_per_step", "us"),
    down("data.gather_share", "ratio"),
    up("data.gather_ram_samples_per_s", "1/s"),
    up("shard.gather_mmap_samples_per_s", "1/s"),
    up("shard.pack_mb_per_s", "MB/s"),
    down("shard.open_verify_ms", "ms"),
    // sync: the step driver; shares of the trainer thread's wall.
    down("sync.step_us", "us"),
    down("sync.grad_round_us", "us"),
    down("sync.round_overhead_us", "us"),
    up("sync.grad_round_share", "ratio"),
    down("sync.step_share", "ratio"),
    down("sync.eval_share", "ratio"),
    down("sync.driver_other_share", "ratio"),
    // checkpoint: durable saves on the trainer thread.
    up("checkpoint.saves", "count"),
    down("checkpoint.bytes_per_save", "B"),
    down("checkpoint.save_ms_p50", "ms"),
    down("checkpoint.save_ms_p99", "ms"),
    down("checkpoint.stall_share", "ratio"),
    // comms: the distributed round.
    down("comms.bytes_per_round", "B"),
    down("comms.round_ms_p50", "ms"),
    down("comms.round_ms_p99", "ms"),
    down("comms.wire_wait_share", "ratio"),
    up("comms.encode_mb_per_s", "MB/s"),
    up("comms.decode_mb_per_s", "MB/s"),
    up("comms.loopback_mb_per_s", "MB/s"),
    down("comms.retries", "count"),
    down("comms.evictions", "count"),
    // core: the concurrent task engine's lanes.
    up("core.learn_share", "ratio"),
    down("core.local_sync_share", "ratio"),
    down("core.batch_fetch_share", "ratio"),
    down("core.lane_idle_share", "ratio"),
    down("core.global_sync_share", "ratio"),
    down("core.eval_share", "ratio"),
    up("core.sync_overlap_ratio", "ratio"),
    down("core.step_ms_p50", "ms"),
    down("core.step_ms_p99", "ms"),
    down("core.epochs_to_target", "count"),
    // serve, fleet: publishing, admission, batching, shedding.
    down("serve.publish_us", "us"),
    down("serve.snapshot_load_ms", "ms"),
    down("fleet.submit_us", "us"),
    down("fleet.gen_lateness_ms_p99", "ms"),
    down("fleet.p99_ms_r2", "ms"),
    up("fleet.mean_batch_size_r2", "count"),
    up("fleet.mean_batch_size_r3", "count"),
    down("fleet.infer_busy_share_r2", "ratio"),
    down("fleet.infer_busy_share_r3", "ratio"),
    up("fleet.goodput_interactive_r3", "ratio"),
    up("fleet.goodput_standard_r3", "ratio"),
    up("fleet.goodput_batch_r3", "ratio"),
    down("fleet.shed_r3", "count"),
    down("fleet.rejected_r3", "count"),
    down("fleet.lost", "count"),
    // telemetry: the cost and fidelity of observing.
    down("telemetry.trace_overhead_share", "ratio"),
    up("telemetry.spans_recorded", "count"),
    down("telemetry.hist_p99_rel_err", "ratio"),
];

fn json_str(s: &str) -> String {
    format!("\"{}\"", crossbow::telemetry::chrome::escape(s))
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let list = |items: &[&str]| {
        let quoted: Vec<String> = items.iter().map(|s| json_str(s)).collect();
        quoted.join(", ")
    };
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name()),
                json_str(w.why())
            )
        })
        .collect();
    let metric = |name: &str, unit: &str, better: Better| {
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}",
            json_str(name),
            json_str(unit),
            json_str(better.name())
        )
    };
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{}, \"bound\": {}}}",
                metric(m.name, m.unit, m.better),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| format!("{}}}", metric(m.name, m.unit, m.better)))
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(&COMMAND),
        list(&PATHS),
        rows(workloads),
        rows(end_to_end),
        rows(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for w in Workload::ALL {
            assert!(valid_name(w.name()), "{}", w.name());
            assert!(seen.insert(w.name()), "duplicate {}", w.name());
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert_eq!(Workload::by_name(w.name()), Some(w));
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(Workload::by_name("train").is_none());
    }

    #[test]
    fn the_contract_counts_hold() {
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert_eq!(PER_LAYER.len(), 71);
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
        // 4 + 22 runs per workload, each with set-up, inside 3420 s.
        let runs = 4 + 22 * Workload::ALL.len() as u32;
        assert!(runs * (RUN_SECONDS + 9) + 2 * 120 <= 3420, "{runs} runs");
    }

    #[test]
    fn committed_benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "BENCHMARK.json drifted from perf/src/catalog.rs; regenerate it with \
             `cargo run --release --offline --manifest-path perf/Cargo.toml -- --catalog > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
        crossbow::telemetry::json::Json::parse(&committed).expect("valid JSON");
    }
}
