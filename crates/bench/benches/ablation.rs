//! Ablations of the design choices DESIGN.md calls out (all simulator
//! runs — seconds, not minutes):
//!
//! 1. **overlap** — the Figure 8 pipelining of global synchronisation
//!    with the next iteration's learning tasks, vs a global barrier;
//! 2. **interconnect** — ring all-reduce over the PCIe tree vs NVLink
//!    pair bridges (the §2.2 alternative);
//! 3. **memory plans** — no reuse vs the offline plan vs shared online
//!    pools (§4.5).

use crossbow::benchmark::Benchmark;
use crossbow::exec_sim::{simulate, SimConfig};
use crossbow::gpu_sim::collective::ring_all_reduce_duration;
use crossbow::gpu_sim::topology::{Topology, NVLINK_PASCAL, PCIE3_X16};
use crossbow::gpu_sim::SimDuration;
use crossbow::memory::{offline_plan, shared_plan};
use crossbow::nn::graph::OpGraph;
use crossbow::nn::ModelProfile;
use crossbow_bench::{section, table};

fn main() {
    overlap_ablation();
    interconnect_ablation();
    memory_ablation();
}

fn overlap_ablation() {
    section("Ablation 1: sync/learn overlap (Figure 8) vs global barrier");
    let mut rows = Vec::new();
    for (profile, batch) in [
        (ModelProfile::lenet(), 4usize),
        (ModelProfile::resnet32(), 64),
        (ModelProfile::resnet50(), 16),
    ] {
        for (gpus, m) in [(8usize, 1usize), (8, 2)] {
            let overlapped = simulate(&SimConfig::crossbow(profile, gpus, m, batch));
            let mut barrier_cfg = SimConfig::crossbow(profile, gpus, m, batch);
            barrier_cfg.force_barrier = true;
            let barrier = simulate(&barrier_cfg);
            rows.push(vec![
                profile.name.to_string(),
                format!("g={gpus} m={m}"),
                format!("{:.0}", overlapped.throughput),
                format!("{:.0}", barrier.throughput),
                format!(
                    "{:+.1}%",
                    (overlapped.throughput / barrier.throughput - 1.0) * 100.0
                ),
            ]);
        }
    }
    table(
        &[
            "model",
            "config",
            "overlapped img/s",
            "barrier img/s",
            "overlap gain",
        ],
        &rows,
    );
}

fn interconnect_ablation() {
    section("Ablation 2: all-reduce over PCIe tree vs NVLink pair bridges");
    let lat = SimDuration::from_micros(20);
    let mut rows = Vec::new();
    for profile in [
        ModelProfile::resnet32(),
        ModelProfile::vgg16(),
        ModelProfile::resnet50(),
    ] {
        for gpus in [2usize, 8] {
            let pcie = Topology::binary_tree(gpus, PCIE3_X16);
            let nvlink = Topology::binary_tree(gpus, PCIE3_X16).with_nvlink_pairs(NVLINK_PASCAL);
            let d_pcie = ring_all_reduce_duration(
                profile.model_bytes(),
                gpus,
                pcie.ring_bottleneck_bandwidth(),
                lat,
            );
            let d_nv = ring_all_reduce_duration(
                profile.model_bytes(),
                gpus,
                nvlink.ring_bottleneck_bandwidth(),
                lat,
            );
            rows.push(vec![
                profile.name.to_string(),
                format!("g={gpus}"),
                d_pcie.to_string(),
                d_nv.to_string(),
                format!("{:.2}x", d_pcie.as_nanos() as f64 / d_nv.as_nanos() as f64),
            ]);
        }
    }
    table(
        &[
            "model",
            "gpus",
            "PCIe all-reduce",
            "NVLink all-reduce",
            "speed-up",
        ],
        &rows,
    );
    println!();
    println!("  NVLink only bridges pair mates; an 8-GPU ring still crosses PCIe,");
    println!("  so the bridge pays off only for 2-GPU collectives — one reason the");
    println!("  paper's testbed all-reduces over the PCIe tree.");
}

fn memory_ablation() {
    section("Ablation 3: memory plans (no reuse / offline / shared online pools)");
    let mut rows = Vec::new();
    for benchmark in Benchmark::all() {
        let net = benchmark.network();
        let graph = OpGraph::from_network(&net, benchmark.stat_batch);
        let none = graph.total_output_bytes();
        let offline = offline_plan(&graph);
        let m = 4;
        let shared = shared_plan(&graph, m, graph.ops.len() / 2);
        rows.push(vec![
            benchmark.name.to_string(),
            format!("{:.2}", none as f64 / 1e6),
            format!(
                "{:.2} ({:.0}%)",
                offline.bytes_allocated as f64 / 1e6,
                offline.savings() * 100.0
            ),
            format!(
                "{:.2} vs {:.2}",
                shared.peak_bytes as f64 / 1e6,
                (m * offline.peak_bytes) as f64 / 1e6
            ),
        ]);
    }
    table(
        &[
            "model",
            "no reuse (MB)",
            "offline plan (MB, saved)",
            "4 learners shared vs private peak (MB)",
        ],
        &rows,
    );
}
