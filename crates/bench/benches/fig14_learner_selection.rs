//! Figure 14: selecting the number of learners per GPU.
//!
//! ResNet-32 (b=64) and VGG (b=256): TTA and throughput improvement over
//! m=1 for growing m, plus the auto-tuner's pick. The paper's claim: the
//! m that saturates throughput is also the m that minimises TTA, so
//! tuning on throughput alone (Algorithm 2) finds the best configuration.

use crossbow::autotuner::tune_to_convergence;
use crossbow::benchmark::Benchmark;
use crossbow::engine::AlgorithmKind;
use crossbow::exec_sim::{simulate, SimConfig};
use crossbow_bench::{epochs, fmt_tta, full_run, quick_mode, section, table};

fn main() {
    let cases: Vec<(Benchmark, usize, usize)> = if quick_mode() {
        vec![(Benchmark::resnet32(), 1, 64)]
    } else {
        vec![
            (Benchmark::resnet32(), 1, 64),
            (Benchmark::resnet32(), 8, 64),
            (Benchmark::vgg16(), 1, 256),
        ]
    };
    let ms: &[usize] = if quick_mode() { &[1, 2] } else { &[1, 2, 3, 4] };
    for (benchmark, gpus, batch) in cases {
        let budget = epochs(40);
        section(&format!(
            "Figure 14 ({}, g={gpus}, b={batch}): TTA and throughput vs m",
            benchmark.name
        ));
        // The auto-tuner's pick, from throughput probes alone.
        let probe =
            |m: usize| simulate(&SimConfig::crossbow(benchmark.profile, gpus, m, batch)).throughput;
        let base = probe(1);
        let (chosen, _) = tune_to_convergence(base * 0.05, 6, probe);

        let mut rows = Vec::new();
        let mut t1 = None;
        for &m in ms {
            let row = full_run(
                benchmark,
                AlgorithmKind::Sma { tau: 1 },
                gpus,
                Some(m),
                batch,
                budget,
                benchmark.scaled_target,
                42,
            );
            let t1v = *t1.get_or_insert(row.throughput);
            rows.push(vec![
                m.to_string(),
                format!("{:+.0}%", (row.throughput / t1v - 1.0) * 100.0),
                fmt_tta(row.tta_secs),
                if m == chosen {
                    "<- tuner".to_string()
                } else {
                    String::new()
                },
            ]);
        }
        table(&["m", "throughput vs m=1", "TTA", "auto-tuner"], &rows);
    }
    println!();
    println!("  paper: throughput saturates at m=4 (1 GPU) / m=2 (8 GPUs), matching");
    println!("  the m that minimises TTA; the tuner stops there (§5.4).");
}
