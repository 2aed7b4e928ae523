//! Figure 3: statistical efficiency of S-SGD vs batch size.
//!
//! Epochs for the TensorFlow-style baseline to reach 80% test accuracy as
//! the aggregate batch grows from 64 to 1,024 (full scale; the synthetic
//! task trains at `Benchmark::scale_batch` of each). The paper fixes the
//! learning rate while growing the batch — that fixed γ is exactly why
//! large batches lose statistical efficiency (fewer updates per epoch at
//! the same step size). We do the same with γ = 0.05: the plateau-regime
//! rate used by the TTA experiments (0.2) is large enough that, on the
//! 25x-smaller synthetic task, even seven-update epochs converge, which
//! would compress the sweep (see EXPERIMENTS.md).
//!
//! Paper shape: flat-ish up to a threshold (~256), then super-linear.

use crossbow::benchmark::Benchmark;
use crossbow::sync::optimizer::SgdConfig;
use crossbow::sync::ssgd::SSgd;
use crossbow::sync::{train, LrSchedule, TrainerConfig};
use crossbow::tensor::Rng;
use crossbow_bench::{epochs, fmt_eta, quick_mode, section, table};

fn main() {
    let benchmark = Benchmark::resnet32();
    let target = 0.80;
    let budget = epochs(80);
    let batches: &[usize] = if quick_mode() {
        &[64, 256, 1024]
    } else {
        &[64, 128, 256, 512, 1024]
    };
    let net = benchmark.network();
    let (train_set, test_set) = benchmark.dataset(42);
    let init = net.init_params(&mut Rng::new(42 ^ 0xC0FFEE));

    section("Figure 3: epochs to 80% test accuracy vs aggregate batch size (S-SGD, fixed lr)");
    println!(
        "  (full-scale batch -> synthetic batch: {}; gamma = 0.05; budget {budget} epochs)",
        batches
            .iter()
            .map(|&b| format!("{b}->{}", benchmark.scale_batch(b)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let mut rows = Vec::new();
    for &aggregate in batches {
        let stat_batch = benchmark.scale_batch(aggregate);
        let config = TrainerConfig {
            batch_per_learner: stat_batch,
            max_epochs: budget,
            target_accuracy: Some(target),
            schedule: LrSchedule::Constant { lr: 0.05 },
            weight_decay: 1e-4,
            seed: 42,
            threads: 1,
            guard: None,
            inject_nan_at: None,
            checkpoint: None,
            crash_after: None,
            publish: None,
            state_hook: None,
            telemetry: None,
            partition: None,
        };
        let t0 = std::time::Instant::now();
        let mut algo = SSgd::new(init.clone(), 1, SgdConfig::paper_default());
        let curve = train(&net, &train_set, &test_set, &mut algo, &config);
        eprintln!(
            "    [fig03 b={aggregate}: {} epochs in {:.1}s]",
            curve.epochs(),
            t0.elapsed().as_secs_f64()
        );
        rows.push(vec![
            aggregate.to_string(),
            stat_batch.to_string(),
            fmt_eta(curve.epochs_to_target),
            format!("{:.3}", curve.best_accuracy()),
        ]);
    }
    table(
        &[
            "aggregate batch",
            "synthetic batch",
            "epochs to 80%",
            "best acc",
        ],
        &rows,
    );
    println!();
    println!("  paper: ~18-25 epochs up to batch 256, then 45 (512) and 85 (1024).");
}
