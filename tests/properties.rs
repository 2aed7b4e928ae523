//! Randomised tests of cross-crate invariants.
//!
//! These used to be `proptest` properties; the tier-1 build now runs
//! without registry access, so each property is exercised over a fixed
//! budget of seeded random cases drawn from the in-repo
//! [`crossbow::tensor::Rng`]. Failures print the offending case, which —
//! the generator being deterministic — is immediately reproducible.

use crossbow::gpu_sim::collective::ring_all_reduce_duration;
use crossbow::gpu_sim::SimDuration;
use crossbow::memory::{offline_plan, shared_plan};
use crossbow::nn::graph::OpGraph;
use crossbow::nn::zoo::mlp;
use crossbow::sync::algorithm::SyncAlgorithm;
use crossbow::sync::optimizer::SgdConfig;
use crossbow::sync::sma::{Sma, SmaConfig};
use crossbow::sync::ssgd::SSgd;
use crossbow::tensor::Rng;

const CASES: u64 = 64;

/// Uniform integer in `[lo, hi)` from the repo Rng.
fn pick(rng: &mut Rng, lo: usize, hi: usize) -> usize {
    lo + (rng.next_u64() % (hi - lo) as u64) as usize
}

/// SMA's central model stays finite under arbitrary bounded gradients.
#[test]
fn sma_center_stays_bounded() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xA11CE ^ case);
        let k = pick(&mut rng, 1, 6);
        let steps = pick(&mut rng, 1, 30);
        let lr = rng.uniform(0.001, 0.3);
        let dim = 8;
        let init: Vec<f32> = (0..dim).map(|_| rng.normal()).collect();
        let mut sma = Sma::new(init, k, SmaConfig::default());
        for _ in 0..steps {
            let grads: Vec<Vec<f32>> = (0..k)
                .map(|_| (0..dim).map(|_| rng.normal()).collect())
                .collect();
            sma.step(&grads, lr);
        }
        assert!(
            sma.consensus().iter().all(|v| v.is_finite()),
            "case {case}: k={k} steps={steps} lr={lr}"
        );
        for j in 0..k {
            assert!(
                sma.replica(j).iter().all(|v| v.is_finite()),
                "case {case}: replica {j}"
            );
        }
    }
}

/// With zero gradients and no momentum, the centre converges to the
/// replica mean and replicas contract toward it (the model-averaging
/// fixed point).
#[test]
fn sma_contracts_to_the_replica_mean() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xC0111DE ^ case);
        let k = pick(&mut rng, 2, 6);
        let dim = 4;
        let mut sma = Sma::new(
            vec![0.0; dim],
            k,
            SmaConfig {
                momentum: 0.0,
                alpha: None,
                tau: 1,
            },
        );
        // Scatter replicas with one unit-lr gradient step, then run
        // zero-gradient steps: the spread must contract essentially to 0.
        let targets: Vec<Vec<f32>> = (0..k)
            .map(|_| (0..dim).map(|_| rng.normal() * 3.0).collect())
            .collect();
        let grads: Vec<Vec<f32>> = targets
            .iter()
            .map(|t| t.iter().map(|&tv| -tv).collect())
            .collect();
        sma.step(&grads, 1.0);
        let spread_before = crossbow::sync::algorithm::replica_spread(&sma);
        for _ in 0..50 {
            sma.step(&vec![vec![0.0; dim]; k], 0.0);
        }
        let spread_after = crossbow::sync::algorithm::replica_spread(&sma);
        assert!(
            spread_after <= spread_before * 0.05 + 1e-6,
            "case {case}: spread {spread_before} -> {spread_after}"
        );
    }
}

/// S-SGD replicas remain identical whatever the gradients are.
#[test]
fn ssgd_replicas_never_diverge() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x55D6 ^ case);
        let k = pick(&mut rng, 1, 6);
        let steps = pick(&mut rng, 1, 20);
        let dim = 6;
        let init: Vec<f32> = (0..dim).map(|_| rng.normal()).collect();
        let mut algo = SSgd::new(init, k, SgdConfig::paper_default());
        for _ in 0..steps {
            let grads: Vec<Vec<f32>> = (0..k)
                .map(|_| (0..dim).map(|_| rng.normal()).collect())
                .collect();
            algo.step(&grads, 0.05);
        }
        assert_eq!(
            crossbow::sync::algorithm::replica_spread(&algo),
            0.0,
            "case {case}: k={k} steps={steps}"
        );
    }
}

/// Ring all-reduce duration is monotone in bytes and participants.
#[test]
fn all_reduce_duration_is_monotone() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xA117 ^ case);
        let bytes = 1 + rng.next_u64() % 1_000_000_000;
        let k = pick(&mut rng, 2, 16);
        let lat = SimDuration::from_micros(20);
        let d = ring_all_reduce_duration(bytes, k, 12e9, lat);
        let d_more_bytes = ring_all_reduce_duration(bytes * 2, k, 12e9, lat);
        let d_more_peers = ring_all_reduce_duration(bytes, k + 1, 12e9, lat);
        let d_faster_link = ring_all_reduce_duration(bytes, k, 24e9, lat);
        assert!(d_more_bytes >= d, "case {case}: bytes={bytes} k={k}");
        assert!(d_more_peers >= d, "case {case}: bytes={bytes} k={k}");
        assert!(d_faster_link <= d, "case {case}: bytes={bytes} k={k}");
    }
}

/// The memory planner never allocates more than the no-reuse footprint,
/// and peak usage never exceeds allocation.
#[test]
fn memory_plan_bounds_hold() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x3E3 ^ case);
        let hidden1 = pick(&mut rng, 1, 64);
        let hidden2 = pick(&mut rng, 1, 64);
        let batch = pick(&mut rng, 1, 32);
        let net = mlp(12, &[hidden1, hidden2], 5);
        let graph = OpGraph::from_network(&net, batch);
        let plan = offline_plan(&graph);
        assert!(
            plan.bytes_allocated <= plan.bytes_without_reuse,
            "case {case}: h=({hidden1},{hidden2}) b={batch}"
        );
        assert!(plan.peak_bytes <= plan.bytes_allocated, "case {case}");
        assert!(plan.savings() >= 0.0, "case {case}");
    }
}

/// Shared pools never beat physics: peak of m learners is at least a
/// single learner's peak and at most m times it.
#[test]
fn shared_plan_peak_is_sandwiched() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x5A4ED ^ case);
        let m = pick(&mut rng, 1, 5);
        let stagger = pick(&mut rng, 0, 20);
        let net = mlp(10, &[16, 8], 4);
        let graph = OpGraph::from_network(&net, 4);
        let single = offline_plan(&graph);
        let shared = shared_plan(&graph, m, stagger);
        assert!(
            shared.peak_bytes >= single.peak_bytes,
            "case {case}: m={m} stagger={stagger}"
        );
        assert!(
            shared.peak_bytes <= m * single.peak_bytes,
            "case {case}: m={m} stagger={stagger}"
        );
    }
}

/// Batch samplers partition each epoch exactly (drop_last), whatever the
/// sizes.
#[test]
fn sampler_partitions_epochs() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xBA7C4 ^ case);
        let n = pick(&mut rng, 2, 200);
        let batch = pick(&mut rng, 1, 50.min(n + 1));
        let seed = rng.next_u64() % 100;
        let mut sampler = crossbow::data::BatchSampler::new(n, batch, true, seed);
        let per_epoch = sampler.batches_per_epoch();
        let mut seen = vec![0usize; n];
        for _ in 0..per_epoch {
            let (indices, epoch) = sampler.next_batch();
            assert_eq!(epoch, 0, "case {case}: n={n} batch={batch}");
            for i in indices {
                seen[i] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c <= 1),
            "case {case}: duplicates within an epoch (n={n} batch={batch})"
        );
        let covered = seen.iter().filter(|&&c| c == 1).count();
        assert_eq!(
            covered,
            per_epoch * batch,
            "case {case}: n={n} batch={batch}"
        );
    }
}

/// Merging two latency histograms keeps every reported quantile within
/// the bucket bounds of its inputs: the merged p50/p95/p99 can never
/// fall below both inputs' value or rise above both (a mixture's
/// quantile is bracketed by its components').
#[test]
fn merged_histograms_preserve_quantile_bucket_bounds() {
    use crossbow::telemetry::Histogram;
    use std::time::Duration;
    for case in 0..CASES {
        let mut rng = Rng::new(0x4157 ^ case);
        let fill = |rng: &mut Rng| {
            let mut h = Histogram::new();
            for _ in 0..pick(rng, 1, 200) {
                h.record(Duration::from_micros(1 + rng.next_u64() % 100_000));
            }
            h
        };
        let a = fill(&mut rng);
        let b = fill(&mut rng);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.total(), a.total() + b.total(), "case {case}");
        for q in [0.5, 0.95, 0.99] {
            let qa = a.quantile(q).expect("a is non-empty");
            let qb = b.quantile(q).expect("b is non-empty");
            let qm = merged.quantile(q).expect("merged is non-empty");
            assert!(
                qm >= qa.min(qb) && qm <= qa.max(qb),
                "case {case}: q={q} merged {qm:?} outside [{:?}, {:?}]",
                qa.min(qb),
                qa.max(qb)
            );
        }
        // Merging an empty histogram is the identity for quantiles.
        let mut with_empty = a.clone();
        with_empty.merge(&Histogram::new());
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(with_empty.quantile(q), a.quantile(q), "case {case}");
        }
    }
}
