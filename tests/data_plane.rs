//! End-to-end tests for the on-disk data plane: the trainer must be
//! agnostic to whether its samples come from RAM or from mmap-backed
//! shard files, crashes mid-shard must resume bit-exactly, and a dataset
//! larger than the configured in-memory budget must train from disk.

use crossbow::comms::{demo_algo, demo_task};
use crossbow::data::synth::gaussian_mixture;
use crossbow::data::SampleSource;
use crossbow::shard::{pack_source, PackConfig, ShardedDataset};
use crossbow::sync::{resume, train, CheckpointConfig, TrainerConfig};
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("crossbow-data-plane-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Packs `source` into shards under a fresh scratch dir and opens it
/// back as an mmap-backed dataset.
fn packed(tag: &str, source: &dyn SampleSource, samples_per_shard: usize) -> ShardedDataset {
    let dir = scratch_dir(tag);
    let cfg = PackConfig {
        samples_per_shard,
        page_samples: 32,
    };
    pack_source(&dir, source, cfg).expect("pack");
    ShardedDataset::open(&dir).expect("open shard set")
}

/// Bit-identity (a): the training curve from the mmap shard set equals
/// the curve from the in-memory dataset, bit for bit.
#[test]
fn mmap_shard_curve_matches_in_memory() {
    let (net, train_set, test_set) = demo_task();
    let disk = packed("identity", &train_set, 100);
    assert_eq!(disk.len(), train_set.len());

    let trainer = TrainerConfig::new(16, 3).with_seed(33);
    let mut algo = demo_algo(&net, 2, "sma", 5);
    let from_ram = train(&net, &train_set, &test_set, algo.as_mut(), &trainer);
    let mut algo = demo_algo(&net, 2, "sma", 5);
    let from_disk = train(&net, &disk, &test_set, algo.as_mut(), &trainer);
    assert_eq!(
        from_ram, from_disk,
        "shard-backed training must not change the arithmetic"
    );
}

/// Bit-identity (b): a run that crashes with its data cursor in the
/// middle of a shard resumes from the checkpoint store and produces a
/// curve bit-identical to a run that never crashed.
#[test]
fn resume_mid_shard_is_bit_exact() {
    let (net, train_set, test_set) = demo_task();
    // 100-sample shards, 32 samples per iteration: iteration 17 leaves
    // the cursor partway through the second shard of the second epoch.
    let disk = packed("resume", &train_set, 100);
    let ckpt = scratch_dir("resume-ckpt");
    let trainer = TrainerConfig::new(16, 4).with_seed(21);

    let mut algo = demo_algo(&net, 2, "sma", 3);
    let uninterrupted = train(&net, &disk, &test_set, algo.as_mut(), &trainer);

    let checkpointing = CheckpointConfig::new(&ckpt).every(5);
    let crashing = trainer
        .clone()
        .with_checkpointing(checkpointing.clone())
        .with_crash_after(17);
    let mut algo = demo_algo(&net, 2, "sma", 3);
    let crashed = train(&net, &disk, &test_set, algo.as_mut(), &crashing);
    assert_eq!(crashed.iterations, 17, "crash fired at the wrong point");

    let resuming = trainer.clone().with_checkpointing(checkpointing);
    let mut algo = demo_algo(&net, 2, "sma", 3);
    let resumed = resume(&net, &disk, &test_set, algo.as_mut(), &resuming).expect("resume");
    assert!(
        resumed.iterations > 17,
        "resume must continue past the crash point"
    );
    assert_eq!(
        resumed, uninterrupted,
        "mid-shard resume must replay the identical sample/update stream"
    );
}

/// A dataset whose on-disk footprint exceeds the configured in-memory
/// budget still trains — from disk, through the mmap, without ever
/// materialising the full dataset in RAM.
#[test]
fn dataset_larger_than_memory_budget_trains_from_disk() {
    // ~4 MB of samples against a 1 MB in-memory budget.
    let full = gaussian_mixture(4, 128, 8192, 0.35, 17);
    let (train_set, test_set) = full.split_at(8000).expect("split in range");
    let disk = packed("budget", &train_set, 1024);

    let ram_budget_bytes: u64 = 1 << 20;
    assert!(
        disk.total_file_bytes() > ram_budget_bytes,
        "dataset ({} bytes) must exceed the {} byte budget for this test to mean anything",
        disk.total_file_bytes(),
        ram_budget_bytes
    );
    assert!(disk.fully_mmapped(), "large set should be mmap-backed");

    let trainer = TrainerConfig::new(32, 1).with_seed(9);
    let mut algo = demo_algo(&net_for(&disk), 2, "sma", 11);
    let curve = train(&net_for(&disk), &disk, &test_set, algo.as_mut(), &trainer);
    assert!(curve.iterations > 0, "training from disk made no progress");
    assert_eq!(curve.epochs(), 1);
}

/// An MLP sized to a shard set's sample shape.
fn net_for(set: &ShardedDataset) -> crossbow::nn::Network {
    crossbow::nn::zoo::mlp(set.sample_len(), &[16], set.classes())
}
