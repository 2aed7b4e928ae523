//! # crossbow-shard — the on-disk data plane
//!
//! Crossbow's training loop was fed from in-memory synthetic datasets;
//! this crate adds the *real* data plane the paper's data pre-processors
//! assume (§4.1): a versioned, checksummed, sharded on-disk dataset
//! format, a streaming ingestion path with back-pressure, and an
//! mmap-backed zero-copy reader that slots in behind the same
//! [`SampleSource`](crossbow_data::SampleSource) trait the in-memory
//! [`Dataset`](crossbow_data::Dataset) implements — so the trainers
//! and the distributed coordinator are agnostic to whether the
//! data lives in RAM, on disk, or split across workers.
//!
//! - **Format** ([`mod@format`]): fixed 80-byte header, FNV-checksummed
//!   record pages, a per-shard sample index, and the atomic
//!   tmp → fsync → rename seal discipline shared with
//!   `crossbow-checkpoint`.
//! - **Ingestion** ([`pack_source`]): a producer thread streams samples
//!   through a bounded `std` channel into a rotating [`ShardWriter`];
//!   the channel's capacity is the back-pressure window.
//! - **Reading** ([`ShardReader`] / [`ShardedDataset`]): shards are
//!   memory-mapped (raw syscall on Linux/x86-64, positioned-read
//!   fallback elsewhere) and *fully validated at open* — corruption
//!   yields typed errors and per-shard fallback, never UB through the
//!   mapping.
//!
//! Determinism invariant: packing preserves sample order and `f32` bit
//! patterns, so for an intact shard set, `gather` over any index list is
//! bit-identical to the same gather on the source dataset — which is
//! what lets a training run produce bit-identical curves from RAM or
//! disk.
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
pub mod format;
mod mmap;
mod reader;

pub use error::ShardError;
pub use format::{
    pack_source, shard_file_name, DatasetMeta, PackConfig, PackReport, ShardWriter, FILE_EXT,
    FLAG_SEALED, FORMAT_VERSION, HEADER_LEN, MAGIC, MAX_DIMS,
};
pub use reader::{ShardReader, ShardedDataset};

#[cfg(test)]
mod tests {
    use super::*;
    use crossbow_data::synth::gaussian_mixture;
    use crossbow_data::{Dataset, SampleSource};
    use std::fs;
    use std::path::PathBuf;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("crossbow-shard-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn small_pack() -> PackConfig {
        PackConfig {
            samples_per_shard: 40,
            page_samples: 16,
        }
    }

    fn demo_set() -> Dataset {
        gaussian_mixture(4, 6, 130, 0.35, 7)
    }

    #[test]
    fn pack_then_open_round_trips_bit_exactly() {
        let dir = scratch_dir("roundtrip");
        let set = demo_set();
        let report = pack_source(&dir, &set, small_pack()).expect("pack");
        assert_eq!(report.samples, 130);
        assert_eq!(report.shards, 4, "130 samples at 40/shard");

        let on_disk = ShardedDataset::open(&dir).expect("open");
        assert!(on_disk.skipped().is_empty());
        assert_eq!(on_disk.shard_count(), 4);
        assert_eq!(SampleSource::len(&on_disk), set.len());
        assert_eq!(on_disk.classes(), set.classes());
        assert_eq!(on_disk.sample_shape(), set.sample_shape());
        assert_eq!(on_disk.total_file_bytes(), report.bytes);

        // Bit-exact gathers, including across shard boundaries and with
        // repeats, in arbitrary order.
        let indices = [0usize, 129, 39, 40, 41, 79, 80, 5, 5, 127];
        let (disk_t, disk_l) = on_disk.gather(&indices).expect("disk gather");
        let (mem_t, mem_l) = set.gather(&indices).expect("mem gather");
        assert_eq!(disk_l, mem_l);
        assert_eq!(disk_t.shape(), mem_t.shape());
        let bits =
            |t: &crossbow_tensor::Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&disk_t),
            bits(&mem_t),
            "f32 bit patterns must survive the disk trip"
        );
        for i in 0..set.len() {
            assert_eq!(
                on_disk.label(i).expect("label"),
                set.label(i).expect("label")
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_shard_write_returns_promptly_with_the_producer_joined() {
        let dir = scratch_dir("writefail");
        // More samples than the writer takes before it fails plus the
        // channel's capacity: the producer ends up blocked on a full
        // channel unless the failure releases it.
        let set = gaussian_mixture(4, 6, 4 * format::CHANNEL_CAPACITY, 0.35, 7);
        // A directory where the second shard puts its temp file: creating
        // that file fails even for root.
        fs::create_dir_all(dir.join(format!("{}.tmp", shard_file_name(1)))).expect("mkdir");
        // `pack_source` joins its producer before returning, so returning
        // at all proves the blocked send was released.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let pack_dir = dir.clone();
        let pack = std::thread::spawn(move || {
            let _ = done_tx.send(pack_source(&pack_dir, &set, small_pack()));
        });
        let packed = done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("pack_source must return while its producer is blocked");
        pack.join().expect("pack thread");
        let err = packed.expect_err("shard 1 cannot be created");
        assert!(matches!(err, ShardError::Io(_)), "got {err}");
        // Only the shard sealed before the failure is on disk.
        let on_disk = ShardedDataset::open(&dir).expect("open");
        assert_eq!(on_disk.shard_count(), 1);
        assert_eq!(SampleSource::len(&on_disk), 40);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_shard_is_skipped_with_a_typed_error() {
        let dir = scratch_dir("truncated");
        pack_source(&dir, &demo_set(), small_pack()).expect("pack");
        // Cut the second shard short, inside its page data.
        let victim = dir.join(shard_file_name(1));
        let bytes = fs::read(&victim).expect("read");
        fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate");

        let on_disk = ShardedDataset::open(&dir).expect("valid shards remain");
        assert_eq!(on_disk.shard_count(), 3);
        assert_eq!(SampleSource::len(&on_disk), 130 - 40);
        assert_eq!(on_disk.skipped().len(), 1);
        let (path, err) = &on_disk.skipped()[0];
        assert_eq!(path, &victim);
        assert!(matches!(err, ShardError::Corrupt(_)), "got {err}");
        // The survivors still gather fine.
        on_disk.gather(&[0, 89]).expect("gather survivors");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_payload_byte_fails_the_page_checksum() {
        let dir = scratch_dir("bitflip");
        pack_source(&dir, &demo_set(), small_pack()).expect("pack");
        let victim = dir.join(shard_file_name(2));
        let mut bytes = fs::read(&victim).expect("read");
        // Flip one byte inside the first page payload (past the header).
        bytes[HEADER_LEN + 5] ^= 0x40;
        fs::write(&victim, &bytes).expect("write back");

        let err = ShardReader::open(&victim).expect_err("must fail validation");
        assert!(matches!(err, ShardError::Corrupt(_)), "got {err}");
        assert!(err.to_string().contains("checksum"), "got {err}");

        let on_disk = ShardedDataset::open(&dir).expect("fallback");
        assert_eq!(on_disk.shard_count(), 3);
        assert_eq!(on_disk.skipped().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_header_version_is_a_version_error() {
        let dir = scratch_dir("version");
        pack_source(&dir, &demo_set(), small_pack()).expect("pack");
        let victim = dir.join(shard_file_name(0));
        let mut bytes = fs::read(&victim).expect("read");
        // Bump the version field and re-stamp the header checksum so only
        // the version check can object.
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 9).to_le_bytes());
        let sum = crossbow_checkpoint::codec::fnv1a64(&bytes[0..72]);
        bytes[72..80].copy_from_slice(&sum.to_le_bytes());
        fs::write(&victim, &bytes).expect("write back");

        let err = ShardReader::open(&victim).expect_err("must fail");
        match err {
            ShardError::Version { found, expected } => {
                assert_eq!(found, FORMAT_VERSION + 9);
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("expected Version, got {other}"),
        }
        let on_disk = ShardedDataset::open(&dir).expect("fallback");
        assert_eq!(on_disk.shard_count(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_shards_corrupt_is_a_hard_error_and_tmp_files_are_ignored() {
        let dir = scratch_dir("allbad");
        pack_source(
            &dir,
            &demo_set(),
            PackConfig {
                samples_per_shard: 200,
                ..small_pack()
            },
        )
        .expect("pack");
        // One shard; corrupt its magic. Also drop in a stray .tmp, which
        // the directory scan must ignore.
        let victim = dir.join(shard_file_name(0));
        let mut bytes = fs::read(&victim).expect("read");
        bytes[0] ^= 0xff;
        fs::write(&victim, &bytes).expect("write back");
        fs::write(dir.join("shard-00009.cbws.tmp"), b"torn").expect("tmp");

        let err = ShardedDataset::open(&dir).expect_err("nothing valid");
        assert!(matches!(err, ShardError::Inconsistent(_)), "got {err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsealed_and_out_of_bounds_reads_stay_typed() {
        let dir = scratch_dir("unsealed");
        let meta = DatasetMeta {
            sample_shape: crossbow_tensor::Shape::new(&[3]),
            classes: 2,
        };
        let mut w = ShardWriter::create(&dir, 0, &meta, 4).expect("create");
        w.append(&[1.0, 2.0, 3.0], 1).expect("append");
        // Never sealed: the .tmp placeholder header must be rejected.
        let tmp = dir.join(format!("{}.tmp", shard_file_name(0)));
        let err = ShardReader::open(&tmp).expect_err("unsealed");
        assert!(err.to_string().contains("sealed"), "got {err}");
        drop(w);

        // Appending wrong-shaped samples or bad labels is typed too.
        let mut w = ShardWriter::create(&dir, 1, &meta, 4).expect("create");
        assert!(matches!(
            w.append(&[1.0], 0),
            Err(ShardError::Inconsistent(_))
        ));
        assert!(matches!(
            w.append(&[1.0, 2.0, 3.0], 7),
            Err(ShardError::Inconsistent(_))
        ));
        let (path, _) = {
            w.append(&[4.0, 5.0, 6.0], 0).expect("append");
            w.seal().expect("seal")
        };
        let reader = ShardReader::open(&path).expect("open sealed");
        assert_eq!(reader.samples(), 1);
        let ds = ShardedDataset::open(&dir).expect("open dir");
        // Out-of-range access through the trait is a typed DataError.
        let err = ds.gather(&[99]).expect_err("oob");
        assert!(matches!(
            err,
            crossbow_data::DataError::IndexOutOfRange { index: 99, len: 1 }
        ));
        assert!(ds.gather(&[]).is_err(), "empty batch stays typed");
        let _ = fs::remove_dir_all(&dir);
    }
}
