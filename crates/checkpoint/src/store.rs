//! The on-disk checkpoint format and directory store.
//!
//! ## File layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "CBWCKPT\x01"
//! 8       4     format version (little-endian u32)
//! 12      4     flags  (bit 0 = epoch-boundary checkpoint)
//! 16      8     payload length in bytes
//! 24      8     checksum of the payload
//! 32      n     payload ([`TrainingState::encode`])
//! ```
//!
//! Version 3 seals the payload with the word-wise [`fnv1a64_words`]
//! (the `CBW2` frame checksum); version-2 files, sealed with the
//! byte-wise [`fnv1a64`], still load.
//!
//! ## Atomicity
//!
//! A checkpoint is written to `<name>.tmp` in the same directory, the file
//! is fsynced, renamed over the final name, and the directory is fsynced.
//! A crash at any point leaves either the previous state (no final file,
//! or the old one) or the complete new file — never a torn live
//! checkpoint. A stray `.tmp` from a crash mid-write is ignored by the
//! loader and overwritten by the next save.
//!
//! ## The background writer
//!
//! [`CheckpointStore::writer`] moves saves off the caller's thread: one
//! writer thread takes owned states through a hand-off with room for one
//! waiting state, so [`CheckpointWriter::submit`] blocks only while a
//! state is already waiting. Every submitted state is written, in order;
//! none is skipped or coalesced. [`CheckpointWriter::finish`] (or dropping
//! the writer, also during unwinding) joins the thread, so a state handed
//! over is on disk when the caller returns. The first failed write stops
//! the writer; every later `submit`, and `finish`, returns an error.
//!
//! ## Corruption handling
//!
//! [`CheckpointStore::load_latest`] walks checkpoints newest-first and
//! returns the first one that passes *all* validation (magic, version,
//! length, checksum, payload decode), recording the paths it had to skip.
//! A truncated or bit-flipped newest checkpoint therefore costs the
//! iterations since the previous one, not the run.

use crate::codec::{fnv1a64, fnv1a64_words};
use crate::state::TrainingState;
use crossbow_telemetry::MetricsRegistry;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// Magic bytes opening every checkpoint file.
pub const MAGIC: [u8; 8] = *b"CBWCKPT\x01";

/// Current format version. Version 3 seals the payload with the
/// word-wise [`fnv1a64_words`]; version 2 (byte-wise [`fnv1a64`], same
/// payload) is still read. Version 2 added the partition-group count to
/// the data cursor; version-1 checkpoints are refused (the payload is not
/// forward-decodable) and a run restarts from scratch.
pub const FORMAT_VERSION: u32 = 3;

const HEADER_LEN: usize = 32;
const FLAG_EPOCH_BOUNDARY: u32 = 1;
const FILE_EXT: &str = "cbck";

/// Why a checkpoint could not be written or read.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file exists but is not a valid checkpoint (truncated, bit
    /// flipped, wrong magic or version, undecodable payload).
    Corrupt(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn corrupt(why: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt(why.into())
}

/// Writes `state` to `path` atomically (temp file → fsync → rename →
/// directory fsync). Returns the number of bytes written (header +
/// payload).
///
/// # Errors
/// Returns [`CheckpointError::Io`] when any filesystem step fails.
pub fn write_checkpoint(
    path: &Path,
    state: &TrainingState,
    epoch_boundary: bool,
) -> Result<usize, CheckpointError> {
    let payload = state.encode();
    let flags = if epoch_boundary {
        FLAG_EPOCH_BOUNDARY
    } else {
        0
    };
    let mut header = [0u8; HEADER_LEN];
    header[0..8].copy_from_slice(&MAGIC);
    header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&flags.to_le_bytes());
    header[16..24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[24..32].copy_from_slice(&fnv1a64_words(&payload).to_le_bytes());

    let tmp = path.with_extension("tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&header)?;
        file.write_all(&payload)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Persist the rename itself: fsync the containing directory (no-op on
    // platforms where directories cannot be opened, e.g. Windows).
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(HEADER_LEN + payload.len())
}

/// Reads and fully validates a checkpoint file, returning the state and
/// whether it was an epoch-boundary checkpoint.
///
/// # Errors
/// [`CheckpointError::Io`] when the file cannot be read;
/// [`CheckpointError::Corrupt`] when any validation step fails.
pub fn read_checkpoint(path: &Path) -> Result<(TrainingState, bool), CheckpointError> {
    let bytes = fs::read(path)?;
    if bytes.len() < HEADER_LEN {
        return Err(corrupt(format!(
            "{} bytes is shorter than the header",
            bytes.len()
        )));
    }
    if bytes[0..8] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4"));
    let checksum_of: fn(&[u8]) -> u64 = match version {
        FORMAT_VERSION => fnv1a64_words,
        2 => fnv1a64,
        _ => return Err(corrupt(format!("unsupported format version {version}"))),
    };
    let flags = u32::from_le_bytes(bytes[12..16].try_into().expect("4"));
    let payload_len = u64::from_le_bytes(bytes[16..24].try_into().expect("8")) as usize;
    let checksum = u64::from_le_bytes(bytes[24..32].try_into().expect("8"));
    if bytes.len() != HEADER_LEN + payload_len {
        return Err(corrupt(format!(
            "file is {} bytes, header promises {}",
            bytes.len(),
            HEADER_LEN + payload_len
        )));
    }
    let payload = &bytes[HEADER_LEN..];
    if checksum_of(payload) != checksum {
        return Err(corrupt("checksum mismatch"));
    }
    let state = TrainingState::decode(payload).map_err(|e| corrupt(e.to_string()))?;
    Ok((state, flags & FLAG_EPOCH_BOUNDARY != 0))
}

/// Which checkpoints survive a retention sweep.
#[derive(Clone, Copy, Debug)]
pub struct RetentionPolicy {
    /// Keep the newest (highest-iteration) this many checkpoints.
    pub keep_last: usize,
    /// Additionally keep every epoch-boundary checkpoint.
    pub keep_epoch_boundaries: bool,
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        RetentionPolicy {
            keep_last: 3,
            keep_epoch_boundaries: true,
        }
    }
}

/// A successfully loaded checkpoint.
#[derive(Clone, Debug)]
pub struct Loaded {
    /// The restored state.
    pub state: TrainingState,
    /// The file it came from.
    pub path: PathBuf,
    /// Whether the file was an epoch-boundary checkpoint.
    pub epoch_boundary: bool,
    /// Newer files that were skipped because they failed validation.
    pub skipped: Vec<PathBuf>,
}

/// One directory entry: a parsed checkpoint filename.
#[derive(Clone, Debug)]
struct Entry {
    path: PathBuf,
    iterations: u64,
    epoch_boundary: bool,
}

/// A directory of checkpoints with a retention policy.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    retention: RetentionPolicy,
    /// When set, every save reports its size and latency here.
    metrics: Option<Arc<MetricsRegistry>>,
}

impl CheckpointStore {
    /// Opens (creating if needed) the checkpoint directory.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Io`] when the directory cannot be
    /// created.
    pub fn open(
        dir: impl Into<PathBuf>,
        retention: RetentionPolicy,
    ) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore {
            dir,
            retention,
            metrics: None,
        })
    }

    /// Attaches a metrics registry (builder style). Every subsequent
    /// [`CheckpointStore::save`] updates `checkpoint.writes` /
    /// `checkpoint.bytes` counters, a `checkpoint.last_bytes` gauge and
    /// a `checkpoint.write_latency_us` histogram in it.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The filename of the checkpoint at `iterations`. Epoch-boundary
    /// checkpoints get a distinct name so a periodic checkpoint at the
    /// same iteration cannot clobber one the retention policy must keep.
    fn file_name(iterations: u64, epoch_boundary: bool) -> String {
        if epoch_boundary {
            format!("ckpt-{iterations:012}-epoch.{FILE_EXT}")
        } else {
            format!("ckpt-{iterations:012}.{FILE_EXT}")
        }
    }

    fn parse_name(name: &str) -> Option<(u64, bool)> {
        let stem = name
            .strip_prefix("ckpt-")?
            .strip_suffix(&format!(".{FILE_EXT}"))?;
        match stem.strip_suffix("-epoch") {
            Some(digits) => Some((digits.parse().ok()?, true)),
            None => Some((stem.parse().ok()?, false)),
        }
    }

    /// Every checkpoint file in the directory, oldest first (by iteration;
    /// an epoch-boundary file sorts after a periodic one of the same
    /// iteration, matching the order the trainer writes them in).
    fn entries(&self) -> Result<Vec<Entry>, CheckpointError> {
        let mut entries = Vec::new();
        for item in fs::read_dir(&self.dir)? {
            let item = item?;
            let name = item.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some((iterations, epoch_boundary)) = Self::parse_name(name) {
                entries.push(Entry {
                    path: item.path(),
                    iterations,
                    epoch_boundary,
                });
            }
        }
        entries.sort_by_key(|e| (e.iterations, e.epoch_boundary));
        Ok(entries)
    }

    /// Every checkpoint path, oldest first.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Io`] when the directory cannot be read.
    pub fn list(&self) -> Result<Vec<PathBuf>, CheckpointError> {
        Ok(self.entries()?.into_iter().map(|e| e.path).collect())
    }

    /// Writes a checkpoint of `state` atomically, then applies the
    /// retention policy. Returns the path written.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Io`] when writing fails; a failed
    /// retention delete is ignored (stale files cost disk, not
    /// correctness).
    pub fn save(
        &self,
        state: &TrainingState,
        epoch_boundary: bool,
    ) -> Result<PathBuf, CheckpointError> {
        let path = self
            .dir
            .join(Self::file_name(state.iterations, epoch_boundary));
        let started = Instant::now();
        let bytes = write_checkpoint(&path, state, epoch_boundary)?;
        if let Some(metrics) = &self.metrics {
            metrics.counter("checkpoint.writes").inc();
            metrics.counter("checkpoint.bytes").add(bytes as u64);
            metrics.gauge("checkpoint.last_bytes").set(bytes as u64);
            metrics
                .histogram("checkpoint.write_latency_us")
                .record(started.elapsed());
        }
        self.sweep()?;
        Ok(path)
    }

    /// Deletes checkpoints the retention policy no longer keeps.
    fn sweep(&self) -> Result<(), CheckpointError> {
        let entries = self.entries()?;
        let keep_from = entries
            .len()
            .saturating_sub(self.retention.keep_last.max(1));
        for (i, entry) in entries.iter().enumerate() {
            let newest = i >= keep_from;
            let boundary_kept = self.retention.keep_epoch_boundaries && entry.epoch_boundary;
            if !newest && !boundary_kept {
                let _ = fs::remove_file(&entry.path);
            }
        }
        Ok(())
    }

    /// Loads the newest valid checkpoint, skipping corrupt files.
    ///
    /// Returns `Ok(None)` when the directory holds no checkpoints at all;
    /// returns the corruption error only when *every* present checkpoint
    /// fails validation (the caller then knows durable state existed but
    /// none of it is usable).
    ///
    /// # Errors
    /// [`CheckpointError::Io`] when the directory cannot be read, or the
    /// last file's error when no checkpoint validates.
    pub fn load_latest(&self) -> Result<Option<Loaded>, CheckpointError> {
        let entries = self.entries()?;
        if entries.is_empty() {
            return Ok(None);
        }
        let mut skipped = Vec::new();
        let mut last_err: Option<CheckpointError> = None;
        for entry in entries.iter().rev() {
            match read_checkpoint(&entry.path) {
                Ok((state, epoch_boundary)) => {
                    return Ok(Some(Loaded {
                        state,
                        path: entry.path.clone(),
                        epoch_boundary,
                        skipped,
                    }));
                }
                Err(e) => {
                    skipped.push(entry.path.clone());
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.expect("non-empty entries with no success has an error"))
    }

    /// Starts this store's background writer: one thread that
    /// [`save`](CheckpointStore::save)s every state handed to it, in
    /// order, recording the store's metrics as it goes.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] when the thread cannot be spawned.
    pub fn writer(&self) -> Result<CheckpointWriter, CheckpointError> {
        let (tx, rx) = mpsc::sync_channel::<(TrainingState, bool)>(1);
        let store = self.clone();
        let thread = std::thread::Builder::new()
            .name("checkpoint-writer".into())
            .spawn(move || {
                for (state, epoch_boundary) in rx {
                    store.save(&state, epoch_boundary)?;
                }
                Ok(())
            })?;
        Ok(CheckpointWriter {
            tx: Some(tx),
            thread: Some(thread),
        })
    }
}

/// The handle of a [`CheckpointStore::writer`] thread.
///
/// Dropping the handle joins the thread after it has written every state
/// already handed over, exactly like [`CheckpointWriter::finish`] but
/// discarding the outcome; this also holds while a panic unwinds.
#[derive(Debug)]
pub struct CheckpointWriter {
    /// `None` once the writer was joined.
    tx: Option<mpsc::SyncSender<(TrainingState, bool)>>,
    thread: Option<JoinHandle<Result<(), CheckpointError>>>,
}

impl CheckpointWriter {
    /// Hands `state` to the writer thread. Returns at once unless a
    /// state is already waiting behind the one being written; then it
    /// blocks until the writer takes that one.
    ///
    /// # Errors
    /// The writer's first write error when it has failed (the writer is
    /// then joined), and [`CheckpointError::Io`] for every call after
    /// that.
    pub fn submit(
        &mut self,
        state: TrainingState,
        epoch_boundary: bool,
    ) -> Result<(), CheckpointError> {
        let Some(tx) = &self.tx else {
            return Err(stopped());
        };
        if tx.send((state, epoch_boundary)).is_ok() {
            return Ok(());
        }
        // The thread hung up: it returned its first write error.
        Err(self.join().err().unwrap_or_else(stopped))
    }

    /// Waits until every handed-over state is on disk and joins the
    /// writer thread.
    ///
    /// # Errors
    /// The writer's first write error, or [`CheckpointError::Io`] when a
    /// `submit` already returned it.
    pub fn finish(mut self) -> Result<(), CheckpointError> {
        self.join()
    }

    /// Closes the hand-off (the thread drains it, then exits) and joins.
    fn join(&mut self) -> Result<(), CheckpointError> {
        self.tx = None;
        match self.thread.take() {
            Some(thread) => thread.join().unwrap_or_else(|_| {
                Err(CheckpointError::Io(std::io::Error::other(
                    "the checkpoint writer panicked",
                )))
            }),
            None => Err(stopped()),
        }
    }
}

/// What a writer that already reported its failure answers.
fn stopped() -> CheckpointError {
    CheckpointError::Io(std::io::Error::other(
        "the checkpoint writer stopped after an earlier error",
    ))
}

impl Drop for CheckpointWriter {
    fn drop(&mut self) {
        let _ = self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{AlgoState, DataCursor};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique scratch directory per test (no tempfile dependency).
    fn scratch(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("crossbow-ckpt-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn state_at(iterations: u64) -> TrainingState {
        TrainingState {
            seed: 7,
            algorithm: "sma".to_string(),
            iterations,
            samples_processed: iterations * 8,
            cursor: DataCursor {
                epoch: iterations / 10,
                batch: iterations % 10,
                groups: 0,
            },
            algo: AlgoState {
                center: vec![iterations as f32],
                center_prev: vec![0.0],
                replicas: vec![vec![1.0]],
                aux: vec![],
                iter: iterations,
            },
            ..TrainingState::default()
        }
    }

    #[test]
    fn save_load_round_trips() {
        let store =
            CheckpointStore::open(scratch("roundtrip"), RetentionPolicy::default()).expect("open");
        store.save(&state_at(10), false).expect("save");
        let loaded = store.load_latest().expect("load").expect("present");
        assert_eq!(loaded.state, state_at(10));
        assert!(!loaded.epoch_boundary);
        assert!(loaded.skipped.is_empty());
    }

    #[test]
    fn empty_store_loads_none() {
        let store =
            CheckpointStore::open(scratch("empty"), RetentionPolicy::default()).expect("open");
        assert!(store.load_latest().expect("ok").is_none());
    }

    #[test]
    fn latest_wins_and_no_temp_files_remain() {
        let store =
            CheckpointStore::open(scratch("latest"), RetentionPolicy::default()).expect("open");
        for i in [5u64, 15, 10] {
            store.save(&state_at(i), false).expect("save");
        }
        let loaded = store.load_latest().expect("load").expect("present");
        assert_eq!(loaded.state.iterations, 15);
        let stray_tmp = fs::read_dir(store.dir())
            .expect("readdir")
            .filter_map(|e| e.ok())
            .any(|e| e.path().extension().is_some_and(|x| x == "tmp"));
        assert!(!stray_tmp, "atomic write must clean up its temp file");
    }

    #[test]
    fn truncated_checkpoint_falls_back_to_previous() {
        let store =
            CheckpointStore::open(scratch("trunc"), RetentionPolicy::default()).expect("open");
        store.save(&state_at(10), false).expect("save");
        let newest = store.save(&state_at(20), false).expect("save");
        let full = fs::read(&newest).expect("read");
        fs::write(&newest, &full[..full.len() / 2]).expect("truncate");
        let loaded = store.load_latest().expect("load").expect("present");
        assert_eq!(loaded.state.iterations, 10, "fell back past the torn file");
        assert_eq!(loaded.skipped, vec![newest]);
    }

    #[test]
    fn bit_flip_falls_back_to_previous() {
        let store =
            CheckpointStore::open(scratch("flip"), RetentionPolicy::default()).expect("open");
        store.save(&state_at(10), false).expect("save");
        let newest = store.save(&state_at(20), false).expect("save");
        let mut bytes = fs::read(&newest).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&newest, &bytes).expect("rewrite");
        let loaded = store.load_latest().expect("load").expect("present");
        assert_eq!(loaded.state.iterations, 10);
        assert_eq!(loaded.skipped.len(), 1);
    }

    #[test]
    fn all_corrupt_is_an_error_not_a_fresh_start() {
        let store =
            CheckpointStore::open(scratch("allbad"), RetentionPolicy::default()).expect("open");
        let path = store.save(&state_at(10), false).expect("save");
        fs::write(&path, b"junk").expect("clobber");
        match store.load_latest() {
            Err(CheckpointError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn retention_keeps_newest_and_epoch_boundaries() {
        let store = CheckpointStore::open(
            scratch("retain"),
            RetentionPolicy {
                keep_last: 2,
                keep_epoch_boundaries: true,
            },
        )
        .expect("open");
        store.save(&state_at(10), true).expect("save"); // epoch boundary
        for i in [20u64, 30, 40, 50] {
            store.save(&state_at(i), false).expect("save");
        }
        let names: Vec<String> = store
            .list()
            .expect("list")
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            vec![
                "ckpt-000000000010-epoch.cbck",
                "ckpt-000000000040.cbck",
                "ckpt-000000000050.cbck",
            ]
        );
    }

    #[test]
    fn retention_without_boundary_keeping_prunes_them_too() {
        let store = CheckpointStore::open(
            scratch("noboundary"),
            RetentionPolicy {
                keep_last: 1,
                keep_epoch_boundaries: false,
            },
        )
        .expect("open");
        store.save(&state_at(10), true).expect("save");
        store.save(&state_at(20), false).expect("save");
        let list = store.list().expect("list");
        assert_eq!(list.len(), 1);
        assert_eq!(
            list[0].file_name().unwrap().to_string_lossy(),
            "ckpt-000000000020.cbck"
        );
    }

    #[test]
    fn version_mismatch_is_corrupt() {
        let store =
            CheckpointStore::open(scratch("version"), RetentionPolicy::default()).expect("open");
        let path = store.save(&state_at(10), false).expect("save");
        let mut bytes = fs::read(&path).expect("read");
        bytes[8] = 0xFF; // version field
        fs::write(&path, &bytes).expect("rewrite");
        match read_checkpoint(&path) {
            Err(CheckpointError::Corrupt(why)) => {
                assert!(why.contains("version"), "{why}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn save_reports_bytes_and_latency_metrics() {
        let metrics = Arc::new(MetricsRegistry::new());
        let store = CheckpointStore::open(scratch("metrics"), RetentionPolicy::default())
            .expect("open")
            .with_metrics(Arc::clone(&metrics));
        store.save(&state_at(10), false).expect("save");
        let path = store.save(&state_at(20), false).expect("save");
        let on_disk = fs::metadata(&path).expect("stat").len();
        assert_eq!(metrics.counter("checkpoint.writes").get(), 2);
        assert!(metrics.counter("checkpoint.bytes").get() >= on_disk);
        assert_eq!(metrics.gauge("checkpoint.last_bytes").get(), on_disk);
        assert_eq!(
            metrics
                .histogram("checkpoint.write_latency_us")
                .snapshot()
                .total(),
            2
        );
    }

    #[test]
    fn a_version_2_checkpoint_still_loads() {
        // A v2 file laid out by hand: the v3 header and payload, sealed
        // with the byte-wise FNV-1a loop the v2 writer ran.
        let dir = scratch("v2");
        fs::create_dir_all(&dir).expect("mkdir");
        let state = state_at(10);
        let payload = state.encode();
        let mut checksum: u64 = 0xCBF2_9CE4_8422_2325;
        for &b in &payload {
            checksum = (checksum ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut bytes = b"CBWCKPT\x01".to_vec();
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&FLAG_EPOCH_BOUNDARY.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes.extend_from_slice(&payload);
        let path = dir.join("ckpt-000000000010-epoch.cbck");
        fs::write(&path, &bytes).expect("write");
        assert_eq!(
            read_checkpoint(&path).expect("v2 loads"),
            (state.clone(), true)
        );
        let store = CheckpointStore::open(&dir, RetentionPolicy::default()).expect("open");
        assert_eq!(
            store.load_latest().expect("load").expect("present").state,
            state
        );
        // The v2 reader still checks its checksum.
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        fs::write(&path, &bytes).expect("rewrite");
        assert!(matches!(
            read_checkpoint(&path),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn version_3_seals_the_payload_word_wise() {
        let store = CheckpointStore::open(scratch("v3"), RetentionPolicy::default()).expect("open");
        let path = store.save(&state_at(10), false).expect("save");
        let bytes = fs::read(&path).expect("read");
        assert_eq!(bytes[8..12], 3u32.to_le_bytes());
        assert_eq!(
            bytes[24..32],
            crate::codec::fnv1a64_words(&bytes[HEADER_LEN..]).to_le_bytes()
        );
    }

    fn iterations_on_disk(store: &CheckpointStore) -> Vec<u64> {
        let list = store.list().expect("list");
        list.iter()
            .map(|p| read_checkpoint(p).expect("valid").0.iterations)
            .collect()
    }

    #[test]
    fn the_writer_writes_every_state_in_order_before_it_is_joined() {
        let metrics = Arc::new(MetricsRegistry::new());
        let keep_all = RetentionPolicy {
            keep_last: usize::MAX,
            keep_epoch_boundaries: true,
        };
        let store = CheckpointStore::open(scratch("writer"), keep_all)
            .expect("open")
            .with_metrics(Arc::clone(&metrics));
        let mut writer = store.writer().expect("spawn");
        for i in 1..=20 {
            writer.submit(state_at(i), false).expect("submit");
        }
        writer.finish().expect("every write succeeded");
        assert_eq!(iterations_on_disk(&store), (1..=20).collect::<Vec<_>>());
        assert_eq!(metrics.counter("checkpoint.writes").get(), 20);

        // Dropping the handle joins too: the states are on disk and the
        // thread (which held a clone of the store) is gone.
        let mut writer = store.writer().expect("spawn");
        for i in 21..=25 {
            writer.submit(state_at(i), false).expect("submit");
        }
        drop(writer);
        assert_eq!(iterations_on_disk(&store), (1..=25).collect::<Vec<_>>());
        assert_eq!(Arc::strong_count(&metrics), 2, "test + store");
    }

    #[test]
    fn a_failed_write_stops_the_writer_with_a_typed_error() {
        let store =
            CheckpointStore::open(scratch("writefail"), RetentionPolicy::default()).expect("open");
        // A directory where the temp file of iteration 2 goes: creating
        // it fails even for root.
        fs::create_dir(store.dir().join("ckpt-000000000002.tmp")).expect("mkdir");
        let mut writer = store.writer().expect("spawn");
        writer
            .submit(state_at(1), false)
            .expect("nothing failed yet");
        // The failure surfaces within two more hand-offs: one state may
        // wait while iteration 2 is being tried.
        let err = (2..=4)
            .find_map(|i| writer.submit(state_at(i), false).err())
            .expect("the failed write stops the writer");
        assert!(matches!(err, CheckpointError::Io(_)), "got {err:?}");
        assert!(matches!(
            writer.submit(state_at(5), false),
            Err(CheckpointError::Io(_))
        ));
        assert!(matches!(writer.finish(), Err(CheckpointError::Io(_))));
        assert_eq!(iterations_on_disk(&store), vec![1]);
    }

    #[test]
    fn foreign_files_are_ignored() {
        let store =
            CheckpointStore::open(scratch("foreign"), RetentionPolicy::default()).expect("open");
        fs::write(store.dir().join("README.txt"), b"not a checkpoint").expect("write");
        store.save(&state_at(10), false).expect("save");
        assert_eq!(store.list().expect("list").len(), 1);
        assert!(store.load_latest().expect("load").is_some());
    }
}
