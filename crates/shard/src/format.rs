//! The on-disk shard format and the streaming writer.
//!
//! ## File layout (`shard-NNNNN.cbws`)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "CBWSHRD\x01"
//! 8       4     format version (little-endian u32)
//! 12      4     flags  (bit 0 = sealed)
//! 16      4     shard index within the dataset
//! 20      4     classes
//! 24      4     sample dim count (1..=6)
//! 28      24    sample dims (6 × u32; unused trail zero)
//! 52      8     samples in this shard (u64)
//! 60      4     samples per full page
//! 64      8     index section offset (u64)
//! 72      8     FNV-1a/64 over bytes 0..72
//! 80      …     record pages
//! …       …     index section
//! ```
//!
//! A *record page* holds up to `page_samples` samples as a block of
//! little-endian `u32` labels, then the samples' `f32` image data (bit
//! patterns, so a round trip is bit-exact), then an FNV-1a/64 checksum of
//! the page's payload. The *index section* is `u32 page_count`, one
//! `{u64 offset, u32 samples}` entry per page, and a trailing FNV-1a/64
//! over the entries — the per-shard sample index that lets a reader jump
//! to any sample in O(1).
//!
//! ## Atomicity
//!
//! The writer streams pages into `<name>.tmp`, then seals: index, final
//! header (sealed flag set, checksum last), fsync, rename over the final
//! name, directory fsync — the PR-2 checkpoint discipline, so a crash
//! mid-pack leaves a `.tmp` the reader ignores, never a torn shard.

use crate::error::{corrupt, ShardError};
use crossbow_checkpoint::codec::fnv1a64;
use crossbow_data::SampleSource;
use crossbow_tensor::Shape;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver};

/// Magic bytes opening every shard file.
pub const MAGIC: [u8; 8] = *b"CBWSHRD\x01";

/// Current shard format version.
pub const FORMAT_VERSION: u32 = 1;

/// Header length in bytes.
pub const HEADER_LEN: usize = 80;

/// Flag bit: the shard was sealed (index + checksums complete).
pub const FLAG_SEALED: u32 = 1;

/// Maximum sample rank the fixed-size header can record.
pub const MAX_DIMS: usize = 6;

/// Shard file extension.
pub const FILE_EXT: &str = "cbws";

/// Dataset-level metadata every shard of a set must agree on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DatasetMeta {
    /// Per-sample shape.
    pub sample_shape: Shape,
    /// Number of classes.
    pub classes: usize,
}

impl DatasetMeta {
    /// Metadata describing `source`'s samples.
    pub fn of(source: &dyn SampleSource) -> Self {
        DatasetMeta {
            sample_shape: source.sample_shape().clone(),
            classes: source.classes(),
        }
    }

    /// Elements per sample.
    pub fn sample_len(&self) -> usize {
        self.sample_shape.len()
    }
}

/// The canonical file name of shard `index`.
pub fn shard_file_name(index: u32) -> String {
    format!("shard-{index:05}.{FILE_EXT}")
}

/// One page's placement, as recorded in the index section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PageEntry {
    /// Byte offset of the page payload within the file.
    pub offset: u64,
    /// Samples in this page.
    pub samples: u32,
}

/// Streaming single-shard writer: append samples, then seal.
pub struct ShardWriter {
    file: fs::File,
    tmp: PathBuf,
    path: PathBuf,
    meta: DatasetMeta,
    shard_index: u32,
    page_samples: u32,
    // The page under construction.
    page_labels: Vec<u32>,
    page_images: Vec<u8>,
    pages: Vec<PageEntry>,
    offset: u64,
    samples: u64,
    bytes_written: u64,
}

impl ShardWriter {
    /// Creates `shard-<index>.cbws.tmp` in `dir` and writes a placeholder
    /// header (sealed flag clear) that [`ShardWriter::seal`] rewrites.
    ///
    /// # Errors
    /// [`ShardError::Io`] on filesystem failures;
    /// [`ShardError::Inconsistent`] for unrepresentable metadata (rank
    /// over [`MAX_DIMS`], zero page size).
    pub fn create(
        dir: &Path,
        shard_index: u32,
        meta: &DatasetMeta,
        page_samples: usize,
    ) -> Result<Self, ShardError> {
        if meta.sample_shape.dims().len() > MAX_DIMS {
            return Err(ShardError::Inconsistent(format!(
                "sample rank {} exceeds the format maximum {MAX_DIMS}",
                meta.sample_shape.dims().len()
            )));
        }
        if page_samples == 0 || page_samples > u32::MAX as usize {
            return Err(ShardError::Inconsistent(
                "page size must be in 1..=u32::MAX samples".into(),
            ));
        }
        fs::create_dir_all(dir)?;
        let path = dir.join(shard_file_name(shard_index));
        let tmp = dir.join(format!("{}.tmp", shard_file_name(shard_index)));
        let mut file = fs::File::create(&tmp)?;
        // Placeholder header: correct magic/geometry, sealed flag clear,
        // zero sample count. A crash before seal leaves this .tmp behind
        // and the directory reader ignores it.
        let header = encode_header(meta, shard_index, page_samples as u32, 0, 0, 0);
        file.write_all(&header)?;
        Ok(ShardWriter {
            file,
            tmp,
            path,
            meta: meta.clone(),
            shard_index,
            page_samples: page_samples as u32,
            page_labels: Vec::new(),
            page_images: Vec::new(),
            pages: Vec::new(),
            offset: HEADER_LEN as u64,
            samples: 0,
            bytes_written: HEADER_LEN as u64,
        })
    }

    /// Samples appended so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The shard index this writer fills.
    pub fn shard_index(&self) -> u32 {
        self.shard_index
    }

    /// Appends one sample, flushing a page to disk whenever one fills.
    ///
    /// # Errors
    /// [`ShardError::Inconsistent`] when `image` does not match the
    /// sample shape or `label` is out of class range; [`ShardError::Io`]
    /// on write failures.
    pub fn append(&mut self, image: &[f32], label: usize) -> Result<(), ShardError> {
        if image.len() != self.meta.sample_len() {
            return Err(ShardError::Inconsistent(format!(
                "sample of {} elements appended to a shard of {}-element samples",
                image.len(),
                self.meta.sample_len()
            )));
        }
        if label >= self.meta.classes {
            return Err(ShardError::Inconsistent(format!(
                "label {label} out of range for {} classes",
                self.meta.classes
            )));
        }
        self.page_labels.push(label as u32);
        for &x in image {
            self.page_images
                .extend_from_slice(&x.to_bits().to_le_bytes());
        }
        self.samples += 1;
        if self.page_labels.len() == self.page_samples as usize {
            self.flush_page()?;
        }
        Ok(())
    }

    fn flush_page(&mut self) -> Result<(), ShardError> {
        if self.page_labels.is_empty() {
            return Ok(());
        }
        let n = self.page_labels.len() as u32;
        let mut payload = Vec::with_capacity(self.page_labels.len() * 4 + self.page_images.len());
        for &l in &self.page_labels {
            payload.extend_from_slice(&l.to_le_bytes());
        }
        payload.extend_from_slice(&self.page_images);
        let checksum = fnv1a64(&payload);
        self.file.write_all(&payload)?;
        self.file.write_all(&checksum.to_le_bytes())?;
        self.pages.push(PageEntry {
            offset: self.offset,
            samples: n,
        });
        let page_bytes = payload.len() as u64 + 8;
        self.offset += page_bytes;
        self.bytes_written += page_bytes;
        self.page_labels.clear();
        self.page_images.clear();
        Ok(())
    }

    /// Flushes the final partial page, writes the index section, rewrites
    /// the header with the sealed flag, fsyncs, renames the temp file
    /// over the final name and fsyncs the directory. Returns the sealed
    /// path and the total bytes written.
    ///
    /// # Errors
    /// [`ShardError::Io`] on any filesystem step.
    pub fn seal(mut self) -> Result<(PathBuf, u64), ShardError> {
        self.flush_page()?;
        let index_offset = self.offset;
        let mut index = Vec::with_capacity(4 + self.pages.len() * 12);
        index.extend_from_slice(&(self.pages.len() as u32).to_le_bytes());
        for page in &self.pages {
            index.extend_from_slice(&page.offset.to_le_bytes());
            index.extend_from_slice(&page.samples.to_le_bytes());
        }
        let index_checksum = fnv1a64(&index);
        self.file.write_all(&index)?;
        self.file.write_all(&index_checksum.to_le_bytes())?;
        self.bytes_written += index.len() as u64 + 8;
        // Rewrite the header with the final geometry and the sealed flag.
        let header = encode_header(
            &self.meta,
            self.shard_index,
            self.page_samples,
            FLAG_SEALED,
            self.samples,
            index_offset,
        );
        use std::io::Seek as _;
        self.file.seek(std::io::SeekFrom::Start(0))?;
        self.file.write_all(&header)?;
        self.file.sync_all()?;
        fs::rename(&self.tmp, &self.path)?;
        if let Some(dir) = self.path.parent() {
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok((self.path, self.bytes_written))
    }
}

/// Encodes the 80-byte header.
fn encode_header(
    meta: &DatasetMeta,
    shard_index: u32,
    page_samples: u32,
    flags: u32,
    samples: u64,
    index_offset: u64,
) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..8].copy_from_slice(&MAGIC);
    h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[12..16].copy_from_slice(&flags.to_le_bytes());
    h[16..20].copy_from_slice(&shard_index.to_le_bytes());
    h[20..24].copy_from_slice(&(meta.classes as u32).to_le_bytes());
    let dims = meta.sample_shape.dims();
    h[24..28].copy_from_slice(&(dims.len() as u32).to_le_bytes());
    for (i, &d) in dims.iter().enumerate().take(MAX_DIMS) {
        h[28 + 4 * i..32 + 4 * i].copy_from_slice(&(d as u32).to_le_bytes());
    }
    h[52..60].copy_from_slice(&samples.to_le_bytes());
    h[60..64].copy_from_slice(&page_samples.to_le_bytes());
    h[64..72].copy_from_slice(&index_offset.to_le_bytes());
    let checksum = fnv1a64(&h[0..72]);
    h[72..80].copy_from_slice(&checksum.to_le_bytes());
    h
}

/// Decoded header fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Header {
    pub meta: DatasetMeta,
    pub shard_index: u32,
    pub page_samples: u32,
    pub flags: u32,
    pub samples: u64,
    pub index_offset: u64,
}

/// Validates and decodes a header.
pub(crate) fn decode_header(bytes: &[u8]) -> Result<Header, ShardError> {
    if bytes.len() < HEADER_LEN {
        return Err(corrupt(format!(
            "{} bytes is shorter than the {HEADER_LEN}-byte header",
            bytes.len()
        )));
    }
    if bytes[0..8] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4"));
    let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("8"));
    let version = u32_at(8);
    if version != FORMAT_VERSION {
        return Err(ShardError::Version {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let stored = u64_at(72);
    if fnv1a64(&bytes[0..72]) != stored {
        return Err(corrupt("header checksum mismatch"));
    }
    let dim_count = u32_at(24) as usize;
    if dim_count == 0 || dim_count > MAX_DIMS {
        return Err(corrupt(format!("impossible sample rank {dim_count}")));
    }
    let dims: Vec<usize> = (0..dim_count)
        .map(|i| u32_at(28 + 4 * i) as usize)
        .collect();
    if dims.contains(&0) {
        return Err(corrupt("zero-length sample dimension"));
    }
    let classes = u32_at(20) as usize;
    if classes == 0 {
        return Err(corrupt("zero classes"));
    }
    let page_samples = u32_at(60);
    if page_samples == 0 {
        return Err(corrupt("zero page size"));
    }
    Ok(Header {
        meta: DatasetMeta {
            sample_shape: Shape::new(&dims),
            classes,
        },
        shard_index: u32_at(16),
        page_samples,
        flags: u32_at(12),
        samples: u64_at(52),
        index_offset: u64_at(64),
    })
}

/// Bounded-channel capacity, in samples, between the producer and the
/// writer of [`pack_source`] — the ingestion back-pressure window.
pub(crate) const CHANNEL_CAPACITY: usize = 256;

/// Ingestion knobs for [`pack_source`].
#[derive(Clone, Copy, Debug)]
pub struct PackConfig {
    /// Samples per shard file (the rotation threshold).
    pub samples_per_shard: usize,
    /// Samples per checksummed record page.
    pub page_samples: usize,
}

impl Default for PackConfig {
    fn default() -> Self {
        PackConfig {
            samples_per_shard: 4096,
            page_samples: 64,
        }
    }
}

/// What a pack run produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackReport {
    /// Sealed shard files.
    pub shards: usize,
    /// Total samples across them.
    pub samples: u64,
    /// Total bytes written (headers, pages, indices, checksums).
    pub bytes: u64,
}

/// One in-flight ingestion record.
struct Sample {
    image: Vec<f32>,
    label: usize,
}

/// Drains `rx` into sealed shards under `dir`, rotating every
/// `cfg.samples_per_shard` samples. The bounded channel the caller
/// created provides the back-pressure: a slow disk blocks the producer.
/// Returning drops `rx`, which fails the producer's next (or blocked)
/// send.
///
/// # Errors
/// [`ShardError`] from any writer step; on error, partly-written `.tmp`
/// files are left for the reader to ignore.
fn pack_stream(
    dir: &Path,
    meta: &DatasetMeta,
    rx: Receiver<Sample>,
    cfg: PackConfig,
) -> Result<PackReport, ShardError> {
    if cfg.samples_per_shard == 0 {
        return Err(ShardError::Inconsistent("zero samples_per_shard".into()));
    }
    let mut report = PackReport {
        shards: 0,
        samples: 0,
        bytes: 0,
    };
    let mut writer: Option<ShardWriter> = None;
    while let Ok(sample) = rx.recv() {
        let w = match writer.as_mut() {
            Some(w) => w,
            None => {
                writer = Some(ShardWriter::create(
                    dir,
                    report.shards as u32,
                    meta,
                    cfg.page_samples,
                )?);
                writer.as_mut().expect("just set")
            }
        };
        w.append(&sample.image, sample.label)?;
        report.samples += 1;
        if w.samples() as usize >= cfg.samples_per_shard {
            let (_, bytes) = writer.take().expect("live writer").seal()?;
            report.bytes += bytes;
            report.shards += 1;
        }
    }
    if let Some(w) = writer.take() {
        let (_, bytes) = w.seal()?;
        report.bytes += bytes;
        report.shards += 1;
    }
    Ok(report)
}

/// Packs every sample of `source` (in index order, so a shard-set gather
/// is bit-identical to an in-memory gather) into shards under `dir`,
/// streaming through a bounded channel: a producer thread gathers samples
/// while this thread writes, and the channel's fixed capacity bounds the
/// samples in flight.
///
/// # Errors
/// [`ShardError`] from the writer, or a producer-side gather failure
/// surfaced as [`ShardError::Io`].
pub fn pack_source(
    dir: &Path,
    source: &dyn SampleSource,
    cfg: PackConfig,
) -> Result<PackReport, ShardError> {
    let meta = DatasetMeta::of(source);
    let (tx, rx) = sync_channel::<Sample>(CHANNEL_CAPACITY);
    let sample_len = meta.sample_len();
    std::thread::scope(|scope| {
        let producer = scope.spawn(move || -> Result<(), String> {
            for i in 0..source.len() {
                let (image, labels) = source.gather(&[i]).map_err(|e| e.to_string())?;
                let sample = Sample {
                    image: image.into_vec(),
                    label: labels[0],
                };
                debug_assert_eq!(sample.image.len(), sample_len);
                tx.send(sample).map_err(|_| "writer hung up")?;
            }
            Ok(())
        });
        let report = pack_stream(dir, &meta, rx, cfg);
        let produced = producer.join();
        // The writer-side error is the root cause; the producer's
        // "writer hung up" is just its echo.
        let report = report?;
        match produced {
            Ok(Ok(())) => Ok(report),
            Ok(Err(why)) => Err(ShardError::Io(std::io::Error::other(why))),
            Err(_) => Err(ShardError::Io(std::io::Error::other("producer panicked"))),
        }
    })
}
