//! Mmap-backed shard readers and the multi-shard dataset view.

use crate::error::{corrupt, ShardError};
use crate::format::{decode_header, DatasetMeta, PageEntry, FILE_EXT, FLAG_SEALED, HEADER_LEN};
use crate::mmap::Mapping;
use crossbow_checkpoint::codec::fnv1a64;
use crossbow_data::{DataError, SampleSource};
use crossbow_tensor::{Shape, Tensor};
use std::path::{Path, PathBuf};

/// One validated, memory-mapped shard file.
pub struct ShardReader {
    map: Mapping,
    meta: DatasetMeta,
    shard_index: u32,
    samples: usize,
    page_samples: usize,
    pages: Vec<PageEntry>,
    path: PathBuf,
}

impl std::fmt::Debug for ShardReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardReader")
            .field("path", &self.path)
            .field("shard_index", &self.shard_index)
            .field("samples", &self.samples)
            .field("mmap", &self.map.is_mmap())
            .finish_non_exhaustive()
    }
}

impl ShardReader {
    /// Opens and *fully validates* a sealed shard: header checksum,
    /// index checksum, page-table geometry and every page checksum. All
    /// offsets are bounds-checked against the mapped length, so any
    /// corruption — truncation, a flipped bit, a stale version — yields
    /// a typed [`ShardError`], never a fault through the mapping.
    ///
    /// # Errors
    /// [`ShardError::Io`] when the file cannot be opened;
    /// [`ShardError::Version`] for a foreign format version;
    /// [`ShardError::Corrupt`] for any other validation failure.
    pub fn open(path: &Path) -> Result<Self, ShardError> {
        let map = Mapping::open(path)?;
        let mut scratch = Vec::new();
        let head = map
            .bytes(0, HEADER_LEN.min(map.len()), &mut scratch)
            .map_err(|e| corrupt(e.to_string()))?;
        let header = decode_header(head)?;
        if header.flags & FLAG_SEALED == 0 {
            return Err(corrupt("shard was never sealed"));
        }
        let samples = usize::try_from(header.samples)
            .map_err(|_| corrupt("sample count overflows this platform"))?;
        let sample_len = header.meta.sample_len();
        let page_samples = header.page_samples as usize;

        // Index section: page count, entries, trailing checksum.
        let index_offset = usize::try_from(header.index_offset)
            .ok()
            .filter(|&o| o >= HEADER_LEN && o <= map.len())
            .ok_or_else(|| corrupt("index offset outside the file"))?;
        let mut count_buf = Vec::new();
        let count_bytes = map
            .bytes(index_offset, 4, &mut count_buf)
            .map_err(|e| corrupt(format!("index truncated: {e}")))?;
        let page_count = u32::from_le_bytes(count_bytes.try_into().expect("4")) as usize;
        let expected_pages = samples.div_ceil(page_samples);
        if page_count != expected_pages {
            return Err(corrupt(format!(
                "index lists {page_count} pages, {samples} samples at {page_samples}/page need \
                 {expected_pages}"
            )));
        }
        let table_len = 4 + page_count * 12;
        let mut table_buf = Vec::new();
        let table = map
            .bytes(index_offset, table_len, &mut table_buf)
            .map_err(|e| corrupt(format!("index truncated: {e}")))?;
        let mut sum_buf = Vec::new();
        let stored_sum = map
            .bytes(index_offset + table_len, 8, &mut sum_buf)
            .map_err(|e| corrupt(format!("index checksum truncated: {e}")))?;
        if fnv1a64(table) != u64::from_le_bytes(stored_sum.try_into().expect("8")) {
            return Err(corrupt("index checksum mismatch"));
        }
        let mut pages = Vec::with_capacity(page_count);
        let mut remaining = samples;
        let mut cursor = HEADER_LEN as u64;
        for p in 0..page_count {
            let at = 4 + p * 12;
            let offset = u64::from_le_bytes(table[at..at + 8].try_into().expect("8"));
            let n = u32::from_le_bytes(table[at + 8..at + 12].try_into().expect("4"));
            let expect_n = remaining.min(page_samples);
            if n as usize != expect_n || offset != cursor {
                return Err(corrupt(format!(
                    "page {p} geometry mismatch (offset {offset}, {n} samples)"
                )));
            }
            remaining -= n as usize;
            cursor += n as u64 * (4 + 4 * sample_len as u64) + 8;
            pages.push(PageEntry { offset, samples: n });
        }
        if cursor != index_offset as u64 {
            return Err(corrupt("pages do not meet the index section"));
        }

        // Verify every page checksum now, with bounds-checked reads, so
        // reads after open cannot trip over corruption.
        let mut page_buf = Vec::new();
        for (p, page) in pages.iter().enumerate() {
            let payload_len = page.samples as usize * (4 + 4 * sample_len);
            let offset = page.offset as usize;
            let payload = map
                .bytes(offset, payload_len, &mut page_buf)
                .map_err(|e| corrupt(format!("page {p} truncated: {e}")))?;
            let sum = fnv1a64(payload);
            let mut sum_buf = Vec::new();
            let stored = map
                .bytes(offset + payload_len, 8, &mut sum_buf)
                .map_err(|e| corrupt(format!("page {p} checksum truncated: {e}")))?;
            if sum != u64::from_le_bytes(stored.try_into().expect("8")) {
                return Err(corrupt(format!("page {p} checksum mismatch")));
            }
        }

        Ok(ShardReader {
            map,
            meta: header.meta,
            shard_index: header.shard_index,
            samples,
            page_samples,
            pages,
            path: path.to_path_buf(),
        })
    }

    /// Dataset metadata recorded in the header.
    pub fn meta(&self) -> &DatasetMeta {
        &self.meta
    }

    /// This shard's index within its set.
    pub fn shard_index(&self) -> u32 {
        self.shard_index
    }

    /// Samples in this shard.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Samples per full record page.
    pub fn page_samples(&self) -> usize {
        self.page_samples
    }

    /// The file this reader maps.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// File size in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.map.len() as u64
    }

    /// Whether the OS mapping engaged (vs the positioned-read fallback).
    pub fn is_mmap(&self) -> bool {
        self.map.is_mmap()
    }

    fn locate(&self, local: usize) -> (usize, usize) {
        (local / self.page_samples, local % self.page_samples)
    }

    /// Label of local sample `local`.
    pub(crate) fn label(&self, local: usize) -> Result<usize, DataError> {
        let (p, li) = self.locate(local);
        let page = &self.pages[p];
        let mut buf = [0u8; 4];
        let offset = page.offset as usize + li * 4;
        self.map
            .read_into(offset, &mut buf)
            .map_err(|e| DataError::Io(e.to_string()))?;
        Ok(u32::from_le_bytes(buf) as usize)
    }

    /// Copies local sample `local`'s image into `dst` (bit-exact: the
    /// stored `f32` bit patterns).
    pub(crate) fn copy_image(&self, local: usize, dst: &mut Vec<f32>) -> Result<(), DataError> {
        let (p, li) = self.locate(local);
        let page = &self.pages[p];
        let sample_len = self.meta.sample_len();
        let offset = page.offset as usize + page.samples as usize * 4 + li * sample_len * 4;
        let mut scratch = Vec::new();
        let bytes = self
            .map
            .bytes(offset, sample_len * 4, &mut scratch)
            .map_err(|e| DataError::Io(e.to_string()))?;
        dst.extend(
            bytes
                .chunks_exact(4)
                .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().expect("4")))),
        );
        Ok(())
    }
}

/// A directory of sealed shards presented as one [`SampleSource`].
///
/// Opening walks `shard-*.cbws` in name (= shard-index) order, fully
/// validating each; shards that fail validation are *skipped* and
/// recorded — mirroring `load_latest`'s corruption fallback in
/// `crossbow-checkpoint` — so one flipped bit costs one shard's samples,
/// not the dataset. Global sample index `i` maps to (shard, local) by
/// cumulative counts; gathers are bit-identical to the in-memory
/// [`crossbow_data::Dataset`] the shards were packed from as long as no
/// shard was skipped.
pub struct ShardedDataset {
    shards: Vec<ShardReader>,
    /// `starts[s]` = global index of shard `s`'s first sample.
    starts: Vec<usize>,
    len: usize,
    meta: DatasetMeta,
    skipped: Vec<(PathBuf, ShardError)>,
}

impl std::fmt::Debug for ShardedDataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDataset")
            .field("shards", &self.shards)
            .field("len", &self.len)
            .field("skipped", &self.skipped.len())
            .finish_non_exhaustive()
    }
}

impl ShardedDataset {
    /// Opens every valid shard under `dir`.
    ///
    /// # Errors
    /// [`ShardError::Io`] when the directory cannot be read;
    /// [`ShardError::Inconsistent`] when no valid shard remains (the
    /// last validation error is embedded) or when valid shards disagree
    /// on sample shape or class count.
    pub fn open(dir: &Path) -> Result<Self, ShardError> {
        let mut paths = Vec::new();
        for item in std::fs::read_dir(dir)? {
            let item = item?;
            let name = item.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with("shard-") && name.ends_with(&format!(".{FILE_EXT}")) {
                paths.push(item.path());
            }
        }
        paths.sort();
        if paths.is_empty() {
            return Err(ShardError::Inconsistent(format!(
                "no shard files under {}",
                dir.display()
            )));
        }
        let mut shards = Vec::new();
        let mut skipped = Vec::new();
        for path in paths {
            match ShardReader::open(&path) {
                Ok(shard) => shards.push(shard),
                Err(e) => skipped.push((path, e)),
            }
        }
        let Some(first) = shards.first() else {
            let (path, why) = skipped.pop().expect("at least one candidate");
            return Err(ShardError::Inconsistent(format!(
                "every shard failed validation; last: {} ({why})",
                path.display()
            )));
        };
        let meta = first.meta().clone();
        for s in &shards {
            if s.meta() != &meta {
                return Err(ShardError::Inconsistent(format!(
                    "{} disagrees on dataset metadata",
                    s.path().display()
                )));
            }
        }
        let mut starts = Vec::with_capacity(shards.len());
        let mut len = 0usize;
        for s in &shards {
            starts.push(len);
            len += s.samples();
        }
        if len == 0 {
            return Err(ShardError::Inconsistent(
                "shard set holds no samples".into(),
            ));
        }
        Ok(ShardedDataset {
            shards,
            starts,
            len,
            meta,
            skipped,
        })
    }

    /// Shards that failed validation and were skipped at open, with the
    /// typed reason.
    pub fn skipped(&self) -> &[(PathBuf, ShardError)] {
        &self.skipped
    }

    /// Valid shards in the set.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total on-disk bytes of the valid shards — the figure to compare
    /// against a RAM budget when proving larger-than-memory training.
    pub fn total_file_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.file_bytes()).sum()
    }

    /// Whether every shard engaged a real OS mapping.
    pub fn fully_mmapped(&self) -> bool {
        self.shards.iter().all(|s| s.is_mmap())
    }

    /// Maps a global sample index to `(shard, local)`.
    fn locate(&self, i: usize) -> Result<(usize, usize), DataError> {
        if i >= self.len {
            return Err(DataError::IndexOutOfRange {
                index: i,
                len: self.len,
            });
        }
        let s = match self.starts.binary_search(&i) {
            Ok(s) => s,
            Err(ins) => ins - 1,
        };
        Ok((s, i - self.starts[s]))
    }
}

impl SampleSource for ShardedDataset {
    fn len(&self) -> usize {
        self.len
    }

    fn sample_shape(&self) -> &Shape {
        &self.meta.sample_shape
    }

    fn classes(&self) -> usize {
        self.meta.classes
    }

    fn label(&self, i: usize) -> Result<usize, DataError> {
        let (s, local) = self.locate(i)?;
        self.shards[s].label(local)
    }

    fn gather(&self, indices: &[usize]) -> Result<(Tensor, Vec<usize>), DataError> {
        if indices.is_empty() {
            return Err(DataError::EmptyBatch);
        }
        let sample_len = self.meta.sample_len();
        let mut data = Vec::with_capacity(indices.len() * sample_len);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            let (s, local) = self.locate(i)?;
            let shard = &self.shards[s];
            shard.copy_image(local, &mut data)?;
            labels.push(shard.label(local)?);
        }
        let mut dims = vec![indices.len()];
        dims.extend_from_slice(self.meta.sample_shape.dims());
        Ok((Tensor::from_vec(Shape::new(&dims), data), labels))
    }
}
