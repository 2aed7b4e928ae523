//! The [`SampleSource`] abstraction: where training samples come from.
//!
//! The trainers and the distributed coordinator do not
//! care whether samples live in RAM ([`crate::Dataset`]), in mmap-backed
//! shard files (`crossbow-shard`), or behind any other store — they only
//! gather index batches. [`SampleSource`] is that contract, and
//! [`DataError`] is its typed failure surface (out-of-range indices,
//! empty batches, I/O faults), replacing the panics the in-memory
//! dataset used to throw.

use crossbow_tensor::{Shape, Tensor};

/// Why a data access failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DataError {
    /// A sample index beyond the dataset.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The dataset length.
        len: usize,
    },
    /// A gather over zero indices.
    EmptyBatch,
    /// A split point beyond the dataset.
    SplitOutOfRange {
        /// The requested split point.
        at: usize,
        /// The dataset length.
        len: usize,
    },
    /// An underlying I/O fault (disk-backed sources).
    Io(String),
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::IndexOutOfRange { index, len } => {
                write!(f, "sample index {index} out of range for {len} samples")
            }
            DataError::EmptyBatch => write!(f, "cannot gather an empty batch"),
            DataError::SplitOutOfRange { at, len } => {
                write!(f, "split point {at} beyond dataset of {len} samples")
            }
            DataError::Io(why) => write!(f, "data I/O error: {why}"),
        }
    }
}

impl std::error::Error for DataError {}

/// A source of labelled samples addressable by index.
///
/// Implementations must be deterministic: gathering the same indices
/// twice yields bit-identical tensors, so a training run is reproducible
/// regardless of where the bytes live. All methods take `&self` —
/// sources are shared across pre-processor threads.
pub trait SampleSource: Send + Sync {
    /// Number of samples.
    fn len(&self) -> usize;

    /// True when the source holds no samples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-sample shape.
    fn sample_shape(&self) -> &Shape;

    /// Elements per sample.
    fn sample_len(&self) -> usize {
        self.sample_shape().len()
    }

    /// Number of classes.
    fn classes(&self) -> usize;

    /// Label of sample `i`.
    ///
    /// # Errors
    /// [`DataError::IndexOutOfRange`] for `i >= len()`, or
    /// [`DataError::Io`] for disk-backed sources.
    fn label(&self, i: usize) -> Result<usize, DataError>;

    /// Gathers the given sample indices into a `[batch, ...sample]`
    /// tensor and a label vector.
    ///
    /// # Errors
    /// [`DataError::EmptyBatch`] for no indices,
    /// [`DataError::IndexOutOfRange`] for an index beyond the source, or
    /// [`DataError::Io`] for disk-backed sources.
    fn gather(&self, indices: &[usize]) -> Result<(Tensor, Vec<usize>), DataError>;

    /// The whole source as one `[n, sample_len]` tensor plus labels —
    /// the evaluation path, which scores every held-out sample at once.
    ///
    /// # Errors
    /// As [`SampleSource::gather`].
    fn eval_tensors(&self) -> Result<(Tensor, Vec<usize>), DataError> {
        let all: Vec<usize> = (0..self.len()).collect();
        let (images, labels) = self.gather(&all)?;
        // Evaluation consumers expect a flat [n, sample_len] matrix.
        let n = labels.len();
        let flat = images.reshape(Shape::new(&[n, self.sample_len()]));
        Ok((flat, labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    #[test]
    fn dataset_is_a_sample_source() {
        let d = Dataset::new(
            vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
            vec![0, 1, 0],
            Shape::vector(2),
            2,
        );
        let src: &dyn SampleSource = &d;
        assert_eq!(src.len(), 3);
        assert_eq!(src.classes(), 2);
        assert_eq!(src.sample_len(), 2);
        assert_eq!(src.label(1), Ok(1));
        let (t, l) = src.gather(&[2, 0]).expect("gather");
        assert_eq!(t.data(), &[4.0, 5.0, 0.0, 1.0]);
        assert_eq!(l, vec![0, 0]);
        let (all, labels) = src.eval_tensors().expect("eval");
        assert_eq!(all.shape().dims(), &[3, 2]);
        assert_eq!(labels, vec![0, 1, 0]);
    }

    #[test]
    fn typed_errors_carry_positions() {
        let d = Dataset::new(vec![0.0, 1.0], vec![1], Shape::vector(2), 2);
        let src: &dyn SampleSource = &d;
        assert_eq!(
            src.label(5),
            Err(DataError::IndexOutOfRange { index: 5, len: 1 })
        );
        assert_eq!(src.gather(&[]), Err(DataError::EmptyBatch));
        assert_eq!(
            src.gather(&[0, 9]),
            Err(DataError::IndexOutOfRange { index: 9, len: 1 })
        );
        let msg = DataError::Io("short read".into()).to_string();
        assert!(msg.contains("short read"));
    }
}
