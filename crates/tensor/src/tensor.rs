//! Owned, dense, row-major `f32` tensors.
//!
//! [`Tensor`] is deliberately simple: a [`Shape`] plus a `Vec<f32>`. The
//! neural-network substrate keeps all *parameters* in flat contiguous
//! vectors (the paper notes in §4.4 that contiguous weights let a replica be
//! allocated with a single call), so `Tensor` is mostly used for layer
//! activations and input batches.

use crate::rng::Rng;
use crate::shape::Shape;
use std::fmt;

/// A dense, row-major `f32` tensor.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor of zeros with the given shape.
    pub fn zeros<S: Into<Shape>>(shape: S) -> Self {
        let shape = shape.into();
        let data = vec![0.0; shape.len()];
        Tensor { shape, data }
    }

    /// A tensor filled with a constant.
    pub fn full<S: Into<Shape>>(shape: S, value: f32) -> Self {
        let shape = shape.into();
        let data = vec![value; shape.len()];
        Tensor { shape, data }
    }

    /// Builds a tensor from a shape and existing data.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.len()`.
    pub fn from_vec<S: Into<Shape>>(shape: S, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// A 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor::from_vec(Shape::vector(data.len()), data.to_vec())
    }

    /// A tensor with entries drawn i.i.d. from `N(0, stddev^2)`.
    pub fn randn<S: Into<Shape>>(shape: S, stddev: f32, rng: &mut Rng) -> Self {
        let shape = shape.into();
        let data = (0..shape.len()).map(|_| rng.normal() * stddev).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying data, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data, row-major.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Reinterprets the tensor with a new shape of the same element count.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape<S: Into<Shape>>(mut self, shape: S) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.len(),
            self.data.len(),
            "cannot reshape {} elements to {shape}",
            self.data.len()
        );
        self.shape = shape;
        self
    }

    /// Copies data from another tensor of identical shape.
    pub fn copy_from(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "copy_from shape mismatch");
        self.data.copy_from_slice(&other.data);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Index of the maximum element (first on ties). `None` when empty.
    pub fn argmax(&self) -> Option<usize> {
        let mut best: Option<(usize, f32)> = None;
        for (i, &v) in self.data.iter().enumerate() {
            match best {
                Some((_, bv)) if bv >= v => {}
                _ => best = Some((i, v)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// Maximum absolute element (0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// True if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor({} ", self.shape)?;
        if self.data.len() <= PREVIEW {
            write!(f, "{:?}", self.data)?;
        } else {
            write!(f, "{:?}...", &self.data[..PREVIEW])?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros([2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let f = Tensor::full([2, 2], 1.5);
        assert!(f.data().iter().all(|&v| v == 1.5));
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_checks_len() {
        let _ = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor::zeros([2, 3]);
        t.data_mut()[5] = 7.0;
        assert_eq!(t.at(&[1, 2]), 7.0);
    }

    #[test]
    fn reshape_keeps_data() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]).reshape([2, 2]);
        assert_eq!(t.at(&[1, 0]), 3.0);
    }

    #[test]
    fn argmax_first_on_ties() {
        let t = Tensor::from_slice(&[1.0, 3.0, 3.0, 2.0]);
        assert_eq!(t.argmax(), Some(1));
        assert_eq!(Tensor::from_slice(&[]).argmax(), None);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        assert_eq!(t.sum(), 2.0);
        assert!((t.mean() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(t.max_abs(), 3.0);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        let ta = Tensor::randn([4, 4], 1.0, &mut a);
        let tb = Tensor::randn([4, 4], 1.0, &mut b);
        assert_eq!(ta.data(), tb.data());
        assert!(ta.is_finite());
    }

    #[test]
    fn copy_from_copies() {
        let src = Tensor::from_slice(&[1.0, 2.0]);
        let mut dst = Tensor::zeros([2]);
        dst.copy_from(&src);
        assert_eq!(dst.data(), src.data());
    }
}
