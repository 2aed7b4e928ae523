//! The served forward: one layer loop for every serving form of a
//! network's dense weights.
//!
//! The training and reference paths ([`Network::forward`],
//! [`Network::forward_eval`], [`Network::predict`]) hand each dense layer
//! its slice of the flat parameter vector, and the layer packs its weight
//! matrix into GEMM tiles on every call. A served snapshot runs the same
//! weights for every request, so serving keeps its dense weights in a
//! form prepared once:
//!
//! * [`PackedDense`] — f32 weights (bf16-rounded ones included) packed
//!   into the GEMM kernel's tile layout ([`PackedRhs`]). Packing moves
//!   data without changing the arithmetic or its order, so the logits
//!   are bit-identical to [`Network::forward_eval`];
//! * an int8 [`crate::QuantizedModel`] — the exact-integer kernel.
//!
//! Both run through the same layer loop; biases and every non-dense
//! layer still read the flat parameters.

use crate::network::{Network, Scratch};
use crossbow_tensor::gemm::{gemm_bt_packed, GemmKernel, PackedRhs};
use crossbow_tensor::quant::PackedQuantLinear;
use crossbow_tensor::Tensor;

/// A network's dense weight matrices packed once for the f32 GEMM
/// kernel. It holds the packed weights only, no copy of the parameter
/// vector: biases and non-dense layers are read from the parameters it
/// was packed from.
#[derive(Clone, Debug)]
pub struct PackedDense {
    /// One entry per layer, indexed like [`Network::layers`]; `None` for
    /// non-dense layers.
    layers: Vec<Option<PackedRhs>>,
}

impl PackedDense {
    /// Whether `kernel` tiles at the width these weights were packed for.
    pub fn fits(&self, kernel: GemmKernel) -> bool {
        self.layers.iter().flatten().all(|w| w.fits(kernel))
    }
}

/// How the served forward computes one dense layer's `x @ W^T`.
pub(crate) enum DenseOp<'a> {
    /// Pre-packed f32 tiles through the GEMM micro-kernel.
    F32(&'a PackedRhs),
    /// The exact-integer kernel.
    Int8(&'a PackedQuantLinear),
}

impl Network {
    /// Packs the dense weight matrices of `params` for the process's GEMM
    /// kernel ([`GemmKernel::detected`]).
    ///
    /// # Panics
    /// Panics if `params` does not match the network.
    pub fn pack_dense(&self, params: &[f32]) -> PackedDense {
        assert_eq!(params.len(), self.param_len(), "parameter vector mismatch");
        let kernel = GemmKernel::detected();
        let layers = self
            .layers()
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                layer.as_dense().map(|d| {
                    let (n, k) = (d.out_features(), d.in_features());
                    let start = self.param_range(i).start;
                    PackedRhs::pack_bt(&params[start..start + n * k], n, k, kernel)
                })
            })
            .collect();
        PackedDense { layers }
    }

    /// Inference-mode forward with the dense weights taken from `packed`,
    /// which must have been packed from `params`: the logits of
    /// [`Network::forward_eval`] on `params`, bit for bit, without
    /// re-packing a weight matrix. A thread whose active kernel does not
    /// fit the packing (a [`with_kernel`] override) runs
    /// [`Network::forward_eval`] instead.
    ///
    /// [`with_kernel`]: crossbow_tensor::gemm::with_kernel
    ///
    /// # Panics
    /// Panics if `params`, `packed` or the batch shape do not match the
    /// network.
    pub fn forward_eval_packed(
        &self,
        params: &[f32],
        packed: &PackedDense,
        batch: &Tensor,
        scratch: &mut Scratch,
    ) -> Tensor {
        assert_eq!(
            packed.layers.len(),
            self.layers().len(),
            "packed weights from a different network"
        );
        if !packed.fits(GemmKernel::active()) {
            return self.forward_eval(params, batch, scratch);
        }
        self.forward_served(
            params,
            |i| packed.layers[i].as_ref().map(DenseOp::F32),
            batch,
            scratch,
        )
    }

    /// [`Network::forward_eval_packed`] returning the argmax class per
    /// sample: the classes [`Network::predict`] returns.
    pub fn predict_packed(
        &self,
        params: &[f32],
        packed: &PackedDense,
        batch: &Tensor,
        scratch: &mut Scratch,
    ) -> Vec<usize> {
        let logits = self.forward_eval_packed(params, packed, batch, scratch);
        self.argmax_rows(logits, scratch)
    }

    /// The served layer loop, returning `[batch, classes]` logits. Layer
    /// `i` runs as `dense(i)` when that is `Some` (plus its `f32` bias
    /// from `params`), otherwise through its own eval forward on
    /// `params`.
    pub(crate) fn forward_served<'w>(
        &self,
        params: &[f32],
        dense: impl Fn(usize) -> Option<DenseOp<'w>>,
        batch: &Tensor,
        scratch: &mut Scratch,
    ) -> Tensor {
        assert_eq!(params.len(), self.param_len(), "parameter vector mismatch");
        assert_eq!(
            scratch.slots.len(),
            self.layers().len(),
            "scratch from a different network"
        );
        let mut x = scratch.ws.take_tensor(batch.shape().clone());
        x.copy_from(batch);
        for (i, layer) in self.layers().iter().enumerate() {
            let range = self.param_range(i);
            let y = match dense(i) {
                Some(op) => {
                    let (in_f, out_f) = match op {
                        DenseOp::F32(w) => (w.cols(), w.rows()),
                        DenseOp::Int8(q) => (q.cols(), q.rows()),
                    };
                    let b = x.len() / in_f;
                    let bias = &params[range.start + in_f * out_f..range.end];
                    let mut out = scratch.ws.take_tensor([b, out_f]);
                    match op {
                        DenseOp::F32(w) => gemm_bt_packed(
                            b,
                            1.0,
                            x.data(),
                            w,
                            0.0,
                            out.data_mut(),
                            &mut scratch.ws,
                        ),
                        DenseOp::Int8(q) => {
                            q.forward_batch(x.data(), &mut scratch.quant_xq, out.data_mut())
                        }
                    }
                    for yrow in out.data_mut().chunks_exact_mut(out_f) {
                        for (o, &bv) in yrow.iter_mut().zip(bias) {
                            *o += bv;
                        }
                    }
                    out
                }
                None => layer.forward(
                    &params[range],
                    &x,
                    &mut scratch.slots[i],
                    &mut scratch.ws,
                    false,
                ),
            };
            scratch.ws.recycle(std::mem::replace(&mut x, y));
        }
        let b = x.len() / self.output_classes();
        x.reshape([b, self.output_classes()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{lenet, mlp};
    use crossbow_tensor::gemm::with_kernel;
    use crossbow_tensor::{Rng, Shape};

    /// Packed and reference logits over several batch sizes, through one
    /// reused scratch each.
    fn packed_and_reference(net: &Network, seed: u64) -> Vec<(Vec<f32>, Vec<f32>)> {
        let mut rng = Rng::new(seed);
        let params = net.init_params(&mut rng);
        let packed = net.pack_dense(&params);
        let (mut s1, mut s2) = (net.scratch(), net.scratch());
        [1usize, 3, 16, 70]
            .into_iter()
            .map(|b| {
                let mut dims = vec![b];
                dims.extend_from_slice(net.input_shape().dims());
                let x = Tensor::randn(Shape::new(&dims), 1.0, &mut rng);
                let got = net.forward_eval_packed(&params, &packed, &x, &mut s1);
                let want = net.forward_eval(&params, &x, &mut s2);
                assert_eq!(
                    net.predict_packed(&params, &packed, &x, &mut s1),
                    net.predict(&params, &x, &mut s2)
                );
                (got.data().to_vec(), want.data().to_vec())
            })
            .collect()
    }

    #[test]
    fn packed_eval_is_bit_identical_to_forward_eval_on_an_mlp() {
        // 300 inputs: the first layer's reduction spans two KC blocks.
        for (got, want) in packed_and_reference(&mlp(300, &[40, 17], 5), 1) {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn packed_eval_is_bit_identical_to_forward_eval_with_conv_layers() {
        // Conv and pooling layers read `params`; the 400 -> 120 -> 84 -> 10
        // head runs on packed weights.
        for (got, want) in packed_and_reference(&lenet(1, 28, 10), 2) {
            assert_eq!(got, want);
        }
    }

    /// Under a kernel override whose tile width differs from the packing,
    /// the packed entry point falls back to the reference forward instead
    /// of feeding 16-wide tiles to an 8-wide kernel.
    #[test]
    fn a_scalar_override_falls_back_to_the_reference_forward() {
        let net = mlp(20, &[24], 3);
        let mut rng = Rng::new(3);
        let params = net.init_params(&mut rng);
        let packed = net.pack_dense(&params);
        assert!(packed.fits(GemmKernel::detected()));
        if GemmKernel::detected() != GemmKernel::Scalar {
            assert!(
                !packed.fits(GemmKernel::Scalar),
                "the fallback is exercised"
            );
        }
        let x = Tensor::randn([5, 20], 1.0, &mut rng);
        with_kernel(GemmKernel::Scalar, || {
            let got = net.forward_eval_packed(&params, &packed, &x, &mut net.scratch());
            let want = net.forward_eval(&params, &x, &mut net.scratch());
            assert_eq!(got.data(), want.data());
        });
    }
}
