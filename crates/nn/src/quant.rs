//! Quantized inference-only models.
//!
//! A [`QuantizedModel`] is built once from a trained `f32` parameter
//! vector (at snapshot-export time) and then served read-only. Training
//! never sees it.
//!
//! * **f32** — a plain copy of the parameters; its forward is exactly
//!   [`Network::forward_eval`] (a fleet serves it, like bf16, on dense
//!   weights packed once — [`crate::served`] — with the same bits).
//! * **bf16** — parameters round-trip through bfloat16 at build time;
//!   serving runs the unchanged `f32` compute path on the decoded
//!   values, so the only difference from f32 serving is the 8-bit
//!   mantissa of every weight.
//! * **int8** — every [`crate::layer::Dense`] layer's weight matrix is quantized per
//!   output channel and served through the exact-integer kernel in
//!   [`crossbow_tensor::quant`]; biases and every non-dense layer stay
//!   `f32`. The effective `f32` parameter vector (dense weights
//!   *dequantized*) is kept alongside so mixed layers slice one
//!   contiguous vector, same as the training path.
//!
//! Serving through a `QuantizedModel` is deterministic: the int8 kernel
//! is bit-identical across kernel tiers and thread counts (integer
//! accumulation is exact), and the f32/bf16 paths inherit the GEMM
//! determinism contract.

use crate::loss::accuracy;
use crate::network::{Network, Scratch};
use crate::served::DenseOp;
use crossbow_tensor::quant::{bf16_decode, bf16_encode, PackedQuantLinear, QuantLinear};
use crossbow_tensor::{Precision, Shape, Tensor};

/// One dense layer's quantized weights: the row-major storage form
/// plus the packed runtime form.
#[derive(Clone, Debug)]
pub struct QuantDense {
    /// Storage form: per-channel scales + row-major `i8` weights.
    pub lin: QuantLinear,
    packed: PackedQuantLinear,
}

impl QuantDense {
    fn new(lin: QuantLinear) -> QuantDense {
        let packed = PackedQuantLinear::new(&lin);
        QuantDense { lin, packed }
    }
}

/// An inference-only model at a chosen serving precision.
#[derive(Clone, Debug)]
pub struct QuantizedModel {
    precision: Precision,
    /// Effective full-length `f32` parameters: dense weight regions hold
    /// *dequantized* values under int8, so non-dense layers and biases
    /// slice it exactly like the training parameter vector.
    params: Vec<f32>,
    /// Per-layer quantized dense weights (`None` off the int8 path and
    /// for non-dense layers).
    dense: Vec<Option<QuantDense>>,
}

impl QuantizedModel {
    /// Serving precision this model was built at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The effective `f32` parameter vector (dense regions dequantized
    /// under int8).
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Per-layer quantized dense weights, indexed like
    /// [`Network::layers`].
    pub fn dense_layers(&self) -> &[Option<QuantDense>] {
        &self.dense
    }
}

impl Network {
    /// Builds a [`QuantizedModel`] from trained parameters at the given
    /// precision; int8 models are assembled by [`Network::requantized`].
    ///
    /// # Panics
    /// Panics if `params` does not match the network.
    pub fn quantize(&self, params: &[f32], precision: Precision) -> QuantizedModel {
        assert_eq!(params.len(), self.param_len(), "parameter vector mismatch");
        match precision {
            Precision::F32 => QuantizedModel {
                precision,
                params: params.to_vec(),
                dense: vec![None; self.layers().len()],
            },
            Precision::Bf16 => QuantizedModel {
                precision,
                params: params
                    .iter()
                    .map(|&p| bf16_decode(bf16_encode(p)))
                    .collect(),
                dense: vec![None; self.layers().len()],
            },
            Precision::Int8 => {
                let lins = self
                    .layers()
                    .iter()
                    .enumerate()
                    .map(|(i, layer)| {
                        layer.as_dense().map(|d| {
                            let range = self.param_range(i);
                            let w = &params
                                [range.start..range.start + d.in_features() * d.out_features()];
                            QuantLinear::quantize(w, d.out_features(), d.in_features())
                        })
                    })
                    .collect();
                self.requantized(params.to_vec(), lins)
            }
        }
    }

    /// Reassembles an int8 [`QuantizedModel`] from stored parts: the
    /// non-dense `f32` parameters (dense weight regions may hold
    /// anything — they are overwritten with dequantized values) and the
    /// per-layer quantized weights.
    ///
    /// Stored quantized weights must come back through this rather than
    /// through re-quantizing: `quantize ∘ dequantize` re-derives each
    /// channel scale from already-rounded weights and is *not* the
    /// identity, so it would serve different bytes than the original.
    ///
    /// # Panics
    /// Panics if the parts do not match the network's layer stack.
    pub fn requantized(
        &self,
        mut params: Vec<f32>,
        lins: Vec<Option<QuantLinear>>,
    ) -> QuantizedModel {
        assert_eq!(params.len(), self.param_len(), "parameter vector mismatch");
        assert_eq!(lins.len(), self.layers().len(), "one entry per layer");
        let dense: Vec<Option<QuantDense>> = self
            .layers()
            .iter()
            .enumerate()
            .zip(lins)
            .map(|((i, layer), lin)| match (layer.as_dense(), lin) {
                (Some(d), Some(lin)) => {
                    assert_eq!(lin.rows, d.out_features(), "dense rows mismatch");
                    assert_eq!(lin.cols, d.in_features(), "dense cols mismatch");
                    let range = self.param_range(i);
                    lin.dequantize_into(
                        &mut params[range.start..range.start + lin.rows * lin.cols],
                    );
                    Some(QuantDense::new(lin))
                }
                (_, None) => None,
                (None, Some(_)) => panic!("quantized weights for a non-dense layer {i}"),
            })
            .collect();
        QuantizedModel {
            precision: Precision::Int8,
            params,
            dense,
        }
    }

    /// Inference-mode forward through a quantized model, returning
    /// `[batch, classes]` logits. f32/bf16 models run the unchanged
    /// `f32` path on the effective parameters; int8 models swap each
    /// dense layer's matrix product for the exact-integer kernel.
    ///
    /// # Panics
    /// Panics if the model or batch shape does not match the network.
    pub fn forward_eval_quant(
        &self,
        model: &QuantizedModel,
        batch: &Tensor,
        scratch: &mut Scratch,
    ) -> Tensor {
        assert_eq!(
            model.params.len(),
            self.param_len(),
            "quantized model from a different network"
        );
        if model.precision != Precision::Int8 {
            return self.forward_eval(&model.params, batch, scratch);
        }
        self.forward_served(
            &model.params,
            |i| model.dense[i].as_ref().map(|qd| DenseOp::Int8(&qd.packed)),
            batch,
            scratch,
        )
    }

    /// Quantized-model forward returning the argmax class per sample.
    pub fn predict_quant(
        &self,
        model: &QuantizedModel,
        batch: &Tensor,
        scratch: &mut Scratch,
    ) -> Vec<usize> {
        let logits = self.forward_eval_quant(model, batch, scratch);
        self.argmax_rows(logits, scratch)
    }

    /// Evaluates a quantized model's accuracy over a labelled set, in
    /// chunks of `batch_size` — the quantized counterpart of
    /// [`Network::evaluate`], used to measure the accuracy delta a
    /// precision costs before publishing it.
    pub fn evaluate_quant(
        &self,
        model: &QuantizedModel,
        images: &Tensor,
        labels: &[usize],
        batch_size: usize,
    ) -> f64 {
        assert!(batch_size > 0, "batch_size must be positive");
        let sample_len = self.input_shape().len();
        let n = labels.len();
        assert_eq!(images.len(), n * sample_len, "images/labels mismatch");
        if n == 0 {
            return 0.0;
        }
        let mut scratch = self.scratch();
        let mut correct = 0.0f64;
        let mut start = 0usize;
        while start < n {
            let end = (start + batch_size).min(n);
            let mut dims = vec![end - start];
            dims.extend_from_slice(self.input_shape().dims());
            let chunk = Tensor::from_vec(
                Shape::new(&dims),
                images.data()[start * sample_len..end * sample_len].to_vec(),
            );
            let logits = self.forward_eval_quant(model, &chunk, &mut scratch);
            correct += accuracy(&logits, &labels[start..end]) * (end - start) as f64;
            scratch.ws.recycle(logits);
            start = end;
        }
        correct / n as f64
    }
}

/// The accuracy a quantized model gains (+) or loses (−) against its
/// `f32` source on a labelled eval set: `quant − f32`, both measured
/// with the same chunking.
pub fn accuracy_delta(
    net: &Network,
    params: &[f32],
    model: &QuantizedModel,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
) -> f32 {
    let base = net.evaluate(params, images, labels, batch_size);
    let quant = net.evaluate_quant(model, images, labels, batch_size);
    (quant - base) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Dense, Relu};
    use crossbow_tensor::gemm::{with_kernel, GemmKernel};
    use crossbow_tensor::Rng;

    fn tiny_net() -> Network {
        Network::builder([4])
            .add(Dense::new(4, 8))
            .add(Relu)
            .add(Dense::new(8, 3))
            .build()
    }

    #[test]
    fn f32_model_serves_identical_bytes() {
        let net = tiny_net();
        let mut rng = Rng::new(31);
        let params = net.init_params(&mut rng);
        let model = net.quantize(&params, Precision::F32);
        let batch = Tensor::randn([5, 4], 1.0, &mut rng);
        let mut scratch = net.scratch();
        let base = net.forward_eval(&params, &batch, &mut scratch);
        let quant = net.forward_eval_quant(&model, &batch, &mut scratch);
        assert_eq!(base.data(), quant.data());
    }

    #[test]
    fn bf16_model_is_the_f32_path_on_rounded_weights() {
        let net = tiny_net();
        let mut rng = Rng::new(32);
        let params = net.init_params(&mut rng);
        let model = net.quantize(&params, Precision::Bf16);
        // The effective params are the bf16 round trip of the originals.
        for (&p, &q) in params.iter().zip(model.params()) {
            assert_eq!(bf16_decode(bf16_encode(p)), q);
        }
        let batch = Tensor::randn([5, 4], 1.0, &mut rng);
        let mut scratch = net.scratch();
        let via_model = net.forward_eval_quant(&model, &batch, &mut scratch);
        let via_params = net.forward_eval(model.params(), &batch, &mut scratch);
        assert_eq!(via_model.data(), via_params.data());
    }

    #[test]
    fn int8_model_quantizes_dense_layers_only() {
        let net = tiny_net();
        let mut rng = Rng::new(33);
        let params = net.init_params(&mut rng);
        let model = net.quantize(&params, Precision::Int8);
        let dense: Vec<bool> = model.dense_layers().iter().map(|d| d.is_some()).collect();
        assert_eq!(dense, vec![true, false, true], "dense, relu, dense");
        // Biases stay exact f32.
        let r = net.param_range(2);
        assert_eq!(
            &params[r.start + 24..r.end],
            &model.params()[r.start + 24..r.end]
        );
    }

    #[test]
    fn int8_forward_is_bit_identical_across_kernels() {
        let net = tiny_net();
        let mut rng = Rng::new(34);
        let params = net.init_params(&mut rng);
        let model = net.quantize(&params, Precision::Int8);
        let batch = Tensor::randn([7, 4], 1.0, &mut rng);
        let runs: Vec<Vec<f32>> = GemmKernel::all()
            .into_iter()
            .filter(|k| k.supported())
            .map(|kernel| {
                with_kernel(kernel, || {
                    let mut scratch = net.scratch();
                    net.forward_eval_quant(&model, &batch, &mut scratch)
                        .data()
                        .to_vec()
                })
            })
            .collect();
        for run in &runs[1..] {
            assert_eq!(&runs[0], run, "int8 forward must not depend on the kernel");
        }

        // The f32 path too, on the dense net and on LeNet, whose second
        // convolution runs im2col + packed GEMM: every supported tier
        // answers the scalar fallback's bits.
        for (net, seed) in [(tiny_net(), 37), (crate::zoo::lenet(1, 12, 3), 38)] {
            let mut rng = Rng::new(seed);
            let params = net.init_params(&mut rng);
            let mut dims = vec![3];
            dims.extend_from_slice(net.input_shape().dims());
            let batch = Tensor::randn(dims.as_slice(), 1.0, &mut rng);
            let bits = |kernel| {
                with_kernel(kernel, || {
                    let mut scratch = net.scratch();
                    let out = net.forward_eval(&params, &batch, &mut scratch);
                    out.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                })
            };
            let scalar = bits(GemmKernel::Scalar);
            for kernel in GemmKernel::all().into_iter().filter(|k| k.supported()) {
                assert_eq!(bits(kernel), scalar, "f32 forward differs under {kernel}");
            }
        }
    }

    #[test]
    fn int8_predictions_track_f32_on_separated_data() {
        // Class prototypes far apart: quantization noise (<1% per weight)
        // cannot flip an argmax, so quantized and f32 predictions agree.
        let net = Network::builder([4]).add(Dense::new(4, 4)).build();
        let mut params = vec![0.0f32; net.param_len()];
        for c in 0..4 {
            params[c * 4 + c] = 1.0; // W = I
        }
        let model = net.quantize(&params, Precision::Int8);
        let mut rng = Rng::new(35);
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for s in 0..40 {
            let c = s % 4;
            labels.push(c);
            for f in 0..4 {
                let centre = if f == c { 3.0 } else { -3.0 };
                data.push(centre + 0.3 * rng.normal());
            }
        }
        let images = Tensor::from_vec([40, 4], data);
        let mut scratch = net.scratch();
        let base = net.predict(&params, &images, &mut scratch);
        let quant = net.predict_quant(&model, &images, &mut scratch);
        assert_eq!(base, quant);
        assert_eq!(
            accuracy_delta(&net, &params, &model, &images, &labels, 16),
            0.0
        );
        assert_eq!(net.evaluate_quant(&model, &images, &labels, 16), 1.0);
    }

    #[test]
    fn requantized_serves_the_exported_bytes() {
        let net = tiny_net();
        let mut rng = Rng::new(36);
        let params = net.init_params(&mut rng);
        let exported = net.quantize(&params, Precision::Int8);
        // Simulate the snapshot round trip: stored parts in, same bytes out.
        let lins = exported
            .dense_layers()
            .iter()
            .map(|d| d.as_ref().map(|qd| qd.lin.clone()))
            .collect();
        let loaded = net.requantized(exported.params().to_vec(), lins);
        let batch = Tensor::randn([6, 4], 1.0, &mut rng);
        let mut scratch = net.scratch();
        let a = net.forward_eval_quant(&exported, &batch, &mut scratch);
        let b = net.forward_eval_quant(&loaded, &batch, &mut scratch);
        assert_eq!(a.data(), b.data());
        assert_eq!(exported.params(), loaded.params());
    }

    #[test]
    fn quant_eval_leaves_no_backward_state() {
        let net = tiny_net();
        let mut rng = Rng::new(37);
        let params = net.init_params(&mut rng);
        let model = net.quantize(&params, Precision::Int8);
        let batch = Tensor::randn([3, 4], 1.0, &mut rng);
        let mut scratch = net.scratch();
        let _ = net.forward_eval_quant(&model, &batch, &mut scratch);
        assert!(scratch.slots.iter().all(|s| s.tensors.is_empty()));
    }
}
