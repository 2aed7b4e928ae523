//! 2-D convolution via im2col + GEMM — the same lowering cuDNN's GEMM
//! algorithm uses, so the operator counts in the cost profiles map onto
//! real kernels.

use super::{stash_copy, Layer, Slot};
use crate::init::Init;
use crossbow_tensor::conv::{col2im_ws, im2col_ws, ConvGeom};
use crossbow_tensor::gemm::{gemm_at_ws, gemm_bt_ws, gemm_ws};
use crossbow_tensor::{Rng, Shape, Tensor, Workspace};

/// A 2-D convolution over NCHW input with square stride/padding.
#[derive(Clone, Copy, Debug)]
pub struct Conv2d {
    c_in: usize,
    c_out: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
}

impl Conv2d {
    /// Creates a convolution: `c_in -> c_out` channels with a square
    /// `kernel x kernel` filter.
    pub fn new(c_in: usize, c_out: usize, kernel: usize, stride: usize, pad: usize) -> Self {
        assert!(
            c_in > 0 && c_out > 0 && kernel > 0 && stride > 0,
            "bad conv"
        );
        Conv2d {
            c_in,
            c_out,
            kernel,
            stride,
            pad,
        }
    }

    /// A 3x3 "same" convolution (stride 1, pad 1) — the ResNet/VGG staple.
    pub fn same3x3(c_in: usize, c_out: usize) -> Self {
        Conv2d::new(c_in, c_out, 3, 1, 1)
    }

    /// A 1x1 projection convolution with the given stride.
    pub fn projection(c_in: usize, c_out: usize, stride: usize) -> Self {
        Conv2d::new(c_in, c_out, 1, stride, 0)
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    fn geom(&self, input: &Shape) -> ConvGeom {
        assert_eq!(
            input.rank(),
            3,
            "conv2d expects per-sample CHW input, got {input}"
        );
        assert_eq!(
            input.dim(0),
            self.c_in,
            "conv2d expects {} input channels, got {input}",
            self.c_in
        );
        ConvGeom {
            c_in: self.c_in,
            h: input.dim(1),
            w: input.dim(2),
            kh: self.kernel,
            kw: self.kernel,
            stride: self.stride,
            pad: self.pad,
        }
    }

    fn weight_len(&self) -> usize {
        self.c_out * self.c_in * self.kernel * self.kernel
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn param_len(&self) -> usize {
        self.weight_len() + self.c_out
    }

    fn output_shape(&self, input: &Shape) -> Shape {
        let g = self.geom(input);
        Shape::new(&[self.c_out, g.out_h(), g.out_w()])
    }

    fn init(&self, params: &mut [f32], rng: &mut Rng) {
        let fan_in = self.c_in * self.kernel * self.kernel;
        let fan_out = self.c_out * self.kernel * self.kernel;
        let (w, b) = params.split_at_mut(self.weight_len());
        Init::HeNormal.fill(w, fan_in, fan_out, rng);
        Init::Zeros.fill(b, 0, 0, rng);
    }

    fn forward(
        &self,
        params: &[f32],
        input: &Tensor,
        slot: &mut Slot,
        ws: &mut Workspace,
        train: bool,
    ) -> Tensor {
        assert_eq!(input.shape().rank(), 4, "conv2d expects NCHW batches");
        let batch = input.shape().dim(0);
        let per_sample = Shape::new(&input.shape().dims()[1..]);
        let g = self.geom(&per_sample);
        let (out_h, out_w) = (g.out_h(), g.out_w());
        let (w, bias) = params.split_at(self.weight_len());
        let rows = g.col_rows();
        let cols = g.col_cols();
        let mut col = ws.take(g.col_len());
        let mut out = ws.take_tensor([batch, self.c_out, out_h, out_w]);
        let in_len = g.image_len();
        let out_len = self.c_out * out_h * out_w;
        for n in 0..batch {
            let image = &input.data()[n * in_len..(n + 1) * in_len];
            im2col_ws(&g, image, &mut col, ws);
            let out_image = &mut out.data_mut()[n * out_len..(n + 1) * out_len];
            // out = W (c_out x rows) @ col (rows x cols)
            gemm_ws(self.c_out, rows, cols, 1.0, w, &col, 0.0, out_image, ws);
            for (c, plane) in out_image.chunks_exact_mut(cols).enumerate() {
                let bv = bias[c];
                plane.iter_mut().for_each(|o| *o += bv);
            }
        }
        ws.give(col);
        if train {
            slot.recycle_tensors_into(ws);
            stash_copy(slot, ws, input);
        }
        out
    }

    fn backward(
        &self,
        params: &[f32],
        grad_params: &mut [f32],
        grad_output: &Tensor,
        slot: &Slot,
        ws: &mut Workspace,
    ) -> Tensor {
        let input = &slot.tensors[0];
        let batch = input.shape().dim(0);
        let per_sample = Shape::new(&input.shape().dims()[1..]);
        let g = self.geom(&per_sample);
        let rows = g.col_rows();
        let cols = g.col_cols();
        let in_len = g.image_len();
        let out_len = self.c_out * cols;
        let (w, _) = params.split_at(self.weight_len());
        let (gw, gb) = grad_params.split_at_mut(self.weight_len());
        let mut col = ws.take(g.col_len());
        let mut dcol = ws.take(g.col_len());
        let mut grad_in = ws.take_tensor(input.shape().clone());
        for n in 0..batch {
            let image = &input.data()[n * in_len..(n + 1) * in_len];
            let dout = &grad_output.data()[n * out_len..(n + 1) * out_len];
            // dW += dOut (c_out x cols) @ col^T
            im2col_ws(&g, image, &mut col, ws);
            gemm_bt_ws(self.c_out, cols, rows, 1.0, dout, &col, 1.0, gw, ws);
            // db += row sums of dOut per channel
            for (c, plane) in dout.chunks_exact(cols).enumerate() {
                gb[c] += plane.iter().sum::<f32>();
            }
            // dCol = W^T @ dOut, then scatter to dInput
            gemm_at_ws(rows, self.c_out, cols, 1.0, w, dout, 0.0, &mut dcol, ws);
            let dimage = &mut grad_in.data_mut()[n * in_len..(n + 1) * in_len];
            col2im_ws(&g, &dcol, dimage, ws);
        }
        ws.give(col);
        ws.give(dcol);
        grad_in
    }

    fn flops_per_sample(&self, input: &Shape) -> u64 {
        let g = self.geom(input);
        // One GEMM: 2 * c_out * (c_in*k*k) * (out_h*out_w)
        2 * (self.c_out * g.col_rows() * g.col_cols()) as u64
    }

    fn scratch_len(&self, input: &Shape, batch: usize) -> usize {
        let g = self.geom(input);
        // col + dcol during backward, the zero-padded plane im2col and
        // col2im check out, plus the stashed input copy.
        2 * g.col_len() + g.plane_len() + batch * g.image_len()
    }

    fn op_count(&self) -> usize {
        // im2col + gemm forward; im2col + two gemms + col2im backward.
        7
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::gradcheck::check_layer;

    #[test]
    fn identity_kernel_passes_through() {
        // 1x1 conv with weight 1, bias 0 is the identity.
        let layer = Conv2d::new(1, 1, 1, 1, 0);
        let params = vec![1.0, 0.0];
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let mut slot = Slot::default();
        let mut ws = Workspace::new();
        let y = layer.forward(&params, &x, &mut slot, &mut ws, false);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn hand_computed_3x3_sum_kernel() {
        // All-ones 3x3 kernel with pad 1 computes neighbourhood sums.
        let layer = Conv2d::same3x3(1, 1);
        let mut params = vec![1.0; layer.param_len()];
        params[9] = 0.0; // bias
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let mut slot = Slot::default();
        let mut ws = Workspace::new();
        let y = layer.forward(&params, &x, &mut slot, &mut ws, false);
        // Every output is the sum of all in-bounds neighbours.
        assert_eq!(y.data(), &[10.0, 10.0, 10.0, 10.0]);
    }

    #[test]
    fn output_shape_follows_geometry() {
        let layer = Conv2d::new(3, 8, 3, 2, 1);
        let s = layer.output_shape(&Shape::new(&[3, 16, 16]));
        assert_eq!(s.dims(), &[8, 8, 8]);
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn rejects_channel_mismatch() {
        let layer = Conv2d::new(3, 8, 3, 1, 1);
        let _ = layer.output_shape(&Shape::new(&[1, 8, 8]));
    }

    #[test]
    fn gradcheck_basic() {
        check_layer(&Conv2d::new(2, 3, 3, 1, 1), &[2, 5, 5], 2, 31);
    }

    #[test]
    fn gradcheck_strided_projection() {
        check_layer(&Conv2d::projection(3, 4, 2), &[3, 6, 6], 2, 32);
    }

    #[test]
    fn gradcheck_no_padding() {
        check_layer(&Conv2d::new(1, 2, 3, 1, 0), &[1, 5, 5], 3, 33);
    }

    #[test]
    fn flops_scale_with_resolution() {
        let layer = Conv2d::same3x3(16, 16);
        let small = layer.flops_per_sample(&Shape::new(&[16, 8, 8]));
        let large = layer.flops_per_sample(&Shape::new(&[16, 16, 16]));
        assert_eq!(large, small * 4);
    }
}
