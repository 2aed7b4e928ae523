//! The [`Network`] container: a sequential stack of layers with flat,
//! externally owned parameters.
//!
//! A `Network` is immutable after construction and `Send + Sync`, so one
//! definition is shared by every learner thread. Each learner owns:
//!
//! * a parameter vector (`Vec<f32>` of [`Network::param_len`] elements) —
//!   its *model replica* in the paper's vocabulary;
//! * a gradient vector of the same length;
//! * a [`Scratch`] workspace holding per-layer forward state.
//!
//! This mirrors CROSSBOW's memory layout: "model weights and their
//! gradients are kept in contiguous memory, \[so\] a single allocation call
//! suffices" when the auto-tuner adds a learner (§4.4).

use crate::layer::{Layer, Slot};
use crate::loss::{accuracy, softmax_cross_entropy_ws};
use crossbow_tensor::{Rng, Shape, Tensor, Workspace, WorkspaceStats};
use std::ops::Range;

/// A sequential neural network with externally stored parameters.
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    input_shape: Shape,
    output_classes: usize,
    offsets: Vec<Range<usize>>,
    param_len: usize,
    /// Per-sample shapes entering each layer (index i = input of layer i);
    /// the last entry is the network output shape.
    shapes: Vec<Shape>,
}

/// Builder for [`Network`].
pub struct NetworkBuilder {
    input_shape: Shape,
    layers: Vec<Box<dyn Layer>>,
}

impl NetworkBuilder {
    /// Appends a layer.
    #[allow(clippy::should_implement_trait)] // builder-style push, not ops::Add
    pub fn add(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Validates the layer chain and produces the network.
    ///
    /// # Panics
    /// Panics if shapes do not chain, the network is empty, or the output
    /// is not a class-score vector.
    pub fn build(self) -> Network {
        Network::new(self.input_shape, self.layers)
    }
}

/// Per-learner workspace: one [`Slot`] per layer plus the §4.5 arena that
/// backs every activation, stash and kernel scratch buffer.
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    pub(crate) slots: Vec<Slot>,
    pub(crate) ws: Workspace,
    /// Reusable quantized-activation buffer for the int8 serving path.
    pub(crate) quant_xq: Vec<i16>,
}

impl Scratch {
    /// Usage counters of the backing arena.
    pub fn workspace_stats(&self) -> WorkspaceStats {
        self.ws.stats()
    }

    /// Fresh allocations the arena has performed so far. After the warm-up
    /// iteration this should stay flat across training steps.
    pub fn fresh_allocs(&self) -> u64 {
        self.ws.fresh_allocs()
    }

    /// Sets how many threads GEMMs through this scratch may fan out over
    /// (1 = serial; parallel results are bit-identical to serial).
    pub fn set_parallelism(&mut self, threads: usize) {
        self.ws.set_parallelism(threads);
    }

    /// Direct access to the backing arena (for pre-warming and for
    /// recycling caller-owned buffers into the pool).
    pub fn workspace_mut(&mut self) -> &mut Workspace {
        &mut self.ws
    }
}

/// An executable per-learner memory plan: the element counts a training
/// step checks out of the arena, derived from the same per-layer walk the
/// §4.5 offline planner uses. Feeds `Workspace::reserve` so the very first
/// iteration is already mostly allocation-free, and gives the engine the
/// per-learner arena size for its shared-pool layout.
#[derive(Clone, Debug)]
pub struct NetPlan {
    /// Batch size the plan was computed for.
    pub batch: usize,
    /// Elements of the batch input copy.
    pub input_len: usize,
    /// Per-layer output activation element counts (batch included).
    pub activations: Vec<usize>,
    /// Per-layer scratch element counts (stashes, masks, kernel buffers).
    pub scratch: Vec<usize>,
}

impl NetPlan {
    /// Estimated peak arena bytes for one training step: every stash plus
    /// the two live activations (input and output of the current layer).
    pub fn arena_bytes(&self) -> usize {
        let stashes: usize = self.scratch.iter().sum();
        let peak_act = self.activations.iter().copied().max().unwrap_or(0);
        4 * (stashes + self.input_len + 2 * peak_act)
    }

    /// Builds a pre-warmed workspace sized for this plan.
    pub fn build_workspace(&self) -> Workspace {
        let mut ws = Workspace::new();
        self.prewarm(&mut ws);
        ws
    }

    /// Reserves this plan's buffers inside an existing workspace.
    pub fn prewarm(&self, ws: &mut Workspace) {
        ws.reserve(self.input_len, 1);
        for &len in &self.activations {
            ws.reserve(len, 1);
        }
        let peak_scratch = self.scratch.iter().copied().max().unwrap_or(0);
        ws.reserve(peak_scratch, 2);
    }
}

impl Network {
    /// Starts building a network for per-sample inputs of `input_shape`.
    pub fn builder<S: Into<Shape>>(input_shape: S) -> NetworkBuilder {
        NetworkBuilder {
            input_shape: input_shape.into(),
            layers: Vec::new(),
        }
    }

    /// Creates a network from a layer stack, validating shape chaining.
    pub fn new(input_shape: Shape, layers: Vec<Box<dyn Layer>>) -> Self {
        assert!(!layers.is_empty(), "network needs at least one layer");
        let mut shapes = vec![input_shape.clone()];
        for layer in &layers {
            let next = layer.output_shape(shapes.last().expect("non-empty"));
            shapes.push(next);
        }
        let out = shapes.last().expect("non-empty");
        assert_eq!(
            out.rank(),
            1,
            "network must end in a class-score vector, got {out}"
        );
        let output_classes = out.dim(0);
        let mut offsets = Vec::with_capacity(layers.len());
        let mut off = 0usize;
        for layer in &layers {
            offsets.push(off..off + layer.param_len());
            off += layer.param_len();
        }
        Network {
            layers,
            input_shape,
            output_classes,
            offsets,
            param_len: off,
            shapes,
        }
    }

    /// Total number of parameters.
    pub fn param_len(&self) -> usize {
        self.param_len
    }

    /// Per-sample input shape.
    pub fn input_shape(&self) -> &Shape {
        &self.input_shape
    }

    /// Number of output classes.
    pub fn output_classes(&self) -> usize {
        self.output_classes
    }

    /// The layer stack.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Per-sample shape entering layer `i` (`i == layers().len()` gives the
    /// output shape).
    pub fn shape_at(&self, i: usize) -> &Shape {
        &self.shapes[i]
    }

    /// Parameter range of layer `i` within the flat vector.
    pub fn param_range(&self, i: usize) -> Range<usize> {
        self.offsets[i].clone()
    }

    /// Allocates and initialises a fresh parameter vector (a model
    /// replica).
    pub fn init_params(&self, rng: &mut Rng) -> Vec<f32> {
        let mut params = vec![0.0f32; self.param_len];
        for (layer, range) in self.layers.iter().zip(&self.offsets) {
            layer.init(&mut params[range.clone()], rng);
        }
        params
    }

    /// Allocates a workspace sized for this network.
    pub fn scratch(&self) -> Scratch {
        Scratch {
            slots: vec![Slot::default(); self.layers.len()],
            ws: Workspace::new(),
            quant_xq: Vec::new(),
        }
    }

    /// Allocates a scratch whose arena is pre-warmed from `plan` (so even
    /// the first iteration is mostly served from the pool).
    pub fn scratch_with_plan(&self, plan: &NetPlan) -> Scratch {
        Scratch {
            slots: vec![Slot::default(); self.layers.len()],
            ws: plan.build_workspace(),
            quant_xq: Vec::new(),
        }
    }

    /// Computes the executable §4.5 memory plan for one training step at
    /// the given batch size: per-layer activation and scratch element
    /// counts, via the same layer walk the offline planner uses.
    pub fn plan(&self, batch: usize) -> NetPlan {
        assert!(batch > 0, "plan needs a positive batch size");
        let activations = (0..self.layers.len())
            .map(|i| batch * self.shapes[i + 1].len())
            .collect();
        let scratch = self
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| l.scratch_len(&self.shapes[i], batch))
            .collect();
        NetPlan {
            batch,
            input_len: batch * self.input_shape.len(),
            activations,
            scratch,
        }
    }

    /// Runs the forward pass over a batch, returning `[batch, classes]`
    /// logits. With `train == true` the scratch retains what backward
    /// needs.
    ///
    /// # Panics
    /// Panics if `params` or the batch shape do not match the network.
    pub fn forward(
        &self,
        params: &[f32],
        batch: &Tensor,
        scratch: &mut Scratch,
        train: bool,
    ) -> Tensor {
        assert_eq!(params.len(), self.param_len, "parameter vector mismatch");
        assert_eq!(
            scratch.slots.len(),
            self.layers.len(),
            "scratch from a different network"
        );
        debug_assert_eq!(
            batch.len() % self.input_shape.len().max(1),
            0,
            "batch not divisible into samples"
        );
        // Copy the batch into the arena so every intermediate (including
        // this one) can be recycled the moment the next layer consumes it.
        let mut x = scratch.ws.take_tensor(batch.shape().clone());
        x.copy_from(batch);
        for (i, layer) in self.layers.iter().enumerate() {
            let y = layer.forward(
                &params[self.offsets[i].clone()],
                &x,
                &mut scratch.slots[i],
                &mut scratch.ws,
                train,
            );
            scratch.ws.recycle(std::mem::replace(&mut x, y));
        }
        let b = x.len() / self.output_classes;
        x.reshape([b, self.output_classes])
    }

    /// Runs an inference-mode forward pass over a batch, returning
    /// `[batch, classes]` logits.
    ///
    /// This is the reference eval path (serving runs the same arithmetic
    /// on pre-packed weights, [`Network::forward_eval_packed`]): the
    /// scratch workspace is left empty (no backward state is retained)
    /// and no layer statistics are mutated, so repeated calls with the
    /// same inputs are bit-identical and a single scratch can be reused
    /// across requests indefinitely.
    ///
    /// # Panics
    /// Panics if `params` or the batch shape do not match the network.
    pub fn forward_eval(&self, params: &[f32], batch: &Tensor, scratch: &mut Scratch) -> Tensor {
        self.forward(params, batch, scratch, false)
    }

    /// Inference-mode forward returning the argmax class per sample.
    pub fn predict(&self, params: &[f32], batch: &Tensor, scratch: &mut Scratch) -> Vec<usize> {
        let logits = self.forward_eval(params, batch, scratch);
        self.argmax_rows(logits, scratch)
    }

    /// The argmax class of each row of `[batch, classes]` logits; the
    /// logits go back to the scratch arena.
    pub(crate) fn argmax_rows(&self, logits: Tensor, scratch: &mut Scratch) -> Vec<usize> {
        let out = logits
            .data()
            .chunks_exact(self.output_classes)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map_or(0, |(c, _)| c)
            })
            .collect();
        scratch.ws.recycle(logits);
        out
    }

    /// Forward + softmax cross-entropy + backward. Writes the gradient
    /// (overwriting) into `grad` and returns `(mean loss, batch accuracy)`.
    pub fn loss_and_grad(
        &self,
        params: &[f32],
        batch: &Tensor,
        labels: &[usize],
        grad: &mut [f32],
        scratch: &mut Scratch,
    ) -> (f32, f64) {
        assert_eq!(grad.len(), self.param_len, "gradient vector mismatch");
        let logits = self.forward(params, batch, scratch, true);
        let (loss, mut upstream) = softmax_cross_entropy_ws(&logits, labels, &mut scratch.ws);
        let acc = accuracy(&logits, labels);
        scratch.ws.recycle(logits);
        grad.iter_mut().for_each(|g| *g = 0.0);
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let next = layer.backward(
                &params[self.offsets[i].clone()],
                &mut grad[self.offsets[i].clone()],
                &upstream,
                &scratch.slots[i],
                &mut scratch.ws,
            );
            scratch.ws.recycle(std::mem::replace(&mut upstream, next));
        }
        scratch.ws.recycle(upstream);
        (loss, acc)
    }

    /// Evaluates accuracy over a labelled set, in chunks of `batch_size`.
    pub fn evaluate(
        &self,
        params: &[f32],
        images: &Tensor,
        labels: &[usize],
        batch_size: usize,
    ) -> f64 {
        assert!(batch_size > 0, "batch_size must be positive");
        let sample_len = self.input_shape.len();
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
            dims.extend_from_slice(self.input_shape.dims());
            let chunk = Tensor::from_vec(
                Shape::new(&dims),
                images.data()[start * sample_len..end * sample_len].to_vec(),
            );
            let logits = self.forward(params, &chunk, &mut scratch, false);
            correct += accuracy(&logits, &labels[start..end]) * (end - start) as f64;
            scratch.ws.recycle(logits);
            start = end;
        }
        correct / n as f64
    }

    /// Total forward FLOPs per sample.
    pub fn flops_per_sample(&self) -> u64 {
        self.layers
            .iter()
            .enumerate()
            .map(|(i, l)| l.flops_per_sample(&self.shapes[i]))
            .sum()
    }

    /// Total primitive operator count (forward + backward kernels).
    pub fn op_count(&self) -> usize {
        self.layers.iter().map(|l| l.op_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Dense, Relu};
    use crate::loss::softmax_cross_entropy;
    use crossbow_tensor::gemm::{with_kernel, GemmKernel};

    fn tiny_net() -> Network {
        Network::builder([4])
            .add(Dense::new(4, 8))
            .add(Relu)
            .add(Dense::new(8, 3))
            .build()
    }

    #[test]
    fn param_layout_is_contiguous() {
        let net = tiny_net();
        assert_eq!(net.param_len(), 4 * 8 + 8 + 8 * 3 + 3);
        assert_eq!(net.param_range(0), 0..40);
        assert_eq!(net.param_range(1), 40..40);
        assert_eq!(net.param_range(2), 40..67);
        assert_eq!(net.output_classes(), 3);
    }

    #[test]
    fn forward_shape_is_batch_by_classes() {
        let net = tiny_net();
        let mut rng = Rng::new(1);
        let params = net.init_params(&mut rng);
        let batch = Tensor::randn([5, 4], 1.0, &mut rng);
        let mut scratch = net.scratch();
        let logits = net.forward(&params, &batch, &mut scratch, false);
        assert_eq!(logits.shape().dims(), &[5, 3]);
        assert!(logits.is_finite());
    }

    #[test]
    fn network_gradient_matches_finite_differences() {
        let net = tiny_net();
        let mut rng = Rng::new(2);
        let params = net.init_params(&mut rng);
        let batch = Tensor::randn([3, 4], 1.0, &mut rng);
        let labels = [0usize, 2, 1];
        let mut grad = vec![0.0f32; net.param_len()];
        let mut scratch = net.scratch();
        let (_, _) = net.loss_and_grad(&params, &batch, &labels, &mut grad, &mut scratch);
        let eps = 1e-2f32;
        let loss_at = |p: &[f32]| {
            let mut s = net.scratch();
            let logits = net.forward(p, &batch, &mut s, false);
            softmax_cross_entropy(&logits, &labels).0
        };
        for i in (0..net.param_len()).step_by(7) {
            let mut up = params.clone();
            up[i] += eps;
            let mut dn = params.clone();
            dn[i] -= eps;
            let num = (loss_at(&up) - loss_at(&dn)) / (2.0 * eps);
            assert!(
                (num - grad[i]).abs() < 5e-3 * (1.0 + num.abs()),
                "param {i}: numeric {num} vs analytic {}",
                grad[i]
            );
        }
    }

    #[test]
    fn loss_and_grad_overwrites_stale_gradients() {
        let net = tiny_net();
        let mut rng = Rng::new(3);
        let params = net.init_params(&mut rng);
        let batch = Tensor::randn([2, 4], 1.0, &mut rng);
        let mut grad = vec![99.0f32; net.param_len()];
        let mut scratch = net.scratch();
        net.loss_and_grad(&params, &batch, &[0, 1], &mut grad, &mut scratch);
        assert!(grad.iter().all(|g| g.abs() < 50.0), "stale values cleared");
    }

    #[test]
    fn evaluate_chunks_cover_all_samples() {
        let net = tiny_net();
        let mut rng = Rng::new(4);
        let params = net.init_params(&mut rng);
        let images = Tensor::randn([10, 4], 1.0, &mut rng);
        let labels: Vec<usize> = (0..10).map(|i| i % 3).collect();
        let full = net.evaluate(&params, &images, &labels, 10);
        let chunked = net.evaluate(&params, &images, &labels, 3);
        assert!(
            (full - chunked).abs() < 1e-12,
            "chunking must not change accuracy"
        );
    }

    #[test]
    fn repeated_eval_forwards_are_bit_identical() {
        // Serving depends on this: an eval forward mutates nothing, so the
        // same snapshot + input gives the same bits forever. Exercised on
        // a normalisation-bearing network, the layer type most likely to
        // accumulate hidden state in other frameworks.
        let net = crate::zoo::resnet_small(1, 8, 4);
        let mut rng = Rng::new(5);
        let params = net.init_params(&mut rng);
        let batch = Tensor::randn([3, 1, 8, 8], 1.0, &mut rng);
        let mut scratch = net.scratch();
        let first = net.forward_eval(&params, &batch, &mut scratch);
        for _ in 0..3 {
            let again = net.forward_eval(&params, &batch, &mut scratch);
            assert_eq!(first.data(), again.data(), "eval must be stateless");
        }
        // A fresh scratch gives the same bits too, and interleaving an
        // unrelated batch does not perturb the next result.
        let other = Tensor::randn([2, 1, 8, 8], 1.0, &mut rng);
        let _ = net.forward_eval(&params, &other, &mut scratch);
        let again = net.forward_eval(&params, &batch, &mut net.scratch());
        assert_eq!(first.data(), again.data());
    }

    #[test]
    fn eval_forward_leaves_the_scratch_empty() {
        let net = tiny_net();
        let mut rng = Rng::new(6);
        let params = net.init_params(&mut rng);
        let batch = Tensor::randn([4, 4], 1.0, &mut rng);
        let mut scratch = net.scratch();
        let _ = net.forward_eval(&params, &batch, &mut scratch);
        assert!(
            scratch.slots.iter().all(|s| s.tensors.is_empty()),
            "eval retains no backward state"
        );
        let _ = net.forward(&params, &batch, &mut scratch, true);
        assert!(
            scratch.slots.iter().any(|s| !s.tensors.is_empty()),
            "training forward does retain state"
        );
    }

    #[test]
    fn predict_returns_the_argmax_class() {
        let net = tiny_net();
        let mut rng = Rng::new(7);
        let params = net.init_params(&mut rng);
        let batch = Tensor::randn([6, 4], 1.0, &mut rng);
        let mut scratch = net.scratch();
        let logits = net.forward_eval(&params, &batch, &mut scratch);
        let classes = net.predict(&params, &batch, &mut scratch);
        assert_eq!(classes.len(), 6);
        for (row, &c) in logits.data().chunks_exact(3).zip(&classes) {
            assert!(row.iter().all(|&v| v <= row[c]), "class {c} not argmax");
        }
    }

    /// A small 1x8x8 net at b = 2, and `train_conv`'s shape: 3x16x16
    /// input at b = 16 through stride-2 blocks, whose padded im2col
    /// planes come from the arena too.
    #[test]
    fn training_steps_are_allocation_flat_after_warmup() {
        for (in_c, hw, classes, b) in [(1usize, 8usize, 4usize, 2usize), (3, 16, 10, 16)] {
            let net = crate::zoo::resnet_small(in_c, hw, classes);
            let mut rng = Rng::new(12);
            let params = net.init_params(&mut rng);
            let batch = Tensor::randn([b, in_c, hw, hw], 1.0, &mut rng);
            let labels: Vec<usize> = (0..b).map(|i| (3 * i) % classes).collect();
            let mut grad = vec![0.0f32; net.param_len()];
            let mut scratch = net.scratch();
            // Two warm-up iterations populate every bucket the step needs.
            for _ in 0..2 {
                net.loss_and_grad(&params, &batch, &labels, &mut grad, &mut scratch);
            }
            let after_warmup = scratch.fresh_allocs();
            for _ in 0..5 {
                net.loss_and_grad(&params, &batch, &labels, &mut grad, &mut scratch);
            }
            assert_eq!(
                scratch.fresh_allocs(),
                after_warmup,
                "{in_c}x{hw}x{hw} at b = {b}: the hot path must perform zero fresh arena \
                 allocations after warm-up"
            );
        }
    }

    /// FNV-1a over the bits of the loss and of every gradient element.
    fn gradient_checksum(loss: f32, grad: &[f32]) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for v in std::iter::once(loss).chain(grad.iter().copied()) {
            for byte in v.to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    /// The whole conv forward and backward of `train_conv`'s network at
    /// its batch size, pinned bit for bit on every supported GEMM tier:
    /// a change to the conv lowering or to the GEMM path a shape takes
    /// must leave every gradient bit where it was. A second step on the
    /// same scratch (warm arena, stale buffers) must agree too.
    #[test]
    fn resnet_small_gradient_bits_are_pinned_on_every_tier() {
        const PINNED: u64 = 0x70ee_608b_3c1f_e38a;
        let net = crate::zoo::resnet_small(3, 16, 10);
        let mut rng = Rng::new(36);
        let params = net.init_params(&mut rng);
        let batch = Tensor::randn([16, 3, 16, 16], 1.0, &mut rng);
        let labels: Vec<usize> = (0..16).map(|i| (7 * i) % 10).collect();
        for kernel in GemmKernel::all().into_iter().filter(|k| k.supported()) {
            let sums = with_kernel(kernel, || {
                let mut scratch = net.scratch();
                let mut grad = vec![0.0f32; net.param_len()];
                [0, 1].map(|_| {
                    let (loss, _) =
                        net.loss_and_grad(&params, &batch, &labels, &mut grad, &mut scratch);
                    gradient_checksum(loss, &grad)
                })
            });
            assert_eq!(sums, [PINNED; 2], "{kernel}: {:#018x}", sums[0]);
        }
    }

    #[test]
    fn plan_prewarmed_scratch_trains_without_changing_results() {
        let net = crate::zoo::resnet_small(1, 8, 4);
        let mut rng = Rng::new(13);
        let params = net.init_params(&mut rng);
        let batch = Tensor::randn([2, 1, 8, 8], 1.0, &mut rng);
        let labels = [1usize, 2];
        let plan = net.plan(2);
        assert!(plan.arena_bytes() > 0);
        assert_eq!(plan.activations.len(), net.layers().len());
        let mut cold = net.scratch();
        let mut warm = net.scratch_with_plan(&plan);
        assert!(warm.workspace_stats().bytes_free > 0, "plan pre-warms");
        let mut g1 = vec![0.0f32; net.param_len()];
        let mut g2 = vec![0.0f32; net.param_len()];
        let (l1, _) = net.loss_and_grad(&params, &batch, &labels, &mut g1, &mut cold);
        let (l2, _) = net.loss_and_grad(&params, &batch, &labels, &mut g2, &mut warm);
        assert_eq!(l1, l2, "pre-warming must not change results");
        assert_eq!(g1, g2);
    }

    #[test]
    fn init_is_deterministic_per_seed() {
        let net = tiny_net();
        let a = net.init_params(&mut Rng::new(9));
        let b = net.init_params(&mut Rng::new(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "class-score vector")]
    fn must_end_in_vector() {
        let _ = Network::builder([1, 4, 4])
            .add(crate::layer::Conv2d::same3x3(1, 2))
            .build();
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_network_rejected() {
        let _ = Network::builder([4]).build();
    }
}
