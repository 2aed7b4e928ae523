//! Timed replays of public kernels and layers at a workload's shapes.
//!
//! A replay calls a public function in isolation, on seeded inputs of
//! the shape the workload uses, for a small time budget, and reports the
//! median. FLOPs and bytes are *computed* from the shapes, not measured.
//! Replays give the per-layer rates ("how fast is this kernel here") the
//! spans of the traced run cannot: those see only whole calls.

use crate::stats;
use crossbow::comms::{wire, Msg};
use crossbow::data::SampleSource;
use crossbow::nn::layer::{ChannelNorm, Conv2d, Dense, Layer, Slot};
use crossbow::nn::{Network, QuantizedModel};
use crossbow::telemetry::Histogram;
use crossbow::tensor::conv::{im2col, ConvGeom};
use crossbow::tensor::gemm::{gemm_at_ws, gemm_bt_ws, gemm_ws};
use crossbow::tensor::{GemmKernel, PackedQuantLinear, QuantLinear, Rng, Shape, Tensor, Workspace};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Time budget of one replay. Ten of them fit in a second or two, so the
/// traced run stays inside the per-run cap.
pub const BUDGET: Duration = Duration::from_millis(150);

/// Calls `f` repeatedly for `budget` (at least 5, at most 2000 times,
/// after 2 warm-up calls) and returns the per-call seconds.
pub fn time_reps(budget: Duration, mut f: impl FnMut()) -> Vec<f64> {
    f();
    f();
    let begin = Instant::now();
    let mut times = Vec::new();
    while times.len() < 5 || (begin.elapsed() < budget && times.len() < 2000) {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    times
}

fn median_secs(budget: Duration, f: impl FnMut()) -> f64 {
    stats::median(&time_reps(budget, f)).max(1e-12)
}

fn randn(n: usize, rng: &mut Rng) -> Vec<f32> {
    (0..n).map(|_| rng.normal()).collect()
}

/// `0`/`1`/`2` for the scalar, AVX2 and AVX-512 GEMM tiers.
pub fn kernel_tier() -> f64 {
    match GemmKernel::detected() {
        GemmKernel::Scalar => 0.0,
        GemmKernel::Avx2 => 1.0,
        GemmKernel::Avx512 => 2.0,
    }
}

/// One learner's training step, replayed.
pub struct StepReplay {
    /// Median `loss_and_grad` time, µs.
    pub loss_and_grad_us: f64,
    /// Forward (training mode) time over `loss_and_grad` time.
    pub fwd_share: f64,
    /// Arena allocations made after warm-up (0 = the arena is flat).
    pub fresh_allocs: f64,
}

fn batch_input(net: &Network, batch: usize, rng: &mut Rng) -> (Tensor, Vec<usize>) {
    let mut dims = vec![batch];
    dims.extend_from_slice(net.input_shape().dims());
    let input = Tensor::randn(Shape::new(&dims), 1.0, rng);
    let labels = (0..batch)
        .map(|_| rng.below(net.output_classes()))
        .collect();
    (input, labels)
}

/// Replays `loss_and_grad` at the workload's model and batch size.
pub fn train_step(net: &Network, batch: usize, seed: u64) -> StepReplay {
    let mut rng = Rng::new(seed ^ 0x5EED_0001);
    let params = net.init_params(&mut rng);
    let (input, labels) = batch_input(net, batch, &mut rng);
    let mut grad = vec![0.0f32; net.param_len()];
    let mut scratch = net.scratch_with_plan(&net.plan(batch));
    for _ in 0..3 {
        net.loss_and_grad(&params, &input, &labels, &mut grad, &mut scratch);
    }
    let warm = scratch.fresh_allocs();
    let step = median_secs(BUDGET, || {
        black_box(net.loss_and_grad(&params, &input, &labels, &mut grad, &mut scratch));
    });
    let fresh_allocs = (scratch.fresh_allocs() - warm) as f64;
    let fwd = median_secs(BUDGET, || {
        let logits = net.forward(&params, &input, &mut scratch, true);
        scratch.workspace_mut().recycle(black_box(logits));
    });
    StepReplay {
        loss_and_grad_us: step * 1e6,
        fwd_share: (fwd / step).min(1.0),
        fresh_allocs,
    }
}

/// One convolution of a model, with how often the model repeats it.
#[derive(Clone, Copy, Debug)]
pub struct ConvShape {
    pub c_in: usize,
    pub c_out: usize,
    pub kernel: usize,
    pub stride: usize,
    pub pad: usize,
    /// Input height = width.
    pub hw: usize,
    pub count: usize,
}

impl ConvShape {
    fn geom(&self) -> ConvGeom {
        ConvGeom {
            c_in: self.c_in,
            h: self.hw,
            w: self.hw,
            kh: self.kernel,
            kw: self.kernel,
            stride: self.stride,
            pad: self.pad,
        }
    }

    fn layer(&self) -> Conv2d {
        Conv2d::new(self.c_in, self.c_out, self.kernel, self.stride, self.pad)
    }

    fn input(&self) -> Shape {
        Shape::new(&[self.c_in, self.hw, self.hw])
    }
}

/// A parameterised non-convolution layer of a model (norm or dense) at
/// its input shape. Activations and pooling are not listed: their time
/// is part of the step's remainder.
pub struct LayerItem {
    pub layer: Box<dyn Layer>,
    pub input: Shape,
}

/// The flat layer inventory of `zoo::resnet(n, w, c, hw, classes)`: the
/// network keeps its residual blocks opaque, so the benchmark rebuilds
/// the same layers from the zoo's public recipe (stem, three stages of
/// `n` basic blocks at widths `w, 2w, 4w`, stride-2 transitions with a
/// 1x1 projection, pooling, classifier). The caller checks the parameter
/// total against the real network, so a recipe change cannot go unseen.
pub fn resnet_inventory(
    n: usize,
    w: usize,
    c: usize,
    hw: usize,
    classes: usize,
) -> (Vec<ConvShape>, Vec<LayerItem>) {
    let mut convs: Vec<ConvShape> = Vec::new();
    let mut others: Vec<LayerItem> = Vec::new();
    let mut conv =
        |c_in, c_out, kernel, stride, pad, hw| match convs.iter_mut().find(|s: &&mut ConvShape| {
            (s.c_in, s.c_out, s.kernel, s.stride, s.hw) == (c_in, c_out, kernel, stride, hw)
        }) {
            Some(s) => s.count += 1,
            None => convs.push(ConvShape {
                c_in,
                c_out,
                kernel,
                stride,
                pad,
                hw,
                count: 1,
            }),
        };
    let mut norm = |ch: usize, hw: usize| {
        others.push(LayerItem {
            layer: Box::new(ChannelNorm::new(ch)),
            input: Shape::new(&[ch, hw, hw]),
        });
    };
    conv(c, w, 3, 1, 1, hw);
    norm(w, hw);
    let (mut c_in, mut size) = (w, hw);
    for (stage, c_out) in [w, 2 * w, 4 * w].into_iter().enumerate() {
        for block in 0..n {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            let out = (size + 2 - 3) / stride + 1;
            conv(c_in, c_out, 3, stride, 1, size);
            norm(c_out, out);
            conv(c_out, c_out, 3, 1, 1, out);
            norm(c_out, out);
            if stride != 1 || c_in != c_out {
                conv(c_in, c_out, 1, stride, 0, size);
            }
            (c_in, size) = (c_out, out);
        }
    }
    others.push(LayerItem {
        layer: Box::new(Dense::new(c_in, classes)),
        input: Shape::vector(c_in),
    });
    (convs, others)
}

/// Parameters of an inventory, for the check against the real network.
pub fn inventory_params(convs: &[ConvShape], others: &[LayerItem]) -> usize {
    convs
        .iter()
        .map(|s| s.count * s.layer().param_len())
        .sum::<usize>()
        + others.iter().map(|i| i.layer.param_len()).sum::<usize>()
}

/// Seconds of one forward (training mode) + backward of `layer` on a
/// seeded batch.
fn layer_step_secs(layer: &dyn Layer, input: &Shape, batch: usize, rng: &mut Rng) -> f64 {
    let mut params = vec![0.0f32; layer.param_len()];
    layer.init(&mut params, rng);
    let mut grad = vec![0.0f32; params.len()];
    let mut dims = vec![batch];
    dims.extend_from_slice(input.dims());
    let x = Tensor::randn(Shape::new(&dims), 1.0, rng);
    let mut out_dims = vec![batch];
    out_dims.extend_from_slice(layer.output_shape(input).dims());
    let dy = Tensor::randn(Shape::new(&out_dims), 1.0, rng);
    let mut slot = Slot::default();
    let mut ws = Workspace::new();
    median_secs(BUDGET / 4, || {
        let y = layer.forward(&params, &x, &mut slot, &mut ws, true);
        let dx = layer.backward(&params, &mut grad, &dy, &slot, &mut ws);
        ws.recycle(black_box(y));
        ws.recycle(black_box(dx));
    })
}

/// Where one training step's time goes, by layer class, as shares of the
/// replayed `loss_and_grad` (`other` is the remainder: activations,
/// pooling, skip additions, the loss and gradient zeroing).
pub struct LayerShares {
    pub conv: f64,
    pub norm: f64,
    pub dense: f64,
    pub other: f64,
}

pub fn layer_shares(
    convs: &[ConvShape],
    others: &[LayerItem],
    batch: usize,
    loss_and_grad_us: f64,
    seed: u64,
) -> LayerShares {
    let mut rng = Rng::new(seed ^ 0x5EED_0002);
    let (mut conv, mut norm, mut dense) = (0.0, 0.0, 0.0);
    for s in convs {
        conv += s.count as f64 * layer_step_secs(&s.layer(), &s.input(), batch, &mut rng);
    }
    for item in others {
        let secs = layer_step_secs(item.layer.as_ref(), &item.input, batch, &mut rng);
        match item.layer.name() {
            "norm" => norm += secs,
            "dense" => dense += secs,
            _ => {}
        }
    }
    // Isolated replays run a little hotter in cache than the real step;
    // never let the named classes exceed the whole.
    let total = (loss_and_grad_us / 1e6).max(conv + norm + dense).max(1e-12);
    LayerShares {
        conv: conv / total,
        norm: norm / total,
        dense: dense / total,
        other: 1.0 - (conv + norm + dense) / total,
    }
}

/// The dense layers of a network without composite blocks (an MLP).
pub fn flat_inventory(net: &Network) -> Vec<LayerItem> {
    net.layers()
        .iter()
        .enumerate()
        .filter_map(|(i, l)| {
            let d = l.as_dense()?;
            Some(LayerItem {
                layer: Box::new(Dense::new(d.in_features(), d.out_features())),
                input: net.shape_at(i).clone(),
            })
        })
        .collect()
}

/// GEMM rate over a model's convolutions at batch `batch`: the forward
/// product and both backward products of every image, GFLOP/s; and the
/// im2col rate over the same shapes, GB/s of computed bytes
/// (image read + column matrix written).
pub fn conv_kernels(convs: &[ConvShape], batch: usize, seed: u64) -> (f64, f64) {
    let mut rng = Rng::new(seed ^ 0x5EED_0003);
    let mut ws = Workspace::new();
    let (mut flops, mut gemm_secs, mut bytes, mut im2col_secs) = (0.0, 0.0, 0.0, 0.0);
    for s in convs {
        let g = s.geom();
        let (rows, cols) = (g.col_rows(), g.col_cols());
        let w = randn(s.c_out * rows, &mut rng);
        let image = randn(g.image_len(), &mut rng);
        let dout = randn(s.c_out * cols, &mut rng);
        let mut col = vec![0.0f32; g.col_len()];
        let mut out = vec![0.0f32; s.c_out * cols];
        let mut gw = vec![0.0f32; s.c_out * rows];
        let mut dcol = vec![0.0f32; g.col_len()];
        let calls = (s.count * batch) as f64;
        im2col_secs +=
            calls * 2.0 * median_secs(BUDGET / 8, || im2col(&g, &image, black_box(&mut col)));
        bytes += calls * 2.0 * ((g.image_len() + g.col_len()) * 4) as f64;
        gemm_secs += calls
            * median_secs(BUDGET / 8, || {
                gemm_ws(s.c_out, rows, cols, 1.0, &w, &col, 0.0, &mut out, &mut ws);
                gemm_bt_ws(s.c_out, cols, rows, 1.0, &dout, &col, 1.0, &mut gw, &mut ws);
                gemm_at_ws(rows, s.c_out, cols, 1.0, &w, &dout, 0.0, &mut dcol, &mut ws);
                black_box((&out, &gw, &dcol));
            });
        flops += calls * 3.0 * 2.0 * (s.c_out * rows * cols) as f64;
    }
    (
        flops / gemm_secs.max(1e-12) / 1e9,
        bytes / im2col_secs.max(1e-12) / 1e9,
    )
}

/// The served model's widest dense layer as `(in, out)` features.
pub fn widest_dense(net: &Network) -> (usize, usize) {
    net.layers()
        .iter()
        .filter_map(|l| l.as_dense())
        .map(|d| (d.in_features(), d.out_features()))
        .max_by_key(|&(i, o)| i * o)
        .expect("a served MLP has a dense layer")
}

/// f32 dense forward (`x @ W^T`, the call `Dense::forward` makes) at
/// batch `b`, GFLOP/s.
pub fn dense_gemm_gflops(in_f: usize, out_f: usize, b: usize, seed: u64) -> f64 {
    let mut rng = Rng::new(seed ^ 0x5EED_0004);
    let w = randn(in_f * out_f, &mut rng);
    let x = randn(b * in_f, &mut rng);
    let mut y = vec![0.0f32; b * out_f];
    let mut ws = Workspace::new();
    let secs = median_secs(BUDGET, || {
        gemm_bt_ws(b, in_f, out_f, 1.0, &x, &w, 0.0, black_box(&mut y), &mut ws);
    });
    2.0 * (b * in_f * out_f) as f64 / secs / 1e9
}

/// int8 dense forward of the same layer at batch `b`, GOP/s.
pub fn int8_gops(in_f: usize, out_f: usize, b: usize, seed: u64) -> f64 {
    let mut rng = Rng::new(seed ^ 0x5EED_0005);
    let w = randn(in_f * out_f, &mut rng);
    let packed = PackedQuantLinear::new(&QuantLinear::quantize(&w, out_f, in_f));
    let x = randn(b * in_f, &mut rng);
    let mut y = vec![0.0f32; b * out_f];
    let mut xq = Vec::new();
    let secs = median_secs(BUDGET, || {
        packed.forward_batch(&x, &mut xq, black_box(&mut y))
    });
    2.0 * (b * in_f * out_f) as f64 / secs / 1e9
}

/// Forward-only inference at the served precision: median µs per call at
/// batch `b`, and the arena allocations made after warm-up.
pub fn eval_us(
    net: &Network,
    params: &[f32],
    quant: Option<&QuantizedModel>,
    b: usize,
    seed: u64,
) -> (f64, f64) {
    let mut rng = Rng::new(seed ^ 0x5EED_0006);
    let (input, _) = batch_input(net, b, &mut rng);
    let mut scratch = net.scratch_with_plan(&net.plan(b));
    let call = |scratch: &mut crossbow::nn::Scratch| match quant {
        Some(q) => black_box(net.predict_quant(q, &input, scratch)),
        None => black_box(net.predict(params, &input, scratch)),
    };
    for _ in 0..3 {
        call(&mut scratch);
    }
    let warm = scratch.fresh_allocs();
    let secs = median_secs(BUDGET, || {
        call(&mut scratch);
    });
    (secs * 1e6, (scratch.fresh_allocs() - warm) as f64)
}

/// Samples per second of `gather` at batch size `batch` over seeded
/// random indices.
pub fn gather_rate(source: &dyn SampleSource, batch: usize, seed: u64) -> f64 {
    let mut rng = Rng::new(seed ^ 0x5EED_0007);
    let batches: Vec<Vec<usize>> = (0..256)
        .map(|_| (0..batch).map(|_| rng.below(source.len())).collect())
        .collect();
    let mut next = 0usize;
    let secs = median_secs(BUDGET, || {
        black_box(
            source
                .gather(&batches[next % batches.len()])
                .expect("indices in range"),
        );
        next += 1;
    });
    batch as f64 / secs
}

/// The messages of one parameter-server round for one worker.
pub struct RoundMessages {
    pub work: Msg,
    pub grad: Msg,
}

impl RoundMessages {
    pub fn new(param_len: usize, batch: usize, sample_len: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5EED_0008);
        RoundMessages {
            work: Msg::Work {
                iter: 1,
                slot: 0,
                params: randn(param_len, &mut rng),
                dims: vec![batch as u64, sample_len as u64],
                images: randn(batch * sample_len, &mut rng),
                labels: vec![0; batch],
            },
            grad: Msg::Grad {
                iter: 1,
                slot: 0,
                loss: 1.0,
                grad: randn(param_len, &mut rng),
            },
        }
    }

    /// Framed bytes one worker's round puts on the wire, both directions.
    pub fn framed_bytes(&self) -> u64 {
        (wire::frame(&self.work.encode()).len() + wire::frame(&self.grad.encode()).len()) as u64
    }
}

/// `Msg::encode` + framing, and frame parsing + `Msg::decode`, over one
/// round's messages: MB/s of framed bytes each way.
pub fn codec_rates(msgs: &RoundMessages, checks: &mut crate::harness::Checks) -> (f64, f64) {
    let framed: Vec<Vec<u8>> = [&msgs.work, &msgs.grad]
        .iter()
        .map(|m| wire::frame(&m.encode()))
        .collect();
    let bytes: usize = framed.iter().map(Vec::len).sum();
    let encode = median_secs(BUDGET, || {
        black_box(wire::frame(&msgs.work.encode()));
        black_box(wire::frame(&msgs.grad.encode()));
    });
    let decode_all = || -> Vec<Msg> {
        framed
            .iter()
            .map(|f| {
                let payload = wire::FrameReader::new()
                    .read_frame(&mut f.as_slice())
                    .expect("own frame parses");
                Msg::decode(&payload).expect("own message decodes")
            })
            .collect()
    };
    let back = decode_all();
    checks.require(back == [msgs.work.clone(), msgs.grad.clone()], || {
        "Msg round-trip through encode/frame/decode changed a message".into()
    });
    let decode = median_secs(BUDGET, || {
        black_box(decode_all());
    });
    (bytes as f64 / encode / 1e6, bytes as f64 / decode / 1e6)
}

/// A plain TCP stream over loopback moving `bytes` per repetition and
/// waiting for a one-byte acknowledgement: the ceiling for a round's
/// transport, MB/s.
pub fn loopback_mb_per_s(bytes: usize) -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let reps = 8;
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || -> std::io::Result<()> {
            let (mut conn, _) = listener.accept()?;
            let mut buf = vec![0u8; bytes];
            for _ in 0..reps {
                conn.read_exact(&mut buf)?;
                conn.write_all(&[1])?;
            }
            Ok(())
        });
        let mut conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        let payload = vec![0x5Au8; bytes];
        let mut times = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            conn.write_all(&payload)?;
            conn.read_exact(&mut [0u8; 1])?;
            times.push(t.elapsed().as_secs_f64());
        }
        drop(conn);
        reader.join().expect("loopback reader panicked")?;
        Ok(bytes as f64 / stats::median(&times).max(1e-12) / 1e6)
    })
}

/// Relative error of the runtime's log2 [`Histogram`] p99 against the
/// exact p99 of the same samples (milliseconds in).
pub fn hist_p99_rel_err(samples_ms: &[f64]) -> f64 {
    let exact = stats::percentile(samples_ms, 0.99);
    if exact <= 0.0 {
        return 0.0;
    }
    let mut hist = Histogram::new();
    for &ms in samples_ms {
        hist.record(Duration::from_secs_f64(ms.max(0.0) / 1e3));
    }
    let approx = hist.quantile(0.99).map_or(0.0, |d| d.as_secs_f64() * 1e3);
    (approx - exact).abs() / exact
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbow::nn::zoo;

    #[test]
    fn resnet_inventory_matches_the_zoo_network() {
        for (n, w, c, hw, classes) in [(2, 8, 3, 16, 10), (1, 4, 3, 16, 10), (3, 16, 3, 32, 10)] {
            let net = zoo::resnet(n, w, c, hw, classes);
            let (convs, others) = resnet_inventory(n, w, c, hw, classes);
            assert_eq!(
                inventory_params(&convs, &others),
                net.param_len(),
                "n={n} w={w}"
            );
            let conv_count: usize = convs.iter().map(|s| s.count).sum();
            // Stem + two per block + one projection per transition.
            assert_eq!(conv_count, 1 + 6 * n + 2);
        }
    }

    #[test]
    fn flat_inventory_covers_an_mlp() {
        let net = zoo::mlp(8, &[16, 4], 3);
        let items = flat_inventory(&net);
        assert_eq!(items.len(), 3, "three dense layers");
        assert_eq!(inventory_params(&[], &items), net.param_len());
    }

    #[test]
    fn histogram_error_is_measured_against_exact_samples() {
        // All samples at 3 ms: exact p99 = 3 ms, the log2 bucket edge is
        // 4.095 ms → 36.5% error.
        let err = hist_p99_rel_err(&vec![3.0; 100]);
        assert!((err - 0.365).abs() < 0.001, "{err}");
        assert_eq!(hist_p99_rel_err(&[]), 0.0);
    }

    #[test]
    fn shares_of_a_step_sum_to_one() {
        let net = zoo::mlp(16, &[32], 4);
        let step = train_step(&net, 2, 1);
        assert!(step.loss_and_grad_us > 0.0 && step.fwd_share > 0.0 && step.fwd_share <= 1.0);
        let s = layer_shares(&[], &flat_inventory(&net), 2, step.loss_and_grad_us, 1);
        assert!((s.conv + s.norm + s.dense + s.other - 1.0).abs() < 1e-9);
        assert_eq!(s.conv, 0.0);
        assert!(s.dense > 0.0 && s.other >= 0.0);
    }
}
