//! Reduced-precision weight formats for the inference-only serving path.
//!
//! Training stays in `f32` everywhere; quantization happens once, when a
//! snapshot is exported for serving. Two formats:
//!
//! * **bf16** — each weight truncated to the top 16 bits of its `f32`
//!   encoding (round-to-nearest-even). Halves snapshot bytes; decoded
//!   back to `f32` at load time, so the serving compute path is the
//!   unchanged `f32` one.
//! * **int8** — dense weight matrices quantized *per output channel*:
//!   each output row gets a scale `max|row| / 127` and its weights
//!   become `round(w / scale)` clamped to `[-127, 127]`. Activations are
//!   quantized dynamically per sample row the same way, the matrix
//!   product runs in exact `i32` arithmetic, and the result is rescaled
//!   by `sx * sw[j]`. Quarter snapshot bytes and roughly 2x eval
//!   arithmetic density.
//!
//! # Determinism
//!
//! Integer accumulation is exact and order-independent, so the int8
//! forward is **bit-identical across kernel tiers and thread counts** by
//! construction — the SIMD kernels ([`GemmKernel::Avx2`] /
//! [`GemmKernel::Avx512`], via `madd_epi16`) and the scalar loop read
//! the same packed buffer and produce the same `i32` sums. Tests pin
//! exact equality.
//!
//! # Packed int8 layout
//!
//! [`PackedQuantLinear`] stores weights widened to `i16` (so a single
//! `madd_epi16` handles a `p`-pair without the `i16` saturation that
//! `maddubs` would hit), interleaved for 16-output-wide kernels: for
//! output tile `jt` and `p`-pair `p2`,
//!
//! ```text
//! packed[(jt * kp/2 + p2) * 32 + jlane * 2 + e] = w[jt*16 + jlane][2*p2 + e]
//! ```
//!
//! with `kp` = `cols` rounded up to even and out-of-range `j`/`p`
//! zero-filled. One `p`-pair group is 32 `i16` = 64 bytes = one AVX-512
//! register (AVX2 reads it as two consecutive halves; the scalar loop
//! walks the same buffer).

use crate::gemm::GemmKernel;

/// Number of output channels per packed tile (one AVX-512 lane group).
const QNR: usize = 16;

/// Activation rows processed together by the batched integer kernels:
/// each packed-weight load is reused across this many rows, which is
/// what lets the int8 path outrun the batched `f32` GEMM.
const QMB: usize = 4;

/// Serving precision of a model snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precision {
    /// Full-precision `f32` weights (the training format).
    F32,
    /// Weights truncated to bfloat16; compute stays `f32`.
    Bf16,
    /// Dense weights in per-channel int8; dense compute in `i32`.
    Int8,
}

impl Precision {
    /// Every precision, in `--precision` flag order.
    pub fn all() -> [Precision; 3] {
        [Precision::F32, Precision::Bf16, Precision::Int8]
    }

    /// Stable lower-case name (flag value and report label).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Bf16 => "bf16",
            Precision::Int8 => "int8",
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Precision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Precision::all()
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| format!("unknown precision {s:?} (expected f32|bf16|int8)"))
    }
}

/// Encodes one `f32` as bfloat16 (round-to-nearest-even on the dropped
/// 16 mantissa bits). NaNs are quieted so they stay NaN after the
/// truncation.
pub fn bf16_encode(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        return ((bits >> 16) as u16) | 0x0040;
    }
    let lsb = (bits >> 16) & 1;
    ((bits.wrapping_add(0x7fff + lsb)) >> 16) as u16
}

/// Decodes a bfloat16 value back to `f32` (exact — bf16 is a prefix of
/// the `f32` encoding).
pub fn bf16_decode(u: u16) -> f32 {
    f32::from_bits((u as u32) << 16)
}

/// An int8 weight matrix with per-output-channel scales — the *storage*
/// form (row-major, codec-friendly). [`PackedQuantLinear`] is the
/// runtime form.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantLinear {
    /// Output channels (rows of the weight matrix).
    pub rows: usize,
    /// Input features (columns of the weight matrix).
    pub cols: usize,
    /// Per-row scale: `dequantized = q as f32 * scales[row]`.
    pub scales: Vec<f32>,
    /// Quantized weights, row-major `rows x cols`, in `[-127, 127]`.
    pub q: Vec<i8>,
}

impl QuantLinear {
    /// Quantizes a row-major `rows x cols` `f32` weight matrix. Each
    /// row's scale is `max|row| / 127` (1.0 for an all-zero row, so
    /// dequantization is always well-defined).
    pub fn quantize(w: &[f32], rows: usize, cols: usize) -> QuantLinear {
        assert_eq!(w.len(), rows * cols, "weight dims mismatch");
        let mut scales = Vec::with_capacity(rows);
        let mut q = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            let row = &w[r * cols..(r + 1) * cols];
            let max_abs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let scale = if max_abs == 0.0 { 1.0 } else { max_abs / 127.0 };
            scales.push(scale);
            q.extend(
                row.iter()
                    .map(|&x| (x / scale).round().clamp(-127.0, 127.0) as i8),
            );
        }
        QuantLinear {
            rows,
            cols,
            scales,
            q,
        }
    }

    /// Reassembles the storage form from codec fields. The loader uses
    /// this instead of re-quantizing dequantized weights: `quantize ∘
    /// dequantize` is *not* the identity (the re-derived scale differs),
    /// so round-tripping through it would change the served bytes.
    pub fn from_parts(rows: usize, cols: usize, scales: Vec<f32>, q: Vec<i8>) -> QuantLinear {
        assert_eq!(scales.len(), rows, "scale count mismatch");
        assert_eq!(q.len(), rows * cols, "quantized weight dims mismatch");
        QuantLinear {
            rows,
            cols,
            scales,
            q,
        }
    }

    /// Dequantizes into an `f32` buffer of `rows * cols`.
    pub fn dequantize_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.rows * self.cols, "output dims mismatch");
        for r in 0..self.rows {
            let scale = self.scales[r];
            let src = &self.q[r * self.cols..(r + 1) * self.cols];
            let dst = &mut out[r * self.cols..(r + 1) * self.cols];
            for (d, &qv) in dst.iter_mut().zip(src) {
                *d = f32::from(qv) * scale;
            }
        }
    }
}

/// Quantizes one activation row into `i16` values in `[-127, 127]`,
/// zero-padded to `kp` (`cols` rounded up to even). Returns the
/// activation scale `sx` (1.0 for an all-zero row).
fn quantize_activations(x: &[f32], kp: usize, xq: &mut Vec<i16>) -> f32 {
    let max_abs = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let sx = if max_abs == 0.0 { 1.0 } else { max_abs / 127.0 };
    xq.clear();
    xq.resize(kp, 0);
    quantize_row_into(x, sx, xq);
    sx
}

/// Writes `x / sx` rounded to nearest (ties to even) and clamped to
/// `[-127, 127]` into `dst` (already `kp`-sized and zeroed past
/// `x.len()`). Two deliberate choices keep this loop vectorizable —
/// it sits on the hot path of every int8 forward:
///
/// * reciprocal multiply instead of per-element `divps` (plain division
///   remains as the guard for scales so small their reciprocal
///   overflows);
/// * `round_ties_even`, which lowers to a single `roundps`, where
///   `f32::round`'s half-away-from-zero is a libm call per element.
///
/// Every kernel tier shares this one quantization, so both choices are
/// invisible to the bit-identity contract.
fn quantize_row_into(x: &[f32], sx: f32, dst: &mut [i16]) {
    let inv = 1.0 / sx;
    if !inv.is_finite() {
        for (d, &v) in dst.iter_mut().zip(x) {
            *d = (v / sx).round_ties_even().clamp(-127.0, 127.0) as i16;
        }
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: avx2 checked on the line above.
        unsafe { quantize_row_avx2(x, inv, dst) };
        return;
    }
    for (d, &v) in dst.iter_mut().zip(x) {
        *d = (v * inv).round_ties_even().clamp(-127.0, 127.0) as i16;
    }
}

/// The same loop as the portable tail of [`quantize_row_into`], compiled
/// with AVX2 enabled: the baseline x86-64 target has no `roundps`, so
/// `round_ties_even` there is a libm call per element, while under this
/// attribute LLVM auto-vectorizes the whole loop. `roundps`'s
/// nearest-even is exactly `round_ties_even`, so both lowerings produce
/// identical bits — which kernel tier quantizes is unobservable.
///
/// # Safety
/// The caller must have verified AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_row_avx2(x: &[f32], inv: f32, dst: &mut [i16]) {
    for (d, &v) in dst.iter_mut().zip(x) {
        *d = (v * inv).round_ties_even().clamp(-127.0, 127.0) as i16;
    }
}

/// The runtime int8 linear operator: weights widened to `i16` and
/// interleaved for the 16-output-wide integer kernels (see the module
/// docs for the exact layout).
#[derive(Clone, Debug)]
pub struct PackedQuantLinear {
    rows: usize,
    cols: usize,
    /// `cols` rounded up to even (`p`-pairs), zero-padded.
    kp: usize,
    scales: Vec<f32>,
    packed: Vec<i16>,
}

impl PackedQuantLinear {
    /// Packs the storage form for the integer kernels.
    pub fn new(lin: &QuantLinear) -> PackedQuantLinear {
        let (rows, cols) = (lin.rows, lin.cols);
        let kp = cols.div_ceil(2) * 2;
        let tiles = rows.div_ceil(QNR);
        let mut packed = vec![0i16; tiles * kp * QNR];
        for jt in 0..tiles {
            for p2 in 0..kp / 2 {
                let base = (jt * (kp / 2) + p2) * 2 * QNR;
                for jlane in 0..QNR {
                    let j = jt * QNR + jlane;
                    if j >= rows {
                        break;
                    }
                    for e in 0..2 {
                        let p = 2 * p2 + e;
                        if p < cols {
                            packed[base + jlane * 2 + e] = i16::from(lin.q[j * cols + p]);
                        }
                    }
                }
            }
        }
        PackedQuantLinear {
            rows,
            cols,
            kp,
            scales: lin.scales.clone(),
            packed,
        }
    }

    /// Output channels.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input features.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Per-output-channel weight scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Computes `y[j] = (sum_p round(x/sx)[p] * q[j][p]) * sx * scales[j]`
    /// for one sample row — the int8 analogue of `y = x @ W^T`. The
    /// caller adds the (`f32`) bias. `xq` is reusable scratch for the
    /// quantized activations.
    ///
    /// Bit-identical across kernel tiers and thread counts: the integer
    /// accumulation is exact, so only the final rescale touches floats,
    /// and it is a single multiply per output.
    pub fn forward_row(&self, x: &[f32], xq: &mut Vec<i16>, y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "input dims mismatch");
        assert_eq!(y.len(), self.rows, "output dims mismatch");
        let sx = quantize_activations(x, self.kp, xq);
        match GemmKernel::active() {
            GemmKernel::Scalar => self.forward_row_scalar(xq, sx, y),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: dispatch only selects these kernels when
            // `supported()` saw the matching CPU feature.
            GemmKernel::Avx2 => unsafe { self.forward_row_avx2(xq, sx, y) },
            #[cfg(target_arch = "x86_64")]
            GemmKernel::Avx512 => {
                if std::arch::is_x86_feature_detected!("avx512bw") {
                    // SAFETY: avx512f (kernel gate) + avx512bw (checked
                    // here) are both present.
                    unsafe { self.forward_row_avx512(xq, sx, y) }
                } else if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: avx2 checked on the line above.
                    unsafe { self.forward_row_avx2(xq, sx, y) }
                } else {
                    self.forward_row_scalar(xq, sx, y)
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            GemmKernel::Avx2 | GemmKernel::Avx512 => {
                unreachable!("SIMD kernels are never selected off x86-64")
            }
        }
    }

    /// `forward_row` over a whole batch: `xs` is `b * cols` row-major
    /// activations, `ys` receives `b * rows` outputs. Rows are blocked
    /// in groups of `QMB` so the SIMD kernels amortise each packed
    /// weight load across the group. Per (row, output) the accumulation
    /// order is unchanged, so the result is bit-identical to calling
    /// `forward_row` once per row — on every kernel tier.
    pub fn forward_batch(&self, xs: &[f32], xq: &mut Vec<i16>, ys: &mut [f32]) {
        assert_eq!(xs.len() % self.cols, 0, "input dims mismatch");
        let b = xs.len() / self.cols;
        assert_eq!(ys.len(), b * self.rows, "output dims mismatch");
        let kernel = GemmKernel::active();
        let mut sx = [0.0f32; QMB];
        let mut r = 0usize;
        while r < b {
            let mb = QMB.min(b - r);
            let block = &xs[r * self.cols..(r + mb) * self.cols];
            xq.clear();
            xq.resize(mb * self.kp, 0);
            for (i, row) in block.chunks_exact(self.cols).enumerate() {
                let max_abs = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
                sx[i] = if max_abs == 0.0 { 1.0 } else { max_abs / 127.0 };
                quantize_row_into(row, sx[i], &mut xq[i * self.kp..(i + 1) * self.kp]);
            }
            let y = &mut ys[r * self.rows..(r + mb) * self.rows];
            match kernel {
                GemmKernel::Scalar => {
                    for i in 0..mb {
                        self.forward_row_scalar(
                            &xq[i * self.kp..(i + 1) * self.kp],
                            sx[i],
                            &mut y[i * self.rows..(i + 1) * self.rows],
                        );
                    }
                }
                #[cfg(target_arch = "x86_64")]
                // SAFETY: dispatch only selects these kernels when
                // `supported()` saw the matching CPU feature.
                GemmKernel::Avx2 => unsafe { self.forward_block_avx2(xq, mb, &sx, y) },
                #[cfg(target_arch = "x86_64")]
                GemmKernel::Avx512 => {
                    if std::arch::is_x86_feature_detected!("avx512bw") {
                        // SAFETY: avx512f (kernel gate) + avx512bw
                        // (checked here) are both present.
                        unsafe { self.forward_block_avx512(xq, mb, &sx, y) }
                    } else if std::arch::is_x86_feature_detected!("avx2") {
                        // SAFETY: avx2 checked on the line above.
                        unsafe { self.forward_block_avx2(xq, mb, &sx, y) }
                    } else {
                        for i in 0..mb {
                            self.forward_row_scalar(
                                &xq[i * self.kp..(i + 1) * self.kp],
                                sx[i],
                                &mut y[i * self.rows..(i + 1) * self.rows],
                            );
                        }
                    }
                }
                #[cfg(not(target_arch = "x86_64"))]
                GemmKernel::Avx2 | GemmKernel::Avx512 => {
                    unreachable!("SIMD kernels are never selected off x86-64")
                }
            }
            r += mb;
        }
    }

    /// Portable integer kernel over the packed layout — the reference
    /// the SIMD kernels must match exactly.
    fn forward_row_scalar(&self, xq: &[i16], sx: f32, y: &mut [f32]) {
        let pairs = self.kp / 2;
        for jt in 0..self.rows.div_ceil(QNR) {
            let mut acc = [0i32; QNR];
            for p2 in 0..pairs {
                let group = &self.packed[(jt * pairs + p2) * 2 * QNR..];
                let x0 = i32::from(xq[2 * p2]);
                let x1 = i32::from(xq[2 * p2 + 1]);
                for (jlane, a) in acc.iter_mut().enumerate() {
                    *a += x0 * i32::from(group[jlane * 2]) + x1 * i32::from(group[jlane * 2 + 1]);
                }
            }
            let j0 = jt * QNR;
            let lanes = QNR.min(self.rows - j0);
            for jlane in 0..lanes {
                y[j0 + jlane] = acc[jlane] as f32 * (sx * self.scales[j0 + jlane]);
            }
        }
    }

    /// AVX2 integer kernel: each 64-byte `p`-pair group is consumed as
    /// two 256-bit halves, `madd_epi16` pairs exactly like the scalar
    /// loop.
    ///
    /// # Safety
    /// The caller must have verified AVX2 support (kernel dispatch does).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn forward_row_avx2(&self, xq: &[i16], sx: f32, y: &mut [f32]) {
        use std::arch::x86_64::*;
        let pairs = self.kp / 2;
        let xp = xq.as_ptr();
        for jt in 0..self.rows.div_ceil(QNR) {
            // Two p-pairs per iteration = four independent madd+add
            // chains; i32 addition is exact, so the split accumulators
            // still match the scalar loop bit for bit.
            let mut acc0a = _mm256_setzero_si256();
            let mut acc1a = _mm256_setzero_si256();
            let mut acc0b = _mm256_setzero_si256();
            let mut acc1b = _mm256_setzero_si256();
            let mut wp = self.packed.as_ptr().add(jt * pairs * 2 * QNR);
            let mut p2 = 0usize;
            while p2 + 2 <= pairs {
                // Both halves of an x p-pair in one i32 lane: low 16
                // bits = x[2p2], high 16 bits = x[2p2+1] (little-endian
                // load).
                let xa = _mm256_set1_epi32((xp.add(2 * p2) as *const i32).read_unaligned());
                let xb = _mm256_set1_epi32((xp.add(2 * p2 + 2) as *const i32).read_unaligned());
                let w0a = _mm256_loadu_si256(wp as *const __m256i);
                let w1a = _mm256_loadu_si256(wp.add(QNR) as *const __m256i);
                let w0b = _mm256_loadu_si256(wp.add(2 * QNR) as *const __m256i);
                let w1b = _mm256_loadu_si256(wp.add(3 * QNR) as *const __m256i);
                acc0a = _mm256_add_epi32(acc0a, _mm256_madd_epi16(xa, w0a));
                acc1a = _mm256_add_epi32(acc1a, _mm256_madd_epi16(xa, w1a));
                acc0b = _mm256_add_epi32(acc0b, _mm256_madd_epi16(xb, w0b));
                acc1b = _mm256_add_epi32(acc1b, _mm256_madd_epi16(xb, w1b));
                wp = wp.add(4 * QNR);
                p2 += 2;
            }
            if p2 < pairs {
                let xv = _mm256_set1_epi32((xp.add(2 * p2) as *const i32).read_unaligned());
                let w0 = _mm256_loadu_si256(wp as *const __m256i);
                let w1 = _mm256_loadu_si256(wp.add(QNR) as *const __m256i);
                acc0a = _mm256_add_epi32(acc0a, _mm256_madd_epi16(xv, w0));
                acc1a = _mm256_add_epi32(acc1a, _mm256_madd_epi16(xv, w1));
            }
            let acc0 = _mm256_add_epi32(acc0a, acc0b);
            let acc1 = _mm256_add_epi32(acc1a, acc1b);
            let mut lanes_acc = [0i32; QNR];
            _mm256_storeu_si256(lanes_acc.as_mut_ptr() as *mut __m256i, acc0);
            _mm256_storeu_si256(lanes_acc.as_mut_ptr().add(8) as *mut __m256i, acc1);
            let j0 = jt * QNR;
            let lanes = QNR.min(self.rows - j0);
            for (jlane, &a) in lanes_acc.iter().enumerate().take(lanes) {
                y[j0 + jlane] = a as f32 * (sx * self.scales[j0 + jlane]);
            }
        }
    }

    /// AVX2 batched kernel: [`QMB`] rows share every packed-weight load.
    /// Rows of a partial block go through the single-row kernel.
    ///
    /// # Safety
    /// The caller must have verified AVX2 support (kernel dispatch does).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn forward_block_avx2(&self, xq: &[i16], mb: usize, sx: &[f32; QMB], y: &mut [f32]) {
        use std::arch::x86_64::*;
        if mb < QMB {
            for i in 0..mb {
                self.forward_row_avx2(
                    &xq[i * self.kp..(i + 1) * self.kp],
                    sx[i],
                    &mut y[i * self.rows..(i + 1) * self.rows],
                );
            }
            return;
        }
        let pairs = self.kp / 2;
        let kp = self.kp;
        // One cursor per activation row; named accumulators (two 256-bit
        // halves per row) keep the tile in registers.
        let xp0 = xq.as_ptr();
        let xp1 = xp0.add(kp);
        let xp2 = xp0.add(2 * kp);
        let xp3 = xp0.add(3 * kp);
        for jt in 0..self.rows.div_ceil(QNR) {
            let mut acc0l = _mm256_setzero_si256();
            let mut acc0h = _mm256_setzero_si256();
            let mut acc1l = _mm256_setzero_si256();
            let mut acc1h = _mm256_setzero_si256();
            let mut acc2l = _mm256_setzero_si256();
            let mut acc2h = _mm256_setzero_si256();
            let mut acc3l = _mm256_setzero_si256();
            let mut acc3h = _mm256_setzero_si256();
            let mut wp = self.packed.as_ptr().add(jt * pairs * 2 * QNR);
            for p2 in 0..pairs {
                // One x p-pair per i32 lane: low 16 bits = x[2p2], high
                // 16 bits = x[2p2+1] (little-endian load).
                let w0 = _mm256_loadu_si256(wp as *const __m256i);
                let w1 = _mm256_loadu_si256(wp.add(QNR) as *const __m256i);
                let x0 = _mm256_set1_epi32((xp0.add(2 * p2) as *const i32).read_unaligned());
                let x1 = _mm256_set1_epi32((xp1.add(2 * p2) as *const i32).read_unaligned());
                let x2 = _mm256_set1_epi32((xp2.add(2 * p2) as *const i32).read_unaligned());
                let x3 = _mm256_set1_epi32((xp3.add(2 * p2) as *const i32).read_unaligned());
                acc0l = _mm256_add_epi32(acc0l, _mm256_madd_epi16(x0, w0));
                acc0h = _mm256_add_epi32(acc0h, _mm256_madd_epi16(x0, w1));
                acc1l = _mm256_add_epi32(acc1l, _mm256_madd_epi16(x1, w0));
                acc1h = _mm256_add_epi32(acc1h, _mm256_madd_epi16(x1, w1));
                acc2l = _mm256_add_epi32(acc2l, _mm256_madd_epi16(x2, w0));
                acc2h = _mm256_add_epi32(acc2h, _mm256_madd_epi16(x2, w1));
                acc3l = _mm256_add_epi32(acc3l, _mm256_madd_epi16(x3, w0));
                acc3h = _mm256_add_epi32(acc3h, _mm256_madd_epi16(x3, w1));
                wp = wp.add(2 * QNR);
            }
            let j0 = jt * QNR;
            let lanes = QNR.min(self.rows - j0);
            let halves = [
                (acc0l, acc0h),
                (acc1l, acc1h),
                (acc2l, acc2h),
                (acc3l, acc3h),
            ];
            for (i, (lo, hi)) in halves.into_iter().enumerate() {
                let mut lanes_acc = [0i32; QNR];
                _mm256_storeu_si256(lanes_acc.as_mut_ptr() as *mut __m256i, lo);
                _mm256_storeu_si256(lanes_acc.as_mut_ptr().add(8) as *mut __m256i, hi);
                let yrow = &mut y[i * self.rows + j0..];
                for (jlane, &a) in lanes_acc.iter().enumerate().take(lanes) {
                    yrow[jlane] = a as f32 * (sx[i] * self.scales[j0 + jlane]);
                }
            }
        }
    }

    /// AVX-512 batched kernel: [`QMB`] rows share every packed-weight
    /// load. Rows of a partial block go through the single-row kernel.
    ///
    /// # Safety
    /// The caller must have verified AVX-512F + AVX-512BW support
    /// (`forward_batch` checks avx512bw before dispatching here).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn forward_block_avx512(&self, xq: &[i16], mb: usize, sx: &[f32; QMB], y: &mut [f32]) {
        use std::arch::x86_64::*;
        if mb < QMB {
            for i in 0..mb {
                self.forward_row_avx512(
                    &xq[i * self.kp..(i + 1) * self.kp],
                    sx[i],
                    &mut y[i * self.rows..(i + 1) * self.rows],
                );
            }
            return;
        }
        let pairs = self.kp / 2;
        let kp = self.kp;
        // One cursor per activation row; named accumulators keep the
        // whole tile in registers (an indexed array spills).
        let xp0 = xq.as_ptr();
        let xp1 = xp0.add(kp);
        let xp2 = xp0.add(2 * kp);
        let xp3 = xp0.add(3 * kp);
        for jt in 0..self.rows.div_ceil(QNR) {
            let mut acc0 = _mm512_setzero_si512();
            let mut acc1 = _mm512_setzero_si512();
            let mut acc2 = _mm512_setzero_si512();
            let mut acc3 = _mm512_setzero_si512();
            let mut wp = self.packed.as_ptr().add(jt * pairs * 2 * QNR);
            for p2 in 0..pairs {
                // One x p-pair per i32 lane: low 16 bits = x[2p2], high
                // 16 bits = x[2p2+1] (little-endian load).
                let w = _mm512_loadu_si512(wp as *const __m512i);
                let x0 = _mm512_set1_epi32((xp0.add(2 * p2) as *const i32).read_unaligned());
                let x1 = _mm512_set1_epi32((xp1.add(2 * p2) as *const i32).read_unaligned());
                let x2 = _mm512_set1_epi32((xp2.add(2 * p2) as *const i32).read_unaligned());
                let x3 = _mm512_set1_epi32((xp3.add(2 * p2) as *const i32).read_unaligned());
                acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(x0, w));
                acc1 = _mm512_add_epi32(acc1, _mm512_madd_epi16(x1, w));
                acc2 = _mm512_add_epi32(acc2, _mm512_madd_epi16(x2, w));
                acc3 = _mm512_add_epi32(acc3, _mm512_madd_epi16(x3, w));
                wp = wp.add(2 * QNR);
            }
            let j0 = jt * QNR;
            let lanes = QNR.min(self.rows - j0);
            for (i, acc) in [acc0, acc1, acc2, acc3].into_iter().enumerate() {
                let mut lanes_acc = [0i32; QNR];
                _mm512_storeu_si512(lanes_acc.as_mut_ptr() as *mut __m512i, acc);
                let yrow = &mut y[i * self.rows + j0..];
                for (jlane, &a) in lanes_acc.iter().enumerate().take(lanes) {
                    yrow[jlane] = a as f32 * (sx[i] * self.scales[j0 + jlane]);
                }
            }
        }
    }

    /// AVX-512 integer kernel: one 512-bit register per `p`-pair group.
    ///
    /// # Safety
    /// The caller must have verified AVX-512F + AVX-512BW support
    /// (`forward_row` checks avx512bw explicitly before dispatching
    /// here, falling back to the AVX2 kernel without it).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn forward_row_avx512(&self, xq: &[i16], sx: f32, y: &mut [f32]) {
        use std::arch::x86_64::*;
        let pairs = self.kp / 2;
        let xp = xq.as_ptr();
        for jt in 0..self.rows.div_ceil(QNR) {
            // Four independent accumulators hide the madd+add latency
            // chain; i32 addition is exact, so any combine order gives
            // the same bits as the scalar loop.
            let mut acc0 = _mm512_setzero_si512();
            let mut acc1 = _mm512_setzero_si512();
            let mut acc2 = _mm512_setzero_si512();
            let mut acc3 = _mm512_setzero_si512();
            let mut wp = self.packed.as_ptr().add(jt * pairs * 2 * QNR);
            let mut p2 = 0usize;
            while p2 + 4 <= pairs {
                // Each i32 lane holds one x p-pair: low 16 bits = x[2p2],
                // high 16 bits = x[2p2+1] (little-endian load).
                let x0 = (xp.add(2 * p2) as *const i32).read_unaligned();
                let x1 = (xp.add(2 * p2 + 2) as *const i32).read_unaligned();
                let x2 = (xp.add(2 * p2 + 4) as *const i32).read_unaligned();
                let x3 = (xp.add(2 * p2 + 6) as *const i32).read_unaligned();
                let w0 = _mm512_loadu_si512(wp as *const __m512i);
                let w1 = _mm512_loadu_si512(wp.add(2 * QNR) as *const __m512i);
                let w2 = _mm512_loadu_si512(wp.add(4 * QNR) as *const __m512i);
                let w3 = _mm512_loadu_si512(wp.add(6 * QNR) as *const __m512i);
                acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(_mm512_set1_epi32(x0), w0));
                acc1 = _mm512_add_epi32(acc1, _mm512_madd_epi16(_mm512_set1_epi32(x1), w1));
                acc2 = _mm512_add_epi32(acc2, _mm512_madd_epi16(_mm512_set1_epi32(x2), w2));
                acc3 = _mm512_add_epi32(acc3, _mm512_madd_epi16(_mm512_set1_epi32(x3), w3));
                wp = wp.add(8 * QNR);
                p2 += 4;
            }
            while p2 < pairs {
                let x0 = (xp.add(2 * p2) as *const i32).read_unaligned();
                let wv = _mm512_loadu_si512(wp as *const __m512i);
                acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(_mm512_set1_epi32(x0), wv));
                wp = wp.add(2 * QNR);
                p2 += 1;
            }
            let acc = _mm512_add_epi32(_mm512_add_epi32(acc0, acc1), _mm512_add_epi32(acc2, acc3));
            let mut lanes_acc = [0i32; QNR];
            _mm512_storeu_si512(lanes_acc.as_mut_ptr() as *mut __m512i, acc);
            let j0 = jt * QNR;
            let lanes = QNR.min(self.rows - j0);
            for (jlane, &a) in lanes_acc.iter().enumerate().take(lanes) {
                y[j0 + jlane] = a as f32 * (sx * self.scales[j0 + jlane]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::with_kernel;
    use crate::rng::Rng;

    #[test]
    fn precision_names_round_trip() {
        for p in Precision::all() {
            assert_eq!(p.name().parse::<Precision>().unwrap(), p);
        }
        assert!("f16".parse::<Precision>().is_err());
    }

    #[test]
    fn bf16_round_trip_is_within_relative_bound() {
        let mut rng = Rng::new(8);
        for _ in 0..1000 {
            let x = rng.normal() * 10.0f32.powi(rng.below(7) as i32 - 3);
            let y = bf16_decode(bf16_encode(x));
            // bf16 keeps 8 mantissa bits: relative error <= 2^-9 + slack.
            let tol = x.abs() * (1.0 / 256.0);
            assert!((x - y).abs() <= tol, "{x} -> {y}");
        }
        // Values already representable in bf16 survive exactly.
        for x in [0.0f32, -0.0, 1.0, -2.5, 0.15625, f32::INFINITY] {
            assert_eq!(bf16_decode(bf16_encode(x)).to_bits(), x.to_bits());
        }
        assert!(bf16_decode(bf16_encode(f32::NAN)).is_nan());
    }

    #[test]
    fn bf16_rounds_to_nearest_even() {
        // 1.0 + 2^-9 sits exactly between 1.0 and the next bf16 value;
        // round-to-nearest-even picks the even mantissa (1.0).
        let halfway = f32::from_bits(0x3f80_8000);
        assert_eq!(bf16_decode(bf16_encode(halfway)), 1.0);
        // Just above halfway rounds up.
        let above = f32::from_bits(0x3f80_8001);
        assert_eq!(bf16_decode(bf16_encode(above)), f32::from_bits(0x3f81_0000));
    }

    /// Satellite test: per-channel quantize→dequantize round trip stays
    /// within half a quantization step of the original, per channel.
    #[test]
    fn quantize_dequantize_round_trip_is_bounded_per_channel() {
        let mut rng = Rng::new(9);
        let (rows, cols) = (13, 37);
        let mut w: Vec<f32> = (0..rows * cols).map(|_| rng.normal()).collect();
        // Give the channels very different dynamic ranges.
        for r in 0..rows {
            let gain = 10.0f32.powi(r as i32 % 5 - 2);
            for v in &mut w[r * cols..(r + 1) * cols] {
                *v *= gain;
            }
        }
        let lin = QuantLinear::quantize(&w, rows, cols);
        let mut deq = vec![0.0; rows * cols];
        lin.dequantize_into(&mut deq);
        for r in 0..rows {
            let row = &w[r * cols..(r + 1) * cols];
            let max_abs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let scale = lin.scales[r];
            assert!((scale - max_abs / 127.0).abs() <= f32::EPSILON * max_abs);
            for c in 0..cols {
                let err = (w[r * cols + c] - deq[r * cols + c]).abs();
                assert!(
                    err <= scale * 0.5 + f32::EPSILON,
                    "row {r} col {c}: err {err} vs half-step {}",
                    scale * 0.5
                );
            }
        }
    }

    #[test]
    fn zero_channel_gets_unit_scale() {
        let w = vec![0.0f32; 8];
        let lin = QuantLinear::quantize(&w, 2, 4);
        assert_eq!(lin.scales, vec![1.0, 1.0]);
        let mut deq = vec![9.9; 8];
        lin.dequantize_into(&mut deq);
        assert_eq!(deq, vec![0.0; 8]);
    }

    #[test]
    fn from_parts_preserves_served_bytes() {
        let mut rng = Rng::new(10);
        let (rows, cols) = (5, 9);
        let w: Vec<f32> = (0..rows * cols).map(|_| rng.normal()).collect();
        let lin = QuantLinear::quantize(&w, rows, cols);
        let rebuilt = QuantLinear::from_parts(rows, cols, lin.scales.clone(), lin.q.clone());
        assert_eq!(lin, rebuilt);
    }

    /// Exact integer reference for the packed forward.
    fn reference_forward(lin: &QuantLinear, x: &[f32]) -> Vec<f32> {
        let max_abs = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let sx = if max_abs == 0.0 { 1.0 } else { max_abs / 127.0 };
        // Mirrors `quantize_row_into`: reciprocal multiply, not divide.
        let inv = 1.0 / sx;
        let xq: Vec<i32> = x
            .iter()
            .map(|&v| (v * inv).round_ties_even().clamp(-127.0, 127.0) as i32)
            .collect();
        (0..lin.rows)
            .map(|j| {
                let acc: i32 = (0..lin.cols)
                    .map(|p| i32::from(lin.q[j * lin.cols + p]) * xq[p])
                    .sum();
                acc as f32 * (sx * lin.scales[j])
            })
            .collect()
    }

    /// Tentpole test: the packed int8 forward is bit-identical across
    /// every supported kernel tier and matches the exact integer
    /// reference, over shapes that exercise ragged tiles and odd `cols`.
    #[test]
    fn packed_forward_is_bit_identical_across_kernels() {
        let mut rng = Rng::new(11);
        for &(rows, cols) in &[(1, 1), (3, 7), (16, 16), (17, 31), (40, 65), (64, 128)] {
            let w: Vec<f32> = (0..rows * cols).map(|_| rng.normal()).collect();
            let x: Vec<f32> = (0..cols).map(|_| rng.normal()).collect();
            let lin = QuantLinear::quantize(&w, rows, cols);
            let packed = PackedQuantLinear::new(&lin);
            let want = reference_forward(&lin, &x);
            for kernel in GemmKernel::all() {
                if !kernel.supported() {
                    continue;
                }
                let got = with_kernel(kernel, || {
                    let mut xq = Vec::new();
                    let mut y = vec![0.0; rows];
                    packed.forward_row(&x, &mut xq, &mut y);
                    y
                });
                assert_eq!(want, got, "{kernel} rows={rows} cols={cols}");
            }
        }
    }

    /// The batched kernels block rows in groups of [`QMB`]; every batch
    /// size (full blocks, partial tail, singleton) must reproduce the
    /// per-row path bit for bit on every kernel tier.
    #[test]
    fn batched_forward_matches_per_row_on_every_kernel() {
        let mut rng = Rng::new(12);
        let (rows, cols) = (19, 33);
        let w: Vec<f32> = (0..rows * cols).map(|_| rng.normal()).collect();
        let lin = QuantLinear::quantize(&w, rows, cols);
        let packed = PackedQuantLinear::new(&lin);
        for &b in &[1usize, 3, 4, 5, 8, 11] {
            let xs: Vec<f32> = (0..b * cols).map(|_| rng.normal()).collect();
            for kernel in GemmKernel::all() {
                if !kernel.supported() {
                    continue;
                }
                let (batched, per_row) = with_kernel(kernel, || {
                    let mut xq = Vec::new();
                    let mut ys = vec![0.0; b * rows];
                    packed.forward_batch(&xs, &mut xq, &mut ys);
                    let mut rows_out = vec![0.0; b * rows];
                    for (xrow, yrow) in xs.chunks_exact(cols).zip(rows_out.chunks_exact_mut(rows)) {
                        packed.forward_row(xrow, &mut xq, yrow);
                    }
                    (ys, rows_out)
                });
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&batched), bits(&per_row), "{kernel} b={b}");
            }
        }
    }

    #[test]
    fn packed_forward_handles_zero_input() {
        let lin = QuantLinear::quantize(&[1.0, -2.0, 3.0, 4.0], 2, 2);
        let packed = PackedQuantLinear::new(&lin);
        let mut xq = Vec::new();
        let mut y = vec![9.0; 2];
        packed.forward_row(&[0.0, 0.0], &mut xq, &mut y);
        assert_eq!(y, vec![0.0, 0.0]);
    }
}
