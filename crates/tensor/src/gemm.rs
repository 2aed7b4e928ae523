//! Matrix multiplication kernels.
//!
//! Dense layers and im2col-lowered convolutions reduce to `sgemm`. The
//! implementations, from slowest to fastest:
//!
//! * [`gemm_naive`] — the obvious triple loop, used as the correctness
//!   reference in tests;
//! * [`gemm`] / [`gemm_at`] / [`gemm_bt`] — packed, register-blocked
//!   kernels (see below) running on a thread-local scratch
//!   [`Workspace`]; drop-in BLAS-style entry points;
//! * [`gemm_ws`] / [`gemm_at_ws`] / [`gemm_bt_ws`] — the same kernels with
//!   an explicit workspace, used by the layer hot path so packing buffers
//!   come from the learner's arena instead of thread-local state;
//! * [`gemm_parallel`] — opt-in multi-threaded row-panel variant,
//!   bit-identical to the serial kernel (see *Determinism* below);
//! * [`gemm_bt_packed`] — `C = A @ W^T` against a [`PackedRhs`], a
//!   weight matrix packed once ahead of time (the serving path), so no
//!   call packs `B` again.
//!
//! All matrices are row-major. `gemm` computes `C = alpha * A @ B + beta * C`
//! with `A: m x k`, `B: k x n`, `C: m x n`.
//!
//! # Packed kernel
//!
//! The kernel follows the classic BLIS/Goto decomposition: `k` is split
//! into `KC`-sized blocks and `m` into `MC`-sized blocks; for each
//! block pair the relevant panels of `A` and `B` are *packed* into
//! contiguous tiles (`mr`-row tiles of `A`, `nr`-column tiles of `B`)
//! held in workspace buffers, and an unrolled `mr x nr` register-blocked
//! micro-kernel accumulates the product. Packing pays for itself because
//! each packed `A` tile is reused across all `nr`-column strips and each
//! packed `B` strip across all `mr`-row strips, with unit-stride loads.
//!
//! The same micro-kernel serves the transposed variants: packing reads
//! through a `(row stride, col stride)` view, so `A^T` and `B^T` never
//! materialise. Every view has a unit stride along one axis (the packer
//! asserts it), and each axis has its own packing path:
//!
//! * unit stride along the tile axis (`B` in [`gemm`]/[`gemm_at`], `A^T`
//!   in [`gemm_at`]): one slice copy per `p`, pad lanes zeroed;
//! * unit stride along `p` (row-major `A`, `B^T` in [`gemm_bt`] — the
//!   dense forward `x @ W^T` and the conv weight gradient): a block
//!   transpose, 8x8 in registers on the SIMD tiers and a scalar loop over
//!   contiguous source lines on [`GemmKernel::Scalar`]; the thread's
//!   active tier picks it.
//!
//! Packing only moves values into the tile layout the micro-kernel reads,
//! and every path writes every element of its tile (pad lanes are zero),
//! so the result is bit-identical to packing element by element — the
//! tests keep that per-element packer as their oracle.
//!
//! A [`PackedRhs`] holds every `KC` block of `B` in exactly the tile
//! layout the loop nest packs per call, for one kernel's `nr`. The loop
//! nest borrows its blocks instead of packing them; the arithmetic and
//! its order are untouched, so the result is bit-identical to the
//! unpacked entry point.
//!
//! # Direct kernel
//!
//! A small wide-output multiply (dense `B` rows, `n >= 128`, under
//! 1 MFLOP) with fewer than 8 rows of `C` or at most 2 products per
//! element skips packing and runs row axpys over `C` and `B` directly. A
//! packed `B` panel serves `ceil(m / mr)` row strips, only one at `m < 8`
//! on the widest tile; a packed micro-tile spreads its `C` write-back
//! over `k` multiply-adds, only two at `k = 2`. Neither can pay for the
//! packing, and these are the b = 2 dense input and weight gradients.
//! Every other shape — the conv-lowered products included, which a sweep
//! of every `gemm*` shape of the training workloads found 1.1–2x faster
//! packed — takes the packed kernel. The rule reads only shape
//! and layout, never the tier (see `use_direct`).
//!
//! # Kernel tiers
//!
//! Three micro-kernel variants share the loop nest, selected once per
//! process by [`GemmKernel::detected`] from runtime CPU features:
//!
//! | kernel                 | tile (`mr x nr`) | requires       |
//! |------------------------|------------------|----------------|
//! | [`GemmKernel::Scalar`] | 4 x 8            | —              |
//! | [`GemmKernel::Avx2`]   | 6 x 16           | AVX2           |
//! | [`GemmKernel::Avx512`] | 8 x 16           | AVX-512F, AVX2 |
//!
//! (The AVX-512 tier packs with the AVX2 transposer.)
//!
//! The SIMD kernels deliberately use *separate* vector multiply and add
//! (`vmulps` + `vaddps`), **not** FMA: a fused multiply-add does not
//! round the intermediate product, so its result can differ from the
//! scalar kernel's `acc += a * b` in the last bit. With unfused ops each
//! vector lane performs exactly the IEEE-754 operation sequence the
//! scalar kernel performs, so every kernel tier produces bit-identical
//! output (pinned by tests). `CROSSBOW_GEMM_KERNEL=scalar|avx2|avx512`
//! overrides detection (read once; silently clamped to what the CPU
//! supports), and [`with_kernel`] scopes a forced kernel to one closure
//! for tests and benches.
//!
//! # Determinism
//!
//! The serial reduction order is fixed: for every output element
//! `C[i][j]`, the `k` dimension is consumed in ascending `KC`-sized
//! blocks; within a block, products accumulate into a register in
//! ascending `p`; each block's partial sum is scaled by `alpha` and added
//! to `C[i][j]` in ascending block order. This order depends only on
//! `(i, j, k)` — not on which `MC`/`nr` block the element lands in, and
//! not on the kernel tier (`KC` is shared by all tiers; widening
//! `mr`/`nr` only regroups elements across registers).
//!
//! [`gemm_parallel`] partitions `C`'s rows into contiguous chunks and runs
//! the *identical* serial kernel per chunk, so every element sees the same
//! floating-point operation sequence and the result is bit-identical to
//! the serial kernel for any thread count, and whichever lane runs a
//! chunk. Tests pin this with exact
//! equality.

use crate::lanes;
use crate::workspace::{with_thread_workspace, Workspace};
use std::cell::Cell;
use std::sync::OnceLock;

/// Scalar micro-kernel rows: each inner step updates an `MR x NR` block
/// of C.
const MR: usize = 4;
/// Scalar micro-kernel columns.
const NR: usize = 8;
/// k-dimension cache block: an `mr x KC` A-tile plus a `KC x nr` B-tile
/// stay resident in L1. Shared by every kernel tier — the per-element
/// partial-sum boundaries (and hence bit-identity) depend on it.
const KC: usize = 256;
/// m-dimension cache block (rounded down to a whole number of `mr`-row
/// tiles per kernel): the packed A block stays resident in L2.
const MC: usize = 64;

/// Minimum FLOP count (2·m·k·n) before [`gemm_ws`] fans out to
/// [`gemm_parallel`]; below this, the fork-join overhead dominates.
const PARALLEL_MIN_FLOPS: usize = 4 << 20;

/// Rows of `C` below which the un-packed direct kernel may serve a
/// multiply (see `use_direct`): the widest tile is 8 rows, so a packed
/// `B` panel feeds a single row strip and packing it is pure overhead.
const DIRECT_MAX_M: usize = 8;

/// Reduction length below which the direct kernel may serve a multiply
/// of any row count (see `use_direct`): with one or two products per `C`
/// element, each packed micro-tile reads and writes its `C` tile for two
/// multiply-adds, and the direct kernel's row-order passes over `C` win.
const DIRECT_MAX_K: usize = 3;

/// Maximum FLOP count (2·m·k·n) served by the direct kernel. Kept well
/// below [`PARALLEL_MIN_FLOPS`] so the direct path never overlaps the
/// parallel one.
const DIRECT_MAX_FLOPS: usize = 1 << 20;

/// Minimum output width for the direct kernel: its row-axpy inner loop
/// only beats the packed micro-kernel when `C` rows are wide enough to
/// amortise the per-`(i, p)` scalar work.
const DIRECT_MIN_N: usize = 128;

/// A micro-kernel variant. Dispatch is a pure function of detected CPU
/// features (plus the `CROSSBOW_GEMM_KERNEL` override, read once): the
/// same binary on the same machine always picks the same kernel, and all
/// variants produce bit-identical output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmKernel {
    /// Portable 4x8 kernel; the fallback on every target.
    Scalar,
    /// 6x16 AVX2 kernel (unfused `vmulps`/`vaddps`).
    Avx2,
    /// 8x16 AVX-512F kernel (unfused `vmulps`/`vaddps`).
    Avx512,
}

impl GemmKernel {
    /// Every kernel tier, slowest first.
    pub fn all() -> [GemmKernel; 3] {
        [GemmKernel::Scalar, GemmKernel::Avx2, GemmKernel::Avx512]
    }

    /// Whether this process's CPU can run the kernel.
    pub fn supported(self) -> bool {
        match self {
            GemmKernel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            GemmKernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            GemmKernel::Avx512 => {
                // The tier packs with the AVX2 transposer.
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx2")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The kernel this process dispatches to: the fastest supported tier,
    /// clamped by `CROSSBOW_GEMM_KERNEL` when set. Detected once and
    /// cached; deterministic for the life of the process.
    pub fn detected() -> GemmKernel {
        static DETECTED: OnceLock<GemmKernel> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            let requested = match std::env::var("CROSSBOW_GEMM_KERNEL").as_deref() {
                Ok("scalar") => Some(GemmKernel::Scalar),
                Ok("avx2") => Some(GemmKernel::Avx2),
                Ok("avx512") => Some(GemmKernel::Avx512),
                _ => None,
            };
            let best = *GemmKernel::all()
                .iter()
                .rev()
                .find(|k| k.supported())
                .expect("the scalar kernel is always supported");
            match requested {
                Some(k) if k.supported() => k,
                _ => best,
            }
        })
    }

    /// The kernel the current thread will use: a [`with_kernel`] override
    /// when one is in scope, otherwise [`GemmKernel::detected`].
    pub fn active() -> GemmKernel {
        FORCED
            .with(|cell| cell.get())
            .unwrap_or_else(Self::detected)
    }

    /// Stable lower-case name (used in benchmark output and the
    /// `CROSSBOW_GEMM_KERNEL` override).
    pub fn name(self) -> &'static str {
        match self {
            GemmKernel::Scalar => "scalar",
            GemmKernel::Avx2 => "avx2",
            GemmKernel::Avx512 => "avx512",
        }
    }

    /// Micro-tile rows for this kernel.
    fn mr(self) -> usize {
        match self {
            GemmKernel::Scalar => MR,
            GemmKernel::Avx2 => 6,
            GemmKernel::Avx512 => 8,
        }
    }

    /// Micro-tile columns for this kernel.
    fn nr(self) -> usize {
        match self {
            GemmKernel::Scalar => NR,
            GemmKernel::Avx2 => 16,
            GemmKernel::Avx512 => 16,
        }
    }

    /// `MC` rounded down to whole `mr`-row tiles, so every full m-block
    /// packs without a ragged trailing tile.
    fn mc(self) -> usize {
        (MC / self.mr()) * self.mr()
    }
}

impl std::fmt::Display for GemmKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

thread_local! {
    static FORCED: Cell<Option<GemmKernel>> = const { Cell::new(None) };
}

/// Restores the previous forced kernel even if the closure panics.
struct ForceGuard(Option<GemmKernel>);

impl Drop for ForceGuard {
    fn drop(&mut self) {
        FORCED.with(|cell| cell.set(self.0));
    }
}

/// Runs `f` with every GEMM on *this thread* forced onto `kernel`,
/// regardless of what detection picked. The forced-fallback tests use
/// this to prove the scalar path serves the same bytes.
///
/// # Panics
/// Panics when the CPU does not support `kernel`.
pub fn with_kernel<R>(kernel: GemmKernel, f: impl FnOnce() -> R) -> R {
    assert!(
        kernel.supported(),
        "kernel {kernel} is not supported on this CPU"
    );
    let _guard = ForceGuard(FORCED.with(|cell| cell.replace(Some(kernel))));
    f()
}

/// A logical row-major `rows x cols` matrix viewed through strides, so the
/// packing routines can read `A`, `A^T` and `B^T` without materialising
/// the transpose. Element `(r, c)` lives at `data[r * rs + c * cs]`.
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> View<'a> {
    /// One bounds-checked element: for the direct kernel's `A` reads and
    /// the tests' per-element packers, never for packing.
    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.rs + c * self.cs]
    }

    /// The transpose, as a view of the same data.
    fn t(self) -> View<'a> {
        View {
            data: self.data,
            rs: self.cs,
            cs: self.rs,
        }
    }
}

/// Reference GEMM: `C = alpha * A @ B + beta * C`, row-major.
///
/// # Panics
/// Panics if slice lengths do not match `m*k`, `k*n`, `m*n`.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn gemm_naive(
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    check_dims(m, k, n, a, b, c);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = alpha * acc + beta * c[i * n + j];
        }
    }
}

/// Packs rows `r0..r0+rows_total`, columns `p0..p0+kc` of `v` into
/// `w`-row tiles: tile-major, then `p`-major, then row within tile; rows
/// past the panel are zero-filled so the micro-kernel never branches.
/// This is `A`'s panel as is and `B`'s as [`View::t`] (`B`'s tiles run
/// along its columns). Every element of `out[..tiles * kc * w]` is
/// written, so `out` may start as garbage.
///
/// A unit stride along the tile axis (`rs == 1`: `B`, `A^T`) is a slice
/// copy per `p`; a unit stride along `p` (`cs == 1`: row-major `A`,
/// `B^T`) is a block transpose on `isa`, which must be
/// [supported](GemmKernel::supported).
///
/// # Panics
/// Panics when `v` has no unit stride, or `out` or `v` is too short for
/// the panel.
#[allow(clippy::too_many_arguments)]
fn pack(
    isa: GemmKernel,
    v: View<'_>,
    r0: usize,
    rows_total: usize,
    p0: usize,
    kc: usize,
    w: usize,
    out: &mut [f32],
) {
    assert!(v.rs == 1 || v.cs == 1, "packing needs a unit stride");
    let tiles = rows_total.div_ceil(w);
    for (t, dst) in out[..tiles * kc * w].chunks_exact_mut(kc * w).enumerate() {
        let row0 = r0 + t * w;
        let lanes = w.min(r0 + rows_total - row0);
        let src = &v.data[row0 * v.rs + p0 * v.cs..];
        if v.rs == 1 {
            for (p, d) in dst.chunks_exact_mut(w).enumerate() {
                let (live, pad) = d.split_at_mut(lanes);
                live.copy_from_slice(&src[p * v.cs..p * v.cs + lanes]);
                pad.fill(0.0);
            }
            continue;
        }
        assert!(
            src.len() >= (lanes - 1) * v.rs + kc,
            "transposed tile out of bounds: {lanes} lines of {kc} at stride {}",
            v.rs
        );
        match isa {
            GemmKernel::Scalar => transpose_scalar(src, v.rs, lanes, kc, w, dst),
            #[cfg(target_arch = "x86_64")]
            GemmKernel::Avx2 | GemmKernel::Avx512 => {
                // SAFETY: both SIMD tiers are only selected when
                // `supported()` saw avx2 (the Avx512 tier checks it too).
                // `1 <= lanes <= w`, `dst` is exactly `kc * w` long, and
                // the assert above covers every source line.
                unsafe { transpose_avx2(src, v.rs, lanes, kc, w, dst) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            GemmKernel::Avx2 | GemmKernel::Avx512 => {
                unreachable!("SIMD kernels are never selected off x86-64")
            }
        }
    }
}

/// The portable block transpose: `dst[p * w + l] = src[l * ld + p]` for
/// `l < lanes`, zero for `lanes <= l < w`. Reads each source line
/// contiguously and writes it down one strided column of the tile, so no
/// index is bounds-checked inside the loops.
fn transpose_scalar(src: &[f32], ld: usize, lanes: usize, kc: usize, w: usize, dst: &mut [f32]) {
    let dst = &mut dst[..kc * w];
    for l in 0..w {
        let column = dst[l..].iter_mut().step_by(w);
        if l < lanes {
            for (d, &v) in column.zip(&src[l * ld..l * ld + kc]) {
                *d = v;
            }
        } else {
            column.for_each(|d| *d = 0.0);
        }
    }
}

/// The AVX2 block transpose: [`transpose_scalar`]'s result, built from
/// 8x8 in-register transposes of 8 source lines by 8 `p`; the `kc % 8`
/// trailing `p` go through [`transpose_scalar`]. Lines past `lanes` load
/// as zero, so pad lanes come out zero; a tile narrower than 8 (`w = 6`
/// for the AVX2 `A` tile) stores only its `w` lanes.
///
/// # Safety
/// The CPU must support AVX2. `1 <= lanes <= w`, `src` must hold at least
/// `(lanes - 1) * ld + kc` elements and `dst` at least `kc * w`: the loads
/// read `src[l * ld + p .. l * ld + p + 8]` for `l < lanes`, `p + 8 <= kc`,
/// and the stores write `dst[p * w + l0 .. p * w + l0 + min(8, w - l0)]`
/// for `p < kc`, `l0 < w`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose_avx2(
    src: &[f32],
    ld: usize,
    lanes: usize,
    kc: usize,
    w: usize,
    dst: &mut [f32],
) {
    use std::arch::x86_64::*;
    let kc8 = kc / 8 * 8;
    let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
    for l0 in (0..w).step_by(8) {
        let width = (w - l0).min(8);
        let live = lanes.saturating_sub(l0).min(8);
        for p in (0..kc8).step_by(8) {
            let mut r = [_mm256_setzero_ps(); 8];
            for (q, rq) in r.iter_mut().enumerate().take(live) {
                *rq = _mm256_loadu_ps(sp.add((l0 + q) * ld + p));
            }
            for (q, tq) in transpose8x8(r).iter().enumerate() {
                let d = dp.add((p + q) * w + l0);
                if width == 8 {
                    _mm256_storeu_ps(d, *tq);
                } else {
                    let mut spill = [0.0f32; 8];
                    _mm256_storeu_ps(spill.as_mut_ptr(), *tq);
                    std::ptr::copy_nonoverlapping(spill.as_ptr(), d, width);
                }
            }
        }
    }
    if kc8 < kc {
        transpose_scalar(&src[kc8..], ld, lanes, kc - kc8, w, &mut dst[kc8 * w..]);
    }
}

/// Transposes eight 8-lane rows: lane `j` of output `i` is lane `i` of
/// input `j`.
///
/// # Safety
/// The CPU must support AVX (implied by AVX2).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn transpose8x8(r: [std::arch::x86_64::__m256; 8]) -> [std::arch::x86_64::__m256; 8] {
    use std::arch::x86_64::*;
    // Interleave pairs of rows, then pairs of pairs, then 128-bit halves.
    let t0 = _mm256_unpacklo_ps(r[0], r[1]);
    let t1 = _mm256_unpackhi_ps(r[0], r[1]);
    let t2 = _mm256_unpacklo_ps(r[2], r[3]);
    let t3 = _mm256_unpackhi_ps(r[2], r[3]);
    let t4 = _mm256_unpacklo_ps(r[4], r[5]);
    let t5 = _mm256_unpackhi_ps(r[4], r[5]);
    let t6 = _mm256_unpacklo_ps(r[6], r[7]);
    let t7 = _mm256_unpackhi_ps(r[6], r[7]);
    let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
    let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
    let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
    let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
    let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
    let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
    [
        _mm256_permute2f128_ps::<0x20>(u0, u4),
        _mm256_permute2f128_ps::<0x20>(u1, u5),
        _mm256_permute2f128_ps::<0x20>(u2, u6),
        _mm256_permute2f128_ps::<0x20>(u3, u7),
        _mm256_permute2f128_ps::<0x31>(u0, u4),
        _mm256_permute2f128_ps::<0x31>(u1, u5),
        _mm256_permute2f128_ps::<0x31>(u2, u6),
        _mm256_permute2f128_ps::<0x31>(u3, u7),
    ]
}

/// A right-hand operand packed once: the weight matrix `W: n x k` of
/// `C = A @ W^T` (a dense layer's `x @ W^T`), held as every `KC` block
/// of `B = W^T` in exactly the `nr`-column tiles the loop nest packs per
/// call. Tagged with the `nr` it was packed for: only a kernel of that
/// tile width ([`PackedRhs::fits`]) can consume it.
#[derive(Clone, Debug)]
pub struct PackedRhs {
    n: usize,
    k: usize,
    nr: usize,
    /// The block starting at `p0` occupies `p0 * stride .. (p0 + kc) *
    /// stride`, where `stride` is `n` rounded up to whole tiles.
    data: Vec<f32>,
}

impl PackedRhs {
    /// Packs `w` (`n x k`, row-major) for `kernel`'s tile width. Packing
    /// only moves data, so an operand can be packed for any tier on any
    /// CPU: the thread's active tier does the moving.
    ///
    /// # Panics
    /// Panics if `w.len() != n * k`.
    pub fn pack_bt(w: &[f32], n: usize, k: usize, kernel: GemmKernel) -> PackedRhs {
        assert_eq!(w.len(), n * k, "W dims mismatch: {} != {n}*{k}", w.len());
        let nr = kernel.nr();
        let stride = n.div_ceil(nr) * nr;
        let mut data = vec![0.0; k * stride];
        // B = W^T tiles along its columns, the rows of W.
        let view = View {
            data: w,
            rs: k,
            cs: 1,
        };
        for p0 in (0..k).step_by(KC) {
            let kc = KC.min(k - p0);
            let block = &mut data[p0 * stride..(p0 + kc) * stride];
            pack(GemmKernel::active(), view, 0, n, p0, kc, nr, block);
        }
        PackedRhs { n, k, nr, data }
    }

    /// Output width `n` (rows of `W`).
    pub fn rows(&self) -> usize {
        self.n
    }

    /// Reduction length `k` (columns of `W`).
    pub fn cols(&self) -> usize {
        self.k
    }

    /// Whether `kernel` tiles `B` at the width this operand was packed
    /// for.
    pub fn fits(&self, kernel: GemmKernel) -> bool {
        kernel.nr() == self.nr
    }

    /// The packed tiles of the `kc`-deep block starting at `p0`.
    fn block(&self, p0: usize, kc: usize) -> &[f32] {
        let stride = self.n.div_ceil(self.nr) * self.nr;
        &self.data[p0 * stride..(p0 + kc) * stride]
    }
}

/// Where the loop nest takes each `KC` block of `B`'s packed tiles from.
enum Rhs<'a> {
    /// Packed per block from a strided view into a caller buffer of at
    /// least `KC * ceil(n/nr)*nr` elements.
    Pack(View<'a>, &'a mut [f32]),
    /// Borrowed from an operand packed ahead of time.
    Packed(&'a PackedRhs),
}

/// Adds `alpha *` the valid `rows x cols` corner of a spilled accumulator
/// tile to C. Shared by every kernel's edge path; the per-element
/// operation (`c += alpha * acc`, separate multiply and add) is identical
/// to the full-tile vector write-back.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn spill_writeback(
    spill: &[f32],
    nr: usize,
    alpha: f32,
    c: &mut [f32],
    c_row0: usize,
    c_col0: usize,
    n: usize,
    rows: usize,
    cols: usize,
) {
    for r in 0..rows {
        let crow = &mut c[(c_row0 + r) * n + c_col0..(c_row0 + r) * n + c_col0 + cols];
        let srow = &spill[r * nr..r * nr + cols];
        for (cv, &av) in crow.iter_mut().zip(srow) {
            *cv += alpha * av;
        }
    }
}

/// The scalar `MR x NR` register-blocked micro-kernel: accumulates
/// `sum_p a_tile[p] (x) b_tile[p]` over `kc` steps into registers, then
/// adds `alpha *` the result to the valid `rows x cols` corner of C.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_scalar(
    kc: usize,
    alpha: f32,
    a_tile: &[f32], // kc * MR, p-major
    b_tile: &[f32], // kc * NR, p-major
    c: &mut [f32],  // full C chunk
    c_row0: usize,
    c_col0: usize,
    n: usize,
    rows: usize,
    cols: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..kc {
        let av = &a_tile[p * MR..p * MR + MR];
        let bv = &b_tile[p * NR..p * NR + NR];
        for r in 0..MR {
            let ar = av[r];
            for (col, &bvc) in bv.iter().enumerate() {
                acc[r][col] += ar * bvc;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate().take(rows) {
        let crow = &mut c[(c_row0 + r) * n + c_col0..(c_row0 + r) * n + c_col0 + cols];
        for (cv, &av) in crow.iter_mut().zip(acc_row.iter()) {
            *cv += alpha * av;
        }
    }
}

/// The 6x16 AVX2 micro-kernel. Unfused multiply + add per lane keeps the
/// per-element operation sequence identical to [`micro_scalar`].
///
/// # Safety
/// The CPU must support AVX2. The pointer reads need
/// `a_tile.len() >= kc * 6` and `b_tile.len() >= kc * 16`. A full tile
/// (`rows == 6`, `cols == 16`) is written through a pointer to the 16
/// elements at `c[(c_row0 + r) * n + c_col0]` for each `r < 6`, so it
/// needs `c_col0 + 16 <= n` and `(c_row0 + 6) * n <= c.len()`; a partial
/// tile goes through bounds-checked slices. [`micro_tile`] asserts all of
/// these.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_avx2(
    kc: usize,
    alpha: f32,
    a_tile: &[f32], // kc * 6, p-major
    b_tile: &[f32], // kc * 16, p-major
    c: &mut [f32],
    c_row0: usize,
    c_col0: usize,
    n: usize,
    rows: usize,
    cols: usize,
) {
    use std::arch::x86_64::*;
    const KMR: usize = 6;
    const KNR: usize = 16;
    let mut acc = [[_mm256_setzero_ps(); 2]; KMR];
    let mut ap = a_tile.as_ptr();
    let mut bp = b_tile.as_ptr();
    for _ in 0..kc {
        let b0 = _mm256_loadu_ps(bp);
        let b1 = _mm256_loadu_ps(bp.add(8));
        for (r, accr) in acc.iter_mut().enumerate() {
            let ar = _mm256_set1_ps(*ap.add(r));
            accr[0] = _mm256_add_ps(accr[0], _mm256_mul_ps(ar, b0));
            accr[1] = _mm256_add_ps(accr[1], _mm256_mul_ps(ar, b1));
        }
        ap = ap.add(KMR);
        bp = bp.add(KNR);
    }
    if rows == KMR && cols == KNR {
        let alpha_v = _mm256_set1_ps(alpha);
        for (r, accr) in acc.iter().enumerate() {
            let cp = c.as_mut_ptr().add((c_row0 + r) * n + c_col0);
            _mm256_storeu_ps(
                cp,
                _mm256_add_ps(_mm256_loadu_ps(cp), _mm256_mul_ps(alpha_v, accr[0])),
            );
            let cp8 = cp.add(8);
            _mm256_storeu_ps(
                cp8,
                _mm256_add_ps(_mm256_loadu_ps(cp8), _mm256_mul_ps(alpha_v, accr[1])),
            );
        }
    } else {
        let mut spill = [0.0f32; KMR * KNR];
        for (r, accr) in acc.iter().enumerate() {
            _mm256_storeu_ps(spill.as_mut_ptr().add(r * KNR), accr[0]);
            _mm256_storeu_ps(spill.as_mut_ptr().add(r * KNR + 8), accr[1]);
        }
        spill_writeback(&spill, KNR, alpha, c, c_row0, c_col0, n, rows, cols);
    }
}

/// The 8x16 AVX-512F micro-kernel: one zmm accumulator column per row.
/// Unfused multiply + add per lane keeps the per-element operation
/// sequence identical to [`micro_scalar`].
///
/// # Safety
/// The CPU must support AVX-512F. The pointer reads need
/// `a_tile.len() >= kc * 8` and `b_tile.len() >= kc * 16`. A full tile
/// (`rows == 8`, `cols == 16`) is written through a pointer to the 16
/// elements at `c[(c_row0 + r) * n + c_col0]` for each `r < 8`, so it
/// needs `c_col0 + 16 <= n` and `(c_row0 + 8) * n <= c.len()`; a partial
/// tile goes through bounds-checked slices. [`micro_tile`] asserts all of
/// these.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_avx512(
    kc: usize,
    alpha: f32,
    a_tile: &[f32], // kc * 8, p-major
    b_tile: &[f32], // kc * 16, p-major
    c: &mut [f32],
    c_row0: usize,
    c_col0: usize,
    n: usize,
    rows: usize,
    cols: usize,
) {
    use std::arch::x86_64::*;
    const KMR: usize = 8;
    const KNR: usize = 16;
    let mut acc = [_mm512_setzero_ps(); KMR];
    let mut ap = a_tile.as_ptr();
    let mut bp = b_tile.as_ptr();
    for _ in 0..kc {
        let bv = _mm512_loadu_ps(bp);
        for (r, accr) in acc.iter_mut().enumerate() {
            let ar = _mm512_set1_ps(*ap.add(r));
            *accr = _mm512_add_ps(*accr, _mm512_mul_ps(ar, bv));
        }
        ap = ap.add(KMR);
        bp = bp.add(KNR);
    }
    if rows == KMR && cols == KNR {
        let alpha_v = _mm512_set1_ps(alpha);
        for (r, accr) in acc.iter().enumerate() {
            let cp = c.as_mut_ptr().add((c_row0 + r) * n + c_col0);
            _mm512_storeu_ps(
                cp,
                _mm512_add_ps(_mm512_loadu_ps(cp), _mm512_mul_ps(alpha_v, *accr)),
            );
        }
    } else {
        let mut spill = [0.0f32; KMR * KNR];
        for (r, accr) in acc.iter().enumerate() {
            _mm512_storeu_ps(spill.as_mut_ptr().add(r * KNR), *accr);
        }
        spill_writeback(&spill, KNR, alpha, c, c_row0, c_col0, n, rows, cols);
    }
}

/// Dispatches one micro-tile to the selected kernel, which must be
/// [supported](GemmKernel::supported). Asserts the slice extents the SIMD
/// kernels' pointers rely on, once per tile.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_tile(
    kernel: GemmKernel,
    kc: usize,
    alpha: f32,
    a_tile: &[f32],
    b_tile: &[f32],
    c: &mut [f32],
    c_row0: usize,
    c_col0: usize,
    n: usize,
    rows: usize,
    cols: usize,
) {
    let (mr, nr) = (kernel.mr(), kernel.nr());
    assert!(
        rows <= mr
            && cols <= nr
            && a_tile.len() >= kc * mr
            && b_tile.len() >= kc * nr
            && c_col0 + cols <= n
            && (c_row0 + rows) * n <= c.len(),
        "micro-tile out of bounds: rows {rows} cols {cols} at ({c_row0}, {c_col0})"
    );
    match kernel {
        GemmKernel::Scalar => {
            micro_scalar(kc, alpha, a_tile, b_tile, c, c_row0, c_col0, n, rows, cols)
        }
        #[cfg(target_arch = "x86_64")]
        GemmKernel::Avx2 => {
            // SAFETY: dispatch only selects Avx2 when `supported()` saw
            // the avx2 CPU feature; the assert above proves the extents.
            unsafe { micro_avx2(kc, alpha, a_tile, b_tile, c, c_row0, c_col0, n, rows, cols) }
        }
        #[cfg(target_arch = "x86_64")]
        GemmKernel::Avx512 => {
            // SAFETY: dispatch only selects Avx512 when `supported()` saw
            // the avx512f CPU feature; the assert above proves the extents.
            unsafe { micro_avx512(kc, alpha, a_tile, b_tile, c, c_row0, c_col0, n, rows, cols) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        GemmKernel::Avx2 | GemmKernel::Avx512 => {
            unreachable!("SIMD kernels are never selected off x86-64")
        }
    }
}

/// Serial packed GEMM over logical views: `C = alpha * A @ B + beta * C`
/// where `a` is a logical `m x k` view and `b` a logical `k x n` view and
/// `c` is dense row-major `m x n`. Packing buffers come from `ws`.
#[allow(clippy::too_many_arguments)]
fn packed_serial(
    kernel: GemmKernel,
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    a: View<'_>,
    b: View<'_>,
    beta: f32,
    c: &mut [f32],
    ws: &mut Workspace,
) {
    apply_beta(beta, c);
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }
    let (mr, nr) = (kernel.mr(), kernel.nr());
    let kc_max = k.min(KC);
    let mut a_pack = ws.take_pack(kernel.mc().min(m).div_ceil(mr) * mr * kc_max);
    let mut b_pack = ws.take_pack(kc_max * n.div_ceil(nr) * nr);
    packed_serial_into(
        kernel,
        m,
        k,
        n,
        alpha,
        a,
        Rhs::Pack(b, &mut b_pack),
        c,
        &mut a_pack,
    );
    ws.give(a_pack);
    ws.give(b_pack);
}

/// The packed loop nest proper, with a caller-provided `a_pack` buffer
/// (at least `ceil(min(mc, m)/mr)*mr * KC`) and `B`'s tiles packed per
/// block or borrowed from a [`PackedRhs`].
#[allow(clippy::too_many_arguments)]
fn packed_serial_into(
    kernel: GemmKernel,
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    a: View<'_>,
    mut b: Rhs<'_>,
    c: &mut [f32],
    a_pack: &mut [f32],
) {
    let (mr, nr, mc_step) = (kernel.mr(), kernel.nr(), kernel.mc());
    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        let b_pack: &[f32] = match &mut b {
            Rhs::Pack(view, buf) => {
                pack(kernel, view.t(), 0, n, p0, kc, nr, buf);
                buf
            }
            Rhs::Packed(packed) => packed.block(p0, kc),
        };
        for i0 in (0..m).step_by(mc_step) {
            let mc = mc_step.min(m - i0);
            pack(kernel, a, i0, mc, p0, kc, mr, a_pack);
            for jt in 0..n.div_ceil(nr) {
                let j0 = jt * nr;
                let cols = nr.min(n - j0);
                let b_tile = &b_pack[jt * kc * nr..(jt + 1) * kc * nr];
                for it in 0..mc.div_ceil(mr) {
                    let rows = mr.min(mc - it * mr);
                    let a_tile = &a_pack[it * kc * mr..(it + 1) * kc * mr];
                    micro_tile(
                        kernel,
                        kc,
                        alpha,
                        a_tile,
                        b_tile,
                        c,
                        i0 + it * mr,
                        j0,
                        n,
                        rows,
                        cols,
                    );
                }
            }
        }
    }
}

/// Applies the `beta` scaling up-front so the packed loops can accumulate.
/// `beta == 0` *stores* zero (it must overwrite NaN/garbage, not scale it).
fn apply_beta(beta: f32, c: &mut [f32]) {
    if beta == 0.0 {
        c.iter_mut().for_each(|x| *x = 0.0);
    } else if beta != 1.0 {
        c.iter_mut().for_each(|x| *x *= beta);
    }
}

/// Whether the un-packed direct kernel should serve this multiply: dense
/// `B` rows (`cs == 1`); fewer than [`DIRECT_MAX_M`] rows of `C` or fewer
/// than [`DIRECT_MAX_K`] products per element; and a small, wide-output
/// problem (`n >= DIRECT_MIN_N`, under [`DIRECT_MAX_FLOPS`]).
///
/// Packing pays for itself through reuse. Each packed `B` panel serves
/// `ceil(m / mr)` row strips: at `m < 8` only one on the widest tile, so
/// packing `B` only adds a pass over it (the b = 2 dense `dX`, `m = 2`,
/// runs about 2.5x faster direct). Each micro-tile's read and write of
/// its `C` tile is spread over `k` multiply-adds: at `k <= 2` (the b = 2
/// dense `dW`) that write-back, in tile order, costs more than the direct
/// kernel's `k` row-order passes over `C` (packing them made a b = 2 MLP
/// step 10–15% slower). Everywhere else a sweep of every
/// `gemm*` shape the training workloads issue (on an AVX-512 host, each
/// call timed alone) found the packed kernel faster, the conv-lowered
/// shapes of a 16×16 stage by 1.1–2x.
///
/// The predicate is a pure function of the problem shape and layout —
/// never of thread counts or the kernel tier — so serial and parallel
/// entry points and every tier take the same path and results stay
/// bit-identical. Moving a shape between the two kernels keeps its bits
/// when `alpha == 1`, `C` starts as zero (`beta == 0`, or zero on entry)
/// and `k <= KC`: both kernels then add each element's products onto
/// zero in ascending `p`, with unfused multiply and add.
fn use_direct(m: usize, k: usize, n: usize, b: View<'_>) -> bool {
    b.cs == 1
        && (m < DIRECT_MAX_M || k < DIRECT_MAX_K)
        && n >= DIRECT_MIN_N
        && 2 * m * k * n < DIRECT_MAX_FLOPS
}

/// Un-packed kernel for small wide-output problems with fewer than
/// [`DIRECT_MAX_M`] rows of `C` or fewer than [`DIRECT_MAX_K`] products
/// per element, where packing cannot pay for itself: row-axpy
/// accumulation over contiguous `C` and `B` rows (`use_direct`
/// guarantees `b.cs == 1`). Deterministic: for each `C` element the `k` dimension is
/// consumed in one ascending pass.
#[allow(clippy::too_many_arguments)]
fn direct_serial(
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    a: View<'_>,
    b: View<'_>,
    beta: f32,
    c: &mut [f32],
) {
    debug_assert_eq!(b.cs, 1);
    apply_beta(beta, c);
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }
    for i in 0..m {
        let crow = &mut c[i * n..(i + 1) * n];
        for p in 0..k {
            let av = alpha * a.at(i, p);
            if av == 0.0 {
                continue;
            }
            let brow = &b.data[p * b.rs..p * b.rs + n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
}

/// Dispatches a logical-view GEMM: the direct kernel for small problems,
/// otherwise the packed kernel — serially or, when the workspace's
/// parallelism hint and the problem size warrant it, across row panels.
/// The parallel and serial packed paths produce bit-identical output.
#[allow(clippy::too_many_arguments)]
fn packed_dispatch(
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    a: View<'_>,
    b: View<'_>,
    beta: f32,
    c: &mut [f32],
    ws: &mut Workspace,
) {
    if use_direct(m, k, n, b) {
        direct_serial(m, k, n, alpha, a, b, beta, c);
        return;
    }
    let kernel = GemmKernel::active();
    let threads = ws.parallelism();
    if threads > 1 && 2 * m * k * n >= PARALLEL_MIN_FLOPS && m >= 2 * kernel.mr() {
        packed_parallel(kernel, m, k, n, alpha, a, b, beta, c, threads, ws);
    } else {
        packed_serial(kernel, m, k, n, alpha, a, b, beta, c, ws);
    }
}

/// Multi-threaded packed GEMM over row panels, run on the process's
/// [`lanes`]: at most `threads` participants claim panels, and each runs
/// the identical serial kernel on a contiguous chunk of C's rows (and the
/// matching rows of A), so output is bit-identical to the serial kernel.
/// A plan that collapses to a single panel, or a call made while the
/// lanes are busy (from inside a lane, say), runs inline on the caller's
/// thread — same bytes.
#[allow(clippy::too_many_arguments)]
fn packed_parallel(
    kernel: GemmKernel,
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    a: View<'_>,
    b: View<'_>,
    beta: f32,
    c: &mut [f32],
    threads: usize,
    ws: &mut Workspace,
) {
    apply_beta(beta, c);
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }
    let (mr, nr) = (kernel.mr(), kernel.nr());
    // Contiguous row chunks, rounded up to whole micro-tiles.
    let chunk = m.div_ceil(threads).div_ceil(mr) * mr;
    let kc_max = k.min(KC);
    let a_pack_len = kernel.mc().min(chunk).div_ceil(mr) * mr * kc_max;
    let b_pack_len = kc_max * n.div_ceil(nr) * nr;
    // One row panel per claim, each with its own packing buffers checked
    // out of the caller's arena up-front and returned after the join, so
    // the parallel path stays allocation-flat too.
    let mut panels: Vec<_> = c
        .chunks_mut(chunk * n)
        .enumerate()
        .map(|(i, c_panel)| {
            (
                c_panel,
                i * chunk,
                ws.take_pack(a_pack_len),
                ws.take_pack(b_pack_len),
            )
        })
        .collect();
    let mut states = vec![(); threads];
    lanes::for_each_with(
        &mut states,
        &mut panels,
        |_, (c_panel, i0, a_pack, b_pack)| {
            // Shift the A view down to this panel's first row.
            let a_panel = View {
                data: &a.data[*i0 * a.rs..],
                rs: a.rs,
                cs: a.cs,
            };
            let rows = c_panel.len() / n;
            packed_serial_into(
                kernel,
                rows,
                k,
                n,
                alpha,
                a_panel,
                Rhs::Pack(b, b_pack),
                c_panel,
                a_pack,
            );
        },
    );
    for (_, _, a_pack, b_pack) in panels {
        ws.give(a_pack);
        ws.give(b_pack);
    }
}

/// Packed GEMM: `C = alpha * A @ B + beta * C`, row-major, with packing
/// buffers drawn from this thread's fallback [`Workspace`].
///
/// # Panics
/// Panics if slice lengths do not match `m*k`, `k*n`, `m*n`.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn gemm(
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    with_thread_workspace(|ws| gemm_ws(m, k, n, alpha, a, b, beta, c, ws));
}

/// Packed GEMM with an explicit workspace: `C = alpha * A @ B + beta * C`.
///
/// When the workspace's parallelism hint is above 1 and the problem is
/// large enough, this transparently uses [`gemm_parallel`]; the result is
/// bit-identical either way.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn gemm_ws(
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    ws: &mut Workspace,
) {
    check_dims(m, k, n, a, b, c);
    let av = View {
        data: a,
        rs: k,
        cs: 1,
    };
    let bv = View {
        data: b,
        rs: n,
        cs: 1,
    };
    packed_dispatch(m, k, n, alpha, av, bv, beta, c, ws);
}

/// Explicitly multi-threaded packed GEMM: `C = alpha * A @ B + beta * C`
/// split over `threads` row panels. Bit-identical to [`gemm_ws`] with
/// parallelism 1 — see the module-level *Determinism* notes. With
/// `threads <= 1` (or a plan that collapses to one row chunk) the serial
/// packed path runs directly; otherwise the panels run on the process's
/// [`lanes`], no thread spawned.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn gemm_parallel(
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    threads: usize,
    ws: &mut Workspace,
) {
    check_dims(m, k, n, a, b, c);
    let av = View {
        data: a,
        rs: k,
        cs: 1,
    };
    let bv = View {
        data: b,
        rs: n,
        cs: 1,
    };
    let kernel = GemmKernel::active();
    if use_direct(m, k, n, bv) {
        direct_serial(m, k, n, alpha, av, bv, beta, c);
    } else if threads <= 1 || m < 2 * kernel.mr() {
        packed_serial(kernel, m, k, n, alpha, av, bv, beta, c, ws);
    } else {
        packed_parallel(kernel, m, k, n, alpha, av, bv, beta, c, threads, ws);
    }
}

/// GEMM with `A` transposed: `C = alpha * A^T @ B + beta * C` where `A` is
/// stored `k x m` row-major. Used by dense-layer backward passes. Packing
/// buffers come from this thread's fallback workspace.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn gemm_at(
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    a: &[f32], // k x m
    b: &[f32], // k x n
    beta: f32,
    c: &mut [f32], // m x n
) {
    with_thread_workspace(|ws| gemm_at_ws(m, k, n, alpha, a, b, beta, c, ws));
}

/// [`gemm_at`] with an explicit workspace.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn gemm_at_ws(
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    a: &[f32], // k x m
    b: &[f32], // k x n
    beta: f32,
    c: &mut [f32], // m x n
    ws: &mut Workspace,
) {
    assert_eq!(a.len(), k * m, "A(T) dims mismatch");
    assert_eq!(b.len(), k * n, "B dims mismatch");
    assert_eq!(c.len(), m * n, "C dims mismatch");
    // Logical A is m x k; element (i, p) of A^T lives at a[p * m + i].
    let av = View {
        data: a,
        rs: 1,
        cs: m,
    };
    let bv = View {
        data: b,
        rs: n,
        cs: 1,
    };
    packed_dispatch(m, k, n, alpha, av, bv, beta, c, ws);
}

/// GEMM with `B` transposed: `C = alpha * A @ B^T + beta * C` where `B` is
/// stored `n x k` row-major. Used by dense-layer input gradients. Packing
/// buffers come from this thread's fallback workspace.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn gemm_bt(
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    a: &[f32], // m x k
    b: &[f32], // n x k
    beta: f32,
    c: &mut [f32], // m x n
) {
    with_thread_workspace(|ws| gemm_bt_ws(m, k, n, alpha, a, b, beta, c, ws));
}

/// [`gemm_bt`] with an explicit workspace.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn gemm_bt_ws(
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    a: &[f32], // m x k
    b: &[f32], // n x k
    beta: f32,
    c: &mut [f32], // m x n
    ws: &mut Workspace,
) {
    assert_eq!(a.len(), m * k, "A dims mismatch");
    assert_eq!(b.len(), n * k, "B(T) dims mismatch");
    assert_eq!(c.len(), m * n, "C dims mismatch");
    let av = View {
        data: a,
        rs: k,
        cs: 1,
    };
    // Logical B is k x n; element (p, j) of B^T lives at b[j * k + p].
    let bv = View {
        data: b,
        rs: 1,
        cs: k,
    };
    packed_dispatch(m, k, n, alpha, av, bv, beta, c, ws);
}

/// [`gemm_bt_ws`] against a weight matrix packed once
/// ([`PackedRhs::pack_bt`]): `C = alpha * A @ W^T + beta * C` with
/// `A: m x k`, bit-identical to [`gemm_bt_ws`] on the unpacked `W`, but
/// no call packs `W` again. Runs serially; the `A` packing buffer comes
/// from `ws`.
///
/// # Panics
/// Panics if `a` or `c` do not match `m x k` / `m x n`, or when the
/// thread's active kernel does not [fit](PackedRhs::fits) the operand.
pub fn gemm_bt_packed(
    m: usize,
    alpha: f32,
    a: &[f32],
    w: &PackedRhs,
    beta: f32,
    c: &mut [f32],
    ws: &mut Workspace,
) {
    let (k, n) = (w.k, w.n);
    assert_eq!(a.len(), m * k, "A dims mismatch");
    assert_eq!(c.len(), m * n, "C dims mismatch");
    let kernel = GemmKernel::active();
    assert!(
        w.fits(kernel),
        "operand packed for nr = {}, but kernel {kernel} tiles nr = {}",
        w.nr,
        kernel.nr()
    );
    let av = View {
        data: a,
        rs: k,
        cs: 1,
    };
    // The view `gemm_bt_ws` builds over W. The direct kernel only takes
    // it when k = 1; then the packed block is W itself, zero-padded to
    // whole tiles, so the packed data can stand in for W.
    let wv = View {
        data: &w.data,
        rs: 1,
        cs: k,
    };
    if use_direct(m, k, n, wv) {
        direct_serial(m, k, n, alpha, av, wv, beta, c);
        return;
    }
    apply_beta(beta, c);
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }
    let mr = kernel.mr();
    let mut a_pack = ws.take_pack(kernel.mc().min(m).div_ceil(mr) * mr * k.min(KC));
    packed_serial_into(kernel, m, k, n, alpha, av, Rhs::Packed(w), c, &mut a_pack);
    ws.give(a_pack);
}

fn check_dims(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &[f32]) {
    assert_eq!(a.len(), m * k, "A dims mismatch: {} != {m}*{k}", a.len());
    assert_eq!(b.len(), k * n, "B dims mismatch: {} != {k}*{n}", b.len());
    assert_eq!(c.len(), m * n, "C dims mismatch: {} != {m}*{n}", c.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol, "elem {i}: {x} vs {y}");
        }
    }

    /// The kernels the running CPU can actually execute.
    fn supported_kernels() -> Vec<GemmKernel> {
        GemmKernel::all()
            .into_iter()
            .filter(|k| k.supported())
            .collect()
    }

    #[test]
    fn naive_matches_hand_example() {
        // [1 2; 3 4] @ [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0; 4];
        gemm_naive(2, 2, 2, 1.0, &a, &b, 0.0, &mut c);
        assert_close(&c, &[19.0, 22.0, 43.0, 50.0], 1e-6);
    }

    #[test]
    fn packed_matches_naive_over_sizes() {
        let mut rng = Rng::new(1);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (17, 9, 33),
            (64, 64, 64),
            (65, 70, 130),
        ] {
            let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
            let mut c1: Vec<f32> = (0..m * n).map(|_| rng.normal()).collect();
            let mut c2 = c1.clone();
            gemm_naive(m, k, n, 0.7, &a, &b, 0.3, &mut c1);
            gemm(m, k, n, 0.7, &a, &b, 0.3, &mut c2);
            assert_close(&c1, &c2, 1e-3);
        }
    }

    /// Satellite property test: every packed variant vs the naive
    /// reference over randomized odd shapes and alpha/beta corners.
    #[test]
    fn packed_variants_match_naive_over_odd_shapes_and_scalars() {
        let sizes = [1usize, 3, 17, 64, 65, 130];
        let scalars = [0.0f32, 0.5, 1.0];
        let mut rng = Rng::new(99);
        // Randomized sweep over the cross product, bounded for test time.
        for trial in 0..60 {
            let m = sizes[rng.below(sizes.len())];
            let k = sizes[rng.below(sizes.len())];
            let n = sizes[rng.below(sizes.len())];
            let alpha = scalars[(trial / 3) % 3];
            let beta = scalars[trial % 3];
            let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
            let c0: Vec<f32> = (0..m * n).map(|_| rng.normal()).collect();
            // Tolerance scales with the reduction length.
            let tol = 1e-4 * (k as f32).max(1.0);

            let mut want = c0.clone();
            gemm_naive(m, k, n, alpha, &a, &b, beta, &mut want);
            let mut got = c0.clone();
            gemm(m, k, n, alpha, &a, &b, beta, &mut got);
            assert_close(&want, &got, tol);

            // A^T variant: store A as k x m.
            let mut at = vec![0.0; k * m];
            for i in 0..m {
                for p in 0..k {
                    at[p * m + i] = a[i * k + p];
                }
            }
            let mut got_at = c0.clone();
            gemm_at(m, k, n, alpha, &at, &b, beta, &mut got_at);
            assert_close(&want, &got_at, tol);

            // B^T variant: store B as n x k.
            let mut bt = vec![0.0; n * k];
            for p in 0..k {
                for j in 0..n {
                    bt[j * k + p] = b[p * n + j];
                }
            }
            let mut got_bt = c0.clone();
            gemm_bt(m, k, n, alpha, &a, &bt, beta, &mut got_bt);
            assert_close(&want, &got_bt, tol);
        }
    }

    /// Tentpole property test: every supported SIMD kernel is
    /// *bit-identical* to the forced scalar kernel (exact equality, no
    /// tolerance) over odd shapes, alpha/beta corners, and all four
    /// layout entry points (A@B, A^T@B, A@B^T, and the threaded split).
    #[test]
    fn simd_kernels_are_bit_identical_to_scalar_over_layouts() {
        let sizes = [1usize, 3, 5, 17, 31, 64, 65, 129, 300];
        let mut rng = Rng::new(1234);
        for trial in 0..40 {
            let m = sizes[rng.below(sizes.len())];
            let k = sizes[rng.below(sizes.len())];
            let n = sizes[rng.below(sizes.len())];
            let alpha = [1.0f32, 0.7, 0.0][trial % 3];
            let beta = [0.0f32, 1.0, 0.3][(trial / 3) % 3];
            let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
            let c0: Vec<f32> = (0..m * n).map(|_| rng.normal()).collect();
            let mut at = vec![0.0; k * m];
            for i in 0..m {
                for p in 0..k {
                    at[p * m + i] = a[i * k + p];
                }
            }
            let mut bt = vec![0.0; n * k];
            for p in 0..k {
                for j in 0..n {
                    bt[j * k + p] = b[p * n + j];
                }
            }
            let run = |kernel: GemmKernel| {
                with_kernel(kernel, || {
                    let mut ws = Workspace::new();
                    let mut plain = c0.clone();
                    gemm_ws(m, k, n, alpha, &a, &b, beta, &mut plain, &mut ws);
                    let mut with_at = c0.clone();
                    gemm_at_ws(m, k, n, alpha, &at, &b, beta, &mut with_at, &mut ws);
                    let mut with_bt = c0.clone();
                    gemm_bt_ws(m, k, n, alpha, &a, &bt, beta, &mut with_bt, &mut ws);
                    let mut par = c0.clone();
                    gemm_parallel(m, k, n, alpha, &a, &b, beta, &mut par, 3, &mut ws);
                    (plain, with_at, with_bt, par)
                })
            };
            let scalar = run(GemmKernel::Scalar);
            for kernel in supported_kernels() {
                if kernel == GemmKernel::Scalar {
                    continue;
                }
                let simd = run(kernel);
                assert_eq!(scalar.0, simd.0, "{kernel} A@B m={m} k={k} n={n}");
                assert_eq!(scalar.1, simd.1, "{kernel} A^T@B m={m} k={k} n={n}");
                assert_eq!(scalar.2, simd.2, "{kernel} A@B^T m={m} k={k} n={n}");
                assert_eq!(scalar.3, simd.3, "{kernel} parallel m={m} k={k} n={n}");
            }
        }
    }

    /// A pre-packed `W` serves the same bytes as `gemm_bt_ws` packing it
    /// per call, on every supported tier: `k` across one, several and a
    /// ragged last `KC` block, `n` off whole tiles (and the k = 1 direct
    /// kernel at n = 130), `m` past `MC`.
    #[test]
    fn packed_rhs_is_bit_identical_to_unpacked_bt_on_every_tier() {
        let mut rng = Rng::new(77);
        for kernel in supported_kernels() {
            for &k in &[1usize, 255, 300, 513] {
                for &n in &[5usize, 16, 33, 130] {
                    let w: Vec<f32> = (0..n * k).map(|_| rng.normal()).collect();
                    let packed = PackedRhs::pack_bt(&w, n, k, kernel);
                    assert_eq!((packed.rows(), packed.cols()), (n, k));
                    for (trial, &m) in [1usize, 3, 9, 17, 70].iter().enumerate() {
                        let (alpha, beta) = [(1.0f32, 0.0f32), (0.7, 0.3)][trial % 2];
                        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
                        let c0: Vec<f32> = (0..m * n).map(|_| rng.normal()).collect();
                        let (want, got) = with_kernel(kernel, || {
                            let mut ws = Workspace::new();
                            let mut want = c0.clone();
                            gemm_bt_ws(m, k, n, alpha, &a, &w, beta, &mut want, &mut ws);
                            let mut got = c0.clone();
                            gemm_bt_packed(m, alpha, &a, &packed, beta, &mut got, &mut ws);
                            (want, got)
                        });
                        assert_eq!(want, got, "{kernel} m={m} k={k} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "operand packed for nr = 16")]
    fn a_packed_rhs_refuses_a_kernel_of_another_tile_width() {
        let packed = PackedRhs::pack_bt(&[1.0; 6], 2, 3, GemmKernel::Avx2);
        assert!(!packed.fits(GemmKernel::Scalar) && packed.fits(GemmKernel::Avx512));
        let mut c = [0.0; 2];
        with_kernel(GemmKernel::Scalar, || {
            gemm_bt_packed(
                1,
                1.0,
                &[1.0; 3],
                &packed,
                0.0,
                &mut c,
                &mut Workspace::new(),
            )
        });
    }

    /// The per-element `A` packer the fast paths replaced: the reference
    /// layout, read through `View::at` for any strides.
    fn pack_a_oracle(
        a: View<'_>,
        i0: usize,
        rows_total: usize,
        p0: usize,
        kc: usize,
        mr: usize,
    ) -> Vec<f32> {
        let tiles = rows_total.div_ceil(mr);
        let mut out = vec![0.0; tiles * kc * mr];
        for t in 0..tiles {
            let row0 = i0 + t * mr;
            let rows = mr.min(i0 + rows_total - row0);
            for p in 0..kc {
                for r in 0..rows {
                    out[t * kc * mr + p * mr + r] = a.at(row0 + r, p0 + p);
                }
            }
        }
        out
    }

    /// The per-element `B` packer the fast paths replaced.
    fn pack_b_oracle(
        b: View<'_>,
        p0: usize,
        kc: usize,
        j0: usize,
        nc: usize,
        nr: usize,
    ) -> Vec<f32> {
        let tiles = nc.div_ceil(nr);
        let mut out = vec![0.0; tiles * kc * nr];
        for t in 0..tiles {
            let col0 = j0 + t * nr;
            let cols = nr.min(j0 + nc - col0);
            for p in 0..kc {
                for c in 0..cols {
                    out[t * kc * nr + p * nr + c] = b.at(p0 + p, col0 + c);
                }
            }
        }
        out
    }

    /// The packer equals the per-element oracle bit for bit, for `A` and
    /// `B`, in both layouts (unit stride along the tile axis and along
    /// `p`), on every supported tier: ragged tiles, `kc` off multiples of
    /// 8, non-zero offsets, panels narrower than one tile. The destination starts as
    /// NaN (the workspace hands packing buffers out unzeroed), so a pad
    /// lane left unwritten fails.
    #[test]
    fn packing_matches_the_per_element_oracle_on_every_tier() {
        let mut rng = Rng::new(35);
        for isa in supported_kernels() {
            for trial in 0..120 {
                let (mr, nr) = (isa.mr(), isa.nr());
                let kc = 1 + rng.below(40);
                let p0 = rng.below(5);
                let k = p0 + kc + rng.below(3);
                let lanes_total = 1 + rng.below(3 * nr);
                let off = rng.below(6);
                let extent = off + lanes_total + rng.below(3);
                let data: Vec<f32> = (0..k * extent).map(|_| rng.normal()).collect();
                // `extent x k` row-major holds a unit stride along `p`;
                // the same buffer read as `k x extent` holds it along the
                // tile axis.
                let along_p = View {
                    data: &data,
                    rs: k,
                    cs: 1,
                };
                let along_tile = View {
                    data: &data,
                    rs: 1,
                    cs: extent,
                };
                for (layout, a) in [("A", along_p), ("A^T", along_tile)] {
                    let rows = lanes_total.min(2 * mr + 1);
                    let want = pack_a_oracle(a, off, rows, p0, kc, mr);
                    let mut got = vec![f32::NAN; want.len()];
                    pack(isa, a, off, rows, p0, kc, mr, &mut got);
                    assert_eq!(
                        want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "{isa} {layout} trial {trial} kc={kc} p0={p0} i0={off}"
                    );
                }
                let b_rows = View {
                    data: &data,
                    rs: extent,
                    cs: 1,
                };
                let b_t = View {
                    data: &data,
                    rs: 1,
                    cs: k,
                };
                for (layout, b) in [("B", b_rows), ("B^T", b_t)] {
                    let want = pack_b_oracle(b, p0, kc, off, lanes_total, nr);
                    let mut got = vec![f32::NAN; want.len()];
                    pack(isa, b.t(), off, lanes_total, p0, kc, nr, &mut got);
                    assert_eq!(
                        want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "{isa} {layout} trial {trial} kc={kc} p0={p0} j0={off} n={lanes_total}"
                    );
                }
            }
        }
    }

    /// `PackedRhs::pack_bt` lays every `KC` block out as the oracle packs
    /// `W^T`, for each tile width, whichever supported tier moves the
    /// data.
    #[test]
    fn pack_bt_lays_out_every_block_as_the_oracle() {
        let mut rng = Rng::new(36);
        for &(n, k) in &[(1usize, 1usize), (5, 7), (16, 256), (33, 300), (130, 513)] {
            let w: Vec<f32> = (0..n * k).map(|_| rng.normal()).collect();
            let view = View {
                data: &w,
                rs: 1,
                cs: k,
            };
            for tiles_for in GemmKernel::all() {
                let nr = tiles_for.nr();
                let mut want = Vec::new();
                for p0 in (0..k).step_by(KC) {
                    want.extend(pack_b_oracle(view, p0, KC.min(k - p0), 0, n, nr));
                }
                for isa in supported_kernels() {
                    let packed = with_kernel(isa, || PackedRhs::pack_bt(&w, n, k, tiles_for));
                    assert_eq!(
                        packed.data, want,
                        "{isa} packing for {tiles_for} n={n} k={k}"
                    );
                }
            }
        }
    }

    /// How a training layer lays out its operands: `A @ B` (`gemm_ws`),
    /// `A^T @ B` (`gemm_at_ws`) or `A @ B^T` (`gemm_bt_ws`).
    #[derive(Clone, Copy, Debug)]
    enum Layout {
        Ab,
        AtB,
        ABt,
    }

    /// Every `gemm*` shape `(layout, m, k, n, beta)` the training
    /// workloads issue, all at `alpha = 1`: the ResNet of `train_conv`
    /// (b = 16 per learner, evaluated in chunks of 256 and 144), the MLP
    /// of `train_smallbatch` (b = 2; 256 and 38) and the MLP of `dist_ps`
    /// (b = 8; 50). `beta = 1` is a weight gradient accumulating into the
    /// gradient `loss_and_grad` zeroes first. A conv `dW` accumulates
    /// across a batch's samples, but as `A @ B^T` it never has dense `B`
    /// rows, so it never reaches the direct kernel.
    #[rustfmt::skip]
    const WORKLOAD_SHAPES: &[(Layout, usize, usize, usize, f32)] = {
        use Layout::*;
        &[
            // train_conv: conv forward, dX and dW, then the dense head.
            (Ab, 8, 27, 256, 0.0), (AtB, 27, 8, 256, 0.0), (ABt, 8, 256, 27, 1.0),
            (Ab, 8, 72, 256, 0.0), (AtB, 72, 8, 256, 0.0), (ABt, 8, 256, 72, 1.0),
            (Ab, 16, 72, 64, 0.0), (AtB, 72, 16, 64, 0.0), (ABt, 16, 64, 72, 1.0),
            (Ab, 16, 8, 64, 0.0), (AtB, 8, 16, 64, 0.0), (ABt, 16, 64, 8, 1.0),
            (Ab, 16, 144, 64, 0.0), (AtB, 144, 16, 64, 0.0), (ABt, 16, 64, 144, 1.0),
            (Ab, 32, 144, 16, 0.0), (AtB, 144, 32, 16, 0.0), (ABt, 32, 16, 144, 1.0),
            (Ab, 32, 16, 16, 0.0), (AtB, 16, 32, 16, 0.0), (ABt, 32, 16, 16, 1.0),
            (Ab, 32, 288, 16, 0.0), (AtB, 288, 32, 16, 0.0), (ABt, 32, 16, 288, 1.0),
            (ABt, 16, 32, 10, 0.0), (AtB, 10, 16, 32, 1.0), (Ab, 16, 10, 32, 0.0),
            (ABt, 144, 32, 10, 0.0), (ABt, 256, 32, 10, 0.0),
            // train_smallbatch: 256 -> 256 -> 256 -> 10.
            (ABt, 2, 256, 256, 0.0), (AtB, 256, 2, 256, 1.0), (Ab, 2, 256, 256, 0.0),
            (ABt, 2, 256, 10, 0.0), (AtB, 10, 2, 256, 1.0), (Ab, 2, 10, 256, 0.0),
            (ABt, 38, 256, 256, 0.0), (ABt, 38, 256, 10, 0.0),
            (ABt, 256, 256, 256, 0.0), (ABt, 256, 256, 10, 0.0),
            // dist_ps: 256 -> 1024 -> 256 -> 16.
            (ABt, 8, 256, 1024, 0.0), (AtB, 1024, 8, 256, 1.0), (Ab, 8, 1024, 256, 0.0),
            (ABt, 8, 1024, 256, 0.0), (AtB, 256, 8, 1024, 1.0), (Ab, 8, 256, 1024, 0.0),
            (ABt, 8, 256, 16, 0.0), (AtB, 16, 8, 256, 1.0), (Ab, 8, 16, 256, 0.0),
            (ABt, 50, 256, 1024, 0.0), (ABt, 50, 1024, 256, 0.0), (ABt, 50, 256, 16, 0.0),
        ]
    };

    fn view(data: &[f32], rs: usize, cs: usize) -> View<'_> {
        View { data, rs, cs }
    }

    /// The direct-kernel rule this one replaced: any dense-`B`-row problem
    /// with `n >= 128` under 1 MFLOP, whatever its row count.
    fn previous_rule(m: usize, k: usize, n: usize, b: View<'_>) -> bool {
        b.cs == 1 && n >= DIRECT_MIN_N && 2 * m * k * n < DIRECT_MAX_FLOPS
    }

    /// The direct-kernel rule against every workload shape. It answers
    /// the same under every tier; it only ever moves a shape off the
    /// direct kernel (never onto it); exactly the b = 2 dense gradients
    /// (`m = 2` or `k = 2`) stay direct; and every shape it moves gives the same bits packed as
    /// direct, on every supported tier, under the workload's own `beta`
    /// (a NaN-filled `C` for `beta = 0`, a zeroed one for `beta = 1`) with
    /// zeros in `A` as after a ReLU.
    #[test]
    fn direct_rule_moves_only_bit_identical_shapes_on_every_tier() {
        let mut rng = Rng::new(36);
        let (mut moved, mut direct) = (Vec::new(), Vec::new());
        for &(layout, m, k, n, beta) in WORKLOAD_SHAPES {
            let a: Vec<f32> = (0..m * k)
                .map(|i| if i % 5 == 0 { 0.0 } else { rng.normal() })
                .collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
            let (av, bv) = match layout {
                Layout::Ab => (view(&a, k, 1), view(&b, n, 1)),
                Layout::AtB => (view(&a, 1, m), view(&b, n, 1)),
                Layout::ABt => (view(&a, k, 1), view(&b, 1, k)),
            };
            let rule = use_direct(m, k, n, bv);
            for kernel in supported_kernels() {
                assert_eq!(
                    with_kernel(kernel, || use_direct(m, k, n, bv)),
                    rule,
                    "{kernel}"
                );
            }
            assert!(
                !rule || previous_rule(m, k, n, bv),
                "{layout:?} {m}x{k}x{n} newly direct"
            );
            if rule {
                direct.push((m, k, n));
            }
            if rule || !previous_rule(m, k, n, bv) {
                continue;
            }
            moved.push((m, k, n));
            assert!(k <= KC, "{layout:?} {m}x{k}x{n} spans several KC blocks");
            let c0 = vec![if beta == 0.0 { f32::NAN } else { 0.0 }; m * n];
            let mut want = c0.clone();
            direct_serial(m, k, n, 1.0, av, bv, beta, &mut want);
            for kernel in supported_kernels() {
                let mut got = c0.clone();
                packed_serial(
                    kernel,
                    m,
                    k,
                    n,
                    1.0,
                    av,
                    bv,
                    beta,
                    &mut got,
                    &mut Workspace::new(),
                );
                assert_eq!(
                    want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "{kernel} {layout:?} {m}x{k}x{n} beta={beta}"
                );
            }
        }
        assert_eq!(
            direct,
            [(256, 2, 256), (2, 256, 256), (10, 2, 256), (2, 10, 256)]
        );
        assert_eq!(
            moved,
            [
                (8, 27, 256),
                (27, 8, 256),
                (8, 72, 256),
                (72, 8, 256),
                (16, 8, 256),
                (8, 16, 256)
            ]
        );
    }

    /// Satellite: forcing the scalar fallback must reproduce the default
    /// dispatch byte-for-byte — the fallback serves the same bytes.
    #[test]
    fn forced_scalar_fallback_serves_same_bytes_as_default_dispatch() {
        let mut rng = Rng::new(5);
        let (m, k, n) = (37, 129, 45);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        let mut default = vec![0.0; m * n];
        gemm(m, k, n, 1.0, &a, &b, 0.0, &mut default);
        let mut forced = vec![0.0; m * n];
        with_kernel(GemmKernel::Scalar, || {
            gemm(m, k, n, 1.0, &a, &b, 0.0, &mut forced);
        });
        assert_eq!(default, forced);
    }

    #[test]
    fn kernel_dispatch_is_deterministic_and_scoped() {
        let detected = GemmKernel::detected();
        assert!(detected.supported());
        assert_eq!(detected, GemmKernel::detected(), "detection is cached");
        assert_eq!(GemmKernel::active(), detected);
        with_kernel(GemmKernel::Scalar, || {
            assert_eq!(GemmKernel::active(), GemmKernel::Scalar);
        });
        assert_eq!(GemmKernel::active(), detected, "override is scoped");
    }

    /// Satellite property test: the parallel kernel is *bit-identical* to
    /// the serial one for any thread count (exact equality, no tolerance).
    #[test]
    fn parallel_is_bit_identical_to_serial() {
        let mut rng = Rng::new(7);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (17, 9, 33),
            (65, 70, 130),
            (128, 300, 64),
        ] {
            let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
            let c0: Vec<f32> = (0..m * n).map(|_| rng.normal()).collect();
            let mut ws = Workspace::new();
            let mut serial = c0.clone();
            gemm_ws(m, k, n, 0.7, &a, &b, 0.3, &mut serial, &mut ws);
            for threads in [2, 3, 4, 7] {
                let mut par = c0.clone();
                gemm_parallel(m, k, n, 0.7, &a, &b, 0.3, &mut par, threads, &mut ws);
                assert_eq!(serial, par, "threads={threads} m={m} k={k} n={n}");
            }
        }
    }

    /// Satellite: a parallel plan that collapses to one chunk (few rows,
    /// many threads) must take the inline bypass and still match.
    #[test]
    fn single_chunk_parallel_runs_inline_and_matches_serial() {
        let mut rng = Rng::new(21);
        let (m, k, n) = (9, 200, 90);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        let mut ws = Workspace::new();
        let mut serial = vec![0.0; m * n];
        gemm_ws(m, k, n, 1.0, &a, &b, 0.0, &mut serial, &mut ws);
        // m=9 rounds to at most one chunk at high thread counts.
        for threads in [1, 2, 16] {
            let mut par = vec![0.0; m * n];
            gemm_parallel(m, k, n, 1.0, &a, &b, 0.0, &mut par, threads, &mut ws);
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn dispatch_through_parallelism_hint_is_bit_identical() {
        let mut rng = Rng::new(11);
        // Big enough to clear PARALLEL_MIN_FLOPS so the hint actually
        // fans out.
        let (m, k, n) = (160, 130, 120);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        let mut serial = vec![0.0; m * n];
        let mut ws1 = Workspace::new();
        gemm_ws(m, k, n, 1.0, &a, &b, 0.0, &mut serial, &mut ws1);
        let mut hinted = vec![0.0; m * n];
        let mut ws4 = Workspace::with_parallelism(4);
        gemm_ws(m, k, n, 1.0, &a, &b, 0.0, &mut hinted, &mut ws4);
        assert_eq!(serial, hinted);
    }

    #[test]
    fn workspace_packing_buffers_are_reused_across_calls() {
        let mut ws = Workspace::new();
        let (m, k, n) = (32, 32, 32);
        let a = vec![1.0; m * k];
        let b = vec![1.0; k * n];
        let mut c = vec![0.0; m * n];
        gemm_ws(m, k, n, 1.0, &a, &b, 0.0, &mut c, &mut ws);
        let after_first = ws.stats().fresh_allocs;
        for _ in 0..10 {
            gemm_ws(m, k, n, 1.0, &a, &b, 0.0, &mut c, &mut ws);
        }
        assert_eq!(
            ws.stats().fresh_allocs,
            after_first,
            "packing buffers must be checked out and returned, not reallocated"
        );
    }

    #[test]
    fn beta_zero_overwrites_garbage() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [2.0, 0.0, 0.0, 2.0];
        let mut c = [f32::NAN; 4];
        gemm(2, 2, 2, 1.0, &a, &b, 0.0, &mut c);
        assert_close(&c, &[2.0, 0.0, 0.0, 2.0], 1e-6);
    }

    #[test]
    fn at_variant_matches_explicit_transpose() {
        let mut rng = Rng::new(2);
        let (m, k, n) = (6, 4, 5);
        let at: Vec<f32> = (0..k * m).map(|_| rng.normal()).collect(); // k x m
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        // Materialise A = transpose(at): m x k.
        let mut a = vec![0.0; m * k];
        for p in 0..k {
            for i in 0..m {
                a[i * k + p] = at[p * m + i];
            }
        }
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        gemm_naive(m, k, n, 1.0, &a, &b, 0.0, &mut c1);
        gemm_at(m, k, n, 1.0, &at, &b, 0.0, &mut c2);
        assert_close(&c1, &c2, 1e-4);
    }

    #[test]
    fn bt_variant_matches_explicit_transpose() {
        let mut rng = Rng::new(3);
        let (m, k, n) = (4, 7, 3);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let bt: Vec<f32> = (0..n * k).map(|_| rng.normal()).collect(); // n x k
        let mut b = vec![0.0; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = bt[j * k + p];
            }
        }
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        gemm_naive(m, k, n, 1.0, &a, &b, 0.0, &mut c1);
        gemm_bt(m, k, n, 1.0, &a, &bt, 0.0, &mut c2);
        assert_close(&c1, &c2, 1e-4);
    }

    #[test]
    fn empty_dimensions_are_noops() {
        let mut c: Vec<f32> = vec![];
        gemm(0, 3, 0, 1.0, &[], &[], 0.0, &mut c);
        let mut c = vec![1.0, 2.0];
        // k = 0: C = beta * C.
        gemm(1, 0, 2, 1.0, &[], &[], 0.5, &mut c);
        assert_close(&c, &[0.5, 1.0], 1e-6);
    }
}
