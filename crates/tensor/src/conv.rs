//! im2col / col2im lowering for 2-D convolutions.
//!
//! The `nn` crate implements `Conv2d` as an im2col transform followed by a
//! GEMM, the same lowering cuDNN's GEMM algorithm uses. `col2im` scatters
//! gradients back for the backward pass with respect to the input.
//!
//! Layout conventions: images are NCHW; the column buffer for one image is
//! `(c_in * kh * kw) x (out_h * out_w)`, row-major.
//!
//! # The padded plane
//!
//! A padded convolution first copies the image once into a zero-padded
//! plane (`c_in x (h + 2 pad) x (w + 2 pad)`, [`ConvGeom::plane_len`]),
//! checked out of the caller's [`Workspace`]. In that plane every tap of
//! every output lies in bounds, so each column row is `out_h` fixed-width
//! row moves — a `[f32; W]` copy at stride 1, a fixed-width gather at
//! stride 2 (for `out_w` of 4, 8 and 16; other widths take a generic
//! loop) — with no bounds logic, fringe fills or per-row `memcpy` calls.
//! An unpadded convolution reads the image in place. `col2im` mirrors it:
//! the image is copied into the plane, each column row is added back with
//! fixed-width adds, and the interior is copied out again.
//!
//! The lowering only moves data, so it is bit-identical to reading every
//! tap through bounds checks: `im2col` writes each column element once,
//! with the image value or a padding zero, and `col2im` adds each
//! element's taps onto its starting value in the same `(c, ky, kx)` order
//! (taps that land in the padding accumulate in the border and are
//! dropped). The tests keep the per-tap versions as oracles and compare
//! bit for bit.

use crate::workspace::{with_thread_workspace, Workspace};

/// Geometry of a 2-D convolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input channels.
    pub c_in: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl ConvGeom {
    /// Output height.
    pub fn out_h(&self) -> usize {
        conv_out(self.h, self.kh, self.stride, self.pad)
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        conv_out(self.w, self.kw, self.stride, self.pad)
    }

    /// Rows of the column buffer: `c_in * kh * kw`.
    pub fn col_rows(&self) -> usize {
        self.c_in * self.kh * self.kw
    }

    /// Columns of the column buffer: `out_h * out_w`.
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Elements of the column buffer for one image.
    pub fn col_len(&self) -> usize {
        self.col_rows() * self.col_cols()
    }

    /// Elements of one input image (`c_in * h * w`).
    pub fn image_len(&self) -> usize {
        self.c_in * self.h * self.w
    }

    /// Elements of the zero-padded plane that [`im2col_ws`] and
    /// [`col2im_ws`] check out of the workspace: `c_in * (h + 2 pad) * (w + 2 pad)`, or
    /// 0 when `pad == 0` (the image is read in place).
    pub fn plane_len(&self) -> usize {
        if self.pad == 0 {
            0
        } else {
            self.c_in * (self.h + 2 * self.pad) * (self.w + 2 * self.pad)
        }
    }
}

/// Output extent of a 1-D convolution.
pub fn conv_out(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    let padded = input + 2 * pad;
    assert!(
        padded >= kernel,
        "kernel {kernel} larger than padded input {padded}"
    );
    (padded - kernel) / stride + 1
}

/// Unfolds one CHW image into a `(c_in*kh*kw) x (out_h*out_w)` column
/// buffer. Out-of-bounds (padding) taps contribute zeros. The padded plane
/// comes from this thread's fallback workspace; see [`im2col_ws`].
///
/// # Panics
/// Panics if slice lengths do not match the geometry.
pub fn im2col(geom: &ConvGeom, image: &[f32], col: &mut [f32]) {
    with_thread_workspace(|ws| im2col_ws(geom, image, col, ws));
}

/// [`im2col`] with the padded plane checked out of `ws`.
///
/// # Panics
/// Panics if slice lengths do not match the geometry.
pub fn im2col_ws(geom: &ConvGeom, image: &[f32], col: &mut [f32], ws: &mut Workspace) {
    assert_eq!(image.len(), geom.image_len(), "image length mismatch");
    assert_eq!(col.len(), geom.col_len(), "column buffer length mismatch");
    if geom.pad == 0 {
        unfold(geom, image, col);
        return;
    }
    let mut plane = ws.take_pack(geom.plane_len());
    pad_into(geom, image, &mut plane);
    unfold(geom, &plane, col);
    ws.give(plane);
}

/// Folds a column buffer back into a CHW image, *accumulating* overlapping
/// taps — the adjoint of [`im2col`], used for input gradients. The padded
/// plane comes from this thread's fallback workspace; see [`col2im_ws`].
///
/// The caller must zero `image` first if accumulation from a clean slate is
/// wanted.
///
/// # Panics
/// Panics if slice lengths do not match the geometry.
pub fn col2im(geom: &ConvGeom, col: &[f32], image: &mut [f32]) {
    with_thread_workspace(|ws| col2im_ws(geom, col, image, ws));
}

/// [`col2im`] with the padded plane checked out of `ws`.
///
/// # Panics
/// Panics if slice lengths do not match the geometry.
pub fn col2im_ws(geom: &ConvGeom, col: &[f32], image: &mut [f32], ws: &mut Workspace) {
    assert_eq!(image.len(), geom.image_len(), "image length mismatch");
    assert_eq!(col.len(), geom.col_len(), "column buffer length mismatch");
    if geom.pad == 0 {
        fold(geom, col, image);
        return;
    }
    let mut plane = ws.take_pack(geom.plane_len());
    pad_into(geom, image, &mut plane);
    fold(geom, col, &mut plane);
    unpad(geom, &plane, image);
    ws.give(plane);
}

/// Zeroes `plane` (`c_in x (h + 2 pad) x (w + 2 pad)`) and copies `image`
/// into its interior.
fn pad_into(g: &ConvGeom, image: &[f32], plane: &mut [f32]) {
    plane.fill(0.0);
    match g.w {
        4 => for_each_image_row(g, |i, q| move_w::<4>(image, i, plane, q)),
        8 => for_each_image_row(g, |i, q| move_w::<8>(image, i, plane, q)),
        16 => for_each_image_row(g, |i, q| move_w::<16>(image, i, plane, q)),
        w => for_each_image_row(g, |i, q| plane[q..q + w].copy_from_slice(&image[i..i + w])),
    }
}

/// Copies the interior of `plane` back into `image`: the inverse of
/// [`pad_into`].
fn unpad(g: &ConvGeom, plane: &[f32], image: &mut [f32]) {
    match g.w {
        4 => for_each_image_row(g, |i, q| move_w::<4>(plane, q, image, i)),
        8 => for_each_image_row(g, |i, q| move_w::<8>(plane, q, image, i)),
        16 => for_each_image_row(g, |i, q| move_w::<16>(plane, q, image, i)),
        w => for_each_image_row(g, |i, q| image[i..i + w].copy_from_slice(&plane[q..q + w])),
    }
}

/// Calls `f(i, q)` for every image row: `i` is its offset in the image,
/// `q` the offset of the same row inside the padded plane stack.
#[inline(always)]
fn for_each_image_row(g: &ConvGeom, mut f: impl FnMut(usize, usize)) {
    let (hp, wp) = (g.h + 2 * g.pad, g.w + 2 * g.pad);
    for c in 0..g.c_in {
        for y in 0..g.h {
            f((c * g.h + y) * g.w, (c * hp + y + g.pad) * wp + g.pad);
        }
    }
}

/// Copies `src[s..s + W]` to `dst[d..d + W]` as one fixed-size move.
#[inline(always)]
fn move_w<const W: usize>(src: &[f32], s: usize, dst: &mut [f32], d: usize) {
    let v: &[f32; W] = src[s..s + W].try_into().expect("W elements");
    dst[d..d + W].copy_from_slice(v);
}

/// Calls `f(r, first)` for every column row `r`, in `(c, ky, kx)` order,
/// where `first` is the offset of the row's first tap in a stack of
/// `c_in` planes of `(h + 2 pad) x (w + 2 pad)`. Output row `oy` of column
/// row `r` starts `oy * stride` plane rows below `first`.
#[inline(always)]
fn for_each_tap(g: &ConvGeom, mut f: impl FnMut(usize, usize)) {
    let wp = g.w + 2 * g.pad;
    let plane = (g.h + 2 * g.pad) * wp;
    let mut r = 0;
    for c in 0..g.c_in {
        for ky in 0..g.kh {
            for kx in 0..g.kw {
                f(r, c * plane + ky * wp + kx);
                r += 1;
            }
        }
    }
}

/// Fills every column row from `src`, a stack of planes in which every
/// tap is in bounds: the padded plane, or the image itself when
/// `pad == 0`.
fn unfold(g: &ConvGeom, src: &[f32], col: &mut [f32]) {
    match (g.stride, g.out_w()) {
        (1, 4) => unfold_rows::<4, 1>(g, src, col),
        (1, 8) => unfold_rows::<8, 1>(g, src, col),
        (1, 16) => unfold_rows::<16, 1>(g, src, col),
        (2, 4) => unfold_rows::<4, 2>(g, src, col),
        (2, 8) => unfold_rows::<8, 2>(g, src, col),
        (2, 16) => unfold_rows::<16, 2>(g, src, col),
        (s, w) => {
            let (ld, cols) = (s * (g.w + 2 * g.pad), g.col_cols());
            for_each_tap(g, |r, first| {
                for (oy, d) in col[r * cols..(r + 1) * cols]
                    .chunks_exact_mut(w)
                    .enumerate()
                {
                    let taps = src[first + oy * ld..].iter().step_by(s);
                    d.iter_mut().zip(taps).for_each(|(d, &v)| *d = v);
                }
            });
        }
    }
}

/// Adds every column row back into `dst`, a stack of planes laid out as
/// [`unfold`] reads them.
fn fold(g: &ConvGeom, col: &[f32], dst: &mut [f32]) {
    match (g.stride, g.out_w()) {
        (1, 4) => fold_rows::<4, 1>(g, col, dst),
        (1, 8) => fold_rows::<8, 1>(g, col, dst),
        (1, 16) => fold_rows::<16, 1>(g, col, dst),
        (2, 4) => fold_rows::<4, 2>(g, col, dst),
        (2, 8) => fold_rows::<8, 2>(g, col, dst),
        (2, 16) => fold_rows::<16, 2>(g, col, dst),
        (s, w) => {
            let (ld, cols) = (s * (g.w + 2 * g.pad), g.col_cols());
            for_each_tap(g, |r, first| {
                for (oy, v) in col[r * cols..(r + 1) * cols].chunks_exact(w).enumerate() {
                    let taps = dst[first + oy * ld..].iter_mut().step_by(s);
                    taps.zip(v).for_each(|(d, &v)| *d += v);
                }
            });
        }
    }
}

/// [`unfold`] for `out_w == W` at stride `S`: every output row of every
/// column row is one fixed-size move (or gather) with one bounds check.
fn unfold_rows<const W: usize, const S: usize>(g: &ConvGeom, src: &[f32], col: &mut [f32]) {
    let (ld, cols) = (S * (g.w + 2 * g.pad), g.col_cols());
    for_each_tap(g, |r, first| {
        for (oy, d) in col[r * cols..(r + 1) * cols]
            .chunks_exact_mut(W)
            .enumerate()
        {
            let d: &mut [f32; W] = d.try_into().expect("chunks are W wide");
            let s = &src[first + oy * ld..][..(W - 1) * S + 1];
            for (x, v) in d.iter_mut().enumerate() {
                *v = s[x * S];
            }
        }
    });
}

/// The adjoint of [`unfold_rows`]: every output row is added back onto
/// the taps it was gathered from, with fixed-size adds.
fn fold_rows<const W: usize, const S: usize>(g: &ConvGeom, col: &[f32], dst: &mut [f32]) {
    let (ld, cols) = (S * (g.w + 2 * g.pad), g.col_cols());
    for_each_tap(g, |r, first| {
        for (oy, v) in col[r * cols..(r + 1) * cols].chunks_exact(W).enumerate() {
            let v: &[f32; W] = v.try_into().expect("chunks are W wide");
            let d = &mut dst[first + oy * ld..][..(W - 1) * S + 1];
            for (x, &v) in v.iter().enumerate() {
                d[x * S] += v;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// The per-tap lowering the padded plane replaced: every tap read
    /// through bounds checks, padding taps written as zero.
    fn im2col_oracle(geom: &ConvGeom, image: &[f32], col: &mut [f32]) {
        let (out_h, out_w) = (geom.out_h(), geom.out_w());
        let cols = out_h * out_w;
        let mut row = 0usize;
        for c in 0..geom.c_in {
            let plane = &image[c * geom.h * geom.w..(c + 1) * geom.h * geom.w];
            for ky in 0..geom.kh {
                for kx in 0..geom.kw {
                    let out_row = &mut col[row * cols..(row + 1) * cols];
                    let mut idx = 0usize;
                    for oy in 0..out_h {
                        let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                        for ox in 0..out_w {
                            let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                            out_row[idx] = if iy >= 0
                                && (iy as usize) < geom.h
                                && ix >= 0
                                && (ix as usize) < geom.w
                            {
                                plane[iy as usize * geom.w + ix as usize]
                            } else {
                                0.0
                            };
                            idx += 1;
                        }
                    }
                    row += 1;
                }
            }
        }
    }

    /// The per-tap adjoint: each in-bounds tap added onto the image in
    /// `(c, ky, kx, oy, ox)` order, padding taps skipped.
    fn col2im_oracle(geom: &ConvGeom, col: &[f32], image: &mut [f32]) {
        let (out_h, out_w) = (geom.out_h(), geom.out_w());
        let cols = out_h * out_w;
        let mut row = 0usize;
        for c in 0..geom.c_in {
            let plane = &mut image[c * geom.h * geom.w..(c + 1) * geom.h * geom.w];
            for ky in 0..geom.kh {
                for kx in 0..geom.kw {
                    let col_row = &col[row * cols..(row + 1) * cols];
                    let mut idx = 0usize;
                    for oy in 0..out_h {
                        let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                        for ox in 0..out_w {
                            let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                            if iy >= 0
                                && (iy as usize) < geom.h
                                && ix >= 0
                                && (ix as usize) < geom.w
                            {
                                plane[iy as usize * geom.w + ix as usize] += col_row[idx];
                            }
                            idx += 1;
                        }
                    }
                    row += 1;
                }
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The padded-plane lowering equals the per-tap oracles bit for bit
    /// over random geometries (`h != w`, stride 1–3, pad 0–2, kernel 1–4),
    /// covering the fixed-width rows and the generic fallback. `im2col`
    /// writes into a NaN-filled column buffer, so an element left
    /// unwritten fails; the workspace holds NaN-filled buffers, so a
    /// padding zero read from a stale plane fails too. `col2im`
    /// accumulates onto a random image, so the order of each element's
    /// additions is checked as well.
    #[test]
    fn lowering_matches_the_per_tap_oracles_bit_for_bit() {
        let mut rng = Rng::new(36);
        let mut ws = Workspace::new();
        let mut widths = std::collections::BTreeSet::new();
        for trial in 0..600 {
            let kernel = 1 + rng.below(4);
            let g = ConvGeom {
                c_in: 1 + rng.below(5),
                h: 1 + rng.below(17),
                w: 1 + rng.below(17),
                kh: kernel,
                kw: kernel,
                stride: 1 + rng.below(3),
                pad: rng.below(3),
            };
            if g.h == g.w || g.h + 2 * g.pad < kernel || g.w + 2 * g.pad < kernel {
                continue;
            }
            widths.insert(g.out_w());
            for _ in 0..2 {
                ws.give(vec![f32::NAN; g.plane_len().max(1)]);
            }
            let image: Vec<f32> = (0..g.image_len()).map(|_| rng.normal()).collect();
            let mut want = vec![f32::NAN; g.col_len()];
            im2col_oracle(&g, &image, &mut want);
            let mut got = vec![f32::NAN; g.col_len()];
            im2col_ws(&g, &image, &mut got, &mut ws);
            assert_eq!(bits(&want), bits(&got), "im2col trial {trial}: {g:?}");

            let col: Vec<f32> = (0..g.col_len()).map(|_| rng.normal()).collect();
            let start: Vec<f32> = (0..g.image_len()).map(|_| rng.normal()).collect();
            let mut want = start.clone();
            col2im_oracle(&g, &col, &mut want);
            let mut got = start.clone();
            col2im_ws(&g, &col, &mut got, &mut ws);
            assert_eq!(bits(&want), bits(&got), "col2im trial {trial}: {g:?}");
        }
        for w in [1, 3, 4, 8, 16] {
            assert!(widths.contains(&w), "out_w {w} never drawn: {widths:?}");
        }
    }

    fn geom_3x3() -> ConvGeom {
        ConvGeom {
            c_in: 1,
            h: 3,
            w: 3,
            kh: 2,
            kw: 2,
            stride: 1,
            pad: 0,
        }
    }

    #[test]
    fn conv_out_matches_formula() {
        assert_eq!(conv_out(32, 3, 1, 1), 32); // "same" conv
        assert_eq!(conv_out(32, 3, 2, 1), 16);
        assert_eq!(conv_out(28, 5, 1, 0), 24); // LeNet C1
        assert_eq!(conv_out(4, 4, 1, 0), 1);
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn conv_out_rejects_oversized_kernel() {
        conv_out(2, 5, 1, 0);
    }

    #[test]
    fn im2col_hand_example() {
        // 3x3 image 1..9, 2x2 kernel, stride 1 -> 2x2 output, 4 rows.
        let g = geom_3x3();
        let image: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        let mut col = vec![0.0; g.col_len()];
        im2col(&g, &image, &mut col);
        // row 0 = top-left tap of each window: [1 2 4 5]
        assert_eq!(&col[0..4], &[1.0, 2.0, 4.0, 5.0]);
        // row 3 = bottom-right tap: [5 6 8 9]
        assert_eq!(&col[12..16], &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn padding_contributes_zeros() {
        let g = ConvGeom {
            c_in: 1,
            h: 2,
            w: 2,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let image = [1.0, 2.0, 3.0, 4.0];
        let mut col = vec![0.0; g.col_len()];
        im2col(&g, &image, &mut col);
        // First row is the (ky=0,kx=0) tap; for output (0,0) this reads the
        // padded position (-1,-1) which must be zero.
        assert_eq!(col[0], 0.0);
        // Centre tap (ky=1,kx=1) of output (0,0) reads image (0,0) = 1.
        let cols = g.col_cols();
        assert_eq!(col[4 * cols], 1.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining
        // property of the adjoint, checked on a small dense case.
        let g = ConvGeom {
            c_in: 2,
            h: 4,
            w: 3,
            kh: 2,
            kw: 2,
            stride: 1,
            pad: 1,
        };
        let mut rng = crate::rng::Rng::new(5);
        let x: Vec<f32> = (0..g.image_len()).map(|_| rng.normal()).collect();
        let y: Vec<f32> = (0..g.col_len()).map(|_| rng.normal()).collect();
        let mut fx = vec![0.0; g.col_len()];
        im2col(&g, &x, &mut fx);
        let mut aty = vec![0.0; g.image_len()];
        col2im(&g, &y, &mut aty);
        let lhs: f32 = fx.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn col2im_im2col_round_trip_with_stride_and_pad() {
        // col2im(im2col(x)) multiplies each input pixel by the number of
        // sliding windows that read it; that multiplicity is exactly
        // col2im(im2col(ones)). Checked with stride > 1 and pad > 0 so
        // both uneven overlap and padding-dropped taps are exercised.
        let mut rng = crate::rng::Rng::new(17);
        for &(h, w, kh, kw, stride, pad) in
            &[(5, 7, 3, 3, 2, 1), (6, 6, 3, 2, 2, 2), (4, 5, 2, 2, 3, 1)]
        {
            let g = ConvGeom {
                c_in: 2,
                h,
                w,
                kh,
                kw,
                stride,
                pad,
            };
            let x: Vec<f32> = (0..g.image_len()).map(|_| rng.normal()).collect();
            let mut col = vec![0.0; g.col_len()];
            im2col(&g, &x, &mut col);
            let mut back = vec![0.0; g.image_len()];
            col2im(&g, &col, &mut back);

            let ones = vec![1.0; g.image_len()];
            let mut ones_col = vec![0.0; g.col_len()];
            im2col(&g, &ones, &mut ones_col);
            let mut multiplicity = vec![0.0; g.image_len()];
            col2im(&g, &ones_col, &mut multiplicity);

            for i in 0..g.image_len() {
                let want = x[i] * multiplicity[i];
                assert!(
                    (back[i] - want).abs() <= 1e-4 * want.abs().max(1.0),
                    "geom {g:?} elem {i}: {} vs {want} (multiplicity {})",
                    back[i],
                    multiplicity[i]
                );
            }
        }
    }

    #[test]
    fn multi_channel_rows_are_grouped_by_channel() {
        let g = ConvGeom {
            c_in: 2,
            h: 2,
            w: 2,
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
        };
        let image = [1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0];
        let mut col = vec![0.0; g.col_len()];
        im2col(&g, &image, &mut col);
        assert_eq!(&col[0..4], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(&col[4..8], &[10.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    fn strided_geometry() {
        let g = ConvGeom {
            c_in: 1,
            h: 4,
            w: 4,
            kh: 2,
            kw: 2,
            stride: 2,
            pad: 0,
        };
        assert_eq!(g.out_h(), 2);
        assert_eq!(g.out_w(), 2);
        let image: Vec<f32> = (0..16).map(|v| v as f32).collect();
        let mut col = vec![0.0; g.col_len()];
        im2col(&g, &image, &mut col);
        // Top-left taps of the 4 windows: 0, 2, 8, 10.
        assert_eq!(&col[0..4], &[0.0, 2.0, 8.0, 10.0]);
    }
}
