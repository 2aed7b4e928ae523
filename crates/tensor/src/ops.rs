//! Flat-vector kernels.
//!
//! The synchronisation algorithms of the paper (Eq. 1–3 and Algorithm 1)
//! operate on whole model replicas, which the workspace stores as flat
//! contiguous `f32` vectors. These kernels are the hot path of every
//! training step: `axpy` applies gradients, `scaled_diff` computes the SMA
//! correction `α (w_j − z)`, and the reductions feed metrics and tests.

/// `y[i] += alpha * x[i]` (BLAS `axpy`).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x[i] *= alpha` (BLAS `scal`).
pub fn scal(alpha: f32, x: &mut [f32]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// `out[i] = alpha * (a[i] - b[i])` — the SMA correction kernel
/// `c_j = α (w_j − z)` from Algorithm 1, line 9.
pub fn scaled_diff(alpha: f32, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "scaled_diff length mismatch");
    assert_eq!(a.len(), out.len(), "scaled_diff output length mismatch");
    for ((o, &ai), &bi) in out.iter_mut().zip(a).zip(b) {
        *o = alpha * (ai - bi);
    }
}

/// `y[i] += x[i]`.
pub fn add_assign(y: &mut [f32], x: &[f32]) {
    assert_eq!(x.len(), y.len(), "add_assign length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += xi;
    }
}

/// Squared L2 distance between two vectors.
pub fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dist_sq length mismatch");
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

/// L2 norm.
pub fn norm(a: &[f32]) -> f32 {
    a.iter().map(|&x| x * x).sum::<f32>().sqrt()
}

/// Writes the element-wise mean of several equal-length vectors into `out`.
///
/// Used to compute the central average model from replicas, and as the
/// reference implementation the simulated all-reduce is tested against.
///
/// # Panics
/// Panics if `vectors` is empty or lengths mismatch.
pub fn mean_of(vectors: &[&[f32]], out: &mut [f32]) {
    assert!(!vectors.is_empty(), "mean_of needs at least one vector");
    for v in vectors {
        assert_eq!(v.len(), out.len(), "mean_of length mismatch");
    }
    let scale = 1.0 / vectors.len() as f32;
    out.iter_mut().for_each(|o| *o = 0.0);
    for v in vectors {
        for (o, &x) in out.iter_mut().zip(*v) {
            *o += x;
        }
    }
    scal(scale, out);
}

/// `x[i] = 0` for all `i`, keeping the allocation.
pub fn zero(x: &mut [f32]) {
    x.iter_mut().for_each(|v| *v = 0.0);
}

/// Polyak momentum update used by Eq. (3) and SMA's central-model step:
/// `velocity = momentum * velocity + update; target += velocity`.
pub fn momentum_step(target: &mut [f32], velocity: &mut [f32], update: &[f32], momentum: f32) {
    assert_eq!(
        target.len(),
        velocity.len(),
        "momentum_step length mismatch"
    );
    assert_eq!(target.len(), update.len(), "momentum_step length mismatch");
    for ((t, v), &u) in target.iter_mut().zip(velocity.iter_mut()).zip(update) {
        *v = momentum * *v + u;
        *t += *v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-5, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn axpy_matches_definition() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_close(&y, &[12.0, 24.0, 36.0]);
    }

    #[test]
    fn scal_scales() {
        let mut x = [1.0, -2.0];
        scal(0.5, &mut x);
        assert_close(&x, &[0.5, -1.0]);
    }

    #[test]
    fn scaled_diff_is_sma_correction() {
        let w = [2.0, 4.0];
        let z = [1.0, 1.0];
        let mut c = [0.0; 2];
        scaled_diff(0.5, &w, &z, &mut c);
        assert_close(&c, &[0.5, 1.5]);
    }

    #[test]
    fn add_sub_round_trip() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [5.0, 5.0, 5.0];
        add_assign(&mut y, &x);
        axpy(-1.0, &x, &mut y);
        assert_close(&y, &[5.0, 5.0, 5.0]);
    }

    #[test]
    fn norm_and_dist_sq() {
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
        assert_eq!(dist_sq(&[1.0, 1.0], &[0.0, 3.0]), 5.0);
    }

    #[test]
    fn mean_of_averages() {
        let a = [1.0, 2.0];
        let b = [3.0, 6.0];
        let mut out = [0.0; 2];
        mean_of(&[&a, &b], &mut out);
        assert_close(&out, &[2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "at least one vector")]
    fn mean_of_rejects_empty() {
        let mut out = [0.0; 2];
        mean_of(&[], &mut out);
    }

    #[test]
    fn momentum_step_accumulates_direction() {
        let mut target = [0.0f32];
        let mut velocity = [0.0f32];
        momentum_step(&mut target, &mut velocity, &[1.0], 0.9);
        assert_close(&target, &[1.0]);
        momentum_step(&mut target, &mut velocity, &[1.0], 0.9);
        // velocity = 0.9 * 1 + 1 = 1.9; target = 1 + 1.9 = 2.9
        assert_close(&target, &[2.9]);
    }

    #[test]
    fn zero_clears() {
        let mut x = [1.0, 2.0];
        zero(&mut x);
        assert_close(&x, &[0.0, 0.0]);
    }
}
