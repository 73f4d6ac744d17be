//! Free functions on `&[f64]` vectors.
//!
//! The subspace method spends most of its time on vector-level operations —
//! projecting the per-timebin traffic state vector `x` onto the normal and
//! anomalous subspaces and computing squared norms. These helpers keep that
//! code allocation-free and obvious.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices differ in length (programming error, not data error).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch {} vs {}", a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean norm `||v||^2`.
///
/// This is the paper's detection statistic applied to the residual vector:
/// the squared prediction error is `||x~||^2`.
#[inline]
pub fn norm_sq(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum()
}

/// Euclidean norm `||v||`.
#[inline]
pub fn norm(v: &[f64]) -> f64 {
    norm_sq(v).sqrt()
}

/// Four-lane unrolled dot product: the f64x4-style kernel behind the
/// tridiagonal eigensolver's `symv` and panel reductions.
///
/// Elements are split round-robin over four independent accumulators
/// (`k`, `k+1`, `k+2`, `k+3` per step) that are combined as
/// `(a0 + a1) + (a2 + a3)` before the tail is added in ascending order.
/// The summation order is **fixed by the slice length alone** — never by
/// the thread count — so every caller gets bit-identical results; it is
/// *not* the same order as [`dot`], so the two are not interchangeable
/// mid-algorithm.
///
/// # Panics
///
/// Panics if the slices differ in length (programming error, not data error).
#[inline]
pub fn dot4(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot4: length mismatch {} vs {}", a.len(), b.len());
    let mut acc0 = 0.0;
    let mut acc1 = 0.0;
    let mut acc2 = 0.0;
    let mut acc3 = 0.0;
    let mut quads_a = a.chunks_exact(4);
    let mut quads_b = b.chunks_exact(4);
    for (qa, qb) in (&mut quads_a).zip(&mut quads_b) {
        acc0 += qa[0] * qb[0];
        acc1 += qa[1] * qb[1];
        acc2 += qa[2] * qb[2];
        acc3 += qa[3] * qb[3];
    }
    let mut acc = (acc0 + acc1) + (acc2 + acc3);
    for (x, y) in quads_a.remainder().iter().zip(quads_b.remainder()) {
        acc += x * y;
    }
    acc
}

/// Fused two-term update `out += alpha * x + beta * y` in a single pass.
///
/// The rank-2 panel updates of the blocked Householder tridiagonalization
/// subtract a `v`-scaled and a `w`-scaled column together; fusing the two
/// axpys halves the traffic over `out`. Each element is updated as
/// `out[i] + alpha * x[i] + beta * y[i]` (left to right), independent of
/// everything else, so results are bit-identical for every thread count.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn axpy2(alpha: f64, x: &[f64], beta: f64, y: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), out.len(), "axpy2: length mismatch {} vs {}", x.len(), out.len());
    assert_eq!(y.len(), out.len(), "axpy2: length mismatch {} vs {}", y.len(), out.len());
    for ((o, xi), yi) in out.iter_mut().zip(x).zip(y) {
        *o += alpha * xi + beta * yi;
    }
}

/// `y += alpha * x`, element-wise.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch {} vs {}", x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Multiply every element by `s`, in place.
#[inline]
pub fn scale(v: &mut [f64], s: f64) {
    for x in v {
        *x *= s;
    }
}

/// Element-wise sum `a + b` as a new vector.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add: length mismatch {} vs {}", a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_known() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norms() {
        assert_eq!(norm_sq(&[3.0, 4.0]), 25.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
        assert_eq!(norm(&[]), 0.0);
    }

    #[test]
    fn dot4_matches_dot_value() {
        for len in [0usize, 1, 3, 4, 5, 7, 8, 17, 64, 101] {
            let a: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin() + 1.0).collect();
            let b: Vec<f64> = (0..len).map(|i| (i as f64 * 0.11).cos() - 0.5).collect();
            let plain = dot(&a, &b);
            let unrolled = dot4(&a, &b);
            assert!(
                (plain - unrolled).abs() <= 1e-12 * (1.0 + plain.abs()),
                "len {len}: {plain} vs {unrolled}"
            );
        }
    }

    #[test]
    fn dot4_is_deterministic_for_fixed_input() {
        // Same input, same bits — the unroll order is a function of the
        // length only, so repeated calls cannot drift.
        let a: Vec<f64> = (0..37).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let b: Vec<f64> = (0..37).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let first = dot4(&a, &b);
        for _ in 0..4 {
            assert_eq!(dot4(&a, &b).to_bits(), first.to_bits());
        }
    }

    #[test]
    fn axpy2_matches_two_axpys_bitwise() {
        // alpha*x and beta*y contribute via one fused expression; against
        // sequential axpys the *values* agree to rounding, and the fused
        // form itself is reproducible bit-for-bit.
        let x: Vec<f64> = (0..33).map(|i| (i as f64).sqrt()).collect();
        let y: Vec<f64> = (0..33).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut out = vec![1.0; 33];
        axpy2(2.5, &x, -0.75, &y, &mut out);
        let mut reference = vec![1.0; 33];
        for ((r, xi), yi) in reference.iter_mut().zip(&x).zip(&y) {
            *r += 2.5 * xi - 0.75 * yi;
        }
        assert_eq!(out, reference);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy2_length_mismatch_panics() {
        axpy2(1.0, &[1.0], 1.0, &[1.0, 2.0], &mut [0.0, 0.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = vec![1.0, 2.0];
        let b = vec![0.5, -0.5];
        let minus_b: Vec<f64> = b.iter().map(|y| -y).collect();
        assert_eq!(add(&add(&a, &b), &minus_b), a);
    }

    #[test]
    fn mean_known() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn scale_in_place() {
        let mut v = vec![1.0, -2.0];
        scale(&mut v, -3.0);
        assert_eq!(v, vec![-3.0, 6.0]);
    }
}
