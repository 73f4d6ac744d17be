//! Covariance and scatter matrices of data matrices.
//!
//! PCA in the subspace method diagonalizes `X^T X` (the scatter matrix of the
//! centered OD-flow timeseries). We expose both the raw scatter matrix and
//! the unbiased sample covariance, both through the dense fit's Gram kernel.

use crate::center::column_means;
use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// Scatter matrix `X^T X` (no centering, no normalization).
///
/// For an already-centered `X` this is `(n-1)` times the sample covariance.
pub fn scatter(x: &Matrix) -> Result<Matrix> {
    if x.nrows() == 0 {
        return Err(LinalgError::Empty { op: "scatter" });
    }
    Ok(gram_txx(x, &vec![0.0; x.ncols()]))
}

/// Unbiased sample covariance matrix of the columns of `x`
/// (centers internally; divides by `n - 1`).
///
/// # Errors
///
/// [`LinalgError::Empty`] when `x` has fewer than 2 rows — a single
/// observation has no covariance.
pub fn covariance(x: &Matrix) -> Result<Matrix> {
    if x.nrows() < 2 {
        return Err(LinalgError::Empty { op: "covariance" });
    }
    let mut s = gram_txx(x, &column_means(x));
    s.scale_mut(1.0 / (x.nrows() as f64 - 1.0));
    Ok(s)
}

/// Rows per parallel block in [`gram_txx`]. Fixed (never derived from the
/// thread count) so the block-ordered reduction is deterministic for any
/// pool size.
const GRAM_ROW_BLOCK: usize = 128;

/// Computes `(X − 1μᵀ)ᵀ(X − 1μᵀ)` (μ = `means`; zeros give `XᵀX`) with
/// a `syrk`-style rank-n update into a packed upper triangle. Row blocks
/// run on the pool and their partial triangles are summed in block order
/// as they finish: identical for every thread count, about one triangle
/// per thread alive. Rows are folded **four at a time** (a quarter of the
/// triangle's load/store traffic), each group centered into a `4 x p`
/// scratch as it is loaded (`x − μ`, the double a centered copy holds),
/// so nothing `n x p` is allocated. Each element's four updates run in
/// ascending row order, as a one-row loop over a centered copy's would,
/// and a block's last group is padded with zero rows, which add `+0.0` to
/// sums that began at `+0.0` (so are never `-0.0`): no bit changes.
pub(crate) fn gram_txx(x: &Matrix, means: &[f64]) -> Matrix {
    let (n, p) = x.shape();
    if p == 0 {
        return Matrix::zeros(0, 0);
    }
    let tri_len = p * (p + 1) / 2;
    let data = x.as_slice();
    let upper = odflow_par::map_reduce(
        n,
        GRAM_ROW_BLOCK,
        |rows| {
            let mut buf = vec![0.0f64; tri_len];
            let mut quad = vec![0.0f64; 4 * p];
            for group in data[rows.start * p..rows.end * p].chunks(4 * p) {
                let (live, pad) = quad.split_at_mut(group.len());
                for (row, out) in group.chunks_exact(p).zip(live.chunks_exact_mut(p)) {
                    for (d, (&v, &mu)) in out.iter_mut().zip(row.iter().zip(means)) {
                        *d = v - mu;
                    }
                }
                pad.fill(0.0);
                let (r01, r23) = quad.split_at(2 * p);
                let ((r0, r1), (r2, r3)) = (r01.split_at(p), r23.split_at(p));
                let mut base = 0;
                for a in 0..p {
                    let (ra0, ra1, ra2, ra3) = (r0[a], r1[a], r2[a], r3[a]);
                    let dst = &mut buf[base..base + p - a];
                    let cols = r0[a..].iter().zip(&r1[a..]).zip(&r2[a..]).zip(&r3[a..]);
                    for (d, (((&b0, &b1), &b2), &b3)) in dst.iter_mut().zip(cols) {
                        let mut acc = *d;
                        acc += ra0 * b0;
                        acc += ra1 * b1;
                        acc += ra2 * b2;
                        acc += ra3 * b3;
                        *d = acc;
                    }
                    base += p - a;
                }
            }
            buf
        },
        |mut acc, block| {
            for (a, b) in acc.iter_mut().zip(&block) {
                *a += b;
            }
            acc
        },
    )
    .unwrap_or_else(|| vec![0.0; tri_len]);

    // Unpack the triangle and mirror it.
    let mut s = Matrix::zeros(p, p);
    let out = s.as_mut_slice();
    let mut base = 0;
    for a in 0..p {
        for (off, v) in upper[base..base + p - a].iter().enumerate() {
            let b = a + off;
            out[a * p + b] = *v;
            out[b * p + a] = *v;
        }
        base += p - a;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_matches_naive() {
        let x = Matrix::from_fn(5, 3, |i, j| (i as f64 + 1.0) * (j as f64 - 1.0) + 0.5);
        let s = scatter(&x).unwrap();
        let naive = x.transpose().matmul(&x).unwrap();
        assert!(s.approx_eq(&naive, 1e-10));
    }

    #[test]
    fn gram_row_quad_matches_single_row_bitwise() {
        // The 4-row unroll must reproduce the one-row-at-a-time packed
        // triangle bit for bit, across row counts hitting every quad
        // remainder (0..3) and across thread limits. Row counts stay
        // within one 128-row block: across blocks the (unchanged)
        // block-order reduction associates sums differently from a flat
        // sequential reference, which is covered by the thread-invariance
        // tests instead.
        for &n in &[1usize, 2, 3, 4, 5, 7, 9, 16, 127, 128] {
            let p = 6;
            let x = Matrix::from_fn(n, p, |i, j| ((i * 31 + j * 17) % 103) as f64 / 103.0 - 0.47);
            // Reference: ascending-row accumulation into the same packed
            // upper triangle, one row at a time (the pre-unroll kernel).
            let tri_len = p * (p + 1) / 2;
            let mut buf = vec![0.0f64; tri_len];
            for i in 0..n {
                let row = &x.as_slice()[i * p..(i + 1) * p];
                let mut base = 0;
                for a in 0..p {
                    for (off, &rb) in row[a..].iter().enumerate() {
                        buf[base + off] += row[a] * rb;
                    }
                    base += p - a;
                }
            }
            let mut reference = Matrix::zeros(p, p);
            let mut base = 0;
            for a in 0..p {
                for (off, &v) in buf[base..base + p - a].iter().enumerate() {
                    reference[(a, a + off)] = v;
                    reference[(a + off, a)] = v;
                }
                base += p - a;
            }
            for threads in [1usize, 4] {
                let s = odflow_par::with_thread_limit(threads, || scatter(&x).unwrap());
                assert_eq!(s.as_slice(), reference.as_slice(), "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn centering_at_load_matches_a_centered_copy_bitwise() {
        // Shapes with remainders past multiples of 4 and of GRAM_ROW_BLOCK,
        // the paper's week among them; means far from zero so every
        // centered double differs from its input.
        for &(n, p) in &[(2016usize, 121usize), (130, 7), (5, 3)] {
            let x = Matrix::from_fn(n, p, |i, j| {
                1e4 * (j as f64 + 1.0) + ((i * 37 + j * 11) % 97) as f64 / 7.0
            });
            let centered = crate::center::centered_copy(&x);
            let want = scatter(&centered).unwrap();
            let means = column_means(&x);
            for threads in [1usize, 2, 4] {
                let got = odflow_par::with_thread_limit(threads, || gram_txx(&x, &means));
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{n} x {p}, threads={threads}");
            }
            let cov = covariance(&x).unwrap();
            let mut scaled = want.clone();
            scaled.scale_mut(1.0 / (n as f64 - 1.0));
            assert_eq!(cov.as_slice(), scaled.as_slice(), "covariance, {n} x {p}");
        }
    }

    #[test]
    fn covariance_known_2d() {
        // Two perfectly correlated columns.
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]).unwrap();
        let c = covariance(&x).unwrap();
        assert!((c[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((c[(1, 1)] - 4.0).abs() < 1e-12);
        assert!((c[(0, 1)] - 2.0).abs() < 1e-12);
        assert!((c[(0, 1)] - c[(1, 0)]).abs() < 1e-15);
    }

    #[test]
    fn covariance_is_symmetric_psd_diag() {
        let x = Matrix::from_fn(20, 4, |i, j| ((i * 13 + j * 7) % 17) as f64);
        let c = covariance(&x).unwrap();
        assert!(c.is_symmetric(1e-12));
        for j in 0..4 {
            assert!(c[(j, j)] >= 0.0);
        }
    }

    #[test]
    fn too_few_rows_rejected() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert!(covariance(&x).is_err());
        assert!(scatter(&Matrix::zeros(0, 2)).is_err());
    }
}
