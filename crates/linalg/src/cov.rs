//! Covariance and scatter matrices of data matrices.
//!
//! PCA in the subspace method diagonalizes `X^T X` (the scatter matrix of the
//! centered OD-flow timeseries). We expose both the raw scatter matrix and
//! the unbiased sample covariance.

use crate::center::center_columns;
use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// Scatter matrix `X^T X` (no centering, no normalization).
///
/// For an already-centered `X` this is `(n-1)` times the sample covariance.
pub fn scatter(x: &Matrix) -> Result<Matrix> {
    if x.nrows() == 0 {
        return Err(LinalgError::Empty { op: "scatter" });
    }
    gram_txx(x)
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
    let c = center_columns(x)?;
    let mut s = gram_txx(&c)?;
    s.scale_mut(1.0 / (x.nrows() as f64 - 1.0));
    Ok(s)
}

/// Rows per parallel block in [`gram_txx`]. Fixed (never derived from the
/// thread count) so the block-ordered reduction is deterministic for any
/// pool size.
const GRAM_ROW_BLOCK: usize = 128;

/// Computes `X^T X` exploiting symmetry — a `syrk`-style rank-n update.
///
/// Each row block accumulates `S += r^T r` into a packed upper-triangle
/// buffer with contiguous slice arithmetic (no per-element `Index` calls in
/// the inner loop); blocks run in parallel on the persistent pool and
/// partial triangles are summed in block order, so the result is identical
/// for every thread count.
///
/// Within a block, rows are folded **four at a time**: one pass over the
/// packed triangle applies `r₀ᵀr₀ + r₁ᵀr₁ + r₂ᵀr₂ + r₃ᵀr₃`, quartering the
/// triangle's load/store traffic — the dominant cost once `p(p+1)/2`
/// doubles outgrow L2 (p = 512 is a 1 MB triangle). The four updates to
/// each element are sequenced in ascending row order, exactly as the
/// one-row-at-a-time loop would, so the unroll never changes a bit.
fn gram_txx(x: &Matrix) -> Result<Matrix> {
    let (n, p) = x.shape();
    if p == 0 {
        return Ok(Matrix::zeros(0, 0));
    }
    let tri_len = p * (p + 1) / 2;
    let data = x.as_slice();
    let upper = odflow_par::map_reduce(
        n,
        GRAM_ROW_BLOCK,
        |rows| {
            let mut buf = vec![0.0f64; tri_len];
            let mut i = rows.start;
            while i + 4 <= rows.end {
                let r0 = &data[i * p..(i + 1) * p];
                let r1 = &data[(i + 1) * p..(i + 2) * p];
                let r2 = &data[(i + 2) * p..(i + 3) * p];
                let r3 = &data[(i + 3) * p..(i + 4) * p];
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
                i += 4;
            }
            // Row remainder (block length not a multiple of 4): one row at
            // a time, same ascending order.
            while i < rows.end {
                let row = &data[i * p..(i + 1) * p];
                let mut base = 0;
                for a in 0..p {
                    let ra = row[a];
                    let dst = &mut buf[base..base + p - a];
                    for (d, &rb) in dst.iter_mut().zip(&row[a..]) {
                        *d += ra * rb;
                    }
                    base += p - a;
                }
                i += 1;
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
    Ok(s)
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
