//! Thin singular value decomposition via the Gram-matrix eigenproblem.
//!
//! The OD-flow matrix `X` is tall and skinny (`n ≈ 2016` five-minute bins in
//! a week, `p = 121` OD pairs), so the thin SVD `X = U Σ V^T` is cheapest via
//! the `p x p` eigenproblem of `X^T X`: the right singular vectors are its
//! eigenvectors and `σ_i = sqrt(λ_i)`. This matches exactly how the paper
//! computes **eigenflows**: the normalized columns of `X V` (the left
//! singular vectors `u_i`) are the common temporal patterns, ordered by
//! captured variance.

use crate::eigen::eigen_symmetric;
use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::vecops;

/// Thin SVD `X = U Σ V^T` of an `n x p` matrix with `n >= p` typically.
#[derive(Debug, Clone)]
pub struct Svd {
    /// `n x r` matrix of left singular vectors (columns), `r = rank kept`.
    /// For traffic matrices these are the paper's *eigenflows*.
    pub u: Matrix,
    /// Singular values, descending, length `r`.
    pub sigma: Vec<f64>,
    /// `p x r` matrix of right singular vectors (columns). Row `j` describes
    /// how OD pair `j` loads onto each eigenflow. A [`crate::truncated_svd`]
    /// result may hold only the leading columns — the axes its `rank` asked
    /// for — and so be narrower than `sigma`.
    pub v: Matrix,
}

impl Svd {
    /// Number of singular triplets retained.
    pub fn rank(&self) -> usize {
        self.sigma.len()
    }

    /// Reconstructs the original matrix from the retained triplets:
    /// `U Σ V^T`. Exact (to rounding) when no truncation occurred.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `v` is narrower than `sigma` (a
    /// [`crate::truncated_svd`] asked for fewer axes than it kept triplets).
    pub fn reconstruct(&self) -> Result<Matrix> {
        let us = scale_cols(&self.u, &self.sigma);
        us.matmul(&self.v.transpose())
    }

    /// Reconstructs using only the top `k` triplets (rank-`k` approximation).
    pub fn reconstruct_rank(&self, k: usize) -> Result<Matrix> {
        let k = k.min(self.rank());
        let idx: Vec<usize> = (0..k).collect();
        let uk = self.u.select_cols(&idx)?;
        let vk = self.v.select_cols(&idx)?;
        let us = scale_cols(&uk, &self.sigma[..k]);
        us.matmul(&vk.transpose())
    }
}

/// Multiplies column `j` of `m` by `s[j]`.
fn scale_cols(m: &Matrix, s: &[f64]) -> Matrix {
    let mut out = m.clone();
    for i in 0..out.nrows() {
        let row = out.row_mut(i).expect("row within bounds");
        for (v, &sj) in row.iter_mut().zip(s) {
            *v *= sj;
        }
    }
    out
}

/// Computes the thin SVD of `x`, dropping singular values below
/// `rel_cutoff * σ_max` (pass `0.0` to keep all `min(n, p)` triplets).
///
/// The singular values are square roots of the Gram matrix's eigenvalues
/// ([`eigen_symmetric`]), which are exact to about `ε · λ_max`; a singular
/// value below `≈ √ε · σ_max` (`1.5e-8 · σ_max`) is therefore rounding, not
/// data, and a `rel_cutoff` under that floor keeps or drops such triplets
/// by accident. To read a numerical rank off the result, cut at `1e-6` or
/// above.
///
/// The `U = X V Σ⁻¹` column assembly fans out over the [`odflow_par`]
/// pool; each column is extracted, rescaled, and re-normalized by exactly
/// the serial arithmetic, so parallelism is fully transparent — same API,
/// and bit-identical results for every thread count:
///
/// ```
/// use odflow_linalg::{thin_svd, Matrix};
///
/// let x = Matrix::from_fn(48, 12, |i, j| ((i * 7 + j * 13) % 23) as f64 + (i + j) as f64);
/// let parallel = thin_svd(&x, 0.0).unwrap();
/// let serial = odflow_par::with_thread_limit(1, || thin_svd(&x, 0.0).unwrap());
/// assert_eq!(parallel.sigma, serial.sigma);
/// assert_eq!(parallel.u.as_slice(), serial.u.as_slice());
/// assert_eq!(parallel.v.as_slice(), serial.v.as_slice());
/// ```
///
/// # Errors
///
/// * [`LinalgError::Empty`] for matrices with zero rows or columns.
/// * [`LinalgError::NonFinite`] when `x` contains NaN/infinities.
/// * Propagates eigensolver errors (practically unreachable for finite data).
pub fn thin_svd(x: &Matrix, rel_cutoff: f64) -> Result<Svd> {
    if x.nrows() == 0 || x.ncols() == 0 {
        return Err(LinalgError::Empty { op: "thin_svd" });
    }
    if !x.all_finite() {
        return Err(LinalgError::NonFinite { op: "thin_svd" });
    }

    let gram = crate::cov::scatter(x)?; // X^T X, p x p
    let eig = eigen_symmetric(&gram)?;

    let sigma_max = eig.eigenvalues.first().copied().unwrap_or(0.0).max(0.0).sqrt();
    let cutoff = rel_cutoff * sigma_max;

    let mut sigma = Vec::new();
    let mut keep = Vec::new();
    for (i, &l) in eig.eigenvalues.iter().enumerate() {
        let s = l.max(0.0).sqrt();
        // Always keep at least one triplet so rank >= 1 for nonzero input.
        if s > cutoff || (i == 0 && s > 0.0) {
            sigma.push(s);
            keep.push(i);
        }
    }
    if keep.is_empty() {
        // All-zero input: degenerate SVD with a single zero triplet.
        return Ok(Svd {
            u: Matrix::zeros(x.nrows(), 1),
            sigma: vec![0.0],
            v: Matrix::zeros(x.ncols(), 1),
        });
    }

    let v = eig.eigenvectors.select_cols(&keep)?;

    // U = X V Σ^{-1}: extract/rescale/renormalize columns across the
    // persistent pool, one column per task — cheap at pooled dispatch
    // prices even for the small ranks the subspace method keeps. Columns
    // are independent and each runs the exact serial arithmetic, so the
    // assembly is bit-identical for any thread count (the doctest above
    // pins this); writing the columns back happens serially in column
    // order.
    let xv = x.matmul(&v)?;
    let rank = keep.len();
    let mut u = Matrix::zeros(x.nrows(), rank);
    let columns = odflow_par::map_chunks(rank, 1, |task| -> Result<Vec<f64>> {
        let jj = task.start;
        let mut col = xv.col(jj)?;
        let s = sigma[jj];
        if s > 1e-300 {
            vecops::scale(&mut col, 1.0 / s);
        }
        // Guard against drift for tiny singular values.
        vecops::normalize(&mut col);
        Ok(col)
    });
    for (jj, col) in columns.into_iter().enumerate() {
        u.set_col(jj, &col?)?;
    }

    Ok(Svd { u, sigma, v })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_matrix(n: usize, p: usize) -> Matrix {
        Matrix::from_fn(n, p, |i, j| {
            let t = i as f64 / n as f64 * std::f64::consts::TAU;
            (t * (j as f64 + 1.0)).sin() + 0.1 * ((i * 7 + j * 13) % 23) as f64
        })
    }

    #[test]
    fn reconstruction_exact_full_rank() {
        let x = data_matrix(12, 5);
        let svd = thin_svd(&x, 0.0).unwrap();
        let xr = svd.reconstruct().unwrap();
        assert!(xr.approx_eq(&x, 1e-8), "max err {}", xr.sub(&x).unwrap().max_abs());
    }

    #[test]
    fn singular_values_descending_nonnegative() {
        let x = data_matrix(30, 8);
        let svd = thin_svd(&x, 0.0).unwrap();
        for w in svd.sigma.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(svd.sigma.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn u_and_v_orthonormal() {
        let x = data_matrix(25, 6);
        let svd = thin_svd(&x, 1e-10).unwrap();
        let utu = svd.u.transpose().matmul(&svd.u).unwrap();
        let vtv = svd.v.transpose().matmul(&svd.v).unwrap();
        let r = svd.rank();
        assert!(utu.approx_eq(&Matrix::identity(r), 1e-8));
        assert!(vtv.approx_eq(&Matrix::identity(r), 1e-8));
    }

    #[test]
    fn rank1_matrix_detected() {
        // x = a b^T exactly.
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, -1.0, 0.5];
        let x = Matrix::from_fn(4, 3, |i, j| a[i] * b[j]);
        let svd = thin_svd(&x, 1e-9).unwrap();
        assert_eq!(svd.rank(), 1);
        let expected_sigma = vecops::norm(&a) * vecops::norm(&b);
        assert!((svd.sigma[0] - expected_sigma).abs() < 1e-9);
        assert!(svd.reconstruct().unwrap().approx_eq(&x, 1e-9));
    }

    #[test]
    fn low_rank_approx_monotone_error() {
        let x = data_matrix(40, 10);
        let svd = thin_svd(&x, 0.0).unwrap();
        let mut prev_err = f64::INFINITY;
        for k in 1..=svd.rank() {
            let err = svd.reconstruct_rank(k).unwrap().sub(&x).unwrap().frobenius_norm();
            assert!(err <= prev_err + 1e-9, "rank-{k} error {err} > previous {prev_err}");
            prev_err = err;
        }
        assert!(prev_err < 1e-7);
    }

    #[test]
    fn eckart_young_error_matches_tail_sigma() {
        // Frobenius error of rank-k truncation equals sqrt(sum of tail sigma^2).
        let x = data_matrix(20, 6);
        let svd = thin_svd(&x, 0.0).unwrap();
        let k = 3;
        let err = svd.reconstruct_rank(k).unwrap().sub(&x).unwrap().frobenius_norm();
        let tail: f64 = svd.sigma[k..].iter().map(|s| s * s).sum::<f64>().sqrt();
        assert!((err - tail).abs() < 1e-8, "err {err} vs tail {tail}");
    }

    #[test]
    fn u_assembly_thread_invariant() {
        let x = data_matrix(64, 10);
        let serial = odflow_par::with_thread_limit(1, || thin_svd(&x, 0.0).unwrap());
        for &threads in &[2usize, 5, 16, 1000] {
            let par = odflow_par::with_thread_limit(threads, || thin_svd(&x, 0.0).unwrap());
            assert_eq!(par.sigma, serial.sigma, "threads={threads}");
            assert_eq!(par.u.as_slice(), serial.u.as_slice(), "threads={threads}");
            assert_eq!(par.v.as_slice(), serial.v.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn rank_is_recovered_above_the_gram_floor() {
        // Outer products of a few fixed vectors: exact rank 1 and rank 2.
        // The Gram route resolves σ down to ≈ √ε · σ_max, so a cutoff of
        // 1e-6 separates data from rounding; 0.0 asks for everything.
        let (a, b) = ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2.0, -1.0, 0.5, 3.0]);
        let (c, d) = ([1.0, -1.0, 2.0, 0.0, 1.0, -3.0], [0.5, 1.0, -2.0, 1.0]);
        let rank1 = Matrix::from_fn(6, 4, |i, j| a[i] * b[j]);
        let rank2 = Matrix::from_fn(6, 4, |i, j| a[i] * b[j] + c[i] * d[j]);
        assert_eq!(thin_svd(&rank1, 1e-6).unwrap().rank(), 1);
        assert_eq!(thin_svd(&rank2, 1e-6).unwrap().rank(), 2);
        let full = Matrix::from_fn(6, 4, |i, j| rank2[(i, j)] + if i == j { 1.0 } else { 0.0 });
        assert_eq!(thin_svd(&full, 0.0).unwrap().rank(), 4);
    }

    #[test]
    fn zero_matrix_degenerate() {
        let x = Matrix::zeros(5, 3);
        let svd = thin_svd(&x, 0.0).unwrap();
        assert_eq!(svd.rank(), 1);
        assert_eq!(svd.sigma[0], 0.0);
    }

    #[test]
    fn rejects_empty_and_nonfinite() {
        assert!(thin_svd(&Matrix::zeros(0, 3), 0.0).is_err());
        let mut x = Matrix::identity(2);
        x[(1, 1)] = f64::INFINITY;
        assert!(thin_svd(&x, 0.0).is_err());
    }
}
