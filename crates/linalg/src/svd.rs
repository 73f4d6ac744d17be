//! Thin singular value decomposition via the Gram-matrix eigenproblem.
//!
//! The OD-flow matrix `X` is tall and skinny (`n ≈ 2016` five-minute bins in
//! a week, `p = 121` OD pairs), so the thin SVD `X = U Σ V^T` is cheapest via
//! the `p x p` eigenproblem of `X^T X`: the right singular vectors are its
//! eigenvectors and `σ_i = sqrt(λ_i)`. The subspace method reads the
//! spectrum and the right singular vectors only — the principal axes of
//! the OD space, and the variance each captures — so that is all an
//! [`Svd`] holds. The paper's **eigenflows**, the left singular vectors
//! `u_i = X v_i / σ_i`, are the common temporal patterns that explain why
//! a low-dimensional normal subspace exists; no detector reads them, and a
//! caller that wants one forms it from `X` and the triplet.

use crate::eigen::eigen_symmetric;
use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// The spectrum and right singular vectors of a thin SVD `X = U Σ Vᵀ` of
/// an `n x p` matrix.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Singular values, descending, length `r`.
    pub sigma: Vec<f64>,
    /// `p x r` matrix of right singular vectors (columns). Row `j` describes
    /// how OD pair `j` loads onto each principal axis. A
    /// [`crate::truncated_svd`] result may hold only the leading columns —
    /// the axes its `rank` asked for — and so be narrower than `sigma`.
    pub v: Matrix,
}

impl Svd {
    /// Number of singular triplets retained.
    pub fn rank(&self) -> usize {
        self.sigma.len()
    }
}

/// Computes the singular values and right singular vectors of `x`,
/// dropping singular values below `rel_cutoff * σ_max` (pass `0.0` to keep
/// all `min(n, p)` triplets).
///
/// The singular values are square roots of the Gram matrix's eigenvalues
/// ([`eigen_symmetric`]), which are exact to about `ε · λ_max`; a singular
/// value below `≈ √ε · σ_max` (`1.5e-8 · σ_max`) is therefore rounding, not
/// data, and a `rel_cutoff` under that floor keeps or drops such triplets
/// by accident. To read a numerical rank off the result, cut at `1e-6` or
/// above.
///
/// The Gram product and the eigensolver fan out over the [`odflow_par`]
/// pool with fixed blocking, so parallelism is fully transparent — same
/// API, and bit-identical results for every thread count:
///
/// ```
/// use odflow_linalg::{thin_svd, Matrix};
///
/// let x = Matrix::from_fn(48, 12, |i, j| ((i * 7 + j * 13) % 23) as f64 + (i + j) as f64);
/// let parallel = thin_svd(&x, 0.0).unwrap();
/// let serial = odflow_par::with_thread_limit(1, || thin_svd(&x, 0.0).unwrap());
/// assert_eq!(parallel.sigma, serial.sigma);
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
        return Ok(Svd { sigma: vec![0.0], v: Matrix::zeros(x.ncols(), 1) });
    }

    let v = eig.eigenvectors.select_cols(&keep)?;
    Ok(Svd { sigma, v })
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

    /// `‖X − X V_k V_kᵀ‖_F`: what the top `k` axes leave of `x`.
    fn rank_k_error(x: &Matrix, svd: &Svd, k: usize) -> f64 {
        let vk = svd.v.select_cols(&(0..k).collect::<Vec<_>>()).unwrap();
        let projected = x.matmul(&vk).unwrap().matmul(&vk.transpose()).unwrap();
        x.sub(&projected).unwrap().frobenius_norm()
    }

    #[test]
    fn reconstruction_exact_full_rank() {
        // Every axis kept: `X V Vᵀ` is `X`, and `VᵀXᵀXV` is `diag(σ²)`.
        let x = data_matrix(12, 5);
        let svd = thin_svd(&x, 0.0).unwrap();
        assert_eq!(svd.rank(), 5);
        let err = rank_k_error(&x, &svd, 5);
        assert!(err < 1e-8, "max err {err}");
        let xv = x.matmul(&svd.v).unwrap();
        let sq: Vec<f64> = svd.sigma.iter().map(|s| s * s).collect();
        let scale = 1.0 + sq[0];
        assert!(xv
            .transpose()
            .matmul(&xv)
            .unwrap()
            .approx_eq(&Matrix::from_diag(&sq), 1e-10 * scale));
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
        // `V` is orthonormal, and so is `U = X V Σ⁻¹`: `VᵀXᵀXV = diag(σ²)`.
        let x = data_matrix(25, 6);
        let svd = thin_svd(&x, 1e-10).unwrap();
        let r = svd.rank();
        let vtv = svd.v.transpose().matmul(&svd.v).unwrap();
        assert!(vtv.approx_eq(&Matrix::identity(r), 1e-8));
        let xv = x.matmul(&svd.v).unwrap();
        let u = Matrix::from_fn(x.nrows(), r, |i, j| xv[(i, j)] / svd.sigma[j]);
        assert!(u.transpose().matmul(&u).unwrap().approx_eq(&Matrix::identity(r), 1e-8));
    }

    #[test]
    fn rank1_matrix_detected() {
        // x = a b^T exactly.
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, -1.0, 0.5];
        let x = Matrix::from_fn(4, 3, |i, j| a[i] * b[j]);
        let svd = thin_svd(&x, 1e-9).unwrap();
        assert_eq!(svd.rank(), 1);
        let expected_sigma = crate::vecops::norm(&a) * crate::vecops::norm(&b);
        assert!((svd.sigma[0] - expected_sigma).abs() < 1e-9);
        assert!(rank_k_error(&x, &svd, 1) < 1e-9);
    }

    #[test]
    fn low_rank_approx_monotone_error() {
        let x = data_matrix(40, 10);
        let svd = thin_svd(&x, 0.0).unwrap();
        let mut prev_err = f64::INFINITY;
        for k in 1..=svd.rank() {
            let err = rank_k_error(&x, &svd, k);
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
        let err = rank_k_error(&x, &svd, k);
        let tail: f64 = svd.sigma[k..].iter().map(|s| s * s).sum::<f64>().sqrt();
        assert!((err - tail).abs() < 1e-8, "err {err} vs tail {tail}");
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
