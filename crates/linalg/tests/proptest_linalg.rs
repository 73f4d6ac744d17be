//! Property-based tests for the linear-algebra substrate.
//!
//! These pin down the algebraic invariants the subspace method relies on:
//! orthonormality of eigenvectors, exactness of `x = x_hat + x_tilde`-style
//! decompositions, and Pythagoras over orthogonal projections.

use odflow_linalg::{
    center_columns, column_means, covariance, eigen_symmetric, thin_svd, vecops, Matrix,
};
use proptest::prelude::*;

/// Strategy: a small matrix with well-conditioned, bounded entries.
fn small_matrix(max_n: usize, max_p: usize) -> impl Strategy<Value = Matrix> {
    (2usize..=max_n, 1usize..=max_p).prop_flat_map(|(n, p)| {
        proptest::collection::vec(-100.0f64..100.0, n * p)
            .prop_map(move |data| Matrix::from_vec(n, p, data).unwrap())
    })
}

/// Strategy: a symmetric matrix built as (A + A^T)/2.
fn symmetric_matrix(max_n: usize) -> impl Strategy<Value = Matrix> {
    (1usize..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(-50.0f64..50.0, n * n).prop_map(move |data| {
            let a = Matrix::from_vec(n, n, data).unwrap();
            Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involution(m in small_matrix(8, 8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_associative_with_vector(m in small_matrix(6, 6)) {
        // (M^T M) v == M^T (M v)
        let v = Matrix::from_fn(m.ncols(), 1, |i, _| (i as f64) - 1.5);
        let mtm = m.transpose().matmul(&m).unwrap();
        let lhs = mtm.matmul(&v).unwrap();
        let mv = m.matmul(&v).unwrap();
        let rhs = m.transpose().matmul(&mv).unwrap();
        for (a, b) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn centering_zeroes_column_means(m in small_matrix(10, 6)) {
        let c = center_columns(&m).unwrap();
        for mean in column_means(&c) {
            prop_assert!(mean.abs() < 1e-9);
        }
    }

    #[test]
    fn eigen_reconstructs_symmetric(s in symmetric_matrix(7)) {
        let e = eigen_symmetric(&s).unwrap();
        let v = &e.eigenvectors;
        let recon = v
            .matmul(&Matrix::from_diag(&e.eigenvalues)).unwrap()
            .matmul(&v.transpose()).unwrap();
        let scale = 1.0 + s.max_abs();
        prop_assert!(recon.approx_eq(&s, 1e-7 * scale),
            "reconstruction error {}", recon.sub(&s).unwrap().max_abs());
    }

    #[test]
    fn eigenvectors_orthonormal(s in symmetric_matrix(7)) {
        let e = eigen_symmetric(&s).unwrap();
        let n = s.nrows();
        let vtv = e.eigenvectors.transpose().matmul(&e.eigenvectors).unwrap();
        prop_assert!(vtv.approx_eq(&Matrix::identity(n), 1e-8));
    }

    #[test]
    fn eigenvalues_sorted_descending(s in symmetric_matrix(8)) {
        let e = eigen_symmetric(&s).unwrap();
        for w in e.eigenvalues.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-10);
        }
    }

    #[test]
    fn trace_equals_eigenvalue_sum(s in symmetric_matrix(8)) {
        let e = eigen_symmetric(&s).unwrap();
        let tr = s.trace().unwrap();
        let sum: f64 = e.eigenvalues.iter().sum();
        prop_assert!((tr - sum).abs() < 1e-7 * (1.0 + tr.abs()));
    }

    #[test]
    fn svd_reconstruction(m in small_matrix(10, 5)) {
        // Every axis kept: `X V Vᵀ` is `X`, and `VᵀXᵀXV` is `diag(σ²)`.
        let svd = thin_svd(&m, 0.0).unwrap();
        let xv = m.matmul(&svd.v).unwrap();
        let r = xv.matmul(&svd.v.transpose()).unwrap();
        let scale = 1.0 + m.max_abs();
        prop_assert!(r.approx_eq(&m, 1e-6 * scale),
            "svd reconstruction error {}", r.sub(&m).unwrap().max_abs());
        let sq: Vec<f64> = svd.sigma.iter().map(|s| s * s).collect();
        let gram = xv.transpose().matmul(&xv).unwrap();
        prop_assert!(gram.approx_eq(&Matrix::from_diag(&sq), 1e-9 * (1.0 + sq[0])),
            "VᵀXᵀXV off diag(σ²) by {}", gram.sub(&Matrix::from_diag(&sq)).unwrap().max_abs());
    }

    #[test]
    fn svd_projection_pythagoras(m in small_matrix(10, 5)) {
        // For any k: ||X||_F^2 == ||X_k||_F^2 + ||X - X_k||_F^2
        // (orthogonal projection), and the residual's energy is the tail
        // Σ_{i>k} σ_i² (Eckart–Young).
        let svd = thin_svd(&m, 0.0).unwrap();
        let k = svd.rank() / 2;
        if k == 0 { return Ok(()); }
        let vk = svd.v.select_cols(&(0..k).collect::<Vec<_>>()).unwrap();
        let xk = m.matmul(&vk).unwrap().matmul(&vk.transpose()).unwrap();
        let resid = m.sub(&xk).unwrap();
        let total = m.frobenius_norm().powi(2);
        let parts = xk.frobenius_norm().powi(2) + resid.frobenius_norm().powi(2);
        prop_assert!((total - parts).abs() < 1e-5 * (1.0 + total));
        let tail: f64 = svd.sigma[k..].iter().map(|s| s * s).sum();
        let resid_sq = resid.frobenius_norm().powi(2);
        prop_assert!((resid_sq - tail).abs() < 1e-5 * (1.0 + total), "{resid_sq} vs tail {tail}");
    }

    #[test]
    fn covariance_symmetric_psd_diagonal(m in small_matrix(12, 5)) {
        let c = covariance(&m).unwrap();
        prop_assert!(c.max_asymmetry() <= 1e-9);
        for j in 0..c.ncols() {
            prop_assert!(c[(j, j)] >= -1e-12);
        }
        // PSD check via eigenvalues.
        let e = eigen_symmetric(&c).unwrap();
        let scale = 1.0 + c.max_abs();
        for l in e.eigenvalues {
            prop_assert!(l > -1e-8 * scale, "covariance eigenvalue {l} negative");
        }
    }

    #[test]
    fn norm_sq_additive_under_orthogonal_split(v in proptest::collection::vec(-100.0f64..100.0, 2..40)) {
        // Splitting v into (v - proj) and proj on a random axis e_0:
        let mut proj = vec![0.0; v.len()];
        proj[0] = v[0];
        let resid = vecops::sub(&v, &proj);
        let total = vecops::norm_sq(&v);
        let parts = vecops::norm_sq(&proj) + vecops::norm_sq(&resid);
        prop_assert!((total - parts).abs() < 1e-9 * (1.0 + total));
    }
}
