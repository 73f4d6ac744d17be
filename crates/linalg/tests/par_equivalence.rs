//! Parallel/serial equivalence of the blocked numerics kernels.
//!
//! The determinism contract of `odflow_par` says chunk decompositions and
//! reduction orders never depend on the thread count, so every kernel must
//! return the *same* result under a one-thread pool (the serial fallback),
//! a typical pool, and an oversubscribed pool (more threads than rows).
//! These tests pin that contract at the 1e-10 tolerance the detection
//! statistics need — and, where the kernel promises it, exactly.

use odflow_linalg::{center_columns, covariance, eigen_symmetric, scatter, Matrix};
use odflow_par::with_thread_limit;
use proptest::prelude::*;

/// Strategy: a matrix with bounded entries, tall enough to split into
/// several parallel row blocks at the kernels' fixed grains.
fn matrix(max_n: usize, max_p: usize) -> impl Strategy<Value = Matrix> {
    (2usize..=max_n, 2usize..=max_p).prop_flat_map(|(n, p)| {
        proptest::collection::vec(-100.0f64..100.0, n * p)
            .prop_map(move |data| Matrix::from_vec(n, p, data).unwrap())
    })
}

/// Runs `f` under a 1-thread, 4-thread, and oversubscribed pool and asserts
/// all three results agree element-wise within `tol` (they are in fact
/// bit-identical; the tolerance is the documented contract).
fn assert_pool_invariant(m: &Matrix, tol: f64, f: impl Fn(&Matrix) -> Matrix) {
    let serial = with_thread_limit(1, || f(m));
    let typical = with_thread_limit(4, || f(m));
    let oversub = with_thread_limit(m.nrows() + 7, || f(m));
    assert!(serial.approx_eq(&typical, tol), "serial vs 4 threads diverged");
    assert!(serial.approx_eq(&oversub, tol), "serial vs oversubscribed diverged");
    // The implementation promises bit-identity, which subsumes the 1e-10
    // contract; assert it so regressions surface loudly.
    assert_eq!(serial.as_slice(), typical.as_slice());
    assert_eq!(serial.as_slice(), oversub.as_slice());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gram_matches_across_thread_counts(m in matrix(40, 12)) {
        assert_pool_invariant(&m, 1e-10, |x| scatter(x).unwrap());
    }

    #[test]
    fn matmul_matches_across_thread_counts(m in matrix(24, 10)) {
        let rhs = m.transpose();
        assert_pool_invariant(&m, 1e-10, |x| x.matmul(&rhs).unwrap());
    }

    #[test]
    fn covariance_matches_across_thread_counts(m in matrix(40, 10)) {
        assert_pool_invariant(&m, 1e-10, |x| covariance(x).unwrap());
    }

    #[test]
    fn centering_matches_across_thread_counts(m in matrix(40, 10)) {
        assert_pool_invariant(&m, 1e-10, |x| center_columns(x).unwrap());
    }

    #[test]
    fn gram_matches_transpose_matmul(m in matrix(30, 8)) {
        // The blocked syrk kernel must agree with the generic matmul route.
        let s = scatter(&m).unwrap();
        let naive = m.transpose().matmul(&m).unwrap();
        let scale = 1.0 + naive.max_abs();
        prop_assert!(s.approx_eq(&naive, 1e-10 * scale));
    }
}

/// Row counts straddling the fixed 128-row gram block boundary, so the
/// blocked reduction exercises 1, 2, and many partial blocks.
#[test]
fn gram_block_boundaries_are_thread_invariant() {
    for &n in &[1usize, 127, 128, 129, 257, 513] {
        let x = Matrix::from_fn(n, 7, |i, j| ((i * 13 + j * 29) % 83) as f64 / 83.0 - 0.4);
        let serial = with_thread_limit(1, || scatter(&x).unwrap());
        let wide = with_thread_limit(16, || scatter(&x).unwrap());
        assert_eq!(serial.as_slice(), wide.as_slice(), "n={n}");
    }
}

/// A week-sized workload (the paper's 2016 x 121) through the full
/// centered-covariance + eigendecomposition path, thread-invariant.
#[test]
fn week_scale_covariance_eigen_thread_invariant() {
    let x = Matrix::from_fn(504, 121, |i, j| {
        let t = i as f64 / 288.0 * std::f64::consts::TAU;
        (20.0 + j as f64) * (2.0 + (t + 0.8 * (j % 4) as f64).sin())
            + ((i * 31 + j * 17) % 101) as f64 / 101.0
    });
    let serial = with_thread_limit(1, || {
        let c = covariance(&x).unwrap();
        eigen_symmetric(&c).unwrap().eigenvalues
    });
    let wide = with_thread_limit(8, || {
        let c = covariance(&x).unwrap();
        eigen_symmetric(&c).unwrap().eigenvalues
    });
    assert_eq!(serial, wide);
}
