//! Column centering of data matrices.
//!
//! The subspace method requires the OD-flow matrix `X` to have zero-mean
//! columns before PCA ("the multivariate mean, which for eigenflows is equal
//! to zero by construction" — §2.2 of the paper). The per-column means
//! ([`column_means`]) are all a model keeps of the transform: a new
//! observation (streaming detection) is centered by subtracting them, and
//! every fit route subtracts them from each element of `X` as it loads it,
//! so no centered copy of the window is ever made.

use crate::matrix::Matrix;

/// Rows per parallel block of [`column_means`]. Fixed so the block-ordered
/// reduction is deterministic for any thread count.
/// Region dispatch goes through the persistent `odflow_par` pool (a queue
/// push per block, not a thread spawn), so the block size is chosen for
/// cache residency and load balance alone.
const CENTER_ROW_BLOCK: usize = 256;

/// Per-column arithmetic means of a matrix.
///
/// Row blocks are summed in parallel and combined in block order, so the
/// result is identical for every thread count.
pub fn column_means(x: &Matrix) -> Vec<f64> {
    let (n, p) = x.shape();
    if n == 0 || p == 0 {
        return vec![0.0; p];
    }
    let data = x.as_slice();
    let mut means = odflow_par::map_reduce(
        n,
        CENTER_ROW_BLOCK,
        |rows| {
            let mut sums = vec![0.0f64; p];
            for row in data[rows.start * p..rows.end * p].chunks_exact(p) {
                for (m, &v) in sums.iter_mut().zip(row) {
                    *m += v;
                }
            }
            sums
        },
        |mut acc, block| {
            for (a, b) in acc.iter_mut().zip(&block) {
                *a += b;
            }
            acc
        },
    )
    .expect("n > 0 checked above");
    for m in &mut means {
        *m /= n as f64;
    }
    means
}

/// `x` with its column means subtracted, materialized: the oracle the fit
/// routes, which center each element as they load it, must reproduce.
#[cfg(test)]
pub(crate) fn centered_copy(x: &Matrix) -> Matrix {
    let means = column_means(x);
    Matrix::from_fn(x.nrows(), x.ncols(), |i, j| x[(i, j)] - means[j])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{covariance, truncated_svd, LinalgError};

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0], vec![5.0, 50.0]]).unwrap()
    }

    #[test]
    fn column_means_known() {
        assert_eq!(column_means(&sample()), vec![3.0, 30.0]);
        assert_eq!(column_means(&Matrix::zeros(0, 2)), vec![0.0, 0.0]);
    }

    #[test]
    fn centering_zeroes_means() {
        let c = centered_copy(&sample());
        let m = column_means(&c);
        assert!(m.iter().all(|&x| x.abs() < 1e-12));
        assert_eq!(c.col(0).unwrap(), vec![-2.0, 0.0, 2.0]);
    }

    #[test]
    fn empty_input_rejected() {
        // The routes that center: a window without rows has no mean to
        // subtract.
        let x = Matrix::zeros(0, 3);
        assert!(matches!(covariance(&x), Err(LinalgError::Empty { .. })));
        let dense = truncated_svd(&x, &[0.0; 3], 1);
        assert!(matches!(dense, Err(LinalgError::Empty { .. })));
    }
}
