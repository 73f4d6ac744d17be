//! Column centering of data matrices.
//!
//! The subspace method requires the OD-flow matrix `X` to have zero-mean
//! columns before PCA ("the multivariate mean, which for eigenflows is equal
//! to zero by construction" — §2.2 of the paper). The per-column means
//! ([`column_means`]) are all a model keeps of the transform: a new
//! observation (streaming detection) is centered by subtracting them.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// Subtracts the column mean from every column of `x`.
///
/// # Errors
///
/// [`LinalgError::Empty`] if `x` has no rows.
pub fn center_columns(x: &Matrix) -> Result<Matrix> {
    if x.nrows() == 0 {
        return Err(LinalgError::Empty { op: "center_columns" });
    }
    Ok(subtract_means(x, &column_means(x)))
}

/// A copy of `x` with `means[j]` subtracted from every element of column
/// `j`.
pub(crate) fn subtract_means(x: &Matrix, means: &[f64]) -> Matrix {
    let p = x.ncols().max(1);
    let mut out = x.clone();
    odflow_par::parallel_chunks(out.as_mut_slice(), CENTER_ROW_BLOCK * p, |_, rows| {
        for row in rows.chunks_exact_mut(p) {
            for (v, &m) in row.iter_mut().zip(means) {
                *v -= m;
            }
        }
    });
    out
}

/// Rows per parallel block for centering passes. Fixed so the block-ordered
/// reduction in [`column_means`] is deterministic for any thread count.
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let c = center_columns(&sample()).unwrap();
        let m = column_means(&c);
        assert!(m.iter().all(|&x| x.abs() < 1e-12));
        assert_eq!(c.col(0).unwrap(), vec![-2.0, 0.0, 2.0]);
    }

    #[test]
    fn empty_input_rejected() {
        assert!(center_columns(&Matrix::zeros(0, 3)).is_err());
    }
}
