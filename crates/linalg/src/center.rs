//! Column centering of data matrices.
//!
//! The subspace method requires the OD-flow matrix `X` to have zero-mean
//! columns before PCA ("the multivariate mean, which for eigenflows is equal
//! to zero by construction" — §2.2 of the paper). [`Centering`] records the
//! per-column offsets so new observations (streaming detection) can be
//! transformed consistently with the training data.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// How each column of a data matrix was transformed.
#[derive(Debug, Clone, PartialEq)]
pub struct Centering {
    /// Per-column means subtracted from the data.
    pub means: Vec<f64>,
    /// Per-column scale divisors (all `1.0`: columns are centered, not
    /// scaled).
    pub scales: Vec<f64>,
}

impl Centering {
    /// Number of columns this transform applies to.
    pub fn ncols(&self) -> usize {
        self.means.len()
    }

    /// Transform a single observation (row) in place: `x[j] = (x[j] - mean[j]) / scale[j]`.
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the row length differs
    /// from the training column count.
    pub fn apply_row(&self, row: &mut [f64]) -> Result<()> {
        if row.len() != self.means.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "Centering::apply_row",
                lhs: (1, self.means.len()),
                rhs: (1, row.len()),
            });
        }
        for ((x, &m), &s) in row.iter_mut().zip(&self.means).zip(&self.scales) {
            *x = (*x - m) / s;
        }
        Ok(())
    }
}

/// Subtracts the column mean from every column of `x`.
///
/// Returns the centered matrix and the [`Centering`] (with unit scales).
///
/// # Errors
///
/// [`LinalgError::Empty`] if `x` has no rows.
pub fn center_columns(x: &Matrix) -> Result<(Matrix, Centering)> {
    if x.nrows() == 0 {
        return Err(LinalgError::Empty { op: "center_columns" });
    }
    let means = column_means(x);
    let out = subtract_means(x, &means);
    let scales = vec![1.0; x.ncols()];
    Ok((out, Centering { means, scales }))
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
        let (c, t) = center_columns(&sample()).unwrap();
        let m = column_means(&c);
        assert!(m.iter().all(|&x| x.abs() < 1e-12));
        assert_eq!(t.means, vec![3.0, 30.0]);
        assert_eq!(t.scales, vec![1.0, 1.0]);
    }

    #[test]
    fn apply_row_matches_the_centered_training_row() {
        let x = sample();
        let (c, t) = center_columns(&x).unwrap();
        for i in 0..x.nrows() {
            let mut row = x.row(i).unwrap().to_vec();
            t.apply_row(&mut row).unwrap();
            assert_eq!(row, c.row(i).unwrap());
        }
    }

    #[test]
    fn apply_row_shape_check() {
        let (_, t) = center_columns(&sample()).unwrap();
        let mut short = vec![1.0];
        assert!(t.apply_row(&mut short).is_err());
        assert_eq!(t.ncols(), 2);
    }

    #[test]
    fn empty_input_rejected() {
        assert!(center_columns(&Matrix::zeros(0, 3)).is_err());
    }
}
