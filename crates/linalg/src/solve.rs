//! Dense linear system solving.
//!
//! Gaussian elimination with partial pivoting — used by the subspace
//! method's identification stage, which repeatedly solves small `|S| x |S|`
//! systems (reconstruction-based flow removal à la Dunia & Qin).

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// Solves the linear system `A x = b` by Gaussian elimination with partial
/// pivoting.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] for a rectangular `A`.
/// * [`LinalgError::ShapeMismatch`] when `b.len() != A.nrows()`.
/// * [`LinalgError::NoConvergence`] when a pivot underflows (singular or
///   numerically singular matrix).
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { op: "solve", shape: a.shape() });
    }
    let n = a.nrows();
    if b.len() != n {
        return Err(LinalgError::ShapeMismatch { op: "solve", lhs: a.shape(), rhs: (b.len(), 1) });
    }
    if n == 0 {
        return Ok(Vec::new());
    }

    // Augmented working copy.
    let mut m = a.clone();
    let mut rhs = b.to_vec();

    let scale = m.max_abs().max(1e-300);
    for col in 0..n {
        // Partial pivot.
        let mut pivot_row = col;
        let mut pivot_val = m[(col, col)].abs();
        for r in (col + 1)..n {
            let v = m[(r, col)].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < 1e-13 * scale {
            return Err(LinalgError::NoConvergence {
                op: "solve (singular pivot)",
                iterations: col,
            });
        }
        if pivot_row != col {
            for c in 0..n {
                let tmp = m[(col, c)];
                m[(col, c)] = m[(pivot_row, c)];
                m[(pivot_row, c)] = tmp;
            }
            rhs.swap(col, pivot_row);
        }
        // Eliminate below.
        for r in (col + 1)..n {
            let f = m[(r, col)] / m[(col, col)];
            if f == 0.0 {
                continue;
            }
            for c in col..n {
                let v = m[(col, c)];
                m[(r, c)] -= f * v;
            }
            rhs[r] -= f * rhs[col];
        }
    }

    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut s = rhs[row];
        for c in (row + 1)..n {
            s -= m[(row, c)] * x[c];
        }
        x[row] = s / m[(row, row)];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_known_system() {
        // [2 1; 1 3] x = [5; 10] -> x = [1; 3]
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn identity_returns_rhs() {
        let i = Matrix::identity(4);
        let b = [1.0, -2.0, 3.5, 0.0];
        assert_eq!(solve(&i, &b).unwrap(), b.to_vec());
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn residual_small_for_random_system() {
        let n = 12;
        let a = Matrix::from_fn(n, n, |i, j| {
            ((i * 31 + j * 17 + 5) % 23) as f64 / 23.0 + if i == j { 2.0 } else { 0.0 }
        });
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 4.0).collect();
        let x = solve(&a, &b).unwrap();
        let ax = a.matmul(&Matrix::from_vec(n, 1, x).unwrap()).unwrap();
        for (l, r) in ax.as_slice().iter().zip(&b) {
            assert!((l - r).abs() < 1e-9, "residual too large: {l} vs {r}");
        }
    }

    #[test]
    fn singular_matrix_rejected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert!(matches!(solve(&a, &[1.0, 2.0]), Err(LinalgError::NoConvergence { .. })));
    }

    #[test]
    fn shape_errors() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(solve(&a, &[1.0, 2.0]), Err(LinalgError::NotSquare { .. })));
        let sq = Matrix::identity(3);
        assert!(matches!(solve(&sq, &[1.0]), Err(LinalgError::ShapeMismatch { .. })));
    }

    #[test]
    fn empty_system() {
        let a = Matrix::zeros(0, 0);
        assert!(solve(&a, &[]).unwrap().is_empty());
    }
}
