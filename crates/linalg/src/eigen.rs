//! Symmetric eigendecomposition: Householder tridiagonalization followed
//! by implicit-shift QR.
//!
//! PCA on the OD-flow timeseries reduces to diagonalizing the `p x p`
//! covariance (or scatter) matrix `X^T X`, with `p = 121` OD pairs for the
//! Abilene-like topology. [`eigen_symmetric`] is the one dense solver in
//! the workspace, for every Gram matrix [`crate::truncated_svd`] factors —
//! `p x p`, or `n x n` for a window wider than it is long — and for the
//! covariance matrices beside it: the direct-method pipeline
//! every dense LAPACK eigensolver uses, here with a blocked `dsytrd`-style
//! panel reduction ([`crate::householder`]: compact-WY back-transform,
//! rank-2k trailing update) and a `dsteqr`-style QR stage with batched
//! rotation replay ([`crate::tridiag`]). `O(p³)` once, eigenvectors
//! orthogonal to working precision, bit-identical for every thread count.
//!
//! References: Golub & Van Loan, *Matrix Computations*, §8.3; Jackson, *A
//! User's Guide to Principal Components* (the paper's PCA reference
//! \[11\]). A cyclic Jacobi iteration (§8.5) — a different arithmetic path
//! to the same eigensystem — lives at the bottom of this module under
//! `#[cfg(test)]` as the independent oracle the solver is checked against.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// Result of a symmetric eigendecomposition.
///
/// Eigenpairs are sorted by **descending** eigenvalue, matching the paper's
/// convention that eigenflow `u_1` captures the most variance.
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    /// Eigenvalues, descending. For a covariance matrix these are the
    /// variances captured by each principal axis.
    pub eigenvalues: Vec<f64>,
    /// Matrix whose **columns** are the corresponding unit eigenvectors.
    pub eigenvectors: Matrix,
    /// Implicit-shift QR sweeps the tridiagonal stage took.
    pub sweeps: usize,
}

impl EigenDecomposition {
    /// Fraction of total variance captured by the top `k` eigenvalues.
    ///
    /// Negative eigenvalues (numerical noise around zero for rank-deficient
    /// inputs) are clamped to zero for this summary.
    pub fn variance_captured(&self, k: usize) -> f64 {
        let clamped: Vec<f64> = self.eigenvalues.iter().map(|&l| l.max(0.0)).collect();
        let total: f64 = clamped.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        clamped.iter().take(k).sum::<f64>() / total
    }
}

/// Largest tolerated asymmetry `max |a_ij - a_ji|` in the input, relative
/// to its largest absolute entry: wide enough for the rounding a Gram or
/// covariance product accumulates, far too tight for a matrix that is not
/// meant to be symmetric.
const SYMMETRY_TOLERANCE: f64 = 1e-9;

/// Computes the eigendecomposition of a symmetric matrix.
///
/// Inputs within the symmetry tolerance (`1e-9` relative) are symmetrized
/// as `(A + A^T) / 2`, reduced to tridiagonal form by blocked Householder
/// reflections, diagonalized by implicit Wilkinson-shift QR, and
/// back-transformed; eigenpairs come out sorted by descending eigenvalue.
/// Like every kernel in the workspace, results are bit-identical for every
/// thread count.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] for rectangular input.
/// * [`LinalgError::NotSymmetric`] when asymmetry exceeds tolerance.
/// * [`LinalgError::NonFinite`] when the input contains NaN or infinity.
/// * [`LinalgError::NoConvergence`] if the QR sweep budget is exhausted
///   (practically unreachable for finite symmetric input).
///
/// # Examples
///
/// ```
/// use odflow_linalg::{Matrix, eigen_symmetric};
///
/// let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
/// let e = eigen_symmetric(&a).unwrap();
/// assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
/// assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
/// ```
pub fn eigen_symmetric(a: &Matrix) -> Result<EigenDecomposition> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { op: "eigen_symmetric", shape: a.shape() });
    }
    if !a.all_finite() {
        return Err(LinalgError::NonFinite { op: "eigen_symmetric" });
    }
    let n = a.nrows();
    if n == 0 {
        return Ok(EigenDecomposition {
            eigenvalues: vec![],
            eigenvectors: Matrix::zeros(0, 0),
            sweeps: 0,
        });
    }
    let scale = a.max_abs();
    let asym = a.max_asymmetry();
    if scale > 0.0 && asym > SYMMETRY_TOLERANCE * scale {
        return Err(LinalgError::NotSymmetric { max_asymmetry: asym });
    }

    // Work on a symmetrized copy; tiny asymmetries from floating-point
    // accumulation in X^T X are averaged away.
    let w = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
    let mut factor = crate::householder::tridiagonalize(w);
    let mut z = Matrix::identity(n);
    let sweeps = crate::tridiag::tridiag_qr(&mut factor.d, &mut factor.e, &mut z)?;
    let z = crate::householder::back_transform(z, &factor);

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| factor.d[j].partial_cmp(&factor.d[i]).expect("finite eigenvalues"));
    let eigenvalues: Vec<f64> = order.iter().map(|&i| factor.d[i]).collect();
    let eigenvectors = z.select_cols(&order)?;
    Ok(EigenDecomposition { eigenvalues, eigenvectors, sweeps })
}

/// The oracle: cyclic Jacobi (Golub & Van Loan §8.5). Unconditionally
/// convergent, no shifts, no reflectors — it shares no arithmetic with the
/// Householder + QR pipeline, which is what makes agreement with it
/// evidence.
#[cfg(test)]
pub(crate) mod jacobi {
    use super::EigenDecomposition;
    use crate::matrix::Matrix;

    /// One Jacobi plane rotation in the `(p, q)` plane.
    #[derive(Clone, Copy)]
    pub(super) struct Rotation {
        pub p: usize,
        pub q: usize,
        pub c: f64,
        pub s: f64,
    }

    /// Stable rotation coefficients annihilating `w[(p, q)]` (Golub & Van
    /// Loan 8.5.2): `t = sign(theta) / (|theta| + sqrt(theta^2+1))`,
    /// `theta = (aqq - app) / (2 apq)`. Returns `None` when the pivot is
    /// already zero.
    pub(super) fn rotation_for(w: &Matrix, p: usize, q: usize) -> Option<Rotation> {
        let apq = w[(p, q)];
        if apq == 0.0 {
            return None;
        }
        let app = w[(p, p)];
        let aqq = w[(q, q)];
        let theta = (aqq - app) / (2.0 * apq);
        let t = if theta >= 0.0 {
            1.0 / (theta + (1.0 + theta * theta).sqrt())
        } else {
            -1.0 / (-theta + (1.0 + theta * theta).sqrt())
        };
        let c = 1.0 / (1.0 + t * t).sqrt();
        let s = t * c;
        Some(Rotation { p, q, c, s })
    }

    /// The classic cyclic sweep: pivots visited row by row, each rotation
    /// applied two-sided before the next is computed. `vt` accumulates the
    /// **transposed** eigenvector matrix, so both updates are
    /// [`rotate_row_pair`] over contiguous rows, where the textbook form
    /// walks columns `p` and `q` of both matrices (a cache line per element
    /// at `p = 121`). Same operands, same expressions, bit-identical
    /// results, at about half the time.
    pub(super) fn serial_sweep(w: &mut Matrix, vt: &mut Matrix) {
        let n = w.nrows();
        for p in 0..n - 1 {
            for q in p + 1..n {
                if let Some(rot) = rotation_for(w, p, q) {
                    apply_rotation(w, &rot);
                    rotate_row_pair(vt.as_mut_slice(), n, &rot);
                }
            }
        }
    }

    /// `M <- J^T M` for one rotation over a row-major buffer: rows `p < q`
    /// (so `split_at_mut` at row `q` hands out both disjointly) become
    /// `c*row_p - s*row_q` and `s*row_p + c*row_q`, element by element.
    fn rotate_row_pair(data: &mut [f64], ncols: usize, rot: &Rotation) {
        let (head, tail) = data.split_at_mut(rot.q * ncols);
        let row_p = &mut head[rot.p * ncols..rot.p * ncols + ncols];
        let row_q = &mut tail[..ncols];
        for (a_el, b_el) in row_p.iter_mut().zip(row_q.iter_mut()) {
            let a = *a_el;
            let b = *b_el;
            *a_el = rot.c * a - rot.s * b;
            *b_el = rot.s * a + rot.c * b;
        }
    }

    /// Applies the two-sided Jacobi rotation `J^T W J` in the `(p, q)`
    /// plane.
    ///
    /// `W` is kept exactly symmetric, so rows `p` and `q` hold the same
    /// values as columns `p` and `q`: the rows are rotated in place, the
    /// four pivot entries are then set from their closed forms, and the
    /// rows are mirrored into the columns.
    fn apply_rotation(w: &mut Matrix, rot: &Rotation) {
        let Rotation { p, q, c, s } = *rot;
        let n = w.nrows();
        let app = w[(p, p)];
        let aqq = w[(q, q)];
        let apq = w[(p, q)];

        let data = w.as_mut_slice();
        rotate_row_pair(data, n, rot);
        data[p * n + p] = c * c * app - 2.0 * s * c * apq + s * s * aqq;
        data[q * n + q] = s * s * app + 2.0 * s * c * apq + c * c * aqq;
        data[p * n + q] = 0.0;
        data[q * n + p] = 0.0;
        for i in 0..n {
            if i != p && i != q {
                data[i * n + p] = data[p * n + i];
                data[i * n + q] = data[q * n + i];
            }
        }
    }

    /// Frobenius norm of the strictly off-diagonal part.
    fn off_diagonal_norm(a: &Matrix) -> f64 {
        let n = a.nrows();
        let mut s = 0.0;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    s += a[(i, j)] * a[(i, j)];
                }
            }
        }
        s.sqrt()
    }

    /// Sweeps until the off-diagonal mass is below `1e-14 ‖A‖_F`, then
    /// sorts eigenpairs descending — [`super::eigen_symmetric`]'s output
    /// contract.
    pub(crate) fn jacobi_oracle(a: &Matrix) -> EigenDecomposition {
        let n = a.nrows();
        let mut w = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
        let mut vt = Matrix::identity(n);
        let tol = 1e-14 * w.frobenius_norm();
        let mut sweeps = 0;
        while off_diagonal_norm(&w) > tol {
            assert!(sweeps < 64, "Jacobi oracle did not converge at n={n}");
            serial_sweep(&mut w, &mut vt);
            sweeps += 1;
        }
        let diag: Vec<f64> = (0..n).map(|i| w[(i, i)]).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| diag[j].partial_cmp(&diag[i]).unwrap());
        EigenDecomposition {
            eigenvalues: order.iter().map(|&i| diag[i]).collect(),
            eigenvectors: vt.select_rows(&order).unwrap().transpose(),
            sweeps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::jacobi::{jacobi_oracle, rotation_for, serial_sweep, Rotation};
    use super::*;

    /// What the solver owes against the oracle on `a` of numerical rank
    /// `rank`: the same spectrum, a zero tail past the rank, the same top
    /// invariant subspace, and an orthonormal basis that rebuilds `a`.
    fn assert_matches_oracle(a: &Matrix, rank: usize) {
        let n = a.nrows();
        let e = eigen_symmetric(a).unwrap();
        let o = jacobi_oracle(a);
        let l0 = o.eigenvalues[0];
        for (i, (x, y)) in e.eigenvalues.iter().zip(&o.eigenvalues).enumerate() {
            assert!((x - y).abs() <= 1e-11 * (1.0 + l0), "n={n} eigenvalue {i}: {x} vs {y}");
        }
        for (i, l) in e.eigenvalues.iter().enumerate().skip(rank) {
            assert!(l.abs() <= 1e-12 * l0, "n={n} tail eigenvalue {i}: {l} against {l0}");
        }
        // Principal-angle cosines between the two top-4 subspaces are the
        // singular values of the overlap E_k^T O_k; their squares come
        // from the oracle, so nothing here leans on the solver under test.
        let top: Vec<usize> = (0..rank.min(4)).collect();
        let overlap = e
            .eigenvectors
            .select_cols(&top)
            .unwrap()
            .transpose()
            .matmul(&o.eigenvectors.select_cols(&top).unwrap())
            .unwrap();
        let cos_sq = jacobi_oracle(&overlap.transpose().matmul(&overlap).unwrap()).eigenvalues;
        for c2 in cos_sq {
            assert!(c2.sqrt() >= 1.0 - 1e-10, "n={n} principal angle too wide: cos² = {c2}");
        }
        assert!(reconstruct(&e).approx_eq(a, 1e-11 * (1.0 + l0)), "n={n}: A != V L V^T");
        let vtv = e.eigenvectors.transpose().matmul(&e.eigenvectors).unwrap();
        assert!(vtv.approx_eq(&Matrix::identity(n), 1e-12), "n={n}: V^T V != I");
    }

    /// The `backend_equivalence` OD-traffic fixture: a few shared temporal
    /// patterns plus hash noise, with the two spikes its Abilene-scale
    /// tests inject (where the window is long enough to hold them).
    fn traffic(n: usize, p: usize) -> Matrix {
        let mut m = Matrix::from_fn(n, p, |i, j| {
            let t = i as f64 / 288.0 * std::f64::consts::TAU;
            let phase = 0.8 * (j % 4) as f64;
            let psi = 1.1 * (j % 3) as f64;
            let mut z = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (j as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^= z >> 31;
            let noise = (z as f64 / u64::MAX as f64) - 0.5;
            (15.0 + j as f64) * (2.0 + (t + phase).sin() + 0.8 * (2.0 * t + psi).sin()) + noise
        });
        for (bin, od, mag) in [(150, 40, 4000.0), (290, 7, 3500.0)] {
            if bin < n {
                m[(bin, od)] += mag;
            }
        }
        m
    }

    #[test]
    fn matches_jacobi_oracle_on_traffic_covariance_at_abilene_scale() {
        // The paper's one eigenproblem: the 121 x 121 covariance of a
        // spiked traffic window, full rank.
        let c = crate::cov::covariance(&traffic(400, 121)).unwrap();
        assert_matches_oracle(&c, 121);
    }

    #[test]
    fn matches_jacobi_oracle_on_rank_deficient_gram() {
        // Fewer bins than OD pairs: 73 of the 121 eigenvalues are zero.
        let g = crate::cov::scatter(&traffic(48, 121)).unwrap();
        assert_matches_oracle(&g, 48);
    }

    fn reconstruct(e: &EigenDecomposition) -> Matrix {
        // A = V diag(lambda) V^T
        let v = &e.eigenvectors;
        let d = Matrix::from_diag(&e.eigenvalues);
        v.matmul(&d).unwrap().matmul(&v.transpose()).unwrap()
    }

    /// The textbook two-sided rotation, walking columns `p` and `q` of
    /// `W` and `V` — what [`serial_sweep`] must reproduce to the bit.
    fn textbook_sweep(w: &mut Matrix, v: &mut Matrix) {
        let n = w.nrows();
        for p in 0..n - 1 {
            for q in p + 1..n {
                let Some(Rotation { c, s, .. }) = rotation_for(w, p, q) else { continue };
                let (app, aqq, apq) = (w[(p, p)], w[(q, q)], w[(p, q)]);
                w[(p, p)] = c * c * app - 2.0 * s * c * apq + s * s * aqq;
                w[(q, q)] = s * s * app + 2.0 * s * c * apq + c * c * aqq;
                w[(p, q)] = 0.0;
                w[(q, p)] = 0.0;
                for i in (0..n).filter(|&i| i != p && i != q) {
                    let (aip, aiq) = (w[(i, p)], w[(i, q)]);
                    w[(i, p)] = c * aip - s * aiq;
                    w[(p, i)] = w[(i, p)];
                    w[(i, q)] = s * aip + c * aiq;
                    w[(q, i)] = w[(i, q)];
                }
                for i in 0..n {
                    let (vip, viq) = (v[(i, p)], v[(i, q)]);
                    v[(i, p)] = c * vip - s * viq;
                    v[(i, q)] = s * vip + c * viq;
                }
            }
        }
    }

    #[test]
    fn row_oriented_sweep_matches_textbook_rotation_bit_for_bit() {
        for n in [2usize, 7, 40, 121] {
            let x = Matrix::from_fn(n + 5, n, |i, j| {
                ((i * 31 + j * 17) % 23) as f64 - 11.0 + 1e-3 * (i as f64 * 0.7 + j as f64).sin()
            });
            let gram = x.transpose().matmul(&x).unwrap();
            let sym = Matrix::from_fn(n, n, |i, j| 0.5 * (gram[(i, j)] + gram[(j, i)]));
            let (mut w, mut vt) = (sym.clone(), Matrix::identity(n));
            let (mut w_ref, mut v_ref) = (sym, Matrix::identity(n));
            for sweep in 0..4 {
                serial_sweep(&mut w, &mut vt);
                textbook_sweep(&mut w_ref, &mut v_ref);
                let same = |a: &Matrix, b: &Matrix| {
                    a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
                };
                assert!(same(&w, &w_ref), "W differs at n={n}, sweep {sweep}");
                assert!(same(&vt.transpose(), &v_ref), "V differs at n={n}, sweep {sweep}");
            }
        }
    }

    #[test]
    fn two_by_two_known() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let e = eigen_symmetric(&a).unwrap();
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
        // Eigenvector for lambda=3 is (1,1)/sqrt(2) up to sign.
        let v0 = e.eigenvectors.col(0).unwrap();
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((v0[0] - v0[1]).abs() < 1e-12);
    }

    #[test]
    fn diagonal_matrix_is_fixed_point() {
        let a = Matrix::from_diag(&[5.0, 3.0, 1.0]);
        let e = eigen_symmetric(&a).unwrap();
        assert_eq!(e.eigenvalues, vec![5.0, 3.0, 1.0]);
        assert_eq!(e.sweeps, 0);
    }

    #[test]
    fn sorts_descending_even_with_negatives() {
        let a = Matrix::from_diag(&[-2.0, 7.0, 0.5]);
        let e = eigen_symmetric(&a).unwrap();
        assert_eq!(e.eigenvalues, vec![7.0, 0.5, -2.0]);
    }

    #[test]
    fn reconstruction_3x3() {
        let a =
            Matrix::from_rows(&[vec![4.0, 1.0, 0.5], vec![1.0, 3.0, 0.25], vec![0.5, 0.25, 2.0]])
                .unwrap();
        let e = eigen_symmetric(&a).unwrap();
        assert!(reconstruct(&e).approx_eq(&a, 1e-10));
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let a = Matrix::from_fn(8, 8, |i, j| 1.0 / (1.0 + (i as f64 - j as f64).abs()));
        let e = eigen_symmetric(&a).unwrap();
        let vtv = e.eigenvectors.transpose().matmul(&e.eigenvectors).unwrap();
        assert!(vtv.approx_eq(&Matrix::identity(8), 1e-10));
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a =
            Matrix::from_fn(6, 6, |i, j| ((i * j) as f64).sin() + if i == j { 3.0 } else { 0.0 });
        let sym = Matrix::from_fn(6, 6, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
        let e = eigen_symmetric(&sym).unwrap();
        let tr = sym.trace().unwrap();
        let sum: f64 = e.eigenvalues.iter().sum();
        assert!((tr - sum).abs() < 1e-9, "trace {tr} vs eigensum {sum}");
    }

    #[test]
    fn rank_deficient_low_rank() {
        // Rank-1: outer product vv^T, eigenvalues (||v||^2, 0, 0).
        let v = [1.0, 2.0, 3.0];
        let a = Matrix::from_fn(3, 3, |i, j| v[i] * v[j]);
        let e = eigen_symmetric(&a).unwrap();
        assert!((e.eigenvalues[0] - 14.0).abs() < 1e-10);
        assert!(e.eigenvalues[1].abs() < 1e-10);
        assert!(e.eigenvalues[2].abs() < 1e-10);
    }

    #[test]
    fn variance_captured_monotone() {
        let a = Matrix::from_diag(&[4.0, 3.0, 2.0, 1.0]);
        let e = eigen_symmetric(&a).unwrap();
        assert!((e.variance_captured(1) - 0.4).abs() < 1e-12);
        assert!((e.variance_captured(4) - 1.0).abs() < 1e-12);
        assert!(e.variance_captured(2) > e.variance_captured(1));
        assert_eq!(e.variance_captured(0), 0.0);
    }

    #[test]
    fn rejects_rectangular_and_asymmetric() {
        assert!(matches!(
            eigen_symmetric(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        let a = Matrix::from_rows(&[vec![1.0, 5.0], vec![0.0, 1.0]]).unwrap();
        assert!(matches!(eigen_symmetric(&a), Err(LinalgError::NotSymmetric { .. })));
    }

    #[test]
    fn rejects_nonfinite() {
        let mut a = Matrix::identity(2);
        a[(0, 0)] = f64::NAN;
        assert!(matches!(eigen_symmetric(&a), Err(LinalgError::NonFinite { .. })));
    }

    #[test]
    fn empty_matrix_ok() {
        let e = eigen_symmetric(&Matrix::zeros(0, 0)).unwrap();
        assert!(e.eigenvalues.is_empty());
    }

    #[test]
    fn tolerates_tiny_asymmetry() {
        // Asymmetry at 1e-12 relative is well within the default tolerance.
        let mut a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        a[(0, 1)] += 1e-13;
        let e = eigen_symmetric(&a).unwrap();
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn tridiagonal_matches_jacobi_eigenvalues() {
        // From the sizes where the Householder stage is empty (1, 2) or a
        // single reflector (3), through a row Gram's 18 x 18 problem, to
        // several panels.
        for &n in &[1usize, 2, 3, 8, 18, 33, 72] {
            let b = Matrix::from_fn(n + 9, n, |i, j| {
                (((i * 29 + j * 13) % 127) as f64 / 127.0 - 0.5) + if i == j { 0.4 } else { 0.0 }
            });
            assert_matches_oracle(&b.transpose().matmul(&b).unwrap(), n);
        }
    }

    #[test]
    fn tridiagonal_reconstructs_and_is_orthonormal() {
        let n = 96; // crosses several Householder panels
        let a = Matrix::from_fn(n, n, |i, j| {
            let lo = i.min(j) as f64;
            let hi = i.max(j) as f64;
            (1.0 + lo) / (2.0 + hi) + if i == j { 3.0 } else { 0.0 }
        });
        let e = eigen_symmetric(&a).unwrap();
        let vtv = e.eigenvectors.transpose().matmul(&e.eigenvectors).unwrap();
        assert!(vtv.approx_eq(&Matrix::identity(n), 1e-9), "V^T V != I");
        assert!(reconstruct(&e).approx_eq(&a, 1e-8 * a.max_abs()), "A != V L V^T");
        for win in e.eigenvalues.windows(2) {
            assert!(win[0] >= win[1] - 1e-9, "not descending");
        }
    }

    #[test]
    fn tridiagonal_is_thread_count_invariant() {
        // This module owns no grain: 2 · 256 + 13 is past twice each of
        // the pipeline's three row blocks (QR_ROW_BLOCK, SYR2K_ROW_BLOCK,
        // SYMV_ROW_BLOCK — their own tests derive their sizes from the
        // constants), so every region the solve opens is several tasks.
        let n = 2 * 256 + 13;
        let a = Matrix::from_fn(n, n, |i, j| {
            (((i.min(j) * 31 + i.max(j) * 17) % 101) as f64) / 101.0
                + if i == j { 2.0 } else { 0.0 }
        });
        let serial = odflow_par::with_thread_limit(1, || eigen_symmetric(&a).unwrap());
        for &threads in &[4usize, 64] {
            let par = odflow_par::with_thread_limit(threads, || eigen_symmetric(&a).unwrap());
            assert_eq!(par.eigenvalues, serial.eigenvalues, "threads={threads}");
            assert_eq!(
                par.eigenvectors.as_slice(),
                serial.eigenvectors.as_slice(),
                "threads={threads}"
            );
            assert_eq!(par.sweeps, serial.sweeps, "threads={threads}");
        }
    }

    #[test]
    fn tridiagonal_input_validation_matches_jacobi() {
        // The contract the Jacobi solver had, value for value: asymmetry
        // is judged against 1e-9 of the largest entry — under it the input
        // is averaged, over it refused — and errors name this function.
        let skewed = |rel: f64| {
            let mut a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 2.0]]).unwrap();
            a[(0, 1)] += rel * 4.0;
            eigen_symmetric(&a)
        };
        assert!(skewed(0.5e-9).is_ok());
        assert!(matches!(skewed(2e-9), Err(LinalgError::NotSymmetric { .. })));
        assert!(matches!(
            eigen_symmetric(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { op: "eigen_symmetric", shape: (2, 3) })
        ));
        let mut nan = Matrix::identity(2);
        nan[(1, 0)] = f64::NAN;
        assert!(matches!(
            eigen_symmetric(&nan),
            Err(LinalgError::NonFinite { op: "eigen_symmetric" })
        ));
    }

    #[test]
    fn tridiagonal_small_matrices_exact() {
        // No reflector at n = 1 and 2, exactly one at n = 3.
        let e = eigen_symmetric(&Matrix::from_diag(&[7.0])).unwrap();
        assert_eq!((e.eigenvalues, e.eigenvectors.as_slice()), (vec![7.0], &[1.0][..]));
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let e = eigen_symmetric(&a).unwrap();
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
        // [2] ⊕ [[3, 4], [4, 9]] → {11, 2, 1}.
        let a = Matrix::from_rows(&[vec![2.0, 0.0, 0.0], vec![0.0, 3.0, 4.0], vec![0.0, 4.0, 9.0]])
            .unwrap();
        let e = eigen_symmetric(&a).unwrap();
        for (l, want) in e.eigenvalues.iter().zip([11.0, 2.0, 1.0]) {
            assert!((l - want).abs() < 1e-12, "{l} vs {want}");
        }
    }

    #[test]
    fn moderately_sized_psd_matrix() {
        // Covariance-like matrix: A = B^T B is PSD; all eigenvalues >= 0.
        let b = Matrix::from_fn(40, 20, |i, j| ((i * 31 + j * 17) % 101) as f64 / 101.0 - 0.5);
        let a = b.transpose().matmul(&b).unwrap();
        let e = eigen_symmetric(&a).unwrap();
        for &l in &e.eigenvalues {
            assert!(l > -1e-9, "PSD eigenvalue went negative: {l}");
        }
        // Eigenvalues descending.
        for w in e.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(reconstruct(&e).approx_eq(&a, 1e-8));
    }
}
