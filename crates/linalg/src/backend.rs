//! Choosing how a model fit gets its singular triplets.
//!
//! Every consumer of the subspace method ultimately needs one thing from
//! this crate: the top singular triplets of an `n x p` data matrix. Every
//! fit is exact, and factors whichever Gram matrix is small: the `p x p`
//! column Gram `XᵀX` of the paper's tall windows (2016 bins × 121 OD
//! pairs), or the `n x n` row Gram `XXᵀ` of a window with few bins and
//! many OD pairs (24 bins × 90 000 OD pairs is a 24 × 24 eigenproblem).
//! [`truncated_svd`] is the one place that choice is made, by shape alone.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::row_gram::centered_row_gram_svd;
use crate::svd::{centered_thin_svd, Svd};

/// Widest window [`truncated_svd`] factors through its `p x p` column Gram
/// whatever its bins: `O(p²)` memory and `O(n p² + p³)` time, hundreds of
/// milliseconds at 512. A window wider than this and than it is long goes
/// through its `n x n` row Gram instead, `O(n²)` memory and `O(n² p)`
/// time.
pub const AUTO_DENSE_MAX_DIM: usize = 512;

/// How a model fit computes its decomposition. There is one way — the
/// exact fit [`truncated_svd`] makes, its Gram chosen by the window's
/// shape — so this enum has one variant; it stays, with
/// `SubspaceConfig::method`, because the frozen `e2e_bench` names both.
/// The next `[benchmark]` PR drops those names and this type goes.
///
/// # Examples
///
/// ```
/// use odflow_linalg::EigenMethod;
///
/// assert_eq!(EigenMethod::default(), EigenMethod::Auto);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EigenMethod {
    /// The exact fit of [`truncated_svd`]: the column Gram when
    /// `p ≤ max(n, AUTO_DENSE_MAX_DIM)`, the row Gram otherwise.
    #[default]
    Auto,
}

/// Computes the thin SVD of the column-centered `X − 1μᵀ` (μ = `means`,
/// one per column of `x`; zeros factor `x` as it is), with the right
/// singular vectors of its top `rank` triplets, and that matrix's total
/// energy `‖X − 1μᵀ‖²_F` — the one fitting route every model takes.
///
/// The route is set by shape: a window at most `max(n,
/// AUTO_DENSE_MAX_DIM)` wide is factored through its `p x p` column Gram
/// (memory and time `O(p²)` / `O(n p² + p³)`), a wider one through its
/// `n x n` row Gram (`O(n²)` / `O(n² p)`, beside the `p x k` loadings of
/// the `k` axes asked for). Both are exact, through the same blocked
/// Householder + QR eigensolver ([`crate::eigen_symmetric`]), and
/// bit-identical for every thread count.
///
/// Triplets come in descending σ order: the **whole spectrum**, whatever
/// `rank` asks for, so callers relying on tail eigenvalues (detection
/// thresholds) get them exactly. The row Gram drops triplets below
/// `√ε · σ_max` as rounding, not data; the column Gram keeps all `p`. Size
/// against the returned [`Svd::rank`], never the request.
///
/// `rank` sets what is built of `V`: exactly the top `min(rank, r)` right
/// singular vectors (`r` = [`Svd::rank`]), while `sigma` keeps every
/// retained triplet. A model needs axes for its normal subspace only, and
/// the tail enters its thresholds through σ alone; at 90 000 OD pairs each
/// column left out is 0.7 MB. Ask for `r` or more (`min(n, p)` always is)
/// to get the whole panel. No route builds the left singular vectors: the
/// column Gram's `V` comes straight from its eigenvectors, and the row
/// Gram turns its small eigenvectors into `V` and drops them.
///
/// No route copies `x`: each subtracts μ from an element as it loads it.
/// The energy is `Σ σ²` over the spectrum returned.
///
/// # Errors
///
/// [`LinalgError::ShapeMismatch`] unless `means.len() == x.ncols()`;
/// otherwise propagates the solver's numeric errors (empty or non-finite
/// input, non-convergence).
///
/// # Examples
///
/// ```
/// use odflow_linalg::{column_means, truncated_svd, Matrix};
///
/// let x = Matrix::from_fn(40, 24, |i, j| {
///     ((i * 3 + j * 7) % 11) as f64 + if i == j { 5.0 } else { 0.0 }
/// });
/// let (svd, _) = truncated_svd(&x, &[0.0; 24], 4).unwrap();
/// assert_eq!(svd.rank(), 24); // the whole spectrum, whatever rank was asked,
/// assert_eq!(svd.v.ncols(), 4); // and the axes asked for
/// // Every axis asked for: `X V Vᵀ` is `X`.
/// let (svd, _) = truncated_svd(&x, &[0.0; 24], 24).unwrap();
/// let projected = x.matmul(&svd.v).unwrap().matmul(&svd.v.transpose()).unwrap();
/// assert!(projected.approx_eq(&x, 1e-8));
///
/// // A window wider than 512 with fewer bins goes through its 12 x 12 row
/// // Gram. Its centered rows span eleven directions (one goes to the
/// // mean), and their axes span the centered window, to the Gram route's
/// // √ε resolution.
/// let wide = Matrix::from_fn(12, 600, |i, j| ((i * 5 + j * 3) % 13) as f64);
/// let wide_means = column_means(&wide);
/// let (row_gram, _) = truncated_svd(&wide, &wide_means, 12).unwrap();
/// let centered = Matrix::from_fn(12, 600, |i, j| wide[(i, j)] - wide_means[j]);
/// let v = row_gram.v.select_cols(&(0..11).collect::<Vec<_>>()).unwrap();
/// let projected = centered.matmul(&v).unwrap().matmul(&v.transpose()).unwrap();
/// assert!(projected.approx_eq(&centered, 1e-6 * centered.max_abs()));
/// ```
pub fn truncated_svd(x: &Matrix, means: &[f64], rank: usize) -> Result<(Svd, f64)> {
    if means.len() != x.ncols() {
        return Err(LinalgError::ShapeMismatch {
            op: "truncated_svd",
            lhs: x.shape(),
            rhs: (1, means.len()),
        });
    }
    let (n, p) = x.shape();
    if p > n.max(AUTO_DENSE_MAX_DIM) {
        return centered_row_gram_svd(x, means, rank);
    }
    let mut svd = centered_thin_svd(x, means, 0.0)?;
    let energy = svd.sigma.iter().map(|s| s * s).sum();
    let leading: Vec<usize> = (0..rank.min(svd.rank())).collect();
    svd.v = svd.v.select_cols(&leading)?;
    Ok((svd, energy))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bits of a decomposition: σ, `V` and the energy.
    fn bits((svd, energy): &(Svd, f64)) -> (Vec<u64>, Vec<u64>, u64) {
        let words = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect();
        (words(&svd.sigma), words(svd.v.as_slice()), energy.to_bits())
    }

    #[test]
    fn auto_resolves_by_dimension() {
        // At most AUTO_DENSE_MAX_DIM OD pairs, or no more OD pairs than
        // bins: the column Gram. Any wider window: the row Gram.
        let big = AUTO_DENSE_MAX_DIM + 8;
        let column = [(12, 40), (12, AUTO_DENSE_MAX_DIM), (big + 3, big)];
        let row = [(12, AUTO_DENSE_MAX_DIM + 1), (2, big), (big - 1, big)];
        for (shapes, wide) in [(column, false), (row, true)] {
            for (n, p) in shapes {
                let x = Matrix::from_fn(n, p, |i, j| {
                    ((i * 5 + j * 3) % 13) as f64 + (i * j % 7) as f64
                });
                let means = crate::center::column_means(&x);
                let got = truncated_svd(&x, &means, 4).unwrap();
                let want = if wide {
                    centered_row_gram_svd(&x, &means, 4).unwrap()
                } else {
                    let mut svd = centered_thin_svd(&x, &means, 0.0).unwrap();
                    let energy = svd.sigma.iter().map(|s| s * s).sum();
                    svd.v = svd.v.select_cols(&[0, 1, 2, 3]).unwrap();
                    (svd, energy)
                };
                assert_eq!(bits(&got), bits(&want), "{n} x {p}");
            }
        }
    }

    #[test]
    fn dense_backend_returns_full_spectrum() {
        let x = Matrix::from_fn(12, 6, |i, j| ((i + 1) * (j + 2)) as f64 + (i as f64 * 0.3).sin());
        let (svd, _) = truncated_svd(&x, &[0.0; 6], 2).unwrap();
        assert!(svd.rank() > 2, "asked for 2, the dense path keeps all {}", svd.rank());
        // ...but builds the two axes asked for, which are the top two:
        // `VᵀXᵀXV = diag(σ₁², σ₂²)`.
        assert_eq!(svd.v.ncols(), 2);
        let xv = x.matmul(&svd.v).unwrap();
        let sq = Matrix::from_diag(&[svd.sigma[0].powi(2), svd.sigma[1].powi(2)]);
        assert!(xv.transpose().matmul(&xv).unwrap().approx_eq(&sq, 1e-10 * sq[(0, 0)]));
    }

    #[test]
    fn tridiagonal_backend_matches_jacobi_spectrum() {
        // σ² against the eigenvalues an independent solver finds for XᵀX —
        // the sort, clamp and square root between `eigen_symmetric` and
        // the returned triplets. Entries mod 13 repeat every 13 rows, so
        // the 18 x 18 Gram is rank-deficient and the tail is rounding.
        let x = Matrix::from_fn(30, 18, |i, j| ((i * 5 + j * 3) % 13) as f64 - 6.0);
        let (svd, _) = truncated_svd(&x, &[0.0; 18], 4).unwrap();
        let oracle = crate::eigen::jacobi::jacobi_oracle(&crate::cov::scatter(&x).unwrap());
        let scale = 1.0 + oracle.eigenvalues[0];
        assert!(svd.rank() >= 13);
        for (s, l) in svd.sigma.iter().zip(&oracle.eigenvalues) {
            assert!((s * s - l).abs() <= 1e-11 * scale, "σ² = {} vs λ = {l}", s * s);
        }
    }

    #[test]
    fn dispatch_matches_direct_calls() {
        let x = Matrix::from_fn(25, 30, |i, j| ((i * 5 + j * 3) % 13) as f64 - 6.0);
        let means = crate::center::column_means(&x);
        let direct = crate::thin_svd(&crate::center::centered_copy(&x), 0.0).unwrap();
        let energy: f64 = direct.sigma.iter().map(|s| s * s).sum();
        let (svd, e) = truncated_svd(&x, &means, 4).unwrap();
        assert_eq!(svd.sigma, direct.sigma);
        let leading = direct.v.select_cols(&[0, 1, 2, 3]).unwrap();
        assert_eq!(svd.v.as_slice(), leading.as_slice());
        assert_eq!(e.to_bits(), energy.to_bits());
    }

    #[test]
    fn column_gram_refuses_centered_values_that_overflow() {
        // Every input and every mean is finite, but column 0's first value
        // lies ≈ 1.9e308 from its mean: the centered window is not finite.
        let mut x = Matrix::from_fn(5, 3, |i, j| (i * 3 + j) as f64);
        for (i, v) in [1.6e308, -1.6e308, -1.6e308, 1.0, 2.0].into_iter().enumerate() {
            x[(i, 0)] = v;
        }
        let means = crate::center::column_means(&x);
        assert!(x.all_finite() && means.iter().all(|m| m.is_finite()));
        assert!(matches!(
            truncated_svd(&x, &means, 2),
            Err(LinalgError::NonFinite { op: "thin_svd" })
        ));
    }

    #[test]
    fn means_must_cover_every_column() {
        for x in [Matrix::identity(4), Matrix::zeros(2, AUTO_DENSE_MAX_DIM + 1)] {
            assert!(matches!(
                truncated_svd(&x, &[0.0; 3], 2),
                Err(LinalgError::ShapeMismatch { op: "truncated_svd", .. })
            ));
        }
    }
}
