//! Choosing how a model fit gets its singular triplets.
//!
//! Every consumer of the subspace method ultimately needs one thing from
//! this crate: the top singular triplets of an `n x p` data matrix. Every
//! fit is exact, and factors whichever Gram matrix is smaller: the `p x p`
//! column Gram `XᵀX` of the paper's tall windows (2016 bins × 121 OD
//! pairs), or the `n x n` row Gram `XXᵀ` of a window with fewer bins than
//! OD pairs (24 bins × 90 000 OD pairs is a 24 × 24 eigenproblem).
//! [`truncated_svd`] is the one place that choice is made, by shape alone.

use crate::center::column_means;
use crate::error::Result;
use crate::matrix::Matrix;
use crate::row_gram::centered_row_gram_svd;
use crate::svd::{centered_thin_svd, Svd};

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
    /// The exact fit of [`truncated_svd`]: the column Gram when `p ≤ n`,
    /// the row Gram otherwise.
    #[default]
    Auto,
}

/// Centers `x` on its column means μ and computes the thin SVD of
/// `X − 1μᵀ`, with the right singular vectors of its top `rank` triplets;
/// returns it with μ and that matrix's total energy `‖X − 1μᵀ‖²_F` — the
/// one fitting route every model takes.
///
/// The route is set by shape: a window no wider than it is long (`p ≤ n`)
/// is factored through its `p x p` column Gram (memory and time `O(p²)` /
/// `O(n p² + p³)`), a wider one through its `n x n` row Gram (`O(n²)` /
/// `O(n² p)`, beside the `p x k` loadings of the `k` axes asked for). Both
/// are exact, through the same blocked Householder + QR eigensolver
/// ([`crate::eigen_symmetric`]), and bit-identical for every thread count.
///
/// Triplets come in descending σ order: **every direction the data has**,
/// whatever `rank` asks for, so callers relying on tail eigenvalues
/// (detection thresholds) get them exactly. Both routes keep one rule: σ
/// above `√ε · σ_max` — a smaller one is rounding, not data — and at most
/// `n − 1` triplets, the rank of a window centered on its own means. Size
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
/// Propagates the solver's numeric errors (empty input, non-finite
/// centered values, non-convergence).
///
/// # Examples
///
/// ```
/// use odflow_linalg::{column_means, truncated_svd, Matrix};
///
/// let x = Matrix::from_fn(40, 24, |i, j| {
///     ((i * 3 + j * 7) % 11) as f64 + if i == j { 5.0 } else { 0.0 }
/// });
/// let (svd, means, _) = truncated_svd(&x, 4).unwrap();
/// assert_eq!(means, column_means(&x));
/// assert_eq!(svd.rank(), 24); // the whole spectrum, whatever rank was asked,
/// assert_eq!(svd.v.ncols(), 4); // and the axes asked for
/// // Every axis asked for: `Xc V Vᵀ` is the centered window `Xc`.
/// let centered = Matrix::from_fn(40, 24, |i, j| x[(i, j)] - means[j]);
/// let (svd, _, _) = truncated_svd(&x, 24).unwrap();
/// let projected = centered.matmul(&svd.v).unwrap().matmul(&svd.v.transpose()).unwrap();
/// assert!(projected.approx_eq(&centered, 1e-8));
///
/// // A window wider than it is long goes through its row Gram: 12 x 12
/// // here. Its centered rows span eleven directions (one goes to the
/// // mean), and their axes span the centered window, to the Gram route's
/// // √ε resolution.
/// let wide = Matrix::from_fn(12, 600, |i, j| ((i * 5 + j * 3) % 13) as f64);
/// let (row_gram, wide_means, _) = truncated_svd(&wide, 12).unwrap();
/// assert_eq!(row_gram.rank(), 11);
/// let centered = Matrix::from_fn(12, 600, |i, j| wide[(i, j)] - wide_means[j]);
/// let v = &row_gram.v;
/// let projected = centered.matmul(v).unwrap().matmul(&v.transpose()).unwrap();
/// assert!(projected.approx_eq(&centered, 1e-6 * centered.max_abs()));
/// ```
pub fn truncated_svd(x: &Matrix, rank: usize) -> Result<(Svd, Vec<f64>, f64)> {
    let (n, p) = x.shape();
    let means = column_means(x);
    let max_rank = n.saturating_sub(1);
    let svd = if p <= n {
        centered_thin_svd(x, &means, max_rank, rank)?
    } else {
        centered_row_gram_svd(x, &means, max_rank, rank)?
    };
    let energy = svd.sigma.iter().map(|s| s * s).sum();
    Ok((svd, means, energy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::LinalgError;

    /// The bits of a decomposition: σ and `V`.
    fn bits(svd: &Svd) -> (Vec<u64>, Vec<u64>) {
        let words = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect();
        (words(&svd.sigma), words(svd.v.as_slice()))
    }

    /// The integer-residue window that once failed to converge on the
    /// column Gram at 2–4 × 512: `x_ij = (5i + 3j) mod 13 + (ij mod 7)`.
    fn residues(n: usize, p: usize) -> Matrix {
        Matrix::from_fn(n, p, |i, j| ((i * 5 + j * 3) % 13) as f64 + (i * j % 7) as f64)
    }

    #[test]
    fn auto_resolves_by_dimension() {
        // No more OD pairs than bins: the column Gram. Any wider window:
        // the row Gram. Both keep at most n − 1 triplets.
        let column = [(12, 11), (12, 12), (40, 12), (130, 121)];
        let row = [(12, 13), (2, 512), (48, 121), (12, 600)];
        for (shapes, wide) in [(column, false), (row, true)] {
            for (n, p) in shapes {
                let x = residues(n, p);
                let means = column_means(&x);
                let (got, got_means, energy) = truncated_svd(&x, 4).unwrap();
                let want = if wide {
                    centered_row_gram_svd(&x, &means, n - 1, 4).unwrap()
                } else {
                    centered_thin_svd(&x, &means, n - 1, 4).unwrap()
                };
                assert_eq!(bits(&got), bits(&want), "{n} x {p}");
                assert_eq!(got_means, means, "{n} x {p}");
                let want_energy: f64 = want.sigma.iter().map(|s| s * s).sum();
                assert_eq!(energy.to_bits(), want_energy.to_bits(), "{n} x {p}");
                assert!(got.rank() <= (n - 1).min(p), "{n} x {p}: rank {}", got.rank());
            }
        }
    }

    #[test]
    fn dense_backend_returns_full_spectrum() {
        let x = Matrix::from_fn(12, 6, |i, j| ((i + 1) * (j + 2)) as f64 + (i as f64 * 0.3).sin());
        let (svd, means, _) = truncated_svd(&x, 2).unwrap();
        assert!(svd.rank() > 2, "asked for 2, the dense path keeps all {}", svd.rank());
        // ...but builds the two axes asked for, which are the top two of
        // the centered window: `VᵀXcᵀXcV = diag(σ₁², σ₂²)`.
        assert_eq!(svd.v.ncols(), 2);
        let xc = Matrix::from_fn(12, 6, |i, j| x[(i, j)] - means[j]);
        let xv = xc.matmul(&svd.v).unwrap();
        let sq = Matrix::from_diag(&[svd.sigma[0].powi(2), svd.sigma[1].powi(2)]);
        assert!(xv.transpose().matmul(&xv).unwrap().approx_eq(&sq, 1e-10 * sq[(0, 0)]));
    }

    #[test]
    fn tridiagonal_backend_matches_jacobi_spectrum() {
        // σ² against the eigenvalues an independent solver finds for XcᵀXc
        // — the sort, clamp, cutoff and square root between
        // `eigen_symmetric` and the returned triplets. Entries mod 13
        // repeat every 13 rows, so the 18 x 18 Gram is rank-deficient: the
        // oracle's eigenvalues past the retained ones are rounding.
        let x = Matrix::from_fn(30, 18, |i, j| ((i * 5 + j * 3) % 13) as f64 - 6.0);
        let (svd, _, _) = truncated_svd(&x, 4).unwrap();
        let centered = crate::center::centered_copy(&x);
        let oracle = crate::eigen::jacobi::jacobi_oracle(&crate::cov::scatter(&centered).unwrap());
        let scale = 1.0 + oracle.eigenvalues[0];
        assert!(svd.rank() >= 12 && svd.rank() < 18, "rank {}", svd.rank());
        for (s, l) in svd.sigma.iter().zip(&oracle.eigenvalues) {
            assert!((s * s - l).abs() <= 1e-11 * scale, "σ² = {} vs λ = {l}", s * s);
        }
        for l in &oracle.eigenvalues[svd.rank()..] {
            assert!(l.abs() <= 1e-11 * scale, "dropped λ = {l}");
        }
    }

    #[test]
    fn dispatch_matches_direct_calls() {
        // A tall window goes to the column Gram, the public `thin_svd` of
        // its centered copy, bit for bit (n − 1 = 29 caps nothing there).
        let x = Matrix::from_fn(30, 25, |i, j| ((i * 5 + j * 3) % 13) as f64 - 6.0);
        let direct = crate::thin_svd(&crate::center::centered_copy(&x)).unwrap();
        let energy: f64 = direct.sigma.iter().map(|s| s * s).sum();
        let (svd, means, e) = truncated_svd(&x, 4).unwrap();
        assert_eq!(means, column_means(&x));
        assert_eq!(svd.sigma, direct.sigma);
        let leading = direct.v.select_cols(&[0, 1, 2, 3]).unwrap();
        assert_eq!(svd.v.as_slice(), leading.as_slice());
        assert_eq!(e.to_bits(), energy.to_bits());
    }

    #[test]
    fn both_routes_agree_on_rank_either_side_of_the_rule() {
        // p = n − 1 and n take the column Gram, n + 1 the row Gram; the
        // other route, called directly, keeps the same n − 1 triplets: the
        // window is the residues plus hash noise, so every centered
        // direction is data and the only ones dropped are the rounding
        // the cap removes. (On the residues alone, rank 16 in 24 bins,
        // rounding σ lie at 1.0–1.8 × √ε · σ_max: either side of the
        // cutoff, so the routes may count them differently.)
        let n = 24;
        for p in [n - 1, n, n + 1] {
            let base = residues(n, p);
            let x = Matrix::from_fn(n, p, |i, j| {
                let z = ((i * 7919 + j * 104_729) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                base[(i, j)] + (z >> 11) as f64 / (1u64 << 53) as f64
            });
            let means = column_means(&x);
            let column = centered_thin_svd(&x, &means, n - 1, 4).unwrap();
            let row = centered_row_gram_svd(&x, &means, n - 1, 4).unwrap();
            assert_eq!(column.rank(), row.rank(), "{n} x {p}");
            assert_eq!(column.rank(), (n - 1).min(p), "{n} x {p}");
        }
    }

    #[test]
    fn column_gram_refuses_centered_values_that_overflow() {
        // Every input and every mean is finite, but column 0's first value
        // lies ≈ 1.9e308 from its mean: the centered window is not finite.
        let mut x = Matrix::from_fn(5, 3, |i, j| (i * 3 + j) as f64);
        for (i, v) in [1.6e308, -1.6e308, -1.6e308, 1.0, 2.0].into_iter().enumerate() {
            x[(i, 0)] = v;
        }
        let means = column_means(&x);
        assert!(x.all_finite() && means.iter().all(|m| m.is_finite()));
        assert!(matches!(truncated_svd(&x, 2), Err(LinalgError::NonFinite { op: "thin_svd" })));
    }
}
