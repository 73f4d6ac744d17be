//! Choosing how a model fit gets its singular triplets.
//!
//! Every consumer of the subspace method ultimately needs one thing from
//! this crate: the top singular triplets of an `n x p` data matrix. The
//! dense route is exact and factors whichever Gram matrix is small: the
//! `p x p` column Gram `XᵀX` of the paper's tall windows (2016 bins × 121
//! OD pairs), or the `n x n` row Gram `XXᵀ` of a window with few bins and
//! many OD pairs (24 bins × 90 000 OD pairs is a 24 × 24 eigenproblem).
//! The randomized range finder ([`EigenMethod::RandomizedTruncated`])
//! takes the windows long *and* wide, touching nothing larger than a
//! `p x (k + oversample)` panel. [`EigenMethod`] is the selector
//! `SubspaceConfig` carries, and [`truncated_svd`] the one place it is
//! acted on.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::randomized::{
    centered_randomized_svd, centered_row_gram_svd, row_gram_within_sketch_cost,
    RandomizedSvdOptions, DEFAULT_SKETCH_SEED,
};
use crate::svd::{centered_thin_svd, Svd};

/// Largest Gram dimension [`EigenMethod::Auto`] factors exactly. A window
/// with at most this many OD pairs `p` stays on the dense exact path
/// through its `p x p` column Gram: `O(p²)` memory and `O(n p² + p³)`
/// time, hundreds of milliseconds at 512. A wider one with at most this
/// many bins `n` goes through its `n x n` row Gram only while that costs
/// no more than the randomized sketch it replaces: the row Gram's
/// `O(n² p)` multiply-adds grow with `p` as the sketch's `O(n (k +
/// oversample) p)` do, but `n / (k + oversample)` times faster. Every
/// other window takes the randomized truncated solver.
pub const AUTO_DENSE_MAX_DIM: usize = 512;

/// How to compute the eigen/singular decomposition during model fitting.
///
/// # Examples
///
/// ```
/// use odflow_linalg::EigenMethod;
///
/// // Auto takes the dense exact path at the paper's scale, for mid-size
/// // meshes, and for a wide window with few bins (k = 10 here)...
/// let dense = EigenMethod::DenseTridiagonal;
/// assert_eq!(EigenMethod::Auto.resolve((2016, 121), 10), dense);
/// assert_eq!(EigenMethod::Auto.resolve((2016, 512), 10), dense);
/// assert_eq!(EigenMethod::Auto.resolve((24, 90_000), 10), dense);
/// // ...and the randomized truncated path once the wide window has more
/// // bins than its row Gram can factor for the sketch's cost.
/// for n in [96, 2016] {
///     assert!(matches!(
///         EigenMethod::Auto.resolve((n, 90_000), 10),
///         EigenMethod::RandomizedTruncated { .. }
///     ));
/// }
/// // Explicit choices resolve to themselves.
/// assert_eq!(dense.resolve((2016, 90_000), 10), dense);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EigenMethod {
    /// A dense Gram matrix + blocked Householder tridiagonalization and
    /// implicit Wilkinson-shift QR ([`crate::eigen_symmetric`]): the exact
    /// spectrum, bit-identical for every thread count. A window at most
    /// `max(n, AUTO_DENSE_MAX_DIM)` wide is factored through its `p x p`
    /// column Gram (memory and time `O(p²)` / `O(p³)`), a wider one through
    /// its `n x n` row Gram (`O(n²)` / `O(n² p)`, beside the `p x k`
    /// loadings of the `k` axes asked for).
    ///
    /// ```
    /// use odflow_linalg::{truncated_svd, EigenMethod, Matrix};
    ///
    /// let x = Matrix::from_fn(40, 24, |i, j| {
    ///     ((i * 3 + j * 7) % 11) as f64 + if i == j { 5.0 } else { 0.0 }
    /// });
    /// let (svd, _) = truncated_svd(&x, &[0.0; 24], 4, EigenMethod::DenseTridiagonal).unwrap();
    /// assert_eq!(svd.rank(), 24); // the whole spectrum, whatever rank was asked,
    /// assert_eq!(svd.v.ncols(), 4); // and the axes asked for
    /// // Every axis asked for: `X V Vᵀ` is `X`.
    /// let (svd, _) = truncated_svd(&x, &[0.0; 24], 24, EigenMethod::DenseTridiagonal).unwrap();
    /// let projected = x.matmul(&svd.v).unwrap().matmul(&svd.v.transpose()).unwrap();
    /// assert!(projected.approx_eq(&x, 1e-8));
    /// ```
    DenseTridiagonal,
    /// Halko-style randomized range finder: Gaussian sketch, a few power
    /// iterations, and a dense eigenproblem on the tiny
    /// `(k + oversample)²` projected matrix. Deterministic for a fixed
    /// `seed` (and bit-identical for every thread count); never
    /// materializes anything `p x p`.
    RandomizedTruncated {
        /// Extra sketch columns beyond the requested rank (5-10 typical).
        oversample: usize,
        /// Power iterations tightening the range (1-2 typical).
        power_iters: usize,
        /// Seed of the ChaCha8 Gaussian sketch stream.
        seed: u64,
    },
    /// Pick by problem size: [`EigenMethod::DenseTridiagonal`] when the
    /// window has at most [`AUTO_DENSE_MAX_DIM`] OD pairs, or at most that
    /// many bins and few enough that its row Gram costs no more than the
    /// sketch (`2n ≤ (2q + 3)(k + oversample)`: 63 bins at `k = 10`);
    /// otherwise [`EigenMethod::RandomizedTruncated`] with default
    /// parameters (`oversample = 8`, `power_iters = 2`, a fixed seed). This
    /// is the default carried by `SubspaceConfig`.
    #[default]
    Auto,
}

impl EigenMethod {
    /// Collapses [`EigenMethod::Auto`] into a concrete method for the top
    /// `rank` triplets of an `n x p` window (`shape = (n, p)`: bins, OD
    /// pairs); explicit choices return themselves.
    pub fn resolve(self, (n, p): (usize, usize), rank: usize) -> EigenMethod {
        if self != EigenMethod::Auto {
            return self;
        }
        let d = RandomizedSvdOptions::default();
        let row_gram = n <= AUTO_DENSE_MAX_DIM && row_gram_within_sketch_cost((n, p), rank, d);
        if p <= AUTO_DENSE_MAX_DIM || row_gram {
            EigenMethod::DenseTridiagonal
        } else {
            EigenMethod::RandomizedTruncated {
                oversample: d.oversample,
                power_iters: d.power_iters,
                seed: DEFAULT_SKETCH_SEED,
            }
        }
    }

    /// `true` when fitting the top `rank` triplets of an `n x p` window
    /// (`shape = (n, p)`) takes the dense exact path and so returns the
    /// full spectrum.
    pub fn is_dense_for(self, shape: (usize, usize), rank: usize) -> bool {
        self.resolve(shape, rank) == EigenMethod::DenseTridiagonal
    }
}

/// Computes (at least) the top-`rank` thin SVD of the column-centered
/// `X − 1μᵀ` (μ = `means`, one per column of `x`; zeros factor `x` as it
/// is) with the selected method, and that matrix's total energy
/// `‖X − 1μᵀ‖²_F` — the one dispatch point every fitting path goes
/// through.
///
/// Triplets come in descending σ order with an orthonormal `V` panel, up
/// to the **numerical rank** of the data, which may be fewer than `rank`
/// (numerically zero directions are dropped rather than returned as
/// garbage) and may be more: the dense path returns the full spectrum, so
/// callers relying on tail eigenvalues (detection thresholds) get them
/// exactly, and the randomized path returns its `rank + oversample` sketch
/// width. Size against the returned [`Svd::rank`], never the request.
///
/// `rank` also sets what is built of `V`: exactly the top `min(rank, r)`
/// right singular vectors (`r` = [`Svd::rank`]), while `sigma` keeps every
/// retained triplet. A model needs axes for its normal subspace only, and
/// the tail enters its thresholds through σ alone; at 90 000 OD pairs each
/// column left out is 0.7 MB. Ask for `r` or more (`min(n, p)` always is)
/// to get the whole panel. No route builds the left singular vectors: the
/// column Gram's `V` comes straight from its eigenvectors, and the row
/// Gram and the sketch turn their small eigenvectors into `V` and drop
/// them.
///
/// No route copies `x`: each subtracts μ from an element as it loads it.
/// The dense path's energy is `Σ σ²` over the spectrum it returns, from
/// the column Gram (`p ≤ max(n, AUTO_DENSE_MAX_DIM)`) or the row Gram (any
/// wider window, which drops triplets below `√ε · σ_max` as rounding, not
/// data). The randomized path's energy — whose excess over the retained
/// `Σ σ²` is the tail the truncation leaves unseen — is one row-major pass
/// over `x` that doubles as the finiteness check of the centered values.
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
/// use odflow_linalg::{column_means, truncated_svd, EigenMethod, Matrix};
///
/// let x = Matrix::from_fn(30, 40, |i, j| ((i * 3 + j * 7) % 11) as f64);
/// let means = column_means(&x);
/// let (dense, energy) = truncated_svd(&x, &means, 5, EigenMethod::DenseTridiagonal).unwrap();
/// let (auto, _) = truncated_svd(&x, &means, 5, EigenMethod::Auto).unwrap(); // p=40 -> dense
/// assert_eq!(dense.sigma, auto.sigma);
///
/// // A window wider than 512 with fewer bins goes through its 12 x 12 row
/// // Gram. Its centered rows span eleven directions (one goes to the
/// // mean), and their axes span the centered window, to the Gram route's
/// // √ε resolution.
/// let wide = Matrix::from_fn(12, 600, |i, j| ((i * 5 + j * 3) % 13) as f64);
/// let wide_means = column_means(&wide);
/// let (row_gram, _) = truncated_svd(&wide, &wide_means, 12, EigenMethod::Auto).unwrap();
/// let centered = Matrix::from_fn(12, 600, |i, j| wide[(i, j)] - wide_means[j]);
/// let v = row_gram.v.select_cols(&(0..11).collect::<Vec<_>>()).unwrap();
/// let projected = centered.matmul(&v).unwrap().matmul(&v.transpose()).unwrap();
/// assert!(projected.approx_eq(&centered, 1e-6 * centered.max_abs()));
///
/// // A sketch keeps its width of triplets, and still reports the energy
/// // of the whole centered matrix; V holds the 5 axes asked for.
/// let sketch = EigenMethod::RandomizedTruncated { oversample: 3, power_iters: 2, seed: 1 };
/// let (rnd, rnd_energy) = truncated_svd(&x, &means, 5, sketch).unwrap();
/// assert!(rnd.rank() <= 8);
/// assert_eq!(rnd.v.shape(), (40, 5));
/// assert!((rnd_energy - energy).abs() <= 1e-9 * energy);
/// ```
pub fn truncated_svd(
    x: &Matrix,
    means: &[f64],
    rank: usize,
    method: EigenMethod,
) -> Result<(Svd, f64)> {
    if means.len() != x.ncols() {
        return Err(LinalgError::ShapeMismatch {
            op: "truncated_svd",
            lhs: x.shape(),
            rhs: (1, means.len()),
        });
    }
    let (n, p) = x.shape();
    match method.resolve((n, p), rank) {
        EigenMethod::RandomizedTruncated { oversample, power_iters, seed } => {
            let opts = RandomizedSvdOptions { oversample, power_iters, seed };
            centered_randomized_svd(x, means, rank, opts, rank)
        }
        // `resolve` never returns `Auto`.
        EigenMethod::DenseTridiagonal | EigenMethod::Auto => {
            if p > n.max(AUTO_DENSE_MAX_DIM) {
                return centered_row_gram_svd(x, means, rank);
            }
            let mut svd = centered_thin_svd(x, means, 0.0)?;
            let energy = svd.sigma.iter().map(|s| s * s).sum();
            let leading: Vec<usize> = (0..rank.min(svd.rank())).collect();
            svd.v = svd.v.select_cols(&leading)?;
            Ok((svd, energy))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolves_by_dimension() {
        let dense = |shape, rank| EigenMethod::Auto.is_dense_for(shape, rank);
        let big = AUTO_DENSE_MAX_DIM + 1;
        // At most AUTO_DENSE_MAX_DIM OD pairs: the column Gram, whatever n.
        for shape in [(2, 2), (2016, 121), (90_000, 24), (big, AUTO_DENSE_MAX_DIM)] {
            assert!(dense(shape, 4), "{shape:?}");
        }
        // A wider window: the row Gram while 2n ≤ 7 (k + 8), the sketch's
        // width clamped to n — up to 42 bins at k = 4, 63 at k = 10, and any
        // n whose sketch would span every bin — if n ≤ AUTO_DENSE_MAX_DIM.
        for (n, k) in [(24, 4), (42, 4), (24, 10), (63, 10), (2, 1), (300, 300)] {
            assert!(dense((n, 90_000), k), "n = {n}, k = {k}");
        }
        for (n, k) in [(43, 4), (64, 10), (96, 10), (big, big), (2016, 4)] {
            match EigenMethod::Auto.resolve((n, 90_000), k) {
                EigenMethod::RandomizedTruncated { oversample, power_iters, seed } => {
                    assert_eq!(oversample, 8);
                    assert_eq!(power_iters, 2);
                    assert_eq!(seed, DEFAULT_SKETCH_SEED);
                }
                other => panic!("n = {n}, k = {k}: expected randomized, got {other:?}"),
            }
        }
        assert!(!dense((big, big), 4));
    }

    #[test]
    fn explicit_methods_resolve_to_themselves() {
        let dense = EigenMethod::DenseTridiagonal;
        assert_eq!(dense.resolve((2, 2), 1), dense);
        assert!(dense.is_dense_for((1_000_000, 1_000_000), 4));
        let r = EigenMethod::RandomizedTruncated { oversample: 3, power_iters: 1, seed: 42 };
        assert_eq!(r.resolve((4, 4), 2), r);
        assert!(!r.is_dense_for((4, 4), 2));
    }

    #[test]
    fn dense_backend_returns_full_spectrum() {
        let x = Matrix::from_fn(12, 6, |i, j| ((i + 1) * (j + 2)) as f64 + (i as f64 * 0.3).sin());
        let (svd, _) = truncated_svd(&x, &[0.0; 6], 2, EigenMethod::DenseTridiagonal).unwrap();
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
        let (svd, _) = truncated_svd(&x, &[0.0; 18], 4, EigenMethod::DenseTridiagonal).unwrap();
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
        for method in [EigenMethod::DenseTridiagonal, EigenMethod::Auto] {
            let (svd, e) = truncated_svd(&x, &means, 4, method).unwrap();
            assert_eq!(svd.sigma, direct.sigma);
            let leading = direct.v.select_cols(&[0, 1, 2, 3]).unwrap();
            assert_eq!(svd.v.as_slice(), leading.as_slice());
            assert_eq!(e.to_bits(), energy.to_bits());
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
        let means = crate::center::column_means(&x);
        assert!(x.all_finite() && means.iter().all(|m| m.is_finite()));
        for method in [EigenMethod::DenseTridiagonal, EigenMethod::Auto] {
            assert!(matches!(
                truncated_svd(&x, &means, 2, method),
                Err(LinalgError::NonFinite { op: "thin_svd" })
            ));
        }
    }

    #[test]
    fn means_must_cover_every_column() {
        let x = Matrix::identity(4);
        let sketch = EigenMethod::RandomizedTruncated { oversample: 1, power_iters: 1, seed: 3 };
        for method in [EigenMethod::DenseTridiagonal, EigenMethod::Auto, sketch] {
            assert!(matches!(
                truncated_svd(&x, &[0.0; 3], 2, method),
                Err(LinalgError::ShapeMismatch { op: "truncated_svd", .. })
            ));
        }
    }
}
