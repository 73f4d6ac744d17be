//! Choosing how a model fit gets its singular triplets.
//!
//! Every consumer of the subspace method ultimately needs one thing from
//! this crate: the top singular triplets of an `n x p` data matrix. The
//! paper-scale dense route (full Gram matrix + [`crate::eigen_symmetric`])
//! is exact but `O(p³)` time and `O(p²)` memory, while the randomized range
//! finder ([`crate::randomized_thin_svd`]) touches nothing larger than a
//! `p x (k + oversample)` panel and runs the detector at 90 000 OD pairs.
//! [`EigenMethod`] is the selector `SubspaceConfig` carries, and
//! [`truncated_svd`] the one place it is acted on.

use crate::center::subtract_means;
use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::randomized::{centered_randomized_svd, RandomizedSvdOptions, DEFAULT_SKETCH_SEED};
use crate::svd::{thin_svd, Svd};

/// Largest OD-space dimension `p` at which [`EigenMethod::Auto`] stays on
/// the dense exact path. Up to here the full `p x p` Gram eigenproblem is
/// affordable (hundreds of milliseconds at 512); above it `Auto` switches
/// to the randomized truncated solver, whose cost grows only linearly in
/// `p`.
pub const AUTO_DENSE_MAX_DIM: usize = 512;

/// How to compute the eigen/singular decomposition during model fitting.
///
/// # Examples
///
/// ```
/// use odflow_linalg::EigenMethod;
///
/// // Auto takes the dense exact path at the paper's scale and for
/// // mid-size meshes...
/// assert_eq!(EigenMethod::Auto.resolve(121), EigenMethod::DenseTridiagonal);
/// assert_eq!(EigenMethod::Auto.resolve(512), EigenMethod::DenseTridiagonal);
/// // ...and the randomized truncated path at large-mesh scale.
/// assert!(matches!(
///     EigenMethod::Auto.resolve(90_000),
///     EigenMethod::RandomizedTruncated { .. }
/// ));
/// // Explicit choices resolve to themselves.
/// assert_eq!(EigenMethod::DenseTridiagonal.resolve(90_000), EigenMethod::DenseTridiagonal);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EigenMethod {
    /// Full `p x p` Gram matrix + blocked Householder tridiagonalization
    /// and implicit Wilkinson-shift QR ([`crate::eigen_symmetric`]): the
    /// exact full spectrum, bit-identical for every thread count. Memory
    /// and time grow as `O(p²)` / `O(p³)`.
    ///
    /// ```
    /// use odflow_linalg::{truncated_svd, EigenMethod, Matrix};
    ///
    /// let x = Matrix::from_fn(40, 24, |i, j| {
    ///     ((i * 3 + j * 7) % 11) as f64 + if i == j { 5.0 } else { 0.0 }
    /// });
    /// let (svd, _) = truncated_svd(&x, &[0.0; 24], 4, EigenMethod::DenseTridiagonal).unwrap();
    /// assert_eq!(svd.rank(), 24); // the whole spectrum, whatever rank was asked
    /// assert!(svd.reconstruct().unwrap().approx_eq(&x, 1e-8));
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
    /// Pick by problem size: [`EigenMethod::DenseTridiagonal`] up to
    /// [`AUTO_DENSE_MAX_DIM`], otherwise
    /// [`EigenMethod::RandomizedTruncated`] with default parameters
    /// (`oversample = 8`, `power_iters = 2`, a fixed seed). This is the
    /// default carried by `SubspaceConfig`.
    #[default]
    Auto,
}

impl EigenMethod {
    /// Collapses [`EigenMethod::Auto`] into a concrete method for an
    /// OD-space dimension `p`; explicit choices return themselves.
    pub fn resolve(self, p: usize) -> EigenMethod {
        match self {
            EigenMethod::Auto if p <= AUTO_DENSE_MAX_DIM => EigenMethod::DenseTridiagonal,
            EigenMethod::Auto => {
                let d = RandomizedSvdOptions::default();
                EigenMethod::RandomizedTruncated {
                    oversample: d.oversample,
                    power_iters: d.power_iters,
                    seed: DEFAULT_SKETCH_SEED,
                }
            }
            other => other,
        }
    }

    /// `true` when fitting at dimension `p` takes the dense exact path and
    /// so returns the full spectrum.
    pub fn is_dense_for(self, p: usize) -> bool {
        self.resolve(p) == EigenMethod::DenseTridiagonal
    }
}

/// Computes (at least) the top-`rank` thin SVD of the column-centered
/// `X − 1μᵀ` (μ = `means`, one per column of `x`; zeros factor `x` as it
/// is) with the selected method, and that matrix's total energy
/// `‖X − 1μᵀ‖²_F` — the one dispatch point every fitting path goes
/// through.
///
/// Triplets come in descending σ order with orthonormal `U`/`V` panels, up
/// to the **numerical rank** of the data, which may be fewer than `rank`
/// (numerically zero directions are dropped rather than returned as
/// garbage) and may be more: the dense path returns the full spectrum, so
/// callers relying on tail eigenvalues (detection thresholds) get them
/// exactly, and the randomized path returns its `rank + oversample` sketch
/// width. Size against the returned [`Svd::rank`], never the request.
///
/// The dense path centers a copy of `x` (`n x p`, `p` at most
/// [`AUTO_DENSE_MAX_DIM`] under `Auto`) for the Gram matrix, and its
/// energy is `Σ σ²` over the full spectrum it returns. The randomized path
/// never copies `x`: its products subtract μ from each element as they
/// load it, and its energy — whose excess over the retained `Σ σ²` is the
/// tail the truncation leaves unseen — is one row-major pass over `x` that
/// doubles as the finiteness check of the centered values.
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
/// // A sketch keeps its width of triplets, and still reports the energy
/// // of the whole centered matrix.
/// let sketch = EigenMethod::RandomizedTruncated { oversample: 3, power_iters: 2, seed: 1 };
/// let (rnd, rnd_energy) = truncated_svd(&x, &means, 5, sketch).unwrap();
/// assert!(rnd.rank() <= 8);
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
    match method.resolve(x.ncols()) {
        EigenMethod::RandomizedTruncated { oversample, power_iters, seed } => {
            let opts = RandomizedSvdOptions { oversample, power_iters, seed };
            centered_randomized_svd(x, means, rank, opts)
        }
        // `resolve` never returns `Auto`.
        EigenMethod::DenseTridiagonal | EigenMethod::Auto => {
            let svd = thin_svd(&subtract_means(x, means), 0.0)?;
            let energy = svd.sigma.iter().map(|s| s * s).sum();
            Ok((svd, energy))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolves_by_dimension() {
        assert_eq!(EigenMethod::Auto.resolve(2), EigenMethod::DenseTridiagonal);
        assert_eq!(EigenMethod::Auto.resolve(121), EigenMethod::DenseTridiagonal);
        assert_eq!(EigenMethod::Auto.resolve(AUTO_DENSE_MAX_DIM), EigenMethod::DenseTridiagonal);
        match EigenMethod::Auto.resolve(AUTO_DENSE_MAX_DIM + 1) {
            EigenMethod::RandomizedTruncated { oversample, power_iters, seed } => {
                assert_eq!(oversample, 8);
                assert_eq!(power_iters, 2);
                assert_eq!(seed, DEFAULT_SKETCH_SEED);
            }
            other => panic!("expected randomized, got {other:?}"),
        }
        assert!(EigenMethod::Auto.is_dense_for(121));
        assert!(EigenMethod::Auto.is_dense_for(AUTO_DENSE_MAX_DIM));
        assert!(!EigenMethod::Auto.is_dense_for(90_000));
    }

    #[test]
    fn explicit_methods_resolve_to_themselves() {
        assert_eq!(EigenMethod::DenseTridiagonal.resolve(2), EigenMethod::DenseTridiagonal);
        assert!(EigenMethod::DenseTridiagonal.is_dense_for(1_000_000));
        let r = EigenMethod::RandomizedTruncated { oversample: 3, power_iters: 1, seed: 42 };
        assert_eq!(r.resolve(4), r);
        assert!(!r.is_dense_for(4));
    }

    #[test]
    fn dense_backend_returns_full_spectrum() {
        let x = Matrix::from_fn(12, 6, |i, j| ((i + 1) * (j + 2)) as f64 + (i as f64 * 0.3).sin());
        let (svd, _) = truncated_svd(&x, &[0.0; 6], 2, EigenMethod::DenseTridiagonal).unwrap();
        assert!(svd.rank() > 2, "asked for 2, the dense path keeps all {}", svd.rank());
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
        let (centered, centering) = crate::center::center_columns(&x).unwrap();
        let direct = thin_svd(&centered, 0.0).unwrap();
        let energy: f64 = direct.sigma.iter().map(|s| s * s).sum();
        for method in [EigenMethod::DenseTridiagonal, EigenMethod::Auto] {
            let (svd, e) = truncated_svd(&x, &centering.means, 4, method).unwrap();
            assert_eq!(svd.sigma, direct.sigma);
            assert_eq!(svd.v.as_slice(), direct.v.as_slice());
            assert_eq!(e.to_bits(), energy.to_bits());
        }

        let method = EigenMethod::RandomizedTruncated { oversample: 6, power_iters: 2, seed: 7 };
        let (via_enum, _) = truncated_svd(&x, &[0.0; 30], 4, method).unwrap();
        let opts = RandomizedSvdOptions { oversample: 6, power_iters: 2, seed: 7 };
        let direct = crate::randomized_thin_svd(&x, 4, opts).unwrap();
        assert_eq!(via_enum.sigma, direct.sigma);
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
