//! Eigenflow decomposition of OD traffic.
//!
//! "PCA can be used to decompose the set of OD flows into their constituent
//! **eigenflows**, or common temporal patterns ... the set of eigenflows
//! are ordered by the amount of variance they capture" (§2.2, citing the
//! authors' SIGMETRICS'04 structural analysis). An eigenflow is a unit-norm
//! temporal pattern (an `n`-vector over timebins); every OD flow is a
//! weighted sum of eigenflows, and — the key empirical fact the subspace
//! method rests on — "only a handful of eigenflows are sufficient to
//! capture the dominant temporal patterns common to the hundreds of OD
//! flows".
//!
//! The eigenflows explain *why* a low-dimensional normal subspace exists;
//! the detector itself never reads them. It projects each observation onto
//! the principal axes of the OD space and checks the residual against a
//! threshold built from the spectrum. So a decomposition keeps the axes of
//! the normal subspace, the spectrum and the training means — an amount
//! that does not grow with the number of training bins. Eigenflow `i` of
//! the normal subspace is `(X − 1μᵀ) v_i / σ_i` for whoever wants to plot
//! it from the training window `X`.

use crate::error::{Result, SubspaceError};
use odflow_linalg::{column_means, truncated_svd, Matrix};

/// The eigenflow decomposition of an `n x p` OD traffic matrix: the
/// principal axes of its normal subspace and its spectrum.
#[derive(Debug, Clone)]
pub struct EigenflowDecomposition {
    /// Matrix whose rows give each OD flow's loading onto the leading
    /// eigenflows (the principal axes of the OD space). A fit builds axes
    /// for the rank it was asked for only: `p x min(rank, r)` from
    /// [`Self::fit_with`] — a model's normal subspace, the only axes
    /// scoring and identification read. The rest of the spectrum stays in
    /// `singular_values`, which the thresholds read.
    pub loadings: Matrix,
    /// Singular values of the centered data, descending; `σ_i²/(n-1)` is
    /// the variance captured by eigenflow `i`.
    pub singular_values: Vec<f64>,
    /// The per-OD training means subtracted before decomposition (new
    /// observations are centered with them).
    pub means: Vec<f64>,
    /// Number of timebins the decomposition was fit on.
    pub n: usize,
    /// Total squared Frobenius energy of the centered training data — the
    /// sum of σ² over the full spectrum. Denominator of every variance
    /// fraction.
    pub total_energy: f64,
}

impl EigenflowDecomposition {
    /// Computes the eigenflow decomposition of a data matrix (rows =
    /// timebins, columns = OD flows): the full spectrum, and the loadings
    /// of the top `min(rank, r)` eigenflows only (`rank` counts as 1 when
    /// it is 0). Columns are mean-centered first, as the paper requires
    /// ("the multivariate mean ... for eigenflows is equal to zero by
    /// construction").
    ///
    /// The fit is exact ([`truncated_svd`]): the `p x p` column Gram while
    /// `p ≤ max(n, 512)`, and a wider window's `n x n` row Gram, dropping
    /// triplets below `√ε · σ_max` as rounding. Either Gram is built from
    /// `x` where it lies, each element centered as it is loaded, and
    /// [`Self::total_energy`] is exactly the retained `Σ σ²`.
    ///
    /// # Errors
    ///
    /// * [`SubspaceError::InsufficientData`] unless `n >= 2` and `p >= 2`.
    /// * Numeric errors from the solver, non-finite centered
    ///   values among them.
    pub fn fit_with(x: &Matrix, rank: usize) -> Result<Self> {
        let (n, p) = x.shape();
        if n < 2 || p < 2 {
            return Err(SubspaceError::InsufficientData { n, p, need: "need n >= 2 and p >= 2" });
        }
        let means = column_means(x);
        let (svd, total_energy) = truncated_svd(x, &means, rank.max(1))?;
        Ok(EigenflowDecomposition {
            loadings: svd.v,
            singular_values: svd.sigma,
            means,
            n,
            total_energy,
        })
    }

    /// Number of eigenflows retained.
    pub fn rank(&self) -> usize {
        self.singular_values.len()
    }

    /// Variance captured by eigenflow `i` (the covariance eigenvalue
    /// `σ_i² / (n - 1)`).
    pub fn eigenvalue(&self, i: usize) -> f64 {
        let s = self.singular_values.get(i).copied().unwrap_or(0.0);
        s * s / (self.n as f64 - 1.0)
    }

    /// All covariance eigenvalues, descending, padded with zeros to
    /// length `p`: rank-deficient data (fewer bins than OD pairs, or
    /// directions the row Gram drops as rounding) has fewer positive
    /// singular values than OD pairs, and the Q-statistic reads a spectrum
    /// of `p`.
    pub fn eigenvalues_padded(&self, p: usize) -> Vec<f64> {
        let mut ev: Vec<f64> = (0..self.rank()).map(|i| self.eigenvalue(i)).collect();
        ev.resize(p.max(ev.len()), 0.0);
        ev
    }

    /// Fraction of total variance captured by the top `k` eigenflows.
    pub fn variance_captured(&self, k: usize) -> f64 {
        if self.total_energy <= 0.0 {
            return 0.0;
        }
        self.singular_values.iter().take(k).map(|s| s * s).sum::<f64>() / self.total_energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic OD matrix: a shared diurnal pattern with per-column
    /// amplitudes, plus small deterministic noise.
    fn diurnal_matrix(n: usize, p: usize) -> Matrix {
        Matrix::from_fn(n, p, |i, j| {
            let t = i as f64 / 288.0 * std::f64::consts::TAU;
            let amp = 10.0 + j as f64;
            amp * (1.0 + 0.5 * t.sin()) + 0.01 * (((i * 31 + j * 17) % 97) as f64 - 48.0)
        })
    }

    /// The exact dense decomposition with every loadings column.
    fn fit_full(x: &Matrix) -> Result<EigenflowDecomposition> {
        EigenflowDecomposition::fit_with(x, x.nrows().min(x.ncols()))
    }

    #[test]
    fn shared_pattern_concentrates_variance() {
        let x = diurnal_matrix(288, 20);
        let d = fit_full(&x).unwrap();
        // One shared diurnal pattern -> first eigenflow dominates.
        assert!(
            d.variance_captured(1) > 0.95,
            "first eigenflow captures {}",
            d.variance_captured(1)
        );
    }

    /// The scores of the training window `x` along axis `i`: `Xc v_i`.
    fn scores(d: &EigenflowDecomposition, x: &Matrix, i: usize) -> Vec<f64> {
        let axis = d.loadings.col(i).unwrap();
        let score =
            |r: &[f64]| r.iter().zip(&d.means).zip(&axis).map(|((x, m), a)| (x - m) * a).sum();
        x.rows_iter().map(score).collect()
    }

    #[test]
    fn eigenflows_unit_norm_and_ordered() {
        let x = diurnal_matrix(100, 8);
        let d = fit_full(&x).unwrap();
        for i in 0..d.rank() {
            // Eigenflow i is Xc v_i / σ_i.
            let u = scores(&d, &x, i);
            let norm = u.iter().map(|v| v * v).sum::<f64>().sqrt() / d.singular_values[i];
            assert!((norm - 1.0).abs() < 1e-8, "eigenflow {i} norm {norm}");
        }
        for w in d.singular_values.windows(2) {
            assert!(w[0] >= w[1] - 1e-10);
        }
    }

    #[test]
    fn eigenvalue_matches_score_variance() {
        let x = diurnal_matrix(200, 5);
        let d = fit_full(&x).unwrap();
        // The scores along axis i, z = Xc v_i, have zero mean (the data
        // is centered), so their sample variance should equal eigenvalue_i.
        for i in 0..2 {
            let z = scores(&d, &x, i);
            let var: f64 = z.iter().map(|v| v * v).sum::<f64>() / (d.n as f64 - 1.0);
            assert!(
                (var - d.eigenvalue(i)).abs() < 1e-6 * (1.0 + var),
                "eigenvalue {i}: {} vs score variance {var}",
                d.eigenvalue(i)
            );
        }
    }

    #[test]
    fn padded_spectrum_has_full_length() {
        let x = Matrix::from_fn(10, 6, |i, j| (i * j) as f64); // rank 2 at most
        let d = fit_full(&x).unwrap();
        let ev = d.eigenvalues_padded(6);
        assert_eq!(ev.len(), 6);
        assert!(ev[5] >= 0.0);
    }

    #[test]
    fn rejects_tiny_input() {
        assert!(fit_full(&Matrix::zeros(1, 5)).is_err());
        assert!(fit_full(&Matrix::zeros(5, 1)).is_err());
    }

    #[test]
    fn variance_captured_bounds() {
        let x = diurnal_matrix(50, 4);
        let d = fit_full(&x).unwrap();
        assert_eq!(d.variance_captured(0), 0.0);
        assert!((d.variance_captured(d.rank()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fit_with_tridiagonal_is_full_spectrum_and_agrees() {
        // Full spectrum whatever rank is asked, and its energy agrees with
        // what the data says without any eigensolver: ‖centered X‖²_F.
        let x = diurnal_matrix(90, 12);
        let tri = EigenflowDecomposition::fit_with(&x, 4).unwrap();
        assert_eq!(tri.rank(), 12);
        // Axes for the four asked for; the full fit builds all twelve, and
        // the four are its leading ones.
        let all = fit_full(&x).unwrap();
        assert_eq!((tri.loadings.shape(), all.loadings.shape()), ((12, 4), (12, 12)));
        let leading = all.loadings.select_cols(&[0, 1, 2, 3]).unwrap();
        assert_eq!(tri.loadings.as_slice(), leading.as_slice());
        assert_eq!(tri.singular_values, all.singular_values);
        let means = column_means(&x);
        let centered = Matrix::from_fn(90, 12, |i, j| x[(i, j)] - means[j]);
        let energy = centered.frobenius_norm().powi(2);
        assert!((tri.total_energy - energy).abs() <= 1e-10 * (1.0 + energy));
    }
}
