//! The T² (Hotelling-style) threshold for the normal subspace.
//!
//! The paper (§2.2) finds that the Q statistic alone misses anomalies large
//! enough to be *captured by PCA itself* — an unusually large spike, or one
//! common to several OD flows, gets pulled into a top eigenflow and thus
//! into the normal subspace, where the residual test cannot see it. The fix,
//! standard in statistical process control, is the T² statistic on the
//! normal-subspace scores:
//!
//! ```text
//! t²_j = Σ_{i=1}^{k} u²_{ij}          (unit-variance normalized scores)
//! ```
//!
//! with the detection threshold
//!
//! ```text
//! T²_{k,n,α} = k (n - 1) / (n - k) * F_{k, n-k, α}
//! ```
//!
//! where `F_{k, n-k, α}` is the `1 - α` quantile of the F distribution with
//! `k` and `n - k` degrees of freedom (paper §2.2; Jackson 1991, the paper's
//! reference \[11\]).

use crate::dist::{bad_probability, FDist};
use crate::error::{Result, SubspaceError};

/// Computes the T² detection threshold `T²_{k,n,α}`.
///
/// * `k` — dimension of the normal subspace (number of eigenflows kept;
///   the paper uses 4).
/// * `n` — number of samples (timebins) the model was fit on.
/// * `alpha` — false-alarm rate (the paper uses 0.001).
///
/// # Errors
///
/// [`SubspaceError::Threshold`] if `k == 0` or `n <= k` (the F
/// distribution needs positive degrees of freedom in both positions), or
/// unless `0 < alpha < 1`.
///
/// # Examples
///
/// ```
/// use odflow_subspace::t2_threshold;
///
/// // A week of 5-minute bins: n = 2016, k = 4 eigenflows, 99.9% confidence.
/// let t2 = t2_threshold(4, 2016, 0.001).unwrap();
/// assert!(t2 > 0.0);
/// ```
pub fn t2_threshold(k: usize, n: usize, alpha: f64) -> Result<f64> {
    if k == 0 || n <= k {
        let reason = format!("T² needs 0 < k < n degrees of freedom, got k = {k}, n = {n}");
        return Err(SubspaceError::Threshold { reason });
    }
    if !(alpha > 0.0 && alpha < 1.0) {
        return Err(bad_probability(alpha));
    }
    let kf = k as f64;
    let nf = n as f64;
    let f = FDist { d1: kf, d2: nf - kf };
    let fq = f.quantile(1.0 - alpha)?;
    Ok(kf * (nf - 1.0) / (nf - kf) * fq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_known_value() {
        // k=2, n=12, alpha=0.05:
        // F_{0.95}(2, 10) = 4.1028, T² = 2*11/10 * 4.1028 = 9.0262
        let t2 = t2_threshold(2, 12, 0.05).unwrap();
        assert!((t2 - 9.026_2).abs() < 1e-3, "got {t2}");
    }

    #[test]
    fn threshold_approaches_chi_square_for_large_n() {
        // As n -> inf, T² -> χ²_{1-α}(k).
        let t2 = t2_threshold(4, 1_000_000, 0.001).unwrap();
        let c = crate::dist::ChiSquared { k: 4.0 }.quantile(0.999);
        assert!((t2 - c).abs() < 0.01, "T² {t2} vs χ² {c}");
    }

    #[test]
    fn threshold_monotone_in_alpha_and_k() {
        let strict = t2_threshold(4, 2016, 0.001).unwrap();
        let loose = t2_threshold(4, 2016, 0.05).unwrap();
        assert!(strict > loose);
        // More degrees of freedom in the statistic -> larger threshold.
        let k5 = t2_threshold(5, 2016, 0.001).unwrap();
        assert!(k5 > strict);
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(t2_threshold(0, 100, 0.001).is_err());
        assert!(t2_threshold(4, 4, 0.001).is_err());
        assert!(t2_threshold(4, 3, 0.001).is_err());
        assert!(t2_threshold(4, 100, 0.0).is_err());
        assert!(t2_threshold(4, 100, 1.0).is_err());
    }

    #[test]
    fn empirical_false_alarm_rate() {
        // For multivariate normal scores, P(t² > T²_{k,n,α}) ≈ α.
        // Use the chi-square limit (large n) with simulated normals.
        use rand::{Rng, SeedableRng};
        let k = 4;
        let alpha = 0.01;
        let t2 = t2_threshold(k, 100_000, alpha).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let trials = 100_000;
        let mut exceed = 0;
        for _ in 0..trials {
            let mut s = 0.0;
            for _ in 0..k {
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                s += z * z;
            }
            if s > t2 {
                exceed += 1;
            }
        }
        let rate = exceed as f64 / trials as f64;
        assert!(
            rate > alpha / 2.0 && rate < alpha * 2.0,
            "false alarm rate {rate} not within 2x of alpha={alpha}"
        );
    }
}
