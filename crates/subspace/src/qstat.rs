//! The Q-statistic (squared prediction error) threshold of Jackson &
//! Mudholkar.
//!
//! The subspace method flags a timebin as anomalous when the squared
//! residual `||x~||^2` exceeds `δ²_α`, the Q-statistic threshold at the
//! `1 - α` confidence level (paper §2.2; Jackson & Mudholkar,
//! *Technometrics* 1979 — the paper's reference \[12\]).
//!
//! Given the eigenvalues `λ_1 >= λ_2 >= ... >= λ_p` of the data covariance
//! and a normal subspace of dimension `k`, define the residual spectral sums
//!
//! ```text
//! φ_i = Σ_{j=k+1}^{p} λ_j^i       for i = 1, 2, 3
//! h0  = 1 - 2 φ_1 φ_3 / (3 φ_2²)
//! ```
//!
//! then the threshold is
//!
//! ```text
//! δ²_α = φ_1 [ c_α sqrt(2 φ_2 h0²) / φ_1  +  1  +  φ_2 h0 (h0 - 1) / φ_1² ]^{1/h0}
//! ```
//!
//! where `c_α` is the `1 - α` standard-normal quantile. The derivation rests
//! on a cube-root normalizing power transform of the residual sum; it holds
//! regardless of which eigenvalues the residual retains, which is what lets
//! the paper move the boundary `k` without re-deriving the test.

use crate::dist::{bad_probability, Normal};
use crate::error::Result;

/// The residual spectral sums behind the threshold.
struct ResidualSums {
    /// `φ_1 = Σ λ_j` over residual eigenvalues.
    phi1: f64,
    /// `φ_2 = Σ λ_j²` over residual eigenvalues.
    phi2: f64,
    /// The power-transform exponent `h0` (where `φ_3 = Σ λ_j³` enters).
    h0: f64,
}

/// Computes the residual spectral sums for eigenvalues beyond index `k`;
/// `None` when `k` leaves no residual eigenvalue or the residual carries no
/// variance at all.
///
/// Eigenvalues must be sorted descending (as produced by
/// `odflow_linalg::eigen_symmetric`). Small negative eigenvalues (numerical
/// noise in rank-deficient covariances) are clamped to zero.
fn residual_sums(eigenvalues: &[f64], k: usize) -> Option<ResidualSums> {
    let residual = eigenvalues.get(k..).filter(|r| !r.is_empty())?;
    let mut phi1 = 0.0;
    let mut phi2 = 0.0;
    let mut phi3 = 0.0;
    for &l in residual {
        let l = l.max(0.0);
        phi1 += l;
        phi2 += l * l;
        phi3 += l * l * l;
    }
    if phi1 <= 0.0 || phi2 <= 0.0 {
        return None;
    }
    let h0 = 1.0 - 2.0 * phi1 * phi3 / (3.0 * phi2 * phi2);
    Some(ResidualSums { phi1, phi2, h0 })
}

/// Computes the Q-statistic threshold `δ²_α` at confidence level `1 - alpha`.
///
/// `eigenvalues` are the covariance eigenvalues sorted descending; `k` is
/// the normal-subspace dimension (the paper uses `k = 4`); `alpha` is the
/// false-alarm rate (the paper uses `alpha = 0.001`, i.e. 99.9% confidence).
///
/// Returns `Ok(None)` when the residual carries no variance: `k` leaves no
/// residual eigenvalue, or every residual eigenvalue is zero (exactly
/// low-rank data).
///
/// # Errors
///
/// [`SubspaceError::Threshold`](crate::SubspaceError::Threshold) unless
/// `0 < alpha < 1`.
///
/// # Examples
///
/// ```
/// use odflow_subspace::q_threshold;
///
/// let eigenvalues = vec![100.0, 10.0, 1.0, 0.5, 0.25, 0.1];
/// let delta = q_threshold(&eigenvalues, 2, 0.001).unwrap().unwrap();
/// assert!(delta > 0.0);
/// assert_eq!(q_threshold(&eigenvalues, 6, 0.001).unwrap(), None);
/// ```
pub fn q_threshold(eigenvalues: &[f64], k: usize, alpha: f64) -> Result<Option<f64>> {
    if !(alpha > 0.0 && alpha < 1.0) {
        return Err(bad_probability(alpha));
    }
    let Some(p) = residual_sums(eigenvalues, k) else {
        return Ok(None);
    };
    let c_alpha = Normal::quantile(1.0 - alpha)?;

    // The power transform Q^h0 is approximately normal with
    //   mean     θ1^h0 [1 + θ2 h0 (h0-1) / θ1²]
    //   variance 2 θ2 h0² θ1^(2 h0 - 2).
    // For h0 > 0 the upper tail of Q maps to the upper tail of Q^h0; for
    // h0 < 0 (heavy residual spectra — typical for traffic matrices, where
    // a few residual eigenvalues dominate a long tail) the transform is
    // DECREASING, so the upper tail of Q is the LOWER tail of Q^h0 and the
    // c_α term enters with a minus sign. Jackson & Mudholkar's formula as
    // usually quoted assumes h0 > 0; both branches below reduce to it
    // there.
    //
    // h0 == 0 is a removable singularity (the transform degenerates to
    // log); nudge away from it, the expression is continuous.
    let h0 = if p.h0.abs() < 1e-9 {
        1e-9_f64.copysign(if p.h0 == 0.0 { 1.0 } else { p.h0 })
    } else {
        p.h0
    };

    let mean_shift = p.phi2 * h0 * (h0 - 1.0) / (p.phi1 * p.phi1);
    let tail = c_alpha * (2.0 * p.phi2).sqrt() * h0.abs() / p.phi1;
    let term = if h0 > 0.0 { 1.0 + mean_shift + tail } else { 1.0 + mean_shift - tail };

    if term <= 0.0 {
        // The normal approximation of Q^h0 broke down (extreme α or
        // pathological spectrum). Fall back to a two-moment normal
        // approximation on Q itself: mean φ1, variance 2 φ2.
        return Ok(Some(p.phi1 + c_alpha * (2.0 * p.phi2).sqrt()));
    }
    Ok(Some(p.phi1 * term.powf(1.0 / h0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SubspaceError;

    fn spectrum() -> Vec<f64> {
        vec![1000.0, 200.0, 80.0, 40.0, 10.0, 5.0, 2.0, 1.0, 0.5, 0.2]
    }

    /// `δ²_α` of a spectrum whose residual carries variance.
    fn q(eigenvalues: &[f64], k: usize, alpha: f64) -> f64 {
        q_threshold(eigenvalues, k, alpha).unwrap().expect("residual variance")
    }

    #[test]
    fn no_residual_variance_is_none_and_bad_alpha_an_error() {
        let ev = [4.0, 3.0, 0.0, -1e-15];
        for k in [0, 1] {
            assert!(q_threshold(&ev, k, 0.001).unwrap().is_some(), "k = {k}");
        }
        for k in [2, 3, 4, 9] {
            assert_eq!(q_threshold(&ev, k, 0.001).unwrap(), None, "k = {k}");
        }
        assert_eq!(q_threshold(&[0.0; 5], 1, 0.001).unwrap(), None);
        assert_eq!(q_threshold(&[], 0, 0.001).unwrap(), None);
        for alpha in [0.0, 1.0, -0.5, f64::NAN] {
            // Checked before the spectrum: a degenerate one is no excuse.
            for k in [1, 3] {
                let bad = q_threshold(&ev, k, alpha);
                assert!(matches!(bad, Err(SubspaceError::Threshold { .. })), "{alpha}, {k}");
            }
        }
    }

    #[test]
    fn params_known_sums() {
        let ev = vec![4.0, 3.0, 2.0, 1.0];
        let p = residual_sums(&ev, 2).unwrap();
        assert_eq!(p.phi1, 3.0); // 2 + 1
        assert_eq!(p.phi2, 5.0); // 4 + 1
                                 // φ_3 = 8 + 1
        let h0 = 1.0 - 2.0 * 3.0 * 9.0 / (3.0 * 25.0);
        assert!((p.h0 - h0).abs() < 1e-15);
    }

    #[test]
    fn params_clamp_negative_eigenvalues() {
        let ev = vec![10.0, 1.0, -1e-12];
        let p = residual_sums(&ev, 1).unwrap();
        assert_eq!(p.phi1, 1.0);
    }

    #[test]
    fn params_reject_no_residual() {
        let ev = vec![4.0, 3.0];
        assert!(residual_sums(&ev, 2).is_none());
        assert!(residual_sums(&ev, 5).is_none());
    }

    #[test]
    fn params_reject_zero_residual_variance() {
        let ev = vec![4.0, 0.0, 0.0];
        assert!(residual_sums(&ev, 1).is_none());
    }

    #[test]
    fn threshold_positive_and_scales_with_variance() {
        let t1 = q(&spectrum(), 4, 0.001);
        assert!(t1 > 0.0);
        // Scaling all eigenvalues by c scales the threshold by c
        // (Q is a sum of λ-weighted chi-squares).
        let scaled: Vec<f64> = spectrum().iter().map(|l| l * 7.0).collect();
        let t2 = q(&scaled, 4, 0.001);
        assert!((t2 / t1 - 7.0).abs() < 1e-9);
    }

    #[test]
    fn threshold_monotone_in_alpha() {
        // Smaller alpha (higher confidence) -> larger threshold.
        let t_strict = q(&spectrum(), 4, 0.001);
        let t_loose = q(&spectrum(), 4, 0.05);
        assert!(t_strict > t_loose);
    }

    #[test]
    fn threshold_shrinks_with_larger_k() {
        // Moving more variance into the normal subspace leaves a smaller
        // residual, so the threshold must not grow.
        let s = spectrum();
        let mut prev = f64::INFINITY;
        for k in 1..(s.len() - 1) {
            let t = q(&s, k, 0.001);
            assert!(t <= prev + 1e-9, "threshold grew at k={k}: {t} > {prev}");
            prev = t;
        }
    }

    #[test]
    fn threshold_exceeds_mean_residual_energy() {
        // E[||x~||^2] = φ_1; a 99.9% threshold must sit well above the mean.
        let p = residual_sums(&spectrum(), 4).unwrap();
        let t = q(&spectrum(), 4, 0.001);
        assert!(t > p.phi1, "threshold {t} below mean residual energy {}", p.phi1);
    }

    #[test]
    fn threshold_matches_chi_square_for_single_residual() {
        // With exactly one residual eigenvalue λ, Q = λ χ²(1). The JM formula
        // is approximate; it should land within a few percent of the exact
        // λ * quantile(χ²(1), 1-α).
        let ev = vec![100.0, 50.0, 2.0];
        let alpha = 0.01;
        let t = q(&ev, 2, alpha);
        let exact = 2.0 * crate::dist::ChiSquared { k: 1.0 }.quantile(1.0 - alpha);
        let rel = (t - exact).abs() / exact;
        assert!(rel < 0.25, "JM single-eigenvalue threshold off by {rel}: {t} vs {exact}");
    }

    #[test]
    fn rejects_bad_alpha() {
        assert!(q_threshold(&spectrum(), 4, 0.0).is_err());
        assert!(q_threshold(&spectrum(), 4, 1.0).is_err());
        assert!(q_threshold(&spectrum(), 4, -1.0).is_err());
    }

    #[test]
    fn negative_h0_heavy_tail_spectrum() {
        // One dominant residual eigenvalue over a long tail drives
        // h0 = 1 - 2φ1φ3/(3φ2²) negative — the regime real traffic
        // matrices live in. The threshold must still exceed the mean
        // residual energy and deliver ≈ α exceedance.
        use rand::{Rng, SeedableRng};
        let mut residual = vec![850.0];
        residual.extend(std::iter::repeat_n(300.0, 30));
        residual.extend(std::iter::repeat_n(50.0, 80));
        let mut ev = vec![1e6, 1e5];
        ev.extend_from_slice(&residual);

        let p = residual_sums(&ev, 2).unwrap();
        assert!(p.h0 < 0.0, "spectrum chosen to exercise h0 < 0, got {}", p.h0);

        let alpha = 0.005;
        let t = q(&ev, 2, alpha);
        assert!(t > p.phi1, "threshold {t} must exceed mean residual energy {}", p.phi1);

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        let trials = 100_000;
        let mut exceed = 0usize;
        for _ in 0..trials {
            let mut q = 0.0;
            for &l in &residual {
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                q += l * z * z;
            }
            if q > t {
                exceed += 1;
            }
        }
        let rate = exceed as f64 / trials as f64;
        assert!(
            rate > alpha / 3.0 && rate < alpha * 3.0,
            "false alarm rate {rate} not within 3x of alpha={alpha} (threshold {t})"
        );
    }

    #[test]
    fn empirical_false_alarm_rate_matches_alpha() {
        // Draw Q = Σ λ_j z_j² with standard normal z; the threshold at
        // 1-α should be exceeded with probability ≈ α.
        use rand::{Rng, SeedableRng};
        let residual = [10.0, 5.0, 2.0, 1.0, 0.5];
        let mut ev = vec![1e4, 1e3]; // "normal" eigenvalues, ignored by Q
        ev.extend_from_slice(&residual);
        let alpha = 0.01;
        let t = q(&ev, 2, alpha);

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let trials = 200_000;
        let mut exceed = 0usize;
        for _ in 0..trials {
            let mut q = 0.0;
            for &l in &residual {
                // Box–Muller normal draw.
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                q += l * z * z;
            }
            if q > t {
                exceed += 1;
            }
        }
        let rate = exceed as f64 / trials as f64;
        // JM is an approximation; allow 3x tolerance band around alpha.
        assert!(
            rate > alpha / 3.0 && rate < alpha * 3.0,
            "false alarm rate {rate} not within 3x of alpha={alpha}"
        );
    }
}
