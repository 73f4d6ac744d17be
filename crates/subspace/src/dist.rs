//! The standard normal and F distributions behind the two thresholds.
//!
//! The subspace method needs exactly two quantiles — the standard-normal
//! `c_α` inside the Jackson–Mudholkar Q-statistic threshold and the
//! `F_{k, n-k, α}` quantile inside the T² threshold. Chi-squared and
//! Student-t live here too, compiled for tests only: they are the oracles
//! the thresholds and the F quantile are checked against.
//!
//! Quantiles are computed by monotone bisection on the analytic CDFs
//! (the normal one by a rational approximation refined by a Halley step),
//! giving ~1e-12 accuracy; speed is irrelevant here because thresholds are
//! computed once per fit.

use crate::error::{Result, SubspaceError};
use crate::special::{beta_inc, erf};

/// The error for a probability outside the open interval `(0, 1)`.
pub(crate) fn bad_probability(p: f64) -> SubspaceError {
    SubspaceError::Threshold { reason: format!("probability must be in (0, 1), got {p}") }
}

/// Standard normal distribution `N(0, 1)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Normal;

impl Normal {
    /// Cumulative distribution function `Φ(x)`.
    pub(crate) fn cdf(x: f64) -> f64 {
        0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
    }

    /// Quantile (inverse CDF) `Φ^{-1}(p)`.
    ///
    /// Acklam's rational approximation refined by one Halley step against
    /// the analytic CDF; absolute error < 1e-13 over `(1e-300, 1-1e-16)`.
    ///
    /// # Errors
    ///
    /// [`SubspaceError::Threshold`] unless `0 < p < 1`.
    pub(crate) fn quantile(p: f64) -> Result<f64> {
        if !(p > 0.0 && p < 1.0) {
            return Err(bad_probability(p));
        }
        // Acklam's algorithm.
        const A: [f64; 6] = [
            -3.969_683_028_665_376e1,
            2.209_460_984_245_205e2,
            -2.759_285_104_469_687e2,
            1.383_577_518_672_69e2,
            -3.066_479_806_614_716e1,
            2.506_628_277_459_239,
        ];
        const B: [f64; 5] = [
            -5.447_609_879_822_406e1,
            1.615_858_368_580_409e2,
            -1.556_989_798_598_866e2,
            6.680_131_188_771_972e1,
            -1.328_068_155_288_572e1,
        ];
        const C: [f64; 6] = [
            -7.784_894_002_430_293e-3,
            -3.223_964_580_411_365e-1,
            -2.400_758_277_161_838,
            -2.549_732_539_343_734,
            4.374_664_141_464_968,
            2.938_163_982_698_783,
        ];
        const D: [f64; 4] = [
            7.784_695_709_041_462e-3,
            3.224_671_290_700_398e-1,
            2.445_134_137_142_996,
            3.754_408_661_907_416,
        ];
        const P_LOW: f64 = 0.02425;

        let x = if p < P_LOW {
            let q = (-2.0 * p.ln()).sqrt();
            (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
                / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
        } else if p <= 1.0 - P_LOW {
            let q = p - 0.5;
            let r = q * q;
            (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
                / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
        } else {
            let q = (-2.0 * (1.0 - p).ln()).sqrt();
            -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
                / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
        };

        // One Halley refinement step.
        let e = Self::cdf(x) - p;
        let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
        Ok(x - u / (1.0 + x * u / 2.0))
    }
}

/// F distribution with `d1` (numerator) and `d2` (denominator) degrees of
/// freedom, both positive. The T² detection threshold is
/// `k(n-1)/(n-k) * F_{k, n-k, α}`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FDist {
    /// Numerator degrees of freedom.
    pub(crate) d1: f64,
    /// Denominator degrees of freedom.
    pub(crate) d2: f64,
}

impl FDist {
    /// Cumulative distribution function via the incomplete beta:
    /// `F(x) = I_{d1 x / (d1 x + d2)}(d1/2, d2/2)`.
    pub(crate) fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = self.d1 * x / (self.d1 * x + self.d2);
        beta_inc(self.d1 / 2.0, self.d2 / 2.0, z)
    }

    /// Quantile (inverse CDF).
    ///
    /// # Errors
    ///
    /// [`SubspaceError::Threshold`] unless `0 < p < 1`, or when the bracket
    /// never closes.
    pub(crate) fn quantile(&self, p: f64) -> Result<f64> {
        if !(p > 0.0 && p < 1.0) {
            return Err(bad_probability(p));
        }
        invert_cdf(|x| self.cdf(x), p, 0.0, 1e4)
    }
}

/// Chi-squared distribution with `k` degrees of freedom — the oracle for
/// the Q threshold's single-eigenvalue case and the T² threshold's
/// large-`n` limit.
#[cfg(test)]
pub(crate) struct ChiSquared {
    /// Degrees of freedom (positive; fractional values allowed).
    pub(crate) k: f64,
}

#[cfg(test)]
impl ChiSquared {
    /// Cumulative distribution function `P(k/2, x/2)`.
    pub(crate) fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        crate::special::gamma_p(self.k / 2.0, x / 2.0)
    }

    /// Quantile (inverse CDF) of `0 < p < 1`.
    pub(crate) fn quantile(&self, p: f64) -> f64 {
        // Initial bracket: mean +/- spread, expanded geometrically.
        invert_cdf(|x| self.cdf(x), p, 0.0, (self.k + 10.0) * 10.0).expect("chi-squared bracket")
    }
}

/// Student-t distribution with `nu` degrees of freedom — the oracle for
/// the F quantile through `t²_ν = F_{1,ν}`.
#[cfg(test)]
struct StudentT {
    nu: f64,
}

#[cfg(test)]
impl StudentT {
    /// Cumulative distribution function via the incomplete beta.
    fn cdf(&self, x: f64) -> f64 {
        let nu = self.nu;
        let z = nu / (nu + x * x);
        let tail = 0.5 * beta_inc(nu / 2.0, 0.5, z);
        if x >= 0.0 {
            1.0 - tail
        } else {
            tail
        }
    }

    /// Quantile (inverse CDF) of `0 < p < 1`.
    fn quantile(&self, p: f64) -> f64 {
        if (p - 0.5).abs() < 1e-16 {
            return 0.0;
        }
        // Exploit symmetry: solve for the upper half only.
        if p < 0.5 {
            return -self.quantile(1.0 - p);
        }
        invert_cdf(|x| self.cdf(x), p, 0.0, 1e5).expect("Student-t bracket")
    }
}

/// Inverts a monotone CDF by bracketed bisection.
///
/// `hi0` is an initial upper bracket, expanded geometrically until
/// `cdf(hi) >= p` (capped to avoid infinite loops on malformed CDFs).
fn invert_cdf(cdf: impl Fn(f64) -> f64, p: f64, lo0: f64, hi0: f64) -> Result<f64> {
    let mut lo = lo0;
    let mut hi = hi0;
    let mut expansions = 0;
    while cdf(hi) < p {
        hi *= 2.0;
        expansions += 1;
        if expansions > 200 {
            return Err(SubspaceError::Threshold {
                reason: "invert_cdf (bracket): failed to converge".into(),
            });
        }
    }
    // Bisection to ~1e-13 relative.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if cdf(mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo) <= 1e-13 * (1.0 + hi.abs()) {
            break;
        }
    }
    Ok(0.5 * (lo + hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::ln_gamma;
    use proptest::prelude::*;

    impl FDist {
        /// Probability density function (0 for `x < 0`), the reference the
        /// CDF's numeric derivative is checked against.
        fn pdf(&self, x: f64) -> f64 {
            if x <= 0.0 {
                return 0.0;
            }
            let (d1, d2) = (self.d1, self.d2);
            let ln_b = ln_gamma(d1 / 2.0) + ln_gamma(d2 / 2.0) - ln_gamma((d1 + d2) / 2.0);
            let ln_pdf = (d1 / 2.0) * (d1 / d2).ln() + (d1 / 2.0 - 1.0) * x.ln()
                - ((d1 + d2) / 2.0) * (1.0 + d1 * x / d2).ln()
                - ln_b;
            ln_pdf.exp()
        }
    }

    #[test]
    fn normal_cdf_known() {
        assert!((Normal::cdf(0.0) - 0.5).abs() < 1e-14);
        // Φ(1.96) = 0.9750021048517795
        assert!((Normal::cdf(1.96) - 0.975_002_104_851_779_5).abs() < 1e-10);
        assert!((Normal::cdf(-1.96) - 0.024_997_895_148_220_5).abs() < 1e-10);
    }

    #[test]
    fn normal_quantile_known() {
        // z_{0.999} = 3.090232306167813 — the paper's 99.9% confidence level.
        assert!((Normal::quantile(0.999).unwrap() - 3.090_232_306_167_813).abs() < 1e-9);
        // z_{0.975} = 1.959963984540054
        assert!((Normal::quantile(0.975).unwrap() - 1.959_963_984_540_054).abs() < 1e-10);
        assert!(Normal::quantile(0.5).unwrap().abs() < 1e-12);
        // Symmetry.
        let q = Normal::quantile(0.01).unwrap();
        assert!((q + Normal::quantile(0.99).unwrap()).abs() < 1e-10);
    }

    #[test]
    fn normal_quantile_roundtrip() {
        for &p in &[1e-6, 0.001, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-9] {
            let x = Normal::quantile(p).unwrap();
            assert!((Normal::cdf(x) - p).abs() < 1e-11, "roundtrip failed at p={p}");
        }
    }

    #[test]
    fn normal_quantile_rejects_bounds() {
        assert!(Normal::quantile(0.0).is_err());
        assert!(Normal::quantile(1.0).is_err());
        assert!(Normal::quantile(-0.5).is_err());
        assert!(Normal::quantile(f64::NAN).is_err());
    }

    #[test]
    fn chi_squared_known() {
        // χ²_{0.95}(10) = 18.307038...
        let c = ChiSquared { k: 10.0 };
        assert!((c.quantile(0.95) - 18.307_038_053_275_14).abs() < 1e-6);
        // χ²(2) CDF is 1 - e^{-x/2}.
        let c2 = ChiSquared { k: 2.0 };
        for &x in &[0.5, 1.0, 3.0] {
            assert!((c2.cdf(x) - (1.0 - (-x / 2.0).exp())).abs() < 1e-12);
        }
    }

    #[test]
    fn chi_squared_cdf_quantile_roundtrip() {
        let c = ChiSquared { k: 7.0 };
        for &p in &[0.01, 0.5, 0.95, 0.999] {
            let x = c.quantile(p);
            assert!((c.cdf(x) - p).abs() < 1e-10);
        }
    }

    #[test]
    fn f_dist_known_quantiles() {
        // Published F table values:
        // F_{0.95}(5, 10) = 3.3258
        let f = FDist { d1: 5.0, d2: 10.0 };
        assert!((f.quantile(0.95).unwrap() - 3.325_8).abs() < 1e-3);
        // F_{0.95}(1, 1) = 161.45
        let f11 = FDist { d1: 1.0, d2: 1.0 };
        assert!((f11.quantile(0.95).unwrap() - 161.447_6).abs() < 0.05);
        // F_{0.99}(4, 2012): for large d2 approaches χ²_{0.99}(4)/4 = 13.2767/4.
        let fbig = FDist { d1: 4.0, d2: 2012.0 };
        let approx = 13.276_7 / 4.0;
        assert!((fbig.quantile(0.99).unwrap() - approx).abs() < 0.02);
    }

    #[test]
    fn f_dist_cdf_quantile_roundtrip() {
        let f = FDist { d1: 4.0, d2: 117.0 }; // k=4, n-k for a 121-bin window
        for &p in &[0.5, 0.9, 0.999] {
            let x = f.quantile(p).unwrap();
            assert!((f.cdf(x) - p).abs() < 1e-10);
        }
    }

    #[test]
    fn f_dist_reciprocal_symmetry() {
        // If X ~ F(d1, d2), then 1/X ~ F(d2, d1):
        // quantile_{F(d1,d2)}(p) == 1 / quantile_{F(d2,d1)}(1-p)
        let f_ab = FDist { d1: 3.0, d2: 8.0 };
        let f_ba = FDist { d1: 8.0, d2: 3.0 };
        let p = 0.9;
        let lhs = f_ab.quantile(p).unwrap();
        let rhs = 1.0 / f_ba.quantile(1.0 - p).unwrap();
        assert!((lhs - rhs).abs() < 1e-8);
    }

    #[test]
    fn student_t_known() {
        // t_{0.975}(10) = 2.228138852
        let t = StudentT { nu: 10.0 };
        assert!((t.quantile(0.975) - 2.228_138_852).abs() < 1e-6);
        // t(1) is Cauchy: CDF(1) = 3/4.
        let cauchy = StudentT { nu: 1.0 };
        assert!((cauchy.cdf(1.0) - 0.75).abs() < 1e-10);
        // Symmetry of quantiles.
        assert!((t.quantile(0.1) + t.quantile(0.9)).abs() < 1e-9);
        assert_eq!(t.quantile(0.5), 0.0);
    }

    #[test]
    fn student_t_approaches_normal() {
        let q_t = StudentT { nu: 1e6 }.quantile(0.975);
        let q_n = Normal::quantile(0.975).unwrap();
        assert!((q_t - q_n).abs() < 1e-4);
    }

    #[test]
    fn t_squared_relation_to_f() {
        // T^2 with 1 variable: t_{nu}(1-α/2)^2 == F_{1,nu}(1-α)
        let nu = 20.0;
        let tq = StudentT { nu }.quantile(0.975);
        let fq = FDist { d1: 1.0, d2: nu }.quantile(0.95).unwrap();
        assert!((tq * tq - fq).abs() < 1e-6);
    }

    #[test]
    fn pdf_cdf_consistency_f() {
        // Numeric derivative of the CDF should match the PDF.
        let f = FDist { d1: 6.0, d2: 14.0 };
        for &x in &[0.5, 1.0, 2.0] {
            let h = 1e-6;
            let d = (f.cdf(x + h) - f.cdf(x - h)) / (2.0 * h);
            assert!((d - f.pdf(x)).abs() < 1e-6);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn normal_cdf_monotone(a in -8.0f64..8.0, b in -8.0f64..8.0) {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            prop_assert!(Normal::cdf(lo) <= Normal::cdf(hi) + 1e-15);
        }

        #[test]
        fn normal_quantile_inverts_cdf(p in 0.0001f64..0.9999) {
            let x = Normal::quantile(p).unwrap();
            prop_assert!((Normal::cdf(x) - p).abs() < 1e-9);
        }

        #[test]
        fn chi_squared_cdf_bounds(k in 0.5f64..60.0, x in 0.0f64..200.0) {
            let v = ChiSquared { k }.cdf(x);
            prop_assert!((0.0..=1.0).contains(&v));
        }

        #[test]
        fn f_quantile_roundtrip(d1 in 1.0f64..30.0, d2 in 2.0f64..300.0, p in 0.01f64..0.999) {
            let f = FDist { d1, d2 };
            let x = f.quantile(p).unwrap();
            prop_assert!((f.cdf(x) - p).abs() < 1e-8,
                "d1={d1} d2={d2} p={p}: cdf(q)={}", f.cdf(x));
        }
    }
}
