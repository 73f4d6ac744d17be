//! Special functions: log-gamma, regularized incomplete gamma and beta,
//! and the error function.
//!
//! These are the numerical foundation of the normal and F distributions
//! ([`crate::dist`]) and hence of the paper's detection thresholds.
//! Implementations follow the classical algorithms (Lanczos approximation;
//! series / continued-fraction evaluation of the incomplete gamma and beta,
//! per *Numerical Recipes* §6) with double-precision accuracy targets
//! around 1e-12 relative over the parameter ranges the subspace method
//! exercises.

/// Natural log of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Lanczos approximation with g = 7, n = 9 coefficients — relative error
/// below 1e-13 across the positive real axis.
///
/// # Panics
///
/// Panics if `x <= 0` (the reflection formula is out of scope — every
/// caller in this workspace uses positive arguments).
pub(crate) fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients (g = 7).
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x) Γ(1-x) = π / sin(πx). Needed for x in (0, 0.5).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a,x) / Γ(a)`.
///
/// `P(a, x)` is the CDF of the Gamma(a, 1) distribution; the chi-squared CDF
/// is `P(k/2, x/2)`. Uses the series expansion for `x < a + 1` and the
/// continued fraction otherwise.
///
/// Returns 0.0 for `x <= 0`. Panics if `a <= 0`.
pub(crate) fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_p requires a > 0, got {a}");
    if x <= 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Series representation of P(a, x), convergent for x < a + 1.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-15;
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Continued-fraction representation of Q(a, x) = 1 - P(a, x), convergent
/// for x >= a + 1. Modified Lentz's method.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-15;
    const FPMIN: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// `I_x(a, b)` is the CDF of the Beta(a, b) distribution. The F and
/// Student-t CDFs reduce to it. Continued-fraction evaluation with the
/// symmetry transformation for numerical stability (Numerical Recipes §6.4).
///
/// Clamps `x` into `[0, 1]`. Panics if `a <= 0` or `b <= 0`.
pub(crate) fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "beta_inc requires a, b > 0, got a={a}, b={b}");
    let x = x.clamp(0.0, 1.0);
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    // Use the continued fraction directly where it converges fast,
    // otherwise use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a).
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-15;
    const FPMIN: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Error function `erf(x)`, via the regularized incomplete gamma:
/// `erf(x) = sign(x) * P(1/2, x^2)`.
pub(crate) fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let p = gamma_p(0.5, x * x);
    if x > 0.0 {
        p
    } else {
        -p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-10;

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = Γ(2) = 1, Γ(5) = 24, Γ(0.5) = sqrt(pi)
        assert!(ln_gamma(1.0).abs() < TOL);
        assert!(ln_gamma(2.0).abs() < TOL);
        assert!((ln_gamma(5.0) - 24.0_f64.ln()).abs() < TOL);
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < TOL);
        // ln Γ(10.5) = 13.940625219403763 (cross-checked with C lgamma).
        assert!((ln_gamma(10.5) - 13.940_625_219_403_763).abs() < 1e-10);
    }

    #[test]
    fn ln_gamma_recurrence() {
        // Γ(x+1) = x Γ(x)  =>  lnΓ(x+1) = ln x + lnΓ(x)
        for &x in &[0.3, 1.7, 4.2, 9.9, 25.0] {
            let lhs = ln_gamma(x + 1.0);
            let rhs = x.ln() + ln_gamma(x);
            assert!((lhs - rhs).abs() < 1e-11, "recurrence failed at {x}");
        }
    }

    #[test]
    #[should_panic(expected = "requires x > 0")]
    fn ln_gamma_rejects_nonpositive() {
        ln_gamma(0.0);
    }

    #[test]
    fn gamma_p_known_values() {
        // P(1, x) = 1 - e^{-x} (exponential CDF).
        for &x in &[0.1, 1.0, 2.5, 7.0] {
            assert!((gamma_p(1.0, x) - (1.0 - (-x).exp())).abs() < TOL);
        }
        // P(a, 0) = 0; large x -> 1.
        assert_eq!(gamma_p(3.0, 0.0), 0.0);
        assert!((gamma_p(3.0, 100.0) - 1.0).abs() < TOL);
    }

    #[test]
    fn gamma_p_q_complementary() {
        // `gamma_p` switches from the series for P to the continued
        // fraction for Q = 1 - P at x = a + 1; around the switch both
        // converge, and they must agree.
        for &a in &[0.5, 1.0, 2.5, 10.0, 50.0] {
            for x in [a + 0.5, a + 1.0, a + 2.0] {
                let s = gamma_p_series(a, x) + gamma_q_cf(a, x);
                assert!((s - 1.0).abs() < 1e-12, "P+Q != 1 at a={a}, x={x}: {s}");
            }
        }
    }

    #[test]
    fn gamma_p_monotone_in_x() {
        let mut prev = 0.0;
        for i in 1..100 {
            let x = i as f64 * 0.3;
            let p = gamma_p(4.0, x);
            assert!(p >= prev - 1e-15);
            prev = p;
        }
    }

    #[test]
    fn beta_inc_known_values() {
        // I_x(1, 1) = x (uniform CDF).
        for &x in &[0.0, 0.25, 0.5, 0.75, 1.0] {
            assert!((beta_inc(1.0, 1.0, x) - x).abs() < TOL);
        }
        // I_x(2, 1) = x^2 ; I_x(1, 2) = 1 - (1-x)^2 = 2x - x^2.
        assert!((beta_inc(2.0, 1.0, 0.3) - 0.09).abs() < TOL);
        assert!((beta_inc(1.0, 2.0, 0.3) - 0.51).abs() < TOL);
        // Symmetry point: I_{1/2}(a, a) = 1/2.
        for &a in &[0.5, 1.0, 3.0, 12.0] {
            assert!((beta_inc(a, a, 0.5) - 0.5).abs() < TOL);
        }
    }

    #[test]
    fn beta_inc_symmetry() {
        // I_x(a, b) = 1 - I_{1-x}(b, a)
        for &(a, b, x) in &[(2.0, 3.0, 0.2), (5.0, 1.5, 0.7), (0.5, 0.5, 0.4)] {
            let lhs = beta_inc(a, b, x);
            let rhs = 1.0 - beta_inc(b, a, 1.0 - x);
            assert!((lhs - rhs).abs() < 1e-12);
        }
    }

    #[test]
    fn beta_inc_monotone_and_bounded() {
        let mut prev: f64 = 0.0;
        for i in 0..=100 {
            let x = i as f64 / 100.0;
            let v = beta_inc(3.0, 7.0, x);
            assert!((0.0..=1.0).contains(&v));
            assert!(v >= prev - 1e-15);
            prev = v;
        }
    }

    #[test]
    fn erf_known_values() {
        assert_eq!(erf(0.0), 0.0);
        // erf(1) = 0.8427007929497149
        assert!((erf(1.0) - 0.842_700_792_949_714_9).abs() < 1e-10);
        // erf is odd.
        assert!((erf(-1.0) + erf(1.0)).abs() < 1e-14);
        // erf(2) = 0.9953222650189527
        assert!((erf(2.0) - 0.995_322_265_018_952_7).abs() < 1e-10);
    }
}
