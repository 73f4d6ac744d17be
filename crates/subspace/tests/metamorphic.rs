//! Metamorphic relations of the fit routes: what a fit must do to its
//! outputs when its input changes in a known way, checked without a
//! reference run.
//!
//! * **Scaling by `2^s`.** Multiplying a window by a power of two is exact
//!   in floating point, so every route — the column Gram, the row Gram and
//!   the randomized sketch — must return the same alarmed bins, T² series,
//!   T² limit and rank bit for bit, and SPE series and SPE limit multiplied
//!   by exactly `4^s`.
//! * **OD permutation.** Reversing the window's columns relabels the OD
//!   pairs. On the exact routes (the column and row Grams) the alarmed bins
//!   must not move and both limits must agree to within `1e-12` relative;
//!   on the row Gram so must every bin's SPE and T². The column Gram's
//!   series are left out: one T² bin of this fixture moves by 1.15e-12
//!   relative under the permutation (the series' largest deviation is
//!   5e-13 of its largest value). The sketch draws its test matrix by
//!   column, so a permutation changes its sketch; it is left out of this
//!   relation altogether.
//!
//! Every case runs at the default pool and under `with_thread_limit(1)`.

use odflow_linalg::{EigenMethod, Matrix};
use odflow_par::with_thread_limit;
use odflow_subspace::{analyze, SubspaceConfig};

const K: usize = 4;

/// Seeded synthetic traffic whose signal spans exactly `K` axes: four
/// temporal patterns of decreasing strength, each weighted per column,
/// over a small hash noise, plus a handful of spiked bins.
fn traffic(n: usize, p: usize) -> Matrix {
    let hash = |i: usize, j: usize, salt: u64| {
        let mut z = salt
            ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (j as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    };
    let mut x = Matrix::from_fn(n, p, |i, j| {
        let t = i as f64 / n as f64 * std::f64::consts::TAU;
        let patterns = [t.sin(), (2.0 * t).cos(), (3.0 * t + 0.5).sin(), (5.0 * t).cos()];
        let signal: f64 = patterns
            .iter()
            .zip([40.0, 20.0, 10.0, 5.0])
            .enumerate()
            .map(|(m, (pattern, strength))| strength * (0.5 + hash(m, j, 1)) * pattern)
            .sum();
        100.0 + signal + (hash(i, j, 2) - 0.5)
    });
    for (b, bin) in [n / 5, n / 2, 4 * n / 5].into_iter().enumerate() {
        for od in (b..p).step_by(p / 8 + 1) {
            x[(bin, od)] += 60.0;
        }
    }
    x
}

/// What a relation reads off one fit.
struct Fit {
    alarms: Vec<usize>,
    spe: Vec<f64>,
    t2: Vec<f64>,
    spe_limit: f64,
    t2_limit: f64,
    rank: usize,
}

fn fit(x: &Matrix) -> Fit {
    let a = analyze(x, SubspaceConfig { k: K, ..SubspaceConfig::default() }).unwrap();
    Fit {
        alarms: a.anomalous_bins(),
        spe_limit: a.model.spe_threshold(),
        t2_limit: a.model.t2_threshold(),
        rank: a.model.decomposition().rank(),
        spe: a.spe,
        t2: a.t2,
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Runs `check` under a one-thread limit and at the default pool.
fn at_both_pools(check: impl Fn()) {
    with_thread_limit(1, &check);
    check();
}

/// The `2^s` scaling relation on `x`, for s ∈ {−20, −4, 4, 20}.
fn assert_scaling(x: &Matrix) {
    at_both_pools(|| {
        let base = fit(x);
        assert!(!base.alarms.is_empty(), "the fixture's spikes alarm");
        for s in [-20, -4, 4, 20] {
            let c = 2f64.powi(s);
            let scaled = fit(&Matrix::from_fn(x.nrows(), x.ncols(), |i, j| x[(i, j)] * c));
            let shape = format!("{} x {}, s = {s}", x.nrows(), x.ncols());
            assert_eq!(scaled.alarms, base.alarms, "{shape}: alarmed bins");
            assert_eq!(bits(&scaled.t2), bits(&base.t2), "{shape}: T² series");
            assert_eq!(scaled.t2_limit.to_bits(), base.t2_limit.to_bits(), "{shape}: T² limit");
            assert_eq!(scaled.rank, base.rank, "{shape}: rank");
            let c2 = c * c;
            let spe: Vec<f64> = base.spe.iter().map(|v| v * c2).collect();
            assert_eq!(bits(&scaled.spe), bits(&spe), "{shape}: SPE series");
            assert_eq!(
                scaled.spe_limit.to_bits(),
                (base.spe_limit * c2).to_bits(),
                "{shape}: SPE limit"
            );
        }
    });
}

fn assert_close(a: f64, b: f64, what: &str) {
    let scale = a.abs().max(b.abs());
    assert!((a - b).abs() <= 1e-12 * scale, "{what}: {a} vs {b}");
}

/// The OD-permutation relation on `x`, its columns reversed: the alarmed
/// bins and both limits, and every bin's SPE and T² when `series` is set.
fn assert_permutation(x: &Matrix, series: bool) {
    let p = x.ncols();
    let reversed = Matrix::from_fn(x.nrows(), p, |i, j| x[(i, p - 1 - j)]);
    at_both_pools(|| {
        let (base, permuted) = (fit(x), fit(&reversed));
        assert!(!base.alarms.is_empty(), "the fixture's spikes alarm");
        assert_eq!(permuted.alarms, base.alarms, "alarmed bins");
        if series {
            for (stat, a, b) in [("SPE", &base.spe, &permuted.spe), ("T²", &base.t2, &permuted.t2)]
            {
                for (bin, (&u, &v)) in a.iter().zip(b).enumerate() {
                    assert_close(u, v, &format!("{stat} at bin {bin}"));
                }
            }
        }
        assert_close(base.spe_limit, permuted.spe_limit, "SPE limit");
        assert_close(base.t2_limit, permuted.t2_limit, "T² limit");
    });
}

#[test]
fn column_gram_fit_is_scale_equivariant() {
    assert!(EigenMethod::Auto.is_dense_for((400, 121), K));
    assert_scaling(&traffic(400, 121));
}

#[test]
fn row_gram_fit_is_scale_equivariant() {
    assert!(EigenMethod::Auto.is_dense_for((24, 20_000), K));
    assert_scaling(&traffic(24, 20_000));
}

#[test]
fn sketched_fit_is_scale_equivariant() {
    assert!(!EigenMethod::Auto.is_dense_for((96, 8_192), K));
    assert_scaling(&traffic(96, 8_192));
}

#[test]
fn column_gram_fit_is_od_permutation_invariant() {
    assert_permutation(&traffic(400, 121), false);
}

#[test]
fn row_gram_fit_is_od_permutation_invariant() {
    assert_permutation(&traffic(24, 20_000), true);
}
