//! The randomized fit at width: every output bit pinned, and the inputs
//! that must not reach it turned into typed outcomes.
//!
//! `EigenMethod::Auto` takes the randomized range finder once `p` exceeds
//! 512, the large-mesh regime. The goldens below are FNV-1a words over the
//! exact bits of two such fits — singular values, loadings, eigenflows,
//! total energy, both thresholds and the SPE / T² series over the training
//! window. They were captured before the fit stopped copying the centered
//! window; like the storm-day goldens, they are never re-pinned to make a
//! refactor pass.

use odflow_linalg::{EigenMethod, Matrix};
use odflow_par::with_thread_limit;
use odflow_subspace::{EigenflowDecomposition, SubspaceConfig, SubspaceError, SubspaceModel};

/// Seeded synthetic OD traffic: two shared temporal patterns with
/// per-column amplitude and phase, plus hash noise whose size varies by
/// column, so the spectrum has a real tail under the sketch width.
fn noisy_traffic(n: usize, p: usize, seed: u64) -> Matrix {
    Matrix::from_fn(n, p, |i, j| {
        let t = i as f64 / 288.0 * std::f64::consts::TAU * 12.0;
        let amp = 15.0 + (j % 97) as f64;
        let phase = 0.8 * (j % 4) as f64;
        let psi = 1.1 * (j % 3) as f64;
        let signal = amp * (2.0 + (t + phase).sin() + 0.8 * (2.0 * t + psi).sin());
        let mut z = seed
            ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (j as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let noise = (z as f64 / u64::MAX as f64) - 0.5;
        signal + (1.0 + (j % 7) as f64) * noise
    })
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn bits(values: &[f64]) -> u64 {
    fnv(values.iter().map(|v| v.to_bits()))
}

/// One word per pinned field, in a fixed order: σ, loadings, eigenflows,
/// `[total_energy, SPE threshold, T² threshold]`, SPE series, T² series.
fn field_words(model: &SubspaceModel, x: &Matrix) -> [u64; 6] {
    let d = model.decomposition();
    [
        bits(&d.singular_values),
        bits(d.loadings.as_slice()),
        bits(d.eigenflows.as_slice()),
        bits(&[d.total_energy, model.spe_threshold(), model.t2_threshold()]),
        bits(&model.spe_series(x).unwrap()),
        bits(&model.t2_series(x).unwrap()),
    ]
}

/// Fits `x` under `Auto` at the serial fallback and at the default pool,
/// and returns the digest both must share.
fn digest(x: &Matrix, k: usize) -> u64 {
    let cfg = SubspaceConfig { k, method: EigenMethod::Auto, ..SubspaceConfig::default() };
    assert!(!cfg.method.is_dense_for(x.ncols()), "the fixture must resolve randomized");
    let fit = || {
        let model = SubspaceModel::fit(x, cfg).unwrap();
        let d = model.decomposition();
        assert!(d.truncated);
        // Every retained σ is data, far above any rank cutoff.
        assert!(d.singular_values[d.rank() - 1] > 1e-4 * d.singular_values[0]);
        field_words(&model, x)
    };
    let serial = with_thread_limit(1, fit);
    let pooled = fit();
    assert_eq!(serial, pooled, "the fit must not depend on the pool size");
    let word = fnv(serial);
    println!("{}x{} k={k}: {word:#018x} fields {serial:#018x?}", x.nrows(), x.ncols());
    word
}

#[test]
fn wide_randomized_fit_goldens_are_pinned() {
    // The large-mesh shape in miniature: 24 bins, k = 10, an 18-wide
    // sketch, products banded across twenty 1024-column bands.
    assert_eq!(
        digest(&noisy_traffic(24, 20_000, 7), 10),
        0xd8c4_d70f_7e93_8c0a,
        "24 x 20000 drifted"
    );
    // An odd bin count, and three full 1024-column bands plus a ragged
    // five-column fourth.
    assert_eq!(
        digest(&noisy_traffic(17, 3 * 1024 + 5, 11), 4),
        0x7671_c13a_47a7_c4fb,
        "17 x 3077 drifted"
    );
}

fn fit_auto(x: &Matrix, k: usize) -> Result<SubspaceModel, SubspaceError> {
    SubspaceModel::fit(
        x,
        SubspaceConfig { k, method: EigenMethod::Auto, ..SubspaceConfig::default() },
    )
}

#[test]
fn constant_window_gives_a_degenerate_model_not_nan() {
    // Every OD pair flat over the window (each at its own level): the
    // centered data is exactly zero.
    let x = Matrix::from_fn(30, 600, |_, j| 1e3 + j as f64);
    let model = fit_auto(&x, 4).unwrap();
    assert!(model.degenerate_residual());
    assert!(model.spe_threshold().is_finite());
    assert!(model.t2_threshold().is_finite());
    let d = model.decomposition();
    assert_eq!(d.total_energy, 0.0);
    assert!(d.singular_values.iter().all(|s| s.is_finite()));
    assert!(d.loadings.all_finite() && d.eigenflows.all_finite());
    assert!(model.spe_series(&x).unwrap().iter().all(|&s| s == 0.0));
    assert!(model.t2_series(&x).unwrap().iter().all(|t| t.is_finite()));
}

#[test]
fn non_finite_centered_values_are_refused() {
    let non_finite = |x: &Matrix| match fit_auto(x, 4) {
        Err(SubspaceError::Numeric { reason }) => {
            assert!(reason.contains("NaN or infinite"), "{reason}");
        }
        other => panic!("expected a non-finite refusal, got {other:?}"),
    };
    let clean = noisy_traffic(20, 700, 3);
    let mut nan = clean.clone();
    nan[(7, 311)] = f64::NAN;
    non_finite(&nan);
    // Every cell finite, but the column's sum — and so its mean —
    // overflows: the centered values are infinite.
    for sign in [1.0, -1.0] {
        let mut huge = clean.clone();
        for i in 0..huge.nrows() {
            huge[(i, 42)] = sign * 1.7e308;
        }
        assert!(huge.all_finite());
        non_finite(&huge);
    }
}

#[test]
fn too_few_bins_is_insufficient_data() {
    let x = noisy_traffic(4, 700, 5);
    for k in [4, 6] {
        assert!(matches!(fit_auto(&x, k), Err(SubspaceError::InsufficientData { .. })), "k={k}");
    }
    let one_bin = noisy_traffic(1, 700, 5);
    assert!(matches!(
        EigenflowDecomposition::fit_with(&one_bin, 4, EigenMethod::Auto),
        Err(SubspaceError::InsufficientData { .. })
    ));
}
