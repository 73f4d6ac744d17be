//! Fits of wide windows — fewer bins than OD pairs, the large-mesh shape —
//! through the exact `n x n` row Gram: every output bit pinned, the fit
//! checked against the column Gram of a centered copy, and the inputs that
//! must not reach a fit turned into typed outcomes.
//!
//! The goldens are FNV-1a words over the exact bits of a fit — singular
//! values, the normal subspace's loadings, total energy, both thresholds
//! and the SPE / T² series over the training window — for three fixtures.
//! The words were re-keyed twice, each time on the code that still built
//! what the new key leaves out: from the whole loadings panel to its
//! leading `min(k, rank)` columns before fits stopped building the rest,
//! and without the eigenflows before fits stopped building them. Like the
//! storm-day goldens, they are never re-pinned to make a refactor pass.

use odflow_linalg::{column_means, thin_svd, Matrix};
use odflow_par::with_thread_limit;
use odflow_subspace::{
    q_threshold, t2_threshold, EigenflowDecomposition, ModelState, SubspaceConfig, SubspaceError,
    SubspaceModel,
};

/// Seeded synthetic OD traffic: two shared temporal patterns with
/// per-column amplitude and phase, plus hash noise whose size varies by
/// column, so the spectrum has a real tail.
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

/// One word per pinned field, in a fixed order: σ, the loadings of the
/// normal subspace (the leading `min(k, rank)` columns, the ones scoring
/// reads), `[total_energy, SPE threshold, T² threshold]`, SPE series, T²
/// series.
fn field_words(model: &SubspaceModel, x: &Matrix) -> [u64; 5] {
    let d = model.decomposition();
    let normal: Vec<usize> = (0..model.config().k.min(d.rank())).collect();
    [
        bits(&d.singular_values),
        bits(d.loadings.select_cols(&normal).unwrap().as_slice()),
        bits(&[d.total_energy, model.spe_threshold(), model.t2_threshold()]),
        bits(&model.spe_series(x).unwrap()),
        bits(&model.t2_series(x).unwrap()),
    ]
}

/// Fits `x` at the serial fallback and at the default pool, and returns
/// the digest both must share.
fn digest(x: &Matrix, k: usize) -> u64 {
    let cfg = SubspaceConfig { k, ..SubspaceConfig::default() };
    let fit = || {
        let model = SubspaceModel::fit(x, cfg).unwrap();
        let d = model.decomposition();
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
fn wide_row_gram_fit_goldens_are_pinned() {
    // The large-mesh shape in miniature: 24 bins, k = 10, the 24 x 24 row
    // Gram folded from twenty 1024-column bands.
    assert_eq!(
        digest(&noisy_traffic(24, 20_000, 7), 10),
        0x1900_a4b5_67c1_e49a,
        "24 x 20000 drifted"
    );
    // An odd bin count, and three full 1024-column bands plus a ragged
    // five-column fourth.
    assert_eq!(
        digest(&noisy_traffic(17, 3 * 1024 + 5, 11), 4),
        0x7c65_3c27_3e47_8e51,
        "17 x 3077 drifted"
    );
    // 96 bins at k = 10: a 96 x 96 row Gram.
    assert_eq!(
        digest(&noisy_traffic(96, 20_000, 13), 10),
        0x39f2_2707_f8a7_c062,
        "96 x 20000 drifted"
    );
}

/// The sine of the largest principal angle between the spans of the first
/// `k` columns of `a` and of `b` (orthonormal columns): the spectral norm
/// of `B_k − A_k (A_kᵀ B_k)`, read without the cancellation `√(1 − cos²)`
/// suffers at small angles.
fn largest_angle_sine(a: &Matrix, b: &Matrix, k: usize) -> f64 {
    let idx: Vec<usize> = (0..k).collect();
    let (ak, bk) = (a.select_cols(&idx).unwrap(), b.select_cols(&idx).unwrap());
    let projected = ak.matmul(&ak.transpose().matmul(&bk).unwrap()).unwrap();
    let residual = bk.add(&projected.scaled(-1.0)).unwrap();
    thin_svd(&residual).unwrap().sigma[0]
}

/// The model the paper's own route fits: the `p x p` column Gram of a
/// centered copy of `x` through `thin_svd`, thresholds from its spectrum as
/// `SubspaceModel::fit` takes them.
fn column_gram_model(x: &Matrix, config: SubspaceConfig) -> SubspaceModel {
    let (n, p) = x.shape();
    let means = column_means(x);
    let centered = Matrix::from_fn(n, p, |i, j| x[(i, j)] - means[j]);
    let svd = thin_svd(&centered).unwrap();
    let normal: Vec<usize> = (0..config.k.min(svd.rank())).collect();
    let decomp = EigenflowDecomposition {
        total_energy: svd.sigma.iter().map(|s| s * s).sum(),
        loadings: svd.v.select_cols(&normal).unwrap(),
        singular_values: svd.sigma,
        means,
        n,
    };
    let spe_threshold =
        q_threshold(&decomp.eigenvalues_padded(p), config.k, config.alpha).unwrap().unwrap();
    let t2_threshold = t2_threshold(config.k, n, config.alpha).unwrap();
    let state =
        ModelState { decomp, config, p, spe_threshold, t2_threshold, degenerate_residual: false };
    SubspaceModel::from_state(state).unwrap()
}

#[test]
fn row_gram_fit_agrees_with_the_column_gram_of_a_centered_copy() {
    // Two windows wide enough that `Auto` takes the n x n row Gram and
    // narrow enough that the p x p column Gram is still cheap: the two
    // exact routes share the eigensolver and nothing else.
    for (n, p, seed) in [(24, 600, 1), (17, 700, 2)] {
        let x = noisy_traffic(n, p, seed);
        let config = SubspaceConfig::default();
        let row = SubspaceModel::fit(&x, config).unwrap();
        let col = column_gram_model(&x, config);
        let (rd, cd) = (row.decomposition(), col.decomposition());
        let tag = format!("{n} x {p}");

        // σ relative to σ_max over every direction the centered data has
        // (n − 1); past those both routes hold rounding only.
        let sigma_max = cd.singular_values[0];
        assert!(rd.rank() >= n - 1, "{tag}: rank {}", rd.rank());
        for i in 0..n - 1 {
            let (a, b) = (rd.singular_values[i], cd.singular_values[i]);
            assert!((a - b).abs() <= 1e-12 * sigma_max, "{tag}: σ_{i} {a} vs {b}");
        }
        let k = config.k;
        let sine = largest_angle_sine(&cd.loadings, &rd.loadings, k);
        assert!(sine <= 1e-10, "{tag}: top-{k} axes {sine:e} apart");

        // SPE / T² series at rounding level, thresholds likewise, and the
        // same verdict in every bin.
        let (spe_r, spe_c) = (row.spe_series(&x).unwrap(), col.spe_series(&x).unwrap());
        let (t2_r, t2_c) = (row.t2_series(&x).unwrap(), col.t2_series(&x).unwrap());
        let close = |a: f64, b: f64, scale: f64| (a - b).abs() <= 1e-9 * scale;
        let spe_scale = spe_c.iter().copied().fold(col.spe_threshold(), f64::max);
        let t2_scale = t2_c.iter().copied().fold(col.t2_threshold(), f64::max);
        assert!(close(row.spe_threshold(), col.spe_threshold(), spe_scale), "{tag}");
        assert!(close(row.t2_threshold(), col.t2_threshold(), t2_scale), "{tag}");
        for bin in 0..n {
            assert!(close(spe_r[bin], spe_c[bin], spe_scale), "{tag}: SPE at bin {bin}");
            assert!(close(t2_r[bin], t2_c[bin], t2_scale), "{tag}: T² at bin {bin}");
            assert_eq!(spe_r[bin] > row.spe_threshold(), spe_c[bin] > col.spe_threshold());
            assert_eq!(t2_r[bin] > row.t2_threshold(), t2_c[bin] > col.t2_threshold());
        }
    }
}

fn fit_wide(x: &Matrix, k: usize) -> Result<SubspaceModel, SubspaceError> {
    SubspaceModel::fit(x, SubspaceConfig { k, ..SubspaceConfig::default() })
}

#[test]
fn constant_window_gives_a_degenerate_model_not_nan() {
    // Every OD pair flat over the window (each at its own level): the
    // centered data is exactly zero, the residual carries no variance.
    // The wide window goes through the row Gram, the paper-width ones
    // (p = 121, fewer and more bins than OD pairs) through the column Gram.
    for (n, p) in [(30, 600), (30, 121), (200, 121)] {
        let x = Matrix::from_fn(n, p, |_, j| 1e3 + j as f64);
        let tag = format!("{n} x {p}");
        let model = fit_wide(&x, 4).unwrap();
        assert!(model.degenerate_residual(), "{tag}");
        assert_eq!(model.spe_threshold(), 0.0, "{tag}");
        assert!(model.t2_threshold().is_finite(), "{tag}");
        let d = model.decomposition();
        assert_eq!(d.total_energy, 0.0, "{tag}");
        assert!(d.singular_values.iter().all(|s| s.is_finite()), "{tag}");
        assert!(d.loadings.all_finite(), "{tag}");
        assert!(model.spe_series(&x).unwrap().iter().all(|&s| s == 0.0), "{tag}");
        assert!(model.t2_series(&x).unwrap().iter().all(|t| t.is_finite()), "{tag}");
    }
}

#[test]
fn non_finite_centered_values_are_refused() {
    let clean = noisy_traffic(20, 700, 3);
    let mut nan = clean.clone();
    nan[(7, 311)] = f64::NAN;
    // Every cell finite, but the column's sum — and so its mean —
    // overflows: the centered values are infinite.
    let huge = |sign: f64| {
        let mut huge = clean.clone();
        for i in 0..huge.nrows() {
            huge[(i, 42)] = sign * 1.7e308;
        }
        assert!(huge.all_finite());
        huge
    };
    for x in [nan, huge(1.0), huge(-1.0)] {
        match fit_wide(&x, 4) {
            Err(SubspaceError::Numeric { reason }) => {
                assert!(reason.contains("NaN or infinite"), "{reason}");
            }
            other => panic!("expected a non-finite refusal, got {other:?}"),
        }
    }
}

#[test]
fn too_few_bins_is_insufficient_data() {
    let x = noisy_traffic(4, 700, 5);
    let one_bin = noisy_traffic(1, 700, 5);
    for k in [4, 6] {
        assert!(matches!(fit_wide(&x, k), Err(SubspaceError::InsufficientData { .. })), "k={k}");
    }
    assert!(matches!(
        EigenflowDecomposition::fit_with(&one_bin, 4),
        Err(SubspaceError::InsufficientData { .. })
    ));
}
