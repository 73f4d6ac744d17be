//! Backend and thread-count equivalence of the exact fit at Abilene scale
//! (`p = 121`):
//!
//! * the fit's column Gram agrees with the row Gram of the same window,
//!   built here from public kernels: top-`k` eigenvalues within relative
//!   tolerance, near-zero principal angles between the normal subspaces,
//!   and **identical** SPE/T² verdicts bin by bin;
//! * across `ODFLOW_THREADS ∈ {1, typical, oversubscribed}` the column-Gram
//!   fit and the default detection output are **bit-identical**, and an
//!   injected spike fires whatever the pool.
//!
//! (The eigensolver's own oracle — cyclic Jacobi — is in `odflow_linalg`'s
//! `eigen.rs` unit tests, the only place that can see it; the row Gram's
//! thread contract is pinned by `wide_fit`.)

use odflow_linalg::{column_means, eigen_symmetric, thin_svd, Matrix};
use odflow_par::with_thread_limit;
use odflow_subspace::{
    analyze, q_threshold, t2_threshold, EigenflowDecomposition, ModelState, SubspaceConfig,
    SubspaceModel,
};
use proptest::prelude::*;

/// Synthetic OD traffic: a few shared temporal patterns + hash noise, with
/// optional spikes (the same fixture family as `par_equivalence`).
fn traffic(n: usize, p: usize, spikes: &[(usize, usize, f64)]) -> Matrix {
    let mut m = Matrix::from_fn(n, p, |i, j| {
        let t = i as f64 / 288.0 * std::f64::consts::TAU;
        let phase = 0.8 * (j % 4) as f64;
        let psi = 1.1 * (j % 3) as f64;
        let mut z = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (j as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 31;
        let noise = (z as f64 / u64::MAX as f64) - 0.5;
        (15.0 + j as f64) * (2.0 + (t + phase).sin() + 0.8 * (2.0 * t + psi).sin()) + noise
    });
    for &(bi, od, mag) in spikes {
        m[(bi, od)] += mag;
    }
    m
}

/// The model the row Gram `(X − 1μᵀ)(X − 1μᵀ)ᵀ` of `x` gives: its
/// eigenvalues are the squared singular values, and each normal axis is
/// `(X − 1μᵀ)ᵀ u_i / σ_i`. A tall window has at most `p` nonzero ones, so
/// the spectrum is its top `p`; the thresholds come from that spectrum as
/// a fit's do.
fn row_gram_model(x: &Matrix, config: SubspaceConfig) -> SubspaceModel {
    let (n, p) = x.shape();
    let k = config.k;
    let means = column_means(x);
    let centered = Matrix::from_fn(n, p, |i, j| x[(i, j)] - means[j]);
    let gram = centered.matmul(&centered.transpose()).unwrap();
    let eig = eigen_symmetric(&gram).unwrap();
    let singular_values: Vec<f64> =
        eig.eigenvalues.iter().take(p).map(|&l| l.max(0.0).sqrt()).collect();
    let u = eig.eigenvectors.select_cols(&(0..k).collect::<Vec<_>>()).unwrap();
    let mut loadings = centered.transpose().matmul(&u).unwrap();
    for (j, &sigma) in singular_values.iter().take(k).enumerate() {
        for i in 0..p {
            loadings[(i, j)] /= sigma;
        }
    }
    let total_energy = singular_values.iter().map(|s| s * s).sum();
    let eigenvalues: Vec<f64> = singular_values.iter().map(|s| s * s / (n as f64 - 1.0)).collect();
    let spe_threshold = q_threshold(&eigenvalues, k, config.alpha).unwrap();
    SubspaceModel::from_state(ModelState {
        decomp: EigenflowDecomposition { loadings, singular_values, means, n, total_energy },
        config,
        p,
        spe_threshold: spe_threshold.unwrap_or(0.0),
        t2_threshold: t2_threshold(k, n, config.alpha).unwrap(),
        degenerate_residual: spe_threshold.is_none(),
    })
    .unwrap()
}

/// Cosines of the principal angles between the span of the top-`k` columns
/// of `a` and of `b` — the singular values of `A_k^T B_k`.
fn principal_angle_cosines(a: &Matrix, b: &Matrix, k: usize) -> Vec<f64> {
    let idx: Vec<usize> = (0..k).collect();
    let ak = a.select_cols(&idx).unwrap();
    let bk = b.select_cols(&idx).unwrap();
    let overlap = ak.transpose().matmul(&bk).unwrap();
    thin_svd(&overlap, 0.0).unwrap().sigma
}

/// Asserts the equivalence contract between two models fit to `x` by
/// different backends, and returns the bins either statistic alarms.
fn assert_models_agree(
    fit: &SubspaceModel,
    reference: &SubspaceModel,
    k: usize,
    x: &Matrix,
) -> Vec<usize> {
    // Top-k covariance eigenvalues within relative tolerance.
    let scale = fit.decomposition().eigenvalue(0);
    for i in 0..k {
        let d = fit.decomposition().eigenvalue(i);
        let r = reference.decomposition().eigenvalue(i);
        assert!(
            (d - r).abs() <= 1e-6 * scale,
            "eigenvalue {i}: fit {d} vs reference {r} (scale {scale})"
        );
    }

    // Normal subspaces aligned: every principal angle near zero.
    let cosines = principal_angle_cosines(
        &fit.decomposition().loadings,
        &reference.decomposition().loadings,
        k,
    );
    assert_eq!(cosines.len(), k);
    for (i, c) in cosines.iter().enumerate() {
        assert!(*c > 1.0 - 1e-8, "principal angle {i} too wide: cos = {c}");
    }
    assert!(
        (fit.spe_threshold() - reference.spe_threshold()).abs() <= 1e-6 * fit.spe_threshold(),
        "SPE limit: fit {} vs reference {}",
        fit.spe_threshold(),
        reference.spe_threshold()
    );
    assert_eq!(fit.t2_threshold().to_bits(), reference.t2_threshold().to_bits());

    // Identical SPE/T² verdicts bin by bin (values agree to tolerance;
    // threshold crossings agree exactly).
    let mut alarmed = Vec::new();
    for (bin, row) in x.rows_iter().enumerate() {
        let spe_d = fit.spe(row).unwrap();
        let spe_r = reference.spe(row).unwrap();
        assert!(
            (spe_d - spe_r).abs() <= 1e-6 * (1.0 + spe_d.abs()),
            "SPE diverged: {spe_d} vs {spe_r}"
        );
        let t2_d = fit.t2(row).unwrap();
        let t2_r = reference.t2(row).unwrap();
        assert!((t2_d - t2_r).abs() <= 1e-6 * (1.0 + t2_d.abs()), "T² diverged: {t2_d} vs {t2_r}");
        let spe_alarm = spe_d > fit.spe_threshold();
        let t2_alarm = t2_d > fit.t2_threshold();
        assert_eq!(
            spe_alarm,
            spe_r > reference.spe_threshold(),
            "SPE verdict flipped (fit {spe_d} vs {} / reference {spe_r} vs {})",
            fit.spe_threshold(),
            reference.spe_threshold()
        );
        assert_eq!(t2_alarm, t2_r > reference.t2_threshold(), "T² verdict flipped");
        if spe_alarm || t2_alarm {
            alarmed.push(bin);
        }
    }
    alarmed
}

#[test]
fn abilene_scale_backends_agree() {
    // The paper's p = 121 with injected spikes: the column Gram the fit
    // takes and the window's row Gram must flag exactly the same bins.
    let x = traffic(400, 121, &[(150, 40, 4000.0), (290, 7, 3500.0)]);
    let k = 4;
    let config = SubspaceConfig::default();
    let fit = SubspaceModel::fit(&x, config).unwrap();
    let reference = row_gram_model(&x, config);
    let alarmed = assert_models_agree(&fit, &reference, k, &x);
    assert!(alarmed.contains(&150), "alarmed bins {alarmed:?}");
    assert!(alarmed.contains(&290), "alarmed bins {alarmed:?}");
}

#[test]
fn tridiagonal_fit_is_thread_count_invariant() {
    let x = traffic(300, 121, &[(100, 11, 3000.0)]);
    let cfg = SubspaceConfig::default();
    let serial = with_thread_limit(1, || SubspaceModel::fit(&x, cfg).unwrap());
    // 4 = typical, 64 = heavily oversubscribed on this container.
    for &threads in &[4usize, 64] {
        let par = with_thread_limit(threads, || SubspaceModel::fit(&x, cfg).unwrap());
        assert_eq!(
            serial.decomposition().singular_values,
            par.decomposition().singular_values,
            "singular values must be bit-identical (threads={threads})"
        );
        assert_eq!(
            serial.decomposition().loadings.as_slice(),
            par.decomposition().loadings.as_slice(),
            "loadings must be bit-identical (threads={threads})"
        );
        assert_eq!(serial.spe_threshold().to_bits(), par.spe_threshold().to_bits());
        assert_eq!(serial.t2_threshold().to_bits(), par.t2_threshold().to_bits());
    }
}

#[test]
fn abilene_default_detection_is_byte_identical_across_thread_counts() {
    // The default detection pipeline at the paper's p = 121 flags both
    // injected spikes and produces byte-identical output — statistics,
    // thresholds, verdicts — for serial, typical, and oversubscribed pools.
    let x = traffic(400, 121, &[(150, 40, 4000.0), (290, 7, 3500.0)]);
    let analyze_at =
        |threads| with_thread_limit(threads, || analyze(&x, SubspaceConfig::default()).unwrap());
    let serial = analyze_at(1);
    assert!(serial.anomalous_bins().contains(&150));
    assert!(serial.anomalous_bins().contains(&290));
    for &threads in &[4usize, 64] {
        let par = analyze_at(threads);
        assert_eq!(serial.anomalous_bins(), par.anomalous_bins(), "threads={threads}");
        assert_eq!(serial.detections.len(), par.detections.len());
        for (a, b) in serial.detections.iter().zip(&par.detections) {
            assert_eq!(a.bin, b.bin, "threads={threads}");
            assert_eq!(a.kind, b.kind, "threads={threads}");
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "threads={threads}");
            assert_eq!(a.threshold.to_bits(), b.threshold.to_bits(), "threads={threads}");
        }
        for (a, b) in serial.spe.iter().zip(&par.spe) {
            assert_eq!(a.to_bits(), b.to_bits(), "SPE series (threads={threads})");
        }
        for (a, b) in serial.t2.iter().zip(&par.t2) {
            assert_eq!(a.to_bits(), b.to_bits(), "T² series (threads={threads})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn backend_equivalence_randomized_inputs(
        n in 150usize..300,
        p in 40usize..121,
        threads in 2usize..16,
        spike_bin in 20usize..100,
        spike_mag in 2000.0f64..6000.0,
    ) {
        let k = 4;
        let x = traffic(n, p, &[(spike_bin, p / 3, spike_mag)]);
        let cfg = SubspaceConfig { k, ..SubspaceConfig::default() };

        // Serial and typical-width pools must agree bit-for-bit.
        let serial = with_thread_limit(1, || SubspaceModel::fit(&x, cfg).unwrap());
        let typical = with_thread_limit(threads, || SubspaceModel::fit(&x, cfg).unwrap());
        prop_assert_eq!(
            serial.decomposition().singular_values.clone(),
            typical.decomposition().singular_values.clone()
        );
        prop_assert_eq!(
            serial.decomposition().loadings.as_slice(),
            typical.decomposition().loadings.as_slice()
        );
        prop_assert_eq!(serial.spe_threshold().to_bits(), typical.spe_threshold().to_bits());

        // And the injected spike fires through *some* statistic (a
        // training-window spike this large can be absorbed into the normal
        // subspace, where T² catches it instead of SPE — the paper's §2.2
        // argument for running both).
        let spiked_row = x.row(spike_bin).unwrap();
        let fires = serial.spe(spiked_row).unwrap() > serial.spe_threshold()
            || serial.t2(spiked_row).unwrap() > serial.t2_threshold();
        prop_assert!(fires, "the fit missed the spike");
    }
}
