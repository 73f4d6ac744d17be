//! Backend equivalence: the randomized truncated eigensolver must agree
//! with the exact dense path wherever both can run. (The dense solver's
//! own oracle — cyclic Jacobi — is in `odflow_linalg`'s `eigen.rs` unit
//! tests, the only place that can see it.)
//!
//! Pinned properties, at Abilene scale (`p = 121`) and across
//! `ODFLOW_THREADS ∈ {1, typical, oversubscribed}`:
//!
//! * top-`k` covariance eigenvalues within relative tolerance,
//! * near-zero principal angles between the two normal subspaces,
//! * **identical** SPE/T² anomaly verdicts (same bins, same statistics),
//! * the randomized and dense paths each bit-identical for every thread
//!   count,
//! * the default Abilene-scale detection output **byte-identical** for
//!   every thread count.

use odflow_linalg::{thin_svd, EigenMethod, Matrix};
use odflow_par::with_thread_limit;
use odflow_subspace::{SubspaceConfig, SubspaceDetector, SubspaceModel};
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

fn randomized(seed: u64) -> EigenMethod {
    EigenMethod::RandomizedTruncated { oversample: 8, power_iters: 2, seed }
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

/// Asserts the equivalence contract between a dense-fit and a
/// randomized-fit model on the same data.
fn assert_models_agree(dense: &SubspaceModel, rnd: &SubspaceModel, k: usize, x: &Matrix) {
    // Top-k covariance eigenvalues within relative tolerance.
    let scale = dense.decomposition().eigenvalue(0);
    for i in 0..k {
        let d = dense.decomposition().eigenvalue(i);
        let r = rnd.decomposition().eigenvalue(i);
        assert!(
            (d - r).abs() <= 1e-6 * scale,
            "eigenvalue {i}: dense {d} vs randomized {r} (scale {scale})"
        );
    }

    // Normal subspaces aligned: every principal angle near zero.
    let cosines =
        principal_angle_cosines(&dense.decomposition().loadings, &rnd.decomposition().loadings, k);
    assert_eq!(cosines.len(), k);
    for (i, c) in cosines.iter().enumerate() {
        assert!(*c > 1.0 - 1e-8, "principal angle {i} too wide: cos = {c}");
    }

    // Identical SPE/T² verdicts bin by bin (values agree to tolerance;
    // threshold crossings agree exactly).
    for row in x.rows_iter() {
        let spe_d = dense.spe(row).unwrap();
        let spe_r = rnd.spe(row).unwrap();
        assert!(
            (spe_d - spe_r).abs() <= 1e-6 * (1.0 + spe_d.abs()),
            "SPE diverged: {spe_d} vs {spe_r}"
        );
        let t2_d = dense.t2(row).unwrap();
        let t2_r = rnd.t2(row).unwrap();
        assert!((t2_d - t2_r).abs() <= 1e-6 * (1.0 + t2_d.abs()), "T² diverged: {t2_d} vs {t2_r}");
        assert_eq!(
            spe_d > dense.spe_threshold(),
            spe_r > rnd.spe_threshold(),
            "SPE verdict flipped (dense {spe_d} vs {} / randomized {spe_r} vs {})",
            dense.spe_threshold(),
            rnd.spe_threshold()
        );
        assert_eq!(t2_d > dense.t2_threshold(), t2_r > rnd.t2_threshold(), "T² verdict flipped");
    }
}

#[test]
fn abilene_scale_backends_agree() {
    // The paper's p = 121 with injected spikes: both backends must flag
    // exactly the same bins.
    let x = traffic(400, 121, &[(150, 40, 4000.0), (290, 7, 3500.0)]);
    let k = 4;
    let dense = SubspaceModel::fit(&x, SubspaceConfig::default()).unwrap();
    let rnd = SubspaceModel::fit(
        &x,
        SubspaceConfig { method: randomized(17), ..SubspaceConfig::default() },
    )
    .unwrap();
    assert_models_agree(&dense, &rnd, k, &x);

    let dense_det = SubspaceDetector::default().analyze(&x).unwrap();
    let rnd_det = SubspaceDetector::new(SubspaceConfig {
        method: randomized(17),
        ..SubspaceConfig::default()
    })
    .analyze(&x)
    .unwrap();
    assert_eq!(dense_det.anomalous_bins(), rnd_det.anomalous_bins());
    for (d, r) in dense_det.detections.iter().zip(&rnd_det.detections) {
        assert_eq!(d.bin, r.bin);
        assert_eq!(d.kind, r.kind);
    }
    assert!(dense_det.anomalous_bins().contains(&150));
    assert!(dense_det.anomalous_bins().contains(&290));
}

#[test]
fn tridiagonal_fit_is_thread_count_invariant() {
    let x = traffic(300, 121, &[(100, 11, 3000.0)]);
    let cfg = SubspaceConfig { method: EigenMethod::DenseTridiagonal, ..SubspaceConfig::default() };
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
    // The default (Auto-method) detection pipeline at the paper's p = 121
    // produces byte-identical output — statistics, thresholds, verdicts —
    // for serial, typical, and oversubscribed pools.
    let x = traffic(400, 121, &[(150, 40, 4000.0), (290, 7, 3500.0)]);
    let analyze =
        |threads| with_thread_limit(threads, || SubspaceDetector::default().analyze(&x).unwrap());
    let serial = analyze(1);
    for &threads in &[4usize, 64] {
        let par = analyze(threads);
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

#[test]
fn randomized_fit_is_thread_count_invariant() {
    let x = traffic(300, 121, &[(100, 11, 3000.0)]);
    let cfg = SubspaceConfig { method: randomized(3), ..SubspaceConfig::default() };
    let serial = with_thread_limit(1, || SubspaceModel::fit(&x, cfg).unwrap());
    let typical = with_thread_limit(4, || SubspaceModel::fit(&x, cfg).unwrap());
    assert_eq!(
        serial.decomposition().singular_values,
        typical.decomposition().singular_values,
        "singular values must be bit-identical across thread counts"
    );
    assert_eq!(
        serial.decomposition().loadings.as_slice(),
        typical.decomposition().loadings.as_slice(),
        "loadings must be bit-identical across thread counts"
    );
    assert_eq!(serial.spe_threshold().to_bits(), typical.spe_threshold().to_bits());
    assert_eq!(serial.t2_threshold().to_bits(), typical.t2_threshold().to_bits());
}

#[test]
fn wide_matrix_randomized_agrees_with_dense() {
    // n << p — the large-mesh regime in miniature: more OD pairs than
    // timebins, where the dense route is still feasible enough to serve as
    // the reference. k = 4 matches the fixture's temporal signal rank;
    // beyond it the spectrum is a near-degenerate noise floor where exact
    // and sketched eigenvectors legitimately rotate against each other.
    let x = traffic(48, 360, &[(20, 123, 5000.0)]);
    let k = 4;
    let dense = SubspaceModel::fit(
        &x,
        SubspaceConfig { k, method: EigenMethod::DenseTridiagonal, ..SubspaceConfig::default() },
    )
    .unwrap();
    let rnd = SubspaceModel::fit(
        &x,
        SubspaceConfig { k, method: randomized(29), ..SubspaceConfig::default() },
    )
    .unwrap();
    assert_models_agree(&dense, &rnd, k, &x);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn backend_equivalence_randomized_inputs(
        n in 150usize..300,
        p in 40usize..121,
        seed in 0u64..1000,
        threads in 2usize..16,
        spike_bin in 20usize..100,
        spike_mag in 2000.0f64..6000.0,
    ) {
        let k = 4;
        let x = traffic(n, p, &[(spike_bin, p / 3, spike_mag)]);
        let dense_cfg = SubspaceConfig { k, ..SubspaceConfig::default() };
        let rnd_cfg = SubspaceConfig { k, method: randomized(seed), ..SubspaceConfig::default() };

        // Serial and typical-width pools must agree bit-for-bit per
        // backend, and the two backends must agree on everything above.
        let dense = with_thread_limit(1, || SubspaceModel::fit(&x, dense_cfg).unwrap());
        let dense_typical = with_thread_limit(threads, || SubspaceModel::fit(&x, dense_cfg).unwrap());
        let rnd_serial = with_thread_limit(1, || SubspaceModel::fit(&x, rnd_cfg).unwrap());
        let rnd_typical = with_thread_limit(threads, || SubspaceModel::fit(&x, rnd_cfg).unwrap());

        prop_assert_eq!(
            dense.decomposition().singular_values.clone(),
            dense_typical.decomposition().singular_values.clone()
        );
        prop_assert_eq!(
            dense.decomposition().loadings.as_slice(),
            dense_typical.decomposition().loadings.as_slice()
        );
        prop_assert_eq!(
            rnd_serial.decomposition().singular_values.clone(),
            rnd_typical.decomposition().singular_values.clone()
        );
        prop_assert_eq!(
            rnd_serial.decomposition().loadings.as_slice(),
            rnd_typical.decomposition().loadings.as_slice()
        );
        assert_models_agree(&dense, &rnd_serial, k, &x);

        // And both backends flag the injected spike through *some*
        // statistic (a training-window spike this large can be absorbed
        // into the normal subspace, where T² catches it instead of SPE —
        // the paper's §2.2 argument for running both).
        let spiked_row = x.row(spike_bin).unwrap();
        let fires = |m: &SubspaceModel| {
            m.spe(spiked_row).unwrap() > m.spe_threshold()
                || m.t2(spiked_row).unwrap() > m.t2_threshold()
        };
        prop_assert!(fires(&dense), "dense backend missed the spike");
        prop_assert!(fires(&rnd_serial), "randomized backend missed the spike");
    }
}
