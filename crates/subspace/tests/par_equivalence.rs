//! Parallel/serial equivalence of batch detection.
//!
//! `analyze` fans SPE/T² scoring over row chunks; the
//! merged output must match the one-thread serial fallback within 1e-10 —
//! and, since every bin runs identical arithmetic, exactly — for any pool
//! size, including oversubscribed pools with more threads than bins.

use odflow_linalg::Matrix;
use odflow_par::with_thread_limit;
use odflow_subspace::{analyze, Analysis, SubspaceConfig};
use proptest::prelude::*;

/// Synthetic OD traffic: 4-dimensional shared signal + hash noise, with an
/// optional spike (mirrors the crate's internal test fixture).
fn traffic(n: usize, p: usize, spike: Option<(usize, usize, f64)>) -> Matrix {
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
    if let Some((bi, od, mag)) = spike {
        m[(bi, od)] += mag;
    }
    m
}

fn assert_analyses_equal(a: &Analysis, b: &Analysis) {
    assert_eq!(a.spe.len(), b.spe.len());
    for (x, y) in a.spe.iter().zip(&b.spe) {
        assert!((x - y).abs() <= 1e-10, "SPE diverged: {x} vs {y}");
    }
    for (x, y) in a.t2.iter().zip(&b.t2) {
        assert!((x - y).abs() <= 1e-10, "T² diverged: {x} vs {y}");
    }
    for (x, y) in a.state_norm_sq.iter().zip(&b.state_norm_sq) {
        assert!((x - y).abs() <= 1e-10 * (1.0 + x.abs()), "state norm diverged");
    }
    // Detections carry discrete structure: same bins, kinds, and order.
    assert_eq!(a.detections.len(), b.detections.len(), "detection count diverged");
    for (x, y) in a.detections.iter().zip(&b.detections) {
        assert_eq!(x.bin, y.bin);
        assert_eq!(x.kind, y.kind);
        assert!((x.value - y.value).abs() <= 1e-10 * (1.0 + x.value.abs()));
    }
    // And the scoring is in fact bit-identical across pool sizes.
    assert_eq!(a.spe, b.spe);
    assert_eq!(a.t2, b.t2);
}

#[test]
fn analyze_matches_across_thread_counts_with_spikes() {
    let x = traffic(500, 12, Some((250, 3, 300.0)));
    let config = SubspaceConfig::default();
    let serial = with_thread_limit(1, || analyze(&x, config).unwrap());
    let typical = with_thread_limit(4, || analyze(&x, config).unwrap());
    let oversub = with_thread_limit(x.nrows() + 9, || analyze(&x, config).unwrap());
    assert_analyses_equal(&serial, &typical);
    assert_analyses_equal(&serial, &oversub);
    assert!(serial.anomalous_bins().contains(&250), "the spike must still be flagged");
}

#[test]
fn analyze_chunk_boundaries_are_thread_invariant() {
    // Bin counts straddling the fixed 64-bin scoring chunk.
    for &n in &[63usize, 64, 65, 129] {
        let x = traffic(n, 8, None);
        let config = SubspaceConfig::default();
        let serial = with_thread_limit(1, || analyze(&x, config).unwrap());
        let wide = with_thread_limit(16, || analyze(&x, config).unwrap());
        assert_analyses_equal(&serial, &wide);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn analyze_equivalence_randomized(
        n in 40usize..200,
        p in 6usize..14,
        threads in 2usize..24,
        spike_bin in 10usize..30,
        spike_mag in 50.0f64..500.0,
    ) {
        let x = traffic(n, p, Some((spike_bin, p / 2, spike_mag)));
        let config = SubspaceConfig::default();
        let serial = with_thread_limit(1, || analyze(&x, config).unwrap());
        let parallel = with_thread_limit(threads, || analyze(&x, config).unwrap());
        assert_analyses_equal(&serial, &parallel);
    }
}
