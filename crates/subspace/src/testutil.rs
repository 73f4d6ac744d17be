//! Shared test fixtures: synthetic OD traffic with full-rank noise.
//!
//! Test-only. The noise must be "white" (full-rank, stationary) for the
//! detection statistics to behave as designed; naive modular patterns are
//! periodic and low-rank, which silently breaks threshold calibration.

use odflow_linalg::Matrix;

/// Deterministic hash noise in `[-0.5, 0.5)`, i.i.d.-like across `(i, j)`.
pub fn hash_noise(i: usize, j: usize) -> f64 {
    let mut z = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (j as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z as f64 / u64::MAX as f64) - 0.5
}

/// Synthetic OD traffic whose shared signal spans an exactly
/// 4-dimensional space — a diurnal fundamental and its second harmonic,
/// each appearing at two phases (span{sin t, cos t, sin 2t, cos 2t}) — so
/// the paper's `k = 4` normal subspace captures the signal exactly and the
/// residual is pure white noise of magnitude `noise_amp`. Optional spikes
/// are added afterwards.
pub fn traffic(n: usize, p: usize, noise_amp: f64, spikes: &[(usize, usize, f64)]) -> Matrix {
    let mut m = Matrix::from_fn(n, p, |i, j| {
        let t = i as f64 / 288.0 * std::f64::consts::TAU;
        // Generic phase pairs (4 x 3 combinations) make the coefficient
        // rows span the full {sin t, cos t, sin 2t, cos 2t} space; aligned
        // phase groups would be linearly dependent and drop the rank to 3.
        let phase = 0.8 * (j % 4) as f64;
        let psi = 1.1 * (j % 3) as f64;
        let amp = 15.0 + j as f64;
        amp * (2.0 + (t + phase).sin() + 0.8 * (2.0 * t + psi).sin()) + noise_amp * hash_noise(i, j)
    });
    for &(bi, od, mag) in spikes {
        m[(bi, od)] += mag;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_noise_bounded_and_varied() {
        let mut distinct = std::collections::BTreeSet::new();
        for i in 0..50 {
            for j in 0..10 {
                let v = hash_noise(i, j);
                assert!((-0.5..0.5).contains(&v));
                distinct.insert((v * 1e12) as i64);
            }
        }
        assert!(distinct.len() > 450, "noise should rarely collide");
    }

    #[test]
    fn hash_noise_roughly_zero_mean() {
        let mean: f64 = (0..10_000).map(|i| hash_noise(i, 3)).sum::<f64>() / 10_000.0;
        assert!(mean.abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn traffic_applies_spikes() {
        let clean = traffic(10, 4, 1.0, &[]);
        let spiked = traffic(10, 4, 1.0, &[(5, 2, 100.0)]);
        assert!((spiked[(5, 2)] - clean[(5, 2)] - 100.0).abs() < 1e-12);
        assert_eq!(spiked[(4, 2)], clean[(4, 2)]);
    }
}
