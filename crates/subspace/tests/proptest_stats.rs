//! Property-based tests for the two detection thresholds.

use odflow_subspace::{q_threshold, t2_threshold};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn t2_threshold_positive_and_monotone_alpha(
        k in 1usize..10, extra in 10usize..3000, a1 in 0.001f64..0.2,
    ) {
        let n = k + extra;
        let t_strict = t2_threshold(k, n, a1).unwrap();
        let t_looser = t2_threshold(k, n, (a1 * 2.0).min(0.5)).unwrap();
        prop_assert!(t_strict > 0.0);
        prop_assert!(t_strict >= t_looser - 1e-9);
    }

    #[test]
    fn q_threshold_positive_for_valid_spectra(
        head in proptest::collection::vec(1.0f64..1e6, 1..5),
        tail in proptest::collection::vec(0.01f64..100.0, 2..20),
        alpha in 0.0005f64..0.1,
    ) {
        let mut ev: Vec<f64> = head;
        ev.extend(tail);
        ev.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let k = 1;
        let t = q_threshold(&ev, k, alpha).unwrap().unwrap();
        prop_assert!(t > 0.0 && t.is_finite());
    }

    #[test]
    fn q_threshold_scale_equivariant(
        tail in proptest::collection::vec(0.5f64..50.0, 3..10),
        scale in 0.1f64..100.0,
    ) {
        let mut ev = vec![1e5];
        ev.extend(tail);
        ev.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let t1 = q_threshold(&ev, 1, 0.01).unwrap().unwrap();
        let scaled: Vec<f64> = ev.iter().map(|l| l * scale).collect();
        let t2 = q_threshold(&scaled, 1, 0.01).unwrap().unwrap();
        prop_assert!((t2 / t1 - scale).abs() < 1e-6 * scale);
    }
}
