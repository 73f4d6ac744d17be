//! Property-based tests for the subspace method's algebraic invariants.

use odflow_linalg::{vecops, Matrix};
use odflow_subspace::{
    analyze, identify, merge_detections, DetectionTriple, StatisticKind, SubspaceConfig,
    SubspaceModel, TypeSet,
};
use proptest::prelude::*;

/// Low-rank-plus-noise traffic: k shared temporal patterns with random
/// loadings plus bounded noise — the regime the model assumes.
fn arb_traffic() -> impl Strategy<Value = Matrix> {
    (40usize..120, 6usize..14, proptest::collection::vec(0.1f64..2.0, 6 * 14), any::<u64>())
        .prop_map(|(n, p, loadings, seed)| {
            Matrix::from_fn(n, p, |i, j| {
                let t = i as f64 / 48.0 * std::f64::consts::TAU;
                let l1 = loadings[(j * 3) % loadings.len()];
                let l2 = loadings[(j * 5 + 1) % loadings.len()];
                let noise = {
                    let mut z = (seed ^ ((i * 131 + j) as u64).wrapping_mul(0x9E3779B97F4A7C15))
                        .wrapping_mul(0xBF58476D1CE4E5B9);
                    z ^= z >> 31;
                    (z as f64 / u64::MAX as f64) - 0.5
                };
                30.0 + 10.0 * l1 * t.sin() + 8.0 * l2 * (2.0 * t).cos() + noise
            })
        })
}

/// Dot of the stride-`r` axis column `i` of the row-major loadings slice
/// with `v`, accumulated in ascending-row order from 0.0: the per-axis
/// projection kernel scoring ran on before its passes were fused.
fn axis_dot(axes: &[f64], r: usize, i: usize, v: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (j, c) in v.iter().enumerate() {
        acc += axes[j * r + i] * c;
    }
    acc
}

/// `(centered, normal, residual, spe, t2)` of one observation by the
/// per-axis arithmetic: for each of the top-k axes one strided dot and one
/// strided accumulation into x̂, then k more dots for t².
fn per_axis_reference(
    model: &SubspaceModel,
    x: &[f64],
) -> (Vec<f64>, Vec<f64>, Vec<f64>, f64, f64) {
    let decomp = model.decomposition();
    let centered: Vec<f64> = x.iter().zip(&decomp.means).map(|(x, m)| x - m).collect();
    let k = model.config().k.min(decomp.rank());
    let r = decomp.loadings.ncols();
    let axes = decomp.loadings.as_slice();
    let mut normal = vec![0.0; x.len()];
    for i in 0..k {
        let score = axis_dot(axes, r, i, &centered);
        for (j, nrm) in normal.iter_mut().enumerate() {
            *nrm += score * axes[j * r + i];
        }
    }
    let residual: Vec<f64> = centered.iter().zip(&normal).map(|(c, nrm)| c - nrm).collect();
    let mut t2 = 0.0;
    for i in 0..k {
        let z = axis_dot(axes, r, i, &centered);
        let lambda = decomp.eigenvalue(i);
        if lambda > 1e-300 {
            t2 += z * z / lambda;
        }
    }
    let spe = vecops::norm_sq(&residual);
    (centered, normal, residual, spe, t2)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_scoring_is_the_per_axis_arithmetic_bit_for_bit(
        n in 6usize..40,
        p in 3usize..48,
        k_pick in 0usize..1000,
        shape in 0u8..2,
        seed in any::<u64>(),
    ) {
        let x = Matrix::from_fn(n, p, |i, j| {
            let mut z = (seed ^ ((i * 257 + j) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^= z >> 31;
            let noise = (z as f64 / u64::MAX as f64) - 0.5;
            20.0 + (j % 5) as f64 * ((i * (1 + j % 3)) as f64 * 0.4).sin() + 3.0 * noise
        });
        // shape 0: k = 1; 1: any k the window admits. Every fit keeps the
        // full spectrum.
        let k_max = (n - 1).min(p - 1);
        let k = if shape == 0 { 1 } else { 1 + k_pick % k_max };
        let config = SubspaceConfig { k, ..SubspaceConfig::default() };
        let analysis = analyze(&x, config).unwrap();
        let model = &analysis.model;
        for (i, row) in x.rows_iter().enumerate() {
            let (centered, normal, residual, spe, t2) = per_axis_reference(model, row);
            let split = model.split(row).unwrap();
            prop_assert_eq!(bits(&split.centered), bits(&centered));
            prop_assert_eq!(bits(&split.normal), bits(&normal));
            prop_assert_eq!(bits(&split.residual), bits(&residual));
            prop_assert_eq!(split.scores.len(), k.min(model.decomposition().rank()));
            prop_assert_eq!(model.spe(row).unwrap().to_bits(), spe.to_bits());
            prop_assert_eq!(model.t2(row).unwrap().to_bits(), t2.to_bits());
            // `score_into`, as `analyze` drives it.
            prop_assert_eq!(analysis.spe[i].to_bits(), spe.to_bits(), "row {}", i);
            prop_assert_eq!(analysis.t2[i].to_bits(), t2.to_bits(), "row {}", i);
        }
    }

    #[test]
    fn split_is_exact_and_orthogonal(x in arb_traffic()) {
        let model = SubspaceModel::fit(&x, SubspaceConfig { k: 4, alpha: 0.001, ..SubspaceConfig::default() }).unwrap();
        for i in (0..x.nrows()).step_by(7) {
            let split = model.split(x.row(i).unwrap()).unwrap();
            // x_c = x_hat + x_tilde exactly.
            for ((c, n), r) in split.centered.iter().zip(&split.normal).zip(&split.residual) {
                prop_assert!((c - (n + r)).abs() < 1e-9);
            }
            // Components orthogonal; Pythagoras holds.
            let dot = vecops::dot(&split.normal, &split.residual);
            let scale = 1.0 + vecops::norm(&split.normal) * vecops::norm(&split.residual);
            prop_assert!(dot.abs() < 1e-7 * scale);
        }
    }

    #[test]
    fn spe_invariant_under_od_permutation(x in arb_traffic()) {
        // Permuting OD columns must not change any bin's SPE.
        let p = x.ncols();
        let perm: Vec<usize> = (0..p).rev().collect();
        let xp = x.select_cols(&perm).unwrap();
        let m1 = SubspaceModel::fit(&x, SubspaceConfig { k: 3, alpha: 0.001, ..SubspaceConfig::default() }).unwrap();
        let m2 = SubspaceModel::fit(&xp, SubspaceConfig { k: 3, alpha: 0.001, ..SubspaceConfig::default() }).unwrap();
        for i in (0..x.nrows()).step_by(11) {
            let s1 = m1.spe(x.row(i).unwrap()).unwrap();
            let s2 = m2.spe(xp.row(i).unwrap()).unwrap();
            prop_assert!((s1 - s2).abs() < 1e-6 * (1.0 + s1), "bin {i}: {s1} vs {s2}");
        }
        // Thresholds identical too (spectrum is permutation-invariant).
        prop_assert!((m1.spe_threshold() - m2.spe_threshold()).abs()
            < 1e-6 * (1.0 + m1.spe_threshold()));
    }

    #[test]
    fn identification_reduces_statistic(x in arb_traffic(), spike in 50.0f64..400.0) {
        let model = SubspaceModel::fit(&x, SubspaceConfig { k: 4, alpha: 0.001, ..SubspaceConfig::default() }).unwrap();
        let mut row = x.row(x.nrows() / 2).unwrap().to_vec();
        row[0] += spike;
        if model.spe(&row).unwrap() <= model.spe_threshold() {
            return Ok(()); // spike too small for this draw — nothing to identify
        }
        let id = identify(&model, &row, StatisticKind::Spe, 0).unwrap();
        prop_assert!(!id.od_flows.is_empty());
        prop_assert!(id.final_value <= model.spe_threshold() + 1e-9);
        prop_assert!(id.final_value <= id.initial_value);
        prop_assert_eq!(*id.od_flows.first().unwrap(), 0, "spiked flow ranks first");
    }

    #[test]
    fn merge_covers_all_triples(
        bins in proptest::collection::vec(0usize..50, 1..40),
        types in proptest::collection::vec(0u8..3, 1..40),
    ) {
        use odflow_flow::TrafficType;
        let n = bins.len().min(types.len());
        let triples: Vec<DetectionTriple> = (0..n)
            .map(|i| DetectionTriple {
                traffic_type: [TrafficType::Bytes, TrafficType::Packets, TrafficType::Flows]
                    [types[i] as usize],
                bin: bins[i],
                od_flows: vec![i % 5],
            })
            .collect();
        let events = merge_detections(&triples);
        // Every triple's bin is covered by exactly one event.
        for t in &triples {
            let covering: Vec<_> =
                events.iter().filter(|e| e.covers_bin(t.bin)).collect();
            prop_assert_eq!(covering.len(), 1, "bin {} covered by {} events", t.bin, covering.len());
            prop_assert!(covering[0].types.contains(t.traffic_type));
            for f in &t.od_flows {
                prop_assert!(covering[0].od_flows.contains(f));
            }
        }
        // Events never overlap.
        for (i, a) in events.iter().enumerate() {
            for b in events.iter().skip(i + 1) {
                prop_assert!(a.end_bin() < b.start_bin || b.end_bin() < a.start_bin);
            }
        }
    }

    #[test]
    fn typeset_union_commutative_monotone(a in 0u8..8, b in 0u8..8) {
        use odflow_flow::TrafficType::*;
        let build = |bits: u8| {
            let mut s = TypeSet::empty();
            if bits & 1 != 0 { s.insert(Bytes); }
            if bits & 2 != 0 { s.insert(Flows); }
            if bits & 4 != 0 { s.insert(Packets); }
            s
        };
        // The union as event merging builds it: insert the other's types.
        let union = |mut into: TypeSet, from: TypeSet| {
            for t in [Bytes, Flows, Packets] {
                if from.contains(t) { into.insert(t); }
            }
            into
        };
        let (sa, sb) = (build(a), build(b));
        prop_assert_eq!(union(sa, sb), union(sb, sa));
        let u = union(sa, sb);
        prop_assert!(u.len() >= sa.len().max(sb.len()));
        for t in [Bytes, Flows, Packets] {
            prop_assert_eq!(u.contains(t), sa.contains(t) || sb.contains(t));
        }
    }
}
