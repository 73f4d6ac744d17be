//! Identifying the OD flows responsible for a detection.
//!
//! "Since each anomaly results in a value of the ||x̃||² or t² that exceeds
//! the threshold statistic, we determine the smallest set of OD flows,
//! which if removed from the corresponding statistic, would bring it under
//! threshold" (§4).
//!
//! **Removal semantics.** Naively dropping a flow's coordinate from the
//! statistic is wrong in both directions: a spike on flow `l` leaks into
//! every other flow's residual through the projection `(I - PP^T)`, and a
//! flow's *legitimate* diurnal deviation is explained by the model, so
//! zeroing its value would itself look anomalous. The sound notion —
//! following Dunia & Qin's subspace fault-reconstruction (the paper's
//! reference \[7\]) — treats removed flows as **missing** and reconstructs
//! their values to best agree with the model, i.e. minimizes the statistic
//! over the removed coordinates.
//!
//! Both statistics are quadratic forms `x_cᵀ M x_c` in the centered
//! observation (`M = I - PPᵀ` for SPE; `M = Σ_i v_i v_iᵀ / λ_i` over the
//! top-k axes for t²), so removal of a set `S` has the closed form
//!
//! ```text
//! min_{δ_S} (x + E_S δ)ᵀ M (x + E_S δ) = x ᵀM x − b_Sᵀ (M_SS)⁻¹ b_S,
//! b = M x.
//! ```
//!
//! The greedy loop adds the flow with the largest marginal reduction until
//! the statistic is under threshold. Reconstruction is a minimization, so
//! the statistic decreases monotonically and the loop always terminates.
//!
//! **No `p × p` form is built.** The greedy reads only `M_SS` for the
//! current removal set and `b`, and both come off the model on demand: an
//! entry of `M` is a k-long sum over two rows `L_a`, `L_c` of the
//! row-major `p × k` loadings (`δ_ac − Σ_i L_ai L_ci` for SPE,
//! `Σ_i L_ai L_ci / λ_i` for t²), and `b` is the residual `x̃` for SPE
//! and `b_a = Σ_i L_ai z_i / λ_i` from the scores `z` for t². An alarm
//! needing `s` flows costs `O(p · s² · k)` per greedy step, so
//! identification runs at any mesh size the model fits.

use crate::detector::StatisticKind;
use crate::error::{Result, SubspaceError};
use crate::model::SubspaceModel;
use odflow_linalg::{solve, vecops, Matrix};

/// The outcome of identifying one detection.
#[derive(Debug, Clone, PartialEq)]
pub struct Identification {
    /// OD flow indices, most culpable first.
    pub od_flows: Vec<usize>,
    /// Statistic value before any removal.
    pub initial_value: f64,
    /// Statistic value after removing (reconstructing) the identified
    /// flows.
    pub final_value: f64,
}

/// Greedy reconstruction-based identification over a quadratic form.
///
/// `entry(a, c)` is the form's `M_ac`, `b = M x_c`, `v0 = x_cᵀ M x_c`.
/// Returns the removal set and the final value.
fn greedy_quadratic(
    entry: impl Fn(usize, usize) -> f64,
    b: &[f64],
    v0: f64,
    threshold: f64,
    max_set: usize,
    bin: usize,
) -> Result<Identification> {
    // The flows chosen so far, plus one last slot each candidate takes.
    let mut set: Vec<usize> = vec![0];
    let mut current = v0;

    while current > threshold && set.len() <= max_set {
        let last = set.len() - 1;
        let mut best: Option<(usize, f64)> = None;
        for cand in 0..b.len() {
            if set[..last].contains(&cand) {
                continue;
            }
            set[last] = cand;
            let Some(value) = removal_value(&entry, b, v0, &set) else {
                continue; // singular subsystem: candidate not informative
            };
            match best {
                Some((_, bv)) if value >= bv => {}
                _ => best = Some((cand, value)),
            }
        }
        let Some((cand, value)) = best else { break };
        set[last] = cand;
        set.push(0);
        current = value.max(0.0);
    }
    set.pop();

    if current > threshold {
        return Err(SubspaceError::IdentificationFailed { bin });
    }
    Ok(Identification { od_flows: set, initial_value: v0, final_value: current })
}

/// `v0 - b_Sᵀ (M_SS)⁻¹ b_S`, or `None` when `M_SS` is singular.
fn removal_value(
    entry: &impl Fn(usize, usize) -> f64,
    b: &[f64],
    v0: f64,
    set: &[usize],
) -> Option<f64> {
    let s = set.len();
    let mss = Matrix::from_fn(s, s, |a, c| entry(set[a], set[c]));
    let bs: Vec<f64> = set.iter().map(|&l| b[l]).collect();
    let delta = solve(&mss, &bs).ok()?;
    let reduction = vecops::dot(&bs, &delta);
    Some(v0 - reduction)
}

/// Identifies the smallest OD-flow set whose reconstruction brings the
/// `kind` statistic of one observation under its threshold; the set is
/// empty when the statistic already is.
///
/// # Errors
///
/// * [`SubspaceError::DimensionMismatch`] for wrong-length input.
/// * [`SubspaceError::IdentificationFailed`] if reconstruction over all
///   non-singular removal sets cannot reach the threshold (degenerate
///   residual spaces).
pub fn identify(
    model: &SubspaceModel,
    x: &[f64],
    kind: StatisticKind,
    bin: usize,
) -> Result<Identification> {
    let split = model.split(x)?;
    let (v0, threshold) = match kind {
        StatisticKind::Spe => (vecops::norm_sq(&split.residual), model.spe_threshold()),
        StatisticKind::T2 => (model.t2_of_scores(&split.scores), model.t2_threshold()),
    };
    if v0 <= threshold {
        return Ok(Identification { od_flows: Vec::new(), initial_value: v0, final_value: v0 });
    }

    let p = split.centered.len();
    let k = split.scores.len();
    let decomp = model.decomposition();
    let r = decomp.loadings.ncols();
    let row = |a: usize| &decomp.loadings.as_slice()[a * r..a * r + k];
    match kind {
        StatisticKind::Spe => {
            // M = I - P Pᵀ ; b = M x_c = x̃.
            let entry = |a: usize, c: usize| {
                let proj: f64 = row(a).iter().zip(row(c)).map(|(u, v)| u * v).sum();
                if a == c {
                    1.0 - proj
                } else {
                    -proj
                }
            };
            // The residual space has dimension p - k; cap the removal set
            // below it so M_SS stays non-singular.
            let max_set = p.saturating_sub(k).saturating_sub(1).max(1);
            greedy_quadratic(entry, &split.residual, v0, threshold, max_set, bin)
        }
        StatisticKind::T2 => {
            // M = Σ v_i v_iᵀ / λ_i over the axes with variance ;
            // b = M x_c = Σ v_i z_i / λ_i from the scores z = Pᵀ x_c.
            // The form has rank k, so at most k flows are ever needed
            // (reconstructing k generic coordinates can zero all k scores).
            let axes: Vec<(usize, f64)> =
                (0..k).map(|i| (i, decomp.eigenvalue(i))).filter(|&(_, l)| l > 1e-300).collect();
            let entry = |a: usize, c: usize| {
                let (la, lc) = (row(a), row(c));
                axes.iter().map(|&(i, l)| la[i] * lc[i] / l).sum()
            };
            let weights: Vec<(usize, f64)> =
                axes.iter().map(|&(i, l)| (i, split.scores[i] / l)).collect();
            let b: Vec<f64> = (0..p)
                .map(|a| {
                    let la = row(a);
                    weights.iter().map(|&(i, w)| la[i] * w).sum()
                })
                .collect();
            greedy_quadratic(entry, &b, v0, threshold, k.max(1), bin)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{SubspaceConfig, SubspaceModel};
    use crate::testutil;
    use odflow_linalg::Matrix;

    fn traffic(n: usize, p: usize) -> Matrix {
        testutil::traffic(n, p, 1.0, &[])
    }

    /// The dense reference: the statistic's form built whole as a `p × p`
    /// matrix (`I − PPᵀ` for SPE, `Σ v vᵀ/λ` for T²) and `b = M x_c` by a
    /// row-major matrix-vector loop, both fed through the same greedy.
    struct DenseForm {
        m: Matrix,
        b: Vec<f64>,
        v0: f64,
        threshold: f64,
        max_set: usize,
    }

    fn dense_form(model: &SubspaceModel, x: &[f64], kind: StatisticKind) -> Result<DenseForm> {
        let split = model.split(x)?;
        let p = split.centered.len();
        let k = model.config().k.min(model.decomposition().rank());
        let axes: Vec<(Vec<f64>, f64)> = (0..k)
            .map(|i| {
                let v = model.decomposition().loadings.col(i).unwrap();
                (v, model.decomposition().eigenvalue(i))
            })
            .collect();
        Ok(match kind {
            StatisticKind::Spe => {
                let m = Matrix::from_fn(p, p, |a, c| {
                    let proj: f64 = axes.iter().map(|(v, _)| v[a] * v[c]).sum();
                    if a == c {
                        1.0 - proj
                    } else {
                        -proj
                    }
                });
                DenseForm {
                    m,
                    v0: vecops::norm_sq(&split.residual),
                    b: split.residual,
                    threshold: model.spe_threshold(),
                    max_set: p.saturating_sub(k).saturating_sub(1).max(1),
                }
            }
            StatisticKind::T2 => {
                let kept: Vec<&(Vec<f64>, f64)> =
                    axes.iter().filter(|(_, l)| *l > 1e-300).collect();
                let m =
                    Matrix::from_fn(p, p, |a, c| kept.iter().map(|(v, l)| v[a] * v[c] / l).sum());
                let b = (0..p)
                    .map(|a| {
                        m.row(a).unwrap().iter().zip(&split.centered).map(|(e, x)| e * x).sum()
                    })
                    .collect();
                DenseForm {
                    m,
                    b,
                    v0: model.t2(x)?,
                    threshold: model.t2_threshold(),
                    max_set: k.max(1),
                }
            }
        })
    }

    impl DenseForm {
        fn identify(&self, bin: usize) -> Result<Identification> {
            if self.v0 <= self.threshold {
                return Ok(Identification {
                    od_flows: Vec::new(),
                    initial_value: self.v0,
                    final_value: self.v0,
                });
            }
            greedy_quadratic(
                |a, c| self.m[(a, c)],
                &self.b,
                self.v0,
                self.threshold,
                self.max_set,
                bin,
            )
        }

        /// The statistic with the flows of `set` reconstructed.
        fn value_without(&self, set: &[usize]) -> f64 {
            removal_value(&|a, c| self.m[(a, c)], &self.b, self.v0, set)
                .expect("non-singular removal set")
        }
    }

    #[test]
    fn matches_dense_oracle_sweep() {
        // SPE keeps the dense form's per-entry sums, so it is bit-equal;
        // T²'s `b` may sum in another order than the dense loop.
        let mut named = [0usize; 2];
        for (p, k) in [(12, 4), (40, 4), (121, 4), (121, 10)] {
            let clean = traffic(400, p);
            let config = SubspaceConfig { k, ..SubspaceConfig::default() };
            let model = SubspaceModel::fit(&clean, config).unwrap();
            let spikes: [&[usize]; 5] = [&[0], &[p / 2], &[p - 1], &[1, p / 3], &[p / 4, p - 2]];
            for bin in [37, 150, 290] {
                for flows in spikes {
                    for mag in [4.0, 40.0, 4000.0] {
                        let mut row = clean.row(bin).unwrap().to_vec();
                        for (rank, &f) in flows.iter().enumerate() {
                            row[f] += mag / (rank + 1) as f64;
                        }
                        for (slot, kind) in
                            [StatisticKind::Spe, StatisticKind::T2].into_iter().enumerate()
                        {
                            let got = identify(&model, &row, kind, bin);
                            let want = dense_form(&model, &row, kind).and_then(|d| d.identify(bin));
                            let case =
                                format!("p={p} k={k} bin={bin} flows={flows:?} mag={mag} {kind:?}");
                            let (got, want) = match (got, want) {
                                (Ok(g), Ok(w)) => (g, w),
                                (g, w) => {
                                    assert_eq!(g.err(), w.err(), "{case}");
                                    continue;
                                }
                            };
                            assert_eq!(got.od_flows, want.od_flows, "{case}");
                            assert_eq!(
                                got.initial_value.to_bits(),
                                want.initial_value.to_bits(),
                                "{case}"
                            );
                            match kind {
                                StatisticKind::Spe => assert_eq!(
                                    got.final_value.to_bits(),
                                    want.final_value.to_bits(),
                                    "{case}"
                                ),
                                StatisticKind::T2 => assert!(
                                    (got.final_value - want.final_value).abs()
                                        <= 1e-12 * want.initial_value,
                                    "{case}: {} vs {}",
                                    got.final_value,
                                    want.final_value
                                ),
                            }
                            named[slot] += usize::from(!got.od_flows.is_empty());
                        }
                    }
                }
            }
        }
        // Not vacuous: most cases alarm, and T² alarms on a good share.
        assert!(named[0] >= 150 && named[1] >= 50, "identifications that named flows: {named:?}");
    }

    #[test]
    fn spe_identifies_spiked_flow() {
        let clean = traffic(400, 12);
        let model = SubspaceModel::fit_default(&clean).unwrap();
        let mut row = clean.row(100).unwrap().to_vec();
        row[7] += 200.0;
        let id = identify(&model, &row, StatisticKind::Spe, 100).unwrap();
        assert_eq!(id.od_flows.first(), Some(&7), "spiked flow must rank first");
        assert!(id.od_flows.len() <= 2, "single spike needs few removals: {:?}", id.od_flows);
        assert!(id.final_value <= model.spe_threshold());
        assert!(id.initial_value > model.spe_threshold());
    }

    #[test]
    fn spe_identifies_multiple_flows() {
        let clean = traffic(400, 12);
        let model = SubspaceModel::fit_default(&clean).unwrap();
        let mut row = clean.row(100).unwrap().to_vec();
        row[2] += 250.0;
        row[9] += 200.0;
        let id = identify(&model, &row, StatisticKind::Spe, 100).unwrap();
        assert!(id.od_flows.contains(&2), "flows found: {:?}", id.od_flows);
        assert!(id.od_flows.contains(&9), "flows found: {:?}", id.od_flows);
        // Ordered by culpability: larger spike first.
        assert_eq!(id.od_flows[0], 2);
    }

    #[test]
    fn spe_reconstruction_beats_coordinate_drop() {
        // The reconstruction semantics must fully absorb the spike's
        // leakage: after removing just the spiked flow, the statistic
        // returns to the clean level, not to the leakage level.
        let clean = traffic(400, 12);
        let model = SubspaceModel::fit_default(&clean).unwrap();
        let clean_spe = model.spe(clean.row(100).unwrap()).unwrap();
        let mut row = clean.row(100).unwrap().to_vec();
        row[7] += 200.0;
        let id = identify(&model, &row, StatisticKind::Spe, 100).unwrap();
        assert!(
            id.final_value <= clean_spe * 1.5 + 1e-9,
            "final {} should be near clean level {clean_spe}",
            id.final_value
        );
    }

    #[test]
    fn t2_identifies_shifted_flow() {
        let clean = traffic(400, 12);
        let model = SubspaceModel::fit(
            &clean,
            SubspaceConfig { k: 4, alpha: 0.001, ..SubspaceConfig::default() },
        )
        .unwrap();
        let mut row = clean.row(200).unwrap().to_vec();
        let axis = model.decomposition().loadings.col(0).unwrap();
        let big_j =
            (0..axis.len()).max_by(|&a, &b| axis[a].abs().total_cmp(&axis[b].abs())).unwrap();
        row[big_j] += 400.0;
        let t2 = model.t2(&row).unwrap();
        assert!(t2 > model.t2_threshold(), "setup: t2 {t2} must exceed threshold");
        let id = identify(&model, &row, StatisticKind::T2, 200).unwrap();
        assert_eq!(id.od_flows.first(), Some(&big_j));
        assert!(id.od_flows.len() <= 4, "t² needs at most k flows: {:?}", id.od_flows);
        assert!(id.final_value <= model.t2_threshold());
    }

    #[test]
    fn already_below_threshold_returns_empty_set() {
        let clean = traffic(300, 10);
        let model = SubspaceModel::fit_default(&clean).unwrap();
        let row = clean.row(10).unwrap();
        let id_spe = identify(&model, row, StatisticKind::Spe, 10).unwrap();
        assert!(id_spe.od_flows.is_empty());
        assert_eq!(id_spe.initial_value, id_spe.final_value);
        let id_t2 = identify(&model, row, StatisticKind::T2, 10).unwrap();
        assert!(id_t2.od_flows.is_empty());
    }

    #[test]
    fn spe_set_is_minimal() {
        // Removing one fewer flow must leave the statistic above
        // threshold (checked with the same reconstruction semantics).
        let clean = traffic(400, 12);
        let model = SubspaceModel::fit_default(&clean).unwrap();
        let mut row = clean.row(50).unwrap().to_vec();
        row[3] += 280.0;
        row[8] += 120.0;
        let id = identify(&model, &row, StatisticKind::Spe, 50).unwrap();
        assert!(id.od_flows.len() >= 2, "both spiked flows implicated: {:?}", id.od_flows);
        let dense = dense_form(&model, &row, StatisticKind::Spe).unwrap();
        let (_, prefix) = id.od_flows.split_last().unwrap();
        let without_prefix = dense.value_without(prefix);
        assert!(
            without_prefix > model.spe_threshold(),
            "the set minus its last flow must stay above threshold: {without_prefix}"
        );
        assert!(dense.value_without(&id.od_flows) <= model.spe_threshold());
        assert!(id.final_value <= model.spe_threshold());
    }

    #[test]
    fn identifies_on_the_90k_mesh() {
        // The `large_mesh` window: 24 bins of 90 000 OD pairs at k = 10,
        // where a dense form would be 90 000² doubles (64.8 GB).
        let (bin, p) = (12, 90_000);
        let clean = traffic(24, p);
        let config = SubspaceConfig { k: 10, ..SubspaceConfig::default() };
        let model = SubspaceModel::fit(&clean, config).unwrap();

        let spiked = 45_678;
        let mut row = clean.row(bin).unwrap().to_vec();
        row[spiked] += 1000.0;
        let id = identify(&model, &row, StatisticKind::Spe, bin).unwrap();
        assert!(id.initial_value > model.spe_threshold(), "setup: {}", id.initial_value);
        assert_eq!(id.od_flows.first(), Some(&spiked), "{:?}", id.od_flows);
        assert!(id.final_value <= model.spe_threshold());

        // Shift the pair with axis 0's heaviest loading by twice what takes
        // its own t² contribution, Σ_i (δ L_ji)² / λ_i, to the limit.
        let decomp = model.decomposition();
        let axis = decomp.loadings.col(0).unwrap();
        let heavy = (0..p).max_by(|&a, &b| axis[a].abs().total_cmp(&axis[b].abs())).unwrap();
        let per_unit: f64 =
            (0..10).map(|i| decomp.loadings[(heavy, i)].powi(2) / decomp.eigenvalue(i)).sum();
        let mut row = clean.row(bin).unwrap().to_vec();
        row[heavy] += 2.0 * (model.t2_threshold() / per_unit).sqrt();
        let id = identify(&model, &row, StatisticKind::T2, bin).unwrap();
        assert!(id.initial_value > model.t2_threshold(), "setup: {}", id.initial_value);
        assert_eq!(id.od_flows.first(), Some(&heavy), "{:?}", id.od_flows);
        assert!(id.final_value <= model.t2_threshold());
    }

    #[test]
    fn dimension_mismatch_propagates() {
        let clean = traffic(300, 10);
        let model = SubspaceModel::fit_default(&clean).unwrap();
        assert!(identify(&model, &[1.0, 2.0], StatisticKind::Spe, 0).is_err());
        assert!(identify(&model, &[1.0, 2.0], StatisticKind::T2, 0).is_err());
    }
}
