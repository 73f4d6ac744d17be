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
/// `m` is the form's matrix, `b = M x_c`, `v0 = x_cᵀ M x_c`. Returns the
/// removal set and the final value.
fn greedy_quadratic(
    m: &Matrix,
    b: &[f64],
    v0: f64,
    threshold: f64,
    max_set: usize,
    bin: usize,
) -> Result<Identification> {
    let p = b.len();
    let mut selected: Vec<usize> = Vec::new();
    let mut current = v0;

    while current > threshold && selected.len() < max_set {
        let mut best: Option<(usize, f64)> = None;
        for cand in 0..p {
            if selected.contains(&cand) {
                continue;
            }
            let mut set = selected.clone();
            set.push(cand);
            let Some(value) = removal_value(m, b, v0, &set) else {
                continue; // singular subsystem: candidate not informative
            };
            match best {
                Some((_, bv)) if value >= bv => {}
                _ => best = Some((cand, value)),
            }
        }
        let Some((cand, value)) = best else { break };
        selected.push(cand);
        current = value.max(0.0);
    }

    if current > threshold {
        return Err(SubspaceError::IdentificationFailed { bin });
    }
    Ok(Identification { od_flows: selected, initial_value: v0, final_value: current })
}

/// `v0 - b_Sᵀ (M_SS)⁻¹ b_S`, or `None` when `M_SS` is singular.
fn removal_value(m: &Matrix, b: &[f64], v0: f64, set: &[usize]) -> Option<f64> {
    let s = set.len();
    let mss = Matrix::from_fn(s, s, |a, c| m[(set[a], set[c])]);
    let bs: Vec<f64> = set.iter().map(|&l| b[l]).collect();
    let delta = solve(&mss, &bs).ok()?;
    let reduction = vecops::dot(&bs, &delta);
    Some(v0 - reduction)
}

/// Identifies the smallest OD-flow set for an SPE exceedance at one
/// observation.
///
/// # Errors
///
/// * Propagates dimension errors from the model.
/// * [`SubspaceError::IdentificationFailed`] if reconstruction over all
///   non-singular removal sets cannot reach the threshold (degenerate
///   residual spaces).
pub fn identify_spe(model: &SubspaceModel, x: &[f64], bin: usize) -> Result<Identification> {
    let split = model.split(x)?;
    let threshold = model.spe_threshold();
    let v0 = vecops::norm_sq(&split.residual);
    if v0 <= threshold {
        return Ok(Identification { od_flows: Vec::new(), initial_value: v0, final_value: v0 });
    }

    let p = split.centered.len();
    let k = model.config().k.min(model.decomposition().rank());
    let mut axes: Vec<Vec<f64>> = Vec::with_capacity(k);
    for i in 0..k {
        axes.push(model.decomposition().loadings.col(i)?);
    }
    // M = I - P P^T ; b = M x_c = x̃.
    let m = Matrix::from_fn(p, p, |a, c| {
        let proj: f64 = axes.iter().map(|v| v[a] * v[c]).sum();
        if a == c {
            1.0 - proj
        } else {
            -proj
        }
    });
    // The residual space has dimension p - k; cap the removal set below it
    // so M_SS stays non-singular.
    let max_set = p.saturating_sub(k).saturating_sub(1).max(1);
    greedy_quadratic(&m, &split.residual, v0, threshold, max_set, bin)
}

/// Identifies the smallest OD-flow set for a T² exceedance at one
/// observation.
///
/// # Errors
///
/// As for [`identify_spe`]. The t² form has rank `k`, so at most `k` flows
/// are ever needed (reconstructing `k` generic coordinates can zero all
/// `k` scores).
pub fn identify_t2(model: &SubspaceModel, x: &[f64], bin: usize) -> Result<Identification> {
    let centered = model.center(x)?;
    let threshold = model.t2_threshold();
    let v0 = model.t2_of_centered(&centered)?;
    if v0 <= threshold {
        return Ok(Identification { od_flows: Vec::new(), initial_value: v0, final_value: v0 });
    }

    let p = centered.len();
    let k = model.config().k.min(model.decomposition().rank());
    let mut axes: Vec<(Vec<f64>, f64)> = Vec::with_capacity(k);
    for i in 0..k {
        let lambda = model.decomposition().eigenvalue(i);
        if lambda > 1e-300 {
            axes.push((model.decomposition().loadings.col(i)?, lambda));
        }
    }
    // M = Σ v_i v_iᵀ / λ_i ; b = M x_c.
    let m = Matrix::from_fn(p, p, |a, c| axes.iter().map(|(v, l)| v[a] * v[c] / l).sum());
    let b = m.matvec(&centered).map_err(SubspaceError::from)?;
    greedy_quadratic(&m, &b, v0, threshold, k.max(1), bin)
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

    #[test]
    fn spe_identifies_spiked_flow() {
        let clean = traffic(400, 12);
        let model = SubspaceModel::fit_default(&clean).unwrap();
        let mut row = clean.row(100).unwrap().to_vec();
        row[7] += 200.0;
        let id = identify_spe(&model, &row, 100).unwrap();
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
        let id = identify_spe(&model, &row, 100).unwrap();
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
        let id = identify_spe(&model, &row, 100).unwrap();
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
        let id = identify_t2(&model, &row, 200).unwrap();
        assert_eq!(id.od_flows.first(), Some(&big_j));
        assert!(id.od_flows.len() <= 4, "t² needs at most k flows: {:?}", id.od_flows);
        assert!(id.final_value <= model.t2_threshold());
    }

    #[test]
    fn already_below_threshold_returns_empty_set() {
        let clean = traffic(300, 10);
        let model = SubspaceModel::fit_default(&clean).unwrap();
        let row = clean.row(10).unwrap();
        let id_spe = identify_spe(&model, row, 10).unwrap();
        assert!(id_spe.od_flows.is_empty());
        assert_eq!(id_spe.initial_value, id_spe.final_value);
        let id_t2 = identify_t2(&model, row, 10).unwrap();
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
        let id = identify_spe(&model, &row, 50).unwrap();
        assert!(id.od_flows.len() >= 2, "both spiked flows implicated: {:?}", id.od_flows);
        // Greedy prefix property: the set minus its last element was
        // still above threshold when the loop continued.
        assert!(id.final_value <= model.spe_threshold());
    }

    #[test]
    fn dimension_mismatch_propagates() {
        let clean = traffic(300, 10);
        let model = SubspaceModel::fit_default(&clean).unwrap();
        assert!(identify_spe(&model, &[1.0, 2.0], 0).is_err());
        assert!(identify_t2(&model, &[1.0, 2.0], 0).is_err());
    }
}
