//! Gravity model for origin-destination traffic means.
//!
//! Backbone traffic matrices are well approximated by a gravity model: the
//! mean demand between origin `o` and destination `d` is proportional to
//! `w_o * w_d`, where the weights reflect how much traffic each PoP sources
//! and sinks (Feldmann et al., the paper's reference \[8\], estimate
//! demands exactly this way). The generator uses it to give the 121 OD
//! pairs realistically heterogeneous magnitudes — a few heavy coastal pairs
//! and a long tail of small ones, as in the paper's Abilene data.

use crate::error::{GenError, Result};

/// Per-PoP activity weights with derived OD means.
#[derive(Debug, Clone)]
pub struct GravityModel {
    weights: Vec<f64>,
    /// Total network demand to distribute (mean observed flows per bin,
    /// summed over all OD pairs).
    total_demand: f64,
    /// `Σw`, cached at construction — [`Self::od_mean`] sits on the
    /// per-cell hot path of trace rendering, and re-summing hundreds of
    /// weights per cell would dominate large-mesh generation.
    weight_sum: f64,
}

impl GravityModel {
    /// Creates a gravity model from positive PoP weights. `total_demand` is
    /// the network-wide mean demand per timebin that the OD means sum to.
    ///
    /// # Errors
    ///
    /// [`GenError::InvalidParameter`] if any weight or the demand is
    /// non-positive or non-finite.
    pub fn new(weights: Vec<f64>, total_demand: f64) -> Result<Self> {
        if weights.is_empty() {
            return Err(GenError::InvalidParameter { what: "gravity weights (empty)", value: 0.0 });
        }
        for &w in &weights {
            if !(w > 0.0 && w.is_finite()) {
                return Err(GenError::InvalidParameter { what: "gravity weight", value: w });
            }
        }
        if !(total_demand > 0.0 && total_demand.is_finite()) {
            return Err(GenError::InvalidParameter { what: "total_demand", value: total_demand });
        }
        let weight_sum = weights.iter().sum();
        Ok(GravityModel { weights, total_demand, weight_sum })
    }

    /// Weights resembling the 2003 Abilene PoP sizes (alphabetical PoP
    /// order): coastal research hubs are heavy, interior PoPs lighter.
    pub fn abilene_weights() -> Vec<f64> {
        vec![
            1.0, // ATLA
            1.3, // CHIN
            0.6, // DNVR
            0.8, // HSTN
            0.9, // IPLS
            0.7, // KSCY
            1.6, // LOSA
            1.8, // NYCM
            1.5, // SNVA
            1.0, // STTL
            1.4, // WASH
        ]
    }

    /// Number of PoPs.
    pub fn num_pops(&self) -> usize {
        self.weights.len()
    }

    /// Mean demand for the `(origin, destination)` pair; the fraction
    /// `w_o w_d / (Σw)²` of total demand.
    pub fn od_mean(&self, origin: usize, destination: usize) -> f64 {
        let sum = self.weight_sum;
        self.total_demand * self.weights[origin] * self.weights[destination] / (sum * sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_sum_to_total_demand() {
        let g = GravityModel::new(GravityModel::abilene_weights(), 1000.0).unwrap();
        let n = g.num_pops();
        let total: f64 = (0..n * n).map(|od| g.od_mean(od / n, od % n)).sum();
        assert!((total - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn heavier_pops_mean_more_traffic() {
        let g = GravityModel::new(GravityModel::abilene_weights(), 1000.0).unwrap();
        // NYCM (idx 7, w=1.8) <-> LOSA (idx 6, w=1.6) must beat
        // DNVR (idx 2, w=0.6) <-> KSCY (idx 5, w=0.7).
        assert!(g.od_mean(7, 6) > g.od_mean(2, 5));
    }

    #[test]
    fn symmetric_weights_give_symmetric_means() {
        let g = GravityModel::new(vec![1.0, 2.0, 3.0], 60.0).unwrap();
        for o in 0..3 {
            for d in 0..3 {
                assert!((g.od_mean(o, d) - g.od_mean(d, o)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn self_pairs_included() {
        // The paper's p = 121 includes same-PoP pairs.
        let g = GravityModel::new(GravityModel::abilene_weights(), 100.0).unwrap();
        assert_eq!(g.num_pops().pow(2), 121);
        assert!(g.od_mean(0, 0) > 0.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(GravityModel::new(vec![], 10.0).is_err());
        assert!(GravityModel::new(vec![1.0, 0.0], 10.0).is_err());
        assert!(GravityModel::new(vec![1.0, -1.0], 10.0).is_err());
        assert!(GravityModel::new(vec![1.0], 0.0).is_err());
        assert!(GravityModel::new(vec![1.0], f64::NAN).is_err());
    }

    #[test]
    fn abilene_weights_match_topology() {
        assert_eq!(GravityModel::abilene_weights().len(), 11);
    }
}
