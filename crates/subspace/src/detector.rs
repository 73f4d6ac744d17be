//! Combined SPE + T² anomaly detection over a traffic matrix.
//!
//! The paper's §2.2 extension: the Q statistic (SPE) alone misses anomalies
//! large enough to be captured *inside* the normal subspace, so detection
//! runs both statistics and flags a timebin when either exceeds its
//! threshold. [`SubspaceDetector::analyze_with_quality`] fits the model and
//! returns the full statistic timeseries (the material of the paper's
//! Figure 1) plus the flagged bins, degrading by the ingest path's
//! [`DataQuality`] report; [`SubspaceDetector::analyze`] is the same call
//! under a pristine report.

use crate::error::{Result, SubspaceError};
use crate::model::{StateSplit, SubspaceConfig, SubspaceModel};
use odflow_flow::{BinStatus, DataQuality};
use odflow_linalg::{vecops, Matrix};

/// Which statistic fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StatisticKind {
    /// Squared prediction error on the residual subspace.
    Spe,
    /// T² on the normal subspace.
    T2,
}

/// One statistic exceedance at one timebin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Timebin index (row of the analyzed matrix).
    pub bin: usize,
    /// Which statistic fired.
    pub kind: StatisticKind,
    /// Observed statistic value.
    pub value: f64,
    /// Threshold it exceeded.
    pub threshold: f64,
}

impl SubspaceModel {
    /// The scoring kernel — the one place a statistic meets a threshold.
    /// Splits `x` through the caller's scratch (SPE from its residual, T²
    /// from the same axis scores the split was built on), pushes a
    /// [`Detection`] at `bin` for each of SPE (against the caller's
    /// `spe_threshold`, which the quality-aware path may have widened) and
    /// T² that exceeds its limit, and returns `(spe, t2)`.
    pub(crate) fn score_into(
        &self,
        x: &[f64],
        bin: usize,
        spe_threshold: f64,
        split: &mut StateSplit,
        detections: &mut Vec<Detection>,
    ) -> Result<(f64, f64)> {
        self.split_into(x, split)?;
        let spe = vecops::norm_sq(&split.residual);
        let t2 = self.t2_of_scores(&split.scores);
        if spe > spe_threshold {
            detections.push(Detection {
                bin,
                kind: StatisticKind::Spe,
                value: spe,
                threshold: spe_threshold,
            });
        }
        if t2 > self.t2_threshold() {
            detections.push(Detection {
                bin,
                kind: StatisticKind::T2,
                value: t2,
                threshold: self.t2_threshold(),
            });
        }
        Ok((spe, t2))
    }
}

/// Full analysis output for one traffic matrix.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The fitted model (reusable for identification and streaming).
    pub model: SubspaceModel,
    /// `||x||²` per bin — the paper's Figure 1 top row ("State Vector").
    pub state_norm_sq: Vec<f64>,
    /// `||x̃||²` per bin — Figure 1 middle row ("Residual Vector").
    pub spe: Vec<f64>,
    /// t² per bin — Figure 1 bottom row.
    pub t2: Vec<f64>,
    /// All threshold exceedances, ordered by bin.
    pub detections: Vec<Detection>,
}

impl Analysis {
    /// Bins where at least one statistic fired, deduplicated and sorted.
    pub fn anomalous_bins(&self) -> Vec<usize> {
        let mut bins: Vec<usize> = self.detections.iter().map(|d| d.bin).collect();
        bins.sort_unstable();
        bins.dedup();
        bins
    }

    /// The detections at one bin (0, 1, or 2 entries).
    pub fn detections_at(&self, bin: usize) -> Vec<Detection> {
        self.detections.iter().filter(|d| d.bin == bin).copied().collect()
    }
}

/// Imputed-bin fraction above which the quality-aware path stops trusting
/// the fitted residual variance at full confidence and widens the
/// Jackson–Mudholkar band (see
/// [`SubspaceDetector::analyze_with_quality`]).
pub const IMPUTED_FRACTION_BOUND: f64 = 0.02;

/// Confidence-level multiplier used when widening: the SPE threshold is
/// recomputed at `alpha * WIDEN_ALPHA_FACTOR` (a smaller α means a larger
/// `δ²_α`, i.e. fewer low-confidence alarms).
pub const WIDEN_ALPHA_FACTOR: f64 = 0.1;

/// Why a bin's statistical verdict was withheld or weakened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DegradedReason {
    /// The bin was masked by repair (collector outage too long to
    /// interpolate): its row is synthetic, so no verdict is possible.
    MaskedBin,
    /// The bin's row was linearly interpolated across a short outage; it
    /// is scored, but the values are estimates, not measurements.
    ImputedBin,
    /// The bin was scored against a widened SPE threshold because the
    /// window-wide imputed fraction exceeded [`IMPUTED_FRACTION_BOUND`].
    WidenedThreshold {
        /// Fraction of the window's bins that were imputed.
        imputed_fraction: f64,
    },
}

/// [`Analysis`] augmented with per-bin quality verdicts.
#[derive(Debug, Clone)]
pub struct QualityAnalysis {
    /// The underlying analysis. Masked bins carry zero SPE/T² and never
    /// appear in `detections`.
    pub analysis: Analysis,
    /// One verdict per bin, aligned with the analysis series, in the form
    /// [`StreamVerdict::degraded`](crate::StreamVerdict::degraded) takes:
    /// `None` for a clean bin at full confidence (anomalous iff it appears
    /// in `detections`), or why its verdict was withheld
    /// ([`DegradedReason::MaskedBin`]) or weakened.
    pub verdicts: Vec<Option<DegradedReason>>,
    /// The effective SPE threshold used (widened when `widened`).
    pub spe_threshold: f64,
    /// `true` when the imputed fraction exceeded
    /// [`IMPUTED_FRACTION_BOUND`] and the SPE band was widened.
    pub widened: bool,
}

/// Bins per scoring task in [`SubspaceDetector::analyze_with_quality`]; fixed so the
/// chunk decomposition (and hence the merged output order) never depends on
/// the thread count. Scoring regions dispatch onto the persistent
/// `odflow_par` pool; chunk bodies are single-threaded (per the pool's
/// no-nesting contract) and reuse one scratch split per chunk.
const SCORE_CHUNK_BINS: usize = 64;

/// Detector facade: fit + score + flag in one call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubspaceDetector {
    /// Model configuration (defaults to the paper's `k = 4`, `α = 0.001`).
    pub config: SubspaceConfig,
}

impl SubspaceDetector {
    /// Creates a detector with explicit configuration.
    pub fn new(config: SubspaceConfig) -> Self {
        SubspaceDetector { config }
    }

    /// Fits the subspace model to `x` (rows = timebins, columns = OD pairs)
    /// and evaluates both statistics on every row:
    /// [`analyze_with_quality`](Self::analyze_with_quality) under a
    /// pristine quality report.
    ///
    /// # Errors
    ///
    /// Propagates model-fitting errors (shape, degeneracy).
    pub fn analyze(&self, x: &Matrix) -> Result<Analysis> {
        Ok(self.analyze_with_quality(x, &DataQuality::clean(x.nrows()))?.analysis)
    }

    /// Quality-aware [`analyze`](Self::analyze): consumes the ingest
    /// path's [`DataQuality`] report and degrades gracefully instead of
    /// scoring repaired data as if it were measured.
    ///
    /// * **Masked** bins (outages too long to interpolate) are excluded
    ///   from the model fit and never scored: their SPE/T² entries are 0,
    ///   they produce no detections, and their verdict is
    ///   [`DegradedReason::MaskedBin`].
    /// * **Imputed** bins are scored (their rows are plausible estimates)
    ///   but their verdicts carry [`DegradedReason::ImputedBin`].
    /// * When the imputed fraction exceeds [`IMPUTED_FRACTION_BOUND`],
    ///   the SPE threshold is recomputed at
    ///   `alpha * `[`WIDEN_ALPHA_FACTOR`] — the residual variance estimate
    ///   is contaminated by interpolation, so only higher-confidence
    ///   exceedances alarm — and every scored clean bin's verdict becomes
    ///   [`DegradedReason::WidenedThreshold`].
    ///
    /// A pristine quality report reproduces [`analyze`](Self::analyze)
    /// bit for bit. Scoring runs over the same fixed-grain chunk
    /// decomposition, so the output is identical for every
    /// `ODFLOW_THREADS`.
    ///
    /// # Errors
    ///
    /// [`SubspaceError::DimensionMismatch`] when the quality report's bin
    /// count differs from the matrix rows; model-fitting errors propagate
    /// (including [`SubspaceError::InsufficientData`] when masking leaves
    /// fewer clean bins than normal-subspace dimensions).
    pub fn analyze_with_quality(
        &self,
        x: &Matrix,
        quality: &DataQuality,
    ) -> Result<QualityAnalysis> {
        let n = x.nrows();
        if quality.bins.len() != n {
            return Err(SubspaceError::DimensionMismatch { expected: n, got: quality.bins.len() });
        }
        let p = x.ncols();
        let masked = |bin: usize| quality.bins[bin] == BinStatus::Masked;

        // Masked rows are synthetic zeros — folding them into the fit
        // would teach the model a fake "dead network" mode and shift the
        // mean. Fit on the surviving rows only.
        let model = if (0..n).any(masked) {
            let clean_rows: Vec<usize> = (0..n).filter(|&b| !masked(b)).collect();
            let mut data = Vec::with_capacity(clean_rows.len() * p);
            for &b in &clean_rows {
                data.extend_from_slice(x.row(b)?);
            }
            let train = Matrix::from_vec(clean_rows.len(), p, data)?;
            SubspaceModel::fit(&train, self.config)?
        } else {
            SubspaceModel::fit(x, self.config)?
        };

        let imputed_fraction = quality.imputed_fraction();
        let widened = imputed_fraction > IMPUTED_FRACTION_BOUND;
        let spe_threshold = if widened {
            model.spe_threshold_at(self.config.alpha * WIDEN_ALPHA_FACTOR)?
        } else {
            model.spe_threshold()
        };

        /// Scores for one chunk of rows, in row order.
        struct ChunkScores {
            state_norm_sq: Vec<f64>,
            spe: Vec<f64>,
            t2: Vec<f64>,
            detections: Vec<Detection>,
        }

        // Each bin's SPE/T² is an independent projection, so a week of
        // bins scores on all cores; chunks merge in bin order and each bin
        // runs the exact serial per-row arithmetic.
        let score_chunk = |bins: std::ops::Range<usize>| -> Result<ChunkScores> {
            let mut out = ChunkScores {
                state_norm_sq: Vec::with_capacity(bins.len()),
                spe: Vec::with_capacity(bins.len()),
                t2: Vec::with_capacity(bins.len()),
                detections: Vec::new(),
            };
            // One scratch split per chunk: scoring allocates nothing per bin.
            let mut split = StateSplit::with_dimension(p);
            for bin in bins {
                let row = x.row(bin)?;
                out.state_norm_sq.push(vecops::norm_sq(row));
                let (spe, t2) = if masked(bin) {
                    (0.0, 0.0)
                } else {
                    model.score_into(row, bin, spe_threshold, &mut split, &mut out.detections)?
                };
                out.spe.push(spe);
                out.t2.push(t2);
            }
            Ok(out)
        };

        let mut state_norm_sq = Vec::with_capacity(n);
        let mut spe = Vec::with_capacity(n);
        let mut t2 = Vec::with_capacity(n);
        let mut detections = Vec::new();
        for chunk in odflow_par::map_chunks(n, SCORE_CHUNK_BINS, score_chunk) {
            let chunk = chunk?;
            state_norm_sq.extend(chunk.state_norm_sq);
            spe.extend(chunk.spe);
            t2.extend(chunk.t2);
            detections.extend(chunk.detections);
        }

        let verdicts = quality
            .bins
            .iter()
            .map(|s| match s {
                BinStatus::Masked => Some(DegradedReason::MaskedBin),
                BinStatus::Imputed => Some(DegradedReason::ImputedBin),
                BinStatus::Ok if widened => {
                    Some(DegradedReason::WidenedThreshold { imputed_fraction })
                }
                BinStatus::Ok => None,
            })
            .collect();

        Ok(QualityAnalysis {
            analysis: Analysis { model, state_norm_sq, spe, t2, detections },
            verdicts,
            spe_threshold,
            widened,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traffic_with_spikes(n: usize, p: usize, spikes: &[(usize, usize, f64)]) -> Matrix {
        crate::testutil::traffic(n, p, 1.0, spikes)
    }

    #[test]
    fn detects_injected_spike_via_spe() {
        // Moderate spike: too small to claim a top-4 eigenflow slot, so it
        // must surface in the residual (SPE).
        let x = traffic_with_spikes(500, 12, &[(250, 3, 150.0)]);
        let analysis = SubspaceDetector::default().analyze(&x).unwrap();
        let bins = analysis.anomalous_bins();
        assert!(bins.contains(&250), "spike bin not flagged; flagged: {bins:?}");
        let dets = analysis.detections_at(250);
        assert!(dets.iter().any(|d| d.kind == StatisticKind::Spe));
        assert!(dets[0].value > dets[0].threshold);
    }

    #[test]
    fn huge_spike_caught_even_if_absorbed_by_pca() {
        // A very large spike in the *training* window can be pulled into a
        // top eigenflow — the normal subspace — where SPE is blind. This is
        // exactly the paper's §2.2 argument for adding T²: the union of the
        // two statistics must still flag the bin.
        let x = traffic_with_spikes(500, 12, &[(250, 3, 2000.0)]);
        let analysis = SubspaceDetector::default().analyze(&x).unwrap();
        assert!(
            analysis.anomalous_bins().contains(&250),
            "huge spike must be flagged by SPE or T²"
        );
    }

    #[test]
    fn clean_data_low_alarm_rate() {
        let x = traffic_with_spikes(600, 12, &[]);
        let analysis = SubspaceDetector::default().analyze(&x).unwrap();
        let rate = analysis.anomalous_bins().len() as f64 / analysis.spe.len() as f64;
        assert!(rate < 0.02, "clean alarm rate {rate} too high");
    }

    #[test]
    fn series_lengths_match_bins() {
        let x = traffic_with_spikes(300, 8, &[]);
        let analysis = SubspaceDetector::default().analyze(&x).unwrap();
        assert_eq!(analysis.state_norm_sq.len(), 300);
        assert_eq!(analysis.spe.len(), 300);
        assert_eq!(analysis.t2.len(), 300);
    }

    #[test]
    fn periodicity_removed_from_residual() {
        // The shared diurnal cycle dominates ||x||² but must be absent
        // from the residual: SPE's diurnal range is tiny relative to the
        // state vector's.
        let x = traffic_with_spikes(576, 10, &[]);
        let analysis = SubspaceDetector::default().analyze(&x).unwrap();
        let range = |v: &[f64]| {
            let max = v.iter().copied().fold(f64::MIN, f64::max);
            let min = v.iter().copied().fold(f64::MAX, f64::min);
            (max - min) / (max + 1e-12)
        };
        let state_range = range(&analysis.state_norm_sq);
        let spe_mean = analysis.spe.iter().sum::<f64>() / analysis.spe.len() as f64;
        let state_mean =
            analysis.state_norm_sq.iter().sum::<f64>() / analysis.state_norm_sq.len() as f64;
        assert!(state_range > 0.5, "traffic should show strong diurnal swing");
        assert!(
            spe_mean < state_mean * 1e-3,
            "residual energy {spe_mean} should be tiny next to state {state_mean}"
        );
    }

    #[test]
    fn multiple_spikes_all_detected() {
        let spikes = [(100, 2, 350.0), (200, 7, 350.0), (300, 9, 350.0)];
        let x = traffic_with_spikes(500, 12, &spikes);
        let analysis = SubspaceDetector::default().analyze(&x).unwrap();
        let bins = analysis.anomalous_bins();
        for &(b, _, _) in &spikes {
            assert!(bins.contains(&b), "spike at {b} missed");
        }
    }

    #[test]
    fn detections_ordered_by_bin() {
        let x = traffic_with_spikes(400, 10, &[(50, 1, 300.0), (350, 2, 300.0)]);
        let analysis = SubspaceDetector::default().analyze(&x).unwrap();
        let bins: Vec<usize> = analysis.detections.iter().map(|d| d.bin).collect();
        let mut sorted = bins.clone();
        sorted.sort_unstable();
        assert_eq!(bins, sorted);
    }

    #[test]
    fn masked_bins_never_alarm_and_stay_out_of_fit() {
        // Plant an enormous spike in a masked bin: without masking this
        // alarms loudly; with masking it must produce no detection at all.
        let mut x = traffic_with_spikes(400, 10, &[]);
        for j in 0..10 {
            x[(120, j)] = 0.0; // the repaired row an outage leaves behind
        }
        x[(120, 4)] = 50_000.0;
        let mut q = DataQuality::clean(400);
        q.bins[120] = odflow_flow::BinStatus::Masked;
        let qa = SubspaceDetector::default().analyze_with_quality(&x, &q).unwrap();
        assert!(qa.analysis.detections_at(120).is_empty(), "masked bin must not alarm");
        assert_eq!(qa.analysis.spe[120], 0.0);
        assert_eq!(qa.analysis.t2[120], 0.0);
        assert_eq!(qa.verdicts[120], Some(DegradedReason::MaskedBin));
        let masked = Some(DegradedReason::MaskedBin);
        let withheld: Vec<usize> = (0..400).filter(|&b| qa.verdicts[b] == masked).collect();
        assert_eq!(withheld, [120]);
        assert_eq!(qa.analysis.model.num_train_bins(), 399, "masked row excluded from fit");
        // Series still span every bin.
        assert_eq!(qa.analysis.spe.len(), 400);
    }

    #[test]
    fn clean_spike_still_detected_alongside_masked_bins() {
        let mut x = traffic_with_spikes(400, 10, &[(250, 3, 200.0)]);
        for j in 0..10 {
            x[(120, j)] = 0.0;
        }
        let mut q = DataQuality::clean(400);
        q.bins[120] = odflow_flow::BinStatus::Masked;
        let qa = SubspaceDetector::default().analyze_with_quality(&x, &q).unwrap();
        assert!(
            qa.analysis.anomalous_bins().contains(&250),
            "clean-bin anomaly must survive degradation"
        );
    }

    #[test]
    fn heavy_imputation_widens_spe_threshold() {
        let x = traffic_with_spikes(400, 10, &[]);
        let mut q = DataQuality::clean(400);
        for b in 0..20 {
            q.bins[b] = odflow_flow::BinStatus::Imputed; // 5% > bound
        }
        let det = SubspaceDetector::default();
        let qa = det.analyze_with_quality(&x, &q).unwrap();
        assert!(qa.widened);
        assert!(
            qa.spe_threshold > qa.analysis.model.spe_threshold(),
            "widened band {} must exceed nominal {}",
            qa.spe_threshold,
            qa.analysis.model.spe_threshold()
        );
        assert_eq!(
            qa.verdicts[0],
            Some(DegradedReason::ImputedBin),
            "imputed bins keep the more specific reason"
        );
        assert!(matches!(qa.verdicts[30], Some(DegradedReason::WidenedThreshold { .. })));
    }

    #[test]
    fn light_imputation_keeps_nominal_threshold() {
        let x = traffic_with_spikes(400, 10, &[]);
        let mut q = DataQuality::clean(400);
        q.bins[7] = odflow_flow::BinStatus::Imputed; // 0.25% < bound
        let qa = SubspaceDetector::default().analyze_with_quality(&x, &q).unwrap();
        assert!(!qa.widened);
        assert_eq!(qa.verdicts[7], Some(DegradedReason::ImputedBin));
        assert_eq!(qa.verdicts[8], None);
    }

    #[test]
    fn quality_length_mismatch_rejected() {
        let x = traffic_with_spikes(100, 8, &[]);
        let q = DataQuality::clean(99);
        assert!(SubspaceDetector::default().analyze_with_quality(&x, &q).is_err());
    }

    #[test]
    fn detections_at_missing_bin_empty() {
        let x = traffic_with_spikes(300, 8, &[]);
        let analysis = SubspaceDetector::default().analyze(&x).unwrap();
        // A bin with no detections yields an empty set.
        let quiet_bin = (0..300).find(|b| analysis.detections_at(*b).is_empty()).unwrap();
        assert!(analysis.detections_at(quiet_bin).is_empty());
    }
}
