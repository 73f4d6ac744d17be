//! Online (streaming) subspace detection.
//!
//! The paper closes by pointing at "practical, online diagnosis of
//! network-wide anomalies" as the goal (§6). [`OnlineDetector`] is that
//! extension: fit the subspace model on a training window, then score each
//! arriving 5-minute state vector against the frozen thresholds in O(k·p),
//! optionally refitting periodically so the normal model tracks slow
//! traffic drift.
//! The detector is single-owner; a concurrent pipeline holds it behind a
//! lock or feeds it from a channel (`examples/streaming_detector.rs`).

use crate::detector::{DegradedReason, Detection};
use crate::error::{Result, SubspaceError};
use crate::model::{ModelState, StateSplit, SubspaceConfig, SubspaceModel};
use odflow_flow::BinStatus;
use odflow_linalg::Matrix;
use std::collections::VecDeque;

/// Outcome of scoring one streamed observation.
#[derive(Debug, Clone)]
pub struct StreamVerdict {
    /// Index of the observation in the stream (bins since detector start).
    pub bin: usize,
    /// SPE value and T² value.
    pub spe: f64,
    /// T² statistic value.
    pub t2: f64,
    /// Detections fired by this observation (0-2 entries).
    pub detections: Vec<Detection>,
    /// `Some` when the verdict was withheld or weakened by data quality
    /// (masked or imputed input bin); `None` for a clean measurement.
    pub degraded: Option<DegradedReason>,
}

impl StreamVerdict {
    /// `true` if either statistic exceeded its threshold.
    pub fn is_anomalous(&self) -> bool {
        !self.detections.is_empty()
    }
}

/// Streaming subspace detector, frozen or with periodic refit.
#[derive(Debug)]
pub struct OnlineDetector {
    model: SubspaceModel,
    /// Refit after this many clean observations (0 = never refit).
    refit_every: usize,
    /// The latest clean observations, as many as the training rows, kept
    /// only while `refit_every > 0`: what the next refit fits.
    window: VecDeque<Vec<f64>>,
    since_refit: usize,
    next_bin: usize,
    /// Reusable centered/normal/residual buffers: scoring a bin is
    /// allocation-free after the first push.
    scratch: StateSplit,
}

impl OnlineDetector {
    /// Fits the initial model on `training` (rows = bins) and prepares to
    /// stream. `refit_every = 0` freezes the model forever and keeps no
    /// refit window; otherwise the last `training.nrows()` clean
    /// observations are kept and refit every `refit_every` of them.
    ///
    /// # Errors
    ///
    /// Propagates model-fitting errors.
    pub fn new(training: &Matrix, config: SubspaceConfig, refit_every: usize) -> Result<Self> {
        let model = SubspaceModel::fit(training, config)?;
        let window = if refit_every > 0 {
            training.rows_iter().map(<[f64]>::to_vec).collect()
        } else {
            VecDeque::new()
        };
        Ok(OnlineDetector {
            model,
            refit_every,
            window,
            since_refit: 0,
            next_bin: 0,
            scratch: StateSplit::with_dimension(training.ncols()),
        })
    }

    /// The current model (replaced on refit).
    pub fn model(&self) -> &SubspaceModel {
        &self.model
    }

    /// Number of observations streamed so far.
    pub fn bins_seen(&self) -> usize {
        self.next_bin
    }

    /// Scores one clean observation and slides the refit window, if kept:
    /// [`push_with_status`](Self::push_with_status) at [`BinStatus::Ok`].
    ///
    /// # Errors
    ///
    /// As for [`push_with_status`](Self::push_with_status).
    pub fn push(&mut self, x: &[f64]) -> Result<StreamVerdict> {
        self.push_with_status(x, BinStatus::Ok)
    }

    /// Scores one observation by its ingest [`BinStatus`] and advances the
    /// stream position.
    ///
    /// * [`BinStatus::Ok`] scores, and a row that raised no alarm slides
    ///   into a refitting detector's window. Anomalous observations are
    ///   *not* folded in — keeping the normal model clean of the anomalies
    ///   it just flagged (standard practice; otherwise a sustained attack
    ///   becomes "normal").
    /// * [`BinStatus::Imputed`] scores against the same thresholds (the
    ///   row is a plausible estimate) but is **never** folded into the
    ///   refit window — interpolated rows must not train the normal
    ///   model — and the verdict carries [`DegradedReason::ImputedBin`].
    /// * [`BinStatus::Masked`] (a collector outage too long to repair)
    ///   evaluates no statistic: `x` is ignored, no alarm can fire,
    ///   nothing enters the refit window, and the verdict carries
    ///   [`DegradedReason::MaskedBin`].
    ///
    /// # Errors
    ///
    /// [`SubspaceError::DimensionMismatch`] on wrong-length input (the
    /// stream position does not advance); refit errors propagate. Masked
    /// pushes never fail.
    pub fn push_with_status(&mut self, x: &[f64], status: BinStatus) -> Result<StreamVerdict> {
        let bin = self.next_bin;
        let mut detections = Vec::new();
        // Scored through the reusable scratch buffers: no per-bin
        // allocation beyond the verdict itself.
        let (spe, t2) = if status == BinStatus::Masked {
            (0.0, 0.0)
        } else {
            let limit = self.model.spe_threshold();
            self.model.score_into(x, bin, limit, &mut self.scratch, &mut detections)?
        };
        self.next_bin += 1;

        if self.refit_every > 0 && status == BinStatus::Ok && detections.is_empty() {
            self.window.pop_front();
            self.window.push_back(x.to_vec());
            self.since_refit += 1;
            if self.since_refit >= self.refit_every {
                self.refit()?;
            }
        }

        let degraded = match status {
            BinStatus::Ok => None,
            BinStatus::Imputed => Some(DegradedReason::ImputedBin),
            BinStatus::Masked => Some(DegradedReason::MaskedBin),
        };
        Ok(StreamVerdict { bin, spe, t2, detections, degraded })
    }

    /// Snapshots what the detector scores with — the fitted model's exact
    /// floats (its configuration included) and the stream position.
    /// Restored with [`Self::from_state`], a frozen detector scores on
    /// bit-identically to an uninterrupted one. The refit window is not
    /// part of the snapshot: a detector built to refit restores frozen at
    /// its current model.
    pub fn export_state(&self) -> DetectorState {
        DetectorState { model: self.model.export_state(), next_bin: self.next_bin }
    }

    /// Rebuilds a frozen streaming detector from a snapshot.
    ///
    /// # Errors
    ///
    /// [`SubspaceError::DimensionMismatch`] when the snapshot's model is
    /// internally inconsistent.
    pub fn from_state(s: DetectorState) -> Result<Self> {
        let model = SubspaceModel::from_state(s.model)?;
        let p = model.num_od_pairs();
        Ok(OnlineDetector {
            model,
            refit_every: 0,
            window: VecDeque::new(),
            since_refit: 0,
            next_bin: s.next_bin,
            scratch: StateSplit::with_dimension(p),
        })
    }

    /// Refits the model on the current window.
    fn refit(&mut self) -> Result<()> {
        let n = self.window.len();
        let p = self.model.num_od_pairs();
        let mut data = Vec::with_capacity(n * p);
        for row in &self.window {
            data.extend_from_slice(row);
        }
        let m = Matrix::from_vec(n, p, data).map_err(SubspaceError::from)?;
        self.model = SubspaceModel::fit(&m, self.model.config())?;
        self.since_refit = 0;
        Ok(())
    }
}

/// Serializable snapshot of an [`OnlineDetector`]: the frozen model state
/// (its configuration included) and the stream position. All fields are
/// public so the serve layer's checkpoint codec can persist a live
/// detector across process crashes and restore it bit-exactly.
#[derive(Debug, Clone)]
pub struct DetectorState {
    /// The fitted model, frozen at its exact floats.
    pub model: ModelState,
    /// Stream position: bins consumed so far.
    pub next_bin: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traffic(n: usize, p: usize, offset: usize) -> Matrix {
        Matrix::from_fn(n, p, |i, j| {
            let t = (i + offset) as f64 / 288.0 * std::f64::consts::TAU;
            let phase = if j % 2 == 0 { 0.0 } else { 0.5 };
            let psi = if (j / 2) % 2 == 0 { 0.0 } else { 0.7 };
            (10.0 + j as f64) * (2.0 + (t + phase).sin() + 0.8 * (2.0 * t + psi).sin())
                + 1.0 * crate::testutil::hash_noise(i + offset, j)
        })
    }

    #[test]
    fn clean_stream_rarely_alarms() {
        let train = traffic(400, 10, 0);
        let mut det = OnlineDetector::new(&train, SubspaceConfig::default(), 0).unwrap();
        let live = traffic(200, 10, 400);
        let mut alarms = 0;
        for row in live.rows_iter() {
            if det.push(row).unwrap().is_anomalous() {
                alarms += 1;
            }
        }
        assert!(alarms <= 5, "too many alarms on clean stream: {alarms}");
        assert_eq!(det.bins_seen(), 200);
    }

    #[test]
    fn spike_detected_in_stream() {
        let train = traffic(400, 10, 0);
        let mut det = OnlineDetector::new(&train, SubspaceConfig::default(), 0).unwrap();
        let live = traffic(50, 10, 400);
        let mut spiked = live.row(25).unwrap().to_vec();
        spiked[4] += 400.0;
        for (i, row) in live.rows_iter().enumerate() {
            let verdict = if i == 25 { det.push(&spiked).unwrap() } else { det.push(row).unwrap() };
            if i == 25 {
                assert!(verdict.is_anomalous(), "spike must alarm");
                assert!(verdict.detections.iter().any(|d| d.kind == crate::StatisticKind::Spe));
            }
        }
    }

    #[test]
    fn anomalies_excluded_from_refit_window() {
        let train = traffic(100, 8, 0);
        let mut det = OnlineDetector::new(&train, SubspaceConfig::default(), 10_000).unwrap();
        let before = det.window.len();
        let mut spiked = traffic(1, 8, 100).row(0).unwrap().to_vec();
        spiked[2] += 500.0;
        let v = det.push(&spiked).unwrap();
        assert!(v.is_anomalous());
        assert_eq!(det.window.len(), before, "anomalous bin must not enter window");
    }

    #[test]
    fn refit_happens_and_model_stays_valid() {
        let train = traffic(120, 8, 0);
        let mut det = OnlineDetector::new(&train, SubspaceConfig::default(), 50).unwrap();
        let live = traffic(120, 8, 120);
        let mut clean = 0;
        for row in live.rows_iter() {
            if !det.push(row).unwrap().is_anomalous() {
                clean += 1;
            }
        }
        // Every 50th clean observation refits and restarts the count.
        assert!(clean >= 50);
        assert_eq!(det.since_refit, clean % 50);
        assert_eq!(det.window.len(), 120);
        let first = OnlineDetector::new(&train, SubspaceConfig::default(), 0).unwrap();
        assert_ne!(det.model().spe_threshold().to_bits(), first.model().spe_threshold().to_bits());
        // After refits the thresholds remain positive and usable.
        assert!(det.model().spe_threshold() >= 0.0);
        assert!(det.model().t2_threshold() > 0.0);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let train = traffic(100, 8, 0);
        let mut det = OnlineDetector::new(&train, SubspaceConfig::default(), 0).unwrap();
        assert!(matches!(det.push(&[1.0, 2.0]), Err(SubspaceError::DimensionMismatch { .. })));
    }

    #[test]
    fn a_frozen_detector_keeps_no_window() {
        let train = traffic(100, 8, 0);
        let mut det = OnlineDetector::new(&train, SubspaceConfig::default(), 0).unwrap();
        for row in traffic(20, 8, 100).rows_iter() {
            det.push(row).unwrap();
        }
        assert!(det.window.is_empty());
        assert_eq!(det.since_refit, 0);
    }

    #[test]
    fn masked_push_skips_scoring_and_refit_window() {
        let train = traffic(100, 8, 0);
        let mut det = OnlineDetector::new(&train, SubspaceConfig::default(), 10_000).unwrap();
        let before = det.window.len();
        let v = det.push_with_status(&[], BinStatus::Masked).unwrap();
        assert_eq!(v.bin, 0);
        assert!(!v.is_anomalous());
        assert_eq!(v.degraded, Some(DegradedReason::MaskedBin));
        assert_eq!(det.window.len(), before, "masked bin must not enter window");
        assert_eq!(det.bins_seen(), 1);
        // A masked push ignores the payload entirely, whatever its length.
        let v2 = det.push_with_status(&[1.0; 3], BinStatus::Masked).unwrap();
        assert_eq!(v2.bin, 1);
    }

    #[test]
    fn imputed_push_scores_but_never_trains() {
        let train = traffic(100, 8, 0);
        let mut det = OnlineDetector::new(&train, SubspaceConfig::default(), 10_000).unwrap();
        let before = det.window.len();
        let row = traffic(1, 8, 100).row(0).unwrap().to_vec();
        let v = det.push_with_status(&row, BinStatus::Imputed).unwrap();
        assert_eq!(v.degraded, Some(DegradedReason::ImputedBin));
        assert_eq!(det.window.len(), before, "imputed bin must not enter window");
        // Same row, clean status: identical statistics, and it trains.
        let mut det2 = OnlineDetector::new(&train, SubspaceConfig::default(), 10_000).unwrap();
        let v2 = det2.push_with_status(&row, BinStatus::Ok).unwrap();
        assert_eq!(v.spe.to_bits(), v2.spe.to_bits());
        assert_eq!(v.t2.to_bits(), v2.t2.to_bits());
        assert!(v2.degraded.is_none());
    }

    #[test]
    fn imputed_push_rejects_wrong_dimension() {
        let train = traffic(100, 8, 0);
        let mut det = OnlineDetector::new(&train, SubspaceConfig::default(), 0).unwrap();
        assert!(det.push_with_status(&[1.0], BinStatus::Imputed).is_err());
    }

    #[test]
    fn detector_state_roundtrip_streams_bit_identically() {
        // Mid-stream snapshot of a frozen detector: the restored detector
        // must score identically on the tail.
        let train = traffic(60, 8, 0);
        let mut live = OnlineDetector::new(&train, SubspaceConfig::default(), 0).unwrap();
        let stream = traffic(80, 8, 60);
        for row in stream.rows_iter().take(40) {
            live.push(row).unwrap();
        }
        let snap = live.export_state();
        assert_eq!(snap.next_bin, 40);
        let mut restored = OnlineDetector::from_state(snap).unwrap();
        for row in stream.rows_iter().skip(40) {
            let va = live.push(row).unwrap();
            let vb = restored.push(row).unwrap();
            assert_eq!(va.bin, vb.bin);
            assert_eq!(va.spe.to_bits(), vb.spe.to_bits());
            assert_eq!(va.t2.to_bits(), vb.t2.to_bits());
        }
        assert_eq!(live.bins_seen(), restored.bins_seen());
    }
}
