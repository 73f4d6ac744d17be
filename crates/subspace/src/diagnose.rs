//! Whole-network diagnosis across the three traffic types.
//!
//! The paper's full §3-§4 pipeline in one call: run the subspace detector
//! on the **bytes**, **packets**, and **IP-flows** views of the same
//! observation window, identify the responsible OD flows behind every
//! threshold exceedance, and merge the resulting (traffic type, time,
//! OD flow) triples into final [`AnomalyEvent`]s.

use crate::detector::{analyze_with_quality, widens, Analysis, DegradedReason};
use crate::error::Result;
use crate::events::{merge_detections, AnomalyEvent, DetectionTriple};
use crate::identify::identify;
use crate::model::SubspaceConfig;
use odflow_flow::{DataQuality, TrafficMatrixSet, TrafficType};

/// The full network-wide diagnosis of one observation window.
#[derive(Debug, Clone)]
pub struct Diagnosis {
    /// Per-traffic-type analysis (Figure 1 material), in B, P, F order.
    pub analyses: Vec<(TrafficType, Analysis)>,
    /// All identified detection triples (the paper's §4 input set).
    pub triples: Vec<DetectionTriple>,
    /// Final merged anomaly events (the unit of Tables 1 and 3). Masked
    /// bins never contribute detections, triples, or events.
    pub events: Vec<AnomalyEvent>,
    /// `true` when heavy imputation widened the SPE band (on every view:
    /// quality is a property of the ingest window, not of a view).
    pub widened: bool,
}

impl Diagnosis {
    /// The analysis for one traffic type.
    pub fn analysis(&self, t: TrafficType) -> Option<&Analysis> {
        self.analyses.iter().find(|(tt, _)| *tt == t).map(|(_, a)| a)
    }

    /// One verdict per bin, as [`Analysis::verdicts`] has it: the three
    /// views share one quality report, so they share their verdicts.
    pub fn verdicts(&self) -> &[Option<DegradedReason>] {
        self.analyses.first().map_or(&[], |(_, a)| &a.verdicts)
    }
}

/// Runs detection + identification + merging over all three traffic
/// views: [`diagnose_with_quality`] under a pristine quality report.
///
/// # Errors
///
/// Propagates model-fitting failures (shape/degeneracy). Identification
/// failures are absorbed as [`diagnose_with_quality`] describes.
pub fn diagnose(set: &TrafficMatrixSet, config: SubspaceConfig) -> Result<Diagnosis> {
    diagnose_with_quality(set, config, &DataQuality::clean(set.num_bins()))
}

/// Runs quality-aware detection + identification + merging over all three
/// traffic views: masked bins are excluded from model fits and produce no
/// events, and a heavily imputed window widens the SPE band (see
/// [`analyze_with_quality`]).
///
/// For each flagged bin the responsible OD flows are identified per
/// statistic that fired (one greedy reconstruction over that statistic's
/// quadratic form, see [`identify`]) and unioned.
/// Identification failures at a bin degrade gracefully to an empty OD set
/// rather than aborting the whole diagnosis — matching how the paper
/// tolerates its ~10% unexplainable detections.
///
/// # Errors
///
/// Propagates model-fitting failures (shape/degeneracy), plus a dimension
/// mismatch when the quality report's bin count differs from the
/// matrices' rows. Identification failures are absorbed as described.
pub fn diagnose_with_quality(
    set: &TrafficMatrixSet,
    config: SubspaceConfig,
    quality: &DataQuality,
) -> Result<Diagnosis> {
    let mut analyses = Vec::with_capacity(3);
    let mut triples = Vec::new();

    for t in [TrafficType::Bytes, TrafficType::Packets, TrafficType::Flows] {
        let matrix = set.get(t);
        let analysis = analyze_with_quality(&matrix.data, config, quality)?;
        for bin in analysis.anomalous_bins() {
            let row = matrix.data.row(bin)?;
            let mut flows: Vec<usize> = Vec::new();
            for d in analysis.detections_at(bin) {
                if let Ok(id) = identify(&analysis.model, row, d.kind, bin) {
                    for f in id.od_flows {
                        if !flows.contains(&f) {
                            flows.push(f);
                        }
                    }
                }
            }
            triples.push(DetectionTriple { traffic_type: t, bin, od_flows: flows });
        }
        analyses.push((t, analysis));
    }

    let events = merge_detections(&triples);
    Ok(Diagnosis { analyses, triples, events, widened: widens(quality) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use odflow_flow::{TrafficMatrix, TrafficMatrixSet};
    use odflow_linalg::Matrix;

    /// Builds an aligned B/P/F set with optional spikes per type.
    fn matrix_set(
        n: usize,
        p: usize,
        byte_spikes: &[(usize, usize, f64)],
        packet_spikes: &[(usize, usize, f64)],
        flow_spikes: &[(usize, usize, f64)],
    ) -> TrafficMatrixSet {
        let base = |scale: f64, spikes: &[(usize, usize, f64)]| {
            let mut m = Matrix::from_fn(n, p, |i, j| {
                let t = i as f64 / 288.0 * std::f64::consts::TAU;
                let phase = (j % 4) as f64 * 0.6;
                scale * (12.0 + j as f64) * (2.0 + (t + phase).sin())
                    + scale * 0.4 * (((i * 17 + j * 5) % 37) as f64 - 18.0) / 18.0
            });
            for &(bi, od, mag) in spikes {
                m[(bi, od)] += mag * scale;
            }
            m
        };
        TrafficMatrixSet {
            bytes: TrafficMatrix {
                traffic_type: TrafficType::Bytes,
                start_secs: 0,
                bin_secs: 300,
                data: base(1000.0, byte_spikes),
            },
            packets: TrafficMatrix {
                traffic_type: TrafficType::Packets,
                start_secs: 0,
                bin_secs: 300,
                data: base(10.0, packet_spikes),
            },
            flows: TrafficMatrix {
                traffic_type: TrafficType::Flows,
                start_secs: 0,
                bin_secs: 300,
                data: base(1.0, flow_spikes),
            },
        }
    }

    #[test]
    fn single_type_spike_yields_single_type_event() {
        let set = matrix_set(400, 10, &[], &[], &[(200, 3, 300.0)]);
        let d = diagnose(&set, SubspaceConfig::default()).unwrap();
        let ev: Vec<_> = d.events.iter().filter(|e| e.covers_bin(200)).collect();
        assert_eq!(ev.len(), 1, "events: {:?}", d.events);
        assert_eq!(ev[0].types.code(), "F");
        assert!(ev[0].od_flows.contains(&3));
    }

    #[test]
    fn multi_type_spike_merges_to_composite() {
        // Spike in both bytes and packets at the same bin -> BP event,
        // like the paper's bandwidth-measurement anomaly (2) in Figure 1.
        let set = matrix_set(400, 10, &[(150, 5, 350.0)], &[(150, 5, 350.0)], &[]);
        let d = diagnose(&set, SubspaceConfig::default()).unwrap();
        let ev: Vec<_> = d.events.iter().filter(|e| e.covers_bin(150)).collect();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].types.code(), "BP");
        assert!(ev[0].od_flows.contains(&5));
    }

    #[test]
    fn consecutive_bins_merge_into_one_event() {
        let set =
            matrix_set(400, 10, &[], &[], &[(220, 2, 320.0), (221, 2, 320.0), (222, 2, 320.0)]);
        let d = diagnose(&set, SubspaceConfig::default()).unwrap();
        let ev: Vec<_> = d.events.iter().filter(|e| e.covers_bin(221)).collect();
        assert_eq!(ev.len(), 1);
        assert!(ev[0].duration_bins >= 3);
        assert_eq!(ev[0].duration_minutes(300), ev[0].duration_bins as f64 * 5.0);
    }

    #[test]
    fn analyses_cover_all_types() {
        let set = matrix_set(300, 8, &[], &[], &[]);
        let d = diagnose(&set, SubspaceConfig::default()).unwrap();
        assert!(d.analysis(TrafficType::Bytes).is_some());
        assert!(d.analysis(TrafficType::Packets).is_some());
        assert!(d.analysis(TrafficType::Flows).is_some());
        assert_eq!(d.analyses.len(), 3);
    }

    #[test]
    fn clean_window_few_events() {
        let set = matrix_set(500, 10, &[], &[], &[]);
        let d = diagnose(&set, SubspaceConfig::default()).unwrap();
        assert!(d.events.len() <= 6, "clean window produced {} events", d.events.len());
    }

    #[test]
    fn masked_bin_spike_yields_no_event_but_clean_spike_survives() {
        use odflow_flow::{BinStatus, DataQuality};
        // A huge flow-view spike at bin 150 — but the bin is masked, so
        // the quality-aware diagnosis must stay silent there while still
        // flagging the clean spike at 300.
        let set = matrix_set(400, 10, &[], &[], &[(150, 3, 500.0), (300, 7, 320.0)]);
        let mut q = DataQuality::clean(400);
        q.bins[150] = BinStatus::Masked;
        let qd = diagnose_with_quality(&set, SubspaceConfig::default(), &q).unwrap();
        assert!(
            !qd.events.iter().any(|e| e.covers_bin(150)),
            "masked bin must not produce an event: {:?}",
            qd.events
        );
        assert!(qd.events.iter().any(|e| e.covers_bin(300)), "clean spike must still be detected");
        assert_eq!(qd.verdicts().len(), 400);
        assert_eq!(qd.verdicts()[150], Some(DegradedReason::MaskedBin));
        assert_eq!(qd.verdicts()[300], None);
        assert!(!qd.widened);
        // The plain diagnosis on the same set *does* flag bin 150 — the
        // degradation is doing real work.
        let plain = diagnose(&set, SubspaceConfig::default()).unwrap();
        assert!(plain.events.iter().any(|e| e.covers_bin(150)));
    }

    #[test]
    fn distinct_spikes_distinct_events() {
        let set = matrix_set(500, 10, &[(100, 1, 400.0)], &[], &[(300, 7, 400.0)]);
        let d = diagnose(&set, SubspaceConfig::default()).unwrap();
        let at100: Vec<_> = d.events.iter().filter(|e| e.covers_bin(100)).collect();
        let at300: Vec<_> = d.events.iter().filter(|e| e.covers_bin(300)).collect();
        assert_eq!(at100.len(), 1);
        assert_eq!(at300.len(), 1);
        assert_eq!(at100[0].types.code(), "B");
        assert_eq!(at300[0].types.code(), "F");
    }
}
