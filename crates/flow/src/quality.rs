//! Data-quality accounting for hostile telemetry.
//!
//! Real NetFlow arrives corrupted, truncated, duplicated, and gappy; the
//! subspace method assumes a clean, complete `n x p` matrix. This module is
//! the bridge between the two worlds: every malformed frame lands in a
//! **counted quarantine** (never an error, never a panic), export-sequence
//! gaps become per-exporter lost-flow estimates, and post-merge bin repair
//! turns short collector outages into *imputed* bins (deterministic per-OD
//! linear interpolation) while longer gaps are *masked* so the detector can
//! refuse to issue verdicts on them. The [`DataQuality`] report carries all
//! of it downstream.
//!
//! Conservation is the load-bearing invariant: every offered frame is
//! either accepted or lands in **exactly one** quarantine class, and every
//! record of an accepted frame is either decoded or counted implausible.

use crate::netflow::{decode_frame, DatagramHeader, FrameRecords};
use std::collections::BTreeMap;

/// Why a frame was quarantined. Each rejected frame increments exactly one
/// class counter in [`QuarantineStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineClass {
    /// Fewer bytes than a v5 header.
    TruncatedHeader,
    /// Header version field is not 5.
    WrongVersion,
    /// The header `count` claims more records than the payload carries —
    /// trusting it would over-read the buffer.
    TruncatedFrame,
    /// Payload longer than `count` records — trailing bytes of unknown
    /// provenance make the whole frame suspect.
    OversizedFrame,
}

/// Counted quarantine for the lossy decode path
/// ([`decode_frame`](crate::netflow::decode_frame)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuarantineStats {
    /// Frames offered to the decoder.
    pub frames_offered: u64,
    /// Frames that decoded cleanly.
    pub frames_accepted: u64,
    /// Frames shorter than one header.
    pub truncated_header: u64,
    /// Frames with a non-v5 version field.
    pub wrong_version: u64,
    /// Frames whose `count` field exceeds the payload.
    pub truncated_frame: u64,
    /// Frames with payload beyond `count` records.
    pub oversized_frame: u64,
    /// Records carried by accepted frames.
    pub records_offered: u64,
    /// Records that passed the counter-plausibility check.
    pub records_accepted: u64,
    /// Records rejected for implausible counters (zeroed or overflowed
    /// byte/packet fields — the wire signature of garbled exports).
    pub implausible_records: u64,
}

impl QuarantineStats {
    /// Total quarantined frames across all classes.
    pub fn frames_rejected(&self) -> u64 {
        self.truncated_header + self.wrong_version + self.truncated_frame + self.oversized_frame
    }

    /// The conservation invariant: every offered frame is accepted or in
    /// exactly one quarantine class, and every record of an accepted frame
    /// is decoded or counted implausible.
    pub fn is_conserved(&self) -> bool {
        self.frames_offered == self.frames_accepted + self.frames_rejected()
            && self.records_offered == self.records_accepted + self.implausible_records
    }

    /// Records one quarantined frame.
    pub fn quarantine_frame(&mut self, class: QuarantineClass) {
        match class {
            QuarantineClass::TruncatedHeader => self.truncated_header += 1,
            QuarantineClass::WrongVersion => self.wrong_version += 1,
            QuarantineClass::TruncatedFrame => self.truncated_frame += 1,
            QuarantineClass::OversizedFrame => self.oversized_frame += 1,
        }
    }

    /// Sums another quarantine into this one (exact integer sums, so the
    /// merge is order-independent).
    pub fn merge(&mut self, other: &QuarantineStats) {
        self.frames_offered += other.frames_offered;
        self.frames_accepted += other.frames_accepted;
        self.truncated_header += other.truncated_header;
        self.wrong_version += other.wrong_version;
        self.truncated_frame += other.truncated_frame;
        self.oversized_frame += other.oversized_frame;
        self.records_offered += other.records_offered;
        self.records_accepted += other.records_accepted;
        self.implausible_records += other.implausible_records;
    }
}

/// Per-exporter export-sequence accounting.
///
/// NetFlow v5 `flow_sequence` is cumulative per exporter: the expected
/// sequence of the next frame is the last frame's sequence plus its record
/// count. A positive gap means the collector never saw those flows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExporterSeq {
    /// Frames seen from this exporter.
    pub frames: u64,
    /// Records carried by those frames.
    pub records: u64,
    /// Flows lost to export-sequence gaps (the satellite lost-flow
    /// estimate).
    pub lost_flows: u64,
    /// Frames that arrived out of sequence order (reordered exports; not
    /// counted as loss).
    pub out_of_order: u64,
    /// Exact retransmits of the previous frame (same sequence and count);
    /// their records are dropped by the collector dedup policy.
    pub duplicate_frames: u64,
    /// Lowest advertised sampling interval seen.
    pub sampling_lo: u16,
    /// Highest advertised sampling interval seen — `lo != hi` is the
    /// sampling-rate-drift signature.
    pub sampling_hi: u16,
    next_seq: Option<u32>,
    last: Option<(u32, u16)>,
}

impl ExporterSeq {
    /// Snapshots this exporter's tracking, including the private sequence
    /// expectation — everything [`ExporterSeqStats::observe`] consults, so
    /// a restored tracker continues bit-identically.
    pub fn export_state(&self) -> ExporterSeqState {
        ExporterSeqState {
            frames: self.frames,
            records: self.records,
            lost_flows: self.lost_flows,
            out_of_order: self.out_of_order,
            duplicate_frames: self.duplicate_frames,
            sampling_lo: self.sampling_lo,
            sampling_hi: self.sampling_hi,
            next_seq: self.next_seq,
            last: self.last,
        }
    }

    /// Rebuilds an exporter tracker from a snapshot.
    pub fn from_state(s: ExporterSeqState) -> ExporterSeq {
        ExporterSeq {
            frames: s.frames,
            records: s.records,
            lost_flows: s.lost_flows,
            out_of_order: s.out_of_order,
            duplicate_frames: s.duplicate_frames,
            sampling_lo: s.sampling_lo,
            sampling_hi: s.sampling_hi,
            next_seq: s.next_seq,
            last: s.last,
        }
    }
}

/// Serializable snapshot of one exporter's [`ExporterSeq`] tracking. All
/// fields are public — including the sequence expectation that
/// [`ExporterSeq`] keeps private — so the serve layer's checkpoint codec
/// can persist and restore live collectors without losing dedup or
/// gap-detection context.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExporterSeqState {
    /// Frames seen from this exporter.
    pub frames: u64,
    /// Records carried by those frames.
    pub records: u64,
    /// Flows lost to export-sequence gaps.
    pub lost_flows: u64,
    /// Frames that arrived out of sequence order.
    pub out_of_order: u64,
    /// Exact retransmits of the previous frame.
    pub duplicate_frames: u64,
    /// Lowest advertised sampling interval seen.
    pub sampling_lo: u16,
    /// Highest advertised sampling interval seen.
    pub sampling_hi: u16,
    /// The next expected cumulative flow sequence, `None` before the
    /// first frame.
    pub next_seq: Option<u32>,
    /// The previous frame's `(flow_sequence, count)` — the retransmit
    /// dedup key.
    pub last: Option<(u32, u16)>,
}

/// Sequence tracking across all exporters, keyed by `engine_id`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExporterSeqStats {
    exporters: BTreeMap<u8, ExporterSeq>,
}

/// Sequence jumps at least this large are treated as reordering/restart
/// rather than loss (a genuine gap of 2^31 flows is not a credible
/// collector event).
const SEQ_REORDER_HORIZON: u32 = 1 << 31;

impl ExporterSeqStats {
    /// Folds one accepted frame header into the per-exporter tracking.
    ///
    /// Returns `false` when the frame is an exact retransmit of the
    /// previous frame from this exporter (same sequence and count) — the
    /// collector dedup policy: the caller should discard its records
    /// rather than double-count traffic.
    pub fn observe(&mut self, exporter: u8, flow_sequence: u32, count: u16, sampling: u16) -> bool {
        let e = self.exporters.entry(exporter).or_default();
        e.frames += 1;
        if e.frames == 1 {
            e.sampling_lo = sampling;
            e.sampling_hi = sampling;
        } else {
            e.sampling_lo = e.sampling_lo.min(sampling);
            e.sampling_hi = e.sampling_hi.max(sampling);
        }
        if e.last == Some((flow_sequence, count)) {
            e.duplicate_frames += 1;
            return false;
        }
        e.last = Some((flow_sequence, count));
        e.records += u64::from(count);
        match e.next_seq {
            None => e.next_seq = Some(flow_sequence.wrapping_add(u32::from(count))),
            Some(expected) => {
                let gap = flow_sequence.wrapping_sub(expected);
                if gap == 0 {
                    e.next_seq = Some(flow_sequence.wrapping_add(u32::from(count)));
                } else if gap < SEQ_REORDER_HORIZON {
                    e.lost_flows += u64::from(gap);
                    e.next_seq = Some(flow_sequence.wrapping_add(u32::from(count)));
                } else {
                    // Behind the expected sequence: a reordered frame.
                    // Keep the high-water expectation.
                    e.out_of_order += 1;
                }
            }
        }
        true
    }

    /// Per-exporter accounting, in exporter-id order.
    pub fn per_exporter(&self) -> impl Iterator<Item = (u8, &ExporterSeq)> {
        self.exporters.iter().map(|(k, v)| (*k, v))
    }

    /// Total flows lost to sequence gaps across all exporters.
    pub fn lost_flows_total(&self) -> u64 {
        self.exporters.values().map(|e| e.lost_flows).sum()
    }

    /// Snapshots every exporter's tracking, in ascending exporter-id
    /// order (the `BTreeMap` order — canonical by construction).
    pub fn export_state(&self) -> Vec<(u8, ExporterSeqState)> {
        self.exporters.iter().map(|(id, e)| (*id, e.export_state())).collect()
    }

    /// Rebuilds the full tracker set from a snapshot. Duplicate exporter
    /// ids keep the last entry (snapshots produced by
    /// [`Self::export_state`] never contain duplicates).
    pub fn from_state(entries: &[(u8, ExporterSeqState)]) -> ExporterSeqStats {
        ExporterSeqStats {
            exporters: entries.iter().map(|(id, s)| (*id, ExporterSeq::from_state(*s))).collect(),
        }
    }
}

/// Repair status of one analysis bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinStatus {
    /// The bin received records; its cells are measured data.
    Ok,
    /// The bin was empty (collector outage) but short enough to repair:
    /// its cells are per-OD linear interpolations of the neighboring
    /// measured bins.
    Imputed,
    /// The bin was empty and unrepairable (gap too long, or at a window
    /// edge); its cells are zeros and no detector verdict should be
    /// issued on it.
    Masked,
}

/// Policy knobs for [`crate::IngestOutcome::repair`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairPolicy {
    /// Longest run of consecutive empty bins repaired by interpolation;
    /// longer runs (and edge runs, which lack a neighbor) are masked.
    pub max_interp_gap: usize,
}

impl Default for RepairPolicy {
    /// Interpolate outages of up to two bins (10 minutes of the paper's
    /// 5-minute bins); mask anything longer.
    fn default() -> Self {
        RepairPolicy { max_interp_gap: 2 }
    }
}

/// The data-quality report accompanying an ingest outcome.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataQuality {
    /// Frame/record quarantine accounting (wire path only; zero for the
    /// fused generate→bin path, which never serializes).
    pub quarantine: QuarantineStats,
    /// Per-exporter sequence-gap accounting (wire path only).
    pub exporters: ExporterSeqStats,
    /// Records accepted per analysis bin (summed over OD pairs).
    pub bin_records: Vec<u64>,
    /// Per-bin repair status; all `Ok` until
    /// [`crate::IngestOutcome::repair`] runs.
    pub bins: Vec<BinStatus>,
}

impl DataQuality {
    /// A clean report over `num_bins` bins (no quarantine, no gaps).
    pub fn clean(num_bins: usize) -> DataQuality {
        DataQuality {
            quarantine: QuarantineStats::default(),
            exporters: ExporterSeqStats::default(),
            bin_records: vec![0; num_bins],
            bins: vec![BinStatus::Ok; num_bins],
        }
    }

    /// Admits one export frame exactly as it came off the wire — the one
    /// step every wire-path ingest (batch, fault storm, daemon) shares:
    /// lossy decode into the quarantine counters, then per-exporter
    /// sequence tracking.
    ///
    /// `None` means the frame was quarantined. Otherwise the header comes
    /// back with the frame's plausible records — borrowed from `frame` and
    /// decoded as the caller iterates — or with `None` in their place when
    /// the frame is an exact retransmit the collector dedup policy
    /// discards. Either way the quarantine counters are final on return.
    pub fn admit_frame<'a>(
        &mut self,
        frame: &'a [u8],
    ) -> Option<(DatagramHeader, Option<FrameRecords<'a>>)> {
        let (hdr, records) = decode_frame(frame, &mut self.quarantine)?;
        let fresh = self.exporters.observe(
            hdr.engine_id,
            hdr.flow_sequence,
            hdr.count,
            hdr.sampling_interval,
        );
        Some((hdr, fresh.then_some(records)))
    }

    /// Indices of masked bins, ascending.
    pub fn masked_bins(&self) -> Vec<usize> {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == BinStatus::Masked)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of imputed bins, ascending.
    #[cfg(test)]
    pub(crate) fn imputed_bins(&self) -> Vec<usize> {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == BinStatus::Imputed)
            .map(|(i, _)| i)
            .collect()
    }

    /// Fraction of bins whose cells are interpolated rather than measured.
    pub fn imputed_fraction(&self) -> f64 {
        if self.bins.is_empty() {
            return 0.0;
        }
        self.bins.iter().filter(|s| **s == BinStatus::Imputed).count() as f64
            / self.bins.len() as f64
    }

    /// `true` when every bin is measured and nothing was quarantined or
    /// lost.
    #[cfg(test)]
    pub(crate) fn is_pristine(&self) -> bool {
        self.quarantine.frames_rejected() == 0
            && self.quarantine.implausible_records == 0
            && self.exporters.lost_flows_total() == 0
            && self.bins.iter().all(|s| *s == BinStatus::Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantine_conservation_and_merge() {
        let mut q = QuarantineStats::default();
        assert!(q.is_conserved());
        q.frames_offered = 10;
        q.frames_accepted = 7;
        q.quarantine_frame(QuarantineClass::TruncatedHeader);
        q.quarantine_frame(QuarantineClass::TruncatedFrame);
        q.quarantine_frame(QuarantineClass::WrongVersion);
        q.records_offered = 21;
        q.records_accepted = 20;
        q.implausible_records = 1;
        assert!(q.is_conserved());
        assert_eq!(q.frames_rejected(), 3);

        let mut sum = QuarantineStats::default();
        sum.merge(&q);
        sum.merge(&q);
        assert_eq!(sum.frames_offered, 20);
        assert_eq!(sum.frames_rejected(), 6);
        assert!(sum.is_conserved());
    }

    #[test]
    fn sequence_gap_becomes_lost_flow_estimate() {
        let mut s = ExporterSeqStats::default();
        assert!(s.observe(3, 0, 30, 100));
        assert!(s.observe(3, 30, 30, 100));
        // A dropped frame of 30 records: next expected 60, observed 90.
        assert!(s.observe(3, 90, 10, 100));
        assert_eq!(s.lost_flows_total(), 30);
        let (id, e) = s.per_exporter().next().expect("one exporter");
        assert_eq!(id, 3);
        assert_eq!(e.frames, 3);
        assert_eq!(e.records, 70);
        assert_eq!(e.out_of_order, 0);
    }

    #[test]
    fn duplicate_frame_is_deduplicated() {
        let mut s = ExporterSeqStats::default();
        assert!(s.observe(1, 100, 30, 100));
        // An exact retransmit: same sequence and count as the last frame.
        assert!(!s.observe(1, 100, 30, 100));
        assert_eq!(s.lost_flows_total(), 0);
        let (_, e) = s.per_exporter().next().expect("one exporter");
        assert_eq!(e.duplicate_frames, 1);
        assert_eq!(e.out_of_order, 0);
        assert_eq!(e.records, 30, "retransmitted records counted once");
    }

    #[test]
    fn reordered_frame_not_counted_as_loss() {
        let mut s = ExporterSeqStats::default();
        assert!(s.observe(1, 100, 30, 100));
        // A late frame from before the expected sequence (not an exact
        // retransmit): out of order, but its records still ingest.
        assert!(s.observe(1, 40, 20, 100));
        assert_eq!(s.lost_flows_total(), 0);
        let (_, e) = s.per_exporter().next().expect("one exporter");
        assert_eq!(e.out_of_order, 1);
        assert_eq!(e.duplicate_frames, 0);
        assert_eq!(e.records, 50);
    }

    #[test]
    fn sequence_wraps_at_u32_boundary() {
        let mut s = ExporterSeqStats::default();
        assert!(s.observe(0, u32::MAX - 9, 30, 100));
        // Expected next: (MAX - 9) + 30 wraps to 20; seen exactly there.
        assert!(s.observe(0, 20, 5, 100));
        assert_eq!(s.lost_flows_total(), 0);
    }

    #[test]
    fn sampling_drift_surfaces_per_exporter() {
        let mut s = ExporterSeqStats::default();
        s.observe(2, 0, 10, 100);
        s.observe(2, 10, 10, 100);
        let (_, e) = s.per_exporter().next().expect("one exporter");
        assert_eq!((e.sampling_lo, e.sampling_hi), (100, 100));
        s.observe(2, 20, 10, 400);
        let (_, e) = s.per_exporter().next().expect("one exporter");
        assert_eq!((e.sampling_lo, e.sampling_hi), (100, 400));
    }

    #[test]
    fn exporter_state_roundtrip_preserves_dedup_and_gap_context() {
        let mut live = ExporterSeqStats::default();
        live.observe(3, 0, 30, 100);
        live.observe(7, 500, 10, 400);
        let snap = live.export_state();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, 3, "snapshot is in ascending exporter order");

        let mut restored = ExporterSeqStats::from_state(&snap);
        assert_eq!(restored, live);
        // Continue both with a retransmit and a gap: the restored tracker
        // must dedup and estimate identically (private state survived).
        for s in [&mut live, &mut restored] {
            assert!(!s.observe(3, 0, 30, 100), "retransmit deduped");
            assert!(s.observe(3, 60, 5, 100), "gap of 30 accepted");
            assert!(s.observe(7, 510, 5, 100));
        }
        assert_eq!(restored, live);
        assert_eq!(live.lost_flows_total(), 30);
        let (_, e7) = live.per_exporter().find(|(id, _)| *id == 7).expect("exporter 7");
        assert_eq!((e7.sampling_lo, e7.sampling_hi), (100, 400), "its drift survived");
    }

    #[test]
    fn quality_report_fractions() {
        let mut dq = DataQuality::clean(4);
        assert!(dq.is_pristine());
        assert_eq!(dq.imputed_fraction(), 0.0);
        dq.bins[1] = BinStatus::Imputed;
        dq.bins[3] = BinStatus::Masked;
        assert!(!dq.is_pristine());
        assert_eq!(dq.imputed_bins(), vec![1]);
        assert_eq!(dq.masked_bins(), vec![3]);
        assert_eq!(dq.imputed_fraction(), 0.25);
    }

    #[test]
    fn empty_quality_report() {
        let dq = DataQuality::default();
        assert_eq!(dq.imputed_fraction(), 0.0);
        assert!(dq.masked_bins().is_empty());
    }
}
