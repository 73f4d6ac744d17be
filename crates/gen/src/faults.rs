//! Measurement fault injection.
//!
//! Real collection infrastructure loses, duplicates, and delays export
//! records. [`FaultSchedule`] is the wire-level engine that reproduces it:
//! a **timed, seeded schedule** of [`FaultEvent`]s applied to a scenario's
//! serialized NetFlow v5 frame stream. Every decision draws from an
//! addressable ChaCha stream keyed by `(seed, bin, event index)`, so a
//! fault storm is exactly reproducible — the controlled counterpart of the
//! collection noise the paper's production data certainly contained but
//! could not control. The hardened `odflow_flow` ingest path (quarantine,
//! sequence-gap accounting, bin repair) is what turns these storms into a
//! [`DataQuality`](odflow_flow::DataQuality) report instead of a corrupted
//! matrix.
//!
//! Frame-layout offsets used by the mutators match
//! [`odflow_flow::netflow`]: 24-byte header (`version` at 0, `count` at
//! 2, `flow_sequence` at 16, `engine_id` at 21, `sampling_interval` at
//! 22), 48-byte records (`dOctets` at record offset 20, `first`
//! timestamp at 24).

use crate::error::{GenError, Result};
use crate::rng::{cell_rng, Stream};
use rand::Rng;

/// Byte offset of the v5 header `version` field.
const OFF_VERSION: usize = 0;
/// Byte offset of the v5 header `engine_id` field.
const OFF_ENGINE_ID: usize = 21;
/// Byte offset of the v5 header `sampling_interval` field.
const OFF_SAMPLING: usize = 22;
/// Length of the v5 header.
const HDR: usize = odflow_flow::netflow::HEADER_LEN;
/// Length of one wire record.
const REC: usize = odflow_flow::netflow::RECORD_LEN;
/// `dOctets` offset within a record.
const REC_OFF_OCTETS: usize = 20;
/// `first` (start-timestamp, ms) offset within a record.
const REC_OFF_FIRST: usize = 24;

/// One fault class a [`FaultEvent`] can inject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Each frame's header is garbled (version/count bytes flipped) with
    /// this probability — the frame lands in a decode quarantine class.
    FrameCorruption {
        /// Per-frame corruption probability in `[0, 1]`.
        prob: f64,
    },
    /// Each frame is cut short at a random byte with this probability —
    /// quarantined as a truncated header or truncated frame.
    FrameTruncation {
        /// Per-frame truncation probability in `[0, 1]`.
        prob: f64,
    },
    /// Each frame is retransmitted (emitted twice, back to back) with
    /// this probability — the collector dedup policy drops the copy.
    FrameDuplication {
        /// Per-frame duplication probability in `[0, 1]`.
        prob: f64,
    },
    /// The bin's frame stream is reversed — late exports arriving first,
    /// surfacing as out-of-order frames and inflated loss estimates.
    FrameReordering,
    /// Each frame is silently dropped in transit with this probability —
    /// the export-sequence gap at the next frame estimates the loss.
    ExportLoss {
        /// Per-frame drop probability in `[0, 1]`.
        prob: f64,
    },
    /// Every frame of one exporter (or of all exporters, `None` — a
    /// collector blackout) is dropped for the event's duration; blackout
    /// bins come back empty and are repaired or masked downstream.
    ExporterOutage {
        /// The `engine_id` to silence, or `None` for all exporters.
        exporter: Option<u8>,
    },
    /// The advertised sampling interval of every frame is rewritten —
    /// per-exporter `sampling_lo != sampling_hi` drift in the quality
    /// report.
    SamplingDrift {
        /// The drifted sampling interval written into headers.
        interval: u16,
    },
    /// Each record's `dOctets` counter gains 2³¹ with this probability —
    /// the classic wrapped-counter artifact, caught by the decoder's
    /// plausibility check.
    CounterOverflow {
        /// Per-record overflow probability in `[0, 1]`.
        prob: f64,
    },
    /// Every record's `first` timestamp shifts forward by this many
    /// seconds — a skewed exporter clock; far-skewed records fall out of
    /// the observation window and are counted as drops.
    ClockSkew {
        /// Forward skew in seconds.
        secs: u32,
    },
}

impl FaultKind {
    fn prob(&self) -> Option<f64> {
        match *self {
            FaultKind::FrameCorruption { prob }
            | FaultKind::FrameTruncation { prob }
            | FaultKind::FrameDuplication { prob }
            | FaultKind::ExportLoss { prob }
            | FaultKind::CounterOverflow { prob } => Some(prob),
            _ => None,
        }
    }
}

/// One timed fault: a [`FaultKind`] active over a contiguous bin range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// The fault class.
    pub kind: FaultKind,
    /// First affected bin.
    pub start_bin: usize,
    /// Number of affected bins (must be nonzero).
    pub duration_bins: usize,
}

impl FaultEvent {
    /// Whether this event is active in `bin`.
    pub fn active_in(&self, bin: usize) -> bool {
        bin >= self.start_bin && bin < self.start_bin + self.duration_bins
    }
}

/// Integer accounting of every mutation a [`FaultSchedule`] applied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStormStats {
    /// Frames offered to the schedule.
    pub frames_offered: u64,
    /// Frames dropped by exporter outages / blackouts.
    pub frames_dropped_outage: u64,
    /// Frames dropped by export loss.
    pub frames_dropped_loss: u64,
    /// Extra frame copies emitted by duplication.
    pub frames_duplicated: u64,
    /// Frames with garbled headers.
    pub frames_corrupted: u64,
    /// Frames cut short.
    pub frames_truncated: u64,
    /// Frames with a rewritten sampling interval.
    pub frames_drifted: u64,
    /// Frames whose record timestamps were skewed.
    pub frames_skewed: u64,
    /// Records whose `dOctets` counter overflowed.
    pub records_overflowed: u64,
    /// Bins whose frame stream was reordered.
    pub bins_reordered: u64,
}

/// A seeded, deterministic wire-fault schedule.
///
/// Apply with [`Self::apply_to_frames`] per bin, in bin order. All
/// randomness is addressable by `(seed, bin, event index)` via
/// [`Stream::Fault`], so the same schedule over the same frame stream
/// yields bit-identical output on every run and thread count — the fault
/// storm is part of the experiment, not noise on top of it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Builds a schedule, validating every event.
    ///
    /// # Errors
    ///
    /// [`GenError::InvalidParameter`] for probabilities outside `[0, 1]`,
    /// [`GenError::InvalidSchedule`] for zero-duration events.
    pub fn new(seed: u64, events: Vec<FaultEvent>) -> Result<FaultSchedule> {
        for (i, e) in events.iter().enumerate() {
            if e.duration_bins == 0 {
                return Err(GenError::InvalidSchedule {
                    reason: format!("fault event {i} has zero duration"),
                });
            }
            if let Some(p) = e.kind.prob() {
                if !(0.0..=1.0).contains(&p) {
                    return Err(GenError::InvalidParameter { what: "fault probability", value: p });
                }
            }
        }
        Ok(FaultSchedule { seed, events })
    }

    /// The schedule's events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether `bin` falls inside a full collector blackout
    /// (`ExporterOutage { exporter: None }`).
    pub fn is_blackout(&self, bin: usize) -> bool {
        self.events
            .iter()
            .any(|e| e.active_in(bin) && e.kind == FaultKind::ExporterOutage { exporter: None })
    }

    /// A canonical mixed storm covering every fault class, scaled to a
    /// window of `num_bins` bins: loss, corruption, truncation,
    /// duplication, reordering, sampling drift, counter overflow, a
    /// one-bin blackout (repairable by interpolation), a four-bin
    /// blackout (masked), and a far clock skew.
    ///
    /// # Errors
    ///
    /// [`GenError::EmptyScenario`] when the window is shorter than 20
    /// bins (the events would pile onto the same bins).
    pub fn storm(seed: u64, num_bins: usize) -> Result<FaultSchedule> {
        if num_bins < 20 {
            return Err(GenError::EmptyScenario);
        }
        let at = |frac: f64| ((num_bins as f64 * frac) as usize).min(num_bins - 1);
        let span = (num_bins / 48).clamp(2, 6);
        let ev = |kind, start_bin, duration_bins| FaultEvent { kind, start_bin, duration_bins };
        FaultSchedule::new(
            seed,
            vec![
                ev(FaultKind::ExportLoss { prob: 0.05 }, at(0.08), span),
                ev(FaultKind::FrameCorruption { prob: 0.04 }, at(0.18), span),
                ev(FaultKind::FrameTruncation { prob: 0.03 }, at(0.27), span),
                ev(FaultKind::FrameDuplication { prob: 0.06 }, at(0.36), span),
                ev(FaultKind::FrameReordering, at(0.45), 1),
                ev(FaultKind::SamplingDrift { interval: 400 }, at(0.52), span),
                ev(FaultKind::CounterOverflow { prob: 0.02 }, at(0.61), span),
                ev(FaultKind::ExporterOutage { exporter: None }, at(0.72), 1),
                ev(FaultKind::ExporterOutage { exporter: None }, at(0.82), 4),
                ev(FaultKind::ClockSkew { secs: 30 * 24 * 3600 }, at(0.93), 1),
            ],
        )
    }

    /// Applies every event active in `bin` to the bin's frame stream, in
    /// schedule order, accounting each mutation in `stats`. Deterministic
    /// in `(seed, bin)` — each event draws from its own
    /// [`Stream::Fault`] RNG, so adding or removing one event never
    /// perturbs another's decisions.
    pub fn apply_to_frames(
        &self,
        bin: usize,
        mut frames: Vec<Vec<u8>>,
        stats: &mut FaultStormStats,
    ) -> Vec<Vec<u8>> {
        stats.frames_offered += frames.len() as u64;
        for (idx, event) in self.events.iter().enumerate() {
            if !event.active_in(bin) {
                continue;
            }
            let mut rng = cell_rng(self.seed, bin as u64, idx as u64, Stream::Fault(idx as u64));
            match event.kind {
                FaultKind::ExporterOutage { exporter } => {
                    let before = frames.len();
                    match exporter {
                        None => frames.clear(),
                        Some(id) => {
                            frames.retain(|f| f.get(OFF_ENGINE_ID) != Some(&id));
                        }
                    }
                    stats.frames_dropped_outage += (before - frames.len()) as u64;
                }
                FaultKind::ExportLoss { prob } => {
                    let before = frames.len();
                    frames.retain(|_| rng.gen::<f64>() >= prob);
                    stats.frames_dropped_loss += (before - frames.len()) as u64;
                }
                FaultKind::FrameDuplication { prob } => {
                    let mut out = Vec::with_capacity(frames.len());
                    for f in frames {
                        if rng.gen::<f64>() < prob {
                            stats.frames_duplicated += 1;
                            let retransmit = f.clone();
                            out.push(f);
                            out.push(retransmit);
                        } else {
                            out.push(f);
                        }
                    }
                    frames = out;
                }
                FaultKind::FrameReordering => {
                    frames.reverse();
                    stats.bins_reordered += 1;
                }
                FaultKind::FrameCorruption { prob } => {
                    for f in &mut frames {
                        if f.is_empty() || rng.gen::<f64>() >= prob {
                            continue;
                        }
                        // Garble the version/count region: a nonzero XOR
                        // mask guarantees the decoder quarantines the
                        // frame (wrong version or count mismatch).
                        let pos = OFF_VERSION + rng.gen_range(0..4.min(f.len()));
                        let mask = rng.gen_range(1..=u8::MAX);
                        f[pos] ^= mask;
                        stats.frames_corrupted += 1;
                    }
                }
                FaultKind::FrameTruncation { prob } => {
                    for f in &mut frames {
                        if f.len() < 2 || rng.gen::<f64>() >= prob {
                            continue;
                        }
                        let keep = rng.gen_range(1..f.len());
                        f.truncate(keep);
                        stats.frames_truncated += 1;
                    }
                }
                FaultKind::SamplingDrift { interval } => {
                    for f in &mut frames {
                        if f.len() >= HDR {
                            f[OFF_SAMPLING..OFF_SAMPLING + 2]
                                .copy_from_slice(&interval.to_be_bytes());
                            stats.frames_drifted += 1;
                        }
                    }
                }
                FaultKind::CounterOverflow { prob } => {
                    for f in &mut frames {
                        for r in 0..(f.len().saturating_sub(HDR)) / REC {
                            if rng.gen::<f64>() >= prob {
                                continue;
                            }
                            let off = HDR + r * REC + REC_OFF_OCTETS;
                            bump_be_u32(f, off, 1 << 31);
                            stats.records_overflowed += 1;
                        }
                    }
                }
                FaultKind::ClockSkew { secs } => {
                    for f in &mut frames {
                        let records = (f.len().saturating_sub(HDR)) / REC;
                        for r in 0..records {
                            let off = HDR + r * REC + REC_OFF_FIRST;
                            bump_be_u32(f, off, secs.wrapping_mul(1000));
                        }
                        if records > 0 {
                            stats.frames_skewed += 1;
                        }
                    }
                }
            }
        }
        frames
    }
}

/// Adds `delta` (wrapping) to the big-endian `u32` at `off`, if in bounds.
fn bump_be_u32(f: &mut [u8], off: usize, delta: u32) {
    if let Some(bytes) = f.get_mut(off..off + 4) {
        let v = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        bytes.copy_from_slice(&v.wrapping_add(delta).to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odflow_flow::netflow::{decode_datagram_lossy, encode_datagrams};
    use odflow_flow::{FlowKey, FlowRecord, Protocol, QuarantineStats};
    use odflow_net::IpAddr;

    /// Encodes `n` plausible records from exporter `pop` into wire frames.
    fn frames(pop: u8, n: usize, seq: u32) -> Vec<Vec<u8>> {
        let recs: Vec<FlowRecord> = (0..n)
            .map(|i| FlowRecord {
                key: FlowKey::new(
                    IpAddr::from_octets(10, 0, 0, 1),
                    IpAddr::from_octets(10, 16, 0, 1),
                    1000 + i as u16,
                    80,
                    Protocol::Tcp,
                ),
                router: pop as usize,
                interface: 0,
                window_start: 0,
                packets: 2,
                bytes: 1400,
            })
            .collect();
        encode_datagrams(&recs, 0, pop, 100, seq)
    }

    fn one_event(kind: FaultKind) -> FaultSchedule {
        FaultSchedule::new(7, vec![FaultEvent { kind, start_bin: 0, duration_bins: 4 }]).unwrap()
    }

    #[test]
    fn schedule_validates_events() {
        let bad_prob = FaultEvent {
            kind: FaultKind::ExportLoss { prob: 1.5 },
            start_bin: 0,
            duration_bins: 1,
        };
        assert!(FaultSchedule::new(1, vec![bad_prob]).is_err());
        let zero_dur =
            FaultEvent { kind: FaultKind::FrameReordering, start_bin: 0, duration_bins: 0 };
        assert!(FaultSchedule::new(1, vec![zero_dur]).is_err());
        assert!(FaultSchedule::new(1, vec![]).is_ok());
    }

    #[test]
    fn schedule_is_deterministic() {
        let s = FaultSchedule::storm(42, 288).unwrap();
        let mut st1 = FaultStormStats::default();
        let mut st2 = FaultStormStats::default();
        for bin in 0..288 {
            let a = s.apply_to_frames(bin, frames(3, 90, 0), &mut st1);
            let b = s.apply_to_frames(bin, frames(3, 90, 0), &mut st2);
            assert_eq!(a, b, "bin {bin}");
        }
        assert_eq!(st1, st2);
        assert!(st1.frames_dropped_outage > 0, "storm includes blackouts");
    }

    #[test]
    fn blackout_clears_and_outage_filters_by_exporter() {
        let blackout = one_event(FaultKind::ExporterOutage { exporter: None });
        let mut st = FaultStormStats::default();
        assert!(blackout.apply_to_frames(1, frames(3, 60, 0), &mut st).is_empty());
        assert_eq!(st.frames_dropped_outage, 2);
        assert!(blackout.is_blackout(1));
        assert!(!blackout.is_blackout(4));

        let single = one_event(FaultKind::ExporterOutage { exporter: Some(3) });
        let mut mixed = frames(3, 30, 0);
        mixed.extend(frames(5, 30, 0));
        let mut st = FaultStormStats::default();
        let out = single.apply_to_frames(0, mixed, &mut st);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][OFF_ENGINE_ID], 5);
        assert!(!single.is_blackout(0), "a one-exporter outage is not a blackout");
    }

    #[test]
    fn corruption_and_truncation_always_quarantine() {
        for kind in
            [FaultKind::FrameCorruption { prob: 1.0 }, FaultKind::FrameTruncation { prob: 1.0 }]
        {
            let s = one_event(kind);
            let mut st = FaultStormStats::default();
            let out = s.apply_to_frames(0, frames(2, 90, 0), &mut st);
            assert_eq!(out.len(), 3);
            let mut q = QuarantineStats::default();
            for f in &out {
                assert!(decode_datagram_lossy(f, &mut q).is_none(), "{kind:?} must quarantine");
            }
            assert!(q.is_conserved());
            assert_eq!(q.frames_rejected(), 3);
        }
    }

    #[test]
    fn counter_overflow_makes_records_implausible() {
        let s = one_event(FaultKind::CounterOverflow { prob: 1.0 });
        let mut st = FaultStormStats::default();
        let out = s.apply_to_frames(0, frames(1, 30, 0), &mut st);
        assert_eq!(st.records_overflowed, 30);
        let mut q = QuarantineStats::default();
        let (_, recs) = decode_datagram_lossy(&out[0], &mut q).expect("frame intact");
        assert!(recs.is_empty(), "all records implausible");
        assert_eq!(q.implausible_records, 30);
        assert!(q.is_conserved());
    }

    #[test]
    fn clock_skew_shifts_record_windows() {
        let s = one_event(FaultKind::ClockSkew { secs: 3600 });
        let mut st = FaultStormStats::default();
        let out = s.apply_to_frames(0, frames(1, 5, 0), &mut st);
        assert_eq!(st.frames_skewed, 1);
        let mut q = QuarantineStats::default();
        let (_, recs) = decode_datagram_lossy(&out[0], &mut q).expect("frame intact");
        assert!(recs.iter().all(|r| r.window_start == 3600));
    }

    #[test]
    fn drift_rewrites_sampling_interval() {
        let s = one_event(FaultKind::SamplingDrift { interval: 400 });
        let mut st = FaultStormStats::default();
        let out = s.apply_to_frames(2, frames(1, 5, 0), &mut st);
        let mut q = QuarantineStats::default();
        let (hdr, _) = decode_datagram_lossy(&out[0], &mut q).expect("frame intact");
        assert_eq!(hdr.sampling_interval, 400);
        assert_eq!(st.frames_drifted, 1);
    }

    #[test]
    fn duplication_emits_exact_retransmits() {
        let s = one_event(FaultKind::FrameDuplication { prob: 1.0 });
        let mut st = FaultStormStats::default();
        let out = s.apply_to_frames(0, frames(4, 60, 0), &mut st);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], out[1]);
        assert_eq!(out[2], out[3]);
        assert_eq!(st.frames_duplicated, 2);
    }

    #[test]
    fn loss_and_reordering_account() {
        let s = one_event(FaultKind::ExportLoss { prob: 1.0 });
        let mut st = FaultStormStats::default();
        assert!(s.apply_to_frames(0, frames(2, 90, 0), &mut st).is_empty());
        assert_eq!(st.frames_dropped_loss, 3);
        assert_eq!(st.frames_offered, 3);

        let r = one_event(FaultKind::FrameReordering);
        let input = frames(2, 90, 0);
        let mut st = FaultStormStats::default();
        let out = r.apply_to_frames(0, input.clone(), &mut st);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], input[2]);
        assert_eq!(st.bins_reordered, 1);
    }

    #[test]
    fn inactive_bins_pass_through_untouched() {
        let s = one_event(FaultKind::FrameCorruption { prob: 1.0 });
        let input = frames(2, 90, 0);
        let mut st = FaultStormStats::default();
        let out = s.apply_to_frames(100, input.clone(), &mut st);
        assert_eq!(out, input);
        assert_eq!(st.frames_corrupted, 0);
        assert_eq!(st.frames_offered, 3);
    }

    #[test]
    fn storm_rejects_tiny_windows() {
        assert!(FaultSchedule::storm(1, 10).is_err());
        let s = FaultSchedule::storm(1, 288).unwrap();
        assert_eq!(s.events().len(), 10);
        assert!(s.events().iter().all(|e| e.start_bin + e.duration_bins <= 288));
    }
}
