//! Crash-safe tenant checkpointing — a chain of delta generations per
//! slot — and the deterministic kill-point chaos harness.
//!
//! ## Record
//!
//! ```text
//! [magic 8B][version u32][payload_len u64][fnv1a64(payload) u64][payload]
//! ```
//!
//! All integers little-endian fixed-width; every `f64` is its exact
//! [`f64::to_bits`] image, so a restored pipeline resumes *bit-identical*
//! to the uninterrupted run. A record's payload is one **generation**:
//!
//! * the head — `seq`, the frame cursor, `next_close`, the watermark with
//!   the latest in-window record time that caps it, and the resolver,
//!   out-of-window, late, quarantine and exporter-sequence counters;
//! * the window geometry and one segment per **dirty bin** (a bin whose
//!   record count moved, or that was sealed, since the previous
//!   generation): the bin's [`BinState`] — its record count, its three
//!   rows and the sorted distinct 5-tuples of its cells (none for a bin
//!   the lateness rule has sealed);
//! * the detector — absent, whole (its model and stream position, in the
//!   generation that fitted it), or, while the model stands, only the
//!   stream position. A whole model is its configuration, the
//!   `p x min(k, r)` loadings of its normal subspace, its `r` singular
//!   values, its `p` training means and its frozen thresholds: nothing in
//!   it grows with the training window's bins;
//! * the verdicts issued since the previous generation.
//!
//! A **complete** record is the same thing with every bin dirty, the
//! detector whole and every verdict present. A [`ShardState`] is its
//! window as those same [`BinState`]s, one per bin, so a complete record
//! writes the snapshot's bins where they lie and a delta's segments
//! replace bins of the state they are folded into; [`encode_state`] and
//! [`decode_state`] are the codec at that setting. Decoding is total:
//! arbitrary byte soup and bit-flipped records are rejected with a typed
//! [`CheckpointError`], never a panic, and never an allocation the bytes
//! present do not justify (every declared length is checked against
//! them first).
//!
//! ## Chain
//!
//! A slot file (`<tenant>.a.ckpt` / `<tenant>.b.ckpt`) is a complete
//! record followed by zero or more delta records with consecutive `seq`.
//! The tenant's writer appends each delta with `write_all` + `sync_data`. It
//! writes a complete record — temp file, fsync, rename, directory fsync —
//! into the *other* slot as the first generation of a session (after
//! bind, recovery or a worker restart, so a torn tail is never written
//! past) and whenever the bytes appended to the chain exceed its first
//! record's length, which bounds file size and recovery time at a small
//! multiple of the state, and total bytes written at a small multiple of
//! what the window took in — each bin's rows and 5-tuples once.
//!
//! ## Recovery
//!
//! One rule: [`CheckpointStore::load_newest`] decodes each slot's first
//! record and folds the records that follow until the first that fails
//! framing, checksum or continuity; the newest `seq` over both slots
//! wins. A torn or corrupted record therefore costs exactly the
//! generations from it onward in its own slot, and a damaged first
//! record falls back to the other slot's chain.
//!
//! ## Chaos harness
//!
//! [`CrashSchedule`] injects deterministic failures at the pipeline's
//! crash-relevant boundaries ([`CrashPoint`]): simulated process kills
//! ([`CrashKind::Kill`], which the supervisor treats as death — no flush,
//! no restart) and worker panics ([`CrashKind::Panic`], which exercise
//! the restart/quarantine path). The e2e suite uses it to pin the
//! recovery theorem: killed at any crash point and recovered, the run
//! ends byte-identical to an uninterrupted one.

use odflow_flow::{
    BinState, ExporterSeq, FlowKey, Protocol, QuarantineStats, ResolutionStats, ShardState,
    WatermarkState,
};
use odflow_linalg::Matrix;
use odflow_net::IpAddr;
use odflow_subspace::{
    DegradedReason, Detection, DetectorState, EigenflowDecomposition, ModelState, StatisticKind,
    StreamVerdict, SubspaceConfig,
};
use std::borrow::Cow;
use std::fmt;
use std::fs::File;
use std::io::Write as _;
use std::panic::panic_any;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Leading bytes of every checkpoint record.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"ODFCKPT\0";

/// Current checkpoint format version. Version 6 dropped the model's
/// truncation flag and its configuration's eigen-method tag, which every
/// fit now makes exactly (version 5 had dropped the detector's refit
/// window, version 4 the eigenflows and the unit column scales); older
/// records are refused with [`CheckpointError::BadVersion`].
pub const CHECKPOINT_VERSION: u32 = 6;

/// Bytes of header before the payload: magic + version + length + checksum.
pub const CHECKPOINT_HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Encoded bytes of one [`FlowKey`].
pub(crate) const FLOW_KEY_LEN: usize = 4 + 4 + 2 + 2 + 1;

/// Why a checkpoint could not be decoded or persisted. Every corruption
/// mode maps to exactly one class; recovery treats all of them as "this
/// generation is unusable, try the other slot".
#[derive(Debug)]
pub enum CheckpointError {
    /// Fewer bytes than the structure declared — a torn or truncated file.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The file does not start with [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// A version this build does not speak.
    BadVersion(u32),
    /// The payload checksum does not match — bit rot or a torn write.
    BadChecksum {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually present.
        got: u64,
    },
    /// Structurally well-formed bytes with semantically invalid content
    /// (bad enum tag, inconsistent shape, trailing garbage).
    Corrupt(String),
    /// Filesystem-level failure while reading or writing.
    Io(std::io::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated { needed, have } => {
                write!(f, "truncated checkpoint: needed {needed} more bytes, have {have}")
            }
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::BadChecksum { expected, got } => {
                write!(
                    f,
                    "checkpoint checksum mismatch: header {expected:#018x}, payload {got:#018x}"
                )
            }
            CheckpointError::Corrupt(reason) => write!(f, "corrupt checkpoint: {reason}"),
            CheckpointError::Io(e) => write!(f, "checkpoint io: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// FNV-1a 64-bit — the checkpoint payload checksum. Not cryptographic;
/// it detects torn writes and bit rot, which is the threat model here.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Complete snapshot of one tenant pipeline at a consistent cut (taken
/// immediately after a bin close, when the current frame is fully
/// ingested). `frames_ingested` is the recovery cursor: replaying the
/// original frame stream from that index onward reproduces the
/// uninterrupted run bit for bit.
#[derive(Debug, Clone)]
pub struct PipelineState {
    /// Monotonic checkpoint generation number.
    pub seq: u64,
    /// Frames consumed from the queue when this snapshot was taken — the
    /// replay cursor for recovery.
    pub frames_ingested: u64,
    /// Next bin the pipeline will close.
    pub next_close: u64,
    /// The export-time watermark, which says which bins are sealed.
    pub watermark: WatermarkState,
    /// The full shard accumulation state.
    pub shard: ShardState,
    /// Wire-path quarantine counters.
    pub quarantine: QuarantineStats,
    /// Per-exporter sequence tracking, ascending exporter id.
    pub exporters: Vec<(u8, ExporterSeq)>,
    /// The fitted streaming detector, `None` before training completes.
    pub detector: Option<DetectorState>,
    /// Live verdicts issued so far.
    pub live_verdicts: Vec<StreamVerdict>,
}

// ---------------------------------------------------------------------------
// Encoder / decoder primitives
// ---------------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    /// Grows the buffer by `n` zeroed `width`-byte elements and returns
    /// them for filling in one pass — one length update per slice, not
    /// one per element.
    fn bulk(&mut self, n: usize, width: usize) -> std::slice::ChunksExactMut<'_, u8> {
        let at = self.buf.len();
        self.buf.resize(at + n * width, 0);
        self.buf[at..].chunks_exact_mut(width)
    }
    /// `vs` with no length prefix, for rows whose width the record fixes.
    fn f64_row(&mut self, vs: &[f64]) {
        for (dst, v) in self.bulk(vs.len(), 8).zip(vs) {
            dst.copy_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    fn f64s(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        self.f64_row(vs);
    }
    fn keys(&mut self, keys: &[FlowKey]) {
        self.usize(keys.len());
        for (dst, k) in self.bulk(keys.len(), FLOW_KEY_LEN).zip(keys) {
            dst[0..4].copy_from_slice(&k.src_ip.0.to_le_bytes());
            dst[4..8].copy_from_slice(&k.dst_ip.0.to_le_bytes());
            dst[8..10].copy_from_slice(&k.src_port.to_le_bytes());
            dst[10..12].copy_from_slice(&k.dst_port.to_le_bytes());
            dst[12] = k.protocol.number();
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

type DecResult<T> = Result<T, CheckpointError>;

fn corrupt<T>(reason: String) -> DecResult<T> {
    Err(CheckpointError::Corrupt(reason))
}

fn le8(b: &[u8]) -> [u8; 8] {
    let mut a = [0u8; 8];
    a.copy_from_slice(b);
    a
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, at: 0 }
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }
    fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated { needed: n, have: self.remaining() });
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    /// `n` elements of `width` bytes each, bounds-checked as one slice —
    /// the allocation guard that keeps byte-soup decoding bounded: no
    /// caller sizes a vector before the bytes for it were seen here.
    fn bulk(&mut self, n: usize, width: usize) -> DecResult<std::slice::ChunksExact<'a, u8>> {
        match n.checked_mul(width) {
            Some(need) => Ok(self.take(need)?.chunks_exact(width)),
            None => corrupt(format!("length {n} overflows")),
        }
    }
    fn u8(&mut self) -> DecResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> DecResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> DecResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> DecResult<u64> {
        Ok(u64::from_le_bytes(le8(self.take(8)?)))
    }
    fn f64(&mut self) -> DecResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn bool(&mut self) -> DecResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => corrupt(format!("bool tag {t}")),
        }
    }
    /// Reads a declared element count and validates that at least
    /// `count * min_elem_bytes` bytes are actually present.
    fn len(&mut self, min_elem_bytes: usize) -> DecResult<usize> {
        let n = self.usize_val()?;
        match n.checked_mul(min_elem_bytes) {
            Some(need) if need <= self.remaining() => Ok(n),
            Some(need) => Err(CheckpointError::Truncated { needed: need, have: self.remaining() }),
            None => corrupt(format!("length {n} overflows")),
        }
    }
    fn usize_val(&mut self) -> DecResult<usize> {
        let v = self.u64()?;
        usize::try_from(v).or_else(|_| corrupt(format!("value {v} overflows usize")))
    }
    fn f64_row(&mut self, n: usize) -> DecResult<Vec<f64>> {
        Ok(self.bulk(n, 8)?.map(|b| f64::from_bits(u64::from_le_bytes(le8(b)))).collect())
    }
    fn f64s(&mut self) -> DecResult<Vec<f64>> {
        let n = self.usize_val()?;
        self.f64_row(n)
    }
    fn keys(&mut self) -> DecResult<Vec<FlowKey>> {
        let n = self.usize_val()?;
        Ok(self
            .bulk(n, FLOW_KEY_LEN)?
            .map(|b| {
                FlowKey::new(
                    IpAddr(u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
                    IpAddr(u32::from_le_bytes([b[4], b[5], b[6], b[7]])),
                    u16::from_le_bytes([b[8], b[9]]),
                    u16::from_le_bytes([b[10], b[11]]),
                    Protocol::from_number(b[12]),
                )
            })
            .collect())
    }
}

// ---------------------------------------------------------------------------
// Component codecs
// ---------------------------------------------------------------------------

fn enc_resolution(e: &mut Enc, r: &ResolutionStats) {
    for v in [r.flows_total, r.flows_resolved, r.bytes_total, r.bytes_resolved, r.transit_skipped] {
        e.u64(v);
    }
}

fn dec_resolution(d: &mut Dec<'_>) -> DecResult<ResolutionStats> {
    Ok(ResolutionStats {
        flows_total: d.u64()?,
        flows_resolved: d.u64()?,
        bytes_total: d.u64()?,
        bytes_resolved: d.u64()?,
        transit_skipped: d.u64()?,
    })
}

fn enc_quarantine(e: &mut Enc, q: &QuarantineStats) {
    for v in [
        q.frames_offered,
        q.frames_accepted,
        q.truncated_header,
        q.wrong_version,
        q.truncated_frame,
        q.oversized_frame,
        q.records_offered,
        q.records_accepted,
        q.implausible_records,
    ] {
        e.u64(v);
    }
}

fn dec_quarantine(d: &mut Dec<'_>) -> DecResult<QuarantineStats> {
    Ok(QuarantineStats {
        frames_offered: d.u64()?,
        frames_accepted: d.u64()?,
        truncated_header: d.u64()?,
        wrong_version: d.u64()?,
        truncated_frame: d.u64()?,
        oversized_frame: d.u64()?,
        records_offered: d.u64()?,
        records_accepted: d.u64()?,
        implausible_records: d.u64()?,
    })
}

fn enc_opt_u32(e: &mut Enc, v: Option<u32>) {
    match v {
        None => e.u8(0),
        Some(x) => {
            e.u8(1);
            e.u32(x);
        }
    }
}

fn dec_opt_u32(d: &mut Dec<'_>) -> DecResult<Option<u32>> {
    match d.u8()? {
        0 => Ok(None),
        1 => Ok(Some(d.u32()?)),
        t => corrupt(format!("option tag {t}")),
    }
}

fn enc_watermark(e: &mut Enc, w: WatermarkState) {
    e.u64(w.secs);
    match w.latest_record_secs {
        None => e.u8(0),
        Some(secs) => {
            e.u8(1);
            e.u64(secs);
        }
    }
}

fn dec_watermark(d: &mut Dec<'_>) -> DecResult<WatermarkState> {
    let secs = d.u64()?;
    let latest_record_secs = match d.u8()? {
        0 => None,
        1 => Some(d.u64()?),
        t => return corrupt(format!("option tag {t}")),
    };
    Ok(WatermarkState { secs, latest_record_secs })
}

fn enc_exporter(e: &mut Enc, s: &ExporterSeq) {
    e.u64(s.frames);
    e.u64(s.records);
    e.u64(s.lost_flows);
    e.u64(s.out_of_order);
    e.u64(s.duplicate_frames);
    e.u16(s.sampling_lo);
    e.u16(s.sampling_hi);
    enc_opt_u32(e, s.next_seq);
    match s.last {
        None => e.u8(0),
        Some((seq, count)) => {
            e.u8(1);
            e.u32(seq);
            e.u16(count);
        }
    }
}

fn dec_exporter(d: &mut Dec<'_>) -> DecResult<ExporterSeq> {
    // Fields are read in the order they are written.
    Ok(ExporterSeq {
        frames: d.u64()?,
        records: d.u64()?,
        lost_flows: d.u64()?,
        out_of_order: d.u64()?,
        duplicate_frames: d.u64()?,
        sampling_lo: d.u16()?,
        sampling_hi: d.u16()?,
        next_seq: dec_opt_u32(d)?,
        last: match d.u8()? {
            0 => None,
            1 => Some((d.u32()?, d.u16()?)),
            t => return corrupt(format!("option tag {t}")),
        },
    })
}

fn enc_matrix(e: &mut Enc, m: &Matrix) {
    e.usize(m.nrows());
    e.usize(m.ncols());
    e.f64_row(m.as_slice());
}

fn dec_matrix(d: &mut Dec<'_>) -> DecResult<Matrix> {
    let rows = d.usize_val()?;
    let cols = d.usize_val()?;
    let Some(cells) = rows.checked_mul(cols) else {
        return corrupt(format!("matrix {rows}x{cols} overflows"));
    };
    Matrix::from_vec(rows, cols, d.f64_row(cells)?)
        .or_else(|e| corrupt(format!("matrix shape: {e}")))
}

fn enc_subspace_config(e: &mut Enc, c: SubspaceConfig) {
    e.usize(c.k);
    e.f64(c.alpha);
}

fn dec_subspace_config(d: &mut Dec<'_>) -> DecResult<SubspaceConfig> {
    Ok(SubspaceConfig { k: d.usize_val()?, alpha: d.f64()?, ..SubspaceConfig::default() })
}

fn enc_model(e: &mut Enc, m: &ModelState) {
    enc_matrix(e, &m.decomp.loadings);
    e.f64s(&m.decomp.singular_values);
    e.f64s(&m.decomp.means);
    e.usize(m.decomp.n);
    e.f64(m.decomp.total_energy);
    enc_subspace_config(e, m.config);
    e.usize(m.p);
    e.f64(m.spe_threshold);
    e.f64(m.t2_threshold);
    e.bool(m.degenerate_residual);
}

fn dec_model(d: &mut Dec<'_>) -> DecResult<ModelState> {
    let loadings = dec_matrix(d)?;
    let singular_values = d.f64s()?;
    let means = d.f64s()?;
    let n = d.usize_val()?;
    let total_energy = d.f64()?;
    let config = dec_subspace_config(d)?;
    let p = d.usize_val()?;
    let spe_threshold = d.f64()?;
    let t2_threshold = d.f64()?;
    let degenerate_residual = d.bool()?;
    Ok(ModelState {
        decomp: EigenflowDecomposition { loadings, singular_values, means, n, total_energy },
        config,
        p,
        spe_threshold,
        t2_threshold,
        degenerate_residual,
    })
}

fn enc_detector(e: &mut Enc, s: &DetectorState) {
    enc_model(e, &s.model);
    e.usize(s.next_bin);
}

fn dec_detector(d: &mut Dec<'_>) -> DecResult<DetectorState> {
    Ok(DetectorState { model: dec_model(d)?, next_bin: d.usize_val()? })
}

fn enc_verdict(e: &mut Enc, v: &StreamVerdict) {
    e.usize(v.bin);
    e.f64(v.spe);
    e.f64(v.t2);
    e.usize(v.detections.len());
    for det in &v.detections {
        e.usize(det.bin);
        e.u8(match det.kind {
            StatisticKind::Spe => 0,
            StatisticKind::T2 => 1,
        });
        e.f64(det.value);
        e.f64(det.threshold);
    }
    match &v.degraded {
        None => e.u8(0),
        Some(DegradedReason::MaskedBin) => e.u8(1),
        Some(DegradedReason::ImputedBin) => e.u8(2),
        Some(DegradedReason::WidenedThreshold { imputed_fraction }) => {
            e.u8(3);
            e.f64(*imputed_fraction);
        }
    }
}

fn dec_verdict(d: &mut Dec<'_>) -> DecResult<StreamVerdict> {
    let bin = d.usize_val()?;
    let spe = d.f64()?;
    let t2 = d.f64()?;
    let n = d.len(25)?; // 8 + 1 + 8 + 8 bytes per detection
    let mut detections = Vec::with_capacity(n);
    for _ in 0..n {
        let dbin = d.usize_val()?;
        let kind = match d.u8()? {
            0 => StatisticKind::Spe,
            1 => StatisticKind::T2,
            t => return corrupt(format!("statistic tag {t}")),
        };
        detections.push(Detection { bin: dbin, kind, value: d.f64()?, threshold: d.f64()? });
    }
    let degraded = match d.u8()? {
        0 => None,
        1 => Some(DegradedReason::MaskedBin),
        2 => Some(DegradedReason::ImputedBin),
        3 => Some(DegradedReason::WidenedThreshold { imputed_fraction: d.f64()? }),
        t => return corrupt(format!("degraded tag {t}")),
    };
    Ok(StreamVerdict { bin, spe, t2, detections, degraded })
}

// ---------------------------------------------------------------------------
// The generation codec
// ---------------------------------------------------------------------------

/// What one record persists: the head in full, and of the bins, the
/// detector and the verdicts only what moved since the previous
/// generation. Borrowed from live structures on the way out, owned on
/// the way in.
#[derive(Debug)]
pub(crate) struct Generation<'a> {
    pub(crate) seq: u64,
    pub(crate) frames_ingested: u64,
    pub(crate) next_close: u64,
    pub(crate) watermark: WatermarkState,
    pub(crate) records_accepted: u64,
    pub(crate) resolution: ResolutionStats,
    pub(crate) dropped_out_of_window: u64,
    pub(crate) dropped_late: u64,
    pub(crate) quarantine: QuarantineStats,
    pub(crate) exporters: Cow<'a, [(u8, ExporterSeq)]>,
    /// Window geometry, so every record checks itself against the state
    /// it is folded into.
    pub(crate) num_bins: usize,
    pub(crate) num_od: usize,
    /// The dirty bins, ascending: borrowed from a snapshot, owned when
    /// exported from a live shard or decoded.
    pub(crate) bins: Vec<Cow<'a, BinState>>,
    pub(crate) detector: DetectorPart<'a>,
    /// Verdicts the previous generation already holds.
    pub(crate) verdicts_before: usize,
    pub(crate) verdicts: Cow<'a, [StreamVerdict]>,
}

/// The detector's share of a [`Generation`].
// One per generation and never held in bulk, so a box around the whole
// detector would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum DetectorPart<'a> {
    /// No detector is fitted.
    Absent,
    /// The whole detector: it was fitted since the previous generation.
    Whole(Cow<'a, DetectorState>),
    /// The model stands; the stream has moved on to `next_bin`.
    Stands { next_bin: usize },
}

/// OD pairs per bin of a snapshot's window, as its rows are wide (0 for
/// a window of no bins): the `p` a record declares and is checked by.
fn num_od(shard: &ShardState) -> usize {
    shard.bins.first().map_or(0, |b| b.bytes.len())
}

impl PipelineState {
    /// This state as a generation with everything dirty.
    fn complete(&self) -> Generation<'_> {
        Generation {
            seq: self.seq,
            frames_ingested: self.frames_ingested,
            next_close: self.next_close,
            watermark: self.watermark,
            records_accepted: self.shard.records_accepted,
            resolution: self.shard.resolution,
            dropped_out_of_window: self.shard.dropped_out_of_window,
            dropped_late: self.shard.dropped_late,
            quarantine: self.quarantine,
            exporters: Cow::Borrowed(&self.exporters),
            num_bins: self.shard.bins.len(),
            num_od: num_od(&self.shard),
            bins: self.shard.bins.iter().map(Cow::Borrowed).collect(),
            detector: match &self.detector {
                None => DetectorPart::Absent,
                Some(det) => DetectorPart::Whole(Cow::Borrowed(det)),
            },
            verdicts_before: 0,
            verdicts: Cow::Borrowed(&self.live_verdicts),
        }
    }

    /// Advances this state by the generation that follows it. Everything
    /// is checked before anything is changed, so a record that does not
    /// fit leaves the state exactly the generation it was.
    fn fold(&mut self, next: Generation<'static>) -> DecResult<()> {
        if Some(next.seq) != self.seq.checked_add(1) {
            return corrupt(format!("generation {} does not follow {}", next.seq, self.seq));
        }
        next.apply(self)
    }
}

impl Generation<'_> {
    /// Bytes the payload will need, to within the small fixed fields —
    /// what the encoder reserves up front.
    fn payload_len_hint(&self) -> usize {
        let bins: usize = self
            .bins
            .iter()
            .map(|b| {
                let keys: usize = b.distinct.iter().map(Vec::len).sum();
                16 + 32 * b.bytes.len() + FLOW_KEY_LEN * keys
            })
            .sum();
        let detector = match &self.detector {
            DetectorPart::Absent | DetectorPart::Stands { .. } => 0,
            DetectorPart::Whole(det) => {
                let m = &det.model.decomp;
                8 * (m.loadings.as_slice().len() + m.singular_values.len() + m.means.len())
            }
        };
        let verdicts: usize = self.verdicts.iter().map(|v| 48 + 25 * v.detections.len()).sum();
        512 + 48 * self.exporters.len() + bins + detector + verdicts
    }

    /// Serializes this generation into one self-verifying record.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut e =
            Enc { buf: Vec::with_capacity(CHECKPOINT_HEADER_LEN + self.payload_len_hint()) };
        // The header is filled in once the payload it describes exists.
        e.buf.resize(CHECKPOINT_HEADER_LEN, 0);
        e.u64(self.seq);
        e.u64(self.frames_ingested);
        e.u64(self.next_close);
        enc_watermark(&mut e, self.watermark);
        e.u64(self.records_accepted);
        enc_resolution(&mut e, &self.resolution);
        e.u64(self.dropped_out_of_window);
        e.u64(self.dropped_late);
        enc_quarantine(&mut e, &self.quarantine);
        e.usize(self.exporters.len());
        for (id, s) in self.exporters.iter() {
            e.u8(*id);
            enc_exporter(&mut e, s);
        }
        e.usize(self.num_bins);
        e.usize(self.num_od);
        e.usize(self.bins.len());
        for b in &self.bins {
            e.usize(b.bin);
            e.u64(b.records);
            e.f64_row(&b.bytes);
            e.f64_row(&b.packets);
            e.f64_row(&b.flows);
            for keys in &b.distinct {
                e.keys(keys);
            }
        }
        match &self.detector {
            DetectorPart::Absent => e.u8(0),
            DetectorPart::Whole(det) => {
                e.u8(1);
                enc_detector(&mut e, det);
            }
            DetectorPart::Stands { next_bin } => {
                e.u8(2);
                e.usize(*next_bin);
            }
        }
        e.usize(self.verdicts_before);
        e.usize(self.verdicts.len());
        for v in self.verdicts.iter() {
            enc_verdict(&mut e, v);
        }

        let (header, payload) = e.buf.split_at_mut(CHECKPOINT_HEADER_LEN);
        header[..8].copy_from_slice(&CHECKPOINT_MAGIC);
        header[8..12].copy_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        header[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        header[20..].copy_from_slice(&fnv1a64(payload).to_le_bytes());
        e.buf
    }
}

impl Generation<'static> {
    /// Decodes the record at the front of `bytes`, returning it with the
    /// number of bytes it occupies; whatever follows is the next record's.
    fn decode(bytes: &[u8]) -> DecResult<(Self, usize)> {
        let mut h = Dec::new(bytes);
        if h.take(8)? != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = h.u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let declared = h.usize_val()?;
        let expected_sum = h.u64()?;
        let payload = h.take(declared)?;
        let got_sum = fnv1a64(payload);
        if got_sum != expected_sum {
            return Err(CheckpointError::BadChecksum { expected: expected_sum, got: got_sum });
        }

        let mut d = Dec::new(payload);
        let seq = d.u64()?;
        let frames_ingested = d.u64()?;
        let next_close = d.u64()?;
        let watermark = dec_watermark(&mut d)?;
        let records_accepted = d.u64()?;
        let resolution = dec_resolution(&mut d)?;
        let dropped_out_of_window = d.u64()?;
        let dropped_late = d.u64()?;
        let quarantine = dec_quarantine(&mut d)?;
        let n_exporters = d.len(37)?; // id + fixed exporter body lower bound
        let mut exporters = Vec::with_capacity(n_exporters);
        for _ in 0..n_exporters {
            let id = d.u8()?;
            exporters.push((id, dec_exporter(&mut d)?));
        }
        let num_bins = d.usize_val()?;
        let num_od = d.usize_val()?;
        // Bin index, record count, three rows and a key count per cell.
        let n_bins = d.len(num_od.saturating_mul(32).saturating_add(16))?;
        let mut bins: Vec<Cow<'static, BinState>> = Vec::with_capacity(n_bins);
        for _ in 0..n_bins {
            let bin = d.usize_val()?;
            if bin >= num_bins || bins.last().is_some_and(|prev| prev.bin >= bin) {
                return corrupt(format!("bin segment {bin} out of order or outside the window"));
            }
            let records = d.u64()?;
            let bytes = d.f64_row(num_od)?;
            let packets = d.f64_row(num_od)?;
            let flows = d.f64_row(num_od)?;
            let distinct = (0..num_od).map(|_| d.keys()).collect::<DecResult<Vec<_>>>()?;
            bins.push(Cow::Owned(BinState { bin, records, bytes, packets, flows, distinct }));
        }
        let detector = match d.u8()? {
            0 => DetectorPart::Absent,
            1 => DetectorPart::Whole(Cow::Owned(dec_detector(&mut d)?)),
            2 => DetectorPart::Stands { next_bin: d.usize_val()? },
            t => return corrupt(format!("detector tag {t}")),
        };
        let verdicts_before = d.usize_val()?;
        let n_verdicts = d.len(8 + 8 + 8 + 8 + 1)?;
        let mut verdicts = Vec::with_capacity(n_verdicts);
        for _ in 0..n_verdicts {
            verdicts.push(dec_verdict(&mut d)?);
        }
        if d.remaining() != 0 {
            return corrupt(format!("{} unconsumed payload bytes", d.remaining()));
        }
        let generation = Generation {
            seq,
            frames_ingested,
            next_close,
            watermark,
            records_accepted,
            resolution,
            dropped_out_of_window,
            dropped_late,
            quarantine,
            exporters: Cow::Owned(exporters),
            num_bins,
            num_od,
            bins,
            detector,
            verdicts_before,
            verdicts: Cow::Owned(verdicts),
        };
        Ok((generation, CHECKPOINT_HEADER_LEN + declared))
    }

    /// The state a complete record holds; a delta is rejected.
    fn into_state(mut self) -> DecResult<PipelineState> {
        // Segments are ascending and inside the window, so as many as
        // there are bins is all of them: segment `i` is bin `i`.
        if self.bins.len() != self.num_bins || self.verdicts_before != 0 {
            return corrupt("a chain must start with a complete record".to_owned());
        }
        let bins = std::mem::take(&mut self.bins).into_iter().map(Cow::into_owned).collect();
        let mut state = PipelineState {
            seq: self.seq,
            frames_ingested: 0,
            next_close: 0,
            watermark: WatermarkState::default(),
            shard: ShardState {
                bins,
                records_accepted: 0,
                resolution: ResolutionStats::default(),
                dropped_out_of_window: 0,
                dropped_late: 0,
            },
            quarantine: QuarantineStats::default(),
            exporters: Vec::new(),
            detector: None,
            live_verdicts: Vec::new(),
        };
        self.apply(&mut state)?;
        Ok(state)
    }

    /// Overwrites in `state` what this generation carries, after checking
    /// that all of it fits. Decoding has checked each bin segment against
    /// the generation's geometry, so matching geometries are all a bin
    /// needs to take its place.
    fn apply(self, state: &mut PipelineState) -> DecResult<()> {
        let (num_bins, p) = (state.shard.bins.len(), num_od(&state.shard));
        if (self.num_bins, self.num_od) != (num_bins, p) {
            return corrupt(format!(
                "a {} x {} generation does not fit a {num_bins} x {p} window",
                self.num_bins, self.num_od
            ));
        }
        if self.verdicts_before != state.live_verdicts.len() {
            return corrupt(format!(
                "verdicts resume at {} but {} are held",
                self.verdicts_before,
                state.live_verdicts.len()
            ));
        }
        match (&self.detector, &state.detector) {
            (DetectorPart::Absent, None)
            | (DetectorPart::Whole(_), _)
            | (DetectorPart::Stands { .. }, Some(_)) => {}
            (DetectorPart::Absent, Some(_)) => {
                return corrupt("the fitted detector vanished".to_owned());
            }
            (DetectorPart::Stands { .. }, None) => {
                return corrupt("a standing model needs a fitted detector".to_owned());
            }
        }

        state.seq = self.seq;
        state.frames_ingested = self.frames_ingested;
        state.next_close = self.next_close;
        state.watermark = self.watermark;
        state.shard.records_accepted = self.records_accepted;
        state.shard.resolution = self.resolution;
        state.shard.dropped_out_of_window = self.dropped_out_of_window;
        state.shard.dropped_late = self.dropped_late;
        state.quarantine = self.quarantine;
        state.exporters = self.exporters.into_owned();
        for b in self.bins.into_iter().map(Cow::into_owned) {
            let bin = b.bin;
            state.shard.bins[bin] = b;
        }
        match (self.detector, &mut state.detector) {
            (DetectorPart::Whole(det), slot) => *slot = Some(det.into_owned()),
            (DetectorPart::Stands { next_bin }, Some(det)) => det.next_bin = next_bin,
            _ => {}
        }
        state.live_verdicts.extend(self.verdicts.into_owned());
        Ok(())
    }
}

/// Serializes a pipeline snapshot into a self-verifying complete record
/// (header + checksummed payload). Entry `i` of the shard's bins must be
/// bin `i`, every row as wide as the first bin's, as in every
/// [`ShardState`] a shard exports.
#[must_use]
pub fn encode_state(state: &PipelineState) -> Vec<u8> {
    state.complete().encode()
}

/// Deserializes one complete record. Total over arbitrary input: rejects
/// with a typed [`CheckpointError`], never panics, and never allocates
/// beyond what the bytes present can justify.
///
/// # Errors
///
/// Every [`CheckpointError`] class except `Io`.
pub fn decode_state(bytes: &[u8]) -> Result<PipelineState, CheckpointError> {
    let (generation, used) = Generation::decode(bytes)?;
    if used != bytes.len() {
        return corrupt(format!("{} trailing bytes beyond the record", bytes.len() - used));
    }
    generation.into_state()
}

/// Folds a slot file — a complete record, then deltas — into the newest
/// state it holds, stopping at the first record that fails framing,
/// checksum or continuity. Returns that state (if even the first record
/// was usable) and the failure that ended the chain early (if one did).
fn load_chain(bytes: &[u8]) -> (Option<PipelineState>, Option<CheckpointError>) {
    let first = Generation::decode(bytes).and_then(|(g, used)| Ok((g.into_state()?, used)));
    let (mut state, mut at) = match first {
        Ok(first) => first,
        Err(e) => return (None, Some(e)),
    };
    while at < bytes.len() {
        let step = Generation::decode(&bytes[at..]).and_then(|(g, used)| {
            state.fold(g)?;
            Ok(used)
        });
        match step {
            Ok(used) => at += used,
            Err(e) => return (Some(state), Some(e)),
        }
    }
    (Some(state), None)
}

// ---------------------------------------------------------------------------
// Slot files: store and chain writer
// ---------------------------------------------------------------------------

/// The two slot files of one tenant.
///
/// Each holds a chain: a complete record, then deltas. At every instant
/// one slot holds the newest durable generation and the other the chain
/// before it, so [`Self::load_newest`] always has an exact earlier
/// generation to fall back to.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    tenant: String,
}

/// Outcome of scanning a tenant's checkpoint slots.
#[derive(Debug, Default)]
pub struct LoadOutcome {
    /// The newest valid generation, if any slot's first record decoded.
    pub state: Option<PipelineState>,
    /// The slot (`0` or `1`) whose chain `state` was folded from — the
    /// one the next complete record must not replace.
    pub slot: Option<usize>,
    /// Read and decode failures (missing files are not failures): a slot
    /// whose first record was unusable, or the record that ended a chain
    /// early. A non-empty list alongside `Some(state)` means recovery
    /// fell back past a torn or corrupt generation.
    pub rejected: Vec<(PathBuf, CheckpointError)>,
}

impl CheckpointStore {
    /// A store rooted at `dir` for the named tenant. Tenant names are
    /// sanitized into filenames (non-alphanumeric bytes become `_`).
    pub fn new(dir: impl Into<PathBuf>, tenant: &str) -> CheckpointStore {
        let safe: String = tenant
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '_' })
            .collect();
        CheckpointStore { dir: dir.into(), tenant: safe }
    }

    /// The two slot file paths, `[slot 0, slot 1]`.
    #[must_use]
    pub fn slot_paths(&self) -> [PathBuf; 2] {
        [
            self.dir.join(format!("{}.a.ckpt", self.tenant)),
            self.dir.join(format!("{}.b.ckpt", self.tenant)),
        ]
    }

    /// Creates the directory and removes both slot files (and stray temp
    /// files) — a fresh daemon bind clears stale generations so they can
    /// never leak into a later recovery.
    ///
    /// # Errors
    ///
    /// Filesystem errors other than not-found.
    pub fn reset(&self) -> Result<(), CheckpointError> {
        std::fs::create_dir_all(&self.dir)?;
        for path in self.slot_paths() {
            for p in [path.with_extension("ckpt.tmp"), path] {
                match std::fs::remove_file(&p) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(CheckpointError::Io(e)),
                }
            }
        }
        Ok(())
    }

    /// Persists `state` as one complete record — the whole of slot
    /// `state.seq % 2` afterwards. A running tenant appends deltas to
    /// the chain such a record starts instead (see the module docs).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure; both slots are as
    /// they were.
    pub fn write(&self, state: &PipelineState) -> Result<(), CheckpointError> {
        self.write_complete((state.seq % 2) as usize, &encode_state(state))
    }

    /// Replaces slot `slot` with `image` durably: temp file, fsync,
    /// rename, directory fsync — the rename is what a crash must not
    /// lose once the caller counts the generation as checkpointed.
    fn write_complete(&self, slot: usize, image: &[u8]) -> Result<(), CheckpointError> {
        let dest = &self.slot_paths()[slot % 2];
        let tmp = dest.with_extension("ckpt.tmp");
        let mut f = match File::create(&tmp) {
            // First use of a directory nobody `reset`.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                std::fs::create_dir_all(&self.dir)?;
                File::create(&tmp)?
            }
            other => other?,
        };
        f.write_all(image)?;
        f.sync_all()?;
        std::fs::rename(&tmp, dest)?;
        File::open(&self.dir)?.sync_all()?;
        Ok(())
    }

    /// Scans both slots and returns the newest valid generation along
    /// with whatever was rejected on the way. Never errors and never
    /// panics: a missing directory or two corrupt slots simply yield
    /// `state: None`.
    #[must_use]
    pub fn load_newest(&self) -> LoadOutcome {
        let mut out = LoadOutcome::default();
        for (slot, path) in self.slot_paths().into_iter().enumerate() {
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => {
                    out.rejected.push((path, CheckpointError::Io(e)));
                    continue;
                }
            };
            let (state, failure) = load_chain(&bytes);
            if let Some(state) = state {
                if out.state.as_ref().is_none_or(|best| state.seq > best.seq) {
                    out.state = Some(state);
                    out.slot = Some(slot);
                }
            }
            if let Some(e) = failure {
                out.rejected.push((path, e));
            }
        }
        out
    }
}

/// Persists a running tenant's generations, one per call, deciding for
/// each whether it extends the open chain or starts the next one.
#[derive(Debug)]
pub(crate) struct ChainWriter {
    store: CheckpointStore,
    /// Where the next complete record goes: never the slot that holds
    /// the newest durable generation.
    next_slot: usize,
    /// The chain this session is appending to. `None` until the session
    /// has written its own complete record, and again after any failed
    /// write — bytes of unknown fate are never appended past.
    chain: Option<OpenChain>,
}

#[derive(Debug)]
struct OpenChain {
    file: File,
    /// Length of the chain's complete record.
    first_len: u64,
    /// Delta bytes appended after it.
    appended: u64,
}

impl OpenChain {
    /// The rebase rule: a chain takes deltas until they outweigh the
    /// complete record they follow.
    fn has_room(&self) -> bool {
        self.appended <= self.first_len
    }
}

impl ChainWriter {
    /// A writer over `store`. `resumed_slot` is [`LoadOutcome::slot`] of
    /// the generation the session resumed from, if it resumed from one.
    pub(crate) fn new(store: CheckpointStore, resumed_slot: Option<usize>) -> ChainWriter {
        ChainWriter { store, next_slot: resumed_slot.map_or(0, |s| (s + 1) % 2), chain: None }
    }

    /// `true` when the next generation must be a complete record: no
    /// chain of this session is open, or the open one has had more bytes
    /// appended than its complete record is long.
    pub(crate) fn wants_complete(&self) -> bool {
        !self.chain.as_ref().is_some_and(OpenChain::has_room)
    }

    /// Makes one encoded generation durable — a complete record exactly
    /// when [`Self::wants_complete`] said so. Returns only after the
    /// bytes are synced.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`]; the generations already durable are
    /// untouched and the next call starts a fresh chain.
    pub(crate) fn commit(&mut self, image: &[u8]) -> Result<(), CheckpointError> {
        let result = match self.chain.take().filter(OpenChain::has_room) {
            Some(mut chain) => append_synced(&mut chain.file, image).map(|()| {
                chain.appended += image.len() as u64;
                chain
            }),
            None => self.start_chain(image),
        };
        self.chain = Some(result?);
        Ok(())
    }

    fn start_chain(&mut self, image: &[u8]) -> Result<OpenChain, CheckpointError> {
        let slot = self.next_slot;
        self.store.write_complete(slot, image)?;
        let file = File::options().append(true).open(&self.store.slot_paths()[slot])?;
        self.next_slot = (slot + 1) % 2;
        Ok(OpenChain { file, first_len: image.len() as u64, appended: 0 })
    }
}

fn append_synced(file: &mut File, image: &[u8]) -> Result<(), CheckpointError> {
    file.write_all(image)?;
    file.sync_data()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Deterministic kill-point chaos harness
// ---------------------------------------------------------------------------

/// A crash-relevant boundary in the tenant pipeline. The `usize` is the
/// global bin index the pipeline is closing or checkpointing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// At the entry of `close_bin` for the given bin, before any state
    /// changes — the last checkpoint predates this bin entirely.
    BeforeBinClose(usize),
    /// After the bin closed but before its checkpoint was written — the
    /// durable state is one generation behind the in-memory state.
    BeforeCheckpoint(usize),
    /// A torn checkpoint: the slot for this generation is written
    /// *truncated*, then the process dies — recovery must reject the torn
    /// newest generation and fall back to the previous slot.
    TornCheckpoint(usize),
    /// Immediately after the checkpoint for this bin was durably written.
    AfterCheckpoint(usize),
    /// At the entry of the final flush, after all frames were consumed.
    BeforeFlush,
}

/// How the injected failure presents to the supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// Simulated process death: the worker stops on the spot, nothing is
    /// flushed, nothing restarts — the run ends and only
    /// [`Daemon::recover`](crate::Daemon::recover) can continue it.
    Kill,
    /// An ordinary worker panic: the supervisor's restart/quarantine
    /// policy applies.
    Panic,
}

/// One injection rule: fire `kind` at `point`, once or every time.
#[derive(Debug)]
struct CrashRule {
    point: CrashPoint,
    kind: CrashKind,
    repeat: bool,
    fired: AtomicBool,
}

/// Deterministic failure-injection schedule, shared (via `Arc`) between a
/// tenant's successive worker incarnations so one-shot rules stay
/// consumed across restarts.
#[derive(Debug, Default)]
pub struct CrashSchedule {
    rules: Vec<CrashRule>,
}

impl CrashSchedule {
    /// A schedule that kills the process at one crash point, once.
    #[must_use]
    pub fn kill_at(point: CrashPoint) -> Arc<CrashSchedule> {
        Arc::new(CrashSchedule {
            rules: vec![CrashRule {
                point,
                kind: CrashKind::Kill,
                repeat: false,
                fired: AtomicBool::new(false),
            }],
        })
    }

    /// A schedule that panics the worker at one crash point, once.
    #[must_use]
    pub fn panic_at(point: CrashPoint) -> Arc<CrashSchedule> {
        Arc::new(CrashSchedule {
            rules: vec![CrashRule {
                point,
                kind: CrashKind::Panic,
                repeat: false,
                fired: AtomicBool::new(false),
            }],
        })
    }

    /// A schedule that panics the worker *every* time it reaches the
    /// crash point — the quarantine-policy exerciser.
    #[must_use]
    pub fn panic_always_at(point: CrashPoint) -> Arc<CrashSchedule> {
        Arc::new(CrashSchedule {
            rules: vec![CrashRule {
                point,
                kind: CrashKind::Panic,
                repeat: true,
                fired: AtomicBool::new(false),
            }],
        })
    }

    /// Consumes a matching rule at this boundary, returning the failure
    /// kind to inject, or `None` to proceed normally.
    pub fn fire(&self, point: CrashPoint) -> Option<CrashKind> {
        for rule in &self.rules {
            if rule.point == point && (rule.repeat || !rule.fired.swap(true, Ordering::SeqCst)) {
                return Some(rule.kind);
            }
        }
        None
    }
}

/// The panic payload carried by an injected crash; the supervisor
/// downcasts for it to distinguish simulated process death from ordinary
/// worker panics.
#[derive(Debug, Clone, Copy)]
pub struct CrashPayload {
    /// Where the failure fired.
    pub point: CrashPoint,
    /// Kill (no restart) or panic (restartable).
    pub kind: CrashKind,
}

/// Raises an injected crash as a panic carrying [`CrashPayload`]. Only
/// the chaos harness unwinds through here; the supervision boundary in
/// the daemon catches it.
#[expect(
    clippy::disallowed_methods,
    clippy::panic,
    reason = "the deterministic chaos-injection point: this unwind is thrown on purpose and caught at the audited supervision boundary in daemon.rs"
)]
pub(crate) fn trigger_crash(point: CrashPoint, kind: CrashKind) -> ! {
    panic_any(CrashPayload { point, kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        // CARGO_TARGET_TMPDIR exists only for integration tests; unit
        // tests park scratch dirs under the workspace target/ instead.
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp")
            .join(format!("ckpt_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_state(seq: u64) -> PipelineState {
        let key = |p: u16| {
            FlowKey::new(
                IpAddr::from_octets(10, 0, 0, 1),
                IpAddr::from_octets(10, 16, 0, 2),
                p,
                80,
                Protocol::Tcp,
            )
        };
        PipelineState {
            seq,
            frames_ingested: 1234,
            next_close: 7,
            watermark: WatermarkState { secs: 2100, latest_record_secs: Some(2345) },
            shard: ShardState {
                bins: vec![
                    BinState {
                        bin: 0,
                        records: 2,
                        bytes: vec![1.5, 0.0],
                        packets: vec![1.0, 0.0],
                        flows: vec![1.0, 0.0],
                        distinct: vec![vec![key(1000)], vec![]],
                    },
                    BinState {
                        bin: 1,
                        records: 3,
                        bytes: vec![2.25, 3.5],
                        packets: vec![2.0, 3.0],
                        flows: vec![1.0, 2.0],
                        distinct: vec![vec![key(1001)], vec![key(1002), key(1003)]],
                    },
                ],
                records_accepted: 5,
                resolution: ResolutionStats {
                    flows_total: 9,
                    flows_resolved: 5,
                    bytes_total: 900,
                    bytes_resolved: 500,
                    transit_skipped: 2,
                },
                dropped_out_of_window: 1,
                dropped_late: 4,
            },
            quarantine: QuarantineStats {
                frames_offered: 40,
                frames_accepted: 39,
                wrong_version: 1,
                records_offered: 100,
                records_accepted: 99,
                implausible_records: 1,
                ..QuarantineStats::default()
            },
            exporters: vec![(
                3,
                ExporterSeq {
                    frames: 40,
                    records: 99,
                    lost_flows: 30,
                    sampling_lo: 100,
                    sampling_hi: 100,
                    next_seq: Some(140),
                    last: Some((110, 30)),
                    ..ExporterSeq::default()
                },
            )],
            detector: Some(DetectorState {
                model: ModelState {
                    decomp: EigenflowDecomposition {
                        loadings: Matrix::from_vec(2, 2, vec![0.7, 0.8, 0.9, 1.0]).unwrap(),
                        singular_values: vec![5.0, 1.0],
                        means: vec![1.0, 2.0],
                        n: 3,
                        total_energy: 26.0,
                    },
                    config: SubspaceConfig::default(),
                    p: 2,
                    spe_threshold: 0.5,
                    t2_threshold: 9.9,
                    degenerate_residual: false,
                },
                next_bin: 4,
            }),
            live_verdicts: vec![
                StreamVerdict {
                    bin: 0,
                    spe: 0.25,
                    t2: 1.5,
                    detections: vec![Detection {
                        bin: 0,
                        kind: StatisticKind::Spe,
                        value: 0.25,
                        threshold: 0.2,
                    }],
                    degraded: None,
                },
                StreamVerdict {
                    bin: 1,
                    spe: 0.0,
                    t2: 0.0,
                    detections: vec![],
                    degraded: Some(DegradedReason::MaskedBin),
                },
                StreamVerdict {
                    bin: 2,
                    spe: 0.125,
                    t2: 0.75,
                    detections: vec![],
                    degraded: Some(DegradedReason::WidenedThreshold { imputed_fraction: 0.25 }),
                },
            ],
        }
    }

    #[test]
    fn roundtrip_is_byte_stable() {
        let state = sample_state(5);
        let bytes = encode_state(&state);
        let decoded = decode_state(&bytes).unwrap();
        // Canonical codec: re-encoding the decoded state reproduces the
        // exact bytes, so round-trip identity holds for every component.
        assert_eq!(encode_state(&decoded), bytes);
        assert_eq!(decoded.seq, 5);
        assert_eq!(decoded.frames_ingested, 1234);
        assert_eq!(decoded.shard, state.shard);
        assert_eq!(decoded.quarantine, state.quarantine);
        assert_eq!(decoded.exporters, state.exporters);
        assert_eq!(decoded.live_verdicts.len(), 3);
    }

    #[test]
    fn empty_detector_roundtrip() {
        let mut state = sample_state(0);
        state.detector = None;
        state.live_verdicts.clear();
        let bytes = encode_state(&state);
        let decoded = decode_state(&bytes).unwrap();
        assert!(decoded.detector.is_none());
        assert_eq!(encode_state(&decoded), bytes);
    }

    #[test]
    fn a_fitted_model_encodes_to_the_same_length_whatever_its_training_bins() {
        // The model is its normal subspace's axes, its spectrum and its
        // training means: p-sized, never n-sized. A week of bins encodes to
        // exactly the bytes a few hours do.
        let (p, k) = (30, 4);
        let encoded_len = |n: usize| {
            let x = Matrix::from_fn(n, p, |i, j| {
                let t = i as f64 / 288.0 * std::f64::consts::TAU;
                (10.0 + j as f64) * (2.0 + (t + 0.3 * j as f64).sin())
                    + ((i * 31 + j * 17) % 97) as f64 * 0.01
            });
            let config = SubspaceConfig { k, ..SubspaceConfig::default() };
            let model = odflow_subspace::SubspaceModel::fit(&x, config).unwrap().export_state();
            assert_eq!(model.decomp.loadings.shape(), (p, k), "n = {n}");
            let mut e = Enc { buf: Vec::new() };
            enc_model(&mut e, &model);
            e.buf.len()
        };
        assert_eq!(encoded_len(200), encoded_len(2000));
    }

    #[test]
    fn header_corruptions_classified() {
        let good = encode_state(&sample_state(1));
        assert!(matches!(decode_state(&[]), Err(CheckpointError::Truncated { .. })));
        assert!(matches!(decode_state(b"NOTCKPT\0rest"), Err(CheckpointError::BadMagic)));

        let mut wrong_version = good.clone();
        wrong_version[8] = 99;
        assert!(matches!(decode_state(&wrong_version), Err(CheckpointError::BadVersion(99))));

        // Truncation anywhere in the payload is caught by length/checksum.
        assert!(decode_state(&good[..good.len() - 3]).is_err());

        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(decode_state(&flipped), Err(CheckpointError::BadChecksum { .. })));

        let mut trailing = good;
        trailing.push(0);
        assert!(matches!(decode_state(&trailing), Err(CheckpointError::Corrupt(_))));
    }

    #[test]
    fn byte_soup_never_panics_and_never_overallocates() {
        // A declared length of u64::MAX must be rejected by the
        // bytes-present guard, not attempted as an allocation.
        let mut evil = Vec::new();
        evil.extend_from_slice(&CHECKPOINT_MAGIC);
        evil.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        let payload = u64::MAX.to_le_bytes(); // one absurd length field
        evil.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        evil.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        evil.extend_from_slice(&payload);
        assert!(decode_state(&evil).is_err());

        // Deterministic byte soup of many lengths.
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for len in [0usize, 1, 7, 8, 20, 28, 64, 300] {
            let mut soup = Vec::with_capacity(len);
            for _ in 0..len {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                soup.push(x as u8);
            }
            assert!(decode_state(&soup).is_err(), "soup of len {len} must be rejected");
        }
    }

    #[test]
    fn store_alternates_slots_and_falls_back_past_corruption() {
        let dir = tmp_dir("slots");
        let store = CheckpointStore::new(&dir, "abilene");
        assert!(store.load_newest().state.is_none(), "empty dir loads nothing");

        store.write(&sample_state(0)).unwrap();
        store.write(&sample_state(1)).unwrap();
        store.write(&sample_state(2)).unwrap();
        let [a, b] = store.slot_paths();
        assert!(a.exists() && b.exists(), "both slots populated");
        let out = store.load_newest();
        assert_eq!((out.state.unwrap().seq, out.slot), (2, Some(0)));

        // Corrupt the newest generation (seq 2 lives in slot a): recovery
        // must fall back to seq 1 and report the rejected slot.
        let mut bytes = std::fs::read(&a).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&a, &bytes).unwrap();
        let out = store.load_newest();
        assert_eq!(out.slot, Some(1));
        assert_eq!(out.state.unwrap().seq, 1, "falls back to previous generation");
        assert_eq!(out.rejected.len(), 1);
        assert!(matches!(out.rejected[0].1, CheckpointError::BadChecksum { .. }));

        // A torn write (truncated file) is likewise rejected; seq 3 tears
        // over slot b (the last valid generation), so with slot a already
        // corrupt nothing is loadable — and still nothing panics.
        let torn = encode_state(&sample_state(3));
        std::fs::write(&b, &torn[..torn.len() / 2]).unwrap();
        let out = store.load_newest();
        assert!(out.state.is_none());
        assert_eq!(out.rejected.len(), 2);
        // A subsequent good generation makes the store healthy again.
        store.write(&sample_state(4)).unwrap();
        assert_eq!(store.load_newest().state.unwrap().seq, 4);

        // Reset clears every generation.
        store.reset().unwrap();
        assert!(store.load_newest().state.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The generation after `sample_state(seq)`: bin 1 received records,
    /// the detector scored one more bin and issued its verdict.
    fn sample_delta(prev: &PipelineState) -> (Generation<'static>, PipelineState) {
        let key = FlowKey::new(
            IpAddr::from_octets(10, 0, 0, 9),
            IpAddr::from_octets(10, 16, 0, 9),
            4242,
            443,
            Protocol::Udp,
        );
        let verdict =
            StreamVerdict { bin: 3, spe: 0.5, t2: 2.5, detections: vec![], degraded: None };
        let bin = BinState {
            bin: 1,
            records: 9,
            bytes: vec![7.5, 8.5],
            packets: vec![4.0, 5.0],
            flows: vec![2.0, 3.0],
            distinct: vec![vec![key], vec![]],
        };
        let mut next = prev.clone();
        next.seq += 1;
        next.frames_ingested += 40;
        next.next_close += 1;
        next.watermark.secs += 300;
        next.watermark.latest_record_secs = Some(2645);
        next.shard.dropped_late += 2;
        next.shard.bins[1] = bin.clone();
        next.shard.records_accepted += 6;
        next.quarantine.frames_offered += 40;
        next.exporters[0].1.frames += 40;
        let det = next.detector.as_mut().unwrap();
        det.next_bin += 1;
        next.live_verdicts.push(verdict.clone());
        let delta = Generation {
            seq: next.seq,
            frames_ingested: next.frames_ingested,
            next_close: next.next_close,
            watermark: next.watermark,
            records_accepted: next.shard.records_accepted,
            resolution: next.shard.resolution,
            dropped_out_of_window: next.shard.dropped_out_of_window,
            dropped_late: next.shard.dropped_late,
            quarantine: next.quarantine,
            exporters: Cow::Owned(next.exporters.clone()),
            num_bins: 2,
            num_od: 2,
            bins: vec![Cow::Owned(bin)],
            detector: DetectorPart::Stands { next_bin: det.next_bin },
            verdicts_before: prev.live_verdicts.len(),
            verdicts: Cow::Owned(vec![verdict]),
        };
        (delta, next)
    }

    #[test]
    fn a_delta_folds_to_the_state_it_was_cut_from() {
        let first = sample_state(5);
        let (delta, second) = sample_delta(&first);
        let mut chain = encode_state(&first);
        let delta_bytes = delta.encode();
        assert!(delta_bytes.len() < chain.len(), "one bin of two, no model");
        chain.extend_from_slice(&delta_bytes);

        let (state, failure) = load_chain(&chain);
        assert!(failure.is_none(), "{failure:?}");
        assert_eq!(encode_state(&state.unwrap()), encode_state(&second));

        // Anything after the last record that is not a record ends the
        // chain there, at an exact generation.
        chain.extend_from_slice(&delta_bytes[..delta_bytes.len() - 1]);
        let (state, failure) = load_chain(&chain);
        assert_eq!(encode_state(&state.unwrap()), encode_state(&second));
        assert!(matches!(failure, Some(CheckpointError::Truncated { .. })));

        // A delta is not a state: neither alone nor at the head of a chain.
        assert!(matches!(decode_state(&delta_bytes), Err(CheckpointError::Corrupt(_))));
        assert!(load_chain(&delta_bytes).0.is_none());
    }

    #[test]
    fn a_record_that_does_not_continue_the_chain_ends_it() {
        let first = sample_state(5);
        let head = encode_state(&first);
        let ends_at_first = |record: Vec<u8>, why: &str| {
            let mut chain = head.clone();
            chain.extend_from_slice(&record);
            let (state, failure) = load_chain(&chain);
            assert_eq!(encode_state(&state.unwrap()), head, "{why}");
            assert!(matches!(failure, Some(CheckpointError::Corrupt(_))), "{why}: {failure:?}");
        };
        let delta = || sample_delta(&first).0;

        ends_at_first(encode_state(&sample_state(7)), "a gap in seq");
        ends_at_first(encode_state(&first), "the same seq again");
        ends_at_first(Generation { verdicts_before: 2, ..delta() }.encode(), "a verdict gap");
        ends_at_first(Generation { num_bins: 3, ..delta() }.encode(), "another window");
        ends_at_first(
            Generation { detector: DetectorPart::Absent, ..delta() }.encode(),
            "the detector vanished",
        );

        // Records after the first say what changed; a second complete
        // record restarts the verdict count and is not one of them.
        ends_at_first(encode_state(&sample_state(6)), "a complete record mid-chain");

        // Without a detector there is no model to stand.
        let mut unfitted = first.clone();
        unfitted.detector = None;
        let mut chain = encode_state(&unfitted);
        chain.extend_from_slice(&delta().encode());
        let (state, failure) = load_chain(&chain);
        assert_eq!(state.unwrap().seq, 5);
        assert!(matches!(failure, Some(CheckpointError::Corrupt(_))));
    }

    #[test]
    fn bin_segments_must_ascend_inside_the_window() {
        let first = sample_state(5);
        let (delta, _) = sample_delta(&first);
        let seg = |bin: usize| {
            Cow::Owned(BinState {
                bin,
                records: 1,
                bytes: vec![0.0; 2],
                packets: vec![0.0; 2],
                flows: vec![0.0; 2],
                distinct: vec![vec![]; 2],
            })
        };
        for bins in [vec![seg(1), seg(0)], vec![seg(1), seg(1)], vec![seg(2)]] {
            let bytes = Generation { bins, ..sample_delta(&first).0 }.encode();
            assert!(matches!(Generation::decode(&bytes), Err(CheckpointError::Corrupt(_))));
        }
        assert!(Generation::decode(&delta.encode()).is_ok());
    }

    #[test]
    fn writer_rebases_into_the_other_slot_once_deltas_outweigh_the_first_record() {
        let dir = tmp_dir("chain");
        let store = CheckpointStore::new(&dir, "abilene");
        let [a, b] = store.slot_paths();
        let mut writer = ChainWriter::new(store.clone(), None);
        let mut state = sample_state(0);
        let mut completes = 0;
        for _ in 0..12 {
            let (delta, next) = sample_delta(&state);
            state = next;
            let image = if writer.wants_complete() {
                completes += 1;
                encode_state(&state)
            } else {
                delta.encode()
            };
            writer.commit(&image).unwrap();
            let out = store.load_newest();
            assert!(out.rejected.is_empty(), "{:?}", out.rejected);
            assert_eq!(encode_state(&out.state.unwrap()), encode_state(&state));
        }
        assert!(completes >= 3, "twelve generations of this size rebase more than once");
        // Both slots hold a chain, neither more than a delta past twice
        // its first record.
        for path in [&a, &b] {
            let len = std::fs::metadata(path).unwrap().len() as usize;
            let first = encode_state(&state).len();
            assert!(len > 0 && len <= 3 * first, "{len} vs a complete record of {first}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_fitted_tenant_checkpoints_its_model_and_position_not_a_refit_window() {
        // A tenant's detector is fitted once, at `train_bins`, and never
        // refits: a generation carries it as its model (configuration
        // included) and its stream position — the model's `p`-sized
        // numbers whole in the generation that fits it and in every
        // complete record after, never a row per training bin — and a
        // delta after the fit carries the position alone.
        const BINS: usize = 48;
        let scenario = odflow_gen::Scenario::paper_window(37, BINS).unwrap();
        let config = crate::TenantConfig::abilene("t0", 0, BINS);
        let train_bins = config.train_bins;
        let mut tenant = crate::TenantPipeline::new(
            config,
            &scenario.topology,
            odflow_net::IngressResolver::synthetic(&scenario.topology),
            scenario.plan.build_route_table(1.0).unwrap(),
        )
        .unwrap();
        let dir = tmp_dir("no_refit_window");
        let store = CheckpointStore::new(&dir, "t0");
        tenant.set_checkpoint_store(store.clone(), None);
        // The newest record on disk: whether it is a complete record, and
        // the bytes its detector takes.
        let newest = || {
            let slots = store.slot_paths().map(|path| std::fs::read(path).unwrap_or_default());
            let mut records = Vec::new();
            for bytes in &slots {
                let mut at = 0;
                while let Ok((generation, used)) = Generation::decode(&bytes[at..]) {
                    records.push((generation, at == 0));
                    at += used;
                }
            }
            let (mut generation, complete) =
                records.into_iter().max_by_key(|(g, _)| g.seq).expect("a generation");
            let with = generation.encode().len();
            generation.detector = DetectorPart::Absent;
            (complete, with - generation.encode().len())
        };
        let counters = tenant.counters();
        let generator = scenario.generator();
        let mut seqs = vec![0u32; scenario.topology.num_pops()];
        let mut generations = Vec::new();
        for bin in 0..BINS {
            for frame in generator.frames_for_bin(bin, &mut seqs) {
                let written = crate::TenantCounters::get(&counters.checkpoints);
                tenant.ingest_frame(&frame);
                if crate::TenantCounters::get(&counters.checkpoints) > written {
                    generations.push(newest());
                }
            }
        }
        let state = tenant.export_state();
        let m = &state.detector.as_ref().expect("the detector was fit").model.decomp;
        let model = 8 * (m.loadings.as_slice().len() + m.singular_values.len() + m.means.len());
        let fit = train_bins - 1;
        assert!(generations[..fit].iter().all(|&(_, share)| share == 0), "unfitted");
        let whole = generations[fit].1;
        assert!(model < whole && whole <= model + 256, "{whole} bytes for a {model}-byte model");
        let after = &generations[fit + 1..];
        assert!(after.iter().any(|&(complete, _)| complete), "a complete record after the fit");
        assert!(after.iter().any(|&(complete, _)| !complete), "a delta after the fit");
        for &(complete, share) in after {
            assert_eq!(share, if complete { whole } else { 8 }, "complete: {complete}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_resumed_writer_spares_the_slot_it_resumed_from() {
        let dir = tmp_dir("resume");
        let store = CheckpointStore::new(&dir, "abilene");
        store.write(&sample_state(3)).unwrap(); // slot 1
        let out = store.load_newest();
        assert_eq!(out.slot, Some(1));
        let mut writer = ChainWriter::new(store.clone(), out.slot);
        assert!(writer.wants_complete(), "a session starts with a complete record");
        writer.commit(&encode_state(&sample_state(4))).unwrap();
        let [a, b] = store.slot_paths();
        assert_eq!(decode_state(&std::fs::read(&a).unwrap()).unwrap().seq, 4);
        assert_eq!(decode_state(&std::fs::read(&b).unwrap()).unwrap().seq, 3);
        assert!(!writer.wants_complete());

        // A write into a directory that is gone fails, is reported, and
        // sends the next generation to a fresh chain.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"not a directory").unwrap();
        let mut lost = ChainWriter::new(store.clone(), None);
        assert!(matches!(lost.commit(b"x"), Err(CheckpointError::Io(_))));
        assert!(lost.wants_complete());
        std::fs::remove_file(&dir).unwrap();
    }

    #[test]
    fn crash_schedule_consumes_one_shot_rules() {
        let s = CrashSchedule::kill_at(CrashPoint::AfterCheckpoint(7));
        assert!(s.fire(CrashPoint::BeforeFlush).is_none());
        assert!(s.fire(CrashPoint::AfterCheckpoint(6)).is_none());
        assert_eq!(s.fire(CrashPoint::AfterCheckpoint(7)), Some(CrashKind::Kill));
        assert!(s.fire(CrashPoint::AfterCheckpoint(7)).is_none(), "one-shot rule consumed");

        let p = CrashSchedule::panic_always_at(CrashPoint::BeforeBinClose(3));
        assert_eq!(p.fire(CrashPoint::BeforeBinClose(3)), Some(CrashKind::Panic));
        assert_eq!(p.fire(CrashPoint::BeforeBinClose(3)), Some(CrashKind::Panic));
    }

    #[test]
    fn error_display_is_informative() {
        let e = CheckpointError::Truncated { needed: 10, have: 3 };
        assert!(e.to_string().contains("needed 10"));
        assert!(CheckpointError::BadMagic.to_string().contains("magic"));
        assert!(CheckpointError::BadVersion(9).to_string().contains('9'));
        let c = CheckpointError::BadChecksum { expected: 1, got: 2 };
        assert!(c.to_string().contains("mismatch"));
        assert!(CheckpointError::Corrupt("tag".into()).to_string().contains("tag"));
    }
}
