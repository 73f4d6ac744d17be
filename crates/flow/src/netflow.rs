//! NetFlow-v5-style export codec.
//!
//! The paper's data arrives as NetFlow/cflowd export datagrams (the paper
//! cites Cisco NetFlow and Juniper Traffic Sampling as the collection
//! mechanisms). This module implements a faithful v5-shaped wire format —
//! 24-byte header plus fixed 48-byte records — so the pipeline can be
//! exercised end-to-end from serialized exports, and so downstream users
//! can feed real v5 data into the detector with a thin adapter.
//!
//! Layout (all integers big-endian, as on the wire):
//!
//! ```text
//! header:  version(2) count(2) sys_uptime(4) unix_secs(4) unix_nsecs(4)
//!          flow_sequence(4) engine_type(1) engine_id(1) sampling(2)
//! record:  srcaddr(4) dstaddr(4) nexthop(4) input(2) output(2)
//!          dPkts(4) dOctets(4) first(4) last(4) srcport(2) dstport(2)
//!          pad1(1) tcp_flags(1) prot(1) tos(1) src_as(2) dst_as(2)
//!          src_mask(1) dst_mask(1) pad2(2)
//! ```

use crate::key::{FlowKey, Protocol};
use crate::quality::{QuarantineClass, QuarantineStats};
use crate::record::FlowRecord;
use odflow_net::IpAddr;

/// NetFlow export version implemented by this codec.
pub const NETFLOW_VERSION: u16 = 5;

/// Size of the datagram header in bytes.
pub const HEADER_LEN: usize = 24;

/// Size of one flow record on the wire.
pub const RECORD_LEN: usize = 48;

/// Maximum records per datagram (v5 convention: 30 fits in a 1500-byte MTU).
pub const MAX_RECORDS_PER_DATAGRAM: usize = 30;

/// Parsed export datagram header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatagramHeader {
    /// Format version (always 5 for this codec).
    pub version: u16,
    /// Number of records in the datagram.
    pub count: u16,
    /// Export timestamp, seconds.
    pub unix_secs: u32,
    /// Cumulative sequence number of the first record.
    pub flow_sequence: u32,
    /// Exporter identity (the encoding router's PoP index).
    pub engine_id: u8,
    /// Sampling interval (packets per sample), e.g. 100 for 1% sampling.
    pub sampling_interval: u16,
}

/// Encodes flow records into export datagrams of at most
/// [`MAX_RECORDS_PER_DATAGRAM`] records each.
///
/// `router_pop` becomes `engine_id`; `sampling_interval` is `1/rate` (100
/// for Abilene's 1%); `flow_sequence` starts at `seq_start` and increments
/// per record across datagrams.
pub fn encode_datagrams(
    records: &[FlowRecord],
    export_secs: u32,
    router_pop: u8,
    sampling_interval: u16,
    seq_start: u32,
) -> Vec<Vec<u8>> {
    let mut out = Vec::with_capacity(records.len().div_ceil(MAX_RECORDS_PER_DATAGRAM));
    let mut seq = seq_start;
    for chunk in records.chunks(MAX_RECORDS_PER_DATAGRAM) {
        let mut buf = Vec::with_capacity(frame_wire_len(chunk.len() as u16));
        buf.extend_from_slice(&NETFLOW_VERSION.to_be_bytes());
        buf.extend_from_slice(&(chunk.len() as u16).to_be_bytes());
        buf.extend_from_slice(&[0; 4]); // sys_uptime: unused by the pipeline
        buf.extend_from_slice(&export_secs.to_be_bytes());
        buf.extend_from_slice(&[0; 4]); // unix_nsecs
        buf.extend_from_slice(&seq.to_be_bytes());
        buf.extend_from_slice(&[0, router_pop]); // engine_type, engine_id
        buf.extend_from_slice(&sampling_interval.to_be_bytes());
        for r in chunk {
            buf.extend_from_slice(&encode_record(r));
        }
        seq = seq.wrapping_add(chunk.len() as u32);
        out.push(buf);
    }
    out
}

/// One record's wire image. Fields the pipeline does not model (nexthop,
/// output ifIndex, tcp_flags, tos, AS numbers, masks, pads) stay zero.
fn encode_record(r: &FlowRecord) -> [u8; RECORD_LEN] {
    let mut rec = [0u8; RECORD_LEN];
    rec[0..4].copy_from_slice(&r.key.src_ip.0.to_be_bytes());
    rec[4..8].copy_from_slice(&r.key.dst_ip.0.to_be_bytes());
    rec[12..14].copy_from_slice(&(r.interface as u16).to_be_bytes()); // input ifIndex
    rec[16..20].copy_from_slice(&(r.packets.min(u32::MAX as u64) as u32).to_be_bytes());
    rec[20..24].copy_from_slice(&(r.bytes.min(u32::MAX as u64) as u32).to_be_bytes());
    let start_ms = (r.window_start as u32).wrapping_mul(1000).to_be_bytes();
    rec[24..28].copy_from_slice(&start_ms); // first (ms timestamps on the wire)
    rec[28..32].copy_from_slice(&start_ms); // last
    rec[32..34].copy_from_slice(&r.key.src_port.to_be_bytes());
    rec[34..36].copy_from_slice(&r.key.dst_port.to_be_bytes());
    rec[38] = r.key.protocol.number();
    rec
}

/// Total wire length in bytes of a frame whose header declares `count`
/// records: the fixed header plus `count` fixed-size records.
///
/// The TCP length-prefix path uses this to sanity-bound a declared frame
/// length before buffering it; the decoders use it (via
/// [`check_frame_bounds`]) to verify a received payload. Keeping both on
/// one formula is the point — the boundary arithmetic must never fork
/// between transports.
#[must_use]
pub const fn frame_wire_len(count: u16) -> usize {
    HEADER_LEN + count as usize * RECORD_LEN
}

/// Checks a frame's record payload length against its header-declared
/// record count — the single frame-boundary authority shared by the UDP
/// datagram path and the TCP length-prefix path.
///
/// `payload_len` is the byte count *after* the [`HEADER_LEN`]-byte header.
/// Returns `None` when the payload holds exactly `count` records, otherwise
/// the quarantine class describing the mismatch: a short payload means
/// over-reading if `count` were trusted; a long payload means trailing
/// bytes of unknown provenance. Both quarantine the frame.
#[must_use]
pub fn check_frame_bounds(count: u16, payload_len: usize) -> Option<QuarantineClass> {
    let expected = count as usize * RECORD_LEN;
    if payload_len < expected {
        Some(QuarantineClass::TruncatedFrame)
    } else if payload_len > expected {
        Some(QuarantineClass::OversizedFrame)
    } else {
        None
    }
}

/// The big-endian `u16` at byte `at` of a fixed-size wire structure.
fn u16_at<const N: usize>(wire: &[u8; N], at: usize) -> u16 {
    u16::from_be_bytes([wire[at], wire[at + 1]])
}

/// The big-endian `u32` at byte `at` of a fixed-size wire structure.
fn u32_at<const N: usize>(wire: &[u8; N], at: usize) -> u32 {
    u32::from_be_bytes([wire[at], wire[at + 1], wire[at + 2], wire[at + 3]])
}

fn parse_header(h: &[u8; HEADER_LEN]) -> DatagramHeader {
    DatagramHeader {
        version: u16_at(h, 0),
        count: u16_at(h, 2),
        unix_secs: u32_at(h, 8),
        flow_sequence: u32_at(h, 16),
        engine_id: h[21],
        sampling_interval: u16_at(h, 22),
    }
}

/// The one place a frame's bytes are taken apart: the parsed header and
/// the record payload as fixed-size wire records, still where they lie.
/// Never trusts `count` against the payload; [`check_frame_bounds`]
/// classifies any mismatch, so a frame that comes back `Ok` holds exactly
/// `count` whole records.
fn split_frame(data: &[u8]) -> Result<(DatagramHeader, &[[u8; RECORD_LEN]]), QuarantineClass> {
    let Some((head, payload)) = data.split_first_chunk::<HEADER_LEN>() else {
        return Err(QuarantineClass::TruncatedHeader);
    };
    let hdr = parse_header(head);
    if hdr.version != NETFLOW_VERSION {
        return Err(QuarantineClass::WrongVersion);
    }
    if let Some(class) = check_frame_bounds(hdr.count, payload.len()) {
        return Err(class);
    }
    Ok((hdr, payload.as_chunks().0))
}

/// Decodes one wire record where it lies. The record's `router` field is
/// recovered from the header's `engine_id` and `window_start` from the
/// `first` timestamp.
fn decode_record(rec: &[u8; RECORD_LEN], engine_id: u8) -> FlowRecord {
    FlowRecord {
        key: FlowKey::new(
            IpAddr(u32_at(rec, 0)),
            IpAddr(u32_at(rec, 4)),
            u16_at(rec, 32),
            u16_at(rec, 34),
            Protocol::from_number(rec[38]),
        ),
        router: engine_id as usize,
        interface: u32::from(u16_at(rec, 12)), // input ifIndex
        // `first`, which the wire carries in milliseconds.
        window_start: u64::from(u32_at(rec, 24) / 1000),
        packets: u64::from(u32_at(rec, 16)),
        bytes: u64::from(u32_at(rec, 20)),
    }
}

/// Largest plausible mean packet size: the IPv4 maximum datagram is 65535
/// bytes, so a flow averaging more than that per packet has a garbled
/// `dOctets` field (e.g. a counter-overflow or bit-flip artifact).
const MAX_BYTES_PER_PACKET: u64 = 65_535;

/// Smallest plausible mean packet size: a bare IPv4 header is 20 bytes, so
/// a flow averaging less has a garbled counter.
const MIN_BYTES_PER_PACKET: u64 = 20;

/// `true` when a wire record's `dPkts`/`dOctets` counters could describe
/// real IPv4 traffic. Garbled exports (bit flips, overflowed counters)
/// fail one of these bounds with high probability.
fn counters_plausible(rec: &[u8; RECORD_LEN]) -> bool {
    match (u64::from(u32_at(rec, 16)), u64::from(u32_at(rec, 20))) {
        (0, 0) => true, // an idle-template record adds nothing; harmless
        (0, _) | (_, 0) => false,
        (p, b) => b >= p * MIN_BYTES_PER_PACKET && b <= p * MAX_BYTES_PER_PACKET,
    }
}

/// The plausible records of one accepted frame, decoded one at a time
/// from the frame's own bytes — nothing is materialized unless the caller
/// collects. Implausible records were already counted by [`decode_frame`]
/// and are passed over here.
#[derive(Debug, Clone)]
pub struct FrameRecords<'a> {
    records: std::slice::Iter<'a, [u8; RECORD_LEN]>,
    engine_id: u8,
    /// Plausible records not yet yielded.
    plausible: usize,
}

impl Iterator for FrameRecords<'_> {
    type Item = FlowRecord;

    fn next(&mut self) -> Option<FlowRecord> {
        let rec = self.records.by_ref().find(|rec| counters_plausible(rec))?;
        self.plausible -= 1;
        Some(decode_record(rec, self.engine_id))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.plausible, Some(self.plausible))
    }
}

impl ExactSizeIterator for FrameRecords<'_> {}

/// The lossy decode kernel: classifies and counts one export frame, and
/// lends out its plausible records without copying them.
///
/// Malformed frames return `None` and increment exactly one quarantine
/// class counter in `stats`. For an accepted frame the counters are final
/// on return — plausibility is counted in a pre-pass over the `dPkts` /
/// `dOctets` fields, so a caller that drops the iterator unread (the
/// duplicate-frame policy) leaves the same accounting as one that drains
/// it. The conservation invariant ([`QuarantineStats::is_conserved`])
/// holds after any input sequence.
pub fn decode_frame<'a>(
    data: &'a [u8],
    stats: &mut QuarantineStats,
) -> Option<(DatagramHeader, FrameRecords<'a>)> {
    stats.frames_offered += 1;
    let (hdr, records) = match split_frame(data) {
        Ok(parts) => parts,
        Err(class) => {
            stats.quarantine_frame(class);
            return None;
        }
    };
    let plausible = records.iter().filter(|rec| counters_plausible(rec)).count();
    stats.frames_accepted += 1;
    stats.records_offered += u64::from(hdr.count);
    stats.records_accepted += plausible as u64;
    stats.implausible_records += (records.len() - plausible) as u64;
    let records = FrameRecords { records: records.iter(), engine_id: hdr.engine_id, plausible };
    Some((hdr, records))
}

/// [`decode_frame`] with the records collected, for a caller that wants
/// them owned. There is no strict decoder: a trusted round-trip decodes
/// through the same kernel and checks that nothing was quarantined.
pub fn decode_datagram_lossy(
    data: &[u8],
    stats: &mut QuarantineStats,
) -> Option<(DatagramHeader, Vec<FlowRecord>)> {
    decode_frame(data, stats).map(|(hdr, records)| (hdr, records.collect()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records(n: usize) -> Vec<FlowRecord> {
        (0..n)
            .map(|i| FlowRecord {
                key: FlowKey::new(
                    IpAddr::from_octets(10, 0, 0, (i % 250) as u8 + 1),
                    IpAddr::from_octets(10, 16, (i / 250) as u8, 0),
                    40_000 + i as u16,
                    80,
                    if i % 3 == 0 { Protocol::Udp } else { Protocol::Tcp },
                ),
                router: 7,
                interface: 0,
                window_start: 1_200 + (i as u64 % 4) * 60,
                packets: 1 + i as u64 % 13,
                bytes: (1 + i as u64 % 13) * (40 + 200 * (i as u64 % 7)),
            })
            .collect()
    }

    /// Decodes a clean frame through the lossy kernel, checking that it
    /// quarantined nothing: the frame and every record came through.
    fn decode_clean(frame: &[u8]) -> (DatagramHeader, Vec<FlowRecord>) {
        let mut q = QuarantineStats::default();
        let decoded = decode_datagram_lossy(frame, &mut q).expect("clean frame");
        assert_eq!((q.frames_rejected(), q.implausible_records), (0, 0));
        decoded
    }

    #[test]
    fn roundtrip_single_datagram() {
        let records = sample_records(5);
        let dgrams = encode_datagrams(&records, 99, 7, 100, 0);
        assert_eq!(dgrams.len(), 1);
        let (hdr, decoded) = decode_clean(&dgrams[0]);
        assert_eq!(hdr.version, 5);
        assert_eq!(hdr.count, 5);
        assert_eq!(hdr.unix_secs, 99);
        assert_eq!(hdr.sampling_interval, 100);
        assert_eq!(decoded, records);
    }

    #[test]
    fn splits_into_mtu_sized_datagrams() {
        let records = sample_records(65);
        let dgrams = encode_datagrams(&records, 0, 7, 100, 0);
        assert_eq!(dgrams.len(), 3); // 30 + 30 + 5
        assert_eq!(dgrams[0].len(), HEADER_LEN + 30 * RECORD_LEN);
        assert!(dgrams[0].len() <= 1500, "datagram must fit standard MTU");
        let mut all = Vec::new();
        for d in &dgrams {
            all.extend(decode_clean(d).1);
        }
        assert_eq!(all, records);
    }

    #[test]
    fn flow_sequence_increments_across_datagrams() {
        let records = sample_records(65);
        let dgrams = encode_datagrams(&records, 0, 1, 100, 1000);
        let seqs: Vec<u32> = dgrams.iter().map(|d| decode_clean(d).0.flow_sequence).collect();
        assert_eq!(seqs, vec![1000, 1030, 1060]);
    }

    #[test]
    fn empty_record_list_encodes_nothing() {
        let dgrams = encode_datagrams(&[], 0, 1, 100, 0);
        assert!(dgrams.is_empty());
    }

    #[test]
    fn lossy_accepts_clean_frames_with_conservation() {
        let records = sample_records(65);
        let dgrams = encode_datagrams(&records, 0, 7, 100, 0);
        let mut q = QuarantineStats::default();
        let mut all = Vec::new();
        for d in &dgrams {
            let (hdr, recs) = decode_datagram_lossy(d, &mut q).expect("clean frame");
            assert_eq!(hdr.engine_id, 7);
            all.extend(recs);
        }
        assert_eq!(all, records);
        assert!(q.is_conserved());
        assert_eq!(q.frames_accepted, 3);
        assert_eq!(q.records_accepted, 65);
        assert_eq!(q.frames_rejected(), 0);
    }

    #[test]
    fn lossy_quarantines_each_class_once() {
        let records = sample_records(2);
        let good = encode_datagrams(&records, 0, 1, 100, 0).remove(0);
        let mut q = QuarantineStats::default();

        assert!(decode_datagram_lossy(&good[..10], &mut q).is_none());
        assert_eq!(q.truncated_header, 1);

        let mut wrong = good.to_vec();
        wrong[1] = 9;
        assert!(decode_datagram_lossy(&wrong, &mut q).is_none());
        assert_eq!(q.wrong_version, 1);

        let mut short = good.to_vec();
        short.truncate(good.len() - 7);
        assert!(decode_datagram_lossy(&short, &mut q).is_none());
        assert_eq!(q.truncated_frame, 1);

        let mut long = good.to_vec();
        long.extend_from_slice(&[0u8; 3]);
        assert!(decode_datagram_lossy(&long, &mut q).is_none());
        assert_eq!(q.oversized_frame, 1);

        assert!(decode_datagram_lossy(&good, &mut q).is_some());
        assert_eq!(q.frames_offered, 5);
        assert_eq!(q.frames_accepted, 1);
        assert!(q.is_conserved());
    }

    #[test]
    fn lossy_drops_implausible_records() {
        let mut records = sample_records(3);
        records[1].bytes = 0; // zeroed dOctets with live dPkts
        let dgrams = encode_datagrams(&records, 0, 1, 100, 0);
        let mut q = QuarantineStats::default();
        let (_, decoded) = decode_datagram_lossy(&dgrams[0], &mut q).expect("frame accepted");
        assert_eq!(decoded.len(), 2);
        assert_eq!(q.implausible_records, 1);
        assert_eq!(q.records_accepted, 2);
        assert!(q.is_conserved());
    }

    #[test]
    fn overflowed_counter_is_implausible() {
        let r = FlowRecord {
            // A counter-overflow artifact: ~2^31 bytes claimed on 3 packets.
            bytes: 1u64 << 31,
            packets: 3,
            ..sample_records(1).remove(0)
        };
        assert!(!counters_plausible(&encode_record(&r)));
        assert!(counters_plausible(&encode_record(&sample_records(1)[0])));
    }

    #[test]
    fn frame_bounds_helper_classifies_both_sides() {
        assert_eq!(check_frame_bounds(2, 2 * RECORD_LEN), None);
        assert_eq!(check_frame_bounds(0, 0), None);
        assert_eq!(
            check_frame_bounds(2, 2 * RECORD_LEN - 1),
            Some(QuarantineClass::TruncatedFrame)
        );
        assert_eq!(
            check_frame_bounds(2, 2 * RECORD_LEN + 1),
            Some(QuarantineClass::OversizedFrame)
        );
        assert_eq!(check_frame_bounds(0, 1), Some(QuarantineClass::OversizedFrame));
    }

    #[test]
    fn frame_wire_len_matches_encoder_output() {
        let records = sample_records(30);
        let dgrams = encode_datagrams(&records, 0, 1, 100, 0);
        assert_eq!(dgrams[0].len(), frame_wire_len(30));
        assert_eq!(frame_wire_len(0), HEADER_LEN);
    }

    #[test]
    fn protocol_numbers_preserved() {
        let mut records = sample_records(1);
        records[0].key.protocol = Protocol::Other(47); // GRE
        let dgrams = encode_datagrams(&records, 0, 1, 100, 0);
        let (_, decoded) = decode_clean(&dgrams[0]);
        assert_eq!(decoded[0].key.protocol, Protocol::Other(47));
    }
}
