//! Property-based tests for the measurement substrate.

use odflow_flow::{
    netflow, DistinctFlows, FlowAggregator, FlowKey, FlowRecord, PacketObs, PipelineConfig,
    Protocol, ShardedIngest,
};
use odflow_net::{AddressPlan, IngressResolver, IpAddr, Topology};
use proptest::prelude::*;
use std::collections::hash_map::RandomState;
use std::collections::BTreeSet;
use std::hash::{BuildHasher, Hasher};

fn arb_key() -> impl Strategy<Value = FlowKey> {
    (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>(), any::<u8>()).prop_map(
        |(s, d, sp, dp, pr)| FlowKey::new(IpAddr(s), IpAddr(d), sp, dp, Protocol::from_number(pr)),
    )
}

fn arb_record() -> impl Strategy<Value = FlowRecord> {
    (arb_key(), 0usize..11, 0u32..4, 0u64..100, 1u64..1000, 40u64..2_000_000).prop_map(
        |(key, router, interface, minute, packets, bytes)| FlowRecord {
            key,
            router,
            interface,
            window_start: minute * 60,
            packets,
            bytes,
        },
    )
}

/// The field-by-field cursor decoder the in-place kernel replaced, kept
/// as its oracle: a moving slice, one big-endian read per wire field in
/// wire order, every record materialized before plausibility is judged.
mod cursor_oracle {
    use odflow_flow::netflow::{
        check_frame_bounds, DatagramHeader, HEADER_LEN, NETFLOW_VERSION, RECORD_LEN,
    };
    use odflow_flow::{FlowKey, FlowRecord, Protocol, QuarantineClass, QuarantineStats};
    use odflow_net::IpAddr;

    fn get_u8(buf: &mut &[u8]) -> u8 {
        let (head, rest) = buf.split_at(1);
        *buf = rest;
        head[0]
    }

    fn get_u16(buf: &mut &[u8]) -> u16 {
        let (head, rest) = buf.split_at(2);
        *buf = rest;
        u16::from_be_bytes([head[0], head[1]])
    }

    fn get_u32(buf: &mut &[u8]) -> u32 {
        let (head, rest) = buf.split_at(4);
        *buf = rest;
        u32::from_be_bytes([head[0], head[1], head[2], head[3]])
    }

    fn decode_record(buf: &mut &[u8], engine_id: u8) -> FlowRecord {
        let src_ip = IpAddr(get_u32(buf));
        let dst_ip = IpAddr(get_u32(buf));
        let _nexthop = get_u32(buf);
        let input = get_u16(buf);
        let _output = get_u16(buf);
        let packets = get_u32(buf) as u64;
        let bytes = get_u32(buf) as u64;
        let first_ms = get_u32(buf);
        let _last_ms = get_u32(buf);
        let src_port = get_u16(buf);
        let dst_port = get_u16(buf);
        let _pad1 = get_u8(buf);
        let _tcp_flags = get_u8(buf);
        let prot = get_u8(buf);
        let _tos = get_u8(buf);
        let _src_as = get_u16(buf);
        let _dst_as = get_u16(buf);
        let _src_mask = get_u8(buf);
        let _dst_mask = get_u8(buf);
        let _pad2 = get_u16(buf);
        FlowRecord {
            key: FlowKey::new(src_ip, dst_ip, src_port, dst_port, Protocol::from_number(prot)),
            router: engine_id as usize,
            interface: input as u32,
            window_start: (first_ms / 1000) as u64,
            packets,
            bytes,
        }
    }

    fn record_plausible(r: &FlowRecord) -> bool {
        match (r.packets, r.bytes) {
            (0, 0) => true,
            (0, _) | (_, 0) => false,
            (p, b) => b >= p.saturating_mul(20) && b <= p * 65_535,
        }
    }

    pub fn decode_datagram_lossy(
        data: &[u8],
        stats: &mut QuarantineStats,
    ) -> Option<(DatagramHeader, Vec<FlowRecord>)> {
        stats.frames_offered += 1;
        if data.len() < HEADER_LEN {
            stats.quarantine_frame(QuarantineClass::TruncatedHeader);
            return None;
        }
        let mut buf = data;
        let version = get_u16(&mut buf);
        if version != NETFLOW_VERSION {
            stats.quarantine_frame(QuarantineClass::WrongVersion);
            return None;
        }
        let count = get_u16(&mut buf);
        let _sys_uptime = get_u32(&mut buf);
        let unix_secs = get_u32(&mut buf);
        let _unix_nsecs = get_u32(&mut buf);
        let flow_sequence = get_u32(&mut buf);
        let _engine_type = get_u8(&mut buf);
        let engine_id = get_u8(&mut buf);
        let sampling_interval = get_u16(&mut buf);
        if let Some(class) = check_frame_bounds(count, buf.len()) {
            stats.quarantine_frame(class);
            return None;
        }
        stats.frames_accepted += 1;
        stats.records_offered += u64::from(count);
        let mut records = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let r = decode_record(&mut buf, engine_id);
            if record_plausible(&r) {
                stats.records_accepted += 1;
                records.push(r);
            } else {
                stats.implausible_records += 1;
            }
        }
        assert_eq!(buf.len(), 0, "the bounds check left exactly `count` records");
        debug_assert_eq!(count as usize * RECORD_LEN, data.len() - HEADER_LEN);
        let hdr = DatagramHeader {
            version,
            count,
            unix_secs,
            flow_sequence,
            engine_id,
            sampling_interval,
        };
        Some((hdr, records))
    }
}

/// Protocols that share a wire number without being the same value —
/// `Other(6)` is not `Tcp` to `==`, so it is not `Tcp` to the flow count.
const PROTOCOLS: [Protocol; 6] = [
    Protocol::Tcp,
    Protocol::Other(6),
    Protocol::Udp,
    Protocol::Other(17),
    Protocol::Icmp,
    Protocol::Other(47),
];

/// OD cells `arb_pair` draws from.
const PAIR_ODS: usize = 5;

/// `(od, key)` from a universe small enough that a few hundred draws
/// repeat themselves.
fn arb_pair() -> impl Strategy<Value = (u32, FlowKey)> {
    (0..PAIR_ODS as u32, 0u32..4, 0u32..4, 0u16..3, 0u16..2, 0usize..PROTOCOLS.len()).prop_map(
        |(od, s, d, sp, dp, pr)| (od, FlowKey::new(IpAddr(s), IpAddr(d), sp, dp, PROTOCOLS[pr])),
    )
}

/// Hashes everything to one value: every pair lands on one probe chain.
#[derive(Clone)]
struct Colliding;

impl BuildHasher for Colliding {
    type Hasher = Colliding;
    fn build_hasher(&self) -> Colliding {
        Colliding
    }
}

impl Hasher for Colliding {
    fn finish(&self) -> u64 {
        7
    }
    fn write(&mut self, _: &[u8]) {}
}

/// The oracle's pairs as the per-cell sorted export must give them.
fn oracle_cells(oracle: &BTreeSet<(u32, FlowKey)>) -> Vec<Vec<FlowKey>> {
    (0..PAIR_ODS as u32)
        .map(|od| oracle.iter().filter(|p| p.0 == od).map(|p| p.1).collect())
        .collect()
}

/// Drives a table and a `BTreeSet` through `pairs`, with a snapshot
/// (sorted export, re-insert into a fresh table) taken after `cut` of
/// them: every answer, the size, the load and the export must agree.
fn check_against_oracle<S: BuildHasher + Clone>(
    hasher: S,
    pairs: &[(u32, FlowKey)],
    cut: usize,
) -> Result<(), TestCaseError> {
    let mut table = DistinctFlows::with_hasher(hasher.clone());
    let mut restored = DistinctFlows::with_hasher(hasher.clone());
    let mut oracle = BTreeSet::new();
    prop_assert_eq!(table.table_bytes(), 0, "an empty table owns nothing");
    for (i, &(od, key)) in pairs.iter().enumerate() {
        if i == cut {
            for (od, keys) in (0u32..).zip(table.sorted_cells(PAIR_ODS)) {
                for key in keys {
                    prop_assert!(restored.insert(od, key), "a snapshot holds no pair twice");
                }
            }
        }
        let fresh = oracle.insert((od, key));
        prop_assert_eq!(table.insert(od, key), fresh, "insert {} of {:?}", i, (od, key));
        if i >= cut {
            prop_assert_eq!(restored.insert(od, key), fresh, "restored insert {}", i);
        }
        prop_assert_eq!(table.len(), oracle.len());
        // 20-byte slots at a load of at most 3/4.
        prop_assert!(table.len() * 20 * 4 <= table.table_bytes() * 3);
    }
    prop_assert_eq!(table.sorted_cells(PAIR_ODS), oracle_cells(&oracle));
    if cut < pairs.len() {
        prop_assert_eq!(restored.sorted_cells(PAIR_ODS), oracle_cells(&oracle));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn distinct_flows_agree_with_a_btree_set(
        pairs in proptest::collection::vec(arb_pair(), 0..700),
        cut in 0usize..700,
    ) {
        // 700 draws from 2880 pairs: ~600 distinct, six doublings from 16.
        check_against_oracle(RandomState::new(), &pairs, cut)?;
    }

    #[test]
    fn distinct_flows_survive_total_collision(
        pairs in proptest::collection::vec(arb_pair(), 0..200),
        cut in 0usize..200,
    ) {
        check_against_oracle(Colliding, &pairs, cut)?;
    }

    #[test]
    fn shard_snapshot_dedups_across_the_cut(
        draws in proptest::collection::vec(
            (arb_pair(), 0usize..11, 0usize..11, 0u32..0x2000, 0u64..6 * 300, 1u64..9),
            1..300,
        ),
        cut in 0usize..300,
    ) {
        // Records over six bins of the Abilene mesh; the 5-tuple universe
        // is small and destinations differ below the anonymization
        // boundary too, so flows repeat within a cell on both sides of
        // the snapshot.
        let t = Topology::abilene();
        let plan = AddressPlan::synthetic(&t);
        let engine = ShardedIngest::new(
            PipelineConfig::abilene(0, 6),
            &t,
            IngressResolver::synthetic(&t),
            plan.build_route_table(1.0).unwrap(),
        )
        .unwrap();
        let records: Vec<FlowRecord> = draws
            .iter()
            .map(|&((_, key), router, dst_pop, host, ts, packets)| FlowRecord {
                key: FlowKey { dst_ip: plan.customer_addr(dst_pop, 0, host), ..key },
                router,
                interface: 0,
                window_start: ts,
                packets,
                bytes: packets * 40,
            })
            .collect();
        let oracle: BTreeSet<(usize, FlowKey)> = draws
            .iter()
            .zip(&records)
            .map(|(&(_, router, dst_pop, _, ts, _), r)| {
                let cell = ts as usize / 300 * 121 + t.od_index(router, dst_pop).unwrap();
                (cell, r.key.with_anonymized_dst())
            })
            .collect();
        let cut = cut.min(records.len());

        let mut live = engine.make_shard(0..6).unwrap();
        for r in &records[..cut] {
            live.push_sampled_record(*r).unwrap();
        }
        let mut restored = engine.make_shard(0..6).unwrap();
        restored.restore_state(&live.export_state()).unwrap();
        for r in &records[cut..] {
            live.push_sampled_record(*r).unwrap();
            restored.push_sampled_record(*r).unwrap();
        }
        let state = live.export_state();
        prop_assert_eq!(&restored.export_state(), &state);

        for (cell, keys) in state.distinct.iter().enumerate() {
            let expect: Vec<FlowKey> =
                oracle.iter().filter(|&&(c, _)| c == cell).map(|&(_, key)| key).collect();
            prop_assert_eq!(keys, &expect, "cell {}", cell);
            prop_assert_eq!(state.flows[cell], expect.len() as f64);
        }
        prop_assert_eq!(live.distinct_keys_live(), oracle.len());
        let filled = live.finish();
        prop_assert_eq!((filled.distinct_keys_live(), filled.distinct_table_bytes()), (0, 0));
    }

    #[test]
    fn netflow_roundtrip_lossless(records in proptest::collection::vec(arb_record(), 0..100)) {
        // Engine id must fit u8 and ifIndex u16 on the v5 wire; constrain.
        let records: Vec<FlowRecord> = records
            .into_iter()
            .map(|mut r| { r.router %= 256; r.interface %= 65_536; r })
            .collect();
        // All records in one datagram batch share the engine id; pin it.
        let router = records.first().map_or(0, |r| r.router);
        let records: Vec<FlowRecord> =
            records.into_iter().map(|mut r| { r.router = router; r }).collect();
        let dgrams = netflow::encode_datagrams(&records, 1234, router as u8, 100, 0);
        let mut decoded = Vec::new();
        for d in &dgrams {
            let (hdr, recs) = netflow::decode_datagram(d).unwrap();
            prop_assert_eq!(hdr.version, 5);
            prop_assert_eq!(hdr.unix_secs, 1234);
            decoded.extend(recs);
        }
        prop_assert_eq!(decoded, records);
    }

    #[test]
    fn datagrams_fit_mtu(records in proptest::collection::vec(arb_record(), 1..200)) {
        let dgrams = netflow::encode_datagrams(&records, 0, 0, 100, 0);
        for d in &dgrams {
            prop_assert!(d.len() <= 1500, "datagram {} bytes exceeds MTU", d.len());
        }
        let total: usize = dgrams
            .iter()
            .map(|d| netflow::decode_datagram(d).unwrap().1.len())
            .sum();
        prop_assert_eq!(total, records.len());
    }

    #[test]
    fn aggregator_conserves_packets_and_bytes(
        pkts in proptest::collection::vec((0u64..600, 0u16..8, 40u32..1500), 1..300),
    ) {
        let mut agg = FlowAggregator::new(60, 0).unwrap();
        let mut out = Vec::new();
        let mut sorted = pkts.clone();
        sorted.sort_by_key(|(ts, _, _)| *ts);
        let mut total_bytes = 0u64;
        for (ts, port, bytes) in &sorted {
            let key = FlowKey::new(
                IpAddr(1),
                IpAddr(2),
                1000 + port,
                80,
                Protocol::Tcp,
            );
            out.extend(agg.push(&PacketObs::new(*ts, 0, 0, key, *bytes)));
            total_bytes += *bytes as u64;
        }
        out.extend(agg.flush());
        let agg_packets: u64 = out.iter().map(|r| r.packets).sum();
        let agg_bytes: u64 = out.iter().map(|r| r.bytes).sum();
        prop_assert_eq!(agg_packets, sorted.len() as u64);
        prop_assert_eq!(agg_bytes, total_bytes);
    }

    #[test]
    fn binner_conserves_totals(
        draws in proptest::collection::vec((arb_record(), 0usize..11), 1..300),
    ) {
        // Every record resolves — it enters at a customer port, bound for
        // a PoP's customer space — and the window's 18 bins end at minute
        // 90, so the last tenth of the minutes fall outside it.
        let t = Topology::abilene();
        let plan = AddressPlan::synthetic(&t);
        let engine = ShardedIngest::new(
            PipelineConfig::abilene(0, 18),
            &t,
            IngressResolver::synthetic(&t),
            plan.build_route_table(1.0).unwrap(),
        )
        .unwrap();
        let mut shard = engine.make_shard(0..18).unwrap();
        let mut expect_bytes = 0.0;
        let mut expect_packets = 0.0;
        for &(r, dst_pop) in &draws {
            let dst_ip = plan.customer_addr(dst_pop, 0, r.key.dst_ip.0);
            shard.push_sampled_record(FlowRecord {
                key: FlowKey { dst_ip, ..r.key },
                interface: 0,
                ..r
            })
            .unwrap();
            if r.window_start < 18 * 300 {
                expect_bytes += r.bytes as f64;
                expect_packets += r.packets as f64;
            }
        }
        let accepted = shard.records_accepted();
        prop_assert_eq!(accepted + shard.dropped_out_of_window(), draws.len() as u64);
        if accepted == 0 {
            return Ok(());
        }
        let set = engine.merge(vec![shard]).unwrap().matrices;
        let got_bytes: f64 = set.bytes.totals().iter().sum();
        let got_packets: f64 = set.packets.totals().iter().sum();
        prop_assert!((got_bytes - expect_bytes).abs() < 1e-6 * (1.0 + expect_bytes));
        prop_assert!((got_packets - expect_packets).abs() < 1e-6 * (1.0 + expect_packets));
        // Flow counts never exceed record counts (dedup only reduces).
        let got_flows: f64 = set.flows.totals().iter().sum();
        prop_assert!(got_flows <= accepted as f64 + 1e-9);
        prop_assert!(got_flows >= 1.0);
    }

    #[test]
    fn lossy_decode_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        // The whole point of the lossy path: any byte soup off the wire is
        // either decoded or quarantined — never a panic, never uncounted.
        let mut q = odflow_flow::QuarantineStats::default();
        let decoded = netflow::decode_datagram_lossy(&bytes, &mut q);
        prop_assert_eq!(q.frames_offered, 1);
        prop_assert!(q.is_conserved(), "conservation violated: {:?}", q);
        match decoded {
            Some((hdr, recs)) => {
                prop_assert_eq!(q.frames_accepted, 1);
                prop_assert_eq!(q.frames_rejected(), 0);
                prop_assert_eq!(hdr.version, 5);
                prop_assert_eq!(recs.len() as u64, q.records_accepted);
            }
            None => {
                prop_assert_eq!(q.frames_accepted, 0);
                prop_assert_eq!(q.frames_rejected(), 1, "rejected frame in no class: {:?}", q);
            }
        }
    }

    /// The in-place kernel against the cursor decoder it replaced, over
    /// whatever a wire can deliver — valid frames (the record strategy
    /// draws plenty of implausible counters), truncations, single-bit
    /// flips, byte soup: the borrowed iterator yields exactly the oracle's
    /// records and leaves exactly its counters, `len()` is right before a
    /// single record is decoded, and an exact retransmit — whose records
    /// are never looked at — is counted all the same.
    #[test]
    fn in_place_decoder_matches_the_cursor_decoder(
        records in proptest::collection::vec(arb_record(), 0..70),
        engine in any::<u8>(),
        seq in any::<u32>(),
        damage in 0u8..4,
        at in any::<proptest::sample::Index>(),
        bit in 0u8..8,
        soup in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let mut frames = netflow::encode_datagrams(&records, 77, engine, 100, seq);
        if damage == 3 || frames.is_empty() {
            frames.push(soup);
        }
        for frame in &mut frames {
            match damage {
                1 => frame.truncate(at.index(frame.len() + 1)),
                2 if !frame.is_empty() => {
                    let byte = at.index(frame.len());
                    frame[byte] ^= 1 << bit;
                }
                _ => {}
            }
        }
        let mut expected = odflow_flow::QuarantineStats::default();
        let mut got = odflow_flow::QuarantineStats::default();
        let mut quality = odflow_flow::DataQuality::default();
        for frame in &frames {
            let oracle = cursor_oracle::decode_datagram_lossy(frame, &mut expected);
            let lent = netflow::decode_frame(frame, &mut got);
            prop_assert_eq!(got, expected);
            prop_assert_eq!(lent.is_some(), oracle.is_some());
            if let (Some((hdr, lent)), Some((oracle_hdr, oracle_records))) = (lent, oracle) {
                prop_assert_eq!(hdr, oracle_hdr);
                prop_assert_eq!(lent.len(), oracle_records.len());
                prop_assert_eq!(lent.collect::<Vec<FlowRecord>>(), oracle_records);
            }
            // Through admission, twice: the retransmit is recognized by
            // its header, handed out with no records, and counted.
            let before = quality.quarantine;
            let first = quality.admit_frame(frame).map(|(_, records)| records.map(Iterator::count));
            let once = quality.quarantine;
            let again = quality.admit_frame(frame).map(|(_, records)| records.map(Iterator::count));
            if let Some(fresh) = first {
                prop_assert_eq!(fresh, Some((once.records_accepted - before.records_accepted) as usize));
                prop_assert_eq!(again, Some(None));
            } else {
                prop_assert_eq!(again, None);
            }
            let mut twice = before;
            for _ in 0..2 {
                let _ = cursor_oracle::decode_datagram_lossy(frame, &mut twice);
            }
            prop_assert_eq!(quality.quarantine, twice);
        }
        prop_assert!(got.is_conserved());
    }

    #[test]
    fn corrupted_valid_frames_stay_conserved(
        records in proptest::collection::vec(arb_record(), 1..40),
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..8),
    ) {
        // Start from well-formed datagrams, then flip a handful of bytes:
        // whatever the corruption hits (version, count, counters, payload),
        // every frame still lands in accepted or exactly one quarantine
        // class.
        let records: Vec<FlowRecord> = records
            .into_iter()
            .map(|mut r| { r.router = 3; r.interface %= 65_536; r })
            .collect();
        let mut dgrams = netflow::encode_datagrams(&records, 99, 3, 100, 0);
        for (idx, val) in &flips {
            let d = &mut dgrams[0];
            let at = *idx as usize % d.len();
            d[at] ^= *val;
        }
        let mut q = odflow_flow::QuarantineStats::default();
        for d in &dgrams {
            let _ = netflow::decode_datagram_lossy(d, &mut q);
        }
        prop_assert_eq!(q.frames_offered, dgrams.len() as u64);
        prop_assert!(q.is_conserved(), "conservation violated: {:?}", q);
    }

    #[test]
    fn anonymization_idempotent_and_blockwise(addr in any::<u32>()) {
        let k = FlowKey::new(IpAddr(1), IpAddr(addr), 1, 2, Protocol::Udp);
        let once = k.with_anonymized_dst();
        let twice = once.with_anonymized_dst();
        prop_assert_eq!(once, twice);
        prop_assert_eq!(once.dst_ip.0 & 0x7FF, 0);
        prop_assert_eq!(once.dst_ip.0 >> 11, addr >> 11);
    }
}
