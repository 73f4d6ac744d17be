//! Property tests for the checkpoint codec: decoding is total (arbitrary
//! byte soup and bit-flipped valid checkpoints never panic — they are
//! rejected with the right error class) and encoding is a bijection on
//! valid states (byte-level round-trip identity for every component).
//! And the same for a chain, exhaustively: cut anywhere or with any one
//! bit flipped, a slot file loads to exactly the generation before the
//! damage. The other byte boundary a peer controls, the TCP envelope's
//! `MessageReader`, gets the same treatment: any chunking of a message
//! stream reassembles it exactly, and byte soup is refused with a typed
//! error while the buffer stays inside its stated bound.

use odflow_flow::{
    BinState, ExporterSeq, FlowKey, Protocol, QuarantineStats, ResolutionStats, ShardState,
    WatermarkState,
};
mod common;

use common::record_spans;
use odflow_gen::{Scenario, ScenarioConfig};
use odflow_linalg::Matrix;
use odflow_net::IpAddr;
use odflow_net::{AddressPlan, IngressResolver, Topology};
use odflow_serve::checkpoint::fnv1a64;
use odflow_serve::wire::{
    encode_message, MessageReader, OversizedMessage, MAX_MESSAGE_LEN, MESSAGE_PREFIX_LEN,
};
use odflow_serve::{
    decode_state, encode_state, CheckpointError, CheckpointStore, PipelineState, TenantConfig,
    TenantCounters, TenantPipeline, CHECKPOINT_HEADER_LEN,
};
use odflow_subspace::{
    DegradedReason, Detection, DetectorState, EigenflowDecomposition, ModelState, StatisticKind,
    StreamVerdict, SubspaceConfig,
};
use proptest::prelude::*;

fn arb_key() -> impl Strategy<Value = FlowKey> {
    (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>(), any::<u8>()).prop_map(
        |(s, d, sp, dp, pr)| FlowKey::new(IpAddr(s), IpAddr(d), sp, dp, Protocol::from_number(pr)),
    )
}

/// Cell values as raw bit patterns, so the round-trip property covers
/// NaNs, infinities, subnormals, and negative zero — the codec carries
/// `f64::to_bits` images, never arithmetic.
fn arb_f64_bits() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

fn arb_exporter() -> impl Strategy<Value = (u8, ExporterSeq)> {
    (
        any::<u8>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u16>(),
        proptest::option::of(any::<u32>()),
        proptest::option::of((any::<u32>(), any::<u16>())),
    )
        .prop_map(|(id, frames, records, lost_flows, sampling, next_seq, last)| {
            (
                id,
                ExporterSeq {
                    frames,
                    records,
                    lost_flows,
                    sampling_lo: sampling,
                    sampling_hi: sampling,
                    next_seq,
                    last,
                    ..ExporterSeq::default()
                },
            )
        })
}

fn arb_verdict() -> impl Strategy<Value = StreamVerdict> {
    (
        0usize..1000,
        arb_f64_bits(),
        arb_f64_bits(),
        proptest::collection::vec((0usize..1000, any::<bool>(), arb_f64_bits()), 0..3),
        0u8..4,
        arb_f64_bits(),
    )
        .prop_map(|(bin, spe, t2, dets, deg, frac)| StreamVerdict {
            bin,
            spe,
            t2,
            detections: dets
                .into_iter()
                .map(|(dbin, is_t2, value)| Detection {
                    bin: dbin,
                    kind: if is_t2 { StatisticKind::T2 } else { StatisticKind::Spe },
                    value,
                    threshold: value,
                })
                .collect(),
            degraded: match deg {
                0 => None,
                1 => Some(DegradedReason::MaskedBin),
                2 => Some(DegradedReason::ImputedBin),
                _ => Some(DegradedReason::WidenedThreshold { imputed_fraction: frac }),
            },
        })
}

/// A full pipeline snapshot with a consistent shard shape (`bins` bins of
/// `od`-wide rows), arbitrary float bit patterns, and an optional small
/// detector.
fn arb_state() -> impl Strategy<Value = PipelineState> {
    (1usize..5, 1usize..5).prop_flat_map(|(bins, od)| {
        let cells = bins * od;
        (
            (
                any::<u64>(),
                any::<u64>(),
                0u64..1000,
                any::<u64>(),
                proptest::collection::vec(arb_f64_bits(), cells),
                proptest::collection::vec(arb_f64_bits(), cells),
                proptest::collection::vec(arb_f64_bits(), cells),
                proptest::collection::vec(proptest::collection::vec(arb_key(), 0..3), cells),
                proptest::collection::vec(any::<u64>(), bins),
            ),
            (
                any::<u64>(),
                proptest::collection::vec(any::<u64>(), 10),
                proptest::option::of(any::<u64>()),
                proptest::collection::vec(arb_exporter(), 0..4),
                proptest::collection::vec(arb_verdict(), 0..4),
                any::<bool>(),
                proptest::collection::vec(arb_f64_bits(), 16),
            ),
        )
            .prop_map(
                move |(
                    (
                        seq,
                        frames_ingested,
                        next_close,
                        watermark,
                        bytes,
                        packets,
                        flows,
                        distinct,
                        bin_records,
                    ),
                    (
                        records_accepted,
                        counts,
                        latest_record_secs,
                        exporters,
                        live_verdicts,
                        with_detector,
                        det_floats,
                    ),
                )| {
                    PipelineState {
                        seq,
                        frames_ingested,
                        next_close,
                        watermark: WatermarkState { secs: watermark, latest_record_secs },
                        shard: ShardState {
                            bins: (bin_records.iter().enumerate())
                                .map(|(bin, &records)| {
                                    let row = bin * od..(bin + 1) * od;
                                    BinState {
                                        bin,
                                        records,
                                        bytes: bytes[row.clone()].to_vec(),
                                        packets: packets[row.clone()].to_vec(),
                                        flows: flows[row.clone()].to_vec(),
                                        distinct: distinct[row].to_vec(),
                                    }
                                })
                                .collect(),
                            records_accepted,
                            resolution: ResolutionStats {
                                flows_total: counts[0],
                                flows_resolved: counts[1],
                                bytes_total: counts[2],
                                bytes_resolved: counts[3],
                                transit_skipped: counts[4],
                            },
                            dropped_out_of_window: counts[5],
                            dropped_late: counts[9],
                        },
                        quarantine: QuarantineStats {
                            frames_offered: counts[6],
                            frames_accepted: counts[7],
                            records_offered: counts[8],
                            ..QuarantineStats::default()
                        },
                        exporters,
                        detector: with_detector.then(|| small_detector(&det_floats)),
                        live_verdicts,
                    }
                },
            )
    })
}

/// A structurally valid 2-flow/2-component detector built from 16
/// arbitrary float bit patterns — exercises the model codec
/// without needing a real fit.
fn small_detector(f: &[f64]) -> DetectorState {
    DetectorState {
        model: ModelState {
            decomp: EigenflowDecomposition {
                loadings: Matrix::from_vec(2, 2, f[4..8].to_vec()).unwrap(),
                singular_values: f[8..10].to_vec(),
                means: f[10..12].to_vec(),
                n: 2,
                total_energy: f[14],
            },
            config: SubspaceConfig::default(),
            p: 2,
            spe_threshold: f[15],
            t2_threshold: f[0],
            degenerate_residual: false,
        },
        next_bin: 7,
    }
}

/// Structural (not semantic) equality of two snapshots, via the
/// canonical encoding — the codec is deterministic, so byte equality of
/// re-encodings is component-wise identity.
fn assert_same_bytes(a: &PipelineState, b: &PipelineState) {
    assert_eq!(encode_state(a), encode_state(b));
}

/// One reassembled `(tenant, frame)` message.
type Message = (u8, Vec<u8>);

/// Feeds `stream` to a fresh [`MessageReader`] in the chunks `cuts` mark,
/// draining after every chunk as a connection handler does. Returns the
/// messages, the framing error that ended the connection (if any), and
/// the most the reader held once drained.
fn read_chunked(
    stream: &[u8],
    cuts: &[proptest::sample::Index],
) -> (Vec<Message>, Option<OversizedMessage>, usize) {
    let mut ends: Vec<usize> = cuts.iter().map(|c| c.index(stream.len() + 1)).collect();
    ends.push(stream.len());
    ends.sort_unstable();
    let (mut reader, mut got, mut held, mut from) = (MessageReader::new(), Vec::new(), 0, 0);
    for to in ends {
        reader.extend(&stream[from..to]);
        from = to;
        loop {
            match reader.next_message() {
                Ok(Some((tenant, frame))) => got.push((tenant, frame.to_vec())),
                Ok(None) => break,
                Err(e) => return (got, Some(e), held),
            }
        }
        held = held.max(reader.buffered());
    }
    (got, None, held)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary byte soup never panics the decoder and never decodes:
    /// a random prefix can't fake an FNV-checksummed payload.
    #[test]
    fn byte_soup_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        prop_assert!(decode_state(&bytes).is_err());
    }

    /// Byte soup behind a valid header prefix exercises the payload
    /// decoder paths and still must reject (checksum first).
    #[test]
    fn byte_soup_with_magic_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut framed = b"ODFCKPT\0\x03\x00\x00\x00".to_vec();
        framed.extend_from_slice(&bytes);
        prop_assert!(decode_state(&framed).is_err());
    }

    /// Every single-bit flip of a valid checkpoint is rejected with a
    /// typed error — never a panic, never a silently-wrong decode.
    #[test]
    fn bit_flips_are_always_detected(
        state in arb_state(),
        flip in any::<proptest::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut bytes = encode_state(&state);
        let at = flip.index(bytes.len());
        bytes[at] ^= 1 << bit;
        let err = decode_state(&bytes).expect_err("flipped checkpoint must be rejected");
        prop_assert!(
            matches!(
                err,
                CheckpointError::Truncated { .. }
                    | CheckpointError::BadMagic
                    | CheckpointError::BadVersion(_)
                    | CheckpointError::BadChecksum { .. }
                    | CheckpointError::Corrupt(_)
            ),
            "unexpected error class: {err}"
        );
    }

    /// Truncation at any point is rejected (torn-write simulation).
    #[test]
    fn truncations_are_always_detected(
        state in arb_state(),
        cut in any::<proptest::sample::Index>(),
    ) {
        let bytes = encode_state(&state);
        let keep = cut.index(bytes.len());
        prop_assert!(decode_state(&bytes[..keep]).is_err());
    }

    /// encode → decode → encode is the identity on bytes, for every
    /// state component including non-finite float bit patterns.
    #[test]
    fn roundtrip_is_identity(state in arb_state()) {
        let bytes = encode_state(&state);
        let decoded = decode_state(&bytes).expect("canonical encoding must decode");
        assert_same_bytes(&state, &decoded);
        // And spot-check the integer components directly, not just via
        // bytes (float-bearing components can't use `==`: the strategies
        // generate NaN bit patterns on purpose).
        prop_assert_eq!(decoded.seq, state.seq);
        prop_assert_eq!(decoded.frames_ingested, state.frames_ingested);
        prop_assert_eq!(decoded.watermark, state.watermark);
        prop_assert_eq!(decoded.shard.dropped_late, state.shard.dropped_late);
        let records = |s: &PipelineState| -> Vec<(usize, u64)> {
            s.shard.bins.iter().map(|b| (b.bin, b.records)).collect()
        };
        let distinct = |s: &PipelineState| -> Vec<Vec<Vec<FlowKey>>> {
            s.shard.bins.iter().map(|b| b.distinct.clone()).collect()
        };
        prop_assert_eq!(records(&decoded), records(&state));
        prop_assert_eq!(distinct(&decoded), distinct(&state));
        prop_assert_eq!(decoded.quarantine, state.quarantine);
        prop_assert_eq!(decoded.exporters, state.exporters);
        prop_assert_eq!(decoded.live_verdicts.len(), state.live_verdicts.len());
        prop_assert_eq!(decoded.detector.is_some(), state.detector.is_some());
    }
    /// However TCP chunks a valid message stream, the reader yields the
    /// same `(tenant, frame)` sequence and ends empty; and a length prefix
    /// over the bound behind it is a typed error carrying the declared
    /// length, never a partial message.
    #[test]
    fn any_chunking_of_a_message_stream_reassembles_it(
        messages in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..2000)),
            0..6,
        ),
        cuts in proptest::collection::vec(any::<proptest::sample::Index>(), 0..16),
        poison in proptest::option::of((any::<u8>(), MAX_MESSAGE_LEN as u32 + 1..=u32::MAX)),
        junk in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut stream: Vec<u8> =
            messages.iter().flat_map(|(tenant, frame)| encode_message(*tenant, frame)).collect();
        let (got, err, held) = read_chunked(&stream, &cuts);
        prop_assert_eq!(&got, &messages);
        prop_assert_eq!(err, None);
        prop_assert!(held < MESSAGE_PREFIX_LEN + MAX_MESSAGE_LEN);

        if let Some((tenant, declared)) = poison {
            stream.push(tenant);
            stream.extend_from_slice(&declared.to_be_bytes());
            stream.extend_from_slice(&junk);
            let (got, err, _) = read_chunked(&stream, &cuts);
            prop_assert_eq!(&got, &messages);
            prop_assert_eq!(err, Some(OversizedMessage { declared: declared as usize }));
        }
    }

    /// Byte soup shaped like the envelope — plausible and absurd length
    /// prefixes over payloads of unrelated size — never panics the reader,
    /// never makes it hold more than one bounded message, and only ever
    /// ends in the typed oversize error.
    #[test]
    fn envelope_soup_never_panics_or_overbuffers(
        segments in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), 0u8..4, proptest::collection::vec(any::<u8>(), 0..512)),
            0..40,
        ),
        cuts in proptest::collection::vec(any::<proptest::sample::Index>(), 0..16),
    ) {
        let mut stream = Vec::new();
        for (tenant, declared, shape, payload) in &segments {
            // Three prefixes in four land inside twice the bound, so the
            // reader resynchronizes on payload bytes again and again.
            let declared = if *shape == 0 { *declared } else { declared % (2 * MAX_MESSAGE_LEN as u32) };
            stream.push(*tenant);
            stream.extend_from_slice(&declared.to_be_bytes());
            stream.extend_from_slice(payload);
        }
        let (got, err, held) = read_chunked(&stream, &cuts);
        prop_assert!(held < MESSAGE_PREFIX_LEN + MAX_MESSAGE_LEN, "held {held} bytes");
        prop_assert!(got.iter().all(|(_, frame)| frame.len() <= MAX_MESSAGE_LEN));
        if let Some(e) = err {
            prop_assert!(e.declared > MAX_MESSAGE_LEN);
        }
    }
}

/// A real chain small enough to damage exhaustively: a 3-PoP mesh (9 OD
/// pairs), 9 thin bins, killed after five and recovered — so the slot
/// holds the recovered session's complete record (detector fitted) and
/// the deltas of the three bins it went on to close.
fn tiny_chain(store: &CheckpointStore) -> Vec<u8> {
    const BINS: usize = 9;
    let topology = Topology::synthetic_mesh(3).unwrap();
    let plan = AddressPlan::synthetic(&topology);
    let config = ScenarioConfig { num_bins: BINS, total_demand: 12.0, ..Default::default() };
    let scenario = Scenario::with_network(config, topology, plan, vec![1.0; 3], vec![]).unwrap();
    let build = |state: Option<&PipelineState>| {
        let routes = scenario.plan.build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&scenario.topology);
        let mut config = TenantConfig::abilene("tiny", 0, BINS);
        config.train_bins = 3;
        match state {
            None => TenantPipeline::new(config, &scenario.topology, ingress, routes),
            Some(state) => TenantPipeline::restore(
                config,
                &scenario.topology,
                ingress,
                routes,
                state,
                std::sync::Arc::new(TenantCounters::default()),
            ),
        }
        .unwrap()
    };
    let generator = scenario.generator();
    let mut seqs = vec![0u32; scenario.topology.num_pops()];
    let frames: Vec<Vec<u8>> =
        (0..BINS).flat_map(|b| generator.frames_for_bin(b, &mut seqs)).collect();
    let bin_of = |f: &Vec<u8>| u32::from_be_bytes([f[8], f[9], f[10], f[11]]) as usize / 300;

    store.reset().unwrap();
    let mut first = build(None);
    first.set_checkpoint_store(store.clone(), None);
    for f in frames.iter().filter(|f| bin_of(f) < 5) {
        first.ingest_frame(f);
    }
    drop(first);
    let loaded = store.load_newest();
    let state = loaded.state.expect("the first session left a generation");
    let mut second = build(Some(&state));
    second.set_checkpoint_store(store.clone(), loaded.slot);
    for f in &frames[usize::try_from(state.frames_ingested).unwrap()..] {
        second.ingest_frame(f);
    }
    let newest = store.load_newest();
    assert!(newest.rejected.is_empty());
    std::fs::read(&store.slot_paths()[newest.slot.unwrap()]).unwrap()
}

#[test]
fn damaged_chain_loads_to_exactly_the_generation_before_the_damage() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fuzz_chain");
    let store = CheckpointStore::new(&dir, "tiny");
    let chain = tiny_chain(&store);
    let spans = record_spans(&chain);
    assert!(spans.len() >= 4, "a complete record and three deltas: {spans:?}");
    assert!(chain.len() < 16 * 1024, "small enough to mutate at every byte: {}", chain.len());

    // Load a candidate slot image; both slots hold it in turn so neither
    // is privileged, the other staying empty.
    store.reset().unwrap();
    let [slot, _] = store.slot_paths();
    let load = |bytes: &[u8]| -> Option<Vec<u8>> {
        std::fs::write(&slot, bytes).unwrap();
        store.load_newest().state.map(|s| encode_state(&s))
    };
    // The image of every generation of the chain, by folding its prefixes.
    let generations: Vec<Vec<u8>> =
        spans.iter().map(|s| load(&chain[..s.end]).expect("an intact prefix loads")).collect();
    for pair in generations.windows(2) {
        assert!(pair[0] != pair[1], "every generation differs from the one before");
    }
    // What survives damage inside record `k`: the generation before it.
    let before = |k: usize| k.checked_sub(1).map(|g| &generations[g]);

    for cut in 0..chain.len() {
        let k = spans.iter().position(|s| cut < s.end).unwrap();
        assert!(load(&chain[..cut]).as_ref() == before(k), "cut at {cut}, inside record {k}");
    }
    let mut damaged = chain.clone();
    for at in 0..chain.len() {
        let k = spans.iter().position(|s| at < s.end).unwrap();
        for bit in 0..8 {
            damaged[at] ^= 1 << bit;
            assert!(load(&damaged).as_ref() == before(k), "bit {bit} of byte {at}, record {k}");
            damaged[at] ^= 1 << bit;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checksum vouches for the bytes, not for what they claim: every
/// 8-byte field of a record overwritten with an absurd count, checksum
/// made good again, must decode (it was a plain counter) or be refused —
/// from the bytes present alone, not by trying the allocation it names.
#[test]
fn absurd_lengths_behind_a_valid_checksum_are_refused_without_allocating() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fuzz_lengths");
    let store = CheckpointStore::new(&dir, "tiny");
    let chain = tiny_chain(&store);
    let spans = record_spans(&chain);
    let (first, last) = (spans[0].clone(), spans[spans.len() - 1].clone());
    let mut refused = 0;
    for span in [first, last] {
        let record = &chain[span];
        for at in CHECKPOINT_HEADER_LEN..record.len() - 8 {
            for absurd in [u64::MAX, 1 << 60, 1 << 40] {
                let mut forged = record.to_vec();
                forged[at..at + 8].copy_from_slice(&absurd.to_le_bytes());
                let sum = fnv1a64(&forged[CHECKPOINT_HEADER_LEN..]);
                forged[20..CHECKPOINT_HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
                refused += usize::from(decode_state(&forged).is_err());
            }
        }
    }
    assert!(refused > 0);
    let _ = std::fs::remove_dir_all(&dir);
}
