//! The checkpoint chain against its two references: the full state it
//! stands for (at every generation of a faulted stream, the chain on
//! disk folds to exactly the pipeline's complete image, late records and
//! sealed bins included) and the format's committed goldens (v1 to v4
//! files are refused by version, a v5 chain keeps loading and re-encodes
//! to its own bytes).

mod common;

use odflow_flow::netflow::encode_datagrams;
use odflow_flow::{
    FlowKey, FlowRecord, OdResolution, OdResolver, WatermarkState, LATENESS_HORIZON_BINS,
};
use odflow_gen::{FaultEvent, FaultKind, FaultSchedule, FaultStormStats, Scenario};
use odflow_net::IngressResolver;
use odflow_serve::{
    decode_state, encode_state, CheckpointError, CheckpointStore, PipelineState, TenantConfig,
    TenantCounters, TenantPipeline,
};
use odflow_subspace::DegradedReason;
use std::collections::BTreeSet;
use std::path::PathBuf;

const NUM_BINS: usize = 24;
const SEED: u64 = 20040519;

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("chain_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The bin the late exports re-export, and the bins they arrive in: six
/// and eleven bins late, on either side of the lateness horizon.
const LATE_BIN: usize = 4;
const LANDS_AT: usize = 10;
const REFUSED_AT: usize = 15;
const _: () = assert!(
    LANDS_AT - LATE_BIN <= LATENESS_HORIZON_BINS && REFUSED_AT - LATE_BIN > LATENESS_HORIZON_BINS
);

/// What both late exports carry: one router's records of [`LATE_BIN`].
fn late_export(scenario: &Scenario) -> Vec<FlowRecord> {
    let records: Vec<FlowRecord> = scenario
        .generator()
        .records_for_bin(LATE_BIN)
        .into_iter()
        .filter(|r| r.router == 0)
        .collect();
    assert!(!records.is_empty());
    records
}

/// The storm's fault mix over a 24-bin window, plus what makes bins
/// other than the closing one dirty: a short clock skew (records land
/// two bins ahead of their export) and the two late exports of
/// [`late_export`], while bins [`LANDS_AT`] and [`REFUSED_AT`] fill.
fn faulted_frames(scenario: &Scenario) -> Vec<Vec<u8>> {
    let mut events = FaultSchedule::storm(SEED, NUM_BINS).unwrap().events().to_vec();
    events.push(FaultEvent {
        kind: FaultKind::ClockSkew { secs: 600 },
        start_bin: 6,
        duration_bins: 2,
    });
    let schedule = FaultSchedule::new(SEED, events).unwrap();
    let generator = scenario.generator();
    let mut seqs = vec![0u32; scenario.topology.num_pops()];
    let mut stats = FaultStormStats::default();
    let mut frames = Vec::new();
    for bin in 0..NUM_BINS {
        let rendered = generator.frames_for_bin(bin, &mut seqs);
        frames.extend(schedule.apply_to_frames(bin, rendered, &mut stats));
        if bin == LANDS_AT || bin == REFUSED_AT {
            let export_secs = (bin * 300) as u32;
            let seq = 1_000_000 * bin as u32;
            frames.extend(encode_datagrams(&late_export(scenario), export_secs, 0, 100, seq));
        }
    }
    assert!(stats.bins_reordered > 0 && stats.frames_duplicated > 0, "{stats:?}");
    frames
}

fn tenant(scenario: &Scenario) -> TenantPipeline {
    let routes = scenario.plan.build_route_table(1.0).unwrap();
    let ingress = IngressResolver::synthetic(&scenario.topology);
    // Fit halfway: the chain sees the detector absent, whole (the fit, and
    // each complete record after it) and standing.
    let config = TenantConfig::abilene("t0", 0, NUM_BINS);
    TenantPipeline::new(config, &scenario.topology, ingress, routes).unwrap()
}

/// The `(OD, 5-tuple)` pairs a state holds for one bin.
fn bin_keys(state: &PipelineState, bin: usize) -> BTreeSet<(usize, FlowKey)> {
    let p = state.shard.num_od();
    let cells = state.shard.distinct[bin * p..(bin + 1) * p].iter().enumerate();
    cells.flat_map(|(od, keys)| keys.iter().map(move |&k| (od, k))).collect()
}

/// The `(OD, 5-tuple)` pairs `records` put into cells, as the tenant's
/// shard resolves them, each with a count of the records behind it.
fn resolved_pairs(
    scenario: &Scenario,
    records: &[FlowRecord],
) -> (BTreeSet<(usize, FlowKey)>, u64) {
    let routes = scenario.plan.build_route_table(1.0).unwrap();
    let ingress = IngressResolver::synthetic(&scenario.topology);
    let mut resolver = OdResolver::new(&scenario.topology, ingress, routes);
    let (mut pairs, mut landed) = (BTreeSet::new(), 0);
    for mut r in records.iter().copied() {
        r.key = r.key.with_anonymized_dst();
        if let OdResolution::Resolved { od_index } = resolver.resolve(&r) {
            pairs.insert((od_index, r.key));
            landed += 1;
        }
    }
    (pairs, landed)
}

/// Runs the faulted stream through a checkpointing tenant, comparing
/// disk against memory after every generation, and checks what the two
/// late exports did to [`LATE_BIN`]; returns both slot files.
fn chain_tracks_pipeline(tag: &str, scenario: &Scenario, frames: &[Vec<u8>]) -> [Vec<u8>; 2] {
    let store = CheckpointStore::new(scratch(tag), "t0");
    let mut pipeline = tenant(scenario);
    pipeline.set_checkpoint_store(store.clone(), None);
    let counters = pipeline.counters();
    let p = scenario.topology.num_od_pairs();
    // The late bin at each generation: its record count and the late
    // drops, its flow counts, its 5-tuples.
    let (mut generations, mut late_bin) = (0, Vec::new());
    for frame in frames {
        pipeline.ingest_frame(frame);
        let written = TenantCounters::get(&counters.checkpoints);
        if written == generations {
            continue;
        }
        assert_eq!(written, generations + 1, "at most one generation per frame here");
        generations = written;
        let loaded = store.load_newest();
        assert!(loaded.rejected.is_empty(), "generation {generations}: {:?}", loaded.rejected);
        let on_disk = loaded.state.expect("a generation was just made durable");
        let mut live = pipeline.export_state();
        assert_eq!(live.seq, on_disk.seq + 1, "the pipeline is already on the next generation");
        live.seq = on_disk.seq;
        assert!(
            encode_state(&on_disk) == encode_state(&live),
            "generation {generations}: the chain folded to another state than the pipeline's"
        );
        let flows = live.shard.flows[LATE_BIN * p..(LATE_BIN + 1) * p].to_vec();
        let point = (live.shard.bin_records[LATE_BIN], live.shard.dropped_late);
        late_bin.push((point, flows, bin_keys(&live, LATE_BIN)));
    }
    assert_eq!(TenantCounters::get(&counters.checkpoint_errors), 0);
    let completes = TenantCounters::get(&counters.checkpoint_complete);
    assert!(completes >= 2 && completes < generations / 2, "{completes} of {generations}");

    // The late bin across the generations: empty, its first frame, full
    // at its close, the export six bins late — and the one eleven bins
    // late, which changes nothing but the late count.
    let mut points: Vec<_> = late_bin.iter().map(|g| g.0).collect();
    points.dedup();
    let late = late_export(scenario);
    let (full, landed) = (points[2], points[3]);
    assert_eq!(points.len(), 5, "{points:?}");
    assert_eq!(points[4], (landed.0, late.len() as u64), "refused whole, bin untouched");
    // The export that lands dedups exactly: every resolvable record
    // counts again, and the 5-tuples join the bin's sets, which grow by
    // the ones they lacked only.
    let (pairs, resolved) = resolved_pairs(scenario, &late);
    assert_eq!(landed, (full.0 + resolved, 0));
    let at = |point| late_bin.iter().find(|g| g.0 == point).unwrap();
    let (before, after) = (&at(full).2, &at(landed).2);
    assert_eq!(after, &before.union(&pairs).copied().collect::<BTreeSet<_>>());
    assert_eq!(at(landed).1.iter().sum::<f64>(), after.len() as f64);
    // Sealed by the time the second export arrives: its rows stand, its
    // key sets are written empty.
    let sealed = late_bin.last().unwrap();
    assert!(sealed.2.is_empty() && sealed.1 == at(landed).1);

    let flush = pipeline.flush().unwrap();
    assert_eq!(flush.outcome.dropped_late, late.len() as u64);
    let masked = Some(DegradedReason::MaskedBin);
    assert!(flush.live_verdicts.iter().any(|v| v.degraded == masked), "the blackout masked a bin");
    store.slot_paths().map(|p| std::fs::read(p).unwrap())
}

#[test]
fn chain_folds_to_the_full_state_at_every_generation_of_a_faulted_stream() {
    let scenario = Scenario::paper_window(SEED, NUM_BINS).unwrap();
    let frames = faulted_frames(&scenario);
    let one = odflow_par::with_thread_limit(1, || chain_tracks_pipeline("t1", &scenario, &frames));
    let four = odflow_par::with_thread_limit(4, || chain_tracks_pipeline("t4", &scenario, &frames));
    assert!(one == four, "the bytes on disk do not depend on the thread limit");
}

fn golden(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data").join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `golden_v1.ckpt` is a slot file the last v1 build wrote (an 8-bin
/// tenant, detector fitted). This build must say so, not misparse it.
#[test]
fn golden_v1_file_is_refused_by_version() {
    let bytes = golden("golden_v1.ckpt");
    assert!(matches!(decode_state(&bytes), Err(CheckpointError::BadVersion(1))));
    let dir = scratch("golden_v1");
    let store = CheckpointStore::new(&dir, "golden");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(&store.slot_paths()[0], &bytes).unwrap();
    let out = store.load_newest();
    assert!(out.state.is_none());
    assert!(matches!(out.rejected[..], [(_, CheckpointError::BadVersion(1))]));
}

/// A committed slot file of format `version` — a complete record, then
/// three deltas — is refused by version: its first record alone, and as
/// the only slot a store holds.
fn chain_is_refused_by_version(version: u32) {
    let bytes = golden(&format!("golden_v{version}_chain.ckpt"));
    let spans = common::record_spans(&bytes);
    assert_eq!(spans.len(), 4, "a complete record, then three deltas");
    let refused =
        |e: &CheckpointError| matches!(e, CheckpointError::BadVersion(v) if *v == version);
    assert!(decode_state(&bytes[spans[0].clone()]).is_err_and(|e| refused(&e)));
    let dir = scratch(&format!("golden_v{version}"));
    let store = CheckpointStore::new(&dir, "golden");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(&store.slot_paths()[1], &bytes).unwrap();
    let out = store.load_newest();
    assert!(out.state.is_none());
    assert!(matches!(&out.rejected[..], [(_, e)] if refused(e)), "{:?}", out.rejected);
}

/// `golden_v2_chain.ckpt` is a slot file the last v2 build wrote (a
/// recovered 10-bin tenant's complete record and three deltas). Its head
/// carries neither the watermark's cap nor the late count, so this build
/// refuses it by version, as it does v1.
#[test]
fn golden_v2_chain_is_refused_by_version() {
    chain_is_refused_by_version(2);
}

/// `golden_v3_chain.ckpt` is a slot file the last v3 build wrote (the
/// recipe of `golden_v5_chain.ckpt` below). Its models carry the
/// eigenflows and unit column scales this build no longer keeps, so it is
/// refused by version, as v1 and v2 are; a tenant whose slot is refused
/// retrains from its training prefix.
#[test]
fn golden_v3_chain_is_refused_by_version() {
    chain_is_refused_by_version(3);
}

/// `golden_v4_chain.ckpt` is a slot file the last v4 build wrote (the
/// recipe of `golden_v5_chain.ckpt` below). Its detectors carry the refit
/// window this build no longer keeps, so it is refused by version, as v1
/// to v3 are; a tenant whose slot is refused retrains from its training
/// prefix.
#[test]
fn golden_v4_chain_is_refused_by_version() {
    chain_is_refused_by_version(4);
}

/// `golden_v5_chain.ckpt` is a slot file of this format, recorded as
/// every golden since v3: `Scenario::new(ScenarioConfig { seed: 20040519,
/// num_bins: 14, total_demand: 40.0, .. }, vec![])`, no anomalies;
/// `TenantConfig::abilene("golden", 0, 14)` with `train_bins` 6 and
/// `EigenMethod::RandomizedTruncated { oversample: 2, power_iters: 1,
/// seed: 5 }` (to keep the loadings small), checkpointing every bin
/// close. The frames are `frames_for_bin` per bin with running
/// per-router sequence numbers; after all of bin 10's frames, every
/// router re-exports its records of bins 1 and 7 (in that order) in one
/// `encode_datagrams` call stamped with bin 10's start, continuing its
/// sequence — bin 1 is sealed by then (refused and counted), bin 7 closed
/// but not sealed (landed). The tenant is dropped (killed) once
/// generation 8 is durable and restored from `load_newest`; replaying
/// from its cursor, it writes the complete record of generation 9 into
/// the other slot and the deltas of generations 10, 11 and 12 after it,
/// and that slot file is the golden. (The recipe reproduces
/// `golden_v4_chain.ckpt` byte for byte on the last v4 build.) Any build
/// that speaks version 5 must load it to generation 12 and re-encode its
/// first record to the same bytes; a change that cannot is a new version.
#[test]
fn golden_v5_chain_loads_and_its_first_record_reencodes_to_itself() {
    let bytes = golden("golden_v5_chain.ckpt");
    let spans = common::record_spans(&bytes);
    assert_eq!(spans.len(), 4, "a complete record, then three deltas");
    let first = &bytes[spans[0].clone()];
    let base = decode_state(first).unwrap();
    assert_eq!((base.seq, base.next_close), (9, 10));
    assert!(base.detector.is_some());
    assert!(encode_state(&base) == first, "the codec is canonical");
    assert!(
        matches!(decode_state(&bytes), Err(CheckpointError::Corrupt(_))),
        "a chain, not an image"
    );
    // Ten bins closed, the first two sealed: written without 5-tuples.
    let keys = |state: &PipelineState, bin: usize| bin_keys(state, bin).len();
    assert!((0..2).all(|b| keys(&base, b) == 0) && (2..10).all(|b| keys(&base, b) > 0));
    assert_eq!(base.shard.dropped_late, 0);

    let dir = scratch("golden_v5");
    let store = CheckpointStore::new(&dir, "golden");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(&store.slot_paths()[1], &bytes).unwrap();
    let out = store.load_newest();
    assert!(out.rejected.is_empty(), "{:?}", out.rejected);
    assert_eq!(out.slot, Some(1));
    let newest = out.state.unwrap();
    assert_eq!((newest.seq, newest.next_close), (12, 13));
    assert_eq!(newest.live_verdicts.len(), base.live_verdicts.len() + 3);
    assert_eq!(newest.detector.as_ref().unwrap().next_bin, base.detector.unwrap().next_bin + 3);
    assert!(newest.frames_ingested > base.frames_ingested);
    assert_eq!(newest.watermark, WatermarkState { secs: 3900, latest_record_secs: Some(3900) });
    assert_eq!(newest.shard.dropped_late, 31);
    assert_eq!(newest.shard.bin_records[1], base.shard.bin_records[1]);
    assert!(newest.shard.bin_records[7] > base.shard.bin_records[7]);
    assert!((0..5).all(|b| keys(&newest, b) == 0) && keys(&newest, 7) > 0);
}
