//! The checkpoint chain against its two references: the full state it
//! stands for (at every generation of a faulted stream, the chain on
//! disk folds to exactly the pipeline's complete image) and the format's
//! committed goldens (a v1 file is refused by version, a v2 chain keeps
//! loading and re-encodes to its own bytes).

mod common;

use odflow_flow::netflow::encode_datagrams;
use odflow_gen::{FaultEvent, FaultKind, FaultSchedule, FaultStormStats, Scenario};
use odflow_net::IngressResolver;
use odflow_serve::{
    decode_state, encode_state, CheckpointError, CheckpointStore, TenantConfig, TenantCounters,
    TenantPipeline,
};
use std::path::PathBuf;

const NUM_BINS: usize = 24;
const SEED: u64 = 20040519;

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("chain_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The storm's fault mix over a 24-bin window, plus what makes bins
/// other than the closing one dirty: a short clock skew (records land
/// two bins ahead of their export) and two late exports (bin 4's
/// records of one router arriving while bins 10 and 15 fill).
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
        if bin == 10 || bin == 15 {
            let late: Vec<_> =
                generator.records_for_bin(4).into_iter().filter(|r| r.router == 0).collect();
            assert!(!late.is_empty());
            let export_secs = (bin * 300) as u32;
            let seq = 1_000_000 * bin as u32;
            for frame in encode_datagrams(&late, export_secs, 0, 100, seq) {
                frames.push(frame.to_vec());
            }
        }
    }
    assert!(stats.bins_reordered > 0 && stats.frames_duplicated > 0, "{stats:?}");
    frames
}

fn tenant(scenario: &Scenario) -> TenantPipeline {
    let routes = scenario.plan.build_route_table(1.0).unwrap();
    let ingress = IngressResolver::synthetic(&scenario.topology);
    let mut config = TenantConfig::abilene("t0", 0, NUM_BINS);
    // Fit halfway, then refit every third clean bin: the chain sees the
    // detector absent, whole (fit, refit) and as a window update.
    config.refit_every = 3;
    TenantPipeline::new(config, &scenario.topology, ingress, routes).unwrap()
}

/// Runs the faulted stream through a checkpointing tenant, comparing
/// disk against memory after every generation; returns both slot files.
fn chain_tracks_pipeline(tag: &str, scenario: &Scenario, frames: &[Vec<u8>]) -> [Vec<u8>; 2] {
    let store = CheckpointStore::new(scratch(tag), "t0");
    let mut pipeline = tenant(scenario);
    pipeline.set_checkpoint_store(store.clone(), None);
    let counters = pipeline.counters();
    let (mut generations, mut late_bin_records) = (0, Vec::new());
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
        late_bin_records.push(live.shard.bin_records[4]);
        assert!(
            encode_state(&on_disk) == encode_state(&live),
            "generation {generations}: the chain folded to another state than the pipeline's"
        );
    }
    assert_eq!(TenantCounters::get(&counters.checkpoint_errors), 0);
    let completes = TenantCounters::get(&counters.checkpoint_complete);
    assert!(completes >= 2 && completes < generations / 2, "{completes} of {generations}");
    // Bin 4 across the generations: empty, its first frame, full at its
    // close — and then the two late exports, long after.
    late_bin_records.dedup();
    assert_eq!(late_bin_records.len(), 5, "bin 4 grew twice after closing: {late_bin_records:?}");
    let flush = pipeline.flush().unwrap();
    assert!(flush.live_verdicts.iter().any(|v| !v.is_scored()), "the blackout masked a bin");
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

/// `golden_v2_chain.ckpt` is a slot file of this format: the complete
/// record a recovered 10-bin tenant (fitted at bin 3, randomized
/// truncated backend to keep the loadings small) wrote as generation 4,
/// then the deltas of generations 5, 6 and 7. Any build that speaks
/// version 2 must load it to generation 7 and re-encode its first record
/// to the same bytes; a change that cannot is a new version.
#[test]
fn golden_v2_chain_loads_and_its_first_record_reencodes_to_itself() {
    let bytes = golden("golden_v2_chain.ckpt");
    let spans = common::record_spans(&bytes);
    assert_eq!(spans.len(), 4, "a complete record, then three deltas");
    let first = &bytes[spans[0].clone()];
    let base = decode_state(first).unwrap();
    assert_eq!(base.seq, 4);
    assert!(base.detector.is_some());
    assert!(encode_state(&base) == first, "the codec is canonical");
    assert!(
        matches!(decode_state(&bytes), Err(CheckpointError::Corrupt(_))),
        "a chain, not an image"
    );

    let dir = scratch("golden_v2");
    let store = CheckpointStore::new(&dir, "golden");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(&store.slot_paths()[1], &bytes).unwrap();
    let out = store.load_newest();
    assert!(out.rejected.is_empty(), "{:?}", out.rejected);
    assert_eq!(out.slot, Some(1));
    let newest = out.state.unwrap();
    assert_eq!((newest.seq, newest.next_close), (7, 8));
    assert_eq!(newest.live_verdicts.len(), base.live_verdicts.len() + 3);
    assert_eq!(newest.detector.unwrap().next_bin, base.detector.unwrap().next_bin + 3);
    assert!(newest.frames_ingested > base.frames_ingested);
}
