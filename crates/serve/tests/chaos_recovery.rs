//! Kill-point chaos tests: a daemon killed at *any* crash boundary and
//! recovered from its checkpoints must end byte-identical to an
//! uninterrupted run — matrices cell for cell, late records refused and
//! landed alike, verdict floats bit for bit — and to the batch wire path
//! over the same frames at `ODFLOW_THREADS` 1 and 4. A corrupted delta must cost exactly one generation, a
//! corrupted first record must fall back to the other slot's chain, a
//! second crash after a recovery must recover just the same, and a
//! persistently panicking tenant must be quarantined without disturbing
//! its neighbors.
//!
//! The harness is fully deterministic: crash points are injected by
//! [`CrashSchedule`], frames are pre-rendered once — with late re-exports
//! on both sides of every bin close, so every crash point falls between
//! late records — and replayed over real TCP, and the recovery replays
//! the exact unconsumed suffix `frames[cursor..]` reported by
//! [`TenantRecovery::frames_ingested`].

mod common;

use odflow_flow::netflow::encode_datagrams;
use odflow_flow::{FlowRecord, RepairPolicy, ShardedIngest, LATENESS_HORIZON_BINS};
use odflow_gen::Scenario;
use odflow_serve::wire;
use odflow_serve::{
    replay_frames, CheckpointStore, CrashPoint, CrashSchedule, Daemon, DaemonReport, LoadGenConfig,
    ServeConfig, TenantConfig, TenantCounters, TenantEnd, TenantFlush, TenantPipeline,
    TenantRecovery, TenantSpec, Transport, CONTROL_TENANT,
};
use odflow_subspace::{diagnose, Diagnosis, StatisticKind};
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

const NUM_BINS: usize = 36;
const SEED: u64 = 20040519;
/// The global bin index the panic tests fire at. Late enough that both
/// slots hold a chain (one generation per closed bin, several rebases),
/// early enough that a meaningful tail remains to replay after recovery.
/// The kill tests choose theirs by the kind of generation the bin
/// writes: [`delta_bin`] and [`complete_bin`].
const CRASH_BIN: usize = 27;

/// The bins whose generation is a complete record when the stream runs
/// uninterrupted from a fresh bind — where the chain rebases. Found by
/// running the tenant in-process: sizes, and so the schedule, are a
/// function of the frames alone.
fn rebase_bins() -> &'static [usize] {
    static BINS: OnceLock<Vec<usize>> = OnceLock::new();
    BINS.get_or_init(|| {
        let (scenario, frames, _) = shared();
        let spec = abilene_spec(scenario, None);
        let mut pipeline =
            TenantPipeline::new(spec.config, &spec.topology, spec.ingress, spec.routes).unwrap();
        pipeline.set_checkpoint_store(CheckpointStore::new(ckpt_dir("probe"), "abilene"), None);
        let counters = pipeline.counters();
        let (mut bins, mut seen) = (Vec::new(), 0);
        for frame in frames {
            pipeline.ingest_frame(frame);
            let completes = TenantCounters::get(&counters.checkpoint_complete);
            if completes > seen {
                seen = completes;
                bins.push(TenantCounters::get(&counters.bins_closed) as usize - 1);
            }
        }
        bins
    })
}

/// The last rebase comfortably before the end of the window: a bin
/// whose generation is a complete record, written into the other slot.
fn complete_bin() -> usize {
    let bins = rebase_bins();
    let bin = *bins.iter().rev().find(|&&b| b < NUM_BINS - 4).unwrap();
    assert!(bin > 8 && bins.len() >= 3, "both slots hold a chain by bin {bin}: {bins:?}");
    bin
}

/// A bin shortly before it whose generation is a delta, appended to a
/// chain already several records long.
fn delta_bin() -> usize {
    let bin = complete_bin() - 2;
    assert!(!rebase_bins().contains(&bin) && !rebase_bins().contains(&(bin - 1)));
    bin
}

/// The scenario, its pre-rendered frame stream, and one uninterrupted
/// baseline daemon run — shared across every test in the suite. The
/// baseline is the single most expensive artifact here (a full 36-bin
/// ingest-and-detect run), and every test compares against the *same*
/// bytes, so computing it once is free determinism-wise and pays for
/// itself several times over in wall clock.
fn shared() -> &'static (Scenario, Vec<Vec<u8>>, DaemonReport) {
    static SHARED: OnceLock<(Scenario, Vec<Vec<u8>>, DaemonReport)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let scenario = Scenario::paper_window(SEED, NUM_BINS).unwrap();
        let frames = render_frames(&scenario);
        let base = baseline_report(&frames, &scenario);
        (scenario, frames, base)
    })
}

fn abilene_spec(scenario: &Scenario, crash: Option<Arc<CrashSchedule>>) -> TenantSpec {
    let routes = scenario.plan.build_route_table(1.0).unwrap();
    let ingress = odflow_net::IngressResolver::synthetic(&scenario.topology);
    let mut config = TenantConfig::abilene("abilene", 0, NUM_BINS);
    config.crash = crash;
    // The unpaced loopback replay outruns the worker (fsync'd checkpoint
    // per bin close), so the queue must hold the whole rendered stream
    // (~5.6k frames at 36 bins): shed frames would make the runs
    // timing-dependent, and byte identity is exactly what this suite
    // asserts.
    config.queue_frames = 8192;
    TenantSpec { config, topology: scenario.topology.clone(), ingress, routes }
}

/// A fresh checkpoint directory under the cargo tmp root, unique per
/// test so parallel tests never share generations.
fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("chaos_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every export frame of the scenario, pre-rendered in the exact order
/// the load generator would send them (bins ascending, PoP order within
/// a bin, sequence continuity across bins) — plus, around the frame that
/// closes bin `b - 1` (the first of bin `b`), a late re-export on either
/// side of it. Each carries two records of bin `b - 2`, closed but not
/// sealed, which land, and — once there is one — two of a bin the
/// lateness rule has sealed, which are refused.
fn render_frames(scenario: &Scenario) -> Vec<Vec<u8>> {
    let generator = scenario.generator();
    let num_bins = scenario.config.num_bins;
    // The last PoP re-exports: its frames end each bin, so a re-export
    // just before bin `b`'s first frame, or one rendered before bin `b`,
    // keeps its flow sequence continuous.
    let pop = scenario.topology.num_pops() - 1;
    let kept: Vec<Vec<FlowRecord>> = (0..num_bins)
        .map(|b| {
            generator.records_for_bin(b).into_iter().filter(|r| r.router == pop).take(2).collect()
        })
        .collect();
    let late = |export_bin: usize, landed: usize, seq: &mut u32| {
        let sealed = export_bin.checked_sub(LATENESS_HORIZON_BINS + 1);
        let records: Vec<FlowRecord> =
            sealed.into_iter().chain([landed]).flat_map(|b| kept[b].iter().copied()).collect();
        let export_secs = (export_bin * 300) as u32;
        let frames = encode_datagrams(&records, export_secs, pop as u8, 100, *seq);
        *seq += records.len() as u32;
        frames
    };
    let mut seqs = vec![0u32; scenario.topology.num_pops()];
    let mut frames = Vec::new();
    for bin in 0..num_bins {
        if bin < 2 {
            frames.extend(generator.frames_for_bin(bin, &mut seqs));
            continue;
        }
        frames.extend(late(bin - 1, bin - 2, &mut seqs[pop]));
        let after = late(bin, bin - 2, &mut seqs[pop]);
        let mut rendered = generator.frames_for_bin(bin, &mut seqs).into_iter();
        frames.extend(rendered.next());
        frames.extend(after);
        frames.extend(rendered);
    }
    frames
}

/// Binds `config`, runs the daemon on a worker thread, and replays
/// `frames` into it over TCP with a trailing drain.
fn run_daemon(config: ServeConfig, frames: &[Vec<u8>]) -> DaemonReport {
    let daemon = Daemon::bind(config).unwrap();
    drive_daemon(daemon, frames)
}

fn drive_daemon(daemon: Daemon, frames: &[Vec<u8>]) -> DaemonReport {
    let addr = daemon.tcp_addr().unwrap();
    let (report, ()) = common::with_daemon(daemon, |_| {
        let report = replay_frames(frames, addr, &LoadGenConfig::new(Transport::Tcp)).unwrap();
        assert_eq!(report.frames_sent, frames.len() as u64);
        assert!(report.drain_sent);
    });
    report
}

/// Canonical byte encoding of a diagnosis (same scheme as the loopback
/// suite): floats as exact bits, discrete fields in fixed order.
fn canonical_verdict_bytes(d: &Diagnosis) -> Vec<u8> {
    let mut out = Vec::new();
    for (t, a) in &d.analyses {
        out.extend_from_slice(format!("{t:?};").as_bytes());
        for series in [&a.state_norm_sq, &a.spe, &a.t2] {
            for &v in series {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        for det in &a.detections {
            out.extend_from_slice(&det.bin.to_le_bytes());
            out.push(match det.kind {
                StatisticKind::Spe => 0,
                StatisticKind::T2 => 1,
            });
            out.extend_from_slice(&det.value.to_bits().to_le_bytes());
            out.extend_from_slice(&det.threshold.to_bits().to_le_bytes());
        }
    }
    out.extend_from_slice(format!("{:?}{:?}", d.triples, d.events).as_bytes());
    out
}

fn expect_flushed(end: &TenantEnd) -> &TenantFlush {
    let TenantEnd::Flushed(flush) = end else {
        panic!("tenant must flush, got {end:?}");
    };
    flush
}

/// The whole acceptance criterion in one place: matrices byte-identical,
/// quality accounting identical, diagnosis byte-identical, and the live
/// verdict stream float-bit identical.
fn assert_flush_equal(label: &str, a: &TenantFlush, b: &TenantFlush) {
    assert_eq!(
        a.outcome.matrices.bytes.data.as_slice(),
        b.outcome.matrices.bytes.data.as_slice(),
        "{label}: bytes matrices"
    );
    assert_eq!(
        a.outcome.matrices.packets.data.as_slice(),
        b.outcome.matrices.packets.data.as_slice(),
        "{label}: packets matrices"
    );
    assert_eq!(
        a.outcome.matrices.flows.data.as_slice(),
        b.outcome.matrices.flows.data.as_slice(),
        "{label}: flows matrices"
    );
    assert_eq!(a.outcome.quality.bin_records, b.outcome.quality.bin_records, "{label}: records");
    assert_eq!(a.outcome.quality.quarantine, b.outcome.quality.quarantine, "{label}: quarantine");
    assert_eq!(a.outcome.dropped_late, b.outcome.dropped_late, "{label}: late records");
    let (da, db) = (a.diagnosis.as_ref().unwrap(), b.diagnosis.as_ref().unwrap());
    assert_eq!(
        canonical_verdict_bytes(da),
        canonical_verdict_bytes(db),
        "{label}: batch diagnosis"
    );
    assert_eq!(a.live_verdicts.len(), b.live_verdicts.len(), "{label}: live verdict count");
    for (va, vb) in a.live_verdicts.iter().zip(&b.live_verdicts) {
        assert_eq!(va.bin, vb.bin, "{label}: verdict bin");
        assert_eq!(va.spe.to_bits(), vb.spe.to_bits(), "{label}: SPE bits, bin {}", va.bin);
        assert_eq!(va.t2.to_bits(), vb.t2.to_bits(), "{label}: T2 bits, bin {}", va.bin);
        assert_eq!(va.detections.len(), vb.detections.len(), "{label}: detections");
    }
}

/// The recovered flush must also match the *batch* wire path over the
/// same frames — datagram ingest, repair, diagnosis — bit for bit, at
/// explicit thread limits 1 and 4.
fn assert_matches_batch(label: &str, frames: &[Vec<u8>], flush: &TenantFlush) {
    let flush_bytes = canonical_verdict_bytes(flush.diagnosis.as_ref().unwrap());
    let spec = abilene_spec(&shared().0, None);
    let engine =
        ShardedIngest::new(spec.config.pipeline, &spec.topology, spec.ingress, spec.routes)
            .unwrap();
    for threads in [1usize, 4] {
        let (batch, diagnosis) = odflow_par::with_thread_limit(threads, || {
            let mut batch = engine.ingest_datagrams(frames).unwrap();
            batch.repair(RepairPolicy::default());
            let diagnosis = diagnose(&batch.matrices, spec.config.subspace).unwrap();
            (batch, diagnosis)
        });
        assert_eq!(
            flush.outcome.dropped_late, batch.dropped_late,
            "{label}: late, threads={threads}"
        );
        assert_eq!(
            flush.outcome.matrices.bytes.data.as_slice(),
            batch.matrices.bytes.data.as_slice(),
            "{label}: bytes matrices vs batch, threads={threads}"
        );
        assert_eq!(
            flush.outcome.matrices.packets.data.as_slice(),
            batch.matrices.packets.data.as_slice(),
            "{label}: packets matrices vs batch, threads={threads}"
        );
        assert_eq!(
            flush.outcome.matrices.flows.data.as_slice(),
            batch.matrices.flows.data.as_slice(),
            "{label}: flows matrices vs batch, threads={threads}"
        );
        assert_eq!(
            flush_bytes,
            canonical_verdict_bytes(&diagnosis),
            "{label}: diagnosis vs batch, threads={threads}"
        );
    }
}

/// Kills a daemon at `point`, recovers from the checkpoint directory,
/// replays the unconsumed suffix, and returns the recovery report plus
/// the recovered flush-end state.
fn kill_and_recover(
    tag: &str,
    point: CrashPoint,
    frames: &[Vec<u8>],
    scenario: &Scenario,
) -> (TenantRecovery, DaemonReport) {
    let dir = ckpt_dir(tag);
    let kill_report = run_daemon(
        ServeConfig {
            tcp_bind: Some("127.0.0.1:0".to_owned()),
            tenants: vec![abilene_spec(scenario, Some(CrashSchedule::kill_at(point)))],
            checkpoint_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
        frames,
    );
    let TenantEnd::Killed { name, point: died_at } = &kill_report.tenants[0] else {
        panic!("worker must die at the injected point, got {:?}", kill_report.tenants[0]);
    };
    assert_eq!(name, "abilene");
    assert_eq!(*died_at, point);

    // Recovery: a fresh daemon resumes from the newest valid generation
    // (no crash schedule this time) and replays the uncovered tail.
    let (daemon, mut recoveries) = Daemon::recover(
        ServeConfig {
            tcp_bind: Some("127.0.0.1:0".to_owned()),
            tenants: vec![abilene_spec(scenario, None)],
            ..ServeConfig::default()
        },
        &dir,
    )
    .unwrap();
    let recovery = recoveries.remove(0);
    let cursor = usize::try_from(recovery.frames_ingested).unwrap();
    assert!(cursor <= frames.len(), "cursor {cursor} beyond the stream");
    let report = drive_daemon(daemon, &frames[cursor..]);
    (recovery, report)
}

/// One uninterrupted daemon run to compare every recovery against.
fn baseline_report(frames: &[Vec<u8>], scenario: &Scenario) -> DaemonReport {
    let report = run_daemon(
        ServeConfig {
            tcp_bind: Some("127.0.0.1:0".to_owned()),
            tenants: vec![abilene_spec(scenario, None)],
            ..ServeConfig::default()
        },
        frames,
    );
    assert!(expect_flushed(&report.tenants[0]).outcome.quality.quarantine.is_conserved());
    report
}

/// Kill/recover at every crash boundary in the pipeline, once around a
/// bin whose generation is a delta and once around one whose generation
/// is a complete record; each recovery must be byte-identical to the
/// uninterrupted daemon *and* to the batch wire path at threads 1 and 4.
#[test]
fn kill_at_every_crash_point_recovers_byte_identical() {
    let (scenario, frames, base) = shared();
    let baseline = expect_flushed(&base.tenants[0]);
    // Pin the baseline itself to the batch path at threads 1 and 4 once;
    // each recovery below is asserted byte-equal to the baseline, and
    // byte equality is transitive, so every recovered run is thereby
    // byte-equal to batch at both thread counts without re-running the
    // batch pipeline per crash point.
    assert_matches_batch("baseline", frames, baseline);
    let late = baseline.outcome.dropped_late;
    assert!(late > 0 && late < 4 * NUM_BINS as u64, "{late} records refused as late");
    let mut points = vec![("flush".to_owned(), CrashPoint::BeforeFlush)];
    for (kind, bin) in [("delta", delta_bin()), ("complete", complete_bin())] {
        points.extend([
            (format!("{kind}_bin_close"), CrashPoint::BeforeBinClose(bin)),
            (format!("{kind}_before_ckpt"), CrashPoint::BeforeCheckpoint(bin)),
            (format!("{kind}_torn_ckpt"), CrashPoint::TornCheckpoint(bin)),
            (format!("{kind}_after_ckpt"), CrashPoint::AfterCheckpoint(bin)),
        ]);
    }
    for (tag, point) in points {
        let (recovery, report) = kill_and_recover(&tag, point, frames, scenario);
        let seq = recovery.resumed_seq.unwrap_or_else(|| panic!("{tag}: must resume a generation"));
        assert!(recovery.frames_ingested > 0, "{tag}: cursor must advance");
        // One generation per bin close from bin 0 on, so bin b's is seq b.
        match point {
            CrashPoint::TornCheckpoint(bin) => {
                // Half of the generation landed on disk — behind the
                // chain, or as the whole of the other slot; recovery must
                // have rejected it and resumed the generation before.
                assert_eq!(recovery.slots_rejected, 1, "{tag}: the torn record is rejected");
                assert_eq!(seq, bin as u64 - 1, "{tag}: previous generation");
            }
            CrashPoint::BeforeBinClose(bin) | CrashPoint::BeforeCheckpoint(bin) => {
                assert_eq!(recovery.slots_rejected, 0, "{tag}: no record may be rejected");
                assert_eq!(seq, bin as u64 - 1, "{tag}: this bin's generation never started");
            }
            CrashPoint::AfterCheckpoint(bin) => {
                assert_eq!(recovery.slots_rejected, 0, "{tag}: no record may be rejected");
                assert_eq!(seq, bin as u64, "{tag}: this bin's generation is durable");
            }
            CrashPoint::BeforeFlush => assert_eq!(recovery.slots_rejected, 0, "{tag}"),
        }
        let flush = expect_flushed(&report.tenants[0]);
        assert_flush_equal(&tag, baseline, flush);
    }
}

/// Kills a fresh checkpointing daemon right after `bin`'s generation is
/// durable and returns the checkpoint directory it left behind.
fn killed_after_checkpoint(tag: &str, bin: usize) -> PathBuf {
    let (scenario, frames, _) = shared();
    let dir = ckpt_dir(tag);
    let kill_report = run_daemon(
        ServeConfig {
            tcp_bind: Some("127.0.0.1:0".to_owned()),
            tenants: vec![abilene_spec(
                scenario,
                Some(CrashSchedule::kill_at(CrashPoint::AfterCheckpoint(bin))),
            )],
            checkpoint_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
        frames,
    );
    assert!(
        matches!(kill_report.tenants[0], TenantEnd::Killed { .. }),
        "expected Killed, got {:?}",
        kill_report.tenants[0]
    );
    dir
}

/// Recovers from `dir`, replays the uncovered tail, and checks the run
/// ends byte-identical to the uninterrupted one.
fn recover_and_finish(tag: &str, dir: &std::path::Path) -> TenantRecovery {
    let (scenario, frames, base) = shared();
    let (daemon, mut recoveries) = Daemon::recover(
        ServeConfig {
            tcp_bind: Some("127.0.0.1:0".to_owned()),
            tenants: vec![abilene_spec(scenario, None)],
            ..ServeConfig::default()
        },
        dir,
    )
    .unwrap();
    let recovery = recoveries.remove(0);
    let cursor = usize::try_from(recovery.frames_ingested).unwrap();
    let report = drive_daemon(daemon, &frames[cursor..]);
    assert_flush_equal(tag, expect_flushed(&base.tenants[0]), expect_flushed(&report.tenants[0]));
    recovery
}

/// The slot file holding the newest generation, and the byte range of
/// each record of its chain.
fn newest_chain(dir: &std::path::Path, seq: u64) -> (PathBuf, Vec<std::ops::Range<usize>>) {
    let store = CheckpointStore::new(dir, "abilene");
    let newest = store.load_newest();
    assert_eq!(newest.state.expect("a valid newest generation exists").seq, seq);
    let path = store.slot_paths()[newest.slot.unwrap()].clone();
    let spans = common::record_spans(&std::fs::read(&path).unwrap());
    (path, spans)
}

fn flip_bit(path: &std::path::Path, at: usize) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[at] ^= 0x01;
    std::fs::write(path, &bytes).unwrap();
}

/// Bit-flip the newest generation — a delta — after a kill: recovery
/// must classify it as corrupt, fall back exactly one generation, and
/// *still* end byte-identical.
#[test]
fn corrupted_newest_generation_recovers_from_previous_one() {
    let dir = killed_after_checkpoint("bitflip_delta", delta_bin());
    let (victim, spans) = newest_chain(&dir, delta_bin() as u64);
    let last = spans.last().unwrap();
    assert!(spans.len() > 1, "the newest generation is a delta behind a chain");
    flip_bit(&victim, last.start + last.len() / 2);

    let recovery = recover_and_finish("bitflip_delta", &dir);
    assert_eq!(recovery.slots_rejected, 1, "the flipped record must be rejected");
    assert_eq!(
        recovery.resumed_seq,
        Some(delta_bin() as u64 - 1),
        "recovery must fall back one generation"
    );
}

/// Bit-flip the *first* record of the newest chain: nothing in that slot
/// can be trusted, so recovery falls back to the other slot — the chain
/// that ends where the damaged one began — and still ends
/// byte-identical.
#[test]
fn corrupted_first_record_falls_back_to_the_other_slots_chain() {
    let dir = killed_after_checkpoint("bitflip_first", delta_bin());
    let (victim, spans) = newest_chain(&dir, delta_bin() as u64);
    flip_bit(&victim, spans[0].len() / 2);
    // The chain was started by the last rebase before the crash.
    let rebased_at = *rebase_bins().iter().rev().find(|&&b| b <= delta_bin()).unwrap();

    let recovery = recover_and_finish("bitflip_first", &dir);
    assert_eq!(recovery.slots_rejected, 1, "the whole slot is rejected, once");
    assert_eq!(
        recovery.resumed_seq,
        Some(rebased_at as u64 - 1),
        "recovery must resume the last generation of the other slot's chain"
    );
}

/// Kill, recover, and kill again two bins later — the second death lands
/// on the recovered session's own young chain, whose first record went
/// to the slot the first recovery did *not* resume from — then recover
/// once more: still byte-identical.
#[test]
fn double_crash_recovers_byte_identical() {
    let (scenario, frames, _) = shared();
    let dir = killed_after_checkpoint("double_crash", delta_bin());
    let second = CrashPoint::BeforeCheckpoint(delta_bin() + 2);
    let (daemon, mut recoveries) = Daemon::recover(
        ServeConfig {
            tcp_bind: Some("127.0.0.1:0".to_owned()),
            tenants: vec![abilene_spec(scenario, Some(CrashSchedule::kill_at(second)))],
            ..ServeConfig::default()
        },
        &dir,
    )
    .unwrap();
    let first = recoveries.remove(0);
    assert_eq!((first.resumed_seq, first.slots_rejected), (Some(delta_bin() as u64), 0));
    let cursor = usize::try_from(first.frames_ingested).unwrap();
    let report = drive_daemon(daemon, &frames[cursor..]);
    assert!(
        matches!(report.tenants[0], TenantEnd::Killed { point, .. } if point == second),
        "expected the second kill, got {:?}",
        report.tenants[0]
    );

    let recovery = recover_and_finish("double_crash", &dir);
    assert_eq!(recovery.slots_rejected, 0);
    assert_eq!(
        recovery.resumed_seq,
        Some(delta_bin() as u64 + 1),
        "one bin into the second session"
    );
}

/// A *panic* (not a kill) at the post-checkpoint boundary: the
/// supervisor restarts the worker in place from the just-written
/// generation against the surviving queue — no frame lost, no frame
/// double-counted — and the run still ends byte-identical.
#[test]
fn panicking_worker_restarts_from_checkpoint_and_stays_byte_identical() {
    let (scenario, frames, base) = shared();
    let baseline = expect_flushed(&base.tenants[0]);
    let dir = ckpt_dir("panic_restart");
    let daemon = Daemon::bind(ServeConfig {
        tcp_bind: Some("127.0.0.1:0".to_owned()),
        tenants: vec![abilene_spec(
            scenario,
            Some(CrashSchedule::panic_at(CrashPoint::AfterCheckpoint(CRASH_BIN))),
        )],
        checkpoint_dir: Some(dir),
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = daemon.handle();
    let report = drive_daemon(daemon, frames);
    let flush = expect_flushed(&report.tenants[0]);
    assert_flush_equal("panic_restart", baseline, flush);

    let counters = handle.tenant_counters(0).unwrap();
    let get = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::SeqCst);
    assert_eq!(get(&counters.restarts), 1, "exactly one supervised restart");
    assert_eq!(get(&counters.quarantined), 0, "a restarted tenant is not quarantined");
    assert!(get(&counters.checkpoints) > 0, "checkpoints were written");
}

/// A tenant that panics every time it reaches the same bin close makes
/// no progress across restarts and must be quarantined — while a second
/// tenant sharing the daemon flushes byte-identical, completely
/// undisturbed.
#[test]
fn persistently_panicking_tenant_quarantines_without_disturbing_neighbors() {
    let (scenario, frames, base) = shared();
    let baseline = expect_flushed(&base.tenants[0]);
    let dir = ckpt_dir("quarantine");
    let mut poison = abilene_spec(
        scenario,
        Some(CrashSchedule::panic_always_at(CrashPoint::BeforeBinClose(CRASH_BIN))),
    );
    poison.config.name = "poison".to_owned();
    let healthy = {
        let mut s = abilene_spec(scenario, None);
        s.config.name = "healthy".to_owned();
        s
    };
    let daemon = Daemon::bind(ServeConfig {
        tcp_bind: Some("127.0.0.1:0".to_owned()),
        tenants: vec![poison, healthy],
        checkpoint_dir: Some(dir),
        max_restarts: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = daemon.tcp_addr().unwrap();
    let handle = daemon.handle();
    let (report, ()) = common::with_daemon(daemon, |_| {
        // Interleave the same frame stream to both tenants on one TCP
        // connection, then drain.
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        for frame in frames {
            stream.write_all(&wire::encode_message(0, frame)).unwrap();
            stream.write_all(&wire::encode_message(1, frame)).unwrap();
        }
        stream.write_all(&wire::encode_message(CONTROL_TENANT, wire::CONTROL_DRAIN)).unwrap();
        stream.flush().unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
    });

    // Tenant 0 was quarantined after max_restarts+1 consecutive panics.
    let TenantEnd::Failed { name, reason } = &report.tenants[0] else {
        panic!("poison tenant must fail, got {:?}", report.tenants[0]);
    };
    assert_eq!(name, "poison");
    assert!(reason.contains("quarantined"), "reason must name the quarantine: {reason}");
    let counters = handle.tenant_counters(0).unwrap();
    let get = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::SeqCst);
    assert_eq!(get(&counters.restarts), 3, "max_restarts=2 allows exactly 3 panics");
    assert_eq!(get(&counters.quarantined), 1, "the quarantine gauge is raised");
    assert!(
        handle.metrics_text().contains("odflow_serve_tenant_quarantined{tenant=\"poison\"} 1"),
        "quarantine must be visible on /metrics"
    );

    // Tenant 1 never noticed: byte-identical to the uninterrupted run.
    let flush = expect_flushed(&report.tenants[1]);
    assert_eq!(flush.name, "healthy");
    assert_flush_equal("healthy neighbor", baseline, flush);
}
