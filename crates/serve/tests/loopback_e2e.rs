//! Loopback end-to-end tests: the daemon's drained end state must be
//! byte-identical to the batch `run_scenario` path, and its backpressure
//! must shed deterministically with exact accounting.
//!
//! Frames travel over real sockets (TCP for the equivalence tests —
//! ordered and reliable, so the trailing drain control is a precise
//! end-of-input barrier). The batch side is computed under explicit
//! `ODFLOW_THREADS` limits of 1 and 4; the daemon's per-tenant path is
//! serial by construction, so all three must agree bit for bit.

use odflow::experiment::{run_scenario, ExperimentConfig};
use odflow_gen::Scenario;
use odflow_net::IngressResolver;
use odflow_serve::{
    replay_scenario, Daemon, DaemonReport, LoadGenConfig, ServeConfig, TenantConfig,
    TenantCounters, TenantEnd, TenantSpec, Transport,
};
use odflow_subspace::{Diagnosis, StatisticKind};
use std::io::{Read, Write};
use std::sync::Arc;

const NUM_BINS: usize = 48;
const SEED: u64 = 20040519;

fn abilene_spec(num_bins: usize, scenario: &Scenario) -> TenantSpec {
    let routes = scenario.plan.build_route_table(1.0).unwrap();
    let ingress = IngressResolver::synthetic(&scenario.topology);
    let mut config = TenantConfig::abilene("abilene", 0, num_bins);
    // The replay is unpaced, so the queue holds the whole rendered stream
    // (~9k frames at 48 bins), as in the chaos suite: with the default
    // 1024 frames a debug-build worker that falls behind the sender sheds,
    // and the equivalence asserted here would depend on timing.
    config.queue_frames = 16_384;
    TenantSpec { config, topology: scenario.topology.clone(), ingress, routes }
}

/// Canonical byte encoding of a diagnosis: every float as exact bits,
/// every discrete field in a fixed order. Byte equality here *is* the
/// "per-bin verdicts byte-identical" acceptance criterion.
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

/// Runs a daemon on a worker thread while the caller replays `scenario`
/// into it over TCP with a trailing drain; returns the daemon report and
/// tenant 0's counters.
fn serve_roundtrip(
    scenario: &Scenario,
    config: ServeConfig,
) -> (DaemonReport, Arc<TenantCounters>) {
    let daemon = Daemon::bind(config).unwrap();
    let addr = daemon.tcp_addr().unwrap();
    let counters = daemon.handle().tenant_counters(0).unwrap();
    let mut slot: Option<DaemonReport> = None;
    let pool = scoped_pool::Pool::new(1);
    pool.scoped(|scope| {
        let slot_ref = &mut slot;
        scope.execute(move || {
            *slot_ref = Some(daemon.run());
        });
        let report = replay_scenario(scenario, addr, &LoadGenConfig::new(Transport::Tcp)).unwrap();
        assert!(report.drain_sent);
    });
    pool.shutdown();
    (slot.unwrap(), counters)
}

#[test]
fn loopback_daemon_matches_batch_run_scenario_at_threads_1_and_4() {
    let scenario = Scenario::paper_window(SEED, NUM_BINS).unwrap();
    let (report, counters) = serve_roundtrip(
        &scenario,
        ServeConfig {
            tcp_bind: Some("127.0.0.1:0".to_owned()),
            tenants: vec![abilene_spec(NUM_BINS, &scenario)],
            ..ServeConfig::default()
        },
    );
    let TenantEnd::Flushed(flush) = &report.tenants[0] else {
        panic!("tenant must flush: {:?}", report.tenants[0]);
    };
    // Clean loopback TCP: nothing shed, nothing quarantined, no gaps.
    assert!(flush.outcome.quality.quarantine.is_conserved());
    assert_eq!(flush.outcome.quality.quarantine.frames_offered, {
        flush.outcome.quality.quarantine.frames_accepted
    });
    assert_eq!(flush.outcome.quality.exporters.lost_flows_total(), 0);
    // Conservation at flush: every decoded record was accepted into a
    // cell, dropped outside the window, left unresolved, or refused late.
    let o = &flush.outcome;
    let decoded = TenantCounters::get(&counters.records_decoded);
    let accepted: u64 = o.quality.bin_records.iter().sum();
    let unresolved = o.stats.flows_total - o.stats.flows_resolved + o.stats.transit_skipped;
    assert_eq!(decoded, accepted + o.dropped_out_of_window + unresolved + o.dropped_late);
    assert_eq!(o.dropped_late, TenantCounters::get(&counters.records_late_dropped));
    assert!(decoded > accepted && unresolved > 0, "the paper's ~7 % goes unresolved");
    let daemon_diag = flush.diagnosis.as_ref().expect("flush diagnosis must run");
    let daemon_bytes = canonical_verdict_bytes(daemon_diag);

    for threads in [1usize, 4] {
        let batch = odflow_par::with_thread_limit(threads, || {
            run_scenario(&scenario, &ExperimentConfig::default()).unwrap()
        });
        assert_eq!(
            flush.outcome.matrices.bytes.data.as_slice(),
            batch.matrices.bytes.data.as_slice(),
            "bytes matrices, threads={threads}"
        );
        assert_eq!(
            flush.outcome.matrices.packets.data.as_slice(),
            batch.matrices.packets.data.as_slice(),
            "packets matrices, threads={threads}"
        );
        assert_eq!(
            flush.outcome.matrices.flows.data.as_slice(),
            batch.matrices.flows.data.as_slice(),
            "flows matrices, threads={threads}"
        );
        assert_eq!(
            daemon_bytes,
            canonical_verdict_bytes(&batch.diagnosis),
            "verdicts must be byte-identical to batch, threads={threads}"
        );
    }
    // The online detector scored the post-training tail along the way.
    assert_eq!(flush.live_verdicts.len(), NUM_BINS - NUM_BINS / 2);
}

#[test]
fn backpressure_sheds_beyond_capacity_and_accounts_exactly() {
    const CAPACITY: u64 = 8;
    let scenario = Scenario::paper_window(3, 6).unwrap();
    let mut spec = abilene_spec(6, &scenario);
    spec.config.queue_frames = CAPACITY as usize;
    spec.config.train_bins = 0;
    // Workers start paused (admission keeps running), so the queue fills
    // to capacity and every further frame is shed — deterministically,
    // because TCP delivers the frames in order and nobody consumes until
    // the trailing drain overrides the pause.
    let daemon = Daemon::bind(ServeConfig {
        tcp_bind: Some("127.0.0.1:0".to_owned()),
        tenants: vec![spec],
        start_paused: true,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = daemon.tcp_addr().unwrap();
    let handle = daemon.handle();
    let mut slot: Option<DaemonReport> = None;
    let mut sent = 0u64;
    let pool = scoped_pool::Pool::new(1);
    pool.scoped(|scope| {
        let slot_ref = &mut slot;
        scope.execute(move || {
            *slot_ref = Some(daemon.run());
        });
        let report = replay_scenario(&scenario, addr, &LoadGenConfig::new(Transport::Tcp)).unwrap();
        sent = report.frames_sent;
    });
    pool.shutdown();
    let report = slot.unwrap();

    let counters = handle.tenant_counters(0).unwrap();
    let get = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::SeqCst);
    let offered = get(&counters.frames_offered);
    let enqueued = get(&counters.frames_enqueued);
    let dropped = get(&counters.frames_dropped_backpressure);
    assert!(sent > CAPACITY, "the scenario must oversubscribe the queue (sent {sent})");
    assert_eq!(offered, sent, "every sent frame is offered");
    assert_eq!(enqueued, CAPACITY, "exactly the queue capacity is admitted");
    assert_eq!(dropped, offered - CAPACITY, "everything beyond capacity is shed");
    assert_eq!(offered, enqueued + dropped, "drop accounting must conserve");
    assert!(get(&counters.queue_depth_peak) <= CAPACITY, "the queue never grows past capacity");
    assert_eq!(get(&counters.queue_depth), 0, "the drain consumed the backlog");

    // The admitted prefix still flushes into a coherent (partial) window.
    let TenantEnd::Flushed(flush) = &report.tenants[0] else {
        panic!("a shed-but-nonempty window still flushes");
    };
    assert_eq!(flush.outcome.quality.quarantine.frames_offered, CAPACITY);
    let text = handle.metrics_text();
    assert!(text.contains(&format!(
        "odflow_serve_tenant_frames_dropped_backpressure_total{{tenant=\"abilene\"}} {dropped}"
    )));
}

#[test]
fn metrics_endpoint_serves_plain_text_counters() {
    let scenario = Scenario::paper_window(5, 6).unwrap();
    let daemon = Daemon::bind(ServeConfig {
        metrics_bind: Some("127.0.0.1:0".to_owned()),
        tenants: vec![abilene_spec(6, &scenario)],
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = daemon.metrics_addr().unwrap();
    let handle = daemon.handle();
    let pool = scoped_pool::Pool::new(1);
    pool.scoped(|scope| {
        scope.execute(move || {
            let _ = daemon.run();
        });
        let fetch = |path: &str| -> String {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
            stream.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes()).unwrap();
            let mut body = String::new();
            let _ = stream.read_to_string(&mut body);
            body
        };
        let page = fetch("/metrics");
        assert!(page.starts_with("HTTP/1.0 200 OK"));
        assert!(page.contains("text/plain"));
        assert!(page.contains("odflow_serve_tenant_frames_offered_total{tenant=\"abilene\"} 0"));
        assert!(page.contains("odflow_serve_tenant_queue_depth{tenant=\"abilene\"} 0"));
        let missing = fetch("/nope");
        assert!(missing.starts_with("HTTP/1.0 404"));
        handle.drain();
    });
    pool.shutdown();
}

/// A scraper that never finishes its request header is reaped — the
/// connection is dropped unanswered after the read deadline, the reap is
/// counted, and the endpoint then services a well-formed scrape
/// normally. Without the deadline this client would park the metrics
/// thread forever.
#[test]
fn stalled_metrics_client_is_reaped_not_serviced() {
    let scenario = Scenario::paper_window(5, 6).unwrap();
    let daemon = Daemon::bind(ServeConfig {
        metrics_bind: Some("127.0.0.1:0".to_owned()),
        tenants: vec![abilene_spec(6, &scenario)],
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = daemon.metrics_addr().unwrap();
    let handle = daemon.handle();
    let pool = scoped_pool::Pool::new(1);
    pool.scoped(|scope| {
        scope.execute(move || {
            let _ = daemon.run();
        });
        // Partial request: no terminating blank line, and the socket is
        // held open. The server must hang up on us, not wait forever.
        let mut stalled = std::net::TcpStream::connect(addr).unwrap();
        stalled.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        stalled.write_all(b"GET /metrics HTTP/1.0\r\n").unwrap();
        let mut leftovers = String::new();
        let _ = stalled.read_to_string(&mut leftovers);
        assert!(leftovers.is_empty(), "a reaped client gets no response, got: {leftovers:?}");
        drop(stalled);

        // The endpoint is free again: a complete request is serviced and
        // the reap shows up in the counters it reports.
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
        stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut page = String::new();
        let _ = stream.read_to_string(&mut page);
        assert!(page.starts_with("HTTP/1.0 200 OK"), "scrape after reap must succeed");
        assert!(page.contains("odflow_serve_metrics_clients_reaped_total 1"));
        handle.drain();
    });
    pool.shutdown();
}

/// A peer that hangs up mid-message loses bytes no frame counter can
/// see; the daemon counts the cut stream on its own line, offers nothing
/// of it to the tenant, and serves the next connection as if nothing had
/// happened.
#[test]
fn stream_cut_mid_message_is_counted_and_the_next_connection_is_served() {
    let scenario = Scenario::paper_window(7, 6).unwrap();
    let daemon = Daemon::bind(ServeConfig {
        tcp_bind: Some("127.0.0.1:0".to_owned()),
        tenants: vec![abilene_spec(6, &scenario)],
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = daemon.tcp_addr().unwrap();
    let handle = daemon.handle();
    let mut slot: Option<DaemonReport> = None;
    let mut sent = 0u64;
    let pool = scoped_pool::Pool::new(1);
    pool.scoped(|scope| {
        let slot_ref = &mut slot;
        scope.execute(move || {
            *slot_ref = Some(daemon.run());
        });
        let frames = scenario.generator().faulted_frames(None).0;
        let message = odflow_serve::wire::encode_message(0, &frames[0]);
        let mut cut = std::net::TcpStream::connect(addr).unwrap();
        cut.write_all(&message[..message.len() / 2]).unwrap();
        drop(cut);
        let truncated = "odflow_serve_tcp_truncated_streams_total 1";
        let mut waited_ms = 0;
        while !handle.metrics_text().contains(truncated) {
            assert!(waited_ms < 10_000, "the cut stream was never counted");
            std::thread::sleep(std::time::Duration::from_millis(1));
            waited_ms += 1;
        }
        let counters = handle.tenant_counters(0).unwrap();
        let offered = || counters.frames_offered.load(std::sync::atomic::Ordering::SeqCst);
        assert_eq!(offered(), 0, "half a message is no frame");

        let report = replay_scenario(&scenario, addr, &LoadGenConfig::new(Transport::Tcp)).unwrap();
        sent = report.frames_sent;
    });
    pool.shutdown();
    let counters = handle.tenant_counters(0).unwrap();
    assert_eq!(counters.frames_offered.load(std::sync::atomic::Ordering::SeqCst), sent);
    let TenantEnd::Flushed(flush) = &slot.unwrap().tenants[0] else {
        panic!("the tenant must flush");
    };
    assert_eq!(flush.outcome.quality.quarantine.frames_accepted, sent);
    let page = handle.metrics_text();
    assert!(page.contains("odflow_serve_tcp_truncated_streams_total 1"), "{page}");
    assert!(page.contains("odflow_serve_tcp_connections_total 2"));
    assert!(page.contains(&format!("odflow_serve_tcp_messages_total {}", sent + 1)));
    assert!(page.contains(&format!("odflow_serve_enqueue_latency_samples_total {sent}")));
}
