//! Loopback end-to-end tests: the daemon's drained end state must be
//! byte-identical to the batch `run_scenario` path, and its backpressure
//! must shed deterministically with exact accounting.
//!
//! Frames travel over real sockets (TCP for the equivalence tests —
//! ordered and reliable, so the trailing drain control is a precise
//! end-of-input barrier). The batch side is computed under explicit
//! `ODFLOW_THREADS` limits of 1 and 4; the daemon's per-tenant path is
//! serial by construction, so all three must agree bit for bit.

mod common;

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
    let (report, ()) = common::with_daemon(daemon, |_| {
        let report = replay_scenario(scenario, addr, &LoadGenConfig::new(Transport::Tcp)).unwrap();
        assert!(report.drain_sent);
    });
    (report, counters)
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
    let (report, sent) = common::with_daemon(daemon, |_| {
        replay_scenario(&scenario, addr, &LoadGenConfig::new(Transport::Tcp)).unwrap().frames_sent
    });

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
    common::with_daemon(daemon, |handle| {
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
    common::with_daemon(daemon, |handle| {
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
}

/// Runs `probe` against the metrics endpoint of a bound, running daemon,
/// then drains it.
fn with_metrics_endpoint(probe: impl FnOnce(std::net::SocketAddr)) {
    let scenario = Scenario::paper_window(5, 6).unwrap();
    let daemon = Daemon::bind(ServeConfig {
        metrics_bind: Some("127.0.0.1:0".to_owned()),
        tenants: vec![abilene_spec(6, &scenario)],
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = daemon.metrics_addr().unwrap();
    common::with_daemon(daemon, |handle| {
        probe(addr);
        handle.drain();
    });
}

/// splitmix64 from `state`: a seeded, dependency-free byte source.
fn splitmix64(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Sends `request`, closes the sending half, and returns whatever the
/// endpoint answers: nothing for a reaped client.
fn exchange(addr: std::net::SocketAddr, request: &[u8]) -> Vec<u8> {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
    let _ = stream.write_all(request);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    reply
}

/// The value of the daemon-wide counter `name` on a metrics page.
fn page_counter(page: &str, name: &str) -> u64 {
    let line = page.lines().find_map(|l| l.strip_prefix(name).and_then(|v| v.strip_prefix(' ')));
    line.unwrap_or_else(|| panic!("{name} missing from {page}")).parse().unwrap()
}

/// A well-formed scrape, which must get a 200: the reaped-client count
/// its page reports.
fn scrape_reaped(addr: std::net::SocketAddr) -> u64 {
    let page = String::from_utf8(exchange(addr, b"GET /metrics HTTP/1.0\r\n\r\n")).unwrap();
    assert!(page.starts_with("HTTP/1.0 200 OK"), "the next scrape is served: {page:?}");
    page_counter(&page, "odflow_serve_metrics_clients_reaped_total")
}

/// Byte soup of 0 to 2048 bytes, half of it carrying a header terminator
/// somewhere: the endpoint answers a 404 when the terminator lies within
/// its 1024-byte cap and reaps the client otherwise, never panics, and
/// serves the next well-formed scrape. A client that closes having sent
/// nothing is a health probe: no response, and no reap.
#[test]
fn metrics_reader_answers_or_reaps_byte_soup_of_any_length() {
    with_metrics_endpoint(|addr| {
        let mut next = splitmix64(0x0DF1_0C4B);
        let mut reaped = scrape_reaped(addr);
        let lens =
            [0, 1, 3, 4, 5, 17, 64, 255, 511, 1000, 1020, 1023, 1024, 1025, 1400, 2047, 2048];
        for (case, len) in lens.into_iter().enumerate() {
            let mut soup: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            if case % 2 == 1 && len >= 4 {
                let at = next() as usize % (len - 3);
                soup[at..at + 4].copy_from_slice(b"\r\n\r\n");
            }
            let answered = soup[..len.min(1024)].windows(4).any(|w| w == b"\r\n\r\n");
            let reply = exchange(addr, &soup);
            if !answered {
                assert!(reply.is_empty(), "{len} bytes: a reaped client gets no response");
            } else if len <= 1024 {
                assert!(reply.starts_with(b"HTTP/1.0 404"), "{len} bytes: not a scrape");
            } else {
                // Bytes past the cap stay unread, so the close may reset
                // the connection before the client reads the 404.
                assert!(reply.is_empty() || reply.starts_with(b"HTTP/1.0 404"), "{len} bytes");
            }
            let now = scrape_reaped(addr);
            let reap = !answered && len > 0;
            assert_eq!(now, reaped + u64::from(reap), "{len} bytes, case {case}");
            reaped = now;
        }
    });
}

/// A request over the 1024-byte cap, a client that hangs up before its
/// blank line, and one that trickles its request past the 250 ms
/// deadline are each reaped unanswered and counted, and the endpoint
/// serves the next well-formed scrape after each.
#[test]
fn metrics_reader_reaps_oversized_cut_short_and_trickled_requests() {
    with_metrics_endpoint(|addr| {
        let mut reaped = scrape_reaped(addr);
        let mut oversized = b"GET /metrics HTTP/1.0\r\nX-Pad: ".to_vec();
        oversized.resize(1100, b'a');
        oversized.extend_from_slice(b"\r\n\r\n");
        assert!(exchange(addr, &oversized).is_empty(), "over the cap: reaped");
        reaped += 1;
        assert_eq!(scrape_reaped(addr), reaped);

        let mut cut = std::net::TcpStream::connect(addr).unwrap();
        cut.write_all(b"GET /metrics HTTP/1.0\r\n").unwrap();
        drop(cut);
        reaped += 1;
        assert_eq!(scrape_reaped(addr), reaped, "a client gone before its blank line");

        // 46 bytes 25 ms apart: the blank line would come ≈ 1.1 s in, long
        // after the deadline; writes fail once the endpoint has hung up.
        let request = b"GET /metrics HTTP/1.0\r\nUser-Agent: trickle\r\n\r\n";
        let mut slow = std::net::TcpStream::connect(addr).unwrap();
        slow.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
        for byte in request {
            if slow.write_all(std::slice::from_ref(byte)).is_err() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        let mut reply = Vec::new();
        let _ = slow.read_to_end(&mut reply);
        assert!(reply.is_empty(), "a trickled request is reaped, not answered");
        reaped += 1;
        assert_eq!(scrape_reaped(addr), reaped, "the trickle moved the reaped count");
    });
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
    let (report, sent) = common::with_daemon(daemon, |handle| {
        let frames = scenario.generator().export_frames();
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

        replay_scenario(&scenario, addr, &LoadGenConfig::new(Transport::Tcp)).unwrap().frames_sent
    });
    let counters = handle.tenant_counters(0).unwrap();
    assert_eq!(counters.frames_offered.load(std::sync::atomic::Ordering::SeqCst), sent);
    let TenantEnd::Flushed(flush) = &report.tenants[0] else {
        panic!("the tenant must flush");
    };
    assert_eq!(flush.outcome.quality.quarantine.frames_accepted, sent);
    let page = handle.metrics_text();
    assert!(page.contains("odflow_serve_tcp_truncated_streams_total 1"), "{page}");
    assert!(page.contains("odflow_serve_tcp_connections_total 2"));
    assert!(page.contains(&format!("odflow_serve_tcp_messages_total {}", sent + 1)));
    assert!(page.contains(&format!("odflow_serve_enqueue_latency_samples_total {sent}")));
}

/// Byte soup of 0 to 1 500 bytes at a bound daemon's UDP socket, seeded:
/// empty datagrams, unknown tenants, garbage on the control tenant and
/// mangled frames for the registered tenant. Every datagram moves
/// `udp_datagrams`, an empty one and control garbage move
/// `envelope_errors`, unknown tenants their own line, and the tenant's
/// frames quarantine class by class as the lossy decoder classes them —
/// nothing panics or restarts. A clean frame and a `/metrics` scrape are
/// served afterwards.
#[test]
fn udp_envelope_byte_soup_is_counted_and_quarantined_by_class() {
    use odflow_flow::netflow::decode_datagram_lossy;
    use odflow_flow::QuarantineStats;
    use odflow_serve::wire::{encode_datagram, CONTROL_TENANT};

    let scenario = Scenario::paper_window(11, 6).unwrap();
    let daemon = Daemon::bind(ServeConfig {
        udp_bind: Some("127.0.0.1:0".to_owned()),
        metrics_bind: Some("127.0.0.1:0".to_owned()),
        tenants: vec![abilene_spec(6, &scenario)],
        ..ServeConfig::default()
    })
    .unwrap();
    let (udp, metrics) = (daemon.udp_addr().unwrap(), daemon.metrics_addr().unwrap());
    let handle = daemon.handle();
    let counters = handle.tenant_counters(0).unwrap();
    let frames = scenario.generator().export_frames();
    let mut next = splitmix64(0x0DF1_0D6A);
    let mut soup = |len: usize| -> Vec<u8> { (0..len).map(|_| next() as u8).collect() };

    // The tenant's datagrams, mangled one way each in turn, from frames
    // other than the clean one sent last.
    let mut mangled = Vec::new();
    for case in 0..40usize {
        let base = &frames[1 + case];
        let pick = soup(8);
        let at = usize::from(pick[0]) | usize::from(pick[1]) << 8;
        let frame = match case % 5 {
            // Cut inside the 24-byte header.
            0 => base[..at % 24].to_vec(),
            // A version other than 5.
            1 => [&[pick[2], pick[3] | 0x80][..], &base[2..]].concat(),
            // Cut inside the records: fewer than the header's count.
            2 => base[..24 + at % (base.len() - 24)].to_vec(),
            // Trailing bytes past the header's count.
            3 => [&base[..], &soup(1 + at % 200)[..]].concat(),
            // Soup of any length up to a full datagram.
            _ => soup(at % 1_500),
        };
        mangled.push(frame);
    }
    let mut expected = QuarantineStats::default();
    for frame in &mangled {
        let _ = decode_datagram_lossy(frame, &mut expected);
    }
    assert!(
        [expected.truncated_header, expected.wrong_version, expected.truncated_frame]
            .iter()
            .chain([&expected.oversized_frame])
            .all(|&n| n >= 8),
        "every class is exercised: {expected:?}"
    );

    let mut datagrams = Vec::new();
    let (mut empty, mut unknown, mut control) = (0u64, 0u64, 0u64);
    for (case, frame) in mangled.iter().enumerate() {
        datagrams.push(encode_datagram(0, frame));
        match case % 3 {
            0 => {
                datagrams.push(Vec::new());
                empty += 1;
            }
            1 => {
                let tenant = 1 + soup(1)[0] % 0xFE;
                let len = usize::from(soup(1)[0]) * 6;
                datagrams.push(encode_datagram(tenant, &soup(len)));
                unknown += 1;
            }
            _ => {
                let len = 1 + usize::from(soup(1)[0]) * 5;
                datagrams.push(encode_datagram(CONTROL_TENANT, &soup(len)));
                control += 1;
            }
        }
    }
    let clean = &frames[0];
    let mut clean_stats = QuarantineStats::default();
    let (clean_hdr, _) = decode_datagram_lossy(clean, &mut clean_stats).unwrap();

    let (report, ()) = common::with_daemon(daemon, |handle| {
        let socket = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        let await_page = |what: &str, done: &dyn Fn(&str) -> bool| {
            let mut waited_ms = 0;
            loop {
                let page = handle.metrics_text();
                if done(&page) {
                    return page;
                }
                assert!(waited_ms < 10_000, "{what} never showed: {page}");
                std::thread::sleep(std::time::Duration::from_millis(1));
                waited_ms += 1;
            }
        };
        // One datagram at a time, each seen before the next is sent, so
        // the socket's receive queue never overflows.
        for (sent, datagram) in datagrams.iter().enumerate() {
            socket.send_to(datagram, udp).unwrap();
            let want = sent as u64 + 1;
            await_page("a datagram", &|p| {
                page_counter(p, "odflow_serve_udp_datagrams_total") == want
            });
        }
        let offered = mangled.len() as u64;
        let page = await_page("the tenant's frames", &|_| {
            TenantCounters::get(&counters.frames_quarantined) == expected.frames_rejected()
                && TenantCounters::get(&counters.frames_offered) == offered
        });
        assert_eq!(page_counter(&page, "odflow_serve_envelope_errors_total"), empty + control);
        assert_eq!(page_counter(&page, "odflow_serve_unknown_tenant_total"), unknown);
        assert_eq!(page_counter(&page, "odflow_serve_control_messages_total"), 0);

        let decoded = TenantCounters::get(&counters.records_decoded);
        socket.send_to(&encode_datagram(0, clean), udp).unwrap();
        let want = decoded + u64::from(clean_hdr.count);
        await_page("the clean frame's records", &|_| {
            TenantCounters::get(&counters.records_decoded) == want
        });
        let scrape = exchange(metrics, b"GET /metrics HTTP/1.0\r\n\r\n");
        let scrape = String::from_utf8(scrape).unwrap();
        assert!(scrape.starts_with("HTTP/1.0 200 OK"), "{scrape}");
        let want = datagrams.len() as u64 + 1;
        assert_eq!(page_counter(&scrape, "odflow_serve_udp_datagrams_total"), want);
        for line in ["restarts_total", "quarantined"] {
            assert!(scrape.contains(&format!("odflow_serve_tenant_{line}{{tenant=\"abilene\"}} 0")));
        }
        handle.drain();
    });
    let TenantEnd::Flushed(flush) = &report.tenants[0] else {
        panic!("the tenant must flush");
    };
    let q = &flush.outcome.quality.quarantine;
    assert!(q.is_conserved());
    let by_class = |q: &QuarantineStats| {
        [q.truncated_header, q.wrong_version, q.truncated_frame, q.oversized_frame]
    };
    assert_eq!(by_class(q), by_class(&expected));
    assert_eq!(q.frames_offered, expected.frames_offered + 1);
    assert_eq!(q.frames_accepted, expected.frames_accepted + 1);
}
