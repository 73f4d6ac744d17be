//! The three serve workloads: pre-rendered NetFlow v5 frames replayed
//! over a loopback TCP connection into a one-tenant [`Daemon`].
//!
//! Set-up builds the scenario, renders (and for the storm, mutates) every
//! frame, encodes the TCP messages, computes the reference digest through
//! the batch path, and binds the first daemon. A timed iteration starts
//! at the first byte written to the socket and ends when the daemon has
//! drained, flushed, and its output has been checked against the
//! reference. The program under test sees only the generated bytes.

use crate::stats;
use crate::trace::Tracer;
use crate::verify::Digest;
use crate::{Ctx, RunReport, Scale};
use odflow::flow::netflow::{decode_datagram_lossy, HEADER_LEN, RECORD_LEN};
use odflow::flow::{
    BinStatus, DataQuality, PipelineConfig, QuarantineStats, RepairPolicy, ShardedIngest,
    TrafficType,
};
use odflow::gen::{FaultEvent, FaultKind, FaultSchedule, FaultStormStats, Scenario};
use odflow::linalg::Matrix;
use odflow::net::{IngressResolver, RouteTable};
use odflow::subspace::{diagnose, OnlineDetector, SubspaceConfig};
use odflow_serve::wire::{self, MESSAGE_PREFIX_LEN};
use odflow_serve::{
    encode_state, BoundedQueue, CheckpointStore, Daemon, DaemonReport, MessageReader, ServeConfig,
    TenantConfig, TenantCounters, TenantEnd, TenantPipeline, TenantSpec, CONTROL_DRAIN,
    CONTROL_TENANT,
};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    Capacity,
    Storm,
    Checkpointed,
}

impl ServeKind {
    fn name(self) -> &'static str {
        match self {
            ServeKind::Capacity => crate::spec::SERVE_TCP_CAPACITY,
            ServeKind::Storm => crate::spec::SERVE_TCP_STORM,
            ServeKind::Checkpointed => crate::spec::SERVE_TCP_CHECKPOINTED,
        }
    }

    /// `(bins, total_demand)`. Sized on the 2-core reference box so an
    /// iteration takes about a second (see the README's sizing table);
    /// the smoke scale is what the unit tests run in the debug profile.
    fn sizing(self, scale: Scale) -> (usize, f64) {
        match (scale, self) {
            (Scale::Smoke, _) => (24, 800.0),
            (Scale::Full, ServeKind::Capacity) => (504, 3000.0),
            (Scale::Full, ServeKind::Storm) => (504, 3000.0),
            (Scale::Full, ServeKind::Checkpointed) => (96, 2000.0),
        }
    }

    /// Bursts (bins) the sender keeps in flight. The checkpointed workload
    /// is the strict closed loop: one bin. The other two bound the backlog
    /// at eight bins — about 8 ms of worker time, enough that the worker
    /// never idles behind the listener's 5 ms poll tick, yet far below the
    /// unbounded backlog of a blind replay, whose hundred-megabyte queue
    /// growth made identical runs differ by 15 % on the reference box.
    fn bins_in_flight(self) -> usize {
        match self {
            ServeKind::Checkpointed => 1,
            ServeKind::Capacity | ServeKind::Storm => 8,
        }
    }
}

/// Poll interval of the sender while it waits for a bin to settle: far
/// below a settle time (milliseconds), and a sleep rather than a spin so
/// the sender does not take a core from the daemon.
const SETTLE_POLL: Duration = Duration::from_micros(100);

/// A wait longer than this is a failed operation, not a slow one (a
/// checkpoint write error never raises the counter).
const SETTLE_DEADLINE: Duration = Duration::from_secs(30);

/// Every frame of the scenario in send order, already encoded as TCP
/// messages: one contiguous burst per bin plus an index of where each
/// frame's payload lies, so the walk can hand out `&[u8]` frames without
/// a second copy of the stream.
#[derive(Debug, Default)]
pub struct FrameStream {
    wire: Vec<Vec<u8>>,
    index: Vec<Vec<(usize, usize)>>,
}

impl FrameStream {
    fn push_bin(&mut self, frames: &[Vec<u8>]) {
        let mut burst =
            Vec::with_capacity(frames.iter().map(|f| f.len() + MESSAGE_PREFIX_LEN).sum());
        let mut index = Vec::with_capacity(frames.len());
        for frame in frames {
            index.push((burst.len() + MESSAGE_PREFIX_LEN, frame.len()));
            burst.extend_from_slice(&wire::encode_message(0, frame));
        }
        self.wire.push(burst);
        self.index.push(index);
    }

    pub fn num_bins(&self) -> usize {
        self.wire.len()
    }

    pub fn bin_frames(&self, bin: usize) -> impl Iterator<Item = &[u8]> {
        let burst = &self.wire[bin];
        self.index[bin].iter().map(move |&(at, len)| &burst[at..at + len])
    }

    pub fn frames(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.num_bins()).flat_map(|b| self.bin_frames(b))
    }

    pub fn num_frames(&self) -> u64 {
        self.index.iter().map(|i| i.len() as u64).sum()
    }

    /// Whole flow records physically present in the sent frames — the
    /// input size `records_per_s` is stated against.
    pub fn num_records(&self) -> u64 {
        self.frames().map(|f| (f.len().saturating_sub(HEADER_LEN) / RECORD_LEN) as u64).sum()
    }
}

/// Everything set-up produces for one serve workload.
pub struct ServeInput {
    kind: ServeKind,
    bins: usize,
    scenario: Scenario,
    routes: RouteTable,
    ingress: IngressResolver,
    stream: FrameStream,
    frames: u64,
    records: u64,
    reference: Digest,
    reference_quarantine: QuarantineStats,
    storm: FaultStormStats,
    ckpt_dir: Option<PathBuf>,
    first_daemon: Option<Daemon>,
}

/// The dense storm: the ten classes of [`FaultSchedule::storm`], but with
/// corruption, truncation, duplication, reordering, drift and overflow
/// active across the whole window (the stock storm touches about 2 % of a
/// week's bins — too few to leave the fast path measurably). Drift covers
/// the second half so exporters really see two intervals. Loss, the two
/// outages and the clock skew keep the stock placement.
fn dense_storm(seed: u64, bins: usize) -> FaultSchedule {
    let at = |frac: f64| ((bins as f64 * frac) as usize).min(bins - 1);
    let span = (bins / 48).clamp(2, 6);
    let ev = |kind, start_bin, duration_bins| FaultEvent { kind, start_bin, duration_bins };
    FaultSchedule::new(
        seed,
        vec![
            ev(FaultKind::ExportLoss { prob: 0.05 }, at(0.08), span),
            ev(FaultKind::FrameCorruption { prob: 0.04 }, 0, bins),
            ev(FaultKind::FrameTruncation { prob: 0.03 }, 0, bins),
            ev(FaultKind::FrameDuplication { prob: 0.06 }, 0, bins),
            ev(FaultKind::FrameReordering, 0, bins),
            ev(FaultKind::SamplingDrift { interval: 400 }, bins / 2, bins - bins / 2),
            ev(FaultKind::CounterOverflow { prob: 0.02 }, 0, bins),
            ev(FaultKind::ExporterOutage { exporter: None }, at(0.72), 1),
            ev(FaultKind::ExporterOutage { exporter: None }, at(0.82), 4),
            ev(FaultKind::ClockSkew { secs: 30 * 24 * 3600 }, at(0.93), 1),
        ],
    )
    .expect("the dense storm's probabilities and durations are valid")
}

impl ServeInput {
    /// The whole set-up, timed by the caller as `setup_s`.
    pub fn build(kind: ServeKind, ctx: &Ctx) -> ServeInput {
        let (bins, demand) = kind.sizing(ctx.scale);
        let mut scenario = Scenario::paper_window(ctx.seed, bins).expect("paper window scenario");
        scenario.config.total_demand = demand;
        let routes = scenario.plan.build_route_table(1.0).expect("route table");
        let ingress = IngressResolver::synthetic(&scenario.topology);
        let faults = (kind == ServeKind::Storm).then(|| dense_storm(ctx.seed, bins));

        let generator = scenario.generator();
        let mut seqs = vec![0u32; scenario.topology.num_pops()];
        let mut storm = FaultStormStats::default();
        let mut stream = FrameStream::default();
        for bin in 0..bins {
            let mut frames = generator.frames_for_bin(bin, &mut seqs);
            if let Some(schedule) = &faults {
                frames = schedule.apply_to_frames(bin, frames, &mut storm);
            }
            stream.push_bin(&frames);
        }

        // The reference output, through the batch path the equivalence
        // suites pin the daemon to: the fused generate->bin engine for
        // clean frames, the lossy datagram ingest plus repair for the
        // storm; `diagnose` on the result in both cases, as the tenant's
        // flush does.
        let pipe_cfg = PipelineConfig::abilene(0, bins);
        let (matrices, reference_quarantine) = if faults.is_some() {
            let engine =
                ShardedIngest::new(pipe_cfg, &scenario.topology, ingress.clone(), routes.clone())
                    .expect("reference ingest engine");
            let frames: Vec<&[u8]> = stream.frames().collect();
            let mut outcome = engine.ingest_datagrams(&frames).expect("reference datagram ingest");
            outcome.repair(RepairPolicy::default());
            (outcome.matrices, outcome.quality.quarantine)
        } else {
            let outcome = generator
                .bin_scenario(pipe_cfg, ingress.clone(), routes.clone())
                .expect("reference fused ingest");
            (outcome.matrices, QuarantineStats::default())
        };
        let diagnosis =
            diagnose(&matrices, SubspaceConfig::default()).expect("reference diagnosis");
        let reference = Digest::of(&matrices, &diagnosis);
        drop(generator);

        let ckpt_dir = (kind == ServeKind::Checkpointed)
            .then(|| ctx.scratch.join(format!("ckpt_{}", kind.name())));
        let (frames, records) = (stream.num_frames(), stream.num_records());
        let mut input = ServeInput {
            kind,
            bins,
            scenario,
            routes,
            ingress,
            stream,
            frames,
            records,
            reference,
            reference_quarantine,
            storm,
            ckpt_dir,
            first_daemon: None,
        };
        input.first_daemon = Some(input.bind());
        input
    }

    fn tenant_config(&self) -> TenantConfig {
        let mut config = TenantConfig::abilene("bench", 0, self.bins);
        if self.kind != ServeKind::Checkpointed {
            // As the chaos suite does: a queue that holds the whole
            // stream, so the daemon can never shed and the result does
            // not depend on timing (eight bins in flight peak at about
            // 1200 frames, above the production default of 1024, which
            // the checkpointed workload keeps).
            config.queue_frames = self.frames as usize + 16;
        }
        config
    }

    fn tenant_spec(&self) -> TenantSpec {
        TenantSpec {
            config: self.tenant_config(),
            topology: self.scenario.topology.clone(),
            ingress: self.ingress.clone(),
            routes: self.routes.clone(),
        }
    }

    fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            tcp_bind: Some("127.0.0.1:0".to_owned()),
            tenants: vec![self.tenant_spec()],
            checkpoint_dir: self.ckpt_dir.clone(),
            ..ServeConfig::default()
        }
    }

    fn bind(&self) -> Daemon {
        Daemon::bind(self.serve_config()).expect("daemon bind on loopback")
    }

    fn pipeline(&self) -> TenantPipeline {
        TenantPipeline::new(
            self.tenant_config(),
            &self.scenario.topology,
            self.ingress.clone(),
            self.routes.clone(),
        )
        .expect("tenant pipeline")
    }
}

/// What one iteration through the daemon observed.
#[derive(Debug, Default)]
struct IterOutcome {
    /// When the first input byte was written.
    started: Option<Instant>,
    wall_s: f64,
    send_s: f64,
    settle_ms: Vec<f64>,
    shed: u64,
    /// Frames the accounting identities cannot place, plus every frame of
    /// an iteration whose output digest is wrong.
    failed: u64,
    problems: Vec<String>,
    depth_peak: u64,
    enqueue_p99_us: f64,
    quarantined_share: f64,
    dedup_share: f64,
    lost_flows: u64,
}

/// The load generator: one thread, one TCP connection, `TCP_NODELAY`,
/// one `write_all` per bin burst with at most
/// [`ServeKind::bins_in_flight`] bins unsettled, then the drain control
/// message.
fn send_all(
    input: &ServeInput,
    counters: &TenantCounters,
    addr: std::net::SocketAddr,
    out: &mut IterOutcome,
) -> std::io::Result<()> {
    let in_flight = input.kind.bins_in_flight();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let t0 = Instant::now();
    out.started = Some(t0);
    for (bin, burst) in input.stream.wire.iter().enumerate() {
        let sent_at = Instant::now();
        stream.write_all(burst)?;
        // Bin `b` closes (and, with a store, is checkpointed) on the first
        // frame of bin `b + 1`, so once this burst is out, `bin` bins can
        // be closed; hold until all but `in_flight - 1` of them are.
        let want = (bin + 1).saturating_sub(in_flight) as u64;
        let checkpointing = input.ckpt_dir.is_some();
        while TenantCounters::get(&counters.bins_closed) < want
            || (checkpointing && TenantCounters::get(&counters.checkpoints) < want)
        {
            if sent_at.elapsed() > SETTLE_DEADLINE {
                return Err(std::io::Error::other(format!("bin {} never settled", want - 1)));
            }
            std::thread::sleep(SETTLE_POLL);
        }
        if in_flight == 1 && bin >= 1 {
            out.settle_ms.push(sent_at.elapsed().as_secs_f64() * 1e3);
        }
    }
    stream.write_all(&wire::encode_message(CONTROL_TENANT, CONTROL_DRAIN))?;
    stream.shutdown(std::net::Shutdown::Write)?;
    out.send_s = t0.elapsed().as_secs_f64();
    Ok(())
}

/// One iteration: run the daemon on a pool thread, send from this one.
fn iterate(input: &mut ServeInput) -> IterOutcome {
    let daemon = input.first_daemon.take().unwrap_or_else(|| input.bind());
    let addr = daemon.tcp_addr().expect("tcp listener bound");
    let handle = daemon.handle();
    let counters = handle.tenant_counters(0).expect("tenant 0 counters");
    let mut out = IterOutcome::default();
    let mut report: Option<DaemonReport> = None;

    let pool = scoped_pool::Pool::new(1);
    pool.scoped(|scope| {
        let report_ref = &mut report;
        scope.execute(move || *report_ref = Some(daemon.run()));

        if let Err(e) = send_all(input, &counters, addr, &mut out) {
            // The daemon would wait for a drain that never comes.
            handle.drain();
            out.failed += 1;
            out.problems.push(format!("sender: {e}"));
        }
    });
    pool.shutdown();

    // Conservation: every frame sent is offered; offered = enqueued + shed;
    // what the worker consumed is quarantined, deduplicated, or decoded.
    let sent = input.frames;
    let offered = TenantCounters::get(&counters.frames_offered);
    let enqueued = TenantCounters::get(&counters.frames_enqueued);
    out.shed = TenantCounters::get(&counters.frames_dropped_backpressure);
    out.failed += out.shed + sent.abs_diff(offered) + offered.abs_diff(enqueued + out.shed);
    if offered != sent || offered != enqueued + out.shed || out.shed != 0 {
        out.problems.push(format!(
            "admission accounting: sent {sent}, offered {offered}, enqueued {enqueued}, shed {}",
            out.shed
        ));
    }
    out.depth_peak = TenantCounters::get(&counters.queue_depth_peak);
    out.enqueue_p99_us = handle.enqueue_p99_nanos() as f64 / 1e3;

    let flush = match report.as_ref().and_then(|r| r.tenants.first()) {
        Some(TenantEnd::Flushed(flush)) => Some(flush),
        other => {
            out.problems.push(format!("tenant did not flush: {other:?}"));
            None
        }
    };
    let digest =
        flush.and_then(|f| f.diagnosis.as_ref().map(|d| Digest::of(&f.outcome.matrices, d)));
    if let Some(flush) = flush {
        let q = &flush.outcome.quality.quarantine;
        let (mut seen, mut dups) = (0u64, 0u64);
        for (_, e) in flush.outcome.quality.exporters.per_exporter() {
            seen += e.frames;
            dups += e.duplicate_frames;
        }
        if !q.is_conserved() || q.frames_offered != enqueued || q.frames_accepted != seen {
            out.failed += q.frames_offered.abs_diff(enqueued) + q.frames_accepted.abs_diff(seen);
            out.problems.push(format!(
                "decode accounting: enqueued {enqueued}, decoder offered {}, accepted {}, \
                 sequence-tracked {seen}, conserved {}",
                q.frames_offered,
                q.frames_accepted,
                q.is_conserved()
            ));
        }
        if input.kind == ServeKind::Storm && *q != input.reference_quarantine {
            out.problems.push("quarantine counters differ from the batch datagram ingest".into());
        }
        out.quarantined_share = q.frames_rejected() as f64 / q.frames_offered.max(1) as f64;
        out.dedup_share = dups as f64 / q.frames_accepted.max(1) as f64;
        out.lost_flows = flush.outcome.quality.exporters.lost_flows_total();
    }
    match digest {
        Some(d) if d == input.reference => {}
        Some(d) => out.problems.push(format!(
            "output differs from the batch reference in: {}",
            d.diff(&input.reference).join(", ")
        )),
        None => out.problems.push("no diagnosis to verify".into()),
    }
    if digest != Some(input.reference) {
        out.failed += sent;
    }
    out.wall_s = out.started.map_or(0.0, |t0| t0.elapsed().as_secs_f64());
    out
}

/// Runs one serve workload: `--trace 0` times iterations for the
/// end-to-end metrics, `--trace 1` walks the layers.
pub fn run(kind: ServeKind, ctx: &mut Ctx) -> RunReport {
    let mut report = RunReport::default();
    let mut input = None;
    for _ in 0..ctx.setup_repeats() {
        drop(input.take());
        let t0 = Instant::now();
        input = Some(ServeInput::build(kind, ctx));
        report.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut input = input.expect("at least one set-up");
    report.fact("bins", input.bins);
    report.fact("frames", input.frames);
    report.fact("records", input.records);
    report.fact("wire_mb", input.stream.wire.iter().map(Vec::len).sum::<usize>() as f64 / 1e6);
    if kind == ServeKind::Storm {
        report.fact("storm", format!("{:?}", input.storm));
    }

    if ctx.trace {
        walk(&mut input, ctx, &mut report);
    } else {
        // One discarded warm-up (page cache, allocator arenas, first-bind
        // listener), then timed iterations until the budget is spent.
        let warm = iterate(&mut input);
        report.absorb_problems("warm-up", &warm.problems);
        report.peak_rss_mb = crate::verify::peak_rss_mb();
        let deadline = Instant::now() + ctx.budget;
        let mut timed = Vec::new();
        while ctx.keep_timing(timed.len(), deadline) {
            let it = iterate(&mut input);
            report.attempted += input.frames;
            report.failed += it.failed;
            report.absorb_problems(&format!("iteration {}", timed.len()), &it.problems);
            timed.push((it.wall_s, input.records));
            report.samples.entry("settle_ms".into()).or_default().extend(it.settle_ms);
        }
        report.sample_blocks(&timed, ctx.block());
    }
    if let Some(dir) = &input.ckpt_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    report
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The serve layer walk: every layer between the socket and the
/// checkpoint file, driven serially through its public functions over
/// the same frames the daemon receives, then traced iterations through
/// the daemon itself for the counters only it can produce.
fn walk(input: &mut ServeInput, ctx: &mut Ctx, report: &mut RunReport) {
    let name = input.kind.name();
    let root = ctx.tracer.open(name, None, 0);
    let frames = input.frames.max(1) as f64;
    let records = input.records.max(1) as f64;

    // serve.wire: reassembly of the TCP byte stream into messages.
    let mut reader = MessageReader::new();
    let mut reassembled = 0u64;
    let mut wire_ns = 0u64;
    for burst in &input.stream.wire {
        let t0 = Instant::now();
        for chunk in burst.chunks(64 * 1024) {
            reader.extend(chunk);
            while let Ok(Some(message)) = reader.next_message() {
                std::hint::black_box(message);
                reassembled += 1;
            }
        }
        wire_ns += ns(t0.elapsed());
    }
    report.layer("serve.wire.reassemble_ns_per_frame", wire_ns as f64 / frames);
    if reassembled != input.frames || reader.buffered() != 0 {
        report.problem(format!("wire walk reassembled {reassembled} of {} frames", input.frames));
    }

    // serve.queue: the admission copy and the bounded-queue handoff.
    let queue: BoundedQueue<Vec<u8>> = BoundedQueue::new(1024);
    let t0 = Instant::now();
    for frame in input.stream.frames() {
        let _ = queue.try_push(frame.to_vec());
        std::hint::black_box(queue.pop_timeout(Duration::ZERO));
    }
    report.layer("serve.queue.handoff_ns_per_frame", ns(t0.elapsed()) as f64 / frames);

    // flow.netflow / flow.quality / flow.shard: the tenant's per-frame
    // work, taken apart.
    let engine = ShardedIngest::new(
        PipelineConfig::abilene(0, input.bins),
        &input.scenario.topology,
        input.ingress.clone(),
        input.routes.clone(),
    )
    .expect("walk ingest engine");
    let mut shard = engine.make_shard(0..input.bins).expect("full-window shard");
    let mut quality = DataQuality::clean(input.bins);
    let (mut decode_ns, mut observe_ns, mut fill_ns) = (0u64, 0u64, 0u64);
    let (mut decoded_records, mut accepted_frames) = (0u64, 0u64);
    for bin in 0..input.bins {
        let span = ctx.tracer.open("bin", root, 1);
        let (mut d, mut o, mut f) = (0u64, 0u64, 0u64);
        for frame in input.stream.bin_frames(bin) {
            let t0 = Instant::now();
            let decoded = decode_datagram_lossy(frame, &mut quality.quarantine);
            let t1 = Instant::now();
            d += ns(t1 - t0);
            let Some((hdr, recs)) = decoded else { continue };
            accepted_frames += 1;
            decoded_records += recs.len() as u64;
            let fresh = quality.exporters.observe(
                hdr.engine_id,
                hdr.flow_sequence,
                hdr.count,
                hdr.sampling_interval,
            );
            let t2 = Instant::now();
            o += ns(t2 - t1);
            if fresh {
                for record in recs {
                    let _ = shard.push_sampled_record(record);
                }
                f += ns(t2.elapsed());
            }
        }
        ctx.tracer.record_layers(
            span,
            1,
            &[
                ("flow.netflow.decode", d),
                ("flow.quality.seq_observe", o),
                ("flow.shard.resolve_bin", f),
            ],
        );
        ctx.tracer.close(span);
        decode_ns += d;
        observe_ns += o;
        fill_ns += f;
    }
    report.layer(
        "flow.netflow.decode_ns_per_record",
        decode_ns as f64 / decoded_records.max(1) as f64,
    );
    report.layer(
        "flow.quality.seq_observe_ns_per_frame",
        observe_ns as f64 / accepted_frames.max(1) as f64,
    );
    report.layer(
        "flow.shard.resolve_bin_ns_per_record",
        fill_ns as f64 / shard.records_accepted().max(1) as f64,
    );

    // subspace.online: fit on the training prefix, score the tail.
    let train = input.bins / 2;
    let p = input.scenario.topology.num_pops().pow(2);
    let row = |b: usize| shard.bin_row(b, TrafficType::Bytes).unwrap_or(&[]).to_vec();
    let training: Vec<f64> = (0..train).flat_map(row).collect();
    let span = ctx.tracer.open("subspace.online.fit", root, 1);
    let t0 = Instant::now();
    let detector = Matrix::from_vec(train, p, training)
        .ok()
        .and_then(|m| OnlineDetector::new(&m, SubspaceConfig::default(), 0).ok());
    report.layer("subspace.online.fit_ms", t0.elapsed().as_secs_f64() * 1e3);
    ctx.tracer.close(span);
    if let Some(mut detector) = detector {
        let rows: Vec<Vec<f64>> = (train..input.bins).map(row).collect();
        let span = ctx.tracer.open("subspace.online.push", root, 1);
        let t0 = Instant::now();
        for (i, r) in rows.iter().enumerate() {
            let status = match shard.bin_record_count(train + i) {
                Some(n) if n > 0 => BinStatus::Ok,
                _ => BinStatus::Masked,
            };
            let _ = std::hint::black_box(detector.push_with_status(r, status));
        }
        let us = t0.elapsed().as_secs_f64() * 1e6;
        ctx.tracer.close(span);
        report.layer("subspace.online.push_us_per_bin", us / rows.len().max(1) as f64);
    } else {
        report.problem("online detector did not fit on the training prefix".into());
    }
    let span = ctx.tracer.open("flow.shard.merge", root, 1);
    let t0 = Instant::now();
    let merged = engine.merge(vec![shard]);
    report.layer("flow.shard.merge_ms", t0.elapsed().as_secs_f64() * 1e3);
    ctx.tracer.close(span);
    drop(merged);

    // serve.tenant: the same work through the tenant's own entry points,
    // once with span recording off (the reported figure) and once on.
    let (ingest_off_ns, flush_ms) = tenant_pass(input, &mut Tracer::new(name, false), None, 0);
    let (ingest_on_ns, _) = tenant_pass(input, &mut ctx.tracer, root, 2);
    report.layer("serve.tenant.ingest_ns_per_record", ingest_off_ns as f64 / records);
    report.layer("serve.tenant.flush_ms", flush_ms);
    report.layer(
        "trace_overhead_share",
        (ingest_on_ns as f64 - ingest_off_ns as f64) / ingest_off_ns.max(1) as f64,
    );

    if input.kind == ServeKind::Checkpointed {
        checkpoint_pass(input, ctx, root, report);
    }

    // Traced iterations through the daemon: counters, sender time, settle
    // samples. At least one; more while the budget lasts, and (closed
    // loop) until p95 has its ten samples beyond.
    let deadline = Instant::now() + ctx.budget;
    let (mut walls, mut sends, mut settle, mut first_q, mut last_q) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut last;
    let mut iteration = 3u32;
    loop {
        let span = ctx.tracer.open("serve.daemon.iteration", root, iteration);
        let it = iterate(input);
        ctx.tracer.close(span);
        iteration += 1;
        report.attempted += input.frames;
        report.failed += it.failed;
        report.absorb_problems("traced iteration", &it.problems);
        walls.push(it.wall_s);
        sends.push(it.send_s);
        let quarter = it.settle_ms.len() / 4;
        first_q.extend_from_slice(&it.settle_ms[..quarter]);
        last_q.extend_from_slice(&it.settle_ms[it.settle_ms.len() - quarter..]);
        settle.extend_from_slice(&it.settle_ms);
        last = it;
        let tail_ready = settle.is_empty() || stats::tail_percentile(settle.len()) >= Some(95.0);
        let enough = Instant::now() >= deadline && (tail_ready || ctx.scale == Scale::Smoke);
        if enough || walls.len() >= 8 {
            break;
        }
    }
    let wall_s = stats::median(&walls);
    report.layer("failed_share", report.failed as f64 / report.attempted.max(1) as f64);
    report.layer("serve.loadgen.send_s", stats::median(&sends));
    report.layer("serve.queue.depth_peak", last.depth_peak as f64);
    report.layer("serve.daemon.shed_frames", last.shed as f64);
    report.layer("serve.daemon.enqueue_p99_us", last.enqueue_p99_us);
    report.layer("flow.netflow.quarantined_share", last.quarantined_share);
    report.layer("flow.quality.dedup_share", last.dedup_share);
    report.layer("flow.quality.seq_lost_flows", last.lost_flows as f64);
    report
        .layer("serve.daemon.unattributed_s", wall_s - ingest_off_ns as f64 / 1e9 - flush_ms / 1e3);
    if !settle.is_empty() {
        let pct = stats::tail_percentile(settle.len()).unwrap_or(50.0).min(95.0);
        report.fact("settle_samples", settle.len());
        report.fact("settle_tail_percentile", pct);
        report.layer("settle_p50_ms", stats::median(&settle));
        report.layer("settle_p95_ms", stats::percentile(&settle, pct));
        report.layer("serve.daemon.settle_first_quarter_p50_ms", stats::median(&first_q));
        report.layer("serve.daemon.settle_last_quarter_p50_ms", stats::median(&last_q));
        report.samples.insert("settle_ms".into(), settle);
    }
    report.samples.insert(crate::spec::WALL_S.into(), walls);
    ctx.tracer.close(root);
}

/// Feeds every frame through [`TenantPipeline::ingest_frame`], one span
/// per bin, then flushes. Returns `(ingest ns, flush ms)`.
fn tenant_pass(
    input: &ServeInput,
    tracer: &mut Tracer,
    root: Option<usize>,
    iteration: u32,
) -> (u64, f64) {
    let mut pipeline = input.pipeline();
    let mut ingest_ns = 0u64;
    for bin in 0..input.bins {
        let span = tracer.open("serve.tenant.ingest", root, iteration);
        let t0 = Instant::now();
        for frame in input.stream.bin_frames(bin) {
            pipeline.ingest_frame(frame);
        }
        ingest_ns += ns(t0.elapsed());
        tracer.close(span);
    }
    let span = tracer.open("serve.tenant.flush", root, iteration);
    let t0 = Instant::now();
    let flushed = pipeline.flush();
    let flush_ms = t0.elapsed().as_secs_f64() * 1e3;
    tracer.close(span);
    drop(flushed);
    (ingest_ns, flush_ms)
}

/// The checkpoint layers, taken apart: at every bin close (the first
/// frame of the next bin) export and encode the state, then write it
/// through the store; finally load, restore and recover from the last
/// generation.
fn checkpoint_pass(input: &ServeInput, ctx: &mut Ctx, root: Option<usize>, report: &mut RunReport) {
    let dir = ctx.scratch.join("ckpt_walk");
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir, "bench");
    let mut pipeline = input.pipeline();
    let (mut encode_ns, mut write_ns, mut bytes_total, mut bytes_last) = (0u64, 0u64, 0u64, 0u64);
    for bin in 0..input.bins {
        let mut frames = input.stream.bin_frames(bin);
        if let Some(first) = frames.next() {
            pipeline.ingest_frame(first);
        }
        if bin >= 1 {
            let span = ctx.tracer.open("bin_close", root, 2);
            let t0 = Instant::now();
            let state = pipeline.export_state();
            let image = encode_state(&state);
            let t1 = Instant::now();
            let written = store.write(&state);
            let t2 = Instant::now();
            // `write` encodes again before it touches the file system.
            let (enc, total) = (ns(t1 - t0), ns(t2 - t1));
            ctx.tracer.record_layers(
                span,
                2,
                &[("serve.checkpoint.encode", enc), ("serve.checkpoint.write", total)],
            );
            ctx.tracer.close(span);
            if let Err(e) = written {
                report.problem(format!("checkpoint write at bin {bin}: {e}"));
            }
            encode_ns += enc;
            write_ns += total.saturating_sub(enc);
            bytes_last = image.len() as u64;
            bytes_total += bytes_last;
        }
        for frame in frames {
            pipeline.ingest_frame(frame);
        }
    }
    let mb = bytes_total.max(1) as f64 / 1e6;
    report.layer("serve.checkpoint.state_mb_final", bytes_last as f64 / 1e6);
    report.layer("serve.checkpoint.mb_written_total", bytes_total as f64 / 1e6);
    report.layer("serve.checkpoint.encode_ms_per_mb", encode_ns as f64 / 1e6 / mb);
    report.layer("serve.checkpoint.write_ms_per_mb", write_ns as f64 / 1e6 / mb);

    let span = ctx.tracer.open("serve.checkpoint.load", root, 2);
    let t0 = Instant::now();
    let loaded = store.load_newest();
    report.layer("serve.checkpoint.load_ms", t0.elapsed().as_secs_f64() * 1e3);
    ctx.tracer.close(span);
    match loaded.state {
        Some(state) => {
            let span = ctx.tracer.open("serve.checkpoint.restore", root, 2);
            let t0 = Instant::now();
            let restored = TenantPipeline::restore(
                input.tenant_config(),
                &input.scenario.topology,
                input.ingress.clone(),
                input.routes.clone(),
                &state,
                Arc::new(TenantCounters::default()),
            );
            report.layer("serve.checkpoint.restore_ms", t0.elapsed().as_secs_f64() * 1e3);
            ctx.tracer.close(span);
            if restored.is_err() {
                report.problem("the last checkpoint generation did not restore".into());
            }
        }
        None => report.problem("no checkpoint generation loaded".into()),
    }
    let span = ctx.tracer.open("serve.daemon.recover", root, 2);
    let t0 = Instant::now();
    let recovered = Daemon::recover(ServeConfig { tcp_bind: None, ..input.serve_config() }, &dir);
    report.layer("serve.daemon.recover_ms", t0.elapsed().as_secs_f64() * 1e3);
    ctx.tracer.close(span);
    match recovered {
        Ok((_, recoveries)) if recoveries.first().is_some_and(|r| r.resumed_seq.is_some()) => {}
        other => {
            report.problem(format!("daemon recovery did not resume: {:?}", other.map(|r| r.1)));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
