//! The long-running multi-tenant detection daemon.
//!
//! Topology of one running daemon:
//!
//! ```text
//!  UDP socket ──┐                 ┌─ bounded queue ─ tenant 0 worker ─ binner ─ detector
//!  TCP streams ─┼─ tenant router ─┼─ bounded queue ─ tenant 1 worker ─ binner ─ detector
//!  (listeners)  │   (admission)   └─ ...
//!  metrics HTTP ┘
//! ```
//!
//! Listener tasks own the sockets and do nothing but envelope parsing and
//! queue admission — never decoding, never blocking on a full queue.
//! Each tenant worker owns its [`TenantPipeline`] outright, so the whole
//! measurement path is single-threaded per tenant and deterministic.
//! All tasks run on the daemon's own [`scoped_pool::Pool`], sized to the
//! task count (every task is a long-lived loop; a smaller pool would
//! deadlock).
//!
//! ## Admission
//!
//! A frame's bytes are written once on their way in. A socket read lands
//! in the connection's [`MessageReader`], which lends each complete frame
//! out of its buffer; the frame is copied into the batch the listener is
//! filling for its tenant; and after the read, every batch that holds
//! anything goes to its tenant's queue whole — one clock read, one lock,
//! one wake-up for however many frames the read held (a UDP datagram is a
//! batch of one). The worker takes a batch per wake, decodes the records
//! where they lie, and hands the emptied buffer back through the queue
//! for the listener to fill again, so the steady state allocates nothing.
//!
//! The queue's bound stays in **frames** ([`TenantConfig::queue_frames`]):
//! a batch that does not fit is admitted up to the remaining capacity in
//! arrival order and the rest shed and counted, so `offered = enqueued +
//! dropped` holds frame for frame. A control message first flushes the
//! batches pending ahead of it.
//!
//! ## The listener's idle nap
//!
//! The TCP listener polls non-blocking sockets. After a sweep that moved
//! nothing it sleeps an eighth of the time since bytes last arrived —
//! never less than 50 µs, never more than one 5 ms tick, the daemon's
//! poll granularity. A sender that pauses for a millisecond between
//! bursts is therefore picked up within about a tenth of one, while a
//! daemon nobody talks to is back to one poll per tick after eight ticks
//! of quiet. The three constants are private: the floor is what the
//! kernel's timer slack makes the shortest useful sleep, the fraction
//! bounds the wait *relative to the pause the peer itself chose*, and the
//! tick only caps what an idle daemon costs, so there is no traffic
//! pattern a different value would suit better — and nothing for an
//! operator to tune.
//!
//! ## Shutdown contract
//!
//! A drain request — [`DaemonHandle::drain`], or the wire control message
//! ([`crate::wire::CONTROL_DRAIN`] addressed to
//! [`CONTROL_TENANT`]) on either transport — stops the listeners, closes
//! the tenant queues, and lets each worker consume its backlog to the
//! end before flushing. Frames admitted before the drain are never lost;
//! frames arriving after it are refused by the closed queues and
//! counted. [`Daemon::run`] returns only when every tenant has flushed.

use crate::checkpoint::{CheckpointStore, CrashKind, CrashPayload, CrashPoint};
use crate::metrics::{elapsed_nanos, monotonic_now, ServeMetrics, TenantCounters};
use crate::queue::{BoundedQueue, FrameBatch, Pop};
use crate::tenant::{TenantConfig, TenantFlush, TenantPipeline};
use crate::wire::{self, MessageReader, CONTROL_TENANT};
use crate::ServeError;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// One tenant's full provisioning: detection configuration plus the
/// routing state its resolver needs.
#[derive(Debug)]
pub struct TenantSpec {
    /// Pipeline and detection configuration.
    pub config: TenantConfig,
    /// The tenant's backbone topology (defines its OD space).
    pub topology: odflow_net::Topology,
    /// Ingress attribution state.
    pub ingress: odflow_net::IngressResolver,
    /// Egress longest-prefix-match table.
    pub routes: odflow_net::RouteTable,
}

/// Daemon-level configuration.
#[derive(Debug)]
pub struct ServeConfig {
    /// UDP bind address (e.g. `127.0.0.1:0`); `None` disables UDP.
    pub udp_bind: Option<String>,
    /// TCP bind address; `None` disables TCP.
    pub tcp_bind: Option<String>,
    /// Metrics HTTP bind address; `None` disables the endpoint.
    pub metrics_bind: Option<String>,
    /// The hosted tenants, in tenant-index (wire envelope byte) order.
    pub tenants: Vec<TenantSpec>,
    /// Start with tenant workers paused (admission keeps running) — used
    /// by the backpressure tests to fill queues deterministically. A
    /// drain overrides the pause so shutdown always completes.
    pub start_paused: bool,
    /// Directory for per-tenant crash-safety checkpoints; `None` disables
    /// checkpointing. A fresh [`Daemon::bind`] clears any stale
    /// generations in it; [`Daemon::recover`] resumes from them instead.
    pub checkpoint_dir: Option<PathBuf>,
    /// Consecutive worker panics (without bin progress in between) before
    /// a tenant is quarantined instead of restarted.
    pub max_restarts: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            udp_bind: None,
            tcp_bind: None,
            metrics_bind: None,
            tenants: Vec::new(),
            start_paused: false,
            checkpoint_dir: None,
            max_restarts: 3,
        }
    }
}

/// Poll granularity for socket timeouts and worker wakeups.
const TICK: Duration = Duration::from_millis(5);

/// Base delay between worker restarts; doubles per consecutive attempt,
/// plus deterministic jitter (see [`restart_backoff`]).
const RESTART_BACKOFF: Duration = Duration::from_millis(2);

/// Seed of the deterministic restart jitter.
const RESTART_JITTER_SEED: u64 = 0x0df1_0c4e_c4e5_eed5;

/// Shared control/observation state behind [`DaemonHandle`].
#[derive(Debug)]
struct Control {
    draining: AtomicBool,
    /// [`ServeConfig::start_paused`]; only a drain ends the pause.
    paused: bool,
    metrics: ServeMetrics,
}

/// A cloneable handle for controlling and observing a running daemon
/// from other threads.
#[derive(Debug, Clone)]
pub struct DaemonHandle {
    control: Arc<Control>,
}

impl DaemonHandle {
    /// Requests a graceful drain-and-flush shutdown.
    pub fn drain(&self) {
        self.control.draining.store(true, Ordering::SeqCst);
    }

    /// The current metrics page, identical to `GET /metrics`.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        self.control.metrics.render()
    }

    /// The counter block of tenant `idx`.
    #[must_use]
    pub fn tenant_counters(&self, idx: usize) -> Option<Arc<TenantCounters>> {
        self.control.metrics.tenant(idx).map(Arc::clone)
    }

    /// p99 upper bound of the admission enqueue-latency histogram, in
    /// nanoseconds (0 until a frame has been enqueued).
    #[must_use]
    pub fn enqueue_p99_nanos(&self) -> u64 {
        self.control.metrics.enqueue_latency.quantile(0.99)
    }
}

/// How one tenant's pipeline ended.
#[derive(Debug)]
pub enum TenantEnd {
    /// The pipeline drained and flushed normally.
    Flushed(Box<TenantFlush>),
    /// The flush failed (e.g. a window that never accepted a record), or
    /// the tenant was quarantined after panicking persistently.
    Failed {
        /// The tenant's name.
        name: String,
        /// Why the flush failed.
        reason: String,
    },
    /// A chaos-injected simulated process death ([`CrashKind::Kill`]):
    /// the worker stopped on the spot — no flush, no restart. Only
    /// [`Daemon::recover`] continues from here, exactly as a real
    /// `kill -9` would leave things.
    Killed {
        /// The tenant's name.
        name: String,
        /// The crash point that fired.
        point: CrashPoint,
    },
}

/// What [`Daemon::recover`] found for one tenant.
#[derive(Debug)]
pub struct TenantRecovery {
    /// The tenant's name.
    pub tenant: String,
    /// Sequence number of the generation resumed from; `None` when no
    /// valid checkpoint existed (the tenant restarts from scratch).
    pub resumed_seq: Option<u64>,
    /// The replay cursor: frames of the original stream already covered
    /// by the resumed state.
    pub frames_ingested: u64,
    /// Records rejected as torn/corrupt during the scan: a slot whose
    /// first record was unusable, or the record that cut a chain short.
    /// Greater than zero alongside `resumed_seq: Some(..)` means recovery
    /// fell back past a corrupt newest generation.
    pub slots_rejected: usize,
}

/// Everything a drained daemon returns, tenants in index order.
#[derive(Debug)]
pub struct DaemonReport {
    /// Per-tenant end states.
    pub tenants: Vec<TenantEnd>,
}

/// A bound-but-not-yet-running daemon. Binding is separate from running
/// so callers can read the ephemeral socket addresses (port 0 binds)
/// before traffic starts.
#[derive(Debug)]
pub struct Daemon {
    control: Arc<Control>,
    pipelines: Vec<TenantPipeline>,
    /// Retained provisioning, one per pipeline — the supervisor rebuilds
    /// a panicked tenant's pipeline from its spec.
    specs: Vec<TenantSpec>,
    /// Checkpoint stores, one per pipeline (`None` when disabled).
    stores: Vec<Option<CheckpointStore>>,
    max_restarts: u32,
    queue_caps: Vec<usize>,
    udp: Option<UdpSocket>,
    tcp: Option<TcpListener>,
    metrics_listener: Option<TcpListener>,
}

impl Daemon {
    /// Builds every tenant pipeline and binds the configured sockets.
    /// With a `checkpoint_dir`, stale checkpoint generations are cleared
    /// (a fresh bind must never resume someone else's state) and every
    /// bin close makes a new one durable.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Config`] for an empty tenant list or more tenants
    ///   than the one-byte envelope can address.
    /// * [`ServeError::Io`] on bind failure.
    /// * [`ServeError::Flow`] on invalid tenant pipeline configuration.
    pub fn bind(config: ServeConfig) -> Result<Daemon, ServeError> {
        Ok(Self::bind_inner(config, false)?.0)
    }

    /// Binds like [`Self::bind`], but resumes every tenant from its
    /// newest **valid** checkpoint generation in `dir` — the crash-safe
    /// restart path. A tenant with no usable generation starts fresh.
    /// Replaying each tenant's original frame stream from its
    /// [`TenantRecovery::frames_ingested`] cursor onward reproduces the
    /// uninterrupted run bit for bit.
    ///
    /// # Errors
    ///
    /// As [`Self::bind`]; additionally [`ServeError::Config`] when a
    /// structurally valid checkpoint disagrees with the tenant's window
    /// configuration. Corrupt/torn checkpoint files are *not* errors —
    /// they are skipped and reported in [`TenantRecovery::slots_rejected`].
    pub fn recover(
        mut config: ServeConfig,
        dir: &Path,
    ) -> Result<(Daemon, Vec<TenantRecovery>), ServeError> {
        config.checkpoint_dir = Some(dir.to_path_buf());
        Self::bind_inner(config, true)
    }

    fn bind_inner(
        config: ServeConfig,
        recovering: bool,
    ) -> Result<(Daemon, Vec<TenantRecovery>), ServeError> {
        if config.tenants.is_empty() {
            return Err(ServeError::Config("at least one tenant is required".to_owned()));
        }
        if config.tenants.len() >= usize::from(CONTROL_TENANT) {
            return Err(ServeError::Config(format!(
                "at most {} tenants fit the one-byte envelope",
                usize::from(CONTROL_TENANT) - 1
            )));
        }
        let queue_caps: Vec<usize> = config.tenants.iter().map(|s| s.config.queue_frames).collect();
        let stores: Vec<Option<CheckpointStore>> = config
            .tenants
            .iter()
            .map(|s| {
                config.checkpoint_dir.as_ref().map(|d| CheckpointStore::new(d, &s.config.name))
            })
            .collect();
        let mut pipelines = Vec::with_capacity(config.tenants.len());
        let mut recoveries = Vec::with_capacity(config.tenants.len());
        for (spec, store) in config.tenants.iter().zip(&stores) {
            let pipeline = if recovering {
                let fresh_counters = Arc::new(TenantCounters::default());
                let (pipeline, recovery) = rebuild_pipeline(spec, store.as_ref(), &fresh_counters)?;
                recoveries.push(recovery);
                pipeline
            } else {
                let mut pipeline = TenantPipeline::new(
                    spec.config.clone(),
                    &spec.topology,
                    spec.ingress.clone(),
                    spec.routes.clone(),
                )?;
                if let Some(s) = store {
                    s.reset().map_err(|e| {
                        ServeError::Config(format!("clearing stale checkpoints: {e}"))
                    })?;
                    pipeline.set_checkpoint_store(s.clone(), None);
                }
                pipeline
            };
            pipelines.push(pipeline);
        }
        let metrics = ServeMetrics {
            tenants: pipelines.iter().map(|p| (p.name().to_owned(), p.counters())).collect(),
            ..ServeMetrics::default()
        };
        let udp = match &config.udp_bind {
            Some(addr) => Some(UdpSocket::bind(addr.as_str())?),
            None => None,
        };
        let tcp = match &config.tcp_bind {
            Some(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let metrics_listener = match &config.metrics_bind {
            Some(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        Ok((
            Daemon {
                control: Arc::new(Control {
                    draining: AtomicBool::new(false),
                    paused: config.start_paused,
                    metrics,
                }),
                pipelines,
                specs: config.tenants,
                stores,
                max_restarts: config.max_restarts,
                queue_caps,
                udp,
                tcp,
                metrics_listener,
            },
            recoveries,
        ))
    }

    /// The bound UDP address, when UDP is enabled.
    #[must_use]
    pub fn udp_addr(&self) -> Option<SocketAddr> {
        self.udp.as_ref().and_then(|s| s.local_addr().ok())
    }

    /// The bound TCP address, when TCP is enabled.
    #[must_use]
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// The bound metrics address, when the endpoint is enabled.
    #[must_use]
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_listener.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// A control/observation handle, cloneable across threads.
    #[must_use]
    pub fn handle(&self) -> DaemonHandle {
        DaemonHandle { control: Arc::clone(&self.control) }
    }

    /// Runs the daemon to completion: serves until a drain request,
    /// drains every queue, flushes every tenant, and reports. Blocks the
    /// calling thread; use [`Self::handle`] (taken before `run`) to
    /// control the daemon from elsewhere.
    #[must_use]
    pub fn run(self) -> DaemonReport {
        let Daemon {
            control,
            pipelines,
            specs,
            stores,
            max_restarts,
            queue_caps,
            udp,
            tcp,
            metrics_listener,
        } = self;
        let n = pipelines.len();
        let queues: Vec<Arc<BoundedQueue<FrameBatch>>> =
            queue_caps.iter().map(|&c| Arc::new(BoundedQueue::new(c))).collect();
        let results: Mutex<Vec<Option<TenantEnd>>> = Mutex::new((0..n).map(|_| None).collect());
        let listener_count = usize::from(udp.is_some()) + usize::from(tcp.is_some());
        let sources = AtomicUsize::new(listener_count);
        let n_tasks = listener_count + usize::from(metrics_listener.is_some()) + n;
        let pool = scoped_pool::Pool::new(n_tasks.max(1));

        let admission = Admission { control: &control, queues: &queues };
        pool.scoped(|scope| {
            let adm = &admission;
            let sources_ref = &sources;
            let queues_ref = &queues;
            let close_on_last_source = move || {
                if sources_ref.fetch_sub(1, Ordering::AcqRel) == 1 {
                    for q in queues_ref {
                        q.close();
                    }
                }
            };
            if let Some(socket) = udp {
                scope.execute(move || {
                    run_udp_listener(&socket, adm);
                    close_on_last_source();
                });
            }
            if let Some(listener) = tcp {
                scope.execute(move || {
                    run_tcp_listener(&listener, adm);
                    close_on_last_source();
                });
            }
            if let Some(listener) = metrics_listener {
                let control_ref = &control;
                scope.execute(move || run_metrics_endpoint(&listener, control_ref));
            }
            let tenants = pipelines.into_iter().zip(specs).zip(stores);
            for (idx, ((pipeline, spec), store)) in tenants.enumerate() {
                let queue = Arc::clone(&queues[idx]);
                let control_ref = &control;
                let results_ref = &results;
                scope.execute(move || {
                    let supervisor = Supervisor {
                        spec,
                        store,
                        max_restarts,
                        queue,
                        control: control_ref,
                        sources: sources_ref,
                    };
                    let end = supervisor.run(pipeline);
                    let mut slots = results_ref.lock().unwrap_or_else(PoisonError::into_inner);
                    if let Some(slot) = slots.get_mut(idx) {
                        *slot = Some(end);
                    }
                });
            }
        });
        pool.shutdown();

        let slots = results.into_inner().unwrap_or_else(PoisonError::into_inner);
        DaemonReport {
            tenants: slots
                .into_iter()
                .map(|s| {
                    s.unwrap_or(TenantEnd::Failed {
                        name: String::new(),
                        reason: "worker never reported".to_owned(),
                    })
                })
                .collect(),
        }
    }
}

/// The shared admission path: envelope → control or tenant queue.
struct Admission<'a> {
    control: &'a Control,
    queues: &'a [Arc<BoundedQueue<FrameBatch>>],
}

impl Admission<'_> {
    fn draining(&self) -> bool {
        self.control.draining.load(Ordering::SeqCst)
    }

    /// A listener's own batcher over these queues.
    fn batcher(&self) -> Batcher<'_> {
        Batcher {
            adm: self,
            pending: self.queues.iter().map(|_| FrameBatch::default()).collect(),
            filling: Vec::new(),
        }
    }
}

/// One listener's side of admission: the batch it is filling for each
/// tenant. Frames are [offered](Self::offer) as they are parsed and
/// [flushed](Self::flush) once per socket read.
struct Batcher<'a> {
    adm: &'a Admission<'a>,
    pending: Vec<FrameBatch>,
    /// Tenants whose pending batch holds a frame, so a flush costs what
    /// the read touched, not one look at every hosted tenant.
    filling: Vec<usize>,
}

impl Batcher<'_> {
    /// Routes one enveloped frame: a tenant's frame joins that tenant's
    /// pending batch, a control message takes effect on the spot.
    fn offer(&mut self, tenant: u8, frame: &[u8]) {
        let metrics = &self.adm.control.metrics;
        if tenant == CONTROL_TENANT {
            // What arrived ahead of a control message is admitted ahead
            // of it: a drain wakes paused workers, and they must find the
            // queues as full as the frames before it made them.
            self.flush();
            if wire::is_drain_control(tenant, frame) {
                TenantCounters::add(&metrics.control_messages, 1);
                self.adm.control.draining.store(true, Ordering::SeqCst);
            } else {
                TenantCounters::add(&metrics.envelope_errors, 1);
            }
            return;
        }
        let idx = usize::from(tenant);
        match self.pending.get_mut(idx) {
            Some(batch) => {
                if batch.is_empty() {
                    self.filling.push(idx);
                }
                batch.push(frame);
            }
            None => TenantCounters::add(&metrics.unknown_tenant, 1),
        }
    }

    /// Hands every pending batch to its tenant's queue: one clock read,
    /// one lock and one wake-up per batch. Never blocks: a full queue
    /// sheds the frames that do not fit and counts the drop.
    fn flush(&mut self) {
        let metrics = &self.adm.control.metrics;
        for idx in self.filling.drain(..) {
            let (Some(batch), Some(queue), Some(counters)) =
                (self.pending.get_mut(idx), self.adm.queues.get(idx), metrics.tenant(idx))
            else {
                continue;
            };
            let admitted = queue.push_frames(batch, monotonic_now());
            TenantCounters::add(&metrics.admission_batches, 1);
            let (enqueued, shed) = (admitted.enqueued as u64, admitted.shed as u64);
            TenantCounters::add(&counters.frames_offered, enqueued + shed);
            TenantCounters::add(&counters.frames_enqueued, enqueued);
            TenantCounters::add(&counters.frames_dropped_backpressure, shed);
            TenantCounters::set(&counters.queue_depth, admitted.depth as u64);
            TenantCounters::raise(&counters.queue_depth_peak, admitted.depth as u64);
        }
    }
}

/// UDP listener loop: one datagram, one envelope, one admission — a batch
/// of one through the same path as TCP's.
fn run_udp_listener(socket: &UdpSocket, adm: &Admission<'_>) {
    if socket.set_read_timeout(Some(TICK)).is_err() {
        TenantCounters::add(&adm.control.metrics.io_errors, 1);
        return;
    }
    let mut batcher = adm.batcher();
    let mut buf = vec![0u8; 65536];
    while !adm.draining() {
        match socket.recv_from(&mut buf) {
            Ok((len, _peer)) => {
                TenantCounters::add(&adm.control.metrics.udp_datagrams, 1);
                match wire::decode_datagram(&buf[..len]) {
                    Some((tenant, frame)) => {
                        batcher.offer(tenant, frame);
                        batcher.flush();
                    }
                    None => TenantCounters::add(&adm.control.metrics.envelope_errors, 1),
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => {
                TenantCounters::add(&adm.control.metrics.io_errors, 1);
                std::thread::sleep(TICK);
            }
        }
    }
}

/// Reads one connection may make per turn of the sweep. Four reads move
/// up to 256 KiB — more than a default loopback receive queue holds, so a
/// well-behaved peer is emptied in one turn — while a peer that never
/// runs dry holds up its neighbours and the drain check for a fraction of
/// a millisecond, not for as long as it likes.
const READS_PER_TURN: usize = 4;

/// The shortest idle nap. About the kernel's default timer slack: asking
/// for less does not wake the listener sooner, it only polls harder.
const NAP_FLOOR: Duration = Duration::from_micros(50);

/// An idle nap lasts this fraction of the quiet so far, so bytes that
/// end a pause wait at most an eighth of the pause's length again (a
/// doubling ladder's worst case is the whole pause), and a socket that
/// has been quiet for eight ticks is back to one poll per tick.
const NAP_QUIET_DIVISOR: u32 = 8;

/// How long to sleep after a sweep that moved nothing, `quiet` after the
/// last one that did: the wait tracks how recently the peers last had
/// something to say, so it needs no configuring — [`TICK`] stays the
/// ceiling, for an idle daemon.
fn idle_nap(quiet: Duration) -> Duration {
    (quiet / NAP_QUIET_DIVISOR).max(NAP_FLOOR).min(TICK)
}

/// How a connection's turn ended.
struct Turn {
    /// Bytes arrived.
    moved: bool,
    /// The connection stays open.
    keep: bool,
}

/// One connection's turn of the sweep: up to `max_reads` reads, each
/// followed by admitting — in order, as one batch per tenant — every
/// message it completed. The turn ends early when the source has nothing
/// more (`WouldBlock`), and for good on end of stream, a read error or a
/// length prefix over the bound; a partial message lost that way is
/// counted. A partial message otherwise stays in `reader` for the next
/// turn.
fn connection_turn(
    src: &mut impl Read,
    reader: &mut MessageReader,
    batcher: &mut Batcher<'_>,
    max_reads: usize,
) -> Turn {
    let metrics = &batcher.adm.control.metrics;
    let mut turn = Turn { moved: false, keep: true };
    for _ in 0..max_reads {
        match reader.read_from(src) {
            Ok(0) => turn.keep = false,
            Ok(_) => {
                turn.moved = true;
                let mut messages = 0;
                loop {
                    match reader.next_message() {
                        Ok(Some((tenant, frame))) => {
                            messages += 1;
                            batcher.offer(tenant, frame);
                        }
                        Ok(None) => break,
                        Err(_oversized) => {
                            TenantCounters::add(&metrics.envelope_errors, 1);
                            turn.keep = false;
                            break;
                        }
                    }
                }
                TenantCounters::add(&metrics.tcp_messages, messages);
                batcher.flush();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => {
                TenantCounters::add(&metrics.io_errors, 1);
                turn.keep = false;
            }
        }
        if !turn.keep {
            if reader.buffered() > 0 {
                TenantCounters::add(&metrics.tcp_truncated_streams, 1);
            }
            break;
        }
    }
    turn
}

/// TCP listener loop: non-blocking accept plus a round-robin read sweep
/// over the open connections, a bounded [turn](connection_turn) each.
/// After a sweep that moved nothing the listener [naps](idle_nap) — never
/// for longer than an eighth of the time the sockets have been quiet.
///
/// The drain flag is sampled at the top of each sweep and honoured at
/// the bottom, and from the moment it is set turns are no longer
/// bounded: the sweep that *parses* a drain message still finishes every
/// later connection's already-received bytes, and one final full sweep
/// runs every connection dry after the flag is seen — messages sent
/// before the drain on any connection are admitted before the listener
/// exits.
fn run_tcp_listener(listener: &TcpListener, adm: &Admission<'_>) {
    let metrics = &adm.control.metrics;
    let mut batcher = adm.batcher();
    let mut conns: Vec<(TcpStream, MessageReader)> = Vec::new();
    let mut last_moved = monotonic_now();
    loop {
        let draining = adm.draining();
        let mut moved = false;
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        TenantCounters::add(&metrics.io_errors, 1);
                        continue;
                    }
                    TenantCounters::add(&metrics.tcp_connections, 1);
                    conns.push((stream, MessageReader::new()));
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    TenantCounters::add(&metrics.io_errors, 1);
                    break;
                }
            }
        }
        let mut i = 0;
        while let Some((stream, reader)) = conns.get_mut(i) {
            let max_reads = if adm.draining() { usize::MAX } else { READS_PER_TURN };
            let turn = connection_turn(stream, reader, &mut batcher, max_reads);
            moved |= turn.moved;
            if turn.keep {
                i += 1;
            } else {
                conns.swap_remove(i);
            }
        }
        if draining {
            break;
        }
        if moved {
            last_moved = monotonic_now();
        } else {
            TenantCounters::add(&metrics.tcp_idle_polls, 1);
            std::thread::sleep(idle_nap(last_moved.elapsed()));
        }
    }
    // Whatever partial message a still-open connection holds dies here.
    let cut_short = conns.iter().filter(|(_, reader)| reader.buffered() > 0).count();
    TenantCounters::add(&metrics.tcp_truncated_streams, cut_short as u64);
}

/// Metrics endpoint loop: a hand-rolled HTTP/1.0 responder for
/// `GET /metrics` (anything else is a 404).
fn run_metrics_endpoint(listener: &TcpListener, control: &Control) {
    while !control.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => serve_metrics_client(stream, control),
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(TICK),
            Err(_) => {
                TenantCounters::add(&control.metrics.io_errors, 1);
                std::thread::sleep(TICK);
            }
        }
    }
}

/// Serves one metrics client with bounded patience. The request must fit
/// [`METRICS_REQUEST_CAP`] bytes and complete its header block
/// (`\r\n\r\n`) within [`METRICS_READ_DEADLINE`]; a client that idles,
/// trickles bytes, or never terminates is reaped (connection dropped,
/// counted) instead of parking the endpoint thread — one slow scraper
/// must never block every other scraper behind it. A client that closes
/// before sending a byte is neither answered nor counted.
fn serve_metrics_client(mut stream: TcpStream, control: &Control) {
    /// Largest request the endpoint accepts; `GET /metrics HTTP/1.0` plus
    /// ordinary scraper headers is a few hundred bytes.
    const METRICS_REQUEST_CAP: usize = 1024;
    /// Total time a client gets to deliver a complete request.
    const METRICS_READ_DEADLINE: Duration = Duration::from_millis(250);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_write_timeout(Some(METRICS_READ_DEADLINE));
    let deadline = monotonic_now() + METRICS_READ_DEADLINE;
    let mut req = [0u8; METRICS_REQUEST_CAP];
    let mut have = 0usize;
    let complete = loop {
        if have >= req.len() || monotonic_now() >= deadline {
            break false;
        }
        match stream.read(&mut req[have..]) {
            // A peer gone before its first byte is a health probe (a TCP
            // connect check), not a stalled scraper: nothing to reap.
            Ok(0) if have == 0 => return,
            Ok(0) => break false,
            Ok(n) => {
                have += n;
                if req[..have].windows(4).any(|w| w == b"\r\n\r\n") {
                    break true;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => {
                TenantCounters::add(&control.metrics.io_errors, 1);
                break false;
            }
        }
    };
    if !complete {
        TenantCounters::add(&control.metrics.metrics_clients_reaped, 1);
        return;
    }
    let (status, body) = if req[..have].starts_with(b"GET /metrics") {
        ("200 OK", control.metrics.render())
    } else {
        ("404 Not Found", "not found\n".to_owned())
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    if stream.write_all(response.as_bytes()).is_err() {
        TenantCounters::add(&control.metrics.io_errors, 1);
    }
}

/// One tenant's supervision boundary: runs the worker under panic
/// containment and applies the restart/quarantine policy.
///
/// The worker owns its pipeline outright, so a panic can corrupt nothing
/// beyond that pipeline — it is dropped mid-unwind and a successor is
/// rebuilt from the tenant's newest checkpoint (or fresh), against the
/// *surviving* queue, sharing the predecessor's counter block. Other
/// tenants never notice. Policy:
///
/// * an injected [`CrashKind::Kill`] is simulated process death — report
///   [`TenantEnd::Killed`] with no flush and no restart;
/// * any other panic restarts the worker after a bounded, seeded-jitter
///   backoff;
/// * a panic that follows bin progress resets the consecutive count — a
///   tenant making headway is worth restarting indefinitely;
/// * more than `max_restarts` consecutive panics without progress
///   quarantines the tenant (`quarantined` gauge set, frames shed as
///   backpressure) so a poison-pill frame cannot melt the daemon.
struct Supervisor<'a> {
    spec: TenantSpec,
    store: Option<CheckpointStore>,
    max_restarts: u32,
    queue: Arc<BoundedQueue<FrameBatch>>,
    control: &'a Control,
    sources: &'a AtomicUsize,
}

/// The batch a tenant's worker is working through. The supervisor owns
/// it, outside the unwind boundary, so a contained panic costs the frame
/// that was being ingested — as it did when frames were popped one at a
/// time — and the successor carries on with the rest of the batch.
#[derive(Debug, Default)]
struct InHand {
    batch: FrameBatch,
    /// Index of the next frame to ingest; moved on *before* the frame is.
    next: usize,
}

impl InHand {
    fn next_frame(&mut self) -> Option<&[u8]> {
        let frame = self.batch.frame(self.next)?;
        self.next += 1;
        Some(frame)
    }
}

impl Supervisor<'_> {
    fn run(self, mut pipeline: TenantPipeline) -> TenantEnd {
        let counters = pipeline.counters();
        let name = self.spec.config.name.clone();
        let mut consecutive: u32 = 0;
        let mut attempt: u64 = 0;
        let mut hand = InHand::default();
        loop {
            let bins_before = TenantCounters::get(&counters.bins_closed);
            #[expect(
                clippy::disallowed_methods,
                reason = "the audited supervision boundary: this is the one place worker unwinds are caught, classified, and turned into restart/quarantine policy"
            )]
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_tenant_worker(pipeline, &self.queue, &mut hand, self.control, self.sources)
            }));
            let payload = match result {
                Ok(end) => return end,
                Err(payload) => payload,
            };
            if let Some(crash) = payload.downcast_ref::<CrashPayload>() {
                if crash.kind == CrashKind::Kill {
                    return TenantEnd::Killed { name, point: crash.point };
                }
            }
            attempt += 1;
            TenantCounters::add(&counters.restarts, 1);
            let progressed = TenantCounters::get(&counters.bins_closed) > bins_before;
            consecutive = if progressed { 1 } else { consecutive + 1 };
            if consecutive > self.max_restarts {
                TenantCounters::set(&counters.quarantined, 1);
                return TenantEnd::Failed {
                    name,
                    reason: format!("quarantined after {consecutive} consecutive worker panics"),
                };
            }
            std::thread::sleep(restart_backoff(attempt));
            match rebuild_pipeline(&self.spec, self.store.as_ref(), &counters) {
                Ok((successor, _)) => pipeline = successor,
                Err(e) => {
                    return TenantEnd::Failed { name, reason: format!("restart failed: {e}") }
                }
            }
        }
    }
}

/// Rebuilds a tenant pipeline from its checkpoints — for a restarted
/// worker and for [`Daemon::recover`] alike: from the newest valid
/// generation when one exists, fresh otherwise, on the given counter
/// block, checkpointing into the slot it did not resume from. Also
/// reports what the scan found.
fn rebuild_pipeline(
    spec: &TenantSpec,
    store: Option<&CheckpointStore>,
    counters: &Arc<TenantCounters>,
) -> Result<(TenantPipeline, TenantRecovery), ServeError> {
    let outcome = store.map(CheckpointStore::load_newest).unwrap_or_default();
    let recovery = TenantRecovery {
        tenant: spec.config.name.clone(),
        resumed_seq: outcome.state.as_ref().map(|s| s.seq),
        frames_ingested: outcome.state.as_ref().map_or(0, |s| s.frames_ingested),
        slots_rejected: outcome.rejected.len(),
    };
    let mut pipeline = match outcome.state {
        Some(state) => TenantPipeline::restore(
            spec.config.clone(),
            &spec.topology,
            spec.ingress.clone(),
            spec.routes.clone(),
            &state,
            Arc::clone(counters),
        )?,
        None => {
            let mut fresh = TenantPipeline::new(
                spec.config.clone(),
                &spec.topology,
                spec.ingress.clone(),
                spec.routes.clone(),
            )?;
            fresh.set_counters(Arc::clone(counters));
            fresh
        }
    };
    if let Some(s) = store {
        pipeline.set_checkpoint_store(s.clone(), outcome.slot);
    }
    Ok((pipeline, recovery))
}

/// Exponential backoff with deterministic splitmix64 jitter: attempt `k`
/// sleeps `RESTART_BACKOFF * 2^min(k-1, 6)` plus up to one extra
/// `RESTART_BACKOFF` of seeded jitter, so restarting tenants don't
/// stampede in lockstep yet every run of the test suite sleeps
/// identically.
fn restart_backoff(attempt: u64) -> Duration {
    let exp = u32::try_from(attempt.saturating_sub(1).min(6)).unwrap_or(6);
    let base = RESTART_BACKOFF.saturating_mul(1 << exp);
    let span = u64::try_from(RESTART_BACKOFF.as_nanos()).unwrap_or(u64::MAX).max(1);
    base + Duration::from_nanos(splitmix64(RESTART_JITTER_SEED ^ attempt) % span)
}

/// SplitMix64 — the workspace's stateless jitter/hash primitive.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Tenant worker loop: dequeue a batch, stamp its latency, ingest its
/// frames, hand the emptied batch back; on queue closure (or an idle
/// drain with no listeners left) flush and report. Starts with whatever a
/// panicked predecessor left in `hand`.
fn run_tenant_worker(
    mut pipeline: TenantPipeline,
    queue: &BoundedQueue<FrameBatch>,
    hand: &mut InHand,
    control: &Control,
    sources: &AtomicUsize,
) -> TenantEnd {
    let counters = pipeline.counters();
    loop {
        while let Some(frame) = hand.next_frame() {
            pipeline.ingest_frame(frame);
        }
        if !hand.batch.is_empty() {
            let spent = std::mem::take(hand);
            TenantCounters::set(&counters.queue_depth, queue.recycle(spent.batch) as u64);
        }
        // A pause holds the worker (admission keeps filling the queue);
        // a drain overrides it so shutdown always completes.
        if control.paused && !control.draining.load(Ordering::SeqCst) {
            std::thread::sleep(TICK);
            continue;
        }
        match queue.pop_timeout(TICK) {
            Pop::Item(batch) => {
                if let Some(queued) = batch.queued_at() {
                    let waited = elapsed_nanos(queued);
                    control.metrics.enqueue_latency.record_n(waited, batch.len() as u64);
                }
                *hand = InHand { batch, next: 0 };
            }
            Pop::Empty => {
                // With no listeners configured nobody closes the queues;
                // an idle drain is the end of input.
                if control.draining.load(Ordering::SeqCst)
                    && sources.load(Ordering::Acquire) == 0
                    && queue.is_empty()
                {
                    break;
                }
            }
            Pop::Closed => break,
        }
    }
    // Nobody pushes any more, so unlike the gauge's earlier values —
    // admission and this worker both store it — this one is exact.
    TenantCounters::set(&counters.queue_depth, queue.len() as u64);
    let name = pipeline.name().to_owned();
    match pipeline.flush() {
        Ok(flush) => TenantEnd::Flushed(Box::new(flush)),
        Err(e) => TenantEnd::Failed { name, reason: e.to_string() },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odflow_net::IngressResolver;

    fn spec(name: &str, num_bins: usize) -> TenantSpec {
        let scenario = odflow_gen::Scenario::paper_window(5, num_bins).unwrap();
        let routes = scenario.plan.build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&scenario.topology);
        TenantSpec {
            config: TenantConfig::abilene(name, 0, num_bins),
            topology: scenario.topology,
            ingress,
            routes,
        }
    }

    /// What `run` builds around [`Admission`], for one tenant and no
    /// sockets.
    fn admission_fixture(capacity: usize) -> (Control, Vec<Arc<BoundedQueue<FrameBatch>>>) {
        let control = Control {
            draining: AtomicBool::new(false),
            paused: false,
            metrics: ServeMetrics::new(&["t0".to_owned()]),
        };
        (control, vec![Arc::new(BoundedQueue::new(capacity))])
    }

    /// Message `k` of the test streams: a 100-byte frame that names itself.
    fn numbered_message(k: u32) -> Vec<u8> {
        let mut frame = vec![k as u8; 100];
        frame[..4].copy_from_slice(&k.to_be_bytes());
        wire::encode_message(0, &frame)
    }

    /// The numbers of the frames queued, in pop order.
    fn drain_numbers(queue: &BoundedQueue<FrameBatch>) -> Vec<u32> {
        let mut got = Vec::new();
        while let Pop::Item(batch) = queue.pop_timeout(Duration::ZERO) {
            for i in 0..batch.len() {
                let f = batch.frame(i).unwrap();
                assert_eq!(f.len(), 100);
                got.push(u32::from_be_bytes([f[0], f[1], f[2], f[3]]));
            }
        }
        got
    }

    /// A peer that always has more: 1000 bytes of the endless numbered
    /// stream per read, never `WouldBlock`.
    struct Firehose {
        sent: usize,
        reads: usize,
    }

    impl Read for Firehose {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let n = buf.len().min(1000);
            for slot in &mut buf[..n] {
                let message = numbered_message((self.sent / 105) as u32);
                *slot = message[self.sent % 105];
                self.sent += 1;
            }
            Ok(n)
        }
    }

    #[test]
    fn a_turn_ends_after_its_reads_with_the_partial_tail_kept() {
        let (control, queues) = admission_fixture(1024);
        let adm = Admission { control: &control, queues: &queues };
        let mut batcher = adm.batcher();
        let mut reader = MessageReader::new();
        let mut peer = Firehose { sent: 0, reads: 0 };

        let turn = connection_turn(&mut peer, &mut reader, &mut batcher, READS_PER_TURN);
        assert!(turn.moved && turn.keep);
        assert_eq!(peer.reads, READS_PER_TURN, "the turn ends though the peer never ran dry");
        // 4000 bytes are 38 whole 105-byte messages and 10 bytes of the 39th.
        assert_eq!(drain_numbers(&queues[0]), (0..38).collect::<Vec<u32>>());
        assert_eq!(reader.buffered(), 10);
        let get = TenantCounters::get;
        assert_eq!(get(&control.metrics.tcp_messages), 38);
        assert_eq!(get(&control.metrics.admission_batches), READS_PER_TURN as u64);

        // The next turn picks the stream up mid-message.
        let turn = connection_turn(&mut peer, &mut reader, &mut batcher, READS_PER_TURN);
        assert!(turn.moved && turn.keep);
        assert_eq!(peer.reads, 2 * READS_PER_TURN);
        assert_eq!(drain_numbers(&queues[0]), (38..76).collect::<Vec<u32>>());
        assert_eq!(reader.buffered(), 20);
        assert_eq!(get(&control.metrics.tcp_truncated_streams), 0);
    }

    /// A peer that plays back a script; past its end the stream is over.
    struct Scripted(std::collections::VecDeque<std::io::Result<Vec<u8>>>);

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let bytes = self.0.pop_front().unwrap_or(Ok(Vec::new()))?;
            buf[..bytes.len()].copy_from_slice(&bytes);
            Ok(bytes.len())
        }
    }

    #[test]
    fn nothing_is_lost_across_turns_and_a_cut_stream_is_counted() {
        let (control, queues) = admission_fixture(1024);
        let adm = Admission { control: &control, queues: &queues };
        let mut batcher = adm.batcher();
        let mut reader = MessageReader::new();
        let stream: Vec<u8> = (0..5).flat_map(numbered_message).collect();
        let would_block = || Err(std::io::Error::from(ErrorKind::WouldBlock));
        let mut peer = Scripted(
            [
                Ok(stream[..250].to_vec()), // two messages and 40 bytes
                would_block(),
                Ok(stream[250..].to_vec()),
                would_block(),
                Ok(numbered_message(5)[..50].to_vec()), // half a message, then the end
            ]
            .into(),
        );
        let get = TenantCounters::get;

        let turn = connection_turn(&mut peer, &mut reader, &mut batcher, READS_PER_TURN);
        assert!(turn.moved && turn.keep);
        assert_eq!((queues[0].len(), reader.buffered()), (2, 40));
        let turn = connection_turn(&mut peer, &mut reader, &mut batcher, READS_PER_TURN);
        assert!(turn.moved && turn.keep);
        assert_eq!(drain_numbers(&queues[0]), vec![0, 1, 2, 3, 4]);
        assert_eq!(reader.buffered(), 0);

        let turn = connection_turn(&mut peer, &mut reader, &mut batcher, READS_PER_TURN);
        assert!(turn.moved && !turn.keep, "end of stream closes the connection");
        assert_eq!(get(&control.metrics.tcp_truncated_streams), 1, "half a message was lost");
        assert_eq!(get(&control.metrics.tcp_messages), 5);
        assert_eq!(get(&control.metrics.tenant(0).unwrap().frames_offered), 5);
        assert!(queues[0].is_empty());

        // A clean end of stream is not a loss.
        let turn = connection_turn(&mut peer, &mut MessageReader::new(), &mut batcher, 1);
        assert!(!turn.moved && !turn.keep);
        assert_eq!(get(&control.metrics.tcp_truncated_streams), 1);
    }

    #[test]
    fn a_drain_takes_effect_after_the_frames_ahead_of_it() {
        let (control, queues) = admission_fixture(1024);
        let adm = Admission { control: &control, queues: &queues };
        let mut batcher = adm.batcher();
        let mut stream: Vec<u8> = (0..3).flat_map(numbered_message).collect();
        stream.extend(wire::encode_message(CONTROL_TENANT, wire::CONTROL_DRAIN));
        stream.extend(numbered_message(3));
        let mut peer = Scripted([Ok(stream)].into());
        let turn = connection_turn(&mut peer, &mut MessageReader::new(), &mut batcher, 1);
        assert!(turn.moved && turn.keep);
        assert!(adm.draining());
        // One read, two batches: the drain flushed what preceded it.
        let Pop::Item(ahead) = queues[0].pop_timeout(Duration::ZERO) else { panic!("queued") };
        assert_eq!(ahead.len(), 3);
        assert_eq!(drain_numbers(&queues[0]), vec![3]);
        assert_eq!(TenantCounters::get(&control.metrics.admission_batches), 2);
    }

    #[test]
    fn idle_nap_is_an_eighth_of_the_quiet_between_floor_and_tick() {
        let us = Duration::from_micros;
        assert_eq!(idle_nap(Duration::ZERO), NAP_FLOOR);
        assert_eq!(idle_nap(us(399)), NAP_FLOOR);
        assert_eq!(idle_nap(us(4_000)), us(500));
        assert_eq!(idle_nap(us(40_000)), TICK, "eight ticks of quiet: back to one per tick");
        assert_eq!(idle_nap(Duration::from_secs(60)), TICK);
    }

    #[test]
    fn bind_rejects_degenerate_configs() {
        assert!(matches!(Daemon::bind(ServeConfig::default()), Err(ServeError::Config(_))));
    }

    #[test]
    fn bound_daemon_exposes_ephemeral_addresses() {
        let config = ServeConfig {
            udp_bind: Some("127.0.0.1:0".to_owned()),
            tcp_bind: Some("127.0.0.1:0".to_owned()),
            metrics_bind: Some("127.0.0.1:0".to_owned()),
            tenants: vec![spec("t0", 6)],
            ..ServeConfig::default()
        };
        let daemon = Daemon::bind(config).unwrap();
        assert!(daemon.udp_addr().is_some());
        assert!(daemon.tcp_addr().is_some());
        assert!(daemon.metrics_addr().is_some());
        let handle = daemon.handle();
        assert!(handle.tenant_counters(0).is_some());
        assert!(handle.tenant_counters(1).is_none());
        assert!(handle.metrics_text().contains("tenant=\"t0\""));
    }

    #[test]
    fn idle_drain_reports_empty_window_failure() {
        // No listeners, no frames: drain immediately; the flush fails
        // with NoData and the daemon reports it rather than panicking.
        let daemon =
            Daemon::bind(ServeConfig { tenants: vec![spec("t0", 6)], ..ServeConfig::default() })
                .unwrap();
        let handle = daemon.handle();
        handle.drain();
        let report = daemon.run();
        assert_eq!(report.tenants.len(), 1);
        assert!(matches!(
            &report.tenants[0],
            TenantEnd::Failed { name, .. } if name == "t0"
        ));
    }
}
