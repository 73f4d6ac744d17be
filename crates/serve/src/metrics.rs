//! Lock-free operational counters and the `/metrics` text rendering.
//!
//! Every counter is an `AtomicU64` bumped with relaxed ordering — the
//! hot path never takes a lock to observe itself, and readers accept
//! momentarily torn cross-counter views (each individual counter is
//! exact). Rendering produces a Prometheus-flavoured plain-text page:
//! one `name{tenant="..."} value` line per tenant counter plus daemon
//! totals.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The daemon's single clock read, wrapped so the ambient-nondeterminism
/// lint audit has exactly one sanctioned call site. Timing here feeds
/// operator metrics only — never detection math, which stays driven by
/// the `unix_secs` timestamps inside the frames themselves.
#[must_use]
pub fn monotonic_now() -> Instant {
    // lint:allow(no-ambient-nondeterminism) -- operator-facing metrics timer; detection math is driven by frame-embedded timestamps, never by this clock
    Instant::now()
}

/// Nanoseconds since `t0`, saturating into `u64`.
pub(crate) fn elapsed_nanos(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Number of power-of-two latency buckets: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` nanoseconds, with the last bucket open-ended. 40
/// buckets reach ~18 minutes, far past any plausible enqueue latency.
const HISTOGRAM_BUCKETS: usize = 40;

/// A fixed power-of-two-bucket latency histogram over nanoseconds.
///
/// `record` is wait-free (one relaxed `fetch_add`); `quantile` walks the
/// 40 buckets and reports the upper bound of the bucket containing the
/// requested rank — a ≤ 2× overestimate, which is plenty for a p99 gauge.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS] }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one sample, in nanoseconds.
    pub fn record(&self, nanos: u64) {
        self.record_n(nanos, 1);
    }

    /// Records `n` samples of the same value with one `fetch_add` — the
    /// frames of a batch share its time in the queue.
    pub fn record_n(&self, nanos: u64, n: u64) {
        let idx = if nanos == 0 {
            0
        } else {
            ((63 - u64::leading_zeros(nanos) as u64) as usize).min(HISTOGRAM_BUCKETS - 1)
        };
        self.buckets[idx].fetch_add(n, Ordering::Relaxed);
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Upper bound (nanoseconds) of the bucket containing the `q`
    /// quantile (`q` in `[0, 1]`), or 0 with no samples.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        u64::MAX
    }
}

/// Per-tenant pipeline counters, shared between the admission path, the
/// tenant worker, and the metrics renderer.
#[derive(Debug, Default)]
pub struct TenantCounters {
    /// Frames addressed to this tenant, whether or not admitted.
    pub frames_offered: AtomicU64,
    /// Frames accepted into the tenant queue.
    pub frames_enqueued: AtomicU64,
    /// Frames shed because the queue was at capacity (backpressure).
    pub frames_dropped_backpressure: AtomicU64,
    /// Frames the lossy decoder quarantined (any class).
    pub frames_quarantined: AtomicU64,
    /// Flow records decoded and pushed toward the binner.
    pub records_decoded: AtomicU64,
    /// Of those, records refused because the lateness rule had sealed
    /// their bin.
    pub records_late_dropped: AtomicU64,
    /// Records the shard could not place (resolver failures beyond the
    /// quiet out-of-window accounting).
    pub ingest_errors: AtomicU64,
    /// Flows the exporter sequence tracker inferred as lost upstream.
    pub exporter_lost_flows: AtomicU64,
    /// Bins closed and pushed through the online detector.
    pub bins_closed: AtomicU64,
    /// SPE threshold crossings reported by the online detector.
    pub alarms_spe: AtomicU64,
    /// T² threshold crossings reported by the online detector.
    pub alarms_t2: AtomicU64,
    /// Verdicts produced while the pipeline was degraded.
    pub verdicts_degraded: AtomicU64,
    /// Current queue depth (gauge, stored not accumulated).
    pub queue_depth: AtomicU64,
    /// High-water mark of the queue depth.
    pub queue_depth_peak: AtomicU64,
    /// Highest bin index the tenant's watermark has reached (gauge).
    pub watermark_bin: AtomicU64,
    /// Distinct `(OD, 5-tuple)` pairs the tenant's shard holds in memory
    /// (gauge, refreshed at each bin close; zero after flush).
    pub distinct_keys_live: AtomicU64,
    /// Bytes of distinct-flow table storage behind them (gauge).
    pub distinct_table_bytes: AtomicU64,
    /// Nanoseconds spent admitting frames: bounds and plausibility checks,
    /// quarantine and exporter-sequence accounting.
    pub decode_nanos: AtomicU64,
    /// Nanoseconds spent decoding records in place and pushing them into
    /// the shard.
    pub ingest_nanos: AtomicU64,
    /// Nanoseconds spent closing bins through the detector.
    pub detect_nanos: AtomicU64,
    /// Checkpoint generations durably written.
    pub checkpoints: AtomicU64,
    /// Bytes of those generations, complete records and deltas alike.
    pub checkpoint_bytes: AtomicU64,
    /// Generations that were complete records (chain rebases).
    pub checkpoint_complete: AtomicU64,
    /// Bytes of the newest generation (gauge).
    pub checkpoint_last_bytes: AtomicU64,
    /// Checkpoint writes that failed; the pipeline kept serving on the
    /// generations already durable.
    pub checkpoint_errors: AtomicU64,
    /// Worker restarts after a contained panic.
    pub restarts: AtomicU64,
    /// 1 once the tenant was quarantined for panicking persistently
    /// (gauge; other tenants keep running).
    pub quarantined: AtomicU64,
}

impl TenantCounters {
    /// Relaxed-load snapshot of one counter.
    #[must_use]
    pub fn get(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    /// Bumps a counter by `n`.
    pub fn add(c: &AtomicU64, n: u64) {
        c.fetch_add(n, Ordering::Relaxed);
    }

    /// Stores a gauge value.
    pub fn set(c: &AtomicU64, v: u64) {
        c.store(v, Ordering::Relaxed);
    }

    /// Raises a high-water-mark gauge to at least `v`.
    pub fn raise(c: &AtomicU64, v: u64) {
        c.fetch_max(v, Ordering::Relaxed);
    }

    /// Bins the watermark has passed but the worker has not yet closed —
    /// the tenant's ingest lag in bins.
    #[must_use]
    pub fn bin_lag(&self) -> u64 {
        Self::get(&self.watermark_bin).saturating_sub(Self::get(&self.bins_closed))
    }
}

/// Daemon-wide counters plus the per-tenant counter blocks.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// UDP datagrams received.
    pub udp_datagrams: AtomicU64,
    /// Complete TCP messages parsed off streams.
    pub tcp_messages: AtomicU64,
    /// TCP connections accepted.
    pub tcp_connections: AtomicU64,
    /// Envelope-level rejects: empty datagrams, oversized message
    /// declarations (connection dropped).
    pub envelope_errors: AtomicU64,
    /// TCP streams that ended — peer close, read error, oversize drop or
    /// listener exit — holding part of a message that is now lost.
    pub tcp_truncated_streams: AtomicU64,
    /// TCP listener sweeps that moved nothing (each is followed by a nap).
    pub tcp_idle_polls: AtomicU64,
    /// Batches handed to tenant queues; frames per batch is
    /// `tcp_messages / admission_batches` on a TCP-only daemon.
    pub admission_batches: AtomicU64,
    /// Frames addressed to a tenant index the daemon does not host.
    pub unknown_tenant: AtomicU64,
    /// Socket read errors absorbed on the hot path.
    pub io_errors: AtomicU64,
    /// Control messages honoured (drain requests).
    pub control_messages: AtomicU64,
    /// Metrics clients reaped for idling or trickling past the read
    /// deadline without completing a request. A client that hangs up
    /// before sending a byte (a health probe) is not counted.
    pub metrics_clients_reaped: AtomicU64,
    /// Latency from socket admission to worker dequeue.
    pub enqueue_latency: LatencyHistogram,
    /// One counter block per hosted tenant, in tenant-index order.
    pub tenants: Vec<(String, Arc<TenantCounters>)>,
}

impl ServeMetrics {
    /// Metrics for `names` tenants, counters zeroed.
    #[must_use]
    pub fn new(names: &[String]) -> Self {
        ServeMetrics {
            tenants: names
                .iter()
                .map(|n| (n.clone(), Arc::new(TenantCounters::default())))
                .collect(),
            ..ServeMetrics::default()
        }
    }

    /// The counter block for tenant index `idx`.
    #[must_use]
    pub fn tenant(&self, idx: usize) -> Option<&Arc<TenantCounters>> {
        self.tenants.get(idx).map(|(_, c)| c)
    }

    /// Renders the plain-text metrics page served at `GET /metrics`.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        let g = TenantCounters::get;
        let _ = writeln!(out, "odflow_serve_udp_datagrams_total {}", g(&self.udp_datagrams));
        let _ = writeln!(out, "odflow_serve_tcp_messages_total {}", g(&self.tcp_messages));
        let _ = writeln!(out, "odflow_serve_tcp_connections_total {}", g(&self.tcp_connections));
        let _ = writeln!(out, "odflow_serve_envelope_errors_total {}", g(&self.envelope_errors));
        let _ = writeln!(
            out,
            "odflow_serve_tcp_truncated_streams_total {}",
            g(&self.tcp_truncated_streams)
        );
        let _ = writeln!(out, "odflow_serve_tcp_idle_polls_total {}", g(&self.tcp_idle_polls));
        let _ =
            writeln!(out, "odflow_serve_admission_batches_total {}", g(&self.admission_batches));
        let _ = writeln!(out, "odflow_serve_unknown_tenant_total {}", g(&self.unknown_tenant));
        let _ = writeln!(out, "odflow_serve_io_errors_total {}", g(&self.io_errors));
        let _ = writeln!(out, "odflow_serve_control_messages_total {}", g(&self.control_messages));
        let _ = writeln!(
            out,
            "odflow_serve_metrics_clients_reaped_total {}",
            g(&self.metrics_clients_reaped)
        );
        let _ = writeln!(
            out,
            "odflow_serve_enqueue_latency_p99_nanos {}",
            self.enqueue_latency.quantile(0.99)
        );
        let _ = writeln!(
            out,
            "odflow_serve_enqueue_latency_samples_total {}",
            self.enqueue_latency.count()
        );
        for (name, c) in &self.tenants {
            let mut line = |metric: &str, value: u64| {
                let _ = writeln!(out, "odflow_serve_tenant_{metric}{{tenant=\"{name}\"}} {value}");
            };
            line("frames_offered_total", g(&c.frames_offered));
            line("frames_enqueued_total", g(&c.frames_enqueued));
            line("frames_dropped_backpressure_total", g(&c.frames_dropped_backpressure));
            line("frames_quarantined_total", g(&c.frames_quarantined));
            line("records_decoded_total", g(&c.records_decoded));
            line("records_late_dropped_total", g(&c.records_late_dropped));
            line("ingest_errors_total", g(&c.ingest_errors));
            line("exporter_lost_flows_total", g(&c.exporter_lost_flows));
            line("bins_closed_total", g(&c.bins_closed));
            line("alarms_spe_total", g(&c.alarms_spe));
            line("alarms_t2_total", g(&c.alarms_t2));
            line("verdicts_degraded_total", g(&c.verdicts_degraded));
            line("queue_depth", g(&c.queue_depth));
            line("queue_depth_peak", g(&c.queue_depth_peak));
            line("watermark_bin", g(&c.watermark_bin));
            line("bin_lag", c.bin_lag());
            line("distinct_keys_live", g(&c.distinct_keys_live));
            line("distinct_table_bytes", g(&c.distinct_table_bytes));
            line("decode_nanos_total", g(&c.decode_nanos));
            line("ingest_nanos_total", g(&c.ingest_nanos));
            line("detect_nanos_total", g(&c.detect_nanos));
            line("checkpoints_total", g(&c.checkpoints));
            line("checkpoint_bytes_total", g(&c.checkpoint_bytes));
            line("checkpoint_complete_total", g(&c.checkpoint_complete));
            line("checkpoint_last_bytes", g(&c.checkpoint_last_bytes));
            line("checkpoint_errors_total", g(&c.checkpoint_errors));
            line("restarts_total", g(&c.restarts));
            line("quarantined", g(&c.quarantined));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.99), 0, "empty histogram reads zero");
        for _ in 0..99 {
            h.record(1_000); // bucket ⌊log2 1000⌋ = 9 → bound 2^10
        }
        h.record(1 << 20); // one slow outlier → bound 2^21
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.5), 1 << 10);
        assert_eq!(h.quantile(0.99), 1 << 10);
        assert_eq!(h.quantile(1.0), 1 << 21);
        h.record(0); // zero maps to the first bucket, no underflow
        assert_eq!(h.count(), 101);
        h.record_n(1 << 30, 45); // a batch of frames is 45 samples
        assert_eq!(h.count(), 146);
        assert_eq!(h.quantile(1.0), 1 << 31);
    }

    #[test]
    fn bin_lag_is_watermark_minus_closed() {
        let c = TenantCounters::default();
        TenantCounters::raise(&c.watermark_bin, 7);
        TenantCounters::add(&c.bins_closed, 5);
        assert_eq!(c.bin_lag(), 2);
        TenantCounters::add(&c.bins_closed, 5);
        assert_eq!(c.bin_lag(), 0, "lag saturates at zero");
    }

    #[test]
    fn render_emits_per_tenant_lines() {
        let m = ServeMetrics::new(&["t0".to_owned(), "edge".to_owned()]);
        TenantCounters::add(&m.tenant(0).unwrap().frames_offered, 99);
        TenantCounters::add(&m.udp_datagrams, 3);
        let page = m.render();
        assert!(page.contains("odflow_serve_udp_datagrams_total 3"));
        for metric in
            ["tcp_truncated_streams_total", "tcp_idle_polls_total", "admission_batches_total"]
        {
            assert!(page.contains(&format!("odflow_serve_{metric} 0")), "{metric}");
        }
        assert!(page.contains("odflow_serve_tenant_frames_offered_total{tenant=\"t0\"} 99"));
        assert!(page.contains("odflow_serve_tenant_frames_offered_total{tenant=\"edge\"} 0"));
        assert!(page.contains("odflow_serve_tenant_bin_lag{tenant=\"edge\"} 0"));
        for metric in [
            "records_late_dropped_total",
            "distinct_keys_live",
            "distinct_table_bytes",
            "checkpoint_bytes_total",
            "checkpoint_complete_total",
            "checkpoint_last_bytes",
            "checkpoint_errors_total",
        ] {
            assert!(page.contains(&format!("odflow_serve_tenant_{metric}{{tenant=\"t0\"}} 0")));
        }
        assert!(m.tenant(2).is_none());
    }
}
