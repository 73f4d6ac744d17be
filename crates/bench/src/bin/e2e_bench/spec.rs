//! The benchmark's vocabulary: workload names, metric names, units,
//! directions, regression bounds, and — for every per-layer metric — the
//! end-to-end metric it should move and on which workload. `BENCHMARK.json`
//! at the repository root states the same table for the driver; a unit
//! test keeps the two identical.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line: which layers carry the load, and which optimisation the
    /// workload exercises or bypasses.
    pub why: &'static str,
    /// Open- or closed-loop statement.
    pub load: &'static str,
}

pub const SERVE_TCP_CAPACITY: &str = "serve_tcp_capacity";
pub const SERVE_TCP_STORM: &str = "serve_tcp_storm";
pub const SERVE_TCP_CHECKPOINTED: &str = "serve_tcp_checkpointed";
pub const BATCH_FOUR_WEEKS: &str = "batch_four_weeks";
pub const LARGE_MESH: &str = "large_mesh";

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: SERVE_TCP_CAPACITY,
        why: "clean frames over TCP as fast as the daemon drains them, no checkpoints: wire \
              reassembly, admission copies, queue handoff, decode, resolve+bin do the work; the \
              wire-path item must move it",
        load: "closed loop on backlog: one sender thread, one TCP connection on loopback, at \
               most 8 bins in flight, queue sized to hold the whole stream so nothing sheds",
    },
    WorkloadSpec {
        name: SERVE_TCP_STORM,
        why: "same path under a dense fault schedule: quarantine, dedup, gap accounting, masked \
              bins and repair run, so a fast-path gain that taxes the lossy path shows",
        load: "closed loop on backlog: one sender thread, one TCP connection on loopback, at \
               most 8 bins in flight, frames pre-mutated in set-up",
    },
    WorkloadSpec {
        name: SERVE_TCP_CHECKPOINTED,
        why:
            "production configuration, a checkpoint per bin close: bin close, online score, state \
              encode and fsync dominate, the wire is a few percent; the checkpoint item must move \
              it, capacity bypasses it",
        load: "closed loop: one client, one bin in flight; the next burst is sent when the \
               previous bin is closed and checkpointed",
    },
    WorkloadSpec {
        name: BATCH_FOUR_WEEKS,
        why: "the paper's four-week design through run_scenario and score_events, no sockets: \
              generator, fused sharded binning, dense eigen at p=121, classification; a \
              serve-side change must not move it",
        load: "batch: one week per iteration, weeks 0-3 in turn, on the default odflow_par pool",
    },
    WorkloadSpec {
        name: LARGE_MESH,
        why: "90000 OD pairs: sharded ingest then randomized truncated fit and scoring; memory \
              and the randomized backend dominate, the only workload where an RSS target shows",
        load:
            "batch: bin_scenario then detect_matrix per iteration, on the default odflow_par pool",
    },
];

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    /// For a per-layer metric: the layer's public call that is timed, the
    /// end-to-end metric it should move, and on which workload. For an
    /// end-to-end metric: what it measures.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    note: &'static str,
) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(bound), note }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> MetricSpec {
    MetricSpec { name, unit, better, bound: None, note }
}

pub const SETUP_S: &str = "setup_s";
pub const WALL_S: &str = "wall_s";
pub const RECORDS_PER_S: &str = "records_per_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

/// The gated metrics, reported by every workload (`--trace 0`).
pub const END_TO_END: [MetricSpec; 4] = [
    e2e(
        SETUP_S,
        "s",
        Better::Lower,
        0.25,
        "median of the set-up repeats: scenario, frame pre-render, reference digest, first bind",
    ),
    e2e(
        WALL_S,
        "s",
        Better::Lower,
        0.20,
        "median timing sample: first input byte to complete verified result",
    ),
    e2e(RECORDS_PER_S, "1/s", Better::Higher, 0.20, "median of input flow records / wall_s"),
    e2e(
        PEAK_RSS_MB,
        "MB",
        Better::Lower,
        0.10,
        "VmHWM of the workload's own process after set-up and the first complete iteration",
    ),
];

use Better::{Higher, Lower};

/// The ungated metrics of single layers, reported by the traced walk
/// (`--trace 1`). A workload that never enters a layer reports 0 for it.
pub const PER_LAYER: [MetricSpec; 48] = [
    // Demoted end-to-end metrics: defined on one workload only, or exactly
    // zero / constant per seed, so the driver's contract cannot gate them.
    layer("failed_share", "share", Lower, "failed / attempted of the traced iteration; gated through the result line's `failed`"),
    layer("settle_p50_ms", "ms", Lower, "burst-send start to bin closed and checkpointed, median -> wall_s @ serve_tcp_checkpointed"),
    layer("settle_p95_ms", "ms", Lower, "same, highest percentile with >= 10 samples beyond -> wall_s @ serve_tcp_checkpointed"),
    layer("detect_recall", "share", Higher, "pooled truth scoring of all four weeks @ batch_four_weeks; exact per seed"),
    layer("detect_precision", "share", Higher, "pooled truth scoring of all four weeks @ batch_four_weeks; exact per seed"),
    // Serve walk, serial, over the same pre-rendered frames.
    layer("serve.loadgen.send_s", "s", Lower, "sender time of the traced iteration; if ~ wall_s the generator, not the daemon, is the limit -> validity of records_per_s"),
    layer("serve.wire.reassemble_ns_per_frame", "ns", Lower, "MessageReader::extend + next_message, 64 KiB chunks -> records_per_s @ serve_tcp_capacity, serve_tcp_storm"),
    layer("serve.queue.handoff_ns_per_frame", "ns", Lower, "frame.to_vec() + BoundedQueue::try_push + pop_timeout -> records_per_s @ serve_tcp_capacity"),
    layer("serve.queue.depth_peak", "count", Lower, "TenantCounters::queue_depth_peak of the traced iteration -> peak_rss_mb @ serve_tcp_capacity"),
    layer("serve.daemon.shed_frames", "count", Lower, "frames_dropped_backpressure of the traced iteration -> failed"),
    layer("serve.daemon.enqueue_p99_us", "us", Lower, "DaemonHandle::enqueue_p99_nanos, admission to dequeue -> settle_p95_ms @ serve_tcp_checkpointed"),
    layer("flow.netflow.decode_ns_per_record", "ns", Lower, "decode_datagram_lossy -> records_per_s @ serve_tcp_capacity, serve_tcp_storm"),
    layer("flow.netflow.quarantined_share", "share", Lower, "frames quarantined / frames offered, exact -> fast-path share @ serve_tcp_storm"),
    layer("flow.quality.dedup_share", "share", Lower, "duplicate frames / frames accepted, exact -> fast-path share @ serve_tcp_storm"),
    layer("flow.quality.seq_lost_flows", "count", Lower, "ExporterSeqStats::lost_flows_total, exact -> fast-path share @ serve_tcp_storm"),
    layer("flow.quality.seq_observe_ns_per_frame", "ns", Lower, "ExporterSeqStats::observe -> records_per_s @ serve_tcp_storm"),
    layer("flow.shard.resolve_bin_ns_per_record", "ns", Lower, "BinShard::push_sampled_record, the layer serve and batch share -> records_per_s @ serve_tcp_capacity and wall_s @ batch_four_weeks, large_mesh"),
    layer("flow.shard.merge_ms", "ms", Lower, "ShardedIngest::merge of the full-window shard -> wall_s @ serve_tcp_capacity, fixed cost"),
    layer("subspace.online.fit_ms", "ms", Lower, "OnlineDetector::new on the training prefix -> wall_s @ serve_tcp_capacity, fixed cost"),
    layer("subspace.online.push_us_per_bin", "us", Lower, "OnlineDetector::push_with_status -> settle_p50_ms @ serve_tcp_checkpointed"),
    layer("serve.tenant.ingest_ns_per_record", "ns", Lower, "TenantPipeline::ingest_frame over every frame; 1e9 / this is the worker-bound ceiling of records_per_s @ serve_tcp_capacity"),
    layer("serve.tenant.flush_ms", "ms", Lower, "TenantPipeline::flush: merge, repair, diagnose -> wall_s @ serve workloads, fixed cost"),
    layer("serve.checkpoint.state_mb_final", "MB", Lower, "encode_state length at the last bin close, exact -> settle_*, peak_rss_mb @ serve_tcp_checkpointed"),
    layer("serve.checkpoint.mb_written_total", "MB", Lower, "sum of encode_state lengths over all bin closes, exact -> wall_s @ serve_tcp_checkpointed"),
    layer("serve.checkpoint.encode_ms_per_mb", "ms/MB", Lower, "export_state + encode_state -> wall_s @ serve_tcp_checkpointed"),
    layer("serve.checkpoint.write_ms_per_mb", "ms/MB", Lower, "CheckpointStore::write minus encode: create, write, fsync, rename -> wall_s @ serve_tcp_checkpointed"),
    layer("serve.checkpoint.load_ms", "ms", Lower, "CheckpointStore::load_newest at the final generation -> restart cost, no end-to-end metric yet"),
    layer("serve.checkpoint.restore_ms", "ms", Lower, "TenantPipeline::restore from the loaded state -> restart cost"),
    layer("serve.daemon.recover_ms", "ms", Lower, "Daemon::recover at the final generation: the operator's restart cost"),
    layer("serve.daemon.settle_first_quarter_p50_ms", "ms", Lower, "median settle over the first quarter of bins @ serve_tcp_checkpointed"),
    layer("serve.daemon.settle_last_quarter_p50_ms", "ms", Lower, "median settle over the last quarter; against the first quarter it makes the O(n*p) state growth a number"),
    layer("serve.daemon.unattributed_s", "s", Lower, "wall_s - tenant ingest - flush of the traced iteration: sockets, 5 ms poll ticks, thread handoff, scheduling, (checkpointed) fsync"),
    layer("trace_overhead_share", "share", Lower, "serve.tenant walk with span recording on vs off: the cost of tracing as a number"),
    // Batch walk, week 0, re-driving run_scenario's steps through public calls.
    layer("gen.render_ns_per_record", "ns", Lower, "TraceGenerator::records_for_bin on a fixed bin sample -> wall_s @ batch_four_weeks, large_mesh"),
    layer("gen.frames_ns_per_record", "ns", Lower, "TraceGenerator::frames_for_bin on the same sample -> setup_s @ serve workloads"),
    layer("experiment.bin_scenario_s", "s", Lower, "TraceGenerator::bin_scenario, fused generate->resolve->bin -> wall_s @ batch_four_weeks"),
    layer("subspace.diagnose_ms", "ms", Lower, "diagnose over the three views -> wall_s @ batch_four_weeks"),
    layer("subspace.model.fit_ms", "ms", Lower, "SubspaceModel::fit on the bytes view -> subspace.diagnose_ms"),
    layer("linalg.gram_ms", "ms", Lower, "scatter (X^T X) at n=2016 p=121 -> subspace.model.fit_ms"),
    layer("linalg.eigen_ms", "ms", Lower, "eigen_symmetric_auto at p=121 (Jacobi today) -> wall_s @ batch_four_weeks only"),
    layer("experiment.classify_s", "s", Lower, "run_scenario wall - bin_scenario - diagnose: a named remainder, classify_event is private"),
    layer("experiment.serial_week_s", "s", Lower, "week 0 under with_thread_limit(1): the single-thread baseline of wall_s @ batch_four_weeks"),
    layer("par.pool_threads", "count", Higher, "odflow_par::default_threads: every batch number depends on it"),
    // Mesh walk.
    layer("flow.shard.mesh_ingest_s", "s", Lower, "bin_scenario at p=90000 -> wall_s @ large_mesh"),
    layer("subspace.randomized_fit_s", "s", Lower, "SubspaceModel::fit, k=10, EigenMethod::Auto -> wall_s @ large_mesh"),
    layer("subspace.score_s", "s", Lower, "detect_matrix - fit: scoring every bin -> wall_s @ large_mesh"),
    layer("flow.matrix.cells_mb", "MB", Lower, "n*p*3*8 bytes of matrix cells, analytic -> peak_rss_mb @ large_mesh"),
    layer("experiment.rss_after_ingest_mb", "MB", Lower, "VmRSS once bin_scenario returns -> peak_rss_mb @ large_mesh"),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// `true` for names the driver accepts: a leading letter or digit, then
    /// letters, digits, `_`, `.`, `-`, at most 64 characters.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn metric_rows(doc: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .map(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or_default().to_owned();
                (s("name"), s("unit"), s("better"), m.get("bound").and_then(Value::as_f64))
            })
            .collect()
    }

    fn spec_rows(specs: &[MetricSpec]) -> Vec<(String, String, String, Option<f64>)> {
        specs
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.as_str().to_owned(), m.bound))
            .collect()
    }

    #[test]
    fn every_name_is_valid_and_used_once() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "{name} is not a valid metric/workload name");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "names must be unique across the benchmark");
        for bad in ["", "-lead", "has space", "sl/ash", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} must be rejected");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}: unit {}", m.name, m.unit);
            assert!(
                m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
        }
    }

    #[test]
    fn benchmark_json_states_exactly_this_table() {
        let doc =
            json::parse(include_str!("../../../../../BENCHMARK.json")).expect("BENCHMARK.json");
        let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"],
            "BENCHMARK.json has exactly the contract's keys"
        );
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .map(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Value::as_str).unwrap_or_default().to_owned();
                (s("name"), s("why"))
            })
            .collect();
        let expected: Vec<(String, String)> =
            WORKLOADS.iter().map(|w| (w.name.to_owned(), w.why.to_owned())).collect();
        assert_eq!(workloads, expected);
        assert_eq!(metric_rows(&doc, "end_to_end"), spec_rows(&END_TO_END));
        assert_eq!(metric_rows(&doc, "per_layer"), spec_rows(&PER_LAYER));
        let paths: Vec<&str> = doc
            .get("paths")
            .map(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(Value::as_str)
            .collect();
        assert_eq!(paths, ["crates/bench/src/bin/e2e_bench"]);
        // The gate needs set-up time, and the largest bound belongs to it.
        let setup = END_TO_END.iter().find(|m| m.name == SETUP_S).expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound && m.bound <= Some(0.25)));
    }
}
