//! One tenant's streaming pipeline: frames in, bins closed, verdicts out.
//!
//! A tenant is one monitored mesh — its own topology, routing state, and
//! detection configuration. The daemon runs each tenant's pipeline on a
//! dedicated worker thread; everything here is therefore plain `&mut
//! self` single-threaded code, which is what makes the end state
//! deterministic: frames decode **serially, in arrival order** (the
//! quarantine and exporter-sequence accounting are order-sensitive) and
//! records fill a **single full-window shard**, the degenerate grain the
//! workspace's equivalence tests pin to the batch path.
//!
//! Bins close as the export-time [`Watermark`] passes their end; each
//! closed bin's bytes row feeds the [`OnlineDetector`] (once a training
//! prefix has accumulated). A closed bin still takes late records for
//! [`LATENESS_HORIZON_BINS`](odflow_flow::LATENESS_HORIZON_BINS) bins;
//! then the watermark seals it — its records are refused and counted, its
//! distinct-flow table freed — so the shard holds the 5-tuples of the
//! bins that can still change, not the window's. The watermark judges
//! frames exactly as the batch `ShardedIngest::ingest_datagrams` does, and
//! at drain [`TenantPipeline::flush`] merges the shard into the same
//! [`IngestOutcome`] → repair → `diagnose` endgame as batch
//! `run_scenario`, so daemon and batch verdicts are directly comparable.

use crate::checkpoint::{
    self, BinSegment, ChainWriter, CheckpointStore, CrashPoint, CrashSchedule, DetectorPart,
    Generation, PipelineState,
};
use crate::metrics::{elapsed_nanos, monotonic_now, TenantCounters};
use crate::ServeError;
use odflow_flow::{
    BinShard, BinStatus, DataQuality, ExporterSeqStats, IngestOutcome, PipelineConfig,
    RepairPolicy, ShardedIngest, TrafficType, Watermark, WatermarkState,
};
use odflow_linalg::Matrix;
use odflow_subspace::{
    diagnose, Diagnosis, OnlineDetector, StatisticKind, StreamVerdict, SubspaceConfig,
};
use std::borrow::Cow;
use std::sync::Arc;

/// Static configuration of one tenant's pipeline.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Tenant name, used as the metrics label.
    pub name: String,
    /// The ingest window: start, bin width and number of bins.
    pub pipeline: PipelineConfig,
    /// Subspace detection configuration, for both the online detector and
    /// the flush-time batch diagnosis.
    pub subspace: SubspaceConfig,
    /// Bins of training prefix before the online detector fits, once —
    /// it never refits; `0` disables online detection (flush-time
    /// diagnosis still runs).
    pub train_bins: usize,
    /// Capacity of the tenant's frame queue, in frames.
    pub queue_frames: usize,
    /// Deterministic chaos-injection schedule ([`CrashSchedule`]) — the
    /// kill-point test harness. `None` (production) injects nothing. Held
    /// as an `Arc` so a restarted worker shares the consumed one-shot
    /// rules of its predecessor.
    pub crash: Option<Arc<CrashSchedule>>,
}

impl TenantConfig {
    /// The paper's Abilene configuration: 5-minute bins from `start_secs`,
    /// online detection after a `num_bins / 2` training prefix.
    #[must_use]
    pub fn abilene(name: &str, start_secs: u64, num_bins: usize) -> TenantConfig {
        TenantConfig {
            name: name.to_owned(),
            pipeline: PipelineConfig::abilene(start_secs, num_bins),
            subspace: SubspaceConfig::default(),
            train_bins: num_bins / 2,
            queue_frames: 1024,
            crash: None,
        }
    }
}

/// Everything a drained tenant hands back.
#[derive(Debug)]
pub struct TenantFlush {
    /// The tenant's name.
    pub name: String,
    /// The merged, repaired ingest outcome — matrices plus quality
    /// accounting, exactly as the batch wire path produces.
    pub outcome: IngestOutcome,
    /// Flush-time batch diagnosis over the full window, when it succeeded.
    pub diagnosis: Option<Diagnosis>,
    /// Why the diagnosis failed, when it did (e.g. backpressure shed so
    /// many frames the matrices degenerated). The daemon still returns the
    /// matrices and counters — a partial flush beats a lost one.
    pub diagnosis_error: Option<String>,
    /// Verdicts the online detector issued while the daemon ran, in bin
    /// order.
    pub live_verdicts: Vec<StreamVerdict>,
}

/// Where a tenant's generations go, and what the previous one held —
/// which is what lets the next one carry only the difference.
#[derive(Debug)]
struct Checkpointer {
    writer: ChainWriter,
    /// Per-bin record counts at the previous generation. A bin is dirty
    /// when its count has moved — late records into a closed bin inside
    /// the lateness horizon are captured like any other; a sealed bin's
    /// count never moves again — or when it was sealed since, which
    /// empties its key sets.
    bin_records: Vec<u64>,
    /// Bins sealed at the previous generation.
    sealed: usize,
    /// Verdicts the previous generation holds.
    verdicts: usize,
    /// Whether the previous generation holds the fitted detector.
    fitted: bool,
}

/// The per-tenant streaming state machine. Owned by exactly one worker
/// thread; all cross-thread observation goes through the shared
/// [`TenantCounters`].
#[derive(Debug)]
pub struct TenantPipeline {
    config: TenantConfig,
    engine: ShardedIngest,
    shard: BinShard,
    /// Wire-path accounting (quarantine + exporter sequences); grafted
    /// onto the merged outcome at flush, mirroring `ingest_datagrams`.
    quality: DataQuality,
    detector: Option<OnlineDetector>,
    /// Next bin index awaiting closure.
    next_close: usize,
    /// Judges every frame's records and closes and seals bins.
    watermark: Watermark,
    live_verdicts: Vec<StreamVerdict>,
    counters: Arc<TenantCounters>,
    /// Frames consumed off the queue so far — the checkpoint replay
    /// cursor. Counts *every* offered frame, quarantined and duplicate
    /// ones included, so `frames[frames_ingested..]` is always the exact
    /// unconsumed suffix.
    frames_ingested: u64,
    /// Sequence number the next checkpoint generation will carry.
    ckpt_seq: u64,
    /// Checkpoint destination; `None` disables checkpointing.
    checkpointer: Option<Checkpointer>,
}

impl TenantPipeline {
    /// Builds the pipeline over its routing state.
    ///
    /// # Errors
    ///
    /// [`ServeError::Flow`] on invalid window/OD-space configuration.
    pub fn new(
        config: TenantConfig,
        topology: &odflow_net::Topology,
        ingress: odflow_net::IngressResolver,
        routes: odflow_net::RouteTable,
    ) -> Result<TenantPipeline, ServeError> {
        let engine = ShardedIngest::new(config.pipeline, topology, ingress, routes)?;
        let num_bins = engine.num_bins();
        let shard = engine.make_shard(0..num_bins)?;
        Ok(TenantPipeline {
            watermark: engine.watermark(WatermarkState::default()),
            config,
            engine,
            shard,
            quality: DataQuality::clean(num_bins),
            detector: None,
            next_close: 0,
            live_verdicts: Vec::new(),
            counters: Arc::new(TenantCounters::default()),
            frames_ingested: 0,
            ckpt_seq: 0,
            checkpointer: None,
        })
    }

    /// Rebuilds a pipeline from a checkpoint snapshot, resuming exactly
    /// where the snapshot was cut: same accumulated cells, same exporter
    /// sequence context, same fitted detector floats, same watermark —
    /// and the same bins sealed, re-sealed from it.
    /// Replaying the original frame stream from
    /// [`PipelineState::frames_ingested`] onward then reproduces the
    /// uninterrupted run bit for bit.
    ///
    /// `counters` lets a supervisor hand the successor worker its
    /// predecessor's shared counter block; pass a fresh block for a
    /// process-level recovery.
    ///
    /// # Errors
    ///
    /// [`ServeError::Flow`] on invalid window configuration or a snapshot
    /// whose shard shape disagrees with it; [`ServeError::Config`] on an
    /// internally inconsistent detector snapshot.
    pub fn restore(
        config: TenantConfig,
        topology: &odflow_net::Topology,
        ingress: odflow_net::IngressResolver,
        routes: odflow_net::RouteTable,
        state: &PipelineState,
        counters: Arc<TenantCounters>,
    ) -> Result<TenantPipeline, ServeError> {
        let engine = ShardedIngest::new(config.pipeline, topology, ingress, routes)?;
        let num_bins = engine.num_bins();
        let watermark = engine.watermark(state.watermark);
        let mut shard = engine.make_shard(0..num_bins)?;
        shard.restore_state(&state.shard)?;
        shard.seal(watermark.sealed_bins());
        let mut quality = DataQuality::clean(num_bins);
        quality.quarantine = state.quarantine;
        quality.exporters = ExporterSeqStats::from_state(&state.exporters);
        let detector = match &state.detector {
            Some(ds) => Some(
                OnlineDetector::from_state(ds.clone())
                    .map_err(|e| ServeError::Config(format!("detector snapshot: {e}")))?,
            ),
            None => None,
        };
        let next_close = usize::try_from(state.next_close)
            .map_err(|_| ServeError::Config("next_close overflows usize".to_owned()))?;
        if next_close > num_bins {
            return Err(ServeError::Config(format!(
                "snapshot closed {next_close} bins but the window has {num_bins}"
            )));
        }
        Ok(TenantPipeline {
            config,
            engine,
            shard,
            quality,
            detector,
            next_close,
            watermark,
            live_verdicts: state.live_verdicts.clone(),
            counters,
            frames_ingested: state.frames_ingested,
            ckpt_seq: state.seq + 1,
            checkpointer: None,
        })
    }

    /// Enables checkpointing: every bin close now appends a generation
    /// to the tenant's chain in `store`, the first of them a complete
    /// record. `resumed_slot` is [`LoadOutcome::slot`] when this pipeline
    /// was [restored](Self::restore) from `store`, so that record lands
    /// in the other slot.
    ///
    /// [`LoadOutcome::slot`]: crate::LoadOutcome::slot
    pub fn set_checkpoint_store(&mut self, store: CheckpointStore, resumed_slot: Option<usize>) {
        self.checkpointer = Some(Checkpointer {
            writer: ChainWriter::new(store, resumed_slot),
            bin_records: Vec::new(),
            sealed: 0,
            verdicts: 0,
            fitted: false,
        });
    }

    /// Replaces the shared counter block — the supervisor threading one
    /// block through a tenant's successive worker incarnations.
    pub(crate) fn set_counters(&mut self, counters: Arc<TenantCounters>) {
        self.counters = counters;
    }

    /// Frames consumed so far (the checkpoint replay cursor).
    #[must_use]
    pub fn frames_ingested(&self) -> u64 {
        self.frames_ingested
    }

    /// Snapshots the complete pipeline state at the current consistent
    /// cut — everything [`Self::restore`] needs to resume bit-identically.
    #[must_use]
    pub fn export_state(&self) -> PipelineState {
        PipelineState {
            seq: self.ckpt_seq,
            frames_ingested: self.frames_ingested,
            next_close: self.next_close as u64,
            watermark: self.watermark.state(),
            shard: self.shard.export_state(),
            quarantine: self.quality.quarantine,
            exporters: self.quality.exporters.export_state(),
            detector: self.detector.as_ref().map(OnlineDetector::export_state),
            live_verdicts: self.live_verdicts.clone(),
        }
    }

    /// The shared counter block; the daemon registers this with its
    /// metrics so admission and rendering observe the same atomics.
    #[must_use]
    pub fn counters(&self) -> Arc<TenantCounters> {
        Arc::clone(&self.counters)
    }

    /// The tenant's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// Offers one NetFlow v5 frame exactly as it came off a socket.
    ///
    /// Never fails and never panics: malformed frames are quarantined,
    /// duplicate exporter sequences deduplicated, records of sealed bins
    /// refused, unplaceable records counted — all into the shared counters
    /// and the flush-time quality report.
    pub fn ingest_frame(&mut self, frame: &[u8]) {
        // Counted before any early return, so the cursor in a checkpoint
        // always covers the frame whose bin close produced it.
        self.frames_ingested += 1;
        let t0 = monotonic_now();
        let admitted = self.quality.admit_frame(frame);
        TenantCounters::add(&self.counters.decode_nanos, elapsed_nanos(t0));
        let Some((hdr, fresh)) = admitted else {
            TenantCounters::add(&self.counters.frames_quarantined, 1);
            return;
        };
        // An exact retransmit: counted by the sequence tracker, not binned.
        let Some(records) = fresh else { return };

        // The records decode as they are judged and pushed, straight from
        // `frame`; then the header moves the watermark.
        let t1 = monotonic_now();
        let counters = &self.counters;
        TenantCounters::add(&counters.records_decoded, records.len() as u64);
        let shard = &mut self.shard;
        let late = self.watermark.judge_frame(
            hdr.unix_secs,
            records,
            |record| record.window_start,
            |record| {
                // A full-window shard counts out-of-window records quietly;
                // any other error (a bin outside the shard, a sealed bin) is
                // impossible by construction — the shard spans the window
                // and the watermark refuses a sealed bin's records first —
                // but still must not panic or abort the frame.
                if shard.push_sampled_record(record).is_err() {
                    TenantCounters::add(&counters.ingest_errors, 1);
                }
            },
        );
        if late > 0 {
            self.shard.count_late(late);
            TenantCounters::add(&counters.records_late_dropped, late);
        }
        TenantCounters::add(&counters.ingest_nanos, elapsed_nanos(t1));

        let closed_before = self.next_close;
        self.close_to_watermark();
        if self.next_close > closed_before {
            self.publish_distinct_memory();
            self.write_checkpoint();
        }
    }

    /// Refreshes the gauges of what the shard's distinct-flow tables hold.
    fn publish_distinct_memory(&self) {
        let c = &self.counters;
        TenantCounters::set(&c.distinct_keys_live, self.shard.distinct_keys_live() as u64);
        TenantCounters::set(&c.distinct_table_bytes, self.shard.distinct_table_bytes() as u64);
    }

    /// Fires the chaos schedule at a pipeline boundary, if one is armed.
    fn maybe_crash(&self, point: CrashPoint) {
        if let Some(kind) = self.config.crash.as_ref().and_then(|c| c.fire(point)) {
            checkpoint::trigger_crash(point, kind);
        }
    }

    /// Persists one checkpoint generation covering everything up to and
    /// including the frame that just closed ≥1 bin. Write failures are
    /// counted, never fatal — the generations already durable stay intact
    /// and the pipeline keeps serving.
    fn write_checkpoint(&mut self) {
        if self.checkpointer.is_none() && self.config.crash.is_none() {
            return;
        }
        let bin = self.next_close.saturating_sub(1);
        self.maybe_crash(CrashPoint::BeforeCheckpoint(bin));
        if let Some(mut ckpt) = self.checkpointer.take() {
            let complete = ckpt.writer.wants_complete();
            let image = if complete {
                checkpoint::encode_state(&self.export_state())
            } else {
                self.delta_since(&ckpt).encode()
            };
            // A torn-write injection gets half of the generation onto the
            // disk and then dies — the shape recovery must reject.
            let torn =
                self.config.crash.as_ref().and_then(|c| c.fire(CrashPoint::TornCheckpoint(bin)));
            if let Some(kind) = torn {
                let _ = ckpt.writer.commit(&image[..image.len() / 2]);
                checkpoint::trigger_crash(CrashPoint::TornCheckpoint(bin), kind);
            }
            match ckpt.writer.commit(&image) {
                Ok(()) => {
                    self.ckpt_seq += 1;
                    ckpt.bin_records.clear();
                    ckpt.bin_records.extend(
                        (0..self.engine.num_bins()).filter_map(|b| self.shard.bin_record_count(b)),
                    );
                    ckpt.sealed = self.watermark.sealed_bins();
                    ckpt.verdicts = self.live_verdicts.len();
                    ckpt.fitted = self.detector.is_some();
                    let c = &self.counters;
                    TenantCounters::add(&c.checkpoint_bytes, image.len() as u64);
                    TenantCounters::add(&c.checkpoint_complete, u64::from(complete));
                    TenantCounters::set(&c.checkpoint_last_bytes, image.len() as u64);
                    // Last: "checkpointed" means durable.
                    TenantCounters::add(&c.checkpoints, 1);
                }
                Err(_) => TenantCounters::add(&self.counters.checkpoint_errors, 1),
            }
            self.checkpointer = Some(ckpt);
        }
        self.maybe_crash(CrashPoint::AfterCheckpoint(bin));
    }

    /// The generation that follows the one `prev` describes: the head,
    /// the bins whose record count moved or that were sealed since, the
    /// verdicts issued since, and the detector — whole if it was fitted
    /// since, else only its stream position.
    fn delta_since(&self, prev: &Checkpointer) -> Generation<'_> {
        let sealed = prev.sealed..self.watermark.sealed_bins();
        let dirty = (0..self.engine.num_bins()).filter(|&b| {
            sealed.contains(&b)
                || self.shard.bin_record_count(b) != prev.bin_records.get(b).copied()
        });
        Generation {
            seq: self.ckpt_seq,
            frames_ingested: self.frames_ingested,
            next_close: self.next_close as u64,
            watermark: self.watermark.state(),
            records_accepted: self.shard.records_accepted(),
            resolution: self.shard.resolution_stats(),
            dropped_out_of_window: self.shard.dropped_out_of_window(),
            dropped_late: self.shard.dropped_late(),
            quarantine: self.quality.quarantine,
            exporters: Cow::Owned(self.quality.exporters.export_state()),
            num_bins: self.engine.num_bins(),
            num_od: self.engine.num_od(),
            bins: dirty.filter_map(|b| self.shard.export_bin(b)).map(BinSegment::from).collect(),
            detector: match &self.detector {
                None => DetectorPart::Absent,
                Some(det) if prev.fitted => DetectorPart::Stands { next_bin: det.bins_seen() },
                Some(det) => DetectorPart::Whole(Cow::Owned(det.export_state())),
            },
            verdicts_before: prev.verdicts,
            verdicts: Cow::Borrowed(self.live_verdicts.get(prev.verdicts..).unwrap_or(&[])),
        }
    }

    /// Closes every bin whose end the watermark has passed, then seals
    /// every bin it has passed by the lateness horizon.
    fn close_to_watermark(&mut self) {
        let (start_secs, bin_secs) =
            (self.config.pipeline.start_secs, self.config.pipeline.bin_secs);
        let secs = self.watermark.state().secs;
        if secs >= start_secs {
            TenantCounters::raise(&self.counters.watermark_bin, (secs - start_secs) / bin_secs);
        }
        while self.next_close < self.watermark.closed_bins() {
            self.close_bin();
        }
        self.shard.seal(self.watermark.sealed_bins());
    }

    /// Closes bin `self.next_close`: snapshots its bytes row, fits or
    /// feeds the online detector, and advances.
    fn close_bin(&mut self) {
        let t0 = monotonic_now();
        let bin = self.next_close;
        self.maybe_crash(CrashPoint::BeforeBinClose(bin));
        self.next_close += 1;
        let row: Vec<f64> = self.shard.bin_row(bin, TrafficType::Bytes).unwrap_or(&[]).to_vec();
        let status = match self.shard.bin_record_count(bin) {
            Some(n) if n > 0 => BinStatus::Ok,
            _ => BinStatus::Masked,
        };

        if self.detector.is_none()
            && self.config.train_bins > 0
            && self.next_close == self.config.train_bins
        {
            self.fit_detector();
        } else if let Some(detector) = self.detector.as_mut() {
            match detector.push_with_status(&row, status) {
                Ok(verdict) => {
                    for d in &verdict.detections {
                        let c = match d.kind {
                            StatisticKind::Spe => &self.counters.alarms_spe,
                            StatisticKind::T2 => &self.counters.alarms_t2,
                        };
                        TenantCounters::add(c, 1);
                    }
                    if verdict.degraded.is_some() {
                        TenantCounters::add(&self.counters.verdicts_degraded, 1);
                    }
                    self.live_verdicts.push(verdict);
                }
                Err(_) => TenantCounters::add(&self.counters.ingest_errors, 1),
            }
        }
        TenantCounters::add(&self.counters.bins_closed, 1);
        TenantCounters::add(&self.counters.detect_nanos, elapsed_nanos(t0));
    }

    /// Fits the online detector, frozen, on the accumulated training
    /// prefix. A degenerate prefix (e.g. all-zero rows after heavy
    /// shedding) leaves the detector off and counts an error — flush
    /// diagnosis still runs.
    fn fit_detector(&mut self) {
        let train = self.config.train_bins;
        let mut data = Vec::new();
        for b in 0..train {
            match self.shard.bin_row(b, TrafficType::Bytes) {
                Some(row) => data.extend_from_slice(row),
                None => {
                    TenantCounters::add(&self.counters.ingest_errors, 1);
                    return;
                }
            }
        }
        let cols = data.len() / train.max(1);
        let fitted = Matrix::from_vec(train, cols, data)
            .ok()
            .and_then(|m| OnlineDetector::new(&m, self.config.subspace, 0).ok());
        if fitted.is_none() {
            TenantCounters::add(&self.counters.ingest_errors, 1);
        }
        self.detector = fitted;
    }

    /// Drains the pipeline: closes every remaining bin, merges the shard,
    /// grafts the wire-path quality accounting, repairs outage bins, and
    /// runs the batch diagnosis — the same endgame as the batch wire path,
    /// so the flush is comparable to `run_scenario` output.
    ///
    /// # Errors
    ///
    /// [`ServeError::Flow`] when the window never accepted a record
    /// (`FlowError::NoData`) — there is nothing to report.
    pub fn flush(mut self) -> Result<TenantFlush, ServeError> {
        self.maybe_crash(CrashPoint::BeforeFlush);
        while self.next_close < self.engine.num_bins() {
            self.close_bin();
        }
        TenantCounters::set(
            &self.counters.exporter_lost_flows,
            self.quality.exporters.lost_flows_total(),
        );
        let mut outcome = self.engine.merge(vec![self.shard])?;
        // The merge freed the shard's tables.
        TenantCounters::set(&self.counters.distinct_keys_live, 0);
        TenantCounters::set(&self.counters.distinct_table_bytes, 0);
        outcome.quality.quarantine = self.quality.quarantine;
        outcome.quality.exporters = self.quality.exporters;
        outcome.repair(RepairPolicy::default());
        let (diagnosis, diagnosis_error) = match diagnose(&outcome.matrices, self.config.subspace) {
            Ok(d) => (Some(d), None),
            Err(e) => (None, Some(e.to_string())),
        };
        Ok(TenantFlush {
            name: self.config.name,
            outcome,
            diagnosis,
            diagnosis_error,
            live_verdicts: self.live_verdicts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odflow_flow::LATENESS_HORIZON_BINS;
    use odflow_gen::Scenario;
    use odflow_net::IngressResolver;

    const NUM_BINS: usize = 12;

    fn tenant_over(scenario: &Scenario, train_bins: usize) -> TenantPipeline {
        let routes = scenario.plan.build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&scenario.topology);
        let mut config = TenantConfig::abilene("t0", 0, NUM_BINS);
        config.train_bins = train_bins;
        TenantPipeline::new(config, &scenario.topology, ingress, routes).unwrap()
    }

    fn scenario_frames(scenario: &Scenario) -> Vec<Vec<u8>> {
        scenario.generator().faulted_frames(None).0
    }

    #[test]
    fn streaming_flush_matches_batch_wire_ingest() {
        let scenario = Scenario::paper_window(7, NUM_BINS).unwrap();
        let frames = scenario_frames(&scenario);

        let mut tenant = tenant_over(&scenario, 0);
        for f in &frames {
            tenant.ingest_frame(f);
        }
        let counters = tenant.counters();
        // The shard keeps the distinct-flow tables of the bins not yet
        // sealed until the flush merges them away; the gauges say so.
        let keys = TenantCounters::get(&counters.distinct_keys_live);
        let table = TenantCounters::get(&counters.distinct_table_bytes);
        assert!(keys > 0 && table >= keys * 20, "{keys} keys in {table} bytes");
        let flush = tenant.flush().unwrap();
        assert_eq!(TenantCounters::get(&counters.distinct_keys_live), 0);
        assert_eq!(TenantCounters::get(&counters.distinct_table_bytes), 0);

        let routes = scenario.plan.build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&scenario.topology);
        let engine = ShardedIngest::new(
            PipelineConfig::abilene(0, NUM_BINS),
            &scenario.topology,
            ingress,
            routes,
        )
        .unwrap();
        let batch = engine.ingest_datagrams(&frames).unwrap();

        assert_eq!(
            flush.outcome.matrices.bytes.data.as_slice(),
            batch.matrices.bytes.data.as_slice()
        );
        assert_eq!(
            flush.outcome.matrices.flows.data.as_slice(),
            batch.matrices.flows.data.as_slice()
        );
        assert_eq!(flush.outcome.quality.bin_records, batch.quality.bin_records);
        assert_eq!(flush.outcome.quality.quarantine, batch.quality.quarantine);
        assert_eq!((flush.outcome.dropped_late, batch.dropped_late), (0, 0));
        assert!(flush.diagnosis.is_some());
        // Decoded records include the unresolvable/transit share the
        // binner excludes (the paper's ~7% resolution loss), so the
        // counter bounds the binned total from above.
        let decoded = TenantCounters::get(&counters.records_decoded);
        let binned = batch.quality.bin_records.iter().sum::<u64>();
        assert!(decoded > binned && binned > 0, "decoded {decoded} > binned {binned}");
        // All but the final bin close off the watermark; flush closes it.
        assert_eq!(TenantCounters::get(&counters.bins_closed), NUM_BINS as u64);
    }

    #[test]
    fn online_detector_fits_and_scores_the_tail() {
        let scenario = Scenario::paper_window(11, NUM_BINS).unwrap();
        let frames = scenario_frames(&scenario);
        let mut tenant = tenant_over(&scenario, 6);
        for f in &frames {
            tenant.ingest_frame(f);
        }
        let flush = tenant.flush().unwrap();
        // Bins 6..12 are scored (training prefix is 0..6).
        assert_eq!(flush.live_verdicts.len(), NUM_BINS - 6);
        assert_eq!(flush.live_verdicts[0].bin, 0);
        assert!(flush.live_verdicts.iter().all(|v| v.spe.is_finite() && v.t2.is_finite()));
    }

    #[test]
    fn hostile_frames_are_quarantined_not_fatal() {
        let scenario = Scenario::paper_window(13, NUM_BINS).unwrap();
        let mut frames = scenario_frames(&scenario);
        // Garble the exporter's *second* frame: the first frame set its
        // sequence baseline, so the quarantined frame shows up as a
        // sequence gap at the exporter's next accepted frame.
        frames[1][1] = 9; // wrong version
        frames.insert(2, vec![0u8; 3]); // truncated header
        let mut tenant = tenant_over(&scenario, 0);
        for f in &frames {
            tenant.ingest_frame(f);
        }
        let counters = tenant.counters();
        assert_eq!(TenantCounters::get(&counters.frames_quarantined), 2);
        let flush = tenant.flush().unwrap();
        assert_eq!(flush.outcome.quality.quarantine.wrong_version, 1);
        assert_eq!(flush.outcome.quality.quarantine.truncated_header, 1);
        assert!(flush.outcome.quality.quarantine.is_conserved());
        // The garbled exporter's lost records show up as a sequence gap.
        assert!(flush.outcome.quality.exporters.lost_flows_total() > 0);
    }

    #[test]
    fn a_far_future_header_closes_at_most_one_bin_past_the_data() {
        let scenario = Scenario::paper_window(29, NUM_BINS).unwrap();
        let generator = scenario.generator();
        let mut seqs = vec![0u32; scenario.topology.num_pops()];
        let bins: Vec<Vec<Vec<u8>>> =
            (0..NUM_BINS).map(|bin| generator.frames_for_bin(bin, &mut seqs)).collect();
        // An empty frame from an exporter no router runs, stamped u32::MAX.
        let mut forged = vec![0u8; odflow_flow::netflow::HEADER_LEN];
        forged[0..2].copy_from_slice(&5u16.to_be_bytes());
        forged[8..12].copy_from_slice(&u32::MAX.to_be_bytes());
        forged[21] = 200;
        let run = |forge: bool| {
            let mut tenant = tenant_over(&scenario, 3);
            let counters = tenant.counters();
            let mut closed = Vec::new();
            for (bin, frames) in bins.iter().enumerate() {
                for frame in frames {
                    tenant.ingest_frame(frame);
                }
                if forge && bin == 4 {
                    tenant.ingest_frame(&forged);
                }
                closed.push(TenantCounters::get(&counters.bins_closed));
            }
            (tenant.flush().unwrap(), closed)
        };
        let (clean, clean_closed) = run(false);
        let (flush, closed) = run(true);
        // Bin 4's frames leave four bins closed. The forged header closes
        // bin 4 and the bin after it, bin 5 — not the other six, which an
        // uncapped watermark would have closed and then sealed.
        assert_eq!(clean_closed[4], 4);
        assert_eq!(closed[4], 6);
        assert_eq!(closed[6..], clean_closed[6..]);
        assert_eq!(flush.outcome.dropped_late, 0);
        for t in TrafficType::ALL {
            assert_eq!(
                flush.outcome.matrices.get(t).data.as_slice(),
                clean.outcome.matrices.get(t).data.as_slice()
            );
        }
        assert_eq!(flush.live_verdicts.len(), clean.live_verdicts.len());
    }

    #[test]
    fn a_tenant_holds_the_keys_of_the_horizon_not_of_the_window() {
        const BINS: usize = 504;
        let config = odflow_gen::ScenarioConfig {
            seed: 31,
            num_bins: BINS,
            total_demand: 400.0,
            ..Default::default()
        };
        let scenario = Scenario::new(config, vec![]).unwrap();
        let routes = scenario.plan.build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&scenario.topology);
        let mut config = TenantConfig::abilene("t0", 0, BINS);
        config.train_bins = 0;
        let mut tenant = TenantPipeline::new(config, &scenario.topology, ingress, routes).unwrap();
        let generator = scenario.generator();
        let mut seqs = vec![0u32; scenario.topology.num_pops()];
        // Keys held after every frame, and after the last frame of each bin.
        let (mut peak, mut at_bin_end) = (0, Vec::new());
        for bin in 0..BINS {
            for frame in generator.frames_for_bin(bin, &mut seqs) {
                tenant.ingest_frame(&frame);
                peak = peak.max(tenant.shard.distinct_keys_live());
            }
            at_bin_end.push(tenant.shard.distinct_keys_live());
        }
        let flush = tenant.flush().unwrap();
        assert_eq!(flush.outcome.dropped_late, 0);
        // Distinct (OD, 5-tuple) pairs per bin are its flow counts.
        let keys: Vec<usize> = (0..BINS)
            .map(|b| flush.outcome.matrices.flows.data.row(b).unwrap().iter().sum::<f64>() as usize)
            .collect();
        let horizon =
            |bin: usize| keys[bin.saturating_sub(LATENESS_HORIZON_BINS)..=bin].iter().sum();
        // Once bin `b` is full, bins b-H..=b are exactly what is held.
        for (bin, &held) in at_bin_end.iter().enumerate() {
            assert_eq!(held, horizon(bin), "after bin {bin}");
        }
        let widest = (0..BINS).map(horizon).max().unwrap();
        assert_eq!(peak, widest, "never more than H + 1 bins of keys");
        let window: usize = keys.iter().sum();
        assert!(window > 40 * peak, "{window} keys in the window, {peak} held at most");
    }

    #[test]
    fn a_window_past_the_address_space_is_refused_not_a_panic() {
        // What `odflow_serve --bins 2305843009213693952` asks for.
        let scenario = Scenario::paper_window(17, NUM_BINS).unwrap();
        let routes = scenario.plan.build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&scenario.topology);
        let config = TenantConfig::abilene("t0", 0, 1 << 61);
        let tenant = TenantPipeline::new(config, &scenario.topology, ingress, routes);
        assert!(matches!(
            tenant,
            Err(ServeError::Flow(odflow_flow::FlowError::WindowOverflow { .. }))
        ));
    }

    #[test]
    fn empty_window_flush_is_a_clean_error() {
        let scenario = Scenario::paper_window(17, NUM_BINS).unwrap();
        let tenant = tenant_over(&scenario, 0);
        assert!(matches!(tenant.flush(), Err(ServeError::Flow(_))));
    }

    #[test]
    fn generations_of_a_long_stream_total_a_small_multiple_of_its_rows_and_keys() {
        const BINS: usize = 96;
        let scenario = Scenario::paper_window(23, BINS).unwrap();
        let routes = scenario.plan.build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&scenario.topology);
        let config = TenantConfig::abilene("t0", 0, BINS);
        let mut tenant = TenantPipeline::new(config, &scenario.topology, ingress, routes).unwrap();
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp/tenant_ckpt_total");
        let _ = std::fs::remove_dir_all(&dir);
        tenant.set_checkpoint_store(CheckpointStore::new(&dir, "t0"), None);
        let generator = scenario.generator();
        let mut seqs = vec![0u32; scenario.topology.num_pops()];
        let counters = tenant.counters();
        let get = TenantCounters::get;
        // The deltas, by the bin whose close wrote them: bin b's frames
        // close bin b − 1.
        let mut deltas = Vec::new();
        for bin in 0..BINS {
            let completes = get(&counters.checkpoint_complete);
            for frame in generator.frames_for_bin(bin, &mut seqs) {
                tenant.ingest_frame(&frame);
            }
            assert_eq!(get(&counters.checkpoints), bin as u64, "one generation per bin close");
            if bin > 0 && get(&counters.checkpoint_complete) == completes {
                deltas.push((bin - 1, get(&counters.checkpoint_last_bytes)));
            }
        }
        assert_eq!(get(&counters.checkpoint_errors), 0);
        let image = checkpoint::encode_state(&tenant.export_state()).len() as u64;
        // What the stream put into the window, each bin's rows and keys
        // once: the final image plus the keys sealing has dropped from it.
        let sealed = tenant.watermark.sealed_bins();
        assert_eq!(sealed, BINS - 1 - LATENESS_HORIZON_BINS);
        let keys: Vec<u64> = (0..BINS)
            .map(|b| {
                tenant.shard.bin_row(b, TrafficType::Flows).unwrap().iter().sum::<f64>() as u64
            })
            .collect();
        let key_bytes = |bins: &[u64]| checkpoint::FLOW_KEY_LEN as u64 * bins.iter().sum::<u64>();
        let once = image + key_bytes(&keys[..sealed]);
        assert!(image < once / 3, "the final image holds {image} of {once} bytes");
        let total = get(&counters.checkpoint_bytes);
        let completes = get(&counters.checkpoint_complete);
        // Rewriting the state at every close costs ~BINS/2 states; the
        // chain writes each bin's rows and keys about once, plus a rebase
        // whenever the deltas have outgrown the record they follow.
        assert!(total <= 3 * once, "{total} bytes over all generations vs {once} once");
        assert!((2..BINS as u64 / 4).contains(&completes), "{completes} complete records");
        // A delta carries what moved since the generation before it: the
        // rows and keys of the bin it closed and of the one before, which
        // late records may still touch, the new verdicts and the head —
        // and the close that ends the training prefix carries the freshly
        // fitted detector whole.
        let state = tenant.export_state();
        let m = &state.detector.as_ref().expect("the detector was fit").model.decomp;
        let numbers = m.loadings.as_slice().len() + m.singular_values.len() + m.means.len();
        let row_bytes = 8 * scenario.topology.num_od_pairs() as u64;
        let fit_close = TenantConfig::abilene("t0", 0, BINS).train_bins - 1;
        assert!(deltas.len() >= BINS / 2, "{} deltas", deltas.len());
        assert!(deltas.iter().any(|&(closed, _)| closed == fit_close), "the fit's was a delta");
        for &(closed, bytes) in &deltas {
            let moved = closed.saturating_sub(1)..=closed;
            let rows = 3 * row_bytes * moved.clone().count() as u64;
            let fitted = if closed == fit_close { 8 * numbers as u64 } else { 0 };
            let bound = rows + key_bytes(&keys[moved]) + fitted + 4096;
            assert!(bytes <= bound, "the delta closing bin {closed}: {bytes} > {bound} bytes");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_resume_replays_to_a_bit_identical_flush() {
        let scenario = Scenario::paper_window(19, NUM_BINS).unwrap();
        let frames = scenario_frames(&scenario);
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp/tenant_ckpt_resume");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir, "t0");

        // Uninterrupted baseline, online detector active over the tail.
        let mut baseline = tenant_over(&scenario, 6);
        for f in &frames {
            baseline.ingest_frame(f);
        }
        let base_flush = baseline.flush().unwrap();

        // Checkpointed run, stopped dead after ~3/4 of the stream.
        let stop_at = frames.len() * 3 / 4;
        let mut victim = tenant_over(&scenario, 6);
        victim.set_checkpoint_store(store.clone(), None);
        for f in &frames[..stop_at] {
            victim.ingest_frame(f);
        }
        drop(victim); // the "crash": no flush, no further checkpoints

        // Recover from the newest generation; replay the uncovered
        // suffix (the cursor can trail stop_at — frames consumed since
        // the last bin close are redelivered, and the exporter-sequence
        // dedup plus distinct-set semantics make that replay harmless
        // only when the cursor is exact, so resume precisely there).
        let state = store.load_newest().state.expect("a checkpoint was written");
        let cursor = usize::try_from(state.frames_ingested).unwrap();
        assert!(cursor <= stop_at && cursor > 0);
        let routes = scenario.plan.build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&scenario.topology);
        let mut config = TenantConfig::abilene("t0", 0, NUM_BINS);
        config.train_bins = 6;
        let mut resumed = TenantPipeline::restore(
            config,
            &scenario.topology,
            ingress,
            routes,
            &state,
            Arc::new(TenantCounters::default()),
        )
        .unwrap();
        for f in &frames[cursor..] {
            resumed.ingest_frame(f);
        }
        let resumed_flush = resumed.flush().unwrap();

        // Byte-identical endgame: matrices, quality, verdict float bits.
        assert_eq!(
            resumed_flush.outcome.matrices.bytes.data.as_slice(),
            base_flush.outcome.matrices.bytes.data.as_slice()
        );
        assert_eq!(
            resumed_flush.outcome.matrices.flows.data.as_slice(),
            base_flush.outcome.matrices.flows.data.as_slice()
        );
        assert_eq!(resumed_flush.outcome.quality.quarantine, base_flush.outcome.quality.quarantine);
        assert_eq!(resumed_flush.live_verdicts.len(), base_flush.live_verdicts.len());
        for (r, b) in resumed_flush.live_verdicts.iter().zip(&base_flush.live_verdicts) {
            assert_eq!(r.bin, b.bin);
            assert_eq!(r.spe.to_bits(), b.spe.to_bits());
            assert_eq!(r.t2.to_bits(), b.t2.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checkpointed_model_without_its_axes_is_refused_at_restore() {
        // A checksummed record can carry any model shape: one with no
        // spectrum, or fewer axes than its normal subspace, must come back
        // as an error from the restore, never as a detector that panics.
        let scenario = Scenario::paper_window(19, NUM_BINS).unwrap();
        let mut tenant = tenant_over(&scenario, 6);
        for f in &scenario_frames(&scenario) {
            tenant.ingest_frame(f);
        }
        let good = tenant.export_state();
        let restore = |state: &PipelineState| {
            let decoded = checkpoint::decode_state(&checkpoint::encode_state(state)).unwrap();
            let mut config = TenantConfig::abilene("t0", 0, NUM_BINS);
            config.train_bins = 6;
            TenantPipeline::restore(
                config,
                &scenario.topology,
                IngressResolver::synthetic(&scenario.topology),
                scenario.plan.build_route_table(1.0).unwrap(),
                &decoded,
                Arc::new(TenantCounters::default()),
            )
        };
        assert!(restore(&good).is_ok());
        let model = &good.detector.as_ref().expect("the detector was fit").model;
        let (p, k) = (model.p, model.config.k);
        let mut zero_rank = good.clone();
        let decomp = &mut zero_rank.detector.as_mut().unwrap().model.decomp;
        decomp.loadings = Matrix::zeros(p, 0);
        decomp.singular_values.clear();
        let mut narrow = good.clone();
        let decomp = &mut narrow.detector.as_mut().unwrap().model.decomp;
        decomp.loadings = decomp.loadings.select_cols(&(0..k - 1).collect::<Vec<_>>()).unwrap();
        for bad in [zero_rank, narrow] {
            assert!(matches!(restore(&bad), Err(ServeError::Config(_))));
        }
    }
}
