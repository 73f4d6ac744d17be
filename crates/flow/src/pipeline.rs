//! End-to-end measurement pipeline.
//!
//! The measurement path as deployed on Abilene (§2.1):
//!
//! ```text
//! packets at routers
//!   -> 1% Bernoulli sampling            (sampler)
//!   -> per-minute 5-tuple aggregation   (aggregate)
//!   -> NetFlow-style export             (netflow; optional wire round-trip)
//!   -> destination anonymization        (net::anonymize)
//!   -> ingress/egress OD resolution     (od)
//!   -> 5-minute OD binning              (binning)
//!   -> TrafficMatrixSet (bytes / packets / flows)
//! ```
//!
//! Ingest starts after aggregation: the scenario generator draws sampled
//! minute-records directly (the distributionally equivalent shortcut of
//! `odflow-flow::sampler`) and the daemon reads NetFlow exports.
//! [`PacketSampler`](crate::PacketSampler) and
//! [`FlowAggregator`](crate::FlowAggregator) build the first two stages
//! where packets are wanted, as `examples/netflow_pipeline.rs` does.
//!
//! Records reach cells by two routes: the fused render
//! (`TraceGenerator::bin_scenario` in `odflow-gen`, through
//! [`ShardedIngest::fill_shards`]), and a [`MeasurementPipeline`], whose
//! [`bin_frame`](MeasurementPipeline::bin_frame) is the one body that
//! turns a frame's records into cells — a daemon tenant's, a slice's in
//! [`ShardedIngest::ingest_datagrams`], and a lone pushed record's.

use crate::error::{FlowError, Result};
use crate::lateness::{Watermark, WatermarkState};
use crate::matrix::{TrafficMatrixSet, BIN_SECS};
use crate::netflow::{decode_frame, DatagramHeader, FrameRecords};
use crate::od::ResolutionStats;
use crate::quality::DataQuality;
use crate::record::FlowRecord;
use crate::shard::{BinShard, IngestOutcome, ShardState, ShardedIngest};

/// The observation window of an ingest: where it starts, how wide its bins
/// are, and how many there are.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Observation window start, trace-epoch seconds.
    pub start_secs: u64,
    /// Analysis bin width (the paper: 300 s).
    pub bin_secs: u64,
    /// Number of analysis bins in the window.
    pub num_bins: usize,
}

impl PipelineConfig {
    /// The paper's window of `num_bins` 5-minute bins from `start_secs`.
    pub fn abilene(start_secs: u64, num_bins: usize) -> PipelineConfig {
        PipelineConfig { start_secs, bin_secs: BIN_SECS, num_bins }
    }
}

/// What binning one frame's records did.
#[derive(Debug, Default, PartialEq)]
pub struct FrameTally {
    /// Records refused because the watermark had sealed their bin.
    pub late: u64,
    /// The shard's errors, in record order: impossible, as the shard spans
    /// the window and the watermark refuses a sealed bin's records first.
    pub refused: Vec<FlowError>,
}

/// Serial ingest: export frames or flow records in, OD traffic matrices
/// out — a single full-window [`BinShard`], finished through
/// [`ShardedIngest::merge`], the frames' [`DataQuality`] counters and the
/// window's [`Watermark`], which frames and lone records alike pass. The
/// bins it seals are sealed in the shard, so only the 5-tuples of bins
/// that can still change stay resident. The parallel fill runs the same
/// per-record code on its shards, which is what makes the two agree bit for bit.
#[derive(Debug)]
pub struct MeasurementPipeline {
    engine: ShardedIngest,
    shard: BinShard,
    quality: DataQuality,
    watermark: Watermark,
}

impl MeasurementPipeline {
    /// Builds a pipeline over the given routing state.
    ///
    /// # Errors
    ///
    /// Propagates window/OD-space validation errors from
    /// [`ShardedIngest::new`].
    pub fn new(
        config: PipelineConfig,
        topology: &odflow_net::Topology,
        ingress: odflow_net::IngressResolver,
        routes: odflow_net::RouteTable,
    ) -> Result<Self> {
        Self::over(ShardedIngest::new(config, topology, ingress, routes)?)
    }

    fn over(engine: ShardedIngest) -> Result<Self> {
        Ok(MeasurementPipeline {
            shard: engine.make_shard(0..engine.num_bins())?,
            quality: DataQuality::default(),
            watermark: engine.watermark(WatermarkState::default()),
            engine,
        })
    }

    /// Resumes where a snapshot was cut: the shard, the watermark (whose
    /// sealed bins are sealed again) and `quality`'s frame counters.
    ///
    /// # Errors
    ///
    /// [`FlowError::Codec`] when the shard snapshot's shape is not the
    /// window's.
    pub fn restore(
        &mut self,
        shard: &ShardState,
        watermark: WatermarkState,
        quality: DataQuality,
    ) -> Result<()> {
        self.shard.restore_state(shard)?;
        self.watermark = self.engine.watermark(watermark);
        self.shard.seal(self.watermark.sealed_bins());
        self.quality = quality;
        Ok(())
    }

    /// Offers one export frame exactly as it came off the wire: admits it
    /// and bins its records, unless it was quarantined or is a retransmit.
    pub fn ingest_frame(&mut self, frame: &[u8]) -> FrameTally {
        match self.admit_frame(frame) {
            Some((header, Some(records))) => self.bin_frame(header.unix_secs.into(), records),
            _ => FrameTally::default(),
        }
    }

    /// Lossy decode into the quarantine counters, then exporter sequence
    /// tracking. `None` for a quarantined frame; else its header and its
    /// plausible records, decoded as iterated — `None` in their place for
    /// an exact retransmit, which is counted and not binned.
    pub fn admit_frame<'a>(
        &mut self,
        frame: &'a [u8],
    ) -> Option<(DatagramHeader, Option<FrameRecords<'a>>)> {
        let (hdr, records) = decode_frame(frame, &mut self.quality.quarantine)?;
        let exporters = &mut self.quality.exporters;
        let fresh =
            exporters.observe(hdr.engine_id, hdr.flow_sequence, hdr.count, hdr.sampling_interval);
        Some((hdr, fresh.then_some(records)))
    }

    /// The one body behind every entry: judges a frame's records against
    /// the watermark, pushes those on time and counts the late ones, lets
    /// `export_secs` move the watermark, and seals what it has sealed.
    pub fn bin_frame<R>(&mut self, export_secs: u64, records: R) -> FrameTally
    where
        R: IntoIterator<Item = FlowRecord>,
    {
        let (shard, mut refused) = (&mut self.shard, Vec::new());
        let late = self.watermark.judge_frame(
            export_secs,
            records,
            |record| record.window_start,
            |record| refused.extend(shard.push_sampled_record(record).err()),
        );
        self.shard.count_late(late);
        self.shard.seal(self.watermark.sealed_bins());
        FrameTally { late, refused }
    }

    /// Offers one pre-sampled flow record as a one-record frame exported at
    /// its own start, under [`bin_frame`](Self::bin_frame)'s lateness rule:
    /// a record of a sealed bin is counted late and lands in no cell.
    ///
    /// # Errors
    ///
    /// None arise, as [`FrameTally::refused`] says; out-of-window records
    /// are counted in [`BinShard::dropped_out_of_window`] instead.
    pub fn push_sampled_record(&mut self, record: FlowRecord) -> Result<()> {
        self.bin_frame(record.window_start, [record]).refused.pop().map_or(Ok(()), Err)
    }

    /// The engine over this pipeline's window.
    pub fn engine(&self) -> &ShardedIngest {
        &self.engine
    }

    /// The full-window shard.
    pub fn shard(&self) -> &BinShard {
        &self.shard
    }

    /// The watermark as frames have moved it.
    pub fn watermark(&self) -> &Watermark {
        &self.watermark
    }

    /// The frame counters: quarantine and exporter sequences.
    pub fn quality(&self) -> &DataQuality {
        &self.quality
    }

    /// The window's outcome, frame counters attached.
    ///
    /// # Errors
    ///
    /// [`FlowError::NoData`] if nothing was ever binned.
    pub fn finish(self) -> Result<IngestOutcome> {
        let mut outcome = self.engine.merge(vec![self.shard])?;
        outcome.quality.quarantine = self.quality.quarantine;
        outcome.quality.exporters = self.quality.exporters;
        Ok(outcome)
    }

    /// Produces the traffic matrices.
    ///
    /// # Errors
    ///
    /// [`FlowError::NoData`] if nothing was ever binned.
    pub fn finalize(self) -> Result<(TrafficMatrixSet, ResolutionStats)> {
        self.finish().map(|outcome| (outcome.matrices, outcome.stats))
    }
}

impl ShardedIngest {
    /// One-shot ingest of serialized NetFlow v5 export frames — the
    /// hostile-telemetry entry point: a [`MeasurementPipeline`] over this
    /// window takes the frames in input order, each as the iterator yields
    /// it (a lazy stream is never held whole), exactly as a daemon tenant
    /// does, so records of sealed bins are refused and counted in
    /// [`IngestOutcome::dropped_late`]. Serial, so the same for any
    /// `ODFLOW_THREADS`. Callers expecting collector outages follow up
    /// with [`IngestOutcome::repair`].
    ///
    /// # Errors
    ///
    /// The first of [`FrameTally::refused`], and [`FlowError::NoData`] if
    /// no record was binned. Malformed frames are quarantined, not errors.
    pub fn ingest_datagrams(
        &self,
        frames: impl IntoIterator<Item = impl AsRef<[u8]>>,
    ) -> Result<IngestOutcome> {
        let mut pipeline = MeasurementPipeline::over(self.clone())?;
        for frame in frames {
            pipeline.ingest_frame(frame.as_ref()).refused.into_iter().next().map_or(Ok(()), Err)?;
        }
        pipeline.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{FlowAggregator, MINUTE_SECS};
    use crate::error::FlowError;
    use crate::key::{FlowKey, Protocol};
    use crate::lateness::LATENESS_HORIZON_BINS;
    use crate::netflow::encode_datagrams;
    use crate::packet::PacketObs;
    use odflow_net::{AddressPlan, IngressResolver, Topology};

    fn build(num_bins: usize) -> (Topology, AddressPlan, MeasurementPipeline) {
        let t = Topology::abilene();
        let plan = AddressPlan::synthetic(&t);
        let routes = plan.build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&t);
        let cfg = PipelineConfig::abilene(0, num_bins);
        let p = MeasurementPipeline::new(cfg, &t, ingress, routes).unwrap();
        (t, plan, p)
    }

    fn key(plan: &AddressPlan, src_pop: usize, dst_pop: usize, dport: u16) -> FlowKey {
        FlowKey::new(
            plan.customer_addr(src_pop, 0, 0x100),
            plan.customer_addr(dst_pop, 0, 0x200),
            40_000,
            dport,
            Protocol::Tcp,
        )
    }

    /// One minute-record of `k` seen at `router` on `interface`.
    fn minute(k: FlowKey, router: usize, interface: u32, window_start: u64) -> FlowRecord {
        FlowRecord { key: k, router, interface, window_start, packets: 60, bytes: 6_000 }
    }

    #[test]
    fn packet_path_end_to_end() {
        // The §2.1 stages after sampling: packets aggregated per minute,
        // then the records binned. One OD pair, steady traffic.
        let (t, plan, mut p) = build(2);
        let k = key(&plan, 1, 6, 80);
        let mut aggregator = FlowAggregator::new(MINUTE_SECS, MINUTE_SECS).unwrap();
        let mut records = Vec::new();
        for ts in 0..600 {
            records.extend(aggregator.push(&PacketObs::new(ts, 1, 0, k, 1000)));
        }
        records.extend(aggregator.flush());
        assert_eq!(records.len(), 10, "one record a minute");
        for r in records {
            p.push_sampled_record(r).unwrap();
        }
        let (set, stats) = p.finalize().unwrap();
        let od = t.od_index(1, 6).unwrap();
        assert_eq!(set.bytes.data[(0, od)], 300.0 * 1000.0);
        assert_eq!(set.bytes.data[(1, od)], 300.0 * 1000.0);
        assert_eq!(set.packets.data[(0, od)], 300.0);
        // One distinct 5-tuple per bin.
        assert_eq!(set.flows.data[(0, od)], 1.0);
        assert_eq!(stats.flows_resolved, stats.flows_total);
        assert!((stats.flow_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unresolvable_traffic_excluded_but_counted() {
        let (_, plan, mut p) = build(1);
        // Destination in unannounced space.
        let k = FlowKey::new(
            plan.customer_addr(0, 0, 1),
            plan.unannounced_addr(0, 7),
            5,
            80,
            Protocol::Tcp,
        );
        p.push_sampled_record(minute(k, 0, 0, 0)).unwrap();
        p.push_sampled_record(minute(k, 0, 0, 60)).unwrap();
        let stats = p.shard().resolution_stats();
        assert_eq!((stats.flows_total, stats.flows_resolved), (2, 0));
        // Nothing resolvable was binned.
        assert!(matches!(p.finalize(), Err(FlowError::NoData)));
    }

    #[test]
    fn transit_interface_not_double_counted() {
        let (_, plan, mut p) = build(1);
        let k = key(&plan, 2, 4, 80);
        // The same minute of one flow, exported by its ingress router
        // (iface 0) and by a transit router (backbone iface 100).
        p.push_sampled_record(minute(k, 2, 0, 0)).unwrap();
        p.push_sampled_record(minute(k, 5, 100, 0)).unwrap();
        let (set, stats) = p.finalize().unwrap();
        assert_eq!(stats.transit_skipped, 1, "one transit minute-record skipped");
        let total_bytes: f64 = set.bytes.totals().iter().sum();
        assert_eq!(total_bytes, 6_000.0, "transit copy must not inflate the matrix");
    }

    #[test]
    fn record_path_matches_packet_path_semantics() {
        let (t, plan, mut p) = build(1);
        let rec = FlowRecord {
            key: key(&plan, 3, 7, 443),
            router: 3,
            interface: 0,
            window_start: 60,
            packets: 17,
            bytes: 17_000,
        };
        p.push_sampled_record(rec).unwrap();
        let (set, _) = p.finalize().unwrap();
        let od = t.od_index(3, 7).unwrap();
        assert_eq!(set.packets.data[(0, od)], 17.0);
        assert_eq!(set.bytes.data[(0, od)], 17_000.0);
        assert_eq!(set.flows.data[(0, od)], 1.0);
    }

    #[test]
    fn out_of_window_records_dropped_quietly() {
        let (_, plan, mut p) = build(1);
        let mut rec = FlowRecord {
            key: key(&plan, 0, 1, 80),
            router: 0,
            interface: 0,
            window_start: 10_000, // far outside the 1-bin window
            packets: 1,
            bytes: 1,
        };
        p.push_sampled_record(rec).unwrap();
        assert_eq!(p.shard().dropped_out_of_window(), 1);
        rec.window_start = 0;
        p.push_sampled_record(rec).unwrap();
        let (set, _) = p.finalize().unwrap();
        assert_eq!(set.bytes.totals()[0], 1.0);
    }

    /// Exporter 3's records of `bin`, every one its own 5-tuple, more of
    /// them in some bins than in others.
    fn burst(plan: &AddressPlan, bin: usize) -> Vec<FlowRecord> {
        let n = 20 + (bin * 7 % 13) as u32 * 5;
        (0..n)
            .map(|i| {
                let k = key(plan, 3, (i as usize % 10 + 4) % 11, (bin * 100) as u16 + i as u16);
                minute(k, 3, 0, bin as u64 * 300 + u64::from(i * 7 % 300))
            })
            .collect()
    }

    /// Feeds the bursts of `6 × (H + 1)` bins in order through `feed` and
    /// checks that once bin `b` is in, bins `b - H..=b` are exactly what is
    /// held. Returns the outcome and the most keys `H + 1` bins hold.
    fn feed_bursts(
        mut feed: impl FnMut(&mut MeasurementPipeline, usize, &[FlowRecord]),
    ) -> (IngestOutcome, usize) {
        const H: usize = LATENESS_HORIZON_BINS;
        const BINS: usize = 6 * (H + 1);
        let (_, plan, mut p) = build(BINS);
        let mut keys = Vec::new();
        for bin in 0..BINS {
            let records = burst(&plan, bin);
            feed(&mut p, bin, &records);
            keys.push(records.len());
            let held: usize = keys[bin.saturating_sub(H)..].iter().sum();
            assert_eq!(p.shard().distinct_keys_live(), held, "after bin {bin}");
        }
        let horizon = |bin: usize| keys[bin.saturating_sub(H)..=bin].iter().sum::<usize>();
        let widest = (0..BINS).map(horizon).max().unwrap();
        let outcome = p.finish().unwrap();
        let window = outcome.matrices.flows.data.as_slice().iter().sum::<f64>() as usize;
        assert_eq!(window, keys.iter().sum::<usize>());
        assert!(window > 5 * widest, "{window} keys in the window, {widest} in a horizon");
        assert_eq!(outcome.dropped_late, 0);
        (outcome, widest)
    }

    #[test]
    fn the_frame_path_holds_the_keys_of_the_horizon_not_of_the_window() {
        // Each bin's burst goes out in frames stamped with the bin's start.
        // Both frame routes, a tenant and the batch datagram ingest, are
        // this call frame by frame.
        let (mut seq, mut frames, mut peak) = (0u32, 0, 0);
        let (outcome, widest) = feed_bursts(|p, bin, records| {
            for frame in encode_datagrams(records, bin as u32 * 300, 3, 100, seq) {
                assert_eq!(p.ingest_frame(&frame), FrameTally::default());
                frames += 1;
                peak = peak.max(p.shard().distinct_keys_live());
            }
            seq += records.len() as u32;
        });
        assert_eq!(peak, widest, "never more than H + 1 bins of keys");
        assert_eq!(outcome.quality.quarantine.frames_accepted, frames);
    }

    #[test]
    fn the_record_entry_holds_the_keys_of_the_horizon_not_of_the_window() {
        let mut peak = 0;
        let (_, widest) = feed_bursts(|p, _, records| {
            for &record in records {
                p.push_sampled_record(record).unwrap();
                peak = peak.max(p.shard().distinct_keys_live());
            }
        });
        assert_eq!(peak, widest, "never more than H + 1 bins of keys");
    }

    #[test]
    fn a_record_past_the_horizon_is_late_alone_as_in_a_frame() {
        const H: usize = LATENESS_HORIZON_BINS;
        let (_, plan, mut alone) = build(H + 4);
        let (_, _, mut framed) = build(H + 4);
        // Bin H + 2's record seals bins 0 and 1; then one of bin 1 comes.
        let fresh = minute(key(&plan, 3, 8, 80), 3, 0, (H as u64 + 2) * 300);
        let stale = minute(key(&plan, 3, 7, 443), 3, 0, 300 + 60);
        alone.push_sampled_record(fresh).unwrap();
        assert_eq!(alone.watermark().sealed_bins(), 2);
        assert_eq!(alone.push_sampled_record(stale), Ok(()));
        for (seq, r) in [fresh, stale].into_iter().enumerate() {
            let frame = &encode_datagrams(&[r], r.window_start as u32, 3, 100, seq as u32)[0];
            let late = u64::from(r == stale);
            assert_eq!(framed.ingest_frame(frame), FrameTally { late, refused: vec![] });
        }
        let (alone, framed) = (alone.finish().unwrap(), framed.finish().unwrap());
        for o in [&alone, &framed] {
            assert_eq!((o.dropped_late, o.quality.bin_records[1]), (1, 0));
            assert_eq!((o.stats.flows_total, o.stats.flows_resolved), (1, 1), "never resolved");
        }
        for t in crate::matrix::TrafficType::ALL {
            let (a, f) = (alone.matrices.get(t), framed.matrices.get(t));
            assert!(a.data.row(1).unwrap().iter().all(|&v| v == 0.0), "{t:?}: in no cell");
            assert_eq!(a.data.as_slice(), f.data.as_slice(), "{t:?}");
        }
    }
}
