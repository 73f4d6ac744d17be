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
//! [`MeasurementPipeline::push_sampled_record`] is the one record entry
//! point: it anonymizes, resolves and bins each record.

use crate::error::Result;
use crate::matrix::{TrafficMatrixSet, BIN_SECS};
use crate::od::ResolutionStats;
use crate::record::FlowRecord;
use crate::shard::{BinShard, ShardedIngest};

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

/// Serial ingest: pre-sampled flow records in, OD traffic matrices out.
///
/// It holds a single full-window [`BinShard`] and finishes it through
/// [`ShardedIngest::merge`], as a daemon tenant does. The parallel batch
/// engine runs the same per-record code on its shards, which is what makes
/// the two agree bit for bit.
#[derive(Debug)]
pub struct MeasurementPipeline {
    engine: ShardedIngest,
    shard: BinShard,
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
        let engine = ShardedIngest::new(config, topology, ingress, routes)?;
        let shard = engine.make_shard(0..engine.num_bins())?;
        Ok(MeasurementPipeline { engine, shard })
    }

    /// Offers one pre-sampled flow record.
    ///
    /// # Errors
    ///
    /// Propagates binning errors other than out-of-window timestamps, which
    /// are counted in [`Self::dropped_out_of_window`] instead (trace edges
    /// legitimately spill partial minutes). A full-window shard cannot
    /// misroute: every timestamp outside it is outside the window.
    pub fn push_sampled_record(&mut self, record: FlowRecord) -> Result<()> {
        self.shard.push_sampled_record(record)
    }

    /// Resolution statistics accumulated so far.
    pub fn resolution_stats(&self) -> ResolutionStats {
        self.shard.resolution_stats()
    }

    /// Records that fell outside the observation window.
    pub fn dropped_out_of_window(&self) -> u64 {
        self.shard.dropped_out_of_window()
    }

    /// Produces the traffic matrices.
    ///
    /// # Errors
    ///
    /// [`FlowError::NoData`](crate::FlowError::NoData) if nothing was ever binned.
    pub fn finalize(self) -> Result<(TrafficMatrixSet, ResolutionStats)> {
        let outcome = self.engine.merge(vec![self.shard])?;
        Ok((outcome.matrices, outcome.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{FlowAggregator, MINUTE_SECS};
    use crate::error::FlowError;
    use crate::key::{FlowKey, Protocol};
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
        let stats = p.resolution_stats();
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
        assert_eq!(p.dropped_out_of_window(), 1);
        rec.window_start = 0;
        p.push_sampled_record(rec).unwrap();
        let (set, _) = p.finalize().unwrap();
        assert_eq!(set.bytes.totals()[0], 1.0);
    }
}
