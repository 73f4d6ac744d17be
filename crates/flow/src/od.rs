//! Origin-destination resolution of flow records.
//!
//! "In order to construct OD flows from the raw traffic collected on all
//! network links, we have to identify the ingress and egress PoPs of each
//! flow" (§2.1). Ingress comes from router configuration (which interface
//! the flow arrived on); egress from longest-prefix-match over the
//! BGP+config routing table, *after* destination anonymization — matching
//! the constraint the paper worked under. The ingest shard
//! ([`crate::BinShard`]) anonymizes each record before it resolves it;
//! [`OdResolver`] performs both lookups and tracks the resolution
//! statistics the paper reports (≥93% of flows, ≥90% of bytes).

use crate::record::FlowRecord;
use odflow_net::{CompiledRoutes, IngressResolver, RouteTable, Topology};
use std::sync::Arc;

/// Outcome of resolving one flow record to an OD pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OdResolution {
    /// Both endpoints found: the flattened OD index.
    Resolved {
        /// `origin * num_pops + destination` (see `Topology::od_index`).
        od_index: usize,
    },
    /// The arrival interface was internal (backbone transit) — the flow is
    /// counted at its true ingress router, not here.
    Transit,
    /// The destination address matched no routing-table prefix.
    NoEgress,
    /// The router/interface pair was unknown to the configuration data.
    NoIngress,
}

/// Running totals for the resolution-rate claim of §2.1.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResolutionStats {
    /// Flow records offered for resolution (excluding backbone transit,
    /// which is not a resolution failure but deliberate dedup).
    pub flows_total: u64,
    /// Flow records successfully mapped to an OD pair.
    pub flows_resolved: u64,
    /// Bytes across offered records.
    pub bytes_total: u64,
    /// Bytes across resolved records.
    pub bytes_resolved: u64,
    /// Records skipped as backbone transit.
    pub transit_skipped: u64,
}

impl ResolutionStats {
    /// Fraction of flows resolved (1.0 when nothing was offered).
    pub fn flow_rate(&self) -> f64 {
        if self.flows_total == 0 {
            1.0
        } else {
            self.flows_resolved as f64 / self.flows_total as f64
        }
    }

    /// Fraction of bytes resolved (1.0 when nothing was offered).
    pub fn byte_rate(&self) -> f64 {
        if self.bytes_total == 0 {
            1.0
        } else {
            self.bytes_resolved as f64 / self.bytes_total as f64
        }
    }

    /// Accumulates another shard's statistics into this one. All fields are
    /// integral counters, so the sum is exact and order-independent — the
    /// property the sharded ingest engine's determinism rests on.
    pub fn merge(&mut self, other: &ResolutionStats) {
        self.flows_total += other.flows_total;
        self.flows_resolved += other.flows_resolved;
        self.bytes_total += other.bytes_total;
        self.bytes_resolved += other.bytes_resolved;
        self.transit_skipped += other.transit_skipped;
    }
}

/// Resolves flow records to OD pairs using ingress configuration and the
/// egress routing table.
///
/// The routing state is immutable and shared: a clone is another set of
/// [`ResolutionStats`] over the same tables, which is how every shard of
/// an ingest engine gets its own resolver.
#[derive(Debug, Clone)]
pub struct OdResolver {
    routing: Arc<Routing>,
    num_pops: usize,
    stats: ResolutionStats,
}

/// What a resolver looks records up in.
#[derive(Debug)]
struct Routing {
    ingress: IngressResolver,
    routes: CompiledRoutes,
}

impl OdResolver {
    /// Creates a resolver over the routes installed in `routes` at this
    /// moment (the table is compiled once, here).
    pub fn new(topology: &Topology, ingress: IngressResolver, routes: RouteTable) -> OdResolver {
        OdResolver {
            routing: Arc::new(Routing { ingress, routes: routes.compile() }),
            num_pops: topology.num_pops(),
            stats: ResolutionStats::default(),
        }
    }

    /// Resolves one record, updating the running statistics. The egress
    /// lookup takes the destination as given: anonymizing it is the
    /// caller's step ([`crate::FlowKey::with_anonymized_dst`], which
    /// [`crate::BinShard::push_sampled_record`] applies to every record).
    pub fn resolve(&mut self, record: &FlowRecord) -> OdResolution {
        // Ingress: was this record exported from an external interface?
        let Some(origin) = self.routing.ingress.ingress(record.router, record.interface) else {
            self.stats.transit_skipped += 1;
            return OdResolution::Transit;
        };

        self.stats.flows_total += 1;
        self.stats.bytes_total += record.bytes;

        // Egress: LPM over the destination.
        let Some(egress) = self.routing.routes.egress(record.key.dst_ip) else {
            return OdResolution::NoEgress;
        };
        if origin >= self.num_pops || egress >= self.num_pops {
            return OdResolution::NoIngress;
        }

        self.stats.flows_resolved += 1;
        self.stats.bytes_resolved += record.bytes;
        OdResolution::Resolved { od_index: origin * self.num_pops + egress }
    }

    /// Resolution statistics so far.
    pub fn stats(&self) -> ResolutionStats {
        self.stats
    }

    /// Replaces the running statistics with a snapshot — the
    /// checkpoint-restore path rebuilding a resolver mid-window.
    pub(crate) fn restore_stats(&mut self, stats: ResolutionStats) {
        self.stats = stats;
    }

    /// Number of OD pairs (`num_pops²`).
    pub fn num_od_pairs(&self) -> usize {
        self.num_pops * self.num_pops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{FlowKey, Protocol};
    use odflow_net::{AddressPlan, IpAddr, Topology};

    fn setup() -> (Topology, AddressPlan, OdResolver) {
        let t = Topology::abilene();
        let plan = AddressPlan::synthetic(&t);
        let routes = plan.build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&t);
        let resolver = OdResolver::new(&t, ingress, routes);
        (t, plan, resolver)
    }

    fn record(router: usize, interface: u32, dst: IpAddr, bytes: u64) -> FlowRecord {
        FlowRecord {
            key: FlowKey::new(IpAddr::from_octets(10, 0, 0, 1), dst, 4000, 80, Protocol::Tcp),
            router,
            interface,
            window_start: 0,
            packets: 1,
            bytes,
        }
    }

    #[test]
    fn resolves_customer_to_customer() {
        let (t, plan, mut r) = setup();
        // Ingress at PoP 2 (customer iface 0), destination in PoP 5's space.
        let dst = plan.customer_addr(5, 1, 0x0505);
        let res = r.resolve(&record(2, 0, dst, 1000));
        assert_eq!(res, OdResolution::Resolved { od_index: t.od_index(2, 5).unwrap() });
        assert_eq!(r.stats().flows_resolved, 1);
        assert!((r.stats().flow_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transit_records_skipped_not_failed() {
        let (_, plan, mut r) = setup();
        let dst = plan.customer_addr(5, 0, 1);
        let res = r.resolve(&record(2, 100, dst, 1000)); // backbone iface
        assert_eq!(res, OdResolution::Transit);
        assert_eq!(r.stats().flows_total, 0, "transit must not count as offered");
        assert_eq!(r.stats().transit_skipped, 1);
    }

    #[test]
    fn unannounced_destination_unresolved() {
        let (_, plan, mut r) = setup();
        let dst = plan.unannounced_addr(3, 77);
        let res = r.resolve(&record(0, 0, dst, 500));
        assert_eq!(res, OdResolution::NoEgress);
        assert_eq!(r.stats().flows_total, 1);
        assert_eq!(r.stats().flows_resolved, 0);
        assert_eq!(r.stats().byte_rate(), 0.0);
    }

    #[test]
    fn anonymization_does_not_break_resolution() {
        // /16 customer blocks are coarser than the /21 anonymization
        // boundary, so a destination resolves as its anonymized self does.
        let (t, plan, mut r) = setup();
        for pop in 0..t.num_pops() {
            for block in 0..4 {
                let dst = plan.customer_addr(pop, block, 0x07FF); // low bits set
                let rec = record(3, 0, dst, 100);
                let anon = FlowRecord { key: rec.key.with_anonymized_dst(), ..rec };
                assert_ne!(anon.key.dst_ip, dst);
                assert_eq!(r.resolve(&anon), r.resolve(&rec));
            }
        }
    }

    #[test]
    fn resolution_rate_tracks_mixture() {
        let (_, plan, mut r) = setup();
        // 93 resolvable + 7 unresolvable flows of equal byte size -> 93%.
        for i in 0..93 {
            let dst = plan.customer_addr(i % 11, i % 4, i as u32);
            r.resolve(&record(i % 11, 0, dst, 100));
        }
        for i in 0..7 {
            let dst = plan.unannounced_addr(i, i as u32);
            r.resolve(&record(i % 11, 0, dst, 100));
        }
        assert!((r.stats().flow_rate() - 0.93).abs() < 1e-12);
        assert!((r.stats().byte_rate() - 0.93).abs() < 1e-12);
    }

    #[test]
    fn peer_destination_resolves_to_coastal_pop() {
        let (t, _, mut r) = setup();
        let nycm = t.pop_by_code("NYCM").unwrap();
        let res = r.resolve(&record(4, 0, "192.1.2.3".parse().unwrap(), 10));
        assert_eq!(res, OdResolution::Resolved { od_index: t.od_index(4, nycm).unwrap() });
    }

    #[test]
    fn empty_stats_rates_are_one() {
        let s = ResolutionStats::default();
        assert_eq!(s.flow_rate(), 1.0);
        assert_eq!(s.byte_rate(), 1.0);
    }
}
