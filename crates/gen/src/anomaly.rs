//! Anomaly injection — one injector per row of the paper's Table 2.
//!
//! Each injected anomaly reproduces the *flow-level signature* the paper
//! uses to characterize its class: which traffic types spike (B/P/F), which
//! attributes dominate (source, destination, ports), how long it lasts, and
//! how many OD flows it spans. Additive anomalies synthesize extra sampled
//! flow records; OUTAGE and INGRESS-SHIFT instead modify the baseline mean
//! (traffic disappears or moves), which is how those events manifest in
//! real data.

use crate::rng::{cell_rng, Stream};
use odflow_flow::{FlowKey, FlowRecord, Protocol, TrafficType};
use odflow_net::{AddressPlan, IpAddr, PopId};
use rand::Rng;

/// The anomaly taxonomy of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnomalyKind {
    /// Unusually high-rate point-to-point byte transfer (bandwidth
    /// experiments, large data transfers).
    Alpha,
    /// Single-source denial of service against one victim.
    Dos,
    /// Distributed denial of service: multiple origins, one victim.
    Ddos,
    /// Flash crowd: unusually large legitimate demand for one service.
    FlashCrowd,
    /// Network scan (one source probing one port across many hosts) or
    /// port scan (one source probing many ports on one host).
    Scan,
    /// Self-propagating worm traffic (dominant port, no dominant
    /// destination).
    Worm,
    /// Point-to-multipoint content distribution from one server.
    PointMultipoint,
    /// Equipment outage: traffic between OD pairs drops toward zero.
    Outage,
    /// Customer shifts traffic from one ingress PoP to another.
    IngressShift,
}

impl AnomalyKind {
    /// The traffic types the paper's Table 2 says this anomaly class
    /// primarily manifests in (used for ground-truth scoring).
    pub fn expected_types(self) -> &'static [TrafficType] {
        use TrafficType::*;
        match self {
            AnomalyKind::Alpha => &[Bytes, Packets],
            AnomalyKind::Dos | AnomalyKind::Ddos => &[Packets, Flows],
            AnomalyKind::FlashCrowd => &[Flows, Packets],
            AnomalyKind::Scan => &[Flows],
            AnomalyKind::Worm => &[Flows],
            AnomalyKind::PointMultipoint => &[Packets, Bytes],
            AnomalyKind::Outage => &[Bytes, Flows, Packets],
            AnomalyKind::IngressShift => &[Flows],
        }
    }

    /// Table 2's name for this class.
    pub fn label(self) -> &'static str {
        match self {
            AnomalyKind::Alpha => "ALPHA",
            AnomalyKind::Dos => "DOS",
            AnomalyKind::Ddos => "DDOS",
            AnomalyKind::FlashCrowd => "FLASH-CROWD",
            AnomalyKind::Scan => "SCAN",
            AnomalyKind::Worm => "WORM",
            AnomalyKind::PointMultipoint => "POINT-MULTIPOINT",
            AnomalyKind::Outage => "OUTAGE",
            AnomalyKind::IngressShift => "INGRESS-SHIFT",
        }
    }
}

/// Scan flavor for [`AnomalyKind::Scan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// One target port across many hosts (e.g. 139/NetBIOS sweeps).
    Network,
    /// Many ports on one host.
    Port,
}

/// A scheduled anomaly instance.
#[derive(Debug, Clone)]
pub struct InjectedAnomaly {
    /// Schedule-unique id (also salts the injection RNG).
    pub id: u64,
    /// Anomaly class.
    pub kind: AnomalyKind,
    /// First affected timebin.
    pub start_bin: usize,
    /// Number of affected timebins.
    pub duration_bins: usize,
    /// OD pairs involved, as `(origin, destination)` — one for most
    /// classes, several for DDOS / WORM / OUTAGE / INGRESS-SHIFT.
    pub od_pairs: Vec<(PopId, PopId)>,
    /// Class-specific scale: observed flows per bin for flow-dense classes,
    /// observed packets per bin for ALPHA / POINT-MULTIPOINT.
    pub intensity: f64,
    /// The dominant port the anomaly uses (victim port, scan target, worm
    /// port, or transfer port), when the class has one.
    pub port: u16,
    /// Scan flavor (only meaningful for `Scan`).
    pub scan_mode: ScanMode,
    /// For `IngressShift`: the PoP traffic moves *to* (the new ingress).
    pub shift_to: Option<PopId>,
    /// Mean packets per injected flow for DOS/DDOS/FLASH (`0.0` = class
    /// default). Varying this is what makes an anomaly surface in one
    /// traffic view but not another: a flow-dense flood (1-3 packets per
    /// flow) spikes F, a packet-dense flood from few 5-tuples (tens of
    /// packets per flow) spikes P alone — the paper's Table 3 shows DOS
    /// split almost evenly between F-only and P-only detections.
    pub packets_per_flow: f64,
    /// Bytes per injected packet (`0` = class default). For ALPHA this
    /// selects between MTU-size bulk transfers (byte-view heavy) and
    /// small-packet streams (packet-view heavy), reproducing Table 3's
    /// split of ALPHA across B-only, P-only, and BP detections.
    pub packet_bytes: u32,
}

impl InjectedAnomaly {
    /// `true` if `bin` falls inside the anomaly's active window.
    pub fn active_in(&self, bin: usize) -> bool {
        bin >= self.start_bin && bin < self.start_bin + self.duration_bins
    }

    /// Last affected bin (inclusive).
    pub fn end_bin(&self) -> usize {
        self.start_bin + self.duration_bins.saturating_sub(1)
    }

    /// Multiplier applied to the baseline mean of `(origin, destination)`
    /// during the anomaly (1.0 = untouched). OUTAGE suppresses the involved
    /// pairs; INGRESS-SHIFT drains the old-ingress pairs.
    pub fn baseline_factor(&self, bin: usize, origin: PopId, destination: PopId) -> f64 {
        if !self.active_in(bin) {
            return 1.0;
        }
        match self.kind {
            AnomalyKind::Outage
                if self.od_pairs.iter().any(|&(o, d)| o == origin && d == destination) =>
            {
                0.02 // near-total loss, "usually to zero"
            }
            AnomalyKind::IngressShift
                if self.od_pairs.iter().any(|&(o, d)| o == origin && d == destination) =>
            {
                0.15 // most of the customer's traffic leaves this ingress
            }
            _ => 1.0,
        }
    }

    /// Extra baseline mean *added* to `(origin, destination)` during the
    /// anomaly — the receiving side of an INGRESS-SHIFT, where
    /// `drained_mean` is the unperturbed mean of the corresponding drained
    /// pair.
    pub fn shifted_in_mean(
        &self,
        bin: usize,
        origin: PopId,
        destination: PopId,
        drained_mean_for: impl Fn(PopId, PopId) -> f64,
    ) -> f64 {
        if !self.active_in(bin) || self.kind != AnomalyKind::IngressShift {
            return 0.0;
        }
        let Some(to) = self.shift_to else { return 0.0 };
        if origin != to {
            return 0.0;
        }
        // Traffic drained from (from_pop, destination) arrives here.
        self.od_pairs
            .iter()
            .filter(|&&(_, d)| d == destination)
            .map(|&(from, d)| 0.85 * drained_mean_for(from, d))
            .sum()
    }

    /// Synthesizes this anomaly's extra flow records for one bin.
    /// Deterministic in `(trace_seed, bin, anomaly id)`. Returns an empty
    /// vector for inactive bins and for the baseline-modifier classes.
    pub fn synthesize(
        &self,
        trace_seed: u64,
        bin: usize,
        bin_start: u64,
        bin_secs: u64,
        plan: &AddressPlan,
    ) -> Vec<FlowRecord> {
        if !self.active_in(bin) {
            return Vec::new();
        }
        match self.kind {
            AnomalyKind::Alpha => self.synth_alpha(trace_seed, bin, bin_start, bin_secs, plan),
            AnomalyKind::Dos | AnomalyKind::Ddos => {
                self.synth_dos(trace_seed, bin, bin_start, bin_secs, plan)
            }
            AnomalyKind::FlashCrowd => self.synth_flash(trace_seed, bin, bin_start, bin_secs, plan),
            AnomalyKind::Scan => self.synth_scan(trace_seed, bin, bin_start, bin_secs, plan),
            AnomalyKind::Worm => self.synth_worm(trace_seed, bin, bin_start, bin_secs, plan),
            AnomalyKind::PointMultipoint => {
                self.synth_ptmp(trace_seed, bin, bin_start, bin_secs, plan)
            }
            AnomalyKind::Outage | AnomalyKind::IngressShift => Vec::new(),
        }
    }

    /// Stable per-anomaly "actor" addresses (attacker, victim, server) so
    /// the same endpoints persist across the anomaly's bins.
    fn actor_rng(&self, trace_seed: u64) -> rand_chacha::ChaCha8Rng {
        cell_rng(trace_seed, u64::MAX, self.id, Stream::Anomaly(self.id))
    }

    fn bin_rng(&self, trace_seed: u64, bin: usize, pair_idx: usize) -> rand_chacha::ChaCha8Rng {
        cell_rng(trace_seed, bin as u64, pair_idx as u64, Stream::Anomaly(self.id))
    }

    /// ALPHA: one dominant source-destination host pair moving bulk data.
    /// Huge packet/byte volume, a single 5-tuple, MTU packets.
    fn synth_alpha(
        &self,
        trace_seed: u64,
        bin: usize,
        bin_start: u64,
        bin_secs: u64,
        plan: &AddressPlan,
    ) -> Vec<FlowRecord> {
        let (origin, dest) = self.od_pairs[0];
        let mut actors = self.actor_rng(trace_seed);
        let src = plan.customer_addr(origin, 0, actors.gen());
        let dst = plan.customer_addr(dest, 0, actors.gen());
        let mut rng = self.bin_rng(trace_seed, bin, 0);
        let packets = (self.intensity * (0.9 + 0.2 * rng.gen::<f64>())) as u64;
        let bytes_per_packet = if self.packet_bytes > 0 { self.packet_bytes as u64 } else { 1500 };
        let key = FlowKey::new(src, dst, self.port, self.port, Protocol::Tcp);
        let minutes = (bin_secs / 60).max(1);
        // The transfer spans the bin; export one record per minute, as the
        // per-minute aggregation would.
        let per_minute = (packets / minutes).max(1);
        (0..minutes)
            .map(|m| FlowRecord {
                key,
                router: origin,
                interface: 0,
                window_start: bin_start + m * 60,
                packets: per_minute,
                bytes: per_minute * bytes_per_packet,
            })
            .collect()
    }

    /// DOS/DDOS: a flood of minimum-size packets to one victim address and
    /// port, from spoofed (structureless) sources. DDOS repeats the flood
    /// from every origin in `od_pairs`.
    fn synth_dos(
        &self,
        trace_seed: u64,
        bin: usize,
        bin_start: u64,
        bin_secs: u64,
        plan: &AddressPlan,
    ) -> Vec<FlowRecord> {
        let mut actors = self.actor_rng(trace_seed);
        let victim_pop = self.od_pairs[0].1;
        let victim = plan.customer_addr(victim_pop, 0, actors.gen());
        let minutes = (bin_secs / 60).max(1);
        let ppf = if self.packets_per_flow > 0.0 { self.packets_per_flow } else { 2.0 };
        let mut out = Vec::new();
        for (pi, &(origin, _)) in self.od_pairs.iter().enumerate() {
            let mut rng = self.bin_rng(trace_seed, bin, pi);
            let flows = (self.intensity / self.od_pairs.len() as f64
                * (0.8 + 0.4 * rng.gen::<f64>())) as u64;
            for _ in 0..flows {
                // Spoofed source: uniformly random address space.
                let src = IpAddr(rng.gen());
                let packets = 1 + (ppf * (0.5 + rng.gen::<f64>())) as u64;
                out.push(FlowRecord {
                    key: FlowKey::new(
                        src,
                        victim,
                        rng.gen_range(1024..=65_535),
                        self.port,
                        Protocol::Tcp,
                    ),
                    router: origin,
                    interface: 0,
                    window_start: bin_start + rng.gen_range(0..minutes) * 60,
                    packets,
                    bytes: packets * 40,
                });
            }
        }
        out
    }

    /// FLASH CROWD: many legitimate clients from a few topologically
    /// clustered blocks hitting one server on one well-known port.
    fn synth_flash(
        &self,
        trace_seed: u64,
        bin: usize,
        bin_start: u64,
        bin_secs: u64,
        plan: &AddressPlan,
    ) -> Vec<FlowRecord> {
        let (origin, dest) = self.od_pairs[0];
        let mut actors = self.actor_rng(trace_seed);
        let server = plan.customer_addr(dest, 0, actors.gen());
        // Clients cluster in 3 /24s of the origin's space (Jung et al.'s
        // topological-clustering signature of real flash crowds).
        let client_blocks: Vec<u32> = (0..3).map(|_| actors.gen::<u32>() & 0xFFFF_FF00).collect();
        let mut rng = self.bin_rng(trace_seed, bin, 0);
        let flows = (self.intensity * (0.8 + 0.4 * rng.gen::<f64>())) as u64;
        let ppf = if self.packets_per_flow > 0.0 { self.packets_per_flow } else { 5.0 };
        let minutes = (bin_secs / 60).max(1);
        (0..flows)
            .map(|_| {
                let block = client_blocks[rng.gen_range(0..client_blocks.len())];
                let base = plan.customer_addr(origin, 0, 0).0 & 0xFFFF_0000;
                let src = IpAddr(base | (block & 0x0000_FF00) | rng.gen_range(1..255));
                let packets = 2 + (ppf * rng.gen::<f64>() * 1.6) as u64;
                let bpp = if self.packet_bytes > 0 { self.packet_bytes as u64 } else { 400 };
                FlowRecord {
                    key: FlowKey::new(
                        src,
                        server,
                        rng.gen_range(1024..=65_535),
                        self.port,
                        Protocol::Tcp,
                    ),
                    router: origin,
                    interface: 0,
                    window_start: bin_start + rng.gen_range(0..minutes) * 60,
                    packets,
                    bytes: packets * bpp,
                }
            })
            .collect()
    }

    /// SCAN: single-packet probes from one source. Network scans sweep
    /// addresses on one port; port scans sweep ports on one address. Either
    /// way packets ≈ flows and no (dst addr, dst port) pair dominates.
    fn synth_scan(
        &self,
        trace_seed: u64,
        bin: usize,
        bin_start: u64,
        bin_secs: u64,
        plan: &AddressPlan,
    ) -> Vec<FlowRecord> {
        let (origin, dest) = self.od_pairs[0];
        let mut actors = self.actor_rng(trace_seed);
        let scanner = plan.customer_addr(origin, 1, actors.gen());
        let fixed_target = plan.customer_addr(dest, 0, actors.gen());
        let mut rng = self.bin_rng(trace_seed, bin, 0);
        let flows = (self.intensity * (0.8 + 0.4 * rng.gen::<f64>())) as u64;
        let minutes = (bin_secs / 60).max(1);
        (0..flows)
            .map(|i| {
                let (dst, dport) = match self.scan_mode {
                    ScanMode::Network => (
                        // Sweep the destination PoP's space.
                        plan.customer_addr(dest, (i % 4) as usize, rng.gen()),
                        self.port,
                    ),
                    ScanMode::Port => (fixed_target, (1 + (i % 60_000)) as u16),
                };
                FlowRecord {
                    key: FlowKey::new(
                        scanner,
                        dst,
                        rng.gen_range(1024..=65_535),
                        dport,
                        Protocol::Tcp,
                    ),
                    router: origin,
                    interface: 0,
                    window_start: bin_start + rng.gen_range(0..minutes) * 60,
                    packets: 1,
                    bytes: 40,
                }
            })
            .collect()
    }

    /// WORM: propagation probes on one service port, many sources to many
    /// destinations — dominant port, no dominant endpoint. May span
    /// several OD pairs.
    fn synth_worm(
        &self,
        trace_seed: u64,
        bin: usize,
        bin_start: u64,
        bin_secs: u64,
        plan: &AddressPlan,
    ) -> Vec<FlowRecord> {
        let minutes = (bin_secs / 60).max(1);
        let mut out = Vec::new();
        for (pi, &(origin, dest)) in self.od_pairs.iter().enumerate() {
            let mut rng = self.bin_rng(trace_seed, bin, pi);
            let flows = (self.intensity / self.od_pairs.len() as f64
                * (0.8 + 0.4 * rng.gen::<f64>())) as u64;
            for _ in 0..flows {
                // Infected hosts scattered across the origin's space.
                let src = plan.customer_addr(origin, rng.gen_range(0..4), rng.gen());
                let dst = plan.customer_addr(dest, rng.gen_range(0..4), rng.gen());
                let packets = 1 + rng.gen_range(0..2) as u64;
                out.push(FlowRecord {
                    key: FlowKey::new(
                        src,
                        dst,
                        rng.gen_range(1024..=65_535),
                        self.port,
                        Protocol::Tcp,
                    ),
                    router: origin,
                    interface: 0,
                    window_start: bin_start + rng.gen_range(0..minutes) * 60,
                    packets,
                    bytes: packets * 404, // SQL-Snake-sized probe payload
                });
            }
        }
        out
    }

    /// POINT-MULTIPOINT: one server pushing content to many receivers on a
    /// well-known source port — dominant source, numerous destinations,
    /// byte/packet heavy.
    fn synth_ptmp(
        &self,
        trace_seed: u64,
        bin: usize,
        bin_start: u64,
        bin_secs: u64,
        plan: &AddressPlan,
    ) -> Vec<FlowRecord> {
        let (origin, dest) = self.od_pairs[0];
        let mut actors = self.actor_rng(trace_seed);
        let server = plan.customer_addr(origin, 0, actors.gen());
        let mut rng = self.bin_rng(trace_seed, bin, 0);
        // intensity = packets per bin, spread over ~60 receivers.
        let receivers = 60u64;
        let packets_per_receiver = ((self.intensity / receivers as f64).max(1.0)) as u64;
        let minutes = (bin_secs / 60).max(1);
        (0..receivers)
            .map(|_| {
                let dst = plan.customer_addr(dest, rng.gen_range(0..4), rng.gen());
                FlowRecord {
                    key: FlowKey::new(
                        server,
                        dst,
                        self.port,
                        rng.gen_range(1024..=65_535),
                        Protocol::Tcp,
                    ),
                    router: origin,
                    interface: 0,
                    window_start: bin_start + rng.gen_range(0..minutes) * 60,
                    packets: packets_per_receiver,
                    bytes: packets_per_receiver * 1000,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odflow_flow::AttributeDigest;
    use odflow_net::Topology;

    fn plan() -> AddressPlan {
        AddressPlan::synthetic(&Topology::abilene())
    }

    fn base(
        kind: AnomalyKind,
        od: Vec<(usize, usize)>,
        intensity: f64,
        port: u16,
    ) -> InjectedAnomaly {
        InjectedAnomaly {
            id: 1,
            kind,
            start_bin: 10,
            duration_bins: 2,
            od_pairs: od,
            intensity,
            port,
            scan_mode: ScanMode::Network,
            shift_to: None,
            packets_per_flow: 0.0,
            packet_bytes: 0,
        }
    }

    fn digest_of(records: &[FlowRecord]) -> AttributeDigest {
        let mut d = AttributeDigest::new();
        for r in records {
            d.add(r);
        }
        d
    }

    #[test]
    fn inactive_bins_produce_nothing() {
        let a = base(AnomalyKind::Dos, vec![(0, 5)], 500.0, 0);
        assert!(a.synthesize(1, 9, 0, 300, &plan()).is_empty());
        assert!(a.synthesize(1, 12, 0, 300, &plan()).is_empty());
        assert!(!a.active_in(9));
        assert!(a.active_in(10));
        assert!(a.active_in(11));
        assert!(!a.active_in(12));
        assert_eq!(a.end_bin(), 11);
    }

    #[test]
    fn deterministic_synthesis() {
        let a = base(AnomalyKind::FlashCrowd, vec![(2, 7)], 300.0, 80);
        let r1 = a.synthesize(99, 10, 3000, 300, &plan());
        let r2 = a.synthesize(99, 10, 3000, 300, &plan());
        assert_eq!(r1, r2);
        assert!(!r1.is_empty());
    }

    #[test]
    fn alpha_signature() {
        let a = base(AnomalyKind::Alpha, vec![(1, 6)], 3000.0, 5001);
        let recs = a.synthesize(7, 10, 0, 300, &plan());
        let d = digest_of(&recs);
        // Single 5-tuple: one flow only, huge bytes, MTU packets.
        assert_eq!(d.total.flows, 5.0, "one record per minute, same key");
        let distinct: std::collections::HashSet<_> = recs.iter().map(|r| r.key).collect();
        assert_eq!(distinct.len(), 1, "ALPHA is a single source-destination pair");
        let (_, src_share) = d.dominant_src_block(TrafficType::Bytes).unwrap();
        assert!(src_share > 0.99);
        assert!(d.total.bytes / d.total.packets >= 1400.0, "MTU-sized packets");
        assert_eq!(recs[0].key.dst_port, 5001);
    }

    #[test]
    fn dos_signature() {
        let a = base(AnomalyKind::Dos, vec![(3, 8)], 800.0, 0);
        let recs = a.synthesize(7, 10, 0, 300, &plan());
        let d = digest_of(&recs);
        // Dominant destination address, no dominant source block.
        let (_, dst_share) = d.dominant_dst_addr(TrafficType::Flows).unwrap();
        assert!(dst_share > 0.99, "single victim");
        let (_, src_share) = d.dominant_src_block(TrafficType::Flows).unwrap();
        assert!(src_share < 0.05, "spoofed sources must not cluster, got {src_share}");
        assert!(d.total.bytes / d.total.packets <= 41.0, "minimum-size packets");
        assert_eq!(recs[0].key.dst_port, 0);
        assert!(d.total.flows > 500.0);
    }

    #[test]
    fn ddos_spans_multiple_origins() {
        let a = base(AnomalyKind::Ddos, vec![(0, 8), (1, 8), (2, 8)], 900.0, 113);
        let recs = a.synthesize(7, 10, 0, 300, &plan());
        let routers: std::collections::HashSet<_> = recs.iter().map(|r| r.router).collect();
        assert_eq!(routers.len(), 3);
        // All toward one victim.
        let d = digest_of(&recs);
        let (_, dst_share) = d.dominant_dst_addr(TrafficType::Flows).unwrap();
        assert!(dst_share > 0.99);
    }

    #[test]
    fn flash_crowd_signature() {
        let a = base(AnomalyKind::FlashCrowd, vec![(4, 9)], 600.0, 80);
        let recs = a.synthesize(7, 10, 0, 300, &plan());
        let d = digest_of(&recs);
        // Dominant destination IP *and* port, clustered sources.
        let (_, dst_share) = d.dominant_dst_addr(TrafficType::Flows).unwrap();
        assert!(dst_share > 0.99);
        let (port, port_share) = d.dominant_dst_port(TrafficType::Flows).unwrap();
        assert_eq!(port, 80);
        assert!(port_share > 0.99);
        assert!(d.distinct_src_blocks() <= 3, "topologically clustered clients");
        // Unlike a scan, flows carry several packets.
        assert!(d.packets_per_flow() > 2.0);
    }

    #[test]
    fn network_scan_signature() {
        let a = base(AnomalyKind::Scan, vec![(5, 2)], 700.0, 139);
        let recs = a.synthesize(7, 10, 0, 300, &plan());
        let d = digest_of(&recs);
        assert!((d.packets_per_flow() - 1.0).abs() < 1e-9, "one packet per probe");
        let (_, src_share) = d.dominant_src_block(TrafficType::Flows).unwrap();
        assert!(src_share > 0.99, "single scanner");
        // No dominant (dst, port) combination.
        let (_, combo_share) = d.dominant_dst_addr_port(TrafficType::Flows).unwrap();
        assert!(combo_share < 0.05, "scan must spread targets, got {combo_share}");
        assert_eq!(recs[0].key.dst_port, 139);
    }

    #[test]
    fn port_scan_signature() {
        let mut a = base(AnomalyKind::Scan, vec![(5, 2)], 700.0, 0);
        a.scan_mode = ScanMode::Port;
        let recs = a.synthesize(7, 10, 0, 300, &plan());
        let d = digest_of(&recs);
        // One host, many ports: dominant dst addr but no dominant combo.
        let (_, dst_share) = d.dominant_dst_addr(TrafficType::Flows).unwrap();
        assert!(dst_share > 0.99);
        let (_, combo_share) = d.dominant_dst_addr_port(TrafficType::Flows).unwrap();
        assert!(combo_share < 0.05);
    }

    #[test]
    fn worm_signature() {
        let a = base(AnomalyKind::Worm, vec![(0, 3), (1, 3), (6, 3)], 900.0, 1433);
        let recs = a.synthesize(7, 10, 0, 300, &plan());
        let d = digest_of(&recs);
        // Dominant port only; no dominant destination.
        let (port, port_share) = d.dominant_dst_port(TrafficType::Flows).unwrap();
        assert_eq!(port, 1433);
        assert!(port_share > 0.99);
        let (_, dst_share) = d.dominant_dst_addr(TrafficType::Flows).unwrap();
        assert!(dst_share < 0.05, "worm has no dominant victim, got {dst_share}");
        let (_, src_share) = d.dominant_src_block(TrafficType::Flows).unwrap();
        assert!(src_share < 0.2, "many infected sources");
    }

    #[test]
    fn ptmp_signature() {
        let a = base(AnomalyKind::PointMultipoint, vec![(2, 10)], 6000.0, 119);
        let recs = a.synthesize(7, 10, 0, 300, &plan());
        let d = digest_of(&recs);
        let (_, src_share) = d.dominant_src_block(TrafficType::Packets).unwrap();
        assert!(src_share > 0.99, "single server source");
        assert!(d.distinct_dst_addrs() >= 50, "numerous receivers");
        let (port, _) = d.dominant_src_port(TrafficType::Packets).unwrap();
        assert_eq!(port, 119, "well-known service port on the source side");
        assert!(d.total.bytes / d.total.packets >= 900.0);
    }

    #[test]
    fn outage_suppresses_baseline() {
        let a = InjectedAnomaly {
            id: 9,
            kind: AnomalyKind::Outage,
            start_bin: 100,
            duration_bins: 24,
            od_pairs: vec![(6, 0), (6, 1), (0, 6)],
            intensity: 0.0,
            port: 0,
            scan_mode: ScanMode::Network,
            shift_to: None,
            packets_per_flow: 0.0,
            packet_bytes: 0,
        };
        assert!(a.synthesize(1, 100, 0, 300, &plan()).is_empty());
        assert!(a.baseline_factor(100, 6, 0) < 0.05);
        assert!(a.baseline_factor(100, 6, 1) < 0.05);
        assert_eq!(a.baseline_factor(100, 1, 6), 1.0, "uninvolved pair untouched");
        assert_eq!(a.baseline_factor(99, 6, 0), 1.0, "inactive bin untouched");
    }

    #[test]
    fn ingress_shift_moves_traffic() {
        let losa = 6;
        let snva = 8;
        let a = InjectedAnomaly {
            id: 11,
            kind: AnomalyKind::IngressShift,
            start_bin: 50,
            duration_bins: 12,
            od_pairs: vec![(losa, 0), (losa, 1)],
            intensity: 0.0,
            port: 0,
            scan_mode: ScanMode::Network,
            shift_to: Some(snva),
            packets_per_flow: 0.0,
            packet_bytes: 0,
        };
        // Old ingress drained.
        assert!((a.baseline_factor(55, losa, 0) - 0.15).abs() < 1e-12);
        // New ingress receives 85% of the drained mean.
        let drained = |o: usize, d: usize| if o == losa && d == 0 { 100.0 } else { 50.0 };
        let extra = a.shifted_in_mean(55, snva, 0, drained);
        assert!((extra - 85.0).abs() < 1e-9);
        let extra1 = a.shifted_in_mean(55, snva, 1, drained);
        assert!((extra1 - 42.5).abs() < 1e-9);
        // Other PoPs receive nothing.
        assert_eq!(a.shifted_in_mean(55, 3, 0, drained), 0.0);
        // Outside the window, nothing moves.
        assert_eq!(a.shifted_in_mean(49, snva, 0, drained), 0.0);
    }

    #[test]
    fn expected_types_match_table2() {
        use TrafficType::*;
        assert_eq!(AnomalyKind::Alpha.expected_types(), &[Bytes, Packets]);
        assert_eq!(AnomalyKind::Dos.expected_types(), &[Packets, Flows]);
        assert_eq!(AnomalyKind::Scan.expected_types(), &[Flows]);
        assert_eq!(AnomalyKind::Worm.expected_types(), &[Flows]);
        assert_eq!(AnomalyKind::PointMultipoint.expected_types(), &[Packets, Bytes]);
        assert_eq!(AnomalyKind::Outage.expected_types(), &[Bytes, Flows, Packets]);
    }

    #[test]
    fn labels_are_table2_names() {
        assert_eq!(AnomalyKind::Alpha.label(), "ALPHA");
        assert_eq!(AnomalyKind::FlashCrowd.label(), "FLASH-CROWD");
        assert_eq!(AnomalyKind::IngressShift.label(), "INGRESS-SHIFT");
    }

    #[test]
    fn actors_stable_across_bins() {
        let a = base(AnomalyKind::Dos, vec![(3, 8)], 400.0, 0);
        let r10 = a.synthesize(7, 10, 0, 300, &plan());
        let r11 = a.synthesize(7, 11, 300, 300, &plan());
        let victim10 = r10[0].key.dst_ip;
        let victim11 = r11[0].key.dst_ip;
        assert_eq!(victim10, victim11, "same victim across the anomaly's bins");
    }
}
