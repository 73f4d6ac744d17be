//! Per-cell attribute digests for anomaly classification.
//!
//! The paper's classification step inspects the raw flows behind each
//! detected `(traffic type, time, OD flow)` triple for **dominant**
//! attributes: "an address range or port is dominant in a particular OD flow
//! and timebin if it is unusually prevalent ... if the address range or port
//! accounted for more than a fraction p of the total traffic ... it was
//! considered dominant. We found that a value of p = 0.2 worked well" (§4).
//!
//! [`AttributeDigest`] summarizes the flow population behind a detection
//! (the `(bin, OD)` cells of one event) by every attribute the Table 2
//! rules test: traffic totals per source /24 block, per port, and per
//! (anonymized) destination address, plus distinct endpoint counts.

use crate::record::FlowRecord;
use odflow_net::IpAddr;
use std::collections::BTreeMap;

/// Byte/packet/flow totals attributed to one attribute value.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Sampled bytes.
    pub bytes: f64,
    /// Sampled packets.
    pub packets: f64,
    /// Distinct flows.
    pub flows: f64,
}

impl Counts {
    fn add_record(&mut self, r: &FlowRecord) {
        self.bytes += r.bytes as f64;
        self.packets += r.packets as f64;
        self.flows += 1.0;
    }

    /// Selects one measure by the paper's traffic-type letter.
    pub fn get(&self, t: crate::matrix::TrafficType) -> f64 {
        match t {
            crate::matrix::TrafficType::Bytes => self.bytes,
            crate::matrix::TrafficType::Packets => self.packets,
            crate::matrix::TrafficType::Flows => self.flows,
        }
    }
}

/// Mask for source-address aggregation (/24).
const SRC_BLOCK_MASK: u32 = 0xFFFF_FF00;

/// An attribute-level summary of the flows in a detection cell.
///
/// Attribute maps are `BTreeMap`s so iteration (and therefore
/// [`AttributeDigest::dominant`]'s tie-break) is key-ordered: two runs over
/// the same records classify identically even when two attribute values tie
/// on share.
#[derive(Debug, Clone, Default)]
pub struct AttributeDigest {
    /// Grand totals across all flows in the cell.
    pub total: Counts,
    /// Totals per source /24 block.
    pub by_src_block: BTreeMap<u32, Counts>,
    /// Totals per source port.
    pub by_src_port: BTreeMap<u16, Counts>,
    /// Totals per destination port.
    pub by_dst_port: BTreeMap<u16, Counts>,
    /// Totals per exact destination address (post-anonymization) — DOS
    /// rules need single-victim concentration, finer than /21 blocks.
    pub by_dst_addr: BTreeMap<u32, Counts>,
    /// Totals per (destination address, destination port) pair — the SCAN
    /// rule tests for *no dominant combination* of these.
    pub by_dst_addr_port: BTreeMap<(u32, u16), Counts>,
}

impl AttributeDigest {
    /// Creates an empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one flow record into the digest.
    pub fn add(&mut self, r: &FlowRecord) {
        self.total.add_record(r);
        self.by_src_block.entry(r.key.src_ip.0 & SRC_BLOCK_MASK).or_default().add_record(r);
        self.by_src_port.entry(r.key.src_port).or_default().add_record(r);
        self.by_dst_port.entry(r.key.dst_port).or_default().add_record(r);
        self.by_dst_addr.entry(r.key.dst_ip.0).or_default().add_record(r);
        self.by_dst_addr_port.entry((r.key.dst_ip.0, r.key.dst_port)).or_default().add_record(r);
    }

    /// The attribute value with the highest share of the given measure, as
    /// `(value, share)`, from an attribute map. Returns `None` for an empty
    /// digest. Ties on share resolve to the largest key (`max_by` keeps the
    /// last maximum of the key-ordered iteration).
    pub fn dominant<K: Copy>(
        map: &BTreeMap<K, Counts>,
        total: f64,
        t: crate::matrix::TrafficType,
    ) -> Option<(K, f64)> {
        if total <= 0.0 {
            return None;
        }
        map.iter().map(|(k, c)| (*k, c.get(t) / total)).max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Dominant source /24 block by measure `t`: `(block address, share)`.
    pub fn dominant_src_block(&self, t: crate::matrix::TrafficType) -> Option<(IpAddr, f64)> {
        Self::dominant(&self.by_src_block, self.total.get(t), t).map(|(k, s)| (IpAddr(k), s))
    }

    /// Dominant exact destination address by measure `t`.
    pub fn dominant_dst_addr(&self, t: crate::matrix::TrafficType) -> Option<(IpAddr, f64)> {
        Self::dominant(&self.by_dst_addr, self.total.get(t), t).map(|(k, s)| (IpAddr(k), s))
    }

    /// Dominant source port by measure `t`.
    pub fn dominant_src_port(&self, t: crate::matrix::TrafficType) -> Option<(u16, f64)> {
        Self::dominant(&self.by_src_port, self.total.get(t), t)
    }

    /// Dominant destination port by measure `t`.
    pub fn dominant_dst_port(&self, t: crate::matrix::TrafficType) -> Option<(u16, f64)> {
        Self::dominant(&self.by_dst_port, self.total.get(t), t)
    }

    /// Dominant (destination address, port) combination by measure `t`.
    pub fn dominant_dst_addr_port(
        &self,
        t: crate::matrix::TrafficType,
    ) -> Option<((IpAddr, u16), f64)> {
        Self::dominant(&self.by_dst_addr_port, self.total.get(t), t)
            .map(|((a, p), s)| ((IpAddr(a), p), s))
    }

    /// Number of distinct destination addresses observed.
    pub fn distinct_dst_addrs(&self) -> usize {
        self.by_dst_addr.len()
    }

    /// Number of distinct source /24 blocks observed.
    pub fn distinct_src_blocks(&self) -> usize {
        self.by_src_block.len()
    }

    /// Minimum number of source /24 blocks needed to cover at least
    /// `share` of the total in measure `t` — a pollution-robust
    /// concentration statistic: background flows sprinkle many tiny
    /// blocks into a detection cell, but a topologically clustered event
    /// still covers 80% of traffic with a handful of blocks.
    pub fn src_blocks_for_share(&self, t: crate::matrix::TrafficType, share: f64) -> usize {
        let total = self.total.get(t);
        if total <= 0.0 {
            return 0;
        }
        let mut weights: Vec<f64> = self.by_src_block.values().map(|c| c.get(t)).collect();
        weights.sort_by(|a, b| b.total_cmp(a));
        let target = total * share.clamp(0.0, 1.0);
        let mut acc = 0.0;
        for (i, w) in weights.iter().enumerate() {
            acc += w;
            if acc >= target {
                return i + 1;
            }
        }
        weights.len()
    }

    /// Packets-per-flow ratio — the SCAN rule tests for "similar number of
    /// packets as flows" (≈1 packet per probe flow).
    pub fn packets_per_flow(&self) -> f64 {
        if self.total.flows <= 0.0 {
            return 0.0;
        }
        self.total.packets / self.total.flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{FlowKey, Protocol};
    use crate::matrix::TrafficType;

    fn rec(
        src: [u8; 4],
        dst: [u8; 4],
        sport: u16,
        dport: u16,
        pkts: u64,
        bytes: u64,
    ) -> FlowRecord {
        FlowRecord {
            key: FlowKey::new(
                IpAddr::from_octets(src[0], src[1], src[2], src[3]),
                IpAddr::from_octets(dst[0], dst[1], dst[2], dst[3]),
                sport,
                dport,
                Protocol::Tcp,
            ),
            router: 0,
            interface: 0,
            window_start: 0,
            packets: pkts,
            bytes,
        }
    }

    #[test]
    fn totals_accumulate() {
        let mut d = AttributeDigest::new();
        d.add(&rec([10, 0, 0, 1], [10, 16, 0, 0], 1000, 80, 3, 4500));
        d.add(&rec([10, 0, 0, 2], [10, 16, 0, 0], 1001, 80, 2, 3000));
        assert_eq!(d.total.flows, 2.0);
        assert_eq!(d.total.packets, 5.0);
        assert_eq!(d.total.bytes, 7500.0);
    }

    #[test]
    fn dominant_dst_port_share() {
        let mut d = AttributeDigest::new();
        // 80% of bytes to port 80, 20% to port 22.
        d.add(&rec([1, 1, 1, 1], [2, 2, 0, 0], 1000, 80, 8, 800));
        d.add(&rec([1, 1, 1, 2], [2, 2, 0, 0], 1001, 22, 2, 200));
        let (port, share) = d.dominant_dst_port(TrafficType::Bytes).unwrap();
        assert_eq!(port, 80);
        assert!((share - 0.8).abs() < 1e-12);
        // By flows, both ports have one flow each -> share 0.5.
        let (_, share_f) = d.dominant_dst_port(TrafficType::Flows).unwrap();
        assert!((share_f - 0.5).abs() < 1e-12);
    }

    #[test]
    fn src_blocks_aggregate_at_slash24() {
        let mut d = AttributeDigest::new();
        d.add(&rec([10, 0, 0, 1], [2, 2, 0, 0], 1, 80, 1, 10));
        d.add(&rec([10, 0, 0, 200], [2, 2, 0, 0], 2, 80, 1, 10));
        d.add(&rec([10, 0, 1, 1], [2, 2, 0, 0], 3, 80, 1, 10));
        assert_eq!(d.distinct_src_blocks(), 2);
        let (block, share) = d.dominant_src_block(TrafficType::Flows).unwrap();
        assert_eq!(block.octets(), [10, 0, 0, 0]);
        assert!((share - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn scan_signature_packets_per_flow() {
        let mut d = AttributeDigest::new();
        // Probes: one packet per flow, distinct destinations.
        for i in 0..50u8 {
            d.add(&rec([7, 7, 7, 7], [2, 2, i, 0], 999, 139, 1, 40));
        }
        assert!((d.packets_per_flow() - 1.0).abs() < 1e-12);
        assert_eq!(d.distinct_dst_addrs(), 50);
        // No dominant (dst addr, port) combination.
        let (_, share) = d.dominant_dst_addr_port(TrafficType::Flows).unwrap();
        assert!(share <= 0.03);
    }

    #[test]
    fn src_blocks_for_share_concentration() {
        let mut d = AttributeDigest::new();
        // 90 flows from one block, 10 scattered across ten blocks.
        for i in 0..90u16 {
            d.add(&rec([9, 9, 9, (i % 250) as u8], [2, 2, 0, 0], 1000 + i, 80, 1, 10));
        }
        for i in 0..10u8 {
            d.add(&rec([30 + i, 1, 1, 1], [2, 2, 0, 0], 5000 + i as u16, 80, 1, 10));
        }
        assert_eq!(d.src_blocks_for_share(TrafficType::Flows, 0.8), 1);
        assert_eq!(d.distinct_src_blocks(), 11);
        assert!(d.src_blocks_for_share(TrafficType::Flows, 1.0) == 11);
        assert_eq!(AttributeDigest::new().src_blocks_for_share(TrafficType::Flows, 0.8), 0);
    }

    #[test]
    fn empty_digest_no_dominants() {
        let d = AttributeDigest::new();
        assert!(d.dominant_dst_port(TrafficType::Bytes).is_none());
        assert!(d.dominant_src_block(TrafficType::Flows).is_none());
        assert_eq!(d.packets_per_flow(), 0.0);
    }

    #[test]
    fn counts_get_by_type() {
        let c = Counts { bytes: 1.0, packets: 2.0, flows: 3.0 };
        assert_eq!(c.get(TrafficType::Bytes), 1.0);
        assert_eq!(c.get(TrafficType::Packets), 2.0);
        assert_eq!(c.get(TrafficType::Flows), 3.0);
    }
}
