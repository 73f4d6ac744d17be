//! The Table 2 rule engine — the paper's semi-automated classifier.
//!
//! "To aid our inspection, we developed a semi-automated procedure that
//! encoded common patterns found in the data, and output a tentative
//! classification for each anomaly" (§4). This module encodes exactly the
//! patterns of Table 2, evaluated over the dominant attributes of the
//! anomaly's flow population:
//!
//! | class | signature |
//! |---|---|
//! | ALPHA | spike in B/P/BP, single dominant src+dst pair, byte-heavy |
//! | DOS/DDOS | spike in P/F/FP, dominant dst IP, no dominant src |
//! | FLASH-CROWD | spike in F/FP, dominant dst IP *and* well-known dst port, clustered sources |
//! | SCAN | spike in F, packets ≈ flows, dominant src, no dominant (dst, port) |
//! | WORM | spike in F, dominant port only |
//! | POINT-MULTIPOINT | spike in P/B/BP, dominant src + well-known src port, many dsts |
//! | OUTAGE | decrease in BFP toward zero, multiple OD flows |
//! | INGRESS-SHIFT | decrease in one OD flow with a paired spike in another |
//!
//! The FLASH-vs-DOS disambiguation follows Jung, Krishnamurthy & Rabinovich
//! (the paper's reference \[10\]): spoofed DOS sources are structureless,
//! while real flash crowds come from topologically clustered hosts aiming
//! at well-known service ports.

use crate::dominance::{is_well_known_service, DominanceConfig, DominantAttributes};
use crate::error::Result;
use crate::taxonomy::AnomalyClass;
use odflow_flow::{AttributeDigest, TrafficType};
use odflow_subspace::TypeSet;

/// Everything the classifier may inspect about one detected anomaly.
#[derive(Debug, Clone)]
pub struct AnomalyObservation {
    /// Traffic-type combination the anomaly was detected in.
    pub types: TypeSet,
    /// Number of consecutive 5-minute bins spanned.
    pub duration_bins: usize,
    /// Number of OD flows implicated.
    pub num_od_flows: usize,
    /// Whether the implicated OD flows span more than one origin PoP.
    pub multi_origin: bool,
    /// Ratio of traffic volume during the anomaly to the local baseline
    /// for the implicated flows (in the anomaly's strongest measure):
    /// `> 1` spike, `< 1` dip, `≈ 1` nothing visible.
    pub volume_ratio: f64,
    /// For dips: whether a matching spike appeared simultaneously on
    /// another OD flow sharing the destination (the ingress-shift
    /// signature the paper verified for CALREN's LOSA → SNVA move).
    pub counterpart_spike: bool,
    /// Merged attribute digest of the anomaly's `(bin, OD)` cells.
    pub digest: AttributeDigest,
}

/// The rule engine's one tunable threshold.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleConfig {
    /// Dominance threshold (the paper's `p = 0.2`).
    pub dominance: DominanceConfig,
}

/// |volume_ratio - 1| at or below this is "no visible change" →
/// FALSE-ALARM.
const FALSE_ALARM_BAND: f64 = 0.25;

/// volume_ratio below this counts as a dip (OUTAGE / INGRESS-SHIFT).
const DIP_RATIO: f64 = 0.6;

/// Mean bytes/packet at or above this is "byte-heavy" (POINT-MULTIPOINT).
const HEAVY_BYTES_PER_PACKET: f64 = 900.0;

/// Mean packets/flow at or above this marks a high-rate point-to-point
/// transfer (ALPHA) — a single 5-tuple carrying thousands of packets
/// dwarfs the per-flow rate of any flood or crowd. Transfers carry >>1
/// packet per flow even after the detection cells mix in background
/// flows; floods sit near 2 because the flood's own flows dominate the
/// denominator. 5 separates the regimes with margin on both sides (a
/// dominant-source test keeps packet-dense floods out regardless).
const ALPHA_PACKETS_PER_FLOW: f64 = 5.0;

/// Packets/flow at or below this looks like probing (SCAN).
const PROBE_PACKETS_PER_FLOW: f64 = 1.5;

/// Source /24 blocks at or below this count as "topologically clustered"
/// (flash crowd).
const CLUSTERED_SRC_BLOCKS: usize = 8;

/// A classification with the evidence that produced it.
#[derive(Debug, Clone)]
pub struct Classification {
    /// Assigned class.
    pub class: AnomalyClass,
    /// Human-readable reasons (one per satisfied signature element).
    pub evidence: Vec<String>,
}

/// Classifies one anomaly observation with the Table 2 rules.
///
/// # Errors
///
/// Propagates dominance-evaluation errors ([`crate::ClassifyError`]) for
/// empty digests with a visible spike; dips may legitimately have empty
/// digests (traffic vanished) and are classified from shape alone.
pub fn classify(obs: &AnomalyObservation, config: &RuleConfig) -> Result<Classification> {
    let mut evidence = Vec::new();

    // FALSE-ALARM: no distinctly unusual volume change.
    if (obs.volume_ratio - 1.0).abs() <= FALSE_ALARM_BAND {
        evidence.push(format!(
            "volume ratio {:.2} within ±{FALSE_ALARM_BAND:.2} of baseline",
            obs.volume_ratio
        ));
        return Ok(Classification { class: AnomalyClass::FalseAlarm, evidence });
    }

    // Dips: OUTAGE vs INGRESS-SHIFT, decided by the counterpart spike.
    if obs.volume_ratio < DIP_RATIO {
        evidence.push(format!("traffic dip to {:.0}% of baseline", obs.volume_ratio * 100.0));
        if obs.counterpart_spike {
            evidence.push("matching spike on another OD flow (traffic moved)".into());
            return Ok(Classification { class: AnomalyClass::IngressShift, evidence });
        }
        evidence.push(format!("{} OD flows affected, no counterpart spike", obs.num_od_flows));
        return Ok(Classification { class: AnomalyClass::Outage, evidence });
    }

    // Spikes: inspect dominant attributes. Choose the measure by the
    // anomaly's type combination: flow-dense classes by flows, byte/packet
    // classes by their strongest measure.
    let measure = if obs.types.contains(TrafficType::Flows) {
        TrafficType::Flows
    } else if obs.types.contains(TrafficType::Packets) {
        TrafficType::Packets
    } else {
        TrafficType::Bytes
    };
    let dom = DominantAttributes::evaluate(&obs.digest, measure, config.dominance)?;
    let bytes_per_packet = if obs.digest.total.packets > 0.0 {
        obs.digest.total.bytes / obs.digest.total.packets
    } else {
        0.0
    };

    // ALPHA: one dominant source AND one dominant destination moving a
    // high-rate point-to-point transfer (B/P/BP spike, never F — a single
    // 5-tuple adds no flows). The per-flow packet rate separates it from
    // floods and crowds: one transfer 5-tuple carries thousands of
    // packets, while DOS/FLASH flows carry a handful each.
    if !obs.types.contains(TrafficType::Flows)
        && obs.digest.packets_per_flow() >= ALPHA_PACKETS_PER_FLOW
    {
        let dom_p =
            DominantAttributes::evaluate(&obs.digest, TrafficType::Packets, config.dominance)?;
        if let (Some((src, ss)), Some((dst, ds))) = (dom_p.src_block, dom_p.dst_addr) {
            evidence.push(format!(
                "dominant pair {src}({ss:.0}%) -> {dst}({ds:.0}%), {ppf:.0} pkts/flow, {bytes_per_packet:.0} B/pkt",
                ss = ss * 100.0,
                ds = ds * 100.0,
                ppf = obs.digest.packets_per_flow()
            ));
            return Ok(Classification { class: AnomalyClass::Alpha, evidence });
        }
    }

    // SCAN: probing — one packet per flow from a dominant source, no
    // dominant (destination, port) combination. Checked before
    // POINT-MULTIPOINT: the probe signature is the more specific one.
    if dom.packets_per_flow <= PROBE_PACKETS_PER_FLOW
        && dom.src_block.is_some()
        && dom.dst_addr_port.is_none()
    {
        evidence.push(format!(
            "{:.1} packets/flow from dominant source, targets spread",
            dom.packets_per_flow
        ));
        return Ok(Classification { class: AnomalyClass::Scan, evidence });
    }

    // POINT-MULTIPOINT: dominant source on a well-known *source* port
    // spraying many destinations with sustained (multi-packet) transfers,
    // byte/packet heavy.
    if bytes_per_packet >= HEAVY_BYTES_PER_PACKET {
        let dom_p =
            DominantAttributes::evaluate(&obs.digest, TrafficType::Packets, config.dominance)?;
        if let (Some((src, _)), Some((port, _))) = (dom_p.src_block, dom_p.src_port) {
            if is_well_known_service(port)
                && dom_p.dst_addr.is_none()
                && dom_p.distinct_dst_addrs >= 10
                && dom_p.packets_per_flow > 3.0
            {
                evidence.push(format!(
                    "server {src} on service port {port} to {} destinations",
                    dom_p.distinct_dst_addrs
                ));
                return Ok(Classification { class: AnomalyClass::PointMultipoint, evidence });
            }
        }
    }

    // WORM: dominant destination port only; neither endpoint dominates.
    if let Some((port, share)) = dom.dst_port {
        if dom.dst_addr.is_none() && dom.src_block.is_none() && !is_well_known_service(port) {
            evidence.push(format!(
                "service port {port} carries {:.0}% of flows; no dominant endpoints",
                share * 100.0
            ));
            return Ok(Classification { class: AnomalyClass::Worm, evidence });
        }
    }

    // DOS / DDOS vs FLASH-CROWD: all feature a dominant destination. The
    // Jung et al. disambiguation uses source *concentration*: clustered
    // legitimate clients cover most traffic from a handful of /24 blocks
    // (pollution-robust share measure), spoofed floods need hundreds.
    if let Some((dst, share)) = dom.dst_addr {
        let clustered =
            dom.src_blocks_for_80pct > 0 && dom.src_blocks_for_80pct <= CLUSTERED_SRC_BLOCKS;
        let service_port = dom.dst_port.is_some_and(|(p, _)| is_well_known_service(p));
        if clustered && service_port {
            evidence.push(format!(
                "victim {dst} ({:.0}%) on service port, 80% of traffic from {} source blocks",
                share * 100.0,
                dom.src_blocks_for_80pct
            ));
            return Ok(Classification { class: AnomalyClass::FlashCrowd, evidence });
        }
        if !clustered {
            // Structureless (spoofed) sources: denial of service.
            evidence.push(format!(
                "victim {dst} ({:.0}%), spoofed sources ({} blocks for 80%)",
                share * 100.0,
                dom.src_blocks_for_80pct
            ));
            let class = if obs.multi_origin { AnomalyClass::Ddos } else { AnomalyClass::Dos };
            return Ok(Classification { class, evidence });
        }
    }

    evidence.push("no Table 2 signature matched".into());
    Ok(Classification { class: AnomalyClass::Unknown, evidence })
}

#[cfg(test)]
mod tests {
    use super::*;
    use odflow_flow::{FlowKey, FlowRecord, Protocol};
    use odflow_net::IpAddr;

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

    fn types(codes: &[TrafficType]) -> TypeSet {
        let mut s = TypeSet::empty();
        for &c in codes {
            s.insert(c);
        }
        s
    }

    fn obs(digest: AttributeDigest, t: TypeSet, ratio: f64) -> AnomalyObservation {
        AnomalyObservation {
            types: t,
            duration_bins: 1,
            num_od_flows: 1,
            multi_origin: false,
            volume_ratio: ratio,
            counterpart_spike: false,
            digest,
        }
    }

    #[test]
    fn classifies_alpha() {
        let mut d = AttributeDigest::new();
        // Single pair, MTU packets.
        for m in 0..5 {
            d.add(&rec([10, 0, 0, 9], [10, 80, 0, 0], 5001, 5001, 600, 600 * 1500 + m));
        }
        let o = obs(d, types(&[TrafficType::Bytes, TrafficType::Packets]), 8.0);
        let c = classify(&o, &RuleConfig::default()).unwrap();
        assert_eq!(c.class, AnomalyClass::Alpha, "evidence: {:?}", c.evidence);
    }

    #[test]
    fn classifies_dos_spoofed() {
        let mut d = AttributeDigest::new();
        // Spoofed sources (spread blocks), one victim, port 0, 40B packets.
        for i in 0..400u32 {
            let b = (i.wrapping_mul(2654435761)).to_be_bytes();
            d.add(&rec([b[0], b[1], b[2], b[3]], [10, 80, 0, 7], 1024 + i as u16, 0, 2, 80));
        }
        let o = obs(d, types(&[TrafficType::Packets, TrafficType::Flows]), 5.0);
        let c = classify(&o, &RuleConfig::default()).unwrap();
        assert_eq!(c.class, AnomalyClass::Dos, "evidence: {:?}", c.evidence);
    }

    #[test]
    fn classifies_ddos_when_multi_origin() {
        let mut d = AttributeDigest::new();
        for i in 0..400u32 {
            let b = (i.wrapping_mul(2246822519)).to_be_bytes();
            d.add(&rec([b[0], b[1], b[2], b[3]], [10, 80, 0, 7], 1024 + i as u16, 113, 1, 40));
        }
        let mut o = obs(d, types(&[TrafficType::Packets, TrafficType::Flows]), 6.0);
        o.multi_origin = true;
        o.num_od_flows = 3;
        let c = classify(&o, &RuleConfig::default()).unwrap();
        assert_eq!(c.class, AnomalyClass::Ddos);
    }

    #[test]
    fn classifies_flash_crowd() {
        let mut d = AttributeDigest::new();
        // Clustered clients (3 blocks) hitting one server on port 80,
        // several packets per flow.
        for i in 0..300u32 {
            let block = [10, 1, (i % 3) as u8, (1 + i % 250) as u8];
            d.add(&rec(block, [10, 80, 0, 9], 2000 + i as u16, 80, 6, 4200));
        }
        let o = obs(d, types(&[TrafficType::Flows, TrafficType::Packets]), 4.0);
        let c = classify(&o, &RuleConfig::default()).unwrap();
        assert_eq!(c.class, AnomalyClass::FlashCrowd, "evidence: {:?}", c.evidence);
    }

    #[test]
    fn classifies_network_scan() {
        let mut d = AttributeDigest::new();
        // One scanner sweeping addresses on port 139, one packet per flow.
        for i in 0..500u32 {
            d.add(&rec(
                [10, 5, 5, 5],
                [10, 80, (i / 250) as u8, (i % 250) as u8],
                3000 + (i % 60000) as u16,
                139,
                1,
                40,
            ));
        }
        let o = obs(d, types(&[TrafficType::Flows]), 3.0);
        let c = classify(&o, &RuleConfig::default()).unwrap();
        assert_eq!(c.class, AnomalyClass::Scan, "evidence: {:?}", c.evidence);
    }

    #[test]
    fn classifies_worm() {
        let mut d = AttributeDigest::new();
        // Many sources, many destinations, all on 1433.
        for i in 0..400u32 {
            let s = (i.wrapping_mul(2654435761)).to_be_bytes();
            let t = (i.wrapping_mul(40503).wrapping_add(7)).to_be_bytes();
            d.add(&rec([s[0], s[1], s[2], s[3]], [t[0], t[1], t[2], t[3]], 4000, 1433, 2, 808));
        }
        let o = obs(d, types(&[TrafficType::Flows]), 3.5);
        let c = classify(&o, &RuleConfig::default()).unwrap();
        assert_eq!(c.class, AnomalyClass::Worm, "evidence: {:?}", c.evidence);
    }

    #[test]
    fn classifies_point_multipoint() {
        let mut d = AttributeDigest::new();
        // One news server (port 119 source) to 60 receivers, 1000B packets.
        for i in 0..60u32 {
            d.add(&rec(
                [10, 2, 2, 2],
                [10, 80, (i % 8) as u8, (i % 250) as u8],
                119,
                5000 + i as u16,
                100,
                100_000,
            ));
        }
        let o = obs(d, types(&[TrafficType::Packets, TrafficType::Bytes]), 5.0);
        let c = classify(&o, &RuleConfig::default()).unwrap();
        assert_eq!(c.class, AnomalyClass::PointMultipoint, "evidence: {:?}", c.evidence);
    }

    #[test]
    fn classifies_outage_and_ingress_shift() {
        let d = AttributeDigest::new(); // traffic vanished: empty digest OK
        let mut o =
            obs(d, types(&[TrafficType::Bytes, TrafficType::Flows, TrafficType::Packets]), 0.05);
        o.num_od_flows = 6;
        let c = classify(&o, &RuleConfig::default()).unwrap();
        assert_eq!(c.class, AnomalyClass::Outage);

        o.counterpart_spike = true;
        let c = classify(&o, &RuleConfig::default()).unwrap();
        assert_eq!(c.class, AnomalyClass::IngressShift);
    }

    #[test]
    fn classifies_false_alarm() {
        let mut d = AttributeDigest::new();
        d.add(&rec([1, 1, 1, 1], [2, 2, 2, 2], 1, 80, 1, 100));
        let o = obs(d, types(&[TrafficType::Bytes]), 1.05);
        let c = classify(&o, &RuleConfig::default()).unwrap();
        assert_eq!(c.class, AnomalyClass::FalseAlarm);
    }

    #[test]
    fn unmatched_signature_is_unknown() {
        let mut d = AttributeDigest::new();
        // Diffuse spike: no dominant anything, several packets per flow
        // (not a scan), low bytes/packet (not alpha).
        for i in 0..200u32 {
            let s = (i.wrapping_mul(2654435761)).to_be_bytes();
            let t = (i.wrapping_mul(2246822519).wrapping_add(3)).to_be_bytes();
            d.add(&rec(
                [s[0], s[1], s[2], s[3]],
                [t[0], t[1], t[2], t[3]],
                1000 + (i * 7 % 50_000) as u16,
                1000 + (i * 13 % 50_000) as u16,
                5,
                2000,
            ));
        }
        let o = obs(d, types(&[TrafficType::Flows]), 3.0);
        let c = classify(&o, &RuleConfig::default()).unwrap();
        assert_eq!(c.class, AnomalyClass::Unknown, "evidence: {:?}", c.evidence);
    }

    #[test]
    fn evidence_is_populated() {
        let mut d = AttributeDigest::new();
        d.add(&rec([10, 0, 0, 9], [10, 80, 0, 0], 5001, 5001, 600, 900_000));
        let o = obs(d, types(&[TrafficType::Bytes]), 8.0);
        let c = classify(&o, &RuleConfig::default()).unwrap();
        assert!(!c.evidence.is_empty());
    }
}
