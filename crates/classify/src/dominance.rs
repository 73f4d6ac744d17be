//! The dominant-attribute heuristic.
//!
//! "An address range or port is dominant in a particular OD flow and
//! timebin if it is unusually prevalent. We used a simple threshold test:
//! if the address range or port accounted for more than a fraction p of
//! the total traffic (defined over either of the three types) in the
//! timebin, it was considered dominant. We found that a value of p = 0.2
//! worked well." (§4)

use crate::error::{ClassifyError, Result};
use odflow_flow::{AttributeDigest, TrafficType};
use odflow_net::IpAddr;

/// The dominance threshold configuration.
#[derive(Debug, Clone, Copy)]
pub struct DominanceConfig {
    /// Fraction of total traffic an attribute must account for. The paper
    /// uses 0.2.
    pub threshold: f64,
}

impl Default for DominanceConfig {
    fn default() -> Self {
        DominanceConfig { threshold: 0.2 }
    }
}

impl DominanceConfig {
    /// Validates the threshold range.
    ///
    /// # Errors
    ///
    /// [`ClassifyError::InvalidParameter`] unless `0 < threshold <= 1`.
    pub fn validate(&self) -> Result<()> {
        if !(self.threshold > 0.0 && self.threshold <= 1.0) {
            return Err(ClassifyError::InvalidParameter {
                what: "dominance threshold",
                value: self.threshold,
            });
        }
        Ok(())
    }
}

/// The dominant attributes of an anomaly's flow population, evaluated in
/// one traffic measure. `None` fields mean "no value crossed the
/// threshold".
#[derive(Debug, Clone, PartialEq)]
pub struct DominantAttributes {
    /// The measure the shares were computed over.
    pub measure: TrafficType,
    /// Dominant source /24 block.
    pub src_block: Option<(IpAddr, f64)>,
    /// Dominant exact destination address.
    pub dst_addr: Option<(IpAddr, f64)>,
    /// Dominant source port.
    pub src_port: Option<(u16, f64)>,
    /// Dominant destination port.
    pub dst_port: Option<(u16, f64)>,
    /// Dominant (destination address, destination port) combination.
    pub dst_addr_port: Option<((IpAddr, u16), f64)>,
    /// Distinct destination addresses seen.
    pub distinct_dst_addrs: usize,
    /// Distinct source /24 blocks seen.
    pub distinct_src_blocks: usize,
    /// Minimum source /24 blocks covering 80% of the measure — robust to
    /// background pollution of the detection cells.
    pub src_blocks_for_80pct: usize,
    /// Mean packets per flow.
    pub packets_per_flow: f64,
}

impl DominantAttributes {
    /// Evaluates the digest under the given measure and threshold.
    ///
    /// # Errors
    ///
    /// [`ClassifyError::EmptyDigest`] when the digest holds no flows.
    pub fn evaluate(
        digest: &AttributeDigest,
        measure: TrafficType,
        config: DominanceConfig,
    ) -> Result<DominantAttributes> {
        config.validate()?;
        if digest.total.flows <= 0.0 {
            return Err(ClassifyError::EmptyDigest);
        }
        fn keep<T>(opt: Option<(T, f64)>, threshold: f64) -> Option<(T, f64)> {
            opt.filter(|&(_, share)| share >= threshold)
        }
        let p = config.threshold;
        Ok(DominantAttributes {
            measure,
            src_block: keep(digest.dominant_src_block(measure), p),
            dst_addr: keep(digest.dominant_dst_addr(measure), p),
            src_port: keep(digest.dominant_src_port(measure), p),
            dst_port: keep(digest.dominant_dst_port(measure), p),
            dst_addr_port: keep(digest.dominant_dst_addr_port(measure), p),
            distinct_dst_addrs: digest.distinct_dst_addrs(),
            distinct_src_blocks: digest.distinct_src_blocks(),
            src_blocks_for_80pct: digest.src_blocks_for_share(measure, 0.8),
            packets_per_flow: digest.packets_per_flow(),
        })
    }
}

/// Well-known service ports the flash-crowd heuristic accepts as plausible
/// legitimate-demand targets ("traffic ... directed to well known
/// destination ports (e.g. port 53 (dns) or 80 (web))", §4).
pub const WELL_KNOWN_SERVICE_PORTS: [u16; 8] = [80, 443, 53, 25, 110, 119, 21, 22];

/// `true` if `port` is a well-known service port.
pub fn is_well_known_service(port: u16) -> bool {
    WELL_KNOWN_SERVICE_PORTS.contains(&port)
}

#[cfg(test)]
mod tests {
    use super::*;
    use odflow_flow::{FlowKey, FlowRecord, Protocol};

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
    fn threshold_filters_weak_attributes() {
        let mut d = AttributeDigest::new();
        // 10 flows, each to a different port: max share 0.1 < 0.2.
        for i in 0..10u16 {
            d.add(&rec([1, 1, 1, i as u8], [2, 2, 0, 0], 1000 + i, 7000 + i, 1, 100));
        }
        let dom = DominantAttributes::evaluate(&d, TrafficType::Flows, DominanceConfig::default())
            .unwrap();
        assert!(dom.dst_port.is_none(), "weak ports must not be dominant");
        // But the single destination address is dominant.
        assert!(dom.dst_addr.is_some());
    }

    #[test]
    fn dominance_respects_measure() {
        let mut d = AttributeDigest::new();
        // Port 80: 1 flow with 99% of bytes. Port 7777: 9 flows, tiny bytes.
        d.add(&rec([1, 1, 1, 1], [2, 2, 0, 0], 1000, 80, 10, 99_000));
        for i in 0..9u16 {
            d.add(&rec([1, 1, 1, 2], [2, 2, 0, 0], 2000 + i, 7777, 1, 100));
        }
        let by_bytes =
            DominantAttributes::evaluate(&d, TrafficType::Bytes, DominanceConfig::default())
                .unwrap();
        assert_eq!(by_bytes.dst_port.unwrap().0, 80);
        let by_flows =
            DominantAttributes::evaluate(&d, TrafficType::Flows, DominanceConfig::default())
                .unwrap();
        assert_eq!(by_flows.dst_port.unwrap().0, 7777);
    }

    #[test]
    fn none_dominant_detection() {
        let mut d = AttributeDigest::new();
        // Fully spread traffic: 30 flows, all attributes distinct.
        for i in 0..30u8 {
            d.add(&rec(
                [i, 1, i, 1],
                [100 + (i % 100), 2, (i * 8) % 255, 0],
                1000 + i as u16 * 13,
                2000 + i as u16 * 17,
                2,
                500,
            ));
        }
        let dom = DominantAttributes::evaluate(&d, TrafficType::Flows, DominanceConfig::default())
            .unwrap();
        // Table 2's "No dominant attribute": the OUTAGE / INGRESS-SHIFT
        // signature.
        assert!(dom.src_block.is_none(), "{dom:?}");
        assert!(dom.dst_addr.is_none(), "{dom:?}");
        assert!(dom.src_port.is_none(), "{dom:?}");
        assert!(dom.dst_port.is_none(), "{dom:?}");
        assert!(dom.dst_addr_port.is_none(), "{dom:?}");
    }

    #[test]
    fn empty_digest_rejected() {
        let d = AttributeDigest::new();
        assert!(matches!(
            DominantAttributes::evaluate(&d, TrafficType::Flows, DominanceConfig::default()),
            Err(ClassifyError::EmptyDigest)
        ));
    }

    #[test]
    fn invalid_threshold_rejected() {
        let cfg = DominanceConfig { threshold: 0.0 };
        assert!(cfg.validate().is_err());
        let cfg = DominanceConfig { threshold: 1.5 };
        assert!(cfg.validate().is_err());
        let cfg = DominanceConfig { threshold: 0.2 };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn well_known_ports() {
        assert!(is_well_known_service(80));
        assert!(is_well_known_service(53));
        assert!(!is_well_known_service(1433));
        assert!(!is_well_known_service(0));
    }
}
