//! The 5-tuple flow key.
//!
//! "Sampled packets are then aggregated at the 5-tuple IP-flow level (IP
//! address and port number for both source and destination, along with
//! protocol type), every minute" (§2.1). [`FlowKey`] is that tuple;
//! [`Protocol`] carries the transport protocol number with named variants
//! for the protocols the anomaly taxonomy cares about.

use odflow_net::IpAddr;

/// Transport protocol, stored as its IANA protocol number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// ICMP (1).
    Icmp,
    /// Any other protocol number.
    Other(u8),
}

impl Protocol {
    /// The IANA protocol number.
    pub fn number(self) -> u8 {
        match self {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Icmp => 1,
            Protocol::Other(n) => n,
        }
    }

    /// Builds from an IANA protocol number, canonicalizing the named
    /// variants (so `Protocol::from_number(6) == Protocol::Tcp`).
    pub fn from_number(n: u8) -> Protocol {
        match n {
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            1 => Protocol::Icmp,
            other => Protocol::Other(other),
        }
    }
}

/// The 5-tuple identifying an IP flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Source IP address.
    pub src_ip: IpAddr,
    /// Destination IP address.
    pub dst_ip: IpAddr,
    /// Source transport port (0 for portless protocols).
    pub src_port: u16,
    /// Destination transport port (0 for portless protocols).
    pub dst_port: u16,
    /// Transport protocol.
    pub protocol: Protocol,
}

impl FlowKey {
    /// Convenience constructor.
    pub fn new(
        src_ip: IpAddr,
        dst_ip: IpAddr,
        src_port: u16,
        dst_port: u16,
        protocol: Protocol,
    ) -> FlowKey {
        FlowKey { src_ip, dst_ip, src_port, dst_port, protocol }
    }

    /// Returns the key with the destination address anonymized (low 11 bits
    /// zeroed), as Abilene's export pipeline does before flows leave the
    /// network.
    pub fn with_anonymized_dst(mut self) -> FlowKey {
        self.dst_ip = odflow_net::anonymize_dst(self.dst_ip);
        self
    }
}

impl std::fmt::Display for FlowKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} proto={}",
            self.src_ip,
            self.src_port,
            self.dst_ip,
            self.dst_port,
            self.protocol.number()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn protocol_number_roundtrip() {
        for n in 0..=255u8 {
            assert_eq!(Protocol::from_number(n).number(), n);
        }
        assert_eq!(Protocol::from_number(6), Protocol::Tcp);
        assert_eq!(Protocol::from_number(17), Protocol::Udp);
        assert_eq!(Protocol::from_number(1), Protocol::Icmp);
        assert_eq!(Protocol::from_number(47), Protocol::Other(47));
    }

    #[test]
    #[expect(clippy::disallowed_types, reason = "the test checks `FlowKey`'s `Hash` itself")]
    fn key_equality_and_hash() {
        use std::collections::HashSet;
        let a = FlowKey::new(ip("1.2.3.4"), ip("5.6.7.8"), 1234, 80, Protocol::Tcp);
        let b = FlowKey::new(ip("1.2.3.4"), ip("5.6.7.8"), 1234, 80, Protocol::Tcp);
        let c = FlowKey::new(ip("1.2.3.4"), ip("5.6.7.8"), 1234, 443, Protocol::Tcp);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let set: HashSet<FlowKey> = [a, b, c].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn anonymization_zeroes_low_dst_bits() {
        let k = FlowKey::new(ip("1.2.3.4"), ip("10.1.7.213"), 1, 2, Protocol::Udp);
        let anon = k.with_anonymized_dst();
        assert_eq!(anon.dst_ip.octets(), [10, 1, 0, 0]);
        assert_eq!(anon.src_ip, k.src_ip, "source must be untouched");
        assert_eq!(anon.dst_port, 2, "ports must be untouched");
    }

    #[test]
    fn display_contains_endpoints() {
        let k = FlowKey::new(ip("1.2.3.4"), ip("5.6.7.8"), 1234, 80, Protocol::Tcp);
        let s = k.to_string();
        assert!(s.contains("1.2.3.4:1234"));
        assert!(s.contains("5.6.7.8:80"));
        assert!(s.contains("proto=6"));
    }
}
