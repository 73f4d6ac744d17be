//! IPv4 prefixes and longest-prefix-match lookup.
//!
//! Egress-PoP resolution in the paper (§2.1) walks BGP/ISIS routing tables:
//! given a destination IP, find the most specific matching prefix and read
//! off the egress PoP. [`RouteTable`] is the one table that answers this
//! query: a multibit trie of 8-bit strides, built once from its routes in
//! prefix-length order. The tests hold it against a linear scan over the
//! same routes.

use crate::error::{NetError, Result};
use crate::topology::PopId;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// An IPv4 address held as a host-order `u32`.
///
/// A minimal newtype (rather than `std::net::Ipv4Addr`) so the flow pipeline
/// can do arithmetic — masking, range generation, anonymization — without
/// repeated conversions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IpAddr(pub u32);

impl IpAddr {
    /// Builds an address from dotted-quad octets.
    pub const fn from_octets(a: u8, b: u8, c: u8, d: u8) -> IpAddr {
        IpAddr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// The four dotted-quad octets.
    pub const fn octets(self) -> [u8; 4] {
        [(self.0 >> 24) as u8, (self.0 >> 16) as u8, (self.0 >> 8) as u8, self.0 as u8]
    }
}

impl fmt::Display for IpAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl FromStr for IpAddr {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self> {
        let parts: Vec<&str> = s.split('.').collect();
        if parts.len() != 4 {
            return Err(NetError::InvalidPrefix { text: s.to_string() });
        }
        let mut octets = [0u8; 4];
        for (i, p) in parts.iter().enumerate() {
            octets[i] = p.parse().map_err(|_| NetError::InvalidPrefix { text: s.to_string() })?;
        }
        Ok(IpAddr::from_octets(octets[0], octets[1], octets[2], octets[3]))
    }
}

/// An IPv4 prefix: a network address plus mask length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix {
    network: u32,
    len: u8,
}

impl Prefix {
    /// Creates a prefix, canonicalizing the network by masking host bits.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidPrefixLen`] if `len > 32`.
    pub fn new(addr: IpAddr, len: u8) -> Result<Prefix> {
        if len > 32 {
            return Err(NetError::InvalidPrefixLen { len });
        }
        Ok(Prefix { network: addr.0 & Self::mask(len), len })
    }

    /// The netmask for a prefix length (host-order).
    const fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// Network address (host bits zero).
    pub fn network(&self) -> IpAddr {
        IpAddr(self.network)
    }

    /// Prefix length in bits.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Mask selecting the host bits of this prefix (the complement of the
    /// netmask) — e.g. `0x0000_FFFF` for a /16, `0x0000_07FF` for a /21.
    pub fn host_mask(&self) -> u32 {
        !Self::mask(self.len)
    }

    /// `true` only for the default route `0.0.0.0/0`.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` if `addr` falls inside this prefix.
    pub fn contains(&self, addr: IpAddr) -> bool {
        (addr.0 & Self::mask(self.len)) == self.network
    }

    /// First address of the prefix.
    pub fn first(&self) -> IpAddr {
        IpAddr(self.network)
    }

    /// Last address of the prefix.
    pub fn last(&self) -> IpAddr {
        IpAddr(self.network | !Self::mask(self.len))
    }

    /// Number of addresses covered (saturates at `u32::MAX` for `/0`).
    pub fn size(&self) -> u32 {
        if self.len == 0 {
            u32::MAX
        } else {
            1u32 << (32 - self.len as u32).min(31)
        }
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl FromStr for Prefix {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self> {
        let (addr, len) =
            s.split_once('/').ok_or_else(|| NetError::InvalidPrefix { text: s.to_string() })?;
        let ip: IpAddr = addr.parse()?;
        let len: u8 = len.parse().map_err(|_| NetError::InvalidPrefix { text: s.to_string() })?;
        Prefix::new(ip, len)
    }
}

/// Address bits one node of a [`RouteTable`] consumes.
const STRIDE_BITS: u32 = 8;
/// Slots per node: one per value of the stride's byte.
const STRIDE_SLOTS: usize = 1 << STRIDE_BITS;

/// The byte of `addr` that a node `depth` bits down indexes by.
fn stride_byte(addr: u32, depth: u32) -> usize {
    ((addr >> (32 - STRIDE_BITS - depth)) & 0xFF) as usize
}

/// One slot of a stride-8 node, 8 bytes: the best route among the
/// prefixes this node holds that cover the slot, and the node one stride
/// further down, each `0` when absent (node 0 is the root, never a child).
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Egress PoP id plus one.
    egress: u32,
    /// Index of the child node.
    child: u32,
}

/// Longest-prefix-match routing table mapping destination IPs to egress
/// PoPs: a multibit trie of 8-bit strides, so a destination resolves in at
/// most four dependent loads. Built once by [`RouteTable::from_routes`],
/// immutable afterwards: a clone shares the slots instead of copying them.
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// Nodes of [`STRIDE_SLOTS`] slots each, root first.
    slots: Arc<[Slot]>,
}

impl RouteTable {
    /// Builds the table from `(prefix, egress)` routes. The routes are
    /// written shortest prefix first (a stable sort by length), so a
    /// covering prefix never overwrites a more specific one, and of two
    /// routes for the same prefix the later one wins.
    ///
    /// # Panics
    ///
    /// If an egress PoP id does not fit in 32 bits — PoP ids are indices
    /// into a [`crate::Topology`], far below that.
    pub fn from_routes(routes: &[(Prefix, PopId)]) -> RouteTable {
        let mut by_len: Vec<&(Prefix, PopId)> = routes.iter().collect();
        by_len.sort_by_key(|(prefix, _)| prefix.len());
        let mut slots = vec![Slot::default(); STRIDE_SLOTS];
        for &&(prefix, pop) in &by_len {
            let egress = u32::try_from(pop)
                .ok()
                .and_then(|pop| pop.checked_add(1))
                .expect("PoP ids are topology indices and fit in 32 bits");
            let (addr, len) = (prefix.network().0, u32::from(prefix.len()));
            // Walk down through every whole stride the prefix is strictly
            // longer than, creating nodes on the way.
            let (mut node, mut depth) = (0usize, 0u32);
            while len > depth + STRIDE_BITS {
                let at = node + stride_byte(addr, depth);
                if slots[at].child == 0 {
                    slots[at].child = u32::try_from(slots.len() / STRIDE_SLOTS)
                        .expect("a table of 32-bit addresses has fewer than 2^32 nodes");
                    slots.resize(slots.len() + STRIDE_SLOTS, Slot::default());
                }
                node = slots[at].child as usize * STRIDE_SLOTS;
                depth += STRIDE_BITS;
            }
            // Controlled prefix expansion: the `len - depth` bits left fix
            // the top of this node's byte, the rest of the byte is free.
            let first = node + stride_byte(addr, depth);
            let span = 1usize << (depth + STRIDE_BITS - len);
            for slot in &mut slots[first..first + span] {
                slot.egress = egress;
            }
        }
        RouteTable { slots: slots.into() }
    }

    /// The egress PoP of the most specific prefix containing `dst`, or
    /// `None` when no prefix matches (the paper's unresolvable ~7%).
    pub fn egress(&self, dst: IpAddr) -> Option<PopId> {
        let (mut node, mut best) = (0usize, 0u32);
        for depth in [0, 8, 16, 24] {
            let slot = self.slots[node + stride_byte(dst.0, depth)];
            if slot.egress != 0 {
                best = slot.egress;
            }
            if slot.child == 0 {
                break;
            }
            node = slot.child as usize * STRIDE_SLOTS;
        }
        best.checked_sub(1).map(|pop| pop as PopId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ip_parse_display_roundtrip() {
        let ip: IpAddr = "192.168.1.42".parse().unwrap();
        assert_eq!(ip.octets(), [192, 168, 1, 42]);
        assert_eq!(ip.to_string(), "192.168.1.42");
        assert!("1.2.3".parse::<IpAddr>().is_err());
        assert!("1.2.3.256".parse::<IpAddr>().is_err());
        assert!("a.b.c.d".parse::<IpAddr>().is_err());
    }

    #[test]
    fn prefix_parse_and_canonicalize() {
        let p: Prefix = "10.1.2.3/16".parse().unwrap();
        assert_eq!(p.to_string(), "10.1.0.0/16"); // host bits masked
        assert_eq!(p.len(), 16);
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
        assert!("10.0.0.0".parse::<Prefix>().is_err());
        assert!("10.0.0.0/x".parse::<Prefix>().is_err());
    }

    #[test]
    fn prefix_contains() {
        let p: Prefix = "10.1.0.0/16".parse().unwrap();
        assert!(p.contains("10.1.255.255".parse().unwrap()));
        assert!(p.contains("10.1.0.0".parse().unwrap()));
        assert!(!p.contains("10.2.0.0".parse().unwrap()));
        let default: Prefix = "0.0.0.0/0".parse().unwrap();
        assert!(default.contains("255.255.255.255".parse().unwrap()));
        assert!(default.is_empty());
    }

    #[test]
    fn prefix_range_and_size() {
        let p: Prefix = "10.1.0.0/16".parse().unwrap();
        assert_eq!(p.first().to_string(), "10.1.0.0");
        assert_eq!(p.last().to_string(), "10.1.255.255");
        assert_eq!(p.size(), 65_536);
        let host: Prefix = "1.2.3.4/32".parse().unwrap();
        assert_eq!(host.size(), 1);
        assert_eq!(host.first(), host.last());
    }

    /// A table over `(text, egress)` routes.
    fn table(routes: &[(&str, PopId)]) -> RouteTable {
        let routes: Vec<(Prefix, PopId)> =
            routes.iter().map(|&(text, pop)| (text.parse().unwrap(), pop)).collect();
        RouteTable::from_routes(&routes)
    }

    #[test]
    fn trie_longest_prefix_match() {
        let t = table(&[("10.0.0.0/8", 1), ("10.1.0.0/16", 2), ("10.1.2.0/24", 3)]);
        assert_eq!(t.egress("10.1.2.3".parse().unwrap()), Some(3));
        assert_eq!(t.egress("10.1.9.9".parse().unwrap()), Some(2));
        assert_eq!(t.egress("10.200.0.1".parse().unwrap()), Some(1));
        assert_eq!(t.egress("11.0.0.1".parse().unwrap()), None);
    }

    #[test]
    fn trie_default_route() {
        let t = table(&[("0.0.0.0/0", 99), ("10.0.0.0/8", 1)]);
        assert_eq!(t.egress("10.5.5.5".parse().unwrap()), Some(1));
        assert_eq!(t.egress("200.0.0.1".parse().unwrap()), Some(99));
        assert_eq!(t.egress("255.255.255.255".parse().unwrap()), Some(99));
    }

    #[test]
    fn trie_host_routes() {
        let t = table(&[("1.2.3.4/32", 8)]);
        assert_eq!(t.egress("1.2.3.4".parse().unwrap()), Some(8));
        assert_eq!(t.egress("1.2.3.5".parse().unwrap()), None);
        assert_eq!(t.egress("1.2.3.3".parse().unwrap()), None);
    }
}
