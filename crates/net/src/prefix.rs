//! IPv4 prefixes and longest-prefix-match lookup.
//!
//! Egress-PoP resolution in the paper (§2.1) walks BGP/ISIS routing tables:
//! given a destination IP, find the most specific matching prefix and read
//! off the egress PoP. [`PrefixTrie`] implements the standard binary trie
//! used by routing software for exactly this query. It is the structure
//! routes are installed into, one dependent load per address bit; the
//! per-record path looks up in [`crate::CompiledRoutes`], compiled from it,
//! and the trie is what the tests hold that table against.

use crate::error::{NetError, Result};
use std::fmt;
use std::str::FromStr;

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

    /// `true` if `other` is fully contained in `self` (is more specific or
    /// equal).
    pub fn covers(&self, other: &Prefix) -> bool {
        other.len >= self.len && (other.network & Self::mask(self.len)) == self.network
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

/// A binary trie mapping prefixes to values, answering longest-prefix-match
/// queries — the core routing-table data structure.
#[derive(Debug, Clone)]
pub struct PrefixTrie<T> {
    nodes: Vec<TrieNode<T>>,
    len: usize,
}

#[derive(Debug, Clone)]
struct TrieNode<T> {
    children: [Option<usize>; 2],
    value: Option<T>,
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PrefixTrie<T> {
    /// Creates an empty trie.
    pub fn new() -> Self {
        PrefixTrie { nodes: vec![TrieNode { children: [None, None], value: None }], len: 0 }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts (or replaces) the value for a prefix. Returns the previous
    /// value when replacing.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let mut node = 0usize;
        for depth in 0..prefix.len() {
            let bit = ((prefix.network().0 >> (31 - depth)) & 1) as usize;
            node = match self.nodes[node].children[bit] {
                Some(child) => child,
                None => {
                    let idx = self.nodes.len();
                    self.nodes.push(TrieNode { children: [None, None], value: None });
                    self.nodes[node].children[bit] = Some(idx);
                    idx
                }
            };
        }
        let prev = self.nodes[node].value.replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Longest-prefix-match lookup: the value of the most specific prefix
    /// containing `addr`, if any.
    pub fn lookup(&self, addr: IpAddr) -> Option<&T> {
        let mut node = 0usize;
        let mut best = self.nodes[0].value.as_ref();
        for depth in 0..32 {
            let bit = ((addr.0 >> (31 - depth)) & 1) as usize;
            match self.nodes[node].children[bit] {
                Some(child) => {
                    node = child;
                    if let Some(v) = self.nodes[node].value.as_ref() {
                        best = Some(v);
                    }
                }
                None => break,
            }
        }
        best
    }

    /// Exact-match lookup for a specific prefix.
    pub fn get(&self, prefix: &Prefix) -> Option<&T> {
        let mut node = 0usize;
        for depth in 0..prefix.len() {
            let bit = ((prefix.network().0 >> (31 - depth)) & 1) as usize;
            node = self.nodes[node].children[bit]?;
        }
        self.nodes[node].value.as_ref()
    }

    /// Every stored prefix with its value, in trie pre-order: a prefix
    /// comes before every more specific prefix it covers, siblings in
    /// ascending address order. That is the order a compiler of the table
    /// needs — writing entries in sequence lets the longer prefix win.
    pub fn entries(&self) -> Vec<(Prefix, &T)> {
        let mut out = Vec::with_capacity(self.len);
        let mut stack = vec![(0usize, 0u32, 0u8)];
        while let Some((node, network, len)) = stack.pop() {
            if let Some(v) = self.nodes[node].value.as_ref() {
                out.push((Prefix { network, len }, v));
            }
            // The 1-branch is pushed first so the 0-branch pops first.
            for bit in [1u32, 0] {
                if let Some(child) = self.nodes[node].children[bit as usize] {
                    stack.push((child, network | (bit << (31 - len)), len + 1));
                }
            }
        }
        out
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
    fn prefix_covers() {
        let wide: Prefix = "10.0.0.0/8".parse().unwrap();
        let narrow: Prefix = "10.1.0.0/16".parse().unwrap();
        assert!(wide.covers(&narrow));
        assert!(!narrow.covers(&wide));
        assert!(wide.covers(&wide));
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

    #[test]
    fn trie_longest_prefix_match() {
        let mut t = PrefixTrie::new();
        t.insert("10.0.0.0/8".parse().unwrap(), "coarse");
        t.insert("10.1.0.0/16".parse().unwrap(), "fine");
        t.insert("10.1.2.0/24".parse().unwrap(), "finest");

        assert_eq!(t.lookup("10.1.2.3".parse().unwrap()), Some(&"finest"));
        assert_eq!(t.lookup("10.1.9.9".parse().unwrap()), Some(&"fine"));
        assert_eq!(t.lookup("10.200.0.1".parse().unwrap()), Some(&"coarse"));
        assert_eq!(t.lookup("11.0.0.1".parse().unwrap()), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn trie_default_route() {
        let mut t = PrefixTrie::new();
        t.insert("0.0.0.0/0".parse().unwrap(), 99);
        t.insert("10.0.0.0/8".parse().unwrap(), 1);
        assert_eq!(t.lookup("10.5.5.5".parse().unwrap()), Some(&1));
        assert_eq!(t.lookup("200.0.0.1".parse().unwrap()), Some(&99));
    }

    #[test]
    fn trie_replace_returns_previous() {
        let mut t = PrefixTrie::new();
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        assert_eq!(t.insert(p, 1), None);
        assert_eq!(t.insert(p, 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p), Some(&2));
    }

    #[test]
    fn trie_exact_get() {
        let mut t = PrefixTrie::new();
        t.insert("10.1.0.0/16".parse().unwrap(), 7);
        assert_eq!(t.get(&"10.1.0.0/16".parse().unwrap()), Some(&7));
        assert_eq!(t.get(&"10.0.0.0/8".parse().unwrap()), None);
        assert!(!t.is_empty());
        assert!(PrefixTrie::<u8>::new().is_empty());
    }

    #[test]
    fn entries_list_covering_prefixes_first() {
        let mut t = PrefixTrie::new();
        for (text, v) in
            [("10.1.2.0/24", 3), ("0.0.0.0/0", 0), ("10.1.0.0/16", 2), ("9.0.0.0/8", 1)]
        {
            t.insert(text.parse().unwrap(), v);
        }
        let listed: Vec<(String, i32)> =
            t.entries().into_iter().map(|(p, &v)| (p.to_string(), v)).collect();
        let expect = [("0.0.0.0/0", 0), ("9.0.0.0/8", 1), ("10.1.0.0/16", 2), ("10.1.2.0/24", 3)];
        assert_eq!(listed, expect.map(|(p, v)| (p.to_string(), v)));
        assert!(PrefixTrie::<u8>::new().entries().is_empty());
    }

    #[test]
    fn trie_host_routes() {
        let mut t = PrefixTrie::new();
        t.insert("1.2.3.4/32".parse().unwrap(), "host");
        assert_eq!(t.lookup("1.2.3.4".parse().unwrap()), Some(&"host"));
        assert_eq!(t.lookup("1.2.3.5".parse().unwrap()), None);
    }
}
