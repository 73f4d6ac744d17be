//! BGP-style egress resolution and the network address plan.
//!
//! The paper resolves each IP flow's **egress PoP** by looking up its
//! destination address in BGP and ISIS routing tables, augmented with
//! configuration files for customer addresses missing from BGP (§2.1). Using
//! this procedure the authors resolve "more than 93% of all IP flows
//! (accounting for more than 90% of the total byte traffic)".
//!
//! [`RouteTable`] reproduces this: a longest-prefix-match table mapping
//! destination prefixes to egress PoPs, deliberately *incomplete* so that a
//! realistic fraction of traffic fails resolution. It is the structure
//! routes are installed into; [`RouteTable::compile`] freezes it into
//! [`CompiledRoutes`], the per-record lookup form. [`AddressPlan`] is the
//! synthetic address layout that stands in for Abilene's real customer and
//! peer address space.

use crate::error::Result;
use crate::prefix::{IpAddr, Prefix, PrefixTrie};
use crate::topology::{PopId, Topology};

/// Where a route was learned from — mirrors the paper's two-source
/// resolution (BGP tables augmented with router configuration files).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteSource {
    /// Learned from BGP (peers and large customers).
    Bgp,
    /// Added from router configuration files (customer interfaces whose
    /// addresses do not appear in BGP).
    Config,
}

/// A single routing-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// Egress PoP for traffic matching the prefix.
    pub egress: PopId,
    /// Provenance of the entry.
    pub source: RouteSource,
}

/// Longest-prefix-match routing table mapping destination IPs to egress
/// PoPs.
#[derive(Debug, Clone)]
pub struct RouteTable {
    trie: PrefixTrie<RouteEntry>,
}

impl Default for RouteTable {
    fn default() -> Self {
        Self::new()
    }
}

impl RouteTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RouteTable { trie: PrefixTrie::new() }
    }

    /// Installs a route. Later insertions for the same prefix replace
    /// earlier ones (as a fresh daily table computation would).
    pub fn install(&mut self, prefix: Prefix, egress: PopId, source: RouteSource) {
        self.trie.insert(prefix, RouteEntry { egress, source });
    }

    /// Resolves the egress PoP for a destination address, or `None` when no
    /// prefix matches (the paper's unresolvable ~7%).
    pub fn egress(&self, dst: IpAddr) -> Option<PopId> {
        self.trie.lookup(dst).map(|e| e.egress)
    }

    /// Full entry lookup including provenance.
    pub fn lookup(&self, dst: IpAddr) -> Option<&RouteEntry> {
        self.trie.lookup(dst)
    }

    /// Number of installed prefixes.
    pub fn len(&self) -> usize {
        self.trie.len()
    }

    /// `true` when no routes are installed.
    pub fn is_empty(&self) -> bool {
        self.trie.is_empty()
    }

    /// Freezes the installed routes into the lookup form the per-record
    /// path resolves against. The result answers [`CompiledRoutes::egress`]
    /// exactly as [`Self::egress`] does at the moment of the call; routes
    /// installed afterwards are not seen.
    ///
    /// # Panics
    ///
    /// If an installed egress PoP id does not fit in 32 bits — PoP ids are
    /// indices into a [`Topology`], far below that.
    pub fn compile(&self) -> CompiledRoutes {
        let mut slots = vec![Slot::default(); STRIDE_SLOTS];
        // Pre-order: a covering prefix is written before the more specific
        // ones inside it, so within a node the longest match ends on top.
        for (prefix, entry) in self.trie.entries() {
            let egress = u32::try_from(entry.egress)
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
        CompiledRoutes { slots }
    }
}

/// Address bits one node of [`CompiledRoutes`] consumes.
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

/// A [`RouteTable`] frozen for lookup: a multibit trie of 8-bit strides,
/// so a destination resolves in at most four dependent loads where the
/// binary trie takes one per prefix bit. Built once by
/// [`RouteTable::compile`], immutable afterwards; provenance is dropped —
/// the record path only asks for the egress PoP.
#[derive(Debug, Clone)]
pub struct CompiledRoutes {
    /// Nodes of [`STRIDE_SLOTS`] slots each, root first.
    slots: Vec<Slot>,
}

impl CompiledRoutes {
    /// The egress PoP of the most specific installed prefix containing
    /// `dst`, or `None` when no prefix matches.
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

/// The synthetic address plan for the measured network.
///
/// Each PoP is assigned a block of customer /16 prefixes; a set of peer
/// prefixes (research networks reached through coastal PoPs) plus a pool of
/// *unannounced* prefixes models the address space that fails egress
/// resolution, reproducing the paper's ≈93% flow resolution rate.
#[derive(Debug, Clone)]
pub struct AddressPlan {
    /// Customer prefixes per PoP: `customer[p]` lists PoP p's /16 blocks.
    customer: Vec<Vec<Prefix>>,
    /// Peer prefixes with their egress PoP (e.g. European research nets via
    /// the East-coast PoPs).
    peers: Vec<(Prefix, PopId)>,
    /// Address space carried by the network but absent from every table —
    /// traffic to these destinations cannot be resolved to an egress.
    unannounced: Vec<Prefix>,
}

impl AddressPlan {
    /// Number of customer /16 blocks assigned to each PoP by
    /// [`AddressPlan::synthetic`].
    pub const BLOCKS_PER_POP: usize = 4;

    /// Builds the default synthetic plan for `topology`:
    ///
    /// * PoP `p` owns customer blocks `10.(16 p + j).0.0/16` for
    ///   `j = 0..4` — comfortably shorter than the 21-bit boundary, so the
    ///   paper's 11-bit destination anonymization cannot break resolution.
    /// * Two peer blocks per coastal PoP in `192.<pop>.0.0/16` space.
    /// * One unannounced `172.(16+p).0.0/16` block per PoP, representing
    ///   customer space missing from both BGP and the config files.
    pub fn synthetic(topology: &Topology) -> AddressPlan {
        let n = topology.num_pops();
        assert!(n <= 15, "synthetic plan supports at most 15 PoPs (10.x/16 blocks)");
        let mut customer = Vec::with_capacity(n);
        for p in 0..n {
            let mut blocks = Vec::with_capacity(Self::BLOCKS_PER_POP);
            for j in 0..Self::BLOCKS_PER_POP {
                let octet2 = (16 * p + j) as u8;
                blocks.push(
                    Prefix::new(IpAddr::from_octets(10, octet2, 0, 0), 16)
                        .expect("static prefix is valid"),
                );
            }
            customer.push(blocks);
        }

        // Peer networks: reachable via specific PoPs, mirroring Abilene's
        // peerings with research networks in Europe (via East coast) and
        // Asia (via West coast).
        let mut peers = Vec::new();
        for (code, second_octet) in [("NYCM", 1u8), ("WASH", 2), ("LOSA", 3), ("STTL", 4)] {
            if let Some(pop) = topology.pop_by_code(code) {
                peers.push((
                    Prefix::new(IpAddr::from_octets(192, second_octet, 0, 0), 16)
                        .expect("static prefix is valid"),
                    pop,
                ));
            }
        }

        let unannounced = (0..n)
            .map(|p| {
                Prefix::new(IpAddr::from_octets(172, 16 + p as u8, 0, 0), 16)
                    .expect("static prefix is valid")
            })
            .collect();

        AddressPlan { customer, peers, unannounced }
    }

    /// The address plan for hundreds-of-PoP meshes
    /// ([`crate::Topology::synthetic_mesh`]): the /16-per-block layout of
    /// [`Self::synthetic`] runs out of `10.x/16` space past 15 PoPs, so
    /// each PoP instead gets [`Self::BLOCKS_PER_POP`] customer **/21**
    /// blocks carved from `10.0.0.0/8` and one unannounced /21 from
    /// `172.16.0.0/12`. A /21 is the finest prefix the paper's 11-bit
    /// destination anonymization preserves, so resolution still works on
    /// anonymized records exactly as in the Abilene plan.
    ///
    /// Supports up to 512 PoPs (the unannounced /12 pool's /21 capacity);
    /// no peer prefixes — mesh PoPs are all interior.
    ///
    /// # Panics
    ///
    /// If the topology has more than 512 PoPs.
    pub fn synthetic_large(topology: &Topology) -> AddressPlan {
        let n = topology.num_pops();
        assert!(n <= 512, "large plan supports at most 512 PoPs (172.16/12 /21 blocks)");
        let customer = (0..n)
            .map(|p| {
                (0..Self::BLOCKS_PER_POP)
                    .map(|j| {
                        let g = (p * Self::BLOCKS_PER_POP + j) as u32;
                        Prefix::new(IpAddr(0x0A00_0000 | (g << 11)), 21)
                            .expect("static prefix is valid")
                    })
                    .collect()
            })
            .collect();
        let unannounced = (0..n)
            .map(|p| {
                Prefix::new(IpAddr(0xAC10_0000 | ((p as u32) << 11)), 21)
                    .expect("static prefix is valid")
            })
            .collect();
        AddressPlan { customer, peers: Vec::new(), unannounced }
    }

    /// Customer prefixes of a PoP.
    pub fn customer_prefixes(&self, pop: PopId) -> &[Prefix] {
        &self.customer[pop]
    }

    /// All peer prefixes with their egress PoPs.
    pub fn peer_prefixes(&self) -> &[(Prefix, PopId)] {
        &self.peers
    }

    /// Prefixes absent from every routing table.
    pub fn unannounced_prefixes(&self) -> &[Prefix] {
        &self.unannounced
    }

    /// Number of PoPs covered by the plan.
    pub fn num_pops(&self) -> usize {
        self.customer.len()
    }

    /// A representative address inside PoP `pop`'s `block`-th customer
    /// prefix with the given host suffix (wraps within the block).
    pub fn customer_addr(&self, pop: PopId, block: usize, host: u32) -> IpAddr {
        let p = self.customer[pop][block % self.customer[pop].len()];
        IpAddr(p.network().0 | (host & p.host_mask()))
    }

    /// A representative address inside the `i`-th unannounced block.
    pub fn unannounced_addr(&self, i: usize, host: u32) -> IpAddr {
        let p = self.unannounced[i % self.unannounced.len()];
        IpAddr(p.network().0 | (host & p.host_mask()))
    }

    /// Builds the routing table the measurement pipeline uses for egress
    /// resolution. `config_coverage` in `[0, 1]` controls what fraction of
    /// each PoP's customer blocks appear (first from BGP, then from config
    /// files); the remainder — plus all unannounced space — stays
    /// unresolvable. The paper's setup corresponds to full coverage of
    /// announced space (`1.0`) with ~7% of traffic addressed to unannounced
    /// space.
    pub fn build_route_table(&self, config_coverage: f64) -> Result<RouteTable> {
        let mut table = RouteTable::new();
        for (pop, blocks) in self.customer.iter().enumerate() {
            let covered =
                ((blocks.len() as f64) * config_coverage.clamp(0.0, 1.0)).round() as usize;
            for (j, &prefix) in blocks.iter().enumerate().take(covered) {
                // First block arrives via BGP, the rest via config files —
                // mirroring the paper's augmentation step.
                let source = if j == 0 { RouteSource::Bgp } else { RouteSource::Config };
                table.install(prefix, pop, source);
            }
        }
        for &(prefix, pop) in &self.peers {
            table.install(prefix, pop, RouteSource::Bgp);
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    fn plan() -> (Topology, AddressPlan) {
        let t = Topology::abilene();
        let p = AddressPlan::synthetic(&t);
        (t, p)
    }

    #[test]
    fn large_plan_resolves_under_anonymization() {
        use crate::anonymize::anonymize_dst;
        let t = Topology::synthetic_mesh(300).unwrap();
        let p = AddressPlan::synthetic_large(&t);
        assert_eq!(p.num_pops(), 300);
        let table = p.build_route_table(1.0).unwrap();
        for pop in [0usize, 7, 150, 299] {
            for block in 0..AddressPlan::BLOCKS_PER_POP {
                let dst = p.customer_addr(pop, block, 0x07FF); // all host bits set
                assert_eq!(table.egress(dst), Some(pop), "pop {pop} block {block}");
                // /21 blocks survive the 11-bit anonymization exactly.
                assert_eq!(table.egress(anonymize_dst(dst)), Some(pop));
            }
            assert_eq!(table.egress(p.unannounced_addr(pop, 0x123)), None);
        }
    }

    #[test]
    fn large_plan_blocks_are_disjoint() {
        let t = Topology::synthetic_mesh(64).unwrap();
        let p = AddressPlan::synthetic_large(&t);
        let mut seen = std::collections::HashSet::new();
        for pop in 0..64 {
            for pre in p.customer_prefixes(pop) {
                assert_eq!(pre.len(), 21);
                assert!(seen.insert(pre.network()), "duplicate customer block");
            }
        }
        for pre in p.unannounced_prefixes() {
            assert!(seen.insert(pre.network()), "unannounced overlaps customer space");
        }
        assert!(p.peer_prefixes().is_empty(), "mesh PoPs are interior-only");
    }

    #[test]
    fn plan_shape() {
        let (t, p) = plan();
        assert_eq!(p.num_pops(), t.num_pops());
        for pop in 0..t.num_pops() {
            assert_eq!(p.customer_prefixes(pop).len(), AddressPlan::BLOCKS_PER_POP);
        }
        assert_eq!(p.peer_prefixes().len(), 4);
        assert_eq!(p.unannounced_prefixes().len(), t.num_pops());
    }

    #[test]
    fn customer_blocks_disjoint_across_pops() {
        let (_, p) = plan();
        let mut seen = std::collections::HashSet::new();
        for pop in 0..p.num_pops() {
            for pre in p.customer_prefixes(pop) {
                assert!(seen.insert(pre.network().0), "duplicate block {pre}");
            }
        }
    }

    #[test]
    fn full_coverage_resolves_all_customers() {
        let (t, p) = plan();
        let table = p.build_route_table(1.0).unwrap();
        for pop in 0..t.num_pops() {
            for block in 0..AddressPlan::BLOCKS_PER_POP {
                let addr = p.customer_addr(pop, block, 0x1234);
                assert_eq!(table.egress(addr), Some(pop), "addr {addr} should egress at {pop}");
            }
        }
    }

    #[test]
    fn unannounced_space_unresolvable() {
        let (t, p) = plan();
        let table = p.build_route_table(1.0).unwrap();
        for i in 0..t.num_pops() {
            let addr = p.unannounced_addr(i, 42);
            assert_eq!(table.egress(addr), None, "unannounced {addr} must not resolve");
        }
    }

    #[test]
    fn partial_coverage_drops_blocks() {
        let (_, p) = plan();
        let table_half = p.build_route_table(0.5).unwrap();
        let table_full = p.build_route_table(1.0).unwrap();
        assert!(table_half.len() < table_full.len());
        // First block (BGP-learned) is always covered at 0.5.
        assert!(table_half.egress(p.customer_addr(0, 0, 1)).is_some());
        // Last block is not.
        assert!(table_half.egress(p.customer_addr(0, 3, 1)).is_none());
    }

    #[test]
    fn provenance_recorded() {
        let (_, p) = plan();
        let table = p.build_route_table(1.0).unwrap();
        let bgp = table.lookup(p.customer_addr(2, 0, 9)).unwrap();
        assert_eq!(bgp.source, RouteSource::Bgp);
        let cfg = table.lookup(p.customer_addr(2, 1, 9)).unwrap();
        assert_eq!(cfg.source, RouteSource::Config);
    }

    #[test]
    fn peers_resolve_to_coastal_pops() {
        let (t, p) = plan();
        let table = p.build_route_table(1.0).unwrap();
        let nycm = t.pop_by_code("NYCM").unwrap();
        let addr: IpAddr = "192.1.7.7".parse().unwrap();
        assert_eq!(table.egress(addr), Some(nycm));
    }

    #[test]
    fn empty_table_resolves_nothing() {
        let t = RouteTable::new();
        assert!(t.is_empty());
        assert_eq!(t.egress("10.0.0.1".parse().unwrap()), None);
    }

    #[test]
    fn compiled_routes_answer_as_the_table_does() {
        let mut t = RouteTable::new();
        assert_eq!(t.compile().egress("10.0.0.1".parse().unwrap()), None);
        // Lengths on and off the 8-bit stride, nested, installed longest
        // first so the order of installation cannot be what decides.
        for (text, pop) in [
            ("10.1.2.3/32", 6),
            ("10.1.2.0/23", 5),
            ("10.1.0.0/16", 4),
            ("10.0.0.0/9", 3),
            ("10.0.0.0/8", 2),
            ("0.0.0.0/0", 1),
        ] {
            t.install(text.parse().unwrap(), pop, RouteSource::Bgp);
        }
        t.install("10.1.0.0/16".parse().unwrap(), 7, RouteSource::Config);
        let compiled = t.compile();
        for (addr, pop) in [
            ("10.1.2.3", 6),
            ("10.1.2.4", 5),
            ("10.1.3.255", 5),
            ("10.1.4.0", 7),
            ("10.127.255.255", 3),
            ("10.128.0.0", 2),
            ("11.0.0.0", 1),
            ("255.255.255.255", 1),
        ] {
            let addr: IpAddr = addr.parse().unwrap();
            assert_eq!(compiled.egress(addr), Some(pop), "{addr}");
            assert_eq!(compiled.egress(addr), t.egress(addr), "{addr}");
        }
        // A route installed after compilation is not seen.
        t.install("11.0.0.0/8".parse().unwrap(), 9, RouteSource::Bgp);
        assert_eq!(compiled.egress("11.0.0.0".parse().unwrap()), Some(1));
    }

    #[test]
    fn route_replacement() {
        let mut t = RouteTable::new();
        let pre: Prefix = "10.0.0.0/16".parse().unwrap();
        t.install(pre, 3, RouteSource::Bgp);
        t.install(pre, 5, RouteSource::Config);
        assert_eq!(t.egress("10.0.1.1".parse().unwrap()), Some(5));
        assert_eq!(t.len(), 1);
    }
}
