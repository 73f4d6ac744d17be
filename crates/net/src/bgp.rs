//! BGP-style egress resolution and the network address plan.
//!
//! The paper resolves each IP flow's **egress PoP** by looking up its
//! destination address in BGP and ISIS routing tables, augmented with
//! configuration files for customer addresses missing from BGP (§2.1). Using
//! this procedure the authors resolve "more than 93% of all IP flows
//! (accounting for more than 90% of the total byte traffic)".
//!
//! [`AddressPlan`] is the synthetic address layout that stands in for
//! Abilene's real customer and peer address space, and
//! [`AddressPlan::build_route_table`] its routing state: the plan's
//! `(prefix, egress PoP)` routes, built once into the one
//! longest-prefix-match table, [`RouteTable`], in prefix-length order, and
//! checked against a linear scan over the same routes. The table is
//! deliberately *incomplete*, so that a realistic fraction of traffic
//! fails resolution.

use crate::error::Result;
use crate::prefix::{IpAddr, Prefix, RouteTable};
use crate::topology::{PopId, Topology};

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
    /// each PoP's customer blocks appear in the table (the first
    /// `round(coverage · blocks)` of them); the remainder — plus all
    /// unannounced space — stays unresolvable. Every peer prefix is routed.
    /// The paper's setup corresponds to full coverage of announced space
    /// (`1.0`) with ~7% of traffic addressed to unannounced space.
    pub fn build_route_table(&self, config_coverage: f64) -> Result<RouteTable> {
        let mut routes = Vec::new();
        for (pop, blocks) in self.customer.iter().enumerate() {
            let covered =
                ((blocks.len() as f64) * config_coverage.clamp(0.0, 1.0)).round() as usize;
            routes.extend(blocks.iter().take(covered).map(|&prefix| (prefix, pop)));
        }
        routes.extend_from_slice(&self.peers);
        Ok(RouteTable::from_routes(&routes))
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
        let (t, p) = plan();
        let resolved = |table: &RouteTable| {
            (0..t.num_pops())
                .flat_map(|pop| (0..AddressPlan::BLOCKS_PER_POP).map(move |b| (pop, b)))
                .filter(|&(pop, b)| table.egress(p.customer_addr(pop, b, 1)).is_some())
                .count()
        };
        let table_half = p.build_route_table(0.5).unwrap();
        let table_full = p.build_route_table(1.0).unwrap();
        assert!(resolved(&table_half) < resolved(&table_full));
        // The first block is always covered at 0.5.
        assert!(table_half.egress(p.customer_addr(0, 0, 1)).is_some());
        // Last block is not.
        assert!(table_half.egress(p.customer_addr(0, 3, 1)).is_none());
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
        let t = RouteTable::from_routes(&[]);
        assert_eq!(t.egress("10.0.0.1".parse().unwrap()), None);
        assert_eq!(t.egress("255.255.255.255".parse().unwrap()), None);
    }

    #[test]
    fn compiled_routes_answer_as_the_table_does() {
        // Lengths on and off the 8-bit stride, nested, listed longest
        // first so the order of the routes cannot be what decides; the /16
        // is routed again, and the later route wins.
        let routes: Vec<(Prefix, PopId)> = [
            ("10.1.2.3/32", 6),
            ("10.1.2.0/23", 5),
            ("10.1.0.0/16", 4),
            ("10.0.0.0/9", 3),
            ("10.0.0.0/8", 2),
            ("0.0.0.0/0", 1),
            ("10.1.0.0/16", 7),
        ]
        .iter()
        .map(|&(text, pop)| (text.parse().unwrap(), pop))
        .collect();
        let compiled = RouteTable::from_routes(&routes);
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
            // The route list read as a table: the longest prefix holding
            // `addr`, the last listed of equals.
            let table = routes
                .iter()
                .filter(|(p, _)| p.contains(addr))
                .max_by_key(|(p, _)| p.len())
                .map(|&(_, pop)| pop);
            assert_eq!(compiled.egress(addr), Some(pop), "{addr}");
            assert_eq!(compiled.egress(addr), table, "{addr}");
        }
    }

    #[test]
    fn route_replacement() {
        let pre: Prefix = "10.0.0.0/16".parse().unwrap();
        let t = RouteTable::from_routes(&[(pre, 3), (pre, 5)]);
        assert_eq!(t.egress("10.0.1.1".parse().unwrap()), Some(5));
    }
}
