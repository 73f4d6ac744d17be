//! Property-based tests for prefix matching and routing.

use odflow_net::{
    AddressPlan, IngressResolver, Interface, InterfaceRole, IpAddr, PopId, Prefix, RouteTable,
    RouterConfig, Topology,
};
use proptest::prelude::*;

/// Reference longest-prefix-match by linear scan: the longest prefix
/// containing `addr`, and of the routes for it the last one listed
/// (`max_by_key` keeps the last maximum).
fn linear_lpm(routes: &[(Prefix, PopId)], addr: IpAddr) -> Option<PopId> {
    routes
        .iter()
        .filter(|(p, _)| p.contains(addr))
        .max_by_key(|(p, _)| p.len())
        .map(|&(_, pop)| pop)
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Prefix::new(IpAddr(addr), len).unwrap())
}

/// Routes drawn in pairs over one address, a prefix and a shorter one, so
/// nesting is the rule; the few distinct /0../2 and the repeated draws
/// route a prefix again with a different egress.
fn arb_nested_routes() -> impl Strategy<Value = Vec<(Prefix, PopId)>> {
    proptest::collection::vec((any::<u32>(), 0u8..=32, 0u8..=32, 0usize..300), 0..40).prop_map(
        |draws| {
            draws
                .into_iter()
                .flat_map(|(addr, len, shorter, pop)| {
                    [(len, pop), (shorter.min(len), pop + 1)]
                        .map(|(len, pop)| (Prefix::new(IpAddr(addr), len).unwrap(), pop))
                })
                .collect()
        },
    )
}

/// Reference trie, one address bit per level: a route sits at the node
/// its prefix's bits lead to, replacing any earlier route there, and a
/// lookup keeps the last route it passes on the way down.
struct BitTrie {
    /// Children for bit 0 and bit 1 (`0` when absent: node 0 is the root,
    /// never a child), and the route stored at the node.
    nodes: Vec<([usize; 2], Option<PopId>)>,
}

impl BitTrie {
    fn new(routes: &[(Prefix, PopId)]) -> BitTrie {
        let mut trie = BitTrie { nodes: vec![([0, 0], None)] };
        for &(prefix, pop) in routes {
            let mut node = 0;
            for depth in 0..u32::from(prefix.len()) {
                let bit = (prefix.network().0 >> (31 - depth) & 1) as usize;
                if trie.nodes[node].0[bit] == 0 {
                    trie.nodes.push(([0, 0], None));
                    trie.nodes[node].0[bit] = trie.nodes.len() - 1;
                }
                node = trie.nodes[node].0[bit];
            }
            trie.nodes[node].1 = Some(pop);
        }
        trie
    }

    fn lookup(&self, addr: IpAddr) -> Option<PopId> {
        let (mut node, mut best) = (0, self.nodes[0].1);
        for depth in 0..32 {
            node = self.nodes[node].0[(addr.0 >> (31 - depth) & 1) as usize];
            if node == 0 {
                break;
            }
            best = self.nodes[node].1.or(best);
        }
        best
    }
}

/// The addresses where a prefix's answer can change: its two ends and
/// the addresses just outside them.
fn boundaries(p: Prefix) -> [IpAddr; 4] {
    [p.first(), p.last(), IpAddr(p.first().0.wrapping_sub(1)), IpAddr(p.last().0.wrapping_add(1))]
}

/// The table's lookup against the linear scan over its routes, at
/// `probes` and at every boundary of `prefixes`.
fn check_against_linear_scan(
    table: &RouteTable,
    routes: &[(Prefix, PopId)],
    prefixes: &[Prefix],
    probes: &[u32],
) -> Result<(), TestCaseError> {
    let edges = prefixes.iter().flat_map(|&p| boundaries(p));
    for addr in probes.iter().map(|&a| IpAddr(a)).chain(edges) {
        prop_assert_eq!(table.egress(addr), linear_lpm(routes, addr), "at {}", addr);
    }
    Ok(())
}

fn arb_interface() -> impl Strategy<Value = Interface> {
    (0u32..6, 0usize..3).prop_map(|(index, role)| Interface {
        index,
        role: [InterfaceRole::Customer, InterfaceRole::Peer, InterfaceRole::Backbone][role],
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compiled_routes_match_the_trie(
        routes in arb_nested_routes(),
        probes in proptest::collection::vec(any::<u32>(), 0..40),
    ) {
        let compiled = RouteTable::from_routes(&routes);
        let trie = BitTrie::new(&routes);
        let edges = routes.iter().flat_map(|&(p, _)| boundaries(p));
        for addr in probes.iter().map(|&a| IpAddr(a)).chain(edges) {
            prop_assert_eq!(compiled.egress(addr), trie.lookup(addr), "at {}", addr);
        }
    }

    #[test]
    fn trie_matches_linear_scan(
        routes in proptest::collection::vec((arb_prefix(), 0usize..300), 0..40),
        probes in proptest::collection::vec(any::<u32>(), 0..40),
    ) {
        let prefixes: Vec<Prefix> = routes.iter().map(|&(p, _)| p).collect();
        let table = RouteTable::from_routes(&routes);
        check_against_linear_scan(&table, &routes, &prefixes, &probes)?;
    }

    #[test]
    fn route_order_does_not_decide(
        routes in arb_nested_routes(),
        probes in proptest::collection::vec(any::<u32>(), 0..40),
    ) {
        // One route per prefix, the last one drawn: reversing the list then
        // changes nothing the table may answer, so the length sort alone
        // must decide which route a covering prefix leaves on top.
        let mut distinct: Vec<(Prefix, PopId)> = Vec::new();
        for &(p, pop) in &routes {
            match distinct.iter_mut().find(|(q, _)| *q == p) {
                Some(slot) => slot.1 = pop,
                None => distinct.push((p, pop)),
            }
        }
        let prefixes: Vec<Prefix> = distinct.iter().map(|&(p, _)| p).collect();
        let forward = RouteTable::from_routes(&distinct);
        check_against_linear_scan(&forward, &distinct, &prefixes, &probes)?;
        distinct.reverse();
        let backward = RouteTable::from_routes(&distinct);
        let edges = prefixes.iter().flat_map(|&p| boundaries(p));
        for addr in probes.iter().map(|&a| IpAddr(a)).chain(edges) {
            prop_assert_eq!(backward.egress(addr), forward.egress(addr), "at {}", addr);
        }
    }

    #[test]
    fn trie_matches_linear_scan_on_the_address_plans(
        probes in proptest::collection::vec(any::<u32>(), 0..60),
        coverage in 0u32..=4,
        mesh in 12usize..80,
    ) {
        let coverage = f64::from(coverage) / 4.0;
        for plan in [
            AddressPlan::synthetic(&Topology::abilene()),
            AddressPlan::synthetic_large(&Topology::synthetic_mesh(mesh).unwrap()),
        ] {
            let table = plan.build_route_table(coverage).unwrap();
            // The routes the plan announces at this coverage, as
            // `build_route_table` documents them.
            let mut routes: Vec<(Prefix, PopId)> = Vec::new();
            for pop in 0..plan.num_pops() {
                let blocks = plan.customer_prefixes(pop);
                let covered = (blocks.len() as f64 * coverage).round() as usize;
                routes.extend(blocks[..covered].iter().map(|&p| (p, pop)));
            }
            routes.extend_from_slice(plan.peer_prefixes());
            let mut prefixes: Vec<Prefix> = plan.unannounced_prefixes().to_vec();
            prefixes.extend(plan.peer_prefixes().iter().map(|&(p, _)| p));
            for pop in 0..plan.num_pops() {
                prefixes.extend_from_slice(plan.customer_prefixes(pop));
            }
            check_against_linear_scan(&table, &routes, &prefixes, &probes)?;
        }
    }

    #[test]
    fn indexed_ingress_matches_the_linear_definition(
        routers in proptest::collection::vec(
            (0usize..11, proptest::collection::vec(arb_interface(), 0..6)),
            0..11,
        ),
    ) {
        // Configs in whatever PoP order they were drawn, the first config
        // of a PoP kept; interface indices repeat within a router, where
        // the first entry decides.
        let mut configs: Vec<RouterConfig> = Vec::new();
        for (pop, interfaces) in routers {
            if configs.iter().all(|c| c.pop != pop) {
                configs.push(RouterConfig { pop, interfaces });
            }
        }
        let resolver = IngressResolver::new(&Topology::abilene(), configs.clone()).unwrap();
        // PoPs 11..13 are unknown routers, interfaces 6..8 unknown ones.
        for router in 0..13 {
            for interface in 0..8 {
                let linear = configs
                    .iter()
                    .find(|c| c.pop == router)
                    .filter(|c| c.is_external(interface))
                    .map(|c| c.pop);
                prop_assert_eq!(resolver.ingress(router, interface), linear);
            }
        }
    }

    #[test]
    fn prefix_contains_its_range(p in arb_prefix(), offset in any::<u32>()) {
        let size_m1 = p.last().0.wrapping_sub(p.first().0);
        let inside = IpAddr(p.first().0.wrapping_add(if size_m1 == u32::MAX { offset } else { offset % (size_m1 + 1) }));
        prop_assert!(p.contains(inside), "{} should contain {}", p, inside);
    }

    #[test]
    fn prefix_parse_display_roundtrip(p in arb_prefix()) {
        let text = p.to_string();
        let parsed: Prefix = text.parse().unwrap();
        prop_assert_eq!(parsed, p);
    }

    #[test]
    fn anonymization_never_changes_egress_for_coarse_tables(
        host in any::<u32>(),
        pop in 0usize..11,
        block in 0usize..4,
    ) {
        // The synthetic plan uses /16s (coarser than /21), so 11-bit
        // anonymization must never change resolution.
        let t = Topology::abilene();
        let plan = odflow_net::AddressPlan::synthetic(&t);
        let table = plan.build_route_table(1.0).unwrap();
        let addr = plan.customer_addr(pop, block, host);
        let anon = odflow_net::anonymize_dst(addr);
        prop_assert_eq!(table.egress(addr), table.egress(anon));
    }
}
