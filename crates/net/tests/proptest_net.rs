//! Property-based tests for prefix matching and routing.

use odflow_net::{
    AddressPlan, IngressResolver, Interface, InterfaceRole, IpAddr, Prefix, PrefixTrie,
    RouteSource, RouteTable, RouterConfig, Topology,
};
use proptest::prelude::*;

/// Reference longest-prefix-match by linear scan.
fn linear_lpm(entries: &[(Prefix, u32)], addr: IpAddr) -> Option<u32> {
    entries.iter().filter(|(p, _)| p.contains(addr)).max_by_key(|(p, _)| p.len()).map(|&(_, v)| v)
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Prefix::new(IpAddr(addr), len).unwrap())
}

/// The addresses where a prefix's answer can change: its two ends and
/// the addresses just outside them.
fn boundaries(p: Prefix) -> [IpAddr; 4] {
    [p.first(), p.last(), IpAddr(p.first().0.wrapping_sub(1)), IpAddr(p.last().0.wrapping_add(1))]
}

/// Compiled lookup against the trie it was compiled from, at `probes`
/// and at every boundary of `prefixes`.
fn check_compiled(
    table: &RouteTable,
    prefixes: &[Prefix],
    probes: &[u32],
) -> Result<(), TestCaseError> {
    let compiled = table.compile();
    let edges = prefixes.iter().flat_map(|&p| boundaries(p));
    for addr in probes.iter().map(|&a| IpAddr(a)).chain(edges) {
        prop_assert_eq!(compiled.egress(addr), table.egress(addr), "at {}", addr);
    }
    Ok(())
}

fn arb_interface() -> impl Strategy<Value = Interface> {
    (0u32..6, 0usize..3).prop_map(|(index, role)| Interface {
        index,
        role: [InterfaceRole::Customer, InterfaceRole::Peer, InterfaceRole::Backbone][role],
        description: String::new(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compiled_routes_match_the_trie(
        // Each draw installs a prefix and a shorter one over the same
        // address, so nesting is the rule; the few distinct /0../2 and the
        // repeated draws re-install prefixes with a different egress.
        installs in proptest::collection::vec((any::<u32>(), 0u8..=32, 0u8..=32, 0usize..300), 0..40),
        probes in proptest::collection::vec(any::<u32>(), 0..40),
    ) {
        let mut table = RouteTable::new();
        let mut prefixes = Vec::new();
        for &(addr, len, shorter, pop) in &installs {
            for (len, pop) in [(len, pop), (shorter.min(len), pop + 1)] {
                let prefix = Prefix::new(IpAddr(addr), len).unwrap();
                table.install(prefix, pop, RouteSource::Bgp);
                prefixes.push(prefix);
            }
        }
        check_compiled(&table, &prefixes, &probes)?;
    }

    #[test]
    fn compiled_routes_match_the_trie_on_the_address_plans(
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
            let mut prefixes: Vec<Prefix> = plan.unannounced_prefixes().to_vec();
            prefixes.extend(plan.peer_prefixes().iter().map(|&(p, _)| p));
            for pop in 0..plan.num_pops() {
                prefixes.extend_from_slice(plan.customer_prefixes(pop));
            }
            check_compiled(&table, &prefixes, &probes)?;
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
    fn trie_matches_linear_scan(
        entries in proptest::collection::vec((arb_prefix(), any::<u32>()), 0..40),
        addr in any::<u32>(),
    ) {
        // Deduplicate by prefix: the trie replaces, the linear scan must see
        // the *last* value for a duplicate prefix to agree.
        let mut dedup: Vec<(Prefix, u32)> = Vec::new();
        for (p, v) in &entries {
            if let Some(slot) = dedup.iter_mut().find(|(q, _)| q == p) {
                slot.1 = *v;
            } else {
                dedup.push((*p, *v));
            }
        }
        let mut trie = PrefixTrie::new();
        for &(p, v) in &dedup {
            trie.insert(p, v);
        }
        let addr = IpAddr(addr);
        prop_assert_eq!(trie.lookup(addr).copied(), linear_lpm(&dedup, addr));
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
