//! Router configuration files and ingress-PoP attribution.
//!
//! The paper identifies each flow's **ingress PoP** "by inspecting the
//! router configuration files for interfaces connecting Abilene's customers
//! and peers" (§2.1): a packet sampled at router R arriving on an external
//! (customer/peer) interface entered the network at R's PoP; packets
//! arriving on backbone interfaces are transit and must not be
//! double-counted as fresh ingress.
//!
//! [`RouterConfig`] models one router's interface roster; [`IngressResolver`]
//! answers the attribution query for the whole network.

use crate::error::{NetError, Result};
use crate::topology::{PopId, Topology};

/// The role of a router interface, as recorded in configuration files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterfaceRole {
    /// Connects a customer network; traffic arriving here *enters* the
    /// backbone at this router's PoP.
    Customer,
    /// Connects a research-network peer; also an ingress point.
    Peer,
    /// Connects another backbone router; arriving traffic is transit.
    Backbone,
}

/// One interface entry in a router configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interface {
    /// Interface index, unique within the router.
    pub index: u32,
    /// Role parsed from the configuration.
    pub role: InterfaceRole,
}

/// A router's interface configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterConfig {
    /// The PoP this router serves.
    pub pop: PopId,
    /// All configured interfaces.
    pub interfaces: Vec<Interface>,
}

impl RouterConfig {
    /// Looks up an interface by index.
    pub fn interface(&self, index: u32) -> Option<&Interface> {
        self.interfaces.iter().find(|i| i.index == index)
    }

    /// `true` if the given interface is external (customer or peer).
    pub fn is_external(&self, index: u32) -> bool {
        matches!(
            self.interface(index).map(|i| i.role),
            Some(InterfaceRole::Customer) | Some(InterfaceRole::Peer)
        )
    }
}

/// Network-wide ingress attribution built from all router configs.
#[derive(Debug, Clone)]
pub struct IngressResolver {
    configs: Vec<RouterConfig>,
    /// `external[pop]`: the interface indices on which traffic enters the
    /// backbone at `pop`'s router; empty for a PoP with no config. The
    /// per-record query reads only this.
    external: Vec<Vec<u32>>,
}

impl IngressResolver {
    /// Builds a resolver from a set of router configurations — one per PoP.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidTopology`] if a config references a PoP outside
    /// the topology or a PoP has multiple configs.
    pub fn new(topology: &Topology, configs: Vec<RouterConfig>) -> Result<Self> {
        let n = topology.num_pops();
        let mut seen = vec![false; n];
        for c in &configs {
            if c.pop >= n {
                return Err(NetError::InvalidTopology {
                    reason: format!("router config references unknown PoP {}", c.pop),
                });
            }
            if seen[c.pop] {
                return Err(NetError::InvalidTopology {
                    reason: format!("duplicate router config for PoP {}", c.pop),
                });
            }
            seen[c.pop] = true;
        }
        Ok(Self::indexed(configs))
    }

    /// Indexes `configs` by PoP, keeping of each router only the external
    /// interfaces as [`RouterConfig::is_external`] decides them.
    fn indexed(configs: Vec<RouterConfig>) -> Self {
        let pops = configs.iter().map(|c| c.pop + 1).max().unwrap_or(0);
        let mut external = vec![Vec::new(); pops];
        for c in &configs {
            let set = &mut external[c.pop];
            for i in &c.interfaces {
                if c.is_external(i.index) && !set.contains(&i.index) {
                    set.push(i.index);
                }
            }
        }
        IngressResolver { configs, external }
    }

    /// The standard synthetic configuration for a topology: every PoP gets
    /// interface 0 as a customer port, interface 1 as a peer port (coastal
    /// PoPs only, matching [`crate::AddressPlan::synthetic`]), and one
    /// backbone interface per adjacent link (indices from 100).
    pub fn synthetic(topology: &Topology) -> Self {
        let coastal: Vec<PopId> = ["NYCM", "WASH", "LOSA", "STTL"]
            .iter()
            .filter_map(|c| topology.pop_by_code(c))
            .collect();
        let mut configs = Vec::with_capacity(topology.num_pops());
        for pop in 0..topology.num_pops() {
            let mut interfaces = vec![Interface { index: 0, role: InterfaceRole::Customer }];
            if coastal.contains(&pop) {
                interfaces.push(Interface { index: 1, role: InterfaceRole::Peer });
            }
            for k in 0..topology.neighbors(pop).expect("pop in range").len() {
                interfaces.push(Interface { index: 100 + k as u32, role: InterfaceRole::Backbone });
            }
            configs.push(RouterConfig { pop, interfaces });
        }
        Self::indexed(configs)
    }

    /// Attribution query: a packet observed at `router_pop` arriving on
    /// `interface` entered the backbone at `Some(router_pop)` when the
    /// interface is external, `None` (transit — already counted at its true
    /// ingress) otherwise. Unknown routers/interfaces resolve to `None`,
    /// matching how incomplete config data behaves in practice.
    pub fn ingress(&self, router_pop: PopId, interface: u32) -> Option<PopId> {
        self.external.get(router_pop)?.contains(&interface).then_some(router_pop)
    }

    /// All router configs.
    pub fn configs(&self) -> &[RouterConfig] {
        &self.configs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn synthetic_covers_all_pops() {
        let t = Topology::abilene();
        let r = IngressResolver::synthetic(&t);
        assert_eq!(r.configs().len(), t.num_pops());
        for pop in 0..t.num_pops() {
            // Interface 0 is always the customer port.
            assert_eq!(r.ingress(pop, 0), Some(pop));
        }
    }

    #[test]
    fn backbone_interfaces_are_transit() {
        let t = Topology::abilene();
        let r = IngressResolver::synthetic(&t);
        for pop in 0..t.num_pops() {
            assert_eq!(r.ingress(pop, 100), None, "backbone iface must be transit");
        }
    }

    #[test]
    fn peer_interfaces_only_on_coastal_pops() {
        let t = Topology::abilene();
        let r = IngressResolver::synthetic(&t);
        let nycm = t.pop_by_code("NYCM").unwrap();
        let dnvr = t.pop_by_code("DNVR").unwrap();
        assert_eq!(r.ingress(nycm, 1), Some(nycm));
        assert_eq!(r.ingress(dnvr, 1), None);
    }

    #[test]
    fn unknown_router_or_interface() {
        let t = Topology::abilene();
        let r = IngressResolver::synthetic(&t);
        assert_eq!(r.ingress(99, 0), None);
        assert_eq!(r.ingress(0, 9999), None);
    }

    #[test]
    fn rejects_bad_configs() {
        let t = Topology::abilene();
        let bad_pop = RouterConfig { pop: 42, interfaces: vec![] };
        assert!(IngressResolver::new(&t, vec![bad_pop]).is_err());
        let dup = vec![
            RouterConfig { pop: 1, interfaces: vec![] },
            RouterConfig { pop: 1, interfaces: vec![] },
        ];
        assert!(IngressResolver::new(&t, dup).is_err());
    }

    #[test]
    fn router_config_lookup() {
        let cfg = RouterConfig {
            pop: 0,
            interfaces: vec![
                Interface { index: 0, role: InterfaceRole::Customer },
                Interface { index: 7, role: InterfaceRole::Backbone },
            ],
        };
        assert!(cfg.is_external(0));
        assert!(!cfg.is_external(7));
        assert!(!cfg.is_external(99));
        assert_eq!(cfg.interface(7).unwrap().role, InterfaceRole::Backbone);
    }

    #[test]
    fn custom_resolver_roundtrip() {
        let t = Topology::abilene();
        let configs = vec![RouterConfig {
            pop: 3,
            interfaces: vec![Interface { index: 5, role: InterfaceRole::Peer }],
        }];
        let r = IngressResolver::new(&t, configs).unwrap();
        assert_eq!(r.ingress(3, 5), Some(3));
        assert_eq!(r.ingress(3, 0), None);
        assert_eq!(r.ingress(2, 5), None);
    }
}
