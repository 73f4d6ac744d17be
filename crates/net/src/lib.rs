//! # odflow-net — network substrate: topology, routing, and address space
//!
//! Models the measurement network of Lakhina, Crovella & Diot (IMC 2004):
//! the Abilene Internet2 backbone with 11 PoPs and its routing state.
//! Everything the paper's data pipeline consults lives here:
//!
//! * [`Topology`] — PoPs and weighted backbone links
//!   ([`Topology::abilene`] reconstructs the 2003 network; `p = 121` OD
//!   pairs).
//! * [`Prefix`] / [`PrefixTrie`] — longest-prefix-match machinery.
//! * [`RouteTable`] / [`AddressPlan`] — BGP-plus-config egress resolution
//!   with deliberately incomplete coverage, reproducing the paper's ≈93%
//!   flow resolution rate; [`CompiledRoutes`] is the table frozen for
//!   per-record lookup.
//! * [`IngressResolver`] — router-config-based ingress attribution.
//! * [`anonymize_dst`] — Abilene's 11-bit destination anonymization.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anonymize;
mod bgp;
mod config;
mod error;
mod prefix;
mod topology;

pub use anonymize::{anonymize_dst, same_anon_block, ANON_BITS, ANON_MASK};
pub use bgp::{AddressPlan, CompiledRoutes, RouteEntry, RouteSource, RouteTable};
pub use config::{IngressResolver, Interface, InterfaceRole, RouterConfig};
pub use error::{NetError, Result};
pub use prefix::{IpAddr, Prefix, PrefixTrie};
pub use topology::{Link, Pop, PopId, Topology, TopologyBuilder};
