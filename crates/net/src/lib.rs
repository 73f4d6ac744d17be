//! # odflow-net — network substrate: topology, routing, and address space
//!
//! Models the measurement network of Lakhina, Crovella & Diot (IMC 2004):
//! the Abilene Internet2 backbone with 11 PoPs and its routing state.
//! Everything the paper's data pipeline consults lives here:
//!
//! * [`Topology`] — PoPs and the backbone links between them
//!   ([`Topology::abilene`] reconstructs the 2003 network; `p = 121` OD
//!   pairs).
//! * [`RouteTable`] / [`AddressPlan`] — egress resolution: one
//!   longest-prefix-match table over [`Prefix`]es, built once from the
//!   plan's routes in prefix-length order and checked against a linear
//!   scan, with deliberately incomplete coverage reproducing the paper's
//!   ≈93% flow resolution rate.
//! * [`IngressResolver`] — router-config-based ingress attribution.
//! * [`anonymize_dst`] — Abilene's 11-bit destination anonymization.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A library reports through return values and metrics, never the terminal.
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod anonymize;
mod bgp;
mod config;
mod error;
mod prefix;
mod topology;

pub use anonymize::{anonymize_dst, ANON_BITS, ANON_MASK};
pub use bgp::AddressPlan;
pub use config::{IngressResolver, Interface, InterfaceRole, RouterConfig};
pub use error::{NetError, Result};
pub use prefix::{IpAddr, Prefix, RouteTable};
pub use topology::{Link, Pop, PopId, Topology, TopologyBuilder};
