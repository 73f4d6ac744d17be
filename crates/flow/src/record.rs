//! Flow records — where ingest starts.
//!
//! Abilene's routers sampled 1% of the packets they forwarded, and the
//! samples were "aggregated at the 5-tuple IP-flow level ... every minute
//! using Juniper's Traffic Sampling. The number of bytes and packets in
//! each sampled IP flow are also recorded" (§2.1). Those records are the
//! data the paper worked from, and the pipeline's input here: the scenario
//! generator synthesizes them and the daemon decodes them from NetFlow
//! exports. [`FlowRecord`] is one of them: a 5-tuple observed at a router
//! during one [`MINUTE_SECS`] window, with its sampled byte and packet
//! totals.

use crate::key::FlowKey;
use odflow_net::PopId;

/// The aggregation window of a [`FlowRecord`]: Abilene's routers exported
/// their flow records every minute.
pub const MINUTE_SECS: u64 = 60;

/// One exported flow record (post-sampling, one aggregation window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowRecord {
    /// The flow's 5-tuple (destination may be anonymized at export).
    pub key: FlowKey,
    /// Router (PoP) that exported the record.
    pub router: PopId,
    /// Interface the flow's packets arrived on.
    pub interface: u32,
    /// Start of the aggregation window, seconds since trace epoch.
    pub window_start: u64,
    /// Sampled packets in the window.
    pub packets: u64,
    /// Sampled bytes in the window.
    pub bytes: u64,
}
