//! Per-minute 5-tuple aggregation of sampled packets.
//!
//! Reproduces Juniper's Traffic Sampling behaviour on Abilene: sampled
//! packets are folded into per-minute flow records keyed by
//! `(router, interface, 5-tuple)`. Records are emitted when their minute
//! closes (watermark driven by the packet timestamps), so the aggregator
//! runs in bounded memory over arbitrarily long traces.

use crate::error::{FlowError, Result};
use crate::key::FlowKey;
use crate::packet::PacketObs;
use crate::record::FlowRecord;
use odflow_net::PopId;
use std::collections::BTreeMap;

/// Default aggregation window — Abilene exported every minute.
pub const MINUTE_SECS: u64 = 60;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct AggKey {
    router: PopId,
    interface: u32,
    key: FlowKey,
}

/// Streaming per-minute aggregator for sampled packets.
///
/// Feed packets in (approximately) non-decreasing timestamp order; each call
/// may emit the flow records of minutes that have conclusively closed.
/// Call [`FlowAggregator::flush`] at end of trace for the final partial
/// minute.
#[derive(Debug)]
pub struct FlowAggregator {
    window_secs: u64,
    /// Open minute -> accumulating records. Keyed by `BTreeMap` so drains
    /// walk windows and flow keys in order — emission is deterministic
    /// before the defensive sort, not because of it.
    open: BTreeMap<u64, BTreeMap<AggKey, FlowRecord>>,
    /// Highest timestamp seen; minutes ending at or before this watermark
    /// (minus a small reordering slack) are closed.
    watermark: u64,
    /// Tolerated out-of-order arrival in seconds.
    slack: u64,
    emitted: u64,
}

impl FlowAggregator {
    /// Creates an aggregator with the given window (use [`MINUTE_SECS`] for
    /// the paper's setup) and reorder slack.
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidBinWidth`] if `window_secs == 0`.
    pub fn new(window_secs: u64, slack: u64) -> Result<Self> {
        if window_secs == 0 {
            return Err(FlowError::InvalidBinWidth { width_secs: 0 });
        }
        Ok(FlowAggregator { window_secs, open: BTreeMap::new(), watermark: 0, slack, emitted: 0 })
    }

    /// Adds one sampled packet; returns any records whose minute closed.
    pub fn push(&mut self, pkt: &PacketObs) -> Vec<FlowRecord> {
        let window = pkt.ts / self.window_secs * self.window_secs;
        let entry = self
            .open
            .entry(window)
            .or_default()
            .entry(AggKey { router: pkt.router, interface: pkt.interface, key: pkt.key })
            .or_insert(FlowRecord {
                key: pkt.key,
                router: pkt.router,
                interface: pkt.interface,
                window_start: window,
                packets: 0,
                bytes: 0,
            });
        entry.packets += 1;
        entry.bytes += pkt.bytes as u64;

        self.watermark = self.watermark.max(pkt.ts);
        self.drain_closed()
    }

    /// Emits all records for windows that closed before the watermark.
    fn drain_closed(&mut self) -> Vec<FlowRecord> {
        let closed_before = self.watermark.saturating_sub(self.slack);
        let mut out = Vec::new();
        let windows: Vec<u64> =
            self.open.keys().copied().filter(|w| w + self.window_secs <= closed_before).collect();
        for w in windows {
            if let Some(records) = self.open.remove(&w) {
                out.extend(records.into_values());
            }
        }
        self.emitted += out.len() as u64;
        // Callers rely on this exact order; keep the explicit sort even
        // though the ordered maps already deliver it.
        out.sort_by_key(|r| (r.window_start, r.router, r.interface, r.key));
        out
    }

    /// Emits everything still open (end of trace).
    pub fn flush(&mut self) -> Vec<FlowRecord> {
        let mut out: Vec<FlowRecord> =
            std::mem::take(&mut self.open).into_values().flat_map(BTreeMap::into_values).collect();
        self.emitted += out.len() as u64;
        out.sort_by_key(|r| (r.window_start, r.router, r.interface, r.key));
        out
    }

    /// Total records emitted so far (including flushed).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Protocol;
    use odflow_net::IpAddr;

    fn key(port: u16) -> FlowKey {
        FlowKey::new(
            IpAddr::from_octets(10, 0, 0, 1),
            IpAddr::from_octets(10, 16, 0, 1),
            40_000,
            port,
            Protocol::Tcp,
        )
    }

    fn pkt(ts: u64, port: u16, bytes: u32) -> PacketObs {
        PacketObs::new(ts, 2, 0, key(port), bytes)
    }

    #[test]
    fn aggregates_within_minute() {
        let mut agg = FlowAggregator::new(60, 0).unwrap();
        assert!(agg.push(&pkt(0, 80, 100)).is_empty());
        assert!(agg.push(&pkt(30, 80, 200)).is_empty());
        assert!(agg.push(&pkt(59, 80, 300)).is_empty());
        // Move watermark past the first minute.
        let out = agg.push(&pkt(61, 80, 50));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].packets, 3);
        assert_eq!(out[0].bytes, 600);
        assert_eq!(out[0].window_start, 0);
    }

    #[test]
    fn distinct_keys_distinct_records() {
        let mut agg = FlowAggregator::new(60, 0).unwrap();
        agg.push(&pkt(0, 80, 100));
        agg.push(&pkt(1, 443, 100));
        let out = agg.flush();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn distinct_routers_distinct_records() {
        let mut agg = FlowAggregator::new(60, 0).unwrap();
        let mut a = pkt(0, 80, 100);
        let mut b = pkt(0, 80, 100);
        a.router = 1;
        b.router = 2;
        agg.push(&a);
        agg.push(&b);
        assert_eq!(agg.flush().len(), 2);
    }

    #[test]
    fn reorder_slack_tolerates_late_packets() {
        let mut agg = FlowAggregator::new(60, 10).unwrap();
        agg.push(&pkt(0, 80, 100));
        // ts=65 with slack 10: watermark-slack = 55 < 60, minute 0 stays open.
        assert!(agg.push(&pkt(65, 80, 100)).is_empty());
        // Late packet for minute 0 still lands in the open window.
        agg.push(&pkt(58, 80, 100));
        // Advance far enough to close minute 0 (which holds ts=0 and ts=58).
        let out = agg.push(&pkt(120, 80, 1));
        let m0: Vec<_> = out.iter().filter(|r| r.window_start == 0).collect();
        assert_eq!(m0.len(), 1);
        assert_eq!(m0[0].packets, 2);
    }

    #[test]
    fn flush_emits_remaining() {
        let mut agg = FlowAggregator::new(60, 0).unwrap();
        agg.push(&pkt(0, 80, 100));
        agg.push(&pkt(120, 80, 100));
        let flushed = agg.flush();
        // Minute 0 closed when ts=120 arrived; only minutes 120 remain open
        // unless already drained. Count total across both paths.
        assert!(!flushed.is_empty());
        assert!(agg.flush().is_empty(), "a flush leaves no window open");
        assert_eq!(agg.emitted(), 2);
    }

    #[test]
    fn deterministic_output_order() {
        let mut agg = FlowAggregator::new(60, 0).unwrap();
        for port in [443u16, 80, 8080, 22] {
            agg.push(&pkt(0, port, 10));
        }
        let out = agg.flush();
        let ports: Vec<u16> = out.iter().map(|r| r.key.dst_port).collect();
        let mut sorted = ports.clone();
        sorted.sort();
        assert_eq!(ports, sorted);
    }

    #[test]
    fn zero_window_rejected() {
        assert!(FlowAggregator::new(0, 0).is_err());
    }
}
