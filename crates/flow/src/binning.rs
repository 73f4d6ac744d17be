//! Five-minute OD binning: the exact distinct-flow tables and the
//! per-bin snapshot unit.
//!
//! "To avoid synchronization issues that could have arisen in the data
//! collection procedure, we aggregated these measurements into 5 minute
//! bins" (§2.1). The binner is [`BinShard`](crate::BinShard): it
//! accumulates OD-resolved flow records into the three traffic views —
//! bytes, packets, and *distinct* IP-flow counts — per
//! `(5-minute bin, OD pair)` cell of its bin range. This module holds what
//! it counts distinct flows with, [`DistinctFlows`], and what it snapshots
//! one bin into, [`BinState`].
//!
//! ## Who owns the distinct 5-tuples, and for how long
//!
//! Counting distinct flows exactly means remembering every `(OD, 5-tuple)`
//! a bin has seen. A shard holds one [`DistinctFlows`] table per bin —
//! nothing per cell, nothing at all for a bin no record has reached — and
//! a table lives exactly as long as its bin can still receive records:
//!
//! * [`BinShard::seal`](crate::BinShard::seal) frees the tables of the
//!   window's leading bins. A streaming consumer seals a bin once the
//!   [lateness rule](crate::Watermark) says no record can reach it any
//!   more — [`LATENESS_HORIZON_BINS`](crate::LATENESS_HORIZON_BINS) bins
//!   after it closed — so a daemon tenant holds that many bins' keys plus
//!   the open bin's, not the window's. A sealed bin keeps its cell sums and
//!   refuses further records.
//! * [`BinShard::finish`](crate::BinShard::finish) seals every bin. The
//!   shard-filling tasks of the batch paths finish their shard as soon as
//!   its bin range is rendered, so a window's keys are never resident
//!   together.
//!
//! A table's slot order depends on the process-random hash keys, and it
//! stops at the table's edge: [`DistinctFlows::insert`] answers new or
//! duplicate, which no order can change, and [`DistinctFlows::sorted_cells`]
//! — the only way keys leave — sorts each cell before it returns.

use crate::key::{FlowKey, Protocol};
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};

/// The exact set of distinct `(OD pair, 5-tuple)` pairs one bin has seen:
/// an open-addressed, linear-probed table of 20-byte slots at a load of at
/// most 3/4, doubling as it fills. An empty table owns no memory.
///
/// Keys come off the wire, so the table is keyed like the standard
/// collections: `S` defaults to [`RandomState`], whose keys are drawn per
/// process, and a sender cannot aim its 5-tuples at one probe chain. Each
/// insert hashes once, over the pair packed into 18 bytes; whether two
/// pairs are the same flow is decided by `==` on the pair itself.
#[derive(Debug, Clone, Default)]
pub struct DistinctFlows<S = RandomState> {
    /// Empty, or a power-of-two number of slots.
    slots: Vec<Slot>,
    len: usize,
    hasher: S,
}

/// Vacant, or the `(od, key)` seated there. 20 bytes: the vacancy rides in
/// the spare values of the key's protocol tag.
type Slot = Option<(u32, FlowKey)>;

/// Slots a table starts with on its first insert.
const INITIAL_SLOTS: usize = 16;

/// `(od, key)` laid out injectively in 18 bytes, hashed with one `write`.
struct Packed([u8; 18]);

impl Packed {
    fn new(od: u32, key: &FlowKey) -> Packed {
        // `Other(6)` and `Tcp` are different flows to `==`, so they must
        // be different bytes here: the variant rides in the high byte.
        let protocol = match key.protocol {
            Protocol::Other(n) => 0x100 | u16::from(n),
            named => u16::from(named.number()),
        };
        let mut b = [0u8; 18];
        b[0..4].copy_from_slice(&key.src_ip.0.to_le_bytes());
        b[4..8].copy_from_slice(&key.dst_ip.0.to_le_bytes());
        b[8..10].copy_from_slice(&key.src_port.to_le_bytes());
        b[10..12].copy_from_slice(&key.dst_port.to_le_bytes());
        b[12..14].copy_from_slice(&protocol.to_le_bytes());
        b[14..18].copy_from_slice(&od.to_le_bytes());
        Packed(b)
    }
}

impl Hash for Packed {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(&self.0);
    }
}

impl DistinctFlows {
    /// An empty table keyed by fresh process-random hash keys.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<S: BuildHasher> DistinctFlows<S> {
    /// An empty table hashing with `hasher`.
    pub fn with_hasher(hasher: S) -> Self {
        DistinctFlows { slots: Vec::new(), len: 0, hasher }
    }

    /// Distinct pairs held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no pair is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of slot storage the table owns.
    pub fn table_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
    }

    /// Makes room for `pairs` pairs in all, so that inserting up to that
    /// many re-seats nothing.
    pub(crate) fn reserve(&mut self, pairs: usize) {
        let mut slots = self.slots.len().max(INITIAL_SLOTS);
        while pairs * 4 > slots * 3 {
            slots *= 2;
        }
        if slots > self.slots.len() {
            self.resize(slots);
        }
    }

    /// Records `(od, key)`; `true` when the bin had not seen it before.
    pub fn insert(&mut self, od: u32, key: FlowKey) -> bool {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.resize((self.slots.len() * 2).max(INITIAL_SLOTS));
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(od, &key);
        loop {
            match self.slots[at] {
                None => {
                    self.slots[at] = Some((od, key));
                    self.len += 1;
                    return true;
                }
                Some(held) if held == (od, key) => return false,
                Some(_) => at = (at + 1) & mask,
            }
        }
    }

    /// The slot a pair's probe chain starts at. The table is not empty.
    fn home(&self, od: u32, key: &FlowKey) -> usize {
        self.hasher.hash_one(Packed::new(od, key)) as usize & (self.slots.len() - 1)
    }

    /// Moves to an array of `slots` slots (a power of two with room for
    /// what is held) and re-seats every held pair.
    fn resize(&mut self, slots: usize) {
        let old = std::mem::replace(&mut self.slots, vec![None; slots]);
        let mask = slots - 1;
        for (od, key) in old.into_iter().flatten() {
            let mut at = self.home(od, &key);
            while self.slots[at].is_some() {
                at = (at + 1) & mask;
            }
            self.slots[at] = Some((od, key));
        }
    }

    /// The held keys of each of `num_od` cells, each cell ascending — the
    /// canonical form snapshots are written in, whatever order the slots
    /// are in. Pairs of an `od` at or past `num_od` are left out.
    pub fn sorted_cells(&self, num_od: usize) -> Vec<Vec<FlowKey>> {
        // Sized first, so that filling a cell never moves it.
        let mut sizes = vec![0usize; num_od];
        for &(od, _) in self.slots.iter().flatten() {
            if let Some(size) = sizes.get_mut(od as usize) {
                *size += 1;
            }
        }
        let mut cells: Vec<Vec<FlowKey>> = sizes.into_iter().map(Vec::with_capacity).collect();
        for &(od, key) in self.slots.iter().flatten() {
            if let Some(cell) = cells.get_mut(od as usize) {
                cell.push(key);
            }
        }
        for cell in &mut cells {
            cell.sort_unstable();
        }
        cells
    }
}

/// Everything one bin has accumulated: the unit an incremental
/// checkpoint persists for each bin that received records since the
/// previous one.
#[derive(Debug, Clone, PartialEq)]
pub struct BinState {
    /// Bin index, in window coordinates.
    pub bin: usize,
    /// Records accepted into the bin.
    pub records: u64,
    /// The bin's byte sums, one per OD pair.
    pub bytes: Vec<f64>,
    /// The bin's packet sums.
    pub packets: Vec<f64>,
    /// The bin's distinct-flow counts.
    pub flows: Vec<f64>,
    /// Distinct 5-tuples per OD cell of the bin, sorted ascending.
    pub distinct: Vec<Vec<FlowKey>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FlowError;
    use crate::matrix::{TrafficType, BIN_SECS};
    use crate::pipeline::PipelineConfig;
    use crate::record::FlowRecord;
    use crate::shard::{BinShard, IngestOutcome, ShardedIngest};
    use odflow_net::{AddressPlan, IngressResolver, Topology};

    /// An Abilene engine over `num_bins` 5-minute bins from `start_secs`,
    /// with the address plan its records resolve under.
    fn engine(start_secs: u64, num_bins: usize) -> (AddressPlan, ShardedIngest) {
        let t = Topology::abilene();
        let plan = AddressPlan::synthetic(&t);
        let routes = plan.build_route_table(1.0).unwrap();
        let cfg = PipelineConfig::abilene(start_secs, num_bins);
        let engine = ShardedIngest::new(cfg, &t, IngressResolver::synthetic(&t), routes).unwrap();
        (plan, engine)
    }

    /// The full-window shard of [`engine`].
    fn shard(start_secs: u64, num_bins: usize) -> (AddressPlan, ShardedIngest, BinShard) {
        let (plan, engine) = engine(start_secs, num_bins);
        let shard = engine.make_shard(0..num_bins).unwrap();
        (plan, engine, shard)
    }

    /// A record from PoP 0 to PoP `od`, which resolves to OD index `od`.
    fn rec(plan: &AddressPlan, od: usize, ts: u64, src_port: u16, pk: u64, by: u64) -> FlowRecord {
        FlowRecord {
            key: FlowKey::new(
                plan.customer_addr(0, 0, 1),
                plan.customer_addr(od, 0, 1),
                src_port,
                80,
                Protocol::Tcp,
            ),
            router: 0,
            interface: 0,
            window_start: ts,
            packets: pk,
            bytes: by,
        }
    }

    fn merge(engine: &ShardedIngest, shard: BinShard) -> IngestOutcome {
        engine.merge(vec![shard]).unwrap()
    }

    #[test]
    fn bins_accumulate_bytes_packets() {
        let (plan, engine, mut b) = shard(0, 2);
        b.push_sampled_record(rec(&plan, 1, 0, 1000, 2, 100)).unwrap();
        b.push_sampled_record(rec(&plan, 1, 60, 1001, 3, 200)).unwrap();
        b.push_sampled_record(rec(&plan, 1, 301, 1002, 5, 400)).unwrap();
        let set = merge(&engine, b).matrices;
        assert_eq!(set.bytes.data[(0, 1)], 300.0);
        assert_eq!(set.packets.data[(0, 1)], 5.0);
        assert_eq!(set.bytes.data[(1, 1)], 400.0);
        assert_eq!(set.flows.data[(0, 1)], 2.0);
        assert_eq!(set.flows.data[(1, 1)], 1.0);
        assert_eq!(set.bytes.data[(0, 0)], 0.0);
    }

    #[test]
    fn same_key_in_one_bin_is_one_flow() {
        let (plan, engine, mut b) = shard(0, 1);
        // Same 5-tuple exported for three different minutes of one bin.
        b.push_sampled_record(rec(&plan, 0, 0, 1000, 1, 10)).unwrap();
        b.push_sampled_record(rec(&plan, 0, 60, 1000, 1, 10)).unwrap();
        b.push_sampled_record(rec(&plan, 0, 120, 1000, 1, 10)).unwrap();
        let set = merge(&engine, b).matrices;
        assert_eq!(set.flows.data[(0, 0)], 1.0, "one distinct 5-tuple = one flow");
        assert_eq!(set.packets.data[(0, 0)], 3.0);
    }

    #[test]
    fn protocol_variants_with_one_wire_number_are_two_flows() {
        let (plan, engine, mut b) = shard(0, 1);
        let mut r = rec(&plan, 0, 0, 1000, 1, 10);
        b.push_sampled_record(r).unwrap();
        r.key.protocol = Protocol::Other(6);
        b.push_sampled_record(r).unwrap();
        b.push_sampled_record(r).unwrap();
        assert_eq!(b.distinct_keys_live(), 2);
        assert_eq!(merge(&engine, b).matrices.flows.data[(0, 0)], 2.0);
    }

    #[test]
    fn tables_are_per_bin_lazy_and_freed_by_finish() {
        assert_eq!(std::mem::size_of::<Slot>(), 20);
        let (plan, engine, mut b) = shard(0, 3);
        assert_eq!((b.distinct_keys_live(), b.distinct_table_bytes()), (0, 0));
        for port in 0..100 {
            b.push_sampled_record(rec(&plan, usize::from(port % 4), 0, port, 1, 10)).unwrap();
        }
        let one_bin = b.distinct_table_bytes();
        assert!((100 * 20 * 4 / 3..=100 * 20 * 4).contains(&one_bin), "{one_bin} bytes");
        // The next bin's table opens at the size its predecessor came to;
        // the bin nothing reaches never gets one.
        b.push_sampled_record(rec(&plan, 0, 300, 1, 1, 10)).unwrap();
        assert_eq!(b.distinct_table_bytes(), 2 * one_bin);
        assert_eq!(b.distinct_keys_live(), 101);

        let mut b = b.finish();
        assert_eq!((b.distinct_keys_live(), b.distinct_table_bytes()), (0, 0));
        let late = rec(&plan, 0, 0, 7, 1, 10);
        assert_eq!(b.push_sampled_record(late), Err(FlowError::AlreadyFinalized));
        assert_eq!(b.bin_row(0, TrafficType::Flows).unwrap().iter().sum::<f64>(), 100.0);
        assert!(b.export_bin(0).unwrap().distinct.iter().all(Vec::is_empty));
        assert_eq!(merge(&engine, b).matrices.flows.data[(1, 0)], 1.0);
    }

    #[test]
    fn sealing_frees_the_leading_bins_and_refuses_their_records() {
        let (plan, engine, mut b) = shard(0, 4);
        for bin in 0..4u64 {
            for port in 0..10 {
                b.push_sampled_record(rec(&plan, usize::from(port % 2), bin * 300, port, 1, 100))
                    .unwrap();
            }
        }
        assert_eq!(b.distinct_keys_live(), 40);
        b.seal(2);
        assert_eq!(b.distinct_keys_live(), 20);
        let sealed = rec(&plan, 0, 310, 99, 1, 10);
        assert_eq!(b.push_sampled_record(sealed), Err(FlowError::AlreadyFinalized));
        // An open bin still dedups; a sealed one keeps its cells.
        b.push_sampled_record(rec(&plan, 1, 610, 3, 1, 10)).unwrap();
        assert_eq!(b.bin_row(1, TrafficType::Flows).unwrap()[..2], [5.0, 5.0]);
        assert!(b.export_bin(1).unwrap().distinct.iter().all(Vec::is_empty));
        assert_eq!(b.export_bin(2).unwrap().distinct[1].len(), 5);
        b.seal(1);
        assert_eq!(b.distinct_keys_live(), 20, "sealing fewer bins changes nothing");
        b.seal(usize::MAX);
        assert_eq!((b.distinct_keys_live(), b.distinct_table_bytes()), (0, 0));
        let set = merge(&engine, b).matrices;
        assert_eq!((set.flows.data[(2, 1)], set.bytes.data[(2, 1)]), (5.0, 510.0));
    }

    #[test]
    fn same_key_in_two_bins_counts_twice() {
        let (plan, engine, mut b) = shard(0, 2);
        b.push_sampled_record(rec(&plan, 0, 10, 1000, 1, 10)).unwrap();
        b.push_sampled_record(rec(&plan, 0, 310, 1000, 1, 10)).unwrap();
        let set = merge(&engine, b).matrices;
        assert_eq!(set.flows.data[(0, 0)], 1.0);
        assert_eq!(set.flows.data[(1, 0)], 1.0);
    }

    #[test]
    fn empty_finalize_rejected() {
        // Records that are seen but reach no cell — out of the window, or
        // to unannounced space — leave the window without data.
        let (plan, engine, mut b) = shard(0, 1);
        b.push_sampled_record(rec(&plan, 0, 300, 1, 1, 10)).unwrap();
        let mut unannounced = rec(&plan, 0, 0, 2, 1, 10);
        unannounced.key.dst_ip = plan.unannounced_addr(0, 7);
        b.push_sampled_record(unannounced).unwrap();
        assert_eq!((b.dropped_out_of_window(), b.resolution_stats().flows_total), (1, 2));
        assert_eq!(engine.merge(vec![b]).map(|_| ()), Err(FlowError::NoData));
    }

    #[test]
    fn bin_export_is_that_bins_slice_of_the_full_snapshot() {
        let (plan, _, mut b) = shard(0, 2);
        b.push_sampled_record(rec(&plan, 1, 0, 1000, 2, 100)).unwrap();
        b.push_sampled_record(rec(&plan, 1, 30, 999, 3, 200)).unwrap();
        b.push_sampled_record(rec(&plan, 2, 310, 1001, 1, 50)).unwrap();
        let full = b.export_state();
        let p = full.num_od();
        for bin in 0..2 {
            let one = b.export_bin(bin).unwrap();
            assert_eq!((one.bin, one.records), (bin, full.bin_records[bin]));
            assert_eq!(one.bytes, full.bytes[bin * p..(bin + 1) * p]);
            assert_eq!(one.packets, full.packets[bin * p..(bin + 1) * p]);
            assert_eq!(one.flows, full.flows[bin * p..(bin + 1) * p]);
            assert_eq!(one.distinct, full.distinct[bin * p..(bin + 1) * p]);
        }
        assert_eq!(b.export_bin(0).unwrap().distinct[1].len(), 2, "sorted, both keys kept");
        assert!(b.export_bin(2).is_none());
    }

    #[test]
    fn finalized_set_is_aligned() {
        let (plan, engine, mut b) = shard(500, 3);
        b.push_sampled_record(rec(&plan, 7, 600, 1, 1, 1)).unwrap();
        let set = merge(&engine, b).matrices;
        assert!(set.validate().is_ok());
        assert_eq!(set.num_bins(), 3);
        assert_eq!(set.num_od_pairs(), 121);
        assert_eq!((set.bytes.start_secs, set.bytes.bin_secs), (500, BIN_SECS));
        assert_eq!(set.bytes.data[(0, 7)], 1.0);
    }
}
