//! Five-minute OD binning.
//!
//! "To avoid synchronization issues that could have arisen in the data
//! collection procedure, we aggregated these measurements into 5 minute
//! bins" (§2.1). [`OdBinner`] accumulates OD-resolved flow records into the
//! three traffic views — bytes, packets, and *distinct* IP-flow counts — per
//! `(5-minute bin, OD pair)` cell, and finalizes into a
//! [`TrafficMatrixSet`].
//!
//! ## Who owns the distinct 5-tuples, and for how long
//!
//! Counting distinct flows exactly means remembering every `(OD, 5-tuple)`
//! a bin has seen. The binner holds one [`DistinctFlows`] table per bin —
//! nothing per cell, nothing at all for a bin no record has reached — and
//! a table lives exactly as long as its bin can still receive records:
//!
//! * [`OdBinner::seal`] frees the tables of the window's leading bins. A
//!   streaming consumer seals a bin once the
//!   [lateness rule](crate::Watermark) says no record can reach it any
//!   more — [`LATENESS_HORIZON_BINS`](crate::LATENESS_HORIZON_BINS) bins
//!   after it closed — so a daemon tenant holds that many bins' keys plus
//!   the open bin's, not the window's. A sealed bin keeps its cell sums and
//!   refuses further records.
//! * [`OdBinner::finish`] seals every bin. The shard-filling tasks of the
//!   batch paths call it as soon as their bin range is rendered, so a
//!   window's keys are never resident together.
//!
//! A table's slot order depends on the process-random hash keys, and it
//! stops at the table's edge: [`DistinctFlows::insert`] answers new or
//! duplicate, which no order can change, and [`DistinctFlows::sorted_cells`]
//! — the only way keys leave — sorts each cell before it returns.

use crate::error::{FlowError, Result};
use crate::key::{FlowKey, Protocol};
use crate::matrix::{TrafficMatrix, TrafficMatrixSet, TrafficType};
use crate::od::ResolutionStats;
use crate::record::FlowRecord;
use crate::shard::ShardState;
use odflow_linalg::Matrix;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::DerefMut;

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
    fn reserve(&mut self, pairs: usize) {
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

/// Accumulates resolved flow records into `(bin, OD)` cells.
///
/// The observation window `[start_secs, start_secs + num_bins * bin_secs)`
/// is fixed at construction; records outside it are rejected so silent
/// misalignment cannot corrupt a matrix.
///
/// `S` is where the three row-major cell vectors live: a binner owns them
/// (`Vec<f64>`, the default — the serial pipeline, a daemon tenant), or
/// accumulates into row ranges lent by the sharded engine
/// (`&mut [f64]`), which is how a window's cells are written exactly once.
/// [`Self::push`] is the same code either way.
#[derive(Debug)]
pub struct OdBinner<S = Vec<f64>> {
    start_secs: u64,
    bin_secs: u64,
    num_bins: usize,
    num_od: usize,
    bytes: S,
    packets: S,
    flows: S,
    /// The distinct `(OD, 5-tuple)` pairs behind `flows`, one table per
    /// bin — empty for a sealed bin, and no tables at all once
    /// [`Self::finish`] has run. Exact, not a sketch.
    distinct: Vec<DistinctFlows>,
    /// Bins `0..sealed` are sealed: tables freed, records refused.
    sealed: usize,
    /// Records accepted per bin — the raw signal behind the
    /// [`DataQuality`](crate::DataQuality) outage/masking repair.
    bin_records: Vec<u64>,
    records_accepted: u64,
}

impl OdBinner {
    /// Creates a binner for a window of `num_bins` bins of `bin_secs`
    /// seconds (use [`BIN_SECS`](crate::BIN_SECS) for the paper's 5 minutes) starting at
    /// `start_secs`, over `num_od` OD pairs.
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidBinWidth`] if `bin_secs == 0`, and
    /// [`FlowError::NoData`] if the window or OD space is empty.
    pub fn new(start_secs: u64, bin_secs: u64, num_bins: usize, num_od: usize) -> Result<Self> {
        let cells = || vec![0.0; num_bins * num_od];
        Self::over(start_secs, bin_secs, num_od, cells(), cells(), cells())
    }
}

impl<S: DerefMut<Target = [f64]>> OdBinner<S> {
    /// A binner over caller-provided, zeroed cell storage: three row-major
    /// `bin x od` vectors of one length, which fixes the number of bins.
    ///
    /// # Errors
    ///
    /// As for [`OdBinner::new`]; [`FlowError::Codec`] when the three
    /// vectors are not the same whole number of `num_od`-wide rows.
    pub(crate) fn over(
        start_secs: u64,
        bin_secs: u64,
        num_od: usize,
        bytes: S,
        packets: S,
        flows: S,
    ) -> Result<Self> {
        if bin_secs == 0 {
            return Err(FlowError::InvalidBinWidth { width_secs: 0 });
        }
        if bytes.is_empty() || num_od == 0 {
            return Err(FlowError::NoData);
        }
        let num_bins = bytes.len() / num_od;
        if [bytes.len(), packets.len(), flows.len()] != [num_bins * num_od; 3] {
            return Err(FlowError::Codec {
                reason: format!(
                    "cell storage of {}/{}/{} values is not whole rows of {num_od}",
                    bytes.len(),
                    packets.len(),
                    flows.len()
                ),
            });
        }
        Ok(OdBinner {
            start_secs,
            bin_secs,
            num_bins,
            num_od,
            bytes,
            packets,
            flows,
            distinct: vec![DistinctFlows::new(); num_bins],
            sealed: 0,
            bin_records: vec![0; num_bins],
            records_accepted: 0,
        })
    }

    /// The bin index covering timestamp `ts`.
    ///
    /// # Errors
    ///
    /// [`FlowError::TimestampOutOfRange`] outside the window.
    pub fn bin_for(&self, ts: u64) -> Result<usize> {
        let end = self.start_secs + self.num_bins as u64 * self.bin_secs;
        if ts < self.start_secs || ts >= end {
            return Err(FlowError::TimestampOutOfRange { ts, start: self.start_secs, end });
        }
        Ok(((ts - self.start_secs) / self.bin_secs) as usize)
    }

    /// Adds one OD-resolved record to its `(bin, od)` cell.
    ///
    /// # Errors
    ///
    /// * [`FlowError::BadOdIndex`] for an OD index outside the matrix.
    /// * [`FlowError::TimestampOutOfRange`] for records outside the window.
    /// * [`FlowError::AlreadyFinalized`] for a record of a sealed bin — any
    ///   bin after [`Self::finish`].
    pub fn push(&mut self, od_index: usize, record: &FlowRecord) -> Result<()> {
        let od = match u32::try_from(od_index) {
            Ok(od) if od_index < self.num_od => od,
            _ => return Err(FlowError::BadOdIndex { index: od_index, count: self.num_od }),
        };
        let bin = self.bin_for(record.window_start)?;
        if bin < self.sealed || bin >= self.distinct.len() {
            return Err(FlowError::AlreadyFinalized);
        }
        let (earlier, rest) = self.distinct.split_at_mut(bin);
        let distinct = &mut rest[0];
        if distinct.is_empty() {
            // Consecutive bins hold about as many flows, so a bin's table
            // opens at the size the bin before it came to and skips most
            // of the doubling ladder.
            distinct.reserve(earlier.last().map_or(0, DistinctFlows::len));
        }
        let cell = bin * self.num_od + od_index;
        self.bytes[cell] += record.bytes as f64;
        self.packets[cell] += record.packets as f64;
        // An "IP flow" in a 5-minute bin is a distinct 5-tuple: the same
        // key exported in two 1-minute windows of one bin is one flow.
        if distinct.insert(od, record.key) {
            self.flows[cell] += 1.0;
        }
        self.bin_records[bin] += 1;
        self.records_accepted += 1;
        Ok(())
    }

    /// Number of records accepted so far.
    pub fn records_accepted(&self) -> u64 {
        self.records_accepted
    }

    /// Records accepted into bin `bin` so far, or `None` outside the
    /// window.
    pub fn bin_record_count(&self, bin: usize) -> Option<u64> {
        self.bin_records.get(bin).copied()
    }

    /// The accumulated row of one bin for one traffic view, or `None`
    /// outside the window.
    ///
    /// This is the streaming tap: a long-running collector closes bins as
    /// its export watermark advances and feeds each closed row straight
    /// into an online detector, while the binner keeps accumulating later
    /// bins. Reading a row does not freeze it; sealing the bin does.
    pub fn bin_row(&self, bin: usize, t: TrafficType) -> Option<&[f64]> {
        if bin >= self.num_bins {
            return None;
        }
        let cells = match t {
            TrafficType::Bytes => &self.bytes,
            TrafficType::Packets => &self.packets,
            TrafficType::Flows => &self.flows,
        };
        cells.get(bin * self.num_od..(bin + 1) * self.num_od)
    }

    /// Number of bins in this binner's window.
    pub fn num_bins(&self) -> usize {
        self.num_bins
    }

    /// Seals the window's first `bins` bins (all of them, if `bins` is
    /// larger): frees their distinct-flow tables and refuses their
    /// records from here on. Their cell sums, flow counts included, are
    /// final and stay readable, and a snapshot carries no 5-tuples for
    /// them. Sealing fewer bins than are sealed already changes nothing.
    pub(crate) fn seal(&mut self, bins: usize) {
        let bins = bins.min(self.num_bins);
        for table in self.distinct.iter_mut().take(bins).skip(self.sealed) {
            *table = DistinctFlows::default();
        }
        self.sealed = self.sealed.max(bins);
    }

    /// Declares the window filled: seals every bin and drops the emptied
    /// tables themselves.
    pub fn finish(&mut self) {
        self.seal(self.num_bins);
        self.distinct = Vec::new();
    }

    /// Distinct `(OD, 5-tuple)` pairs resident across the live tables.
    pub fn distinct_keys_live(&self) -> usize {
        self.distinct.iter().map(DistinctFlows::len).sum()
    }

    /// Bytes of slot storage the live tables own.
    pub fn distinct_table_bytes(&self) -> usize {
        self.distinct.iter().map(DistinctFlows::table_bytes).sum()
    }

    /// Writes zero over every cell, in address order. Only for a binner no
    /// record has reached: the cells are zero already, so nothing changes
    /// but which thread first touches their pages, and in what order.
    pub(crate) fn zero_cells(&mut self) {
        debug_assert_eq!(self.records_accepted, 0);
        for cells in [&mut self.bytes, &mut self.packets, &mut self.flows] {
            cells.fill(0.0);
        }
    }

    /// Consumes the binner into its `(bytes, packets, flows, bin_records)`
    /// (row-major `bin x od` cells; per-bin record counts), without the
    /// non-empty check of [`OdBinner::finalize`] — the sharded engine
    /// applies that check to the whole window instead.
    pub(crate) fn into_cells(self) -> (S, S, S, Vec<u64>) {
        (self.bytes, self.packets, self.flows, self.bin_records)
    }
}

impl OdBinner {
    /// The sorted distinct 5-tuples of each cell of `bin` — all empty for
    /// a finished binner.
    fn bin_keys(&self, bin: usize) -> Vec<Vec<FlowKey>> {
        match self.distinct.get(bin) {
            Some(table) => table.sorted_cells(self.num_od),
            None => vec![Vec::new(); self.num_od],
        }
    }

    /// Snapshots the accumulation state. The resolver-side fields of the
    /// returned [`ShardState`] are left at their defaults for the owning
    /// shard to fill in.
    pub(crate) fn export_state(&self) -> ShardState {
        ShardState {
            bytes: self.bytes.clone(),
            packets: self.packets.clone(),
            flows: self.flows.clone(),
            distinct: (0..self.num_bins).flat_map(|bin| self.bin_keys(bin)).collect(),
            bin_records: self.bin_records.clone(),
            records_accepted: self.records_accepted,
            resolution: ResolutionStats::default(),
            dropped_out_of_window: 0,
            dropped_late: 0,
        }
    }

    /// Snapshots one bin — its three rows, its cells' distinct 5-tuples
    /// (sorted) and its record count — in O(row + keys log keys), or
    /// `None` outside the window.
    pub(crate) fn export_bin(&self, bin: usize) -> Option<BinState> {
        let cells = bin * self.num_od..(bin + 1) * self.num_od;
        Some(BinState {
            bin,
            records: *self.bin_records.get(bin)?,
            bytes: self.bytes.get(cells.clone())?.to_vec(),
            packets: self.packets.get(cells.clone())?.to_vec(),
            flows: self.flows.get(cells)?.to_vec(),
            distinct: self.bin_keys(bin),
        })
    }

    /// Replaces the accumulation state with a snapshot taken from a binner
    /// of identical geometry. The distinct tables are rebuilt by insertion
    /// and nothing stays sealed (the owner re-seals what its watermark
    /// says) — membership is all [`Self::push`] ever consults, so restored
    /// accumulation is bit-identical to the original.
    ///
    /// # Errors
    ///
    /// [`FlowError::Codec`] when the snapshot's shape does not match this
    /// binner's `(num_bins, num_od)` geometry.
    pub(crate) fn restore_state(&mut self, state: &ShardState) -> Result<()> {
        let cells = self.num_bins * self.num_od;
        let shape_ok = state.bytes.len() == cells
            && state.packets.len() == cells
            && state.flows.len() == cells
            && state.distinct.len() == cells
            && state.bin_records.len() == self.num_bins;
        if !shape_ok {
            return Err(FlowError::Codec {
                reason: format!(
                    "binner snapshot shape mismatch: {} cells expected, got {}/{}/{}/{} and {} bins",
                    cells,
                    state.bytes.len(),
                    state.packets.len(),
                    state.flows.len(),
                    state.distinct.len(),
                    state.bin_records.len()
                ),
            });
        }
        self.bytes.clone_from(&state.bytes);
        self.packets.clone_from(&state.packets);
        self.flows.clone_from(&state.flows);
        self.distinct = state
            .distinct
            .chunks(self.num_od)
            .map(|bin_cells| {
                let mut table = DistinctFlows::new();
                table.reserve(bin_cells.iter().map(Vec::len).sum());
                for (od, keys) in (0u32..).zip(bin_cells) {
                    for &key in keys {
                        table.insert(od, key);
                    }
                }
                table
            })
            .collect();
        self.sealed = 0;
        self.bin_records.clone_from(&state.bin_records);
        self.records_accepted = state.records_accepted;
        Ok(())
    }

    /// Finalizes into the three aligned traffic matrices.
    ///
    /// # Errors
    ///
    /// [`FlowError::NoData`] if no records were ever accepted.
    pub fn finalize(self) -> Result<TrafficMatrixSet> {
        if self.records_accepted == 0 {
            return Err(FlowError::NoData);
        }
        let start_secs = self.start_secs;
        let bin_secs = self.bin_secs;
        let (num_bins, num_od) = (self.num_bins, self.num_od);
        let build = |t: TrafficType, data: Vec<f64>| -> Result<TrafficMatrix> {
            Ok(TrafficMatrix {
                traffic_type: t,
                start_secs,
                bin_secs,
                data: Matrix::from_vec(num_bins, num_od, data)
                    .map_err(|e| FlowError::Codec { reason: format!("cell vector shape: {e}") })?,
            })
        };
        Ok(TrafficMatrixSet {
            bytes: build(TrafficType::Bytes, self.bytes)?,
            packets: build(TrafficType::Packets, self.packets)?,
            flows: build(TrafficType::Flows, self.flows)?,
        })
    }
}

/// Everything one bin has accumulated: the unit an incremental
/// checkpoint persists for each bin that received records since the
/// previous one.
#[derive(Debug, Clone, PartialEq)]
pub struct BinState {
    /// Bin index (window coordinates once it leaves a [`crate::BinShard`]).
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
    use crate::key::Protocol;
    use crate::matrix::BIN_SECS;
    use odflow_net::IpAddr;

    fn rec(ts: u64, src_port: u16, packets: u64, bytes: u64) -> FlowRecord {
        FlowRecord {
            key: FlowKey::new(
                IpAddr::from_octets(10, 0, 0, 1),
                IpAddr::from_octets(10, 16, 0, 1),
                src_port,
                80,
                Protocol::Tcp,
            ),
            router: 0,
            interface: 0,
            window_start: ts,
            packets,
            bytes,
        }
    }

    #[test]
    fn bins_accumulate_bytes_packets() {
        let mut b = OdBinner::new(0, 300, 2, 4).unwrap();
        b.push(1, &rec(0, 1000, 2, 100)).unwrap();
        b.push(1, &rec(60, 1001, 3, 200)).unwrap();
        b.push(1, &rec(301, 1002, 5, 400)).unwrap();
        let set = b.finalize().unwrap();
        assert_eq!(set.bytes.data[(0, 1)], 300.0);
        assert_eq!(set.packets.data[(0, 1)], 5.0);
        assert_eq!(set.bytes.data[(1, 1)], 400.0);
        assert_eq!(set.flows.data[(0, 1)], 2.0);
        assert_eq!(set.flows.data[(1, 1)], 1.0);
        assert_eq!(set.bytes.data[(0, 0)], 0.0);
    }

    #[test]
    fn same_key_in_one_bin_is_one_flow() {
        let mut b = OdBinner::new(0, 300, 1, 1).unwrap();
        // Same 5-tuple exported for three different minutes of one bin.
        b.push(0, &rec(0, 1000, 1, 10)).unwrap();
        b.push(0, &rec(60, 1000, 1, 10)).unwrap();
        b.push(0, &rec(120, 1000, 1, 10)).unwrap();
        let set = b.finalize().unwrap();
        assert_eq!(set.flows.data[(0, 0)], 1.0, "one distinct 5-tuple = one flow");
        assert_eq!(set.packets.data[(0, 0)], 3.0);
    }

    #[test]
    fn protocol_variants_with_one_wire_number_are_two_flows() {
        let mut b = OdBinner::new(0, 300, 1, 1).unwrap();
        let mut r = rec(0, 1000, 1, 10);
        b.push(0, &r).unwrap();
        r.key.protocol = Protocol::Other(6);
        b.push(0, &r).unwrap();
        b.push(0, &r).unwrap();
        assert_eq!(b.distinct_keys_live(), 2);
        assert_eq!(b.finalize().unwrap().flows.data[(0, 0)], 2.0);
    }

    #[test]
    fn tables_are_per_bin_lazy_and_freed_by_finish() {
        assert_eq!(std::mem::size_of::<Slot>(), 20);
        let mut b = OdBinner::new(0, 300, 3, 4).unwrap();
        assert_eq!((b.distinct_keys_live(), b.distinct_table_bytes()), (0, 0));
        for port in 0..100 {
            b.push(port as usize % 4, &rec(0, port, 1, 10)).unwrap();
        }
        let one_bin = b.distinct_table_bytes();
        assert!((100 * 20 * 4 / 3..=100 * 20 * 4).contains(&one_bin), "{one_bin} bytes");
        // The next bin's table opens at the size its predecessor came to;
        // the bin nothing reaches never gets one.
        b.push(0, &rec(300, 1, 1, 10)).unwrap();
        assert_eq!(b.distinct_table_bytes(), 2 * one_bin);
        assert_eq!(b.distinct_keys_live(), 101);

        b.finish();
        assert_eq!((b.distinct_keys_live(), b.distinct_table_bytes()), (0, 0));
        assert_eq!(b.push(0, &rec(0, 7, 1, 10)), Err(FlowError::AlreadyFinalized));
        assert_eq!(b.bin_row(0, TrafficType::Flows).unwrap().iter().sum::<f64>(), 100.0);
        assert!(b.export_bin(0).unwrap().distinct.iter().all(Vec::is_empty));
        assert_eq!(b.finalize().unwrap().flows.data[(1, 0)], 1.0);
    }

    #[test]
    fn sealing_frees_the_leading_bins_and_refuses_their_records() {
        let mut b = OdBinner::new(0, 300, 4, 2).unwrap();
        for bin in 0..4u64 {
            for port in 0..10 {
                b.push(usize::from(port % 2), &rec(bin * 300, port, 1, 100)).unwrap();
            }
        }
        assert_eq!(b.distinct_keys_live(), 40);
        b.seal(2);
        assert_eq!(b.distinct_keys_live(), 20);
        assert_eq!(b.push(0, &rec(310, 99, 1, 10)), Err(FlowError::AlreadyFinalized));
        // An open bin still dedups; a sealed one keeps its cells.
        b.push(1, &rec(610, 3, 1, 10)).unwrap();
        assert_eq!(b.bin_row(1, TrafficType::Flows).unwrap(), [5.0, 5.0]);
        assert!(b.export_bin(1).unwrap().distinct.iter().all(Vec::is_empty));
        assert_eq!(b.export_bin(2).unwrap().distinct[1].len(), 5);
        b.seal(1);
        assert_eq!(b.distinct_keys_live(), 20, "sealing fewer bins changes nothing");
        b.seal(usize::MAX);
        assert_eq!((b.distinct_keys_live(), b.distinct_table_bytes()), (0, 0));
        let set = b.finalize().unwrap();
        assert_eq!((set.flows.data[(2, 1)], set.bytes.data[(2, 1)]), (5.0, 510.0));
    }

    #[test]
    fn same_key_in_two_bins_counts_twice() {
        let mut b = OdBinner::new(0, 300, 2, 1).unwrap();
        b.push(0, &rec(10, 1000, 1, 10)).unwrap();
        b.push(0, &rec(310, 1000, 1, 10)).unwrap();
        let set = b.finalize().unwrap();
        assert_eq!(set.flows.data[(0, 0)], 1.0);
        assert_eq!(set.flows.data[(1, 0)], 1.0);
    }

    #[test]
    fn rejects_out_of_window_and_bad_od() {
        let mut b = OdBinner::new(1000, 300, 2, 2).unwrap();
        assert!(matches!(
            b.push(0, &rec(999, 1, 1, 1)),
            Err(FlowError::TimestampOutOfRange { .. })
        ));
        assert!(matches!(
            b.push(0, &rec(1600, 1, 1, 1)),
            Err(FlowError::TimestampOutOfRange { .. })
        ));
        assert!(matches!(b.push(5, &rec(1000, 1, 1, 1)), Err(FlowError::BadOdIndex { .. })));
    }

    #[test]
    fn empty_finalize_rejected() {
        let b = OdBinner::new(0, 300, 1, 1).unwrap();
        assert!(matches!(b.finalize(), Err(FlowError::NoData)));
    }

    #[test]
    fn invalid_construction_rejected() {
        assert!(OdBinner::new(0, 0, 1, 1).is_err());
        assert!(OdBinner::new(0, 300, 0, 1).is_err());
        assert!(OdBinner::new(0, 300, 1, 0).is_err());
    }

    #[test]
    fn state_roundtrip_resumes_bit_identically() {
        // Fill a binner halfway, snapshot, keep filling; restore the
        // snapshot into a fresh binner, replay the tail — both must
        // finalize to the same matrices (including distinct-flow dedup
        // across the snapshot boundary).
        let tail = [rec(60, 1000, 1, 10), rec(120, 1003, 2, 50), rec(301, 1000, 4, 70)];
        let mut live = OdBinner::new(0, 300, 2, 3).unwrap();
        live.push(1, &rec(0, 1000, 2, 100)).unwrap();
        live.push(2, &rec(30, 1001, 3, 200)).unwrap();
        let snap = live.export_state();
        assert_eq!(snap.records_accepted, 2);
        for r in &tail {
            live.push(1, r).unwrap();
        }

        let mut restored = OdBinner::new(0, 300, 2, 3).unwrap();
        restored.restore_state(&snap).unwrap();
        for r in &tail {
            restored.push(1, r).unwrap();
        }
        let (a, b) = (live.finalize().unwrap(), restored.finalize().unwrap());
        assert_eq!(a.bytes.data.as_slice(), b.bytes.data.as_slice());
        assert_eq!(a.packets.data.as_slice(), b.packets.data.as_slice());
        assert_eq!(a.flows.data.as_slice(), b.flows.data.as_slice());
    }

    #[test]
    fn bin_export_is_that_bins_slice_of_the_full_snapshot() {
        let mut b = OdBinner::new(0, 300, 2, 3).unwrap();
        b.push(1, &rec(0, 1000, 2, 100)).unwrap();
        b.push(1, &rec(30, 999, 3, 200)).unwrap();
        b.push(2, &rec(310, 1001, 1, 50)).unwrap();
        let full = b.export_state();
        for bin in 0..2 {
            let one = b.export_bin(bin).unwrap();
            assert_eq!((one.bin, one.records), (bin, full.bin_records[bin]));
            assert_eq!(one.bytes, full.bytes[bin * 3..(bin + 1) * 3]);
            assert_eq!(one.packets, full.packets[bin * 3..(bin + 1) * 3]);
            assert_eq!(one.flows, full.flows[bin * 3..(bin + 1) * 3]);
            assert_eq!(one.distinct, full.distinct[bin * 3..(bin + 1) * 3]);
        }
        assert_eq!(b.export_bin(0).unwrap().distinct[1].len(), 2, "sorted, both keys kept");
        assert!(b.export_bin(2).is_none());
    }

    #[test]
    fn state_restore_rejects_shape_mismatch() {
        let small = OdBinner::new(0, 300, 1, 2).unwrap().export_state();
        let mut big = OdBinner::new(0, 300, 2, 2).unwrap();
        assert!(matches!(big.restore_state(&small), Err(FlowError::Codec { .. })));
    }

    #[test]
    fn finalized_set_is_aligned() {
        let mut b = OdBinner::new(500, BIN_SECS, 3, 121).unwrap();
        b.push(7, &rec(600, 1, 1, 1)).unwrap();
        let set = b.finalize().unwrap();
        assert!(set.validate().is_ok());
        assert_eq!(set.num_bins(), 3);
        assert_eq!(set.num_od_pairs(), 121);
        assert_eq!(set.bytes.bin_secs, BIN_SECS);
    }
}
