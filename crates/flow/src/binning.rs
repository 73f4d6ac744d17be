//! Five-minute OD binning.
//!
//! "To avoid synchronization issues that could have arisen in the data
//! collection procedure, we aggregated these measurements into 5 minute
//! bins" (§2.1). [`OdBinner`] accumulates OD-resolved flow records into the
//! three traffic views — bytes, packets, and *distinct* IP-flow counts — per
//! `(5-minute bin, OD pair)` cell, and finalizes into a
//! [`TrafficMatrixSet`].

use crate::error::{FlowError, Result};
use crate::key::FlowKey;
use crate::matrix::{TrafficMatrix, TrafficMatrixSet, TrafficType, BIN_SECS};
use crate::od::ResolutionStats;
use crate::record::FlowRecord;
use crate::shard::ShardState;
use odflow_linalg::Matrix;
use std::collections::HashSet;

/// Accumulates resolved flow records into `(bin, OD)` cells.
///
/// The observation window `[start_secs, start_secs + num_bins * bin_secs)`
/// is fixed at construction; records outside it are rejected so silent
/// misalignment cannot corrupt a matrix.
#[derive(Debug)]
pub struct OdBinner {
    start_secs: u64,
    bin_secs: u64,
    num_bins: usize,
    num_od: usize,
    bytes: Vec<f64>,
    packets: Vec<f64>,
    flows: Vec<f64>,
    /// Distinct 5-tuples per open cell; drained as flow counts when a cell
    /// can no longer receive records. Kept exact (no sketch) — cell
    /// cardinalities at Abilene scale are modest after 1% sampling.
    distinct: Vec<HashSet<FlowKey>>,
    /// Records accepted per bin — the raw signal behind the
    /// [`DataQuality`](crate::DataQuality) outage/masking repair.
    bin_records: Vec<u64>,
    records_accepted: u64,
}

impl OdBinner {
    /// Creates a binner for a window of `num_bins` bins of `bin_secs`
    /// seconds (use [`BIN_SECS`] for the paper's 5 minutes) starting at
    /// `start_secs`, over `num_od` OD pairs.
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidBinWidth`] if `bin_secs == 0`, and
    /// [`FlowError::NoData`] if the window or OD space is empty.
    pub fn new(start_secs: u64, bin_secs: u64, num_bins: usize, num_od: usize) -> Result<Self> {
        if bin_secs == 0 {
            return Err(FlowError::InvalidBinWidth { width_secs: 0 });
        }
        if num_bins == 0 || num_od == 0 {
            return Err(FlowError::NoData);
        }
        let cells = num_bins * num_od;
        Ok(OdBinner {
            start_secs,
            bin_secs,
            num_bins,
            num_od,
            bytes: vec![0.0; cells],
            packets: vec![0.0; cells],
            flows: vec![0.0; cells],
            distinct: vec![HashSet::new(); cells],
            bin_records: vec![0; num_bins],
            records_accepted: 0,
        })
    }

    /// Convenience constructor with the paper's 5-minute bins.
    pub fn with_default_bins(start_secs: u64, num_bins: usize, num_od: usize) -> Result<Self> {
        Self::new(start_secs, BIN_SECS, num_bins, num_od)
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
    pub fn push(&mut self, od_index: usize, record: &FlowRecord) -> Result<()> {
        if od_index >= self.num_od {
            return Err(FlowError::BadOdIndex { index: od_index, count: self.num_od });
        }
        let bin = self.bin_for(record.window_start)?;
        let cell = bin * self.num_od + od_index;
        self.bytes[cell] += record.bytes as f64;
        self.packets[cell] += record.packets as f64;
        // An "IP flow" in a 5-minute bin is a distinct 5-tuple: the same
        // key exported in two 1-minute windows of one bin is one flow.
        if self.distinct[cell].insert(record.key) {
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
    /// bins. Reading a row does not freeze it — the caller decides when a
    /// bin can no longer receive records.
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

    /// Consumes the binner into its raw `(bytes, packets, flows,
    /// bin_records)` cell vectors (row-major `bin x od`; per-bin record
    /// counts), without the non-empty check of [`Self::finalize`] — the
    /// sharded merge concatenates shard rows and applies the emptiness
    /// check to the whole window instead.
    pub(crate) fn into_cells(self) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<u64>) {
        (self.bytes, self.packets, self.flows, self.bin_records)
    }

    /// The canonical (sorted) distinct 5-tuples of one cell, so snapshots
    /// are identical regardless of hash-set iteration order.
    fn sorted_keys(set: &HashSet<FlowKey>) -> Vec<FlowKey> {
        // lint:allow(ordered-iteration) -- the hash order ends on the next line: the keys are sorted before anyone sees them
        let mut keys: Vec<FlowKey> = set.iter().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Snapshots the accumulation state. The resolver-side fields of the
    /// returned [`ShardState`] are left at their defaults for the owning
    /// shard to fill in.
    pub(crate) fn export_state(&self) -> ShardState {
        ShardState {
            bytes: self.bytes.clone(),
            packets: self.packets.clone(),
            flows: self.flows.clone(),
            distinct: self.distinct.iter().map(Self::sorted_keys).collect(),
            bin_records: self.bin_records.clone(),
            records_accepted: self.records_accepted,
            resolution: ResolutionStats::default(),
            dropped_out_of_window: 0,
        }
    }

    /// Snapshots one bin — its three rows, its cells' distinct 5-tuples
    /// (sorted) and its record count — in O(row + keys), or `None`
    /// outside the window.
    pub(crate) fn export_bin(&self, bin: usize) -> Option<BinState> {
        let cells = bin * self.num_od..(bin + 1) * self.num_od;
        Some(BinState {
            bin,
            records: *self.bin_records.get(bin)?,
            bytes: self.bytes.get(cells.clone())?.to_vec(),
            packets: self.packets.get(cells.clone())?.to_vec(),
            flows: self.flows.get(cells.clone())?.to_vec(),
            distinct: self.distinct.get(cells)?.iter().map(Self::sorted_keys).collect(),
        })
    }

    /// Replaces the accumulation state with a snapshot taken from a binner
    /// of identical geometry. The distinct sets are rebuilt by insertion —
    /// set membership is all [`Self::push`] ever consults, so restored
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
        self.distinct = state.distinct.iter().map(|keys| keys.iter().copied().collect()).collect();
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
        let mut b = OdBinner::with_default_bins(500, 3, 121).unwrap();
        b.push(7, &rec(600, 1, 1, 1)).unwrap();
        let set = b.finalize().unwrap();
        assert!(set.validate().is_ok());
        assert_eq!(set.num_bins(), 3);
        assert_eq!(set.num_od_pairs(), 121);
        assert_eq!(set.bytes.bin_secs, BIN_SECS);
    }
}
