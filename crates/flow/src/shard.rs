//! Sharded measurement ingest: [`BinShard`], the binner, and
//! [`ShardedIngest`], the engine that tiles a window with shards.
//!
//! A [`BinShard`] owns a **contiguous range of analysis bins**: their
//! three row-major cell vectors (bytes, packets, distinct flows), one
//! [`DistinctFlows`] table per bin, the per-bin record counts, its own
//! [`ResolutionStats`] over the engine's shared, immutable routing tables,
//! and its drop counters. [`BinShard::push_sampled_record`] is the one
//! place a record reaches a cell: it anonymizes the destination, resolves
//! the OD pair, finds the bin, and either counts an out-of-window drop or
//! adds the record to its cell. Shards share no mutable state, so record
//! batches bin across threads with no locks. Shards are filled two ways:
//! the fused render fills one shard per bin range through
//! [`ShardedIngest::fill_shards`], and
//! [`MeasurementPipeline`](crate::MeasurementPipeline) — a daemon tenant,
//! [`ShardedIngest::ingest_datagrams`] or a record pusher — holds a single
//! shard spanning the window and finishes it through [`ShardedIngest::merge`];
//! both seal every bin they are done with. [`ShardedIngest::new`] validates
//! the window once, so minting a shard cannot fail on geometry.
//!
//! ## The window is written once
//!
//! The batch engine allocates the window's three row-major cell vectors
//! and lends every shard the row range of its bins; a shard accumulates
//! straight into those rows, and when the last shard is done the vectors
//! *are* the traffic matrices — nothing is concatenated or copied. A fill
//! that renders bin after bin (the fused generate→bin path)
//! [seals](BinShard::seal) each one as it finishes, so the 5-tuples
//! resident are one bin's per filling worker, and the task
//! [finishes](BinShard::finish) the shard, which frees its tables. A
//! pipeline's full-window shard owns its cells instead, [seals](BinShard::seal)
//! its bins as its [`Watermark`] passes them, and
//! [`ShardedIngest::merge`] moves the cells out. Either way
//! [`ShardedIngest`] turns the cells into the [`TrafficMatrixSet`], in one
//! place.
//!
//! Before a shard task scatters records into its rows it writes zero over
//! them in address order. The values do not change; what changes is how
//! the pages are first touched: on the reference VM a page faulted in by a
//! random `+=` from a pool worker costs ≈ 14 µs against ≈ 1.6 µs when the
//! same worker sweeps the range sequentially, and at 90 000 OD pairs the
//! window is 12 700 pages.
//!
//! ## Determinism
//!
//! The result is **bit-identical to the serial pipeline for any thread
//! count and any shard grain**, by construction rather than by tolerance:
//!
//! * Every record of bin `b` lands in the one shard owning `b`, in the same
//!   relative order as the serial stream, so each `(bin, od)` cell
//!   accumulates its `f64` sums in exactly the serial order.
//! * A shard's rows are the window's rows: a cell is written by one shard
//!   only, and no floating-point value is ever combined across shards.
//! * All cross-shard accounting ([`ResolutionStats`], dropped-record
//!   counters) is integral, and integer sums are order-independent.
//!
//! ## The grain
//!
//! Bins per shard is `min(`[`DEFAULT_SHARD_BINS`]`, ceil(num_bins / 8))` — a
//! function of the window alone, **never of the thread count**: the pool's
//! contract is that chunk boundaries depend on the input only, and an
//! oversubscribed pool simply leaves shards queued. The cap amortizes
//! per-shard setup over a long window; aiming for eight shards keeps a
//! short one (the 24-bin large-mesh window is 8 × 3 bins) from collapsing
//! into one or two uneven shards that leave a worker idle.

use crate::binning::{BinState, DistinctFlows};
use crate::error::{FlowError, Result};
use crate::lateness::{Watermark, WatermarkState};
use crate::matrix::{TrafficMatrix, TrafficMatrixSet, TrafficType};
use crate::od::{OdResolution, OdResolver, ResolutionStats};
use crate::pipeline::PipelineConfig;
use crate::quality::{BinStatus, DataQuality, RepairPolicy};
use crate::record::FlowRecord;
use odflow_linalg::Matrix;
use std::alloc::Layout;
use std::ops::{DerefMut, Range};

/// Most analysis bins a shard holds unless overridden: small enough that a
/// paper week (2016 bins) splits into 126 shards for load balance across
/// heterogeneous (diurnal) bins, large enough to amortize per-shard setup.
pub const DEFAULT_SHARD_BINS: usize = 16;

/// Shards a window too short for [`DEFAULT_SHARD_BINS`]-bin shards is cut
/// into instead, to within the rounding of whole bins (five to eight of
/// them; one per bin once it is shorter than this): a few per worker on
/// the pools this runs on, so unequal bins even out.
const SHORT_WINDOW_SHARDS: usize = 8;

/// The binner of one contiguous bin range: resolves the records whose
/// timestamps fall into it and accumulates them into its `(bin, OD)`
/// cells — bytes, packets, and *distinct* IP flows.
///
/// A shard covering the *full* window is exactly the serial pipeline's
/// backend — [`crate::MeasurementPipeline`] is implemented as that
/// degenerate single-shard case, which is what makes the parallel fill and
/// the pipeline equivalent by construction.
///
/// `S` is where the three row-major `bin x od` cell vectors live: a shard
/// owns them (`Vec<f64>`, the default — the serial pipeline, a daemon
/// tenant), or accumulates into row ranges lent by
/// [`ShardedIngest::fill_shards`] (`&mut [f64]`), which is how a window's
/// cells are written exactly once. [`Self::push_sampled_record`] is the
/// same code either way.
#[derive(Debug)]
pub struct BinShard<S = Vec<f64>> {
    /// Global index of the first bin this shard owns.
    first_bin: usize,
    resolver: OdResolver,
    /// Global observation window (trace-epoch seconds, end exclusive) —
    /// records outside it are *dropped and counted*, records inside it but
    /// outside the shard's own bins are routing errors.
    window: Range<u64>,
    bin_secs: u64,
    num_od: usize,
    bytes: S,
    packets: S,
    flows: S,
    /// The distinct `(OD, 5-tuple)` pairs behind `flows`, one table per
    /// bin — empty for a sealed bin, and no tables at all once
    /// [`Self::finish`] has run. Exact, not a sketch.
    distinct: Vec<DistinctFlows>,
    /// Bins `0..sealed` (shard coordinates) are sealed: tables freed,
    /// records refused.
    sealed: usize,
    /// Distinct pairs the last sealed bin's table held when it was freed:
    /// the size hint for the first bin after it.
    sealed_len: usize,
    /// Records accepted per bin — the raw signal behind the
    /// [`DataQuality`] outage/masking repair. Its length is the shard's
    /// bin count.
    bin_records: Vec<u64>,
    records_accepted: u64,
    dropped_out_of_window: u64,
    /// Records a [`Watermark`] refused for a sealed bin before they
    /// reached this shard, counted here beside the out-of-window drops.
    dropped_late: u64,
}

impl<S: DerefMut<Target = [f64]>> BinShard<S> {
    /// Offers one pre-sampled flow record.
    ///
    /// The one record path of every ingest front end: anonymize the
    /// destination (Abilene's 11 bits, §2.1), resolve (updating this
    /// shard's statistics), find the bin, then add the record to its
    /// `(bin, OD)` cell. Records outside the **global** observation window
    /// are counted in [`Self::dropped_out_of_window`] and accepted quietly,
    /// matching the serial pipeline's trace-edge behavior.
    ///
    /// # Errors
    ///
    /// * [`FlowError::TimestampOutOfRange`] for a record inside the global
    ///   window but outside this shard's bin range — a routing bug in the
    ///   caller, never silently absorbed.
    /// * [`FlowError::AlreadyFinalized`] for a resolvable record of a
    ///   [sealed](Self::seal) bin — any bin after [`Self::finish`].
    pub fn push_sampled_record(&mut self, mut record: FlowRecord) -> Result<()> {
        record.key = record.key.with_anonymized_dst();
        // Unresolvable and transit traffic is excluded from OD matrices
        // — the paper's ~7% resolution loss.
        let OdResolution::Resolved { od_index } = self.resolver.resolve(&record) else {
            return Ok(());
        };
        let ts = record.window_start;
        if !self.window.contains(&ts) {
            self.dropped_out_of_window += 1;
            return Ok(());
        }
        let Some(bin) = self.local_bin(((ts - self.window.start) / self.bin_secs) as usize) else {
            let start = self.window.start + self.first_bin as u64 * self.bin_secs;
            let end = start + self.bin_records.len() as u64 * self.bin_secs;
            return Err(FlowError::TimestampOutOfRange { ts, start, end });
        };
        if bin < self.sealed || bin >= self.distinct.len() {
            return Err(FlowError::AlreadyFinalized);
        }
        let (earlier, rest) = self.distinct.split_at_mut(bin);
        let distinct = &mut rest[0];
        if distinct.is_empty() {
            // Consecutive bins hold about as many flows, so a bin's table
            // opens at the size the bin before it came to — read when that
            // bin was sealed, if it is — and skips most of the doubling
            // ladder.
            distinct.reserve(if bin == self.sealed {
                self.sealed_len
            } else {
                earlier[bin - 1].len()
            });
        }
        let cell = bin * self.num_od + od_index;
        self.bytes[cell] += record.bytes as f64;
        self.packets[cell] += record.packets as f64;
        // An "IP flow" in a 5-minute bin is a distinct 5-tuple: the same
        // key exported in two 1-minute windows of one bin is one flow.
        // `ShardedIngest::new` keeps every OD index within 32 bits.
        if distinct.insert(od_index as u32, record.key) {
            self.flows[cell] += 1.0;
        }
        self.bin_records[bin] += 1;
        self.records_accepted += 1;
        Ok(())
    }

    /// The contiguous global bin range this shard owns.
    pub fn bins(&self) -> Range<usize> {
        self.first_bin..self.first_bin + self.bin_records.len()
    }

    /// Resolution statistics accumulated by this shard alone.
    pub fn resolution_stats(&self) -> ResolutionStats {
        self.resolver.stats()
    }

    /// Records this shard dropped as outside the global window.
    pub fn dropped_out_of_window(&self) -> u64 {
        self.dropped_out_of_window
    }

    /// Counts `records` a [`Watermark`] refused as late for this shard's
    /// window. They never reach the resolver or the cells.
    pub(crate) fn count_late(&mut self, records: u64) {
        self.dropped_late += records;
    }

    /// Records a [`Watermark`] refused as late for this shard's window.
    pub fn dropped_late(&self) -> u64 {
        self.dropped_late
    }

    /// Seals the window's first `bins` **global** bins (those of them this
    /// shard owns, all of them if `bins` is larger): frees their
    /// distinct-flow tables and refuses their records from here on, while
    /// their rows — flow counts included — stay final and readable, and a
    /// snapshot carries no 5-tuples for them. This is what a streaming
    /// consumer does as its [`Watermark::sealed_bins`] grows. Sealing fewer
    /// bins than are sealed already changes nothing.
    pub fn seal(&mut self, bins: usize) {
        let bins = bins.saturating_sub(self.first_bin).min(self.bin_records.len());
        for table in self.distinct.iter_mut().take(bins).skip(self.sealed) {
            self.sealed_len = table.len();
            *table = DistinctFlows::default();
        }
        self.sealed = self.sealed.max(bins);
    }

    /// Records this shard accepted into cells.
    pub fn records_accepted(&self) -> u64 {
        self.records_accepted
    }

    /// The accumulated row of **global** bin `bin` for one traffic view,
    /// or `None` when this shard does not own that bin.
    ///
    /// This is the streaming tap: a long-running collector closes bins as
    /// its export watermark advances and feeds each closed row straight
    /// into an online detector, while the shard keeps accumulating later
    /// bins. Reading a row does not freeze it; sealing the bin does.
    pub fn bin_row(&self, bin: usize, t: TrafficType) -> Option<&[f64]> {
        let bin = self.local_bin(bin)?;
        let cells = match t {
            TrafficType::Bytes => &self.bytes,
            TrafficType::Packets => &self.packets,
            TrafficType::Flows => &self.flows,
        };
        cells.get(bin * self.num_od..(bin + 1) * self.num_od)
    }

    /// Records accepted so far into **global** bin `bin`, or `None` when
    /// this shard does not own that bin.
    pub fn bin_record_count(&self, bin: usize) -> Option<u64> {
        Some(self.bin_records[self.local_bin(bin)?])
    }

    /// Global bin `bin` in shard coordinates, or `None` when this shard
    /// does not own it.
    fn local_bin(&self, bin: usize) -> Option<usize> {
        bin.checked_sub(self.first_bin).filter(|&b| b < self.bin_records.len())
    }

    /// Declares this shard's bin range filled: seals every bin and drops
    /// the emptied tables themselves, which no later step reads — the
    /// flow counts are already in the cells.
    /// [`ShardedIngest::fill_shards`] ends every shard task with this, so
    /// the 5-tuples resident are at most one shard's per filling worker —
    /// one bin's, for a fill that seals each bin as it goes;
    /// [`ShardedIngest::merge`] applies it to a shard that arrives
    /// unfinished. Idempotent.
    #[must_use]
    pub fn finish(mut self) -> Self {
        self.seal_all();
        self
    }

    /// Writes zero over every cell, in address order. Only for a shard no
    /// record has reached: the cells are zero already, so nothing changes
    /// but which thread first touches their pages, and in what order.
    fn zero_cells(&mut self) {
        debug_assert_eq!(self.records_accepted, 0);
        for cells in [&mut self.bytes, &mut self.packets, &mut self.flows] {
            cells.fill(0.0);
        }
    }

    /// [`Self::finish`] in place.
    fn seal_all(&mut self) {
        self.sealed = self.bin_records.len();
        self.distinct = Vec::new();
    }

    /// Distinct `(OD, 5-tuple)` pairs this shard holds in memory — zero
    /// once [finished](Self::finish).
    pub fn distinct_keys_live(&self) -> usize {
        self.distinct.iter().map(DistinctFlows::len).sum()
    }

    /// Bytes of distinct-flow table storage this shard owns — zero once
    /// [finished](Self::finish).
    pub fn distinct_table_bytes(&self) -> usize {
        self.distinct.iter().map(DistinctFlows::table_bytes).sum()
    }
}

impl BinShard {
    /// Snapshots everything this shard has accumulated into a
    /// [`ShardState`] — the crash-safe checkpoint path: every bin it owns
    /// as [`Self::export_bin`] gives it, and its counters. Distinct
    /// 5-tuple sets are emitted in sorted order, so two shards that
    /// accepted the same records snapshot to identical state.
    pub fn export_state(&self) -> ShardState {
        ShardState {
            bins: self.bins().filter_map(|bin| self.export_bin(bin)).collect(),
            records_accepted: self.records_accepted,
            resolution: self.resolver.stats(),
            dropped_out_of_window: self.dropped_out_of_window,
            dropped_late: self.dropped_late,
        }
    }

    /// Snapshots **global** bin `bin` alone — its three rows, its cells'
    /// distinct 5-tuples (sorted; all empty for a sealed bin or a
    /// finished shard) and its record count — in O(row + keys log keys):
    /// what an incremental checkpoint writes for a bin that received
    /// records. `None` when this shard does not own that bin.
    pub fn export_bin(&self, bin: usize) -> Option<BinState> {
        let local = self.local_bin(bin)?;
        let cells = local * self.num_od..(local + 1) * self.num_od;
        Some(BinState {
            bin,
            records: self.bin_records[local],
            bytes: self.bytes[cells.clone()].to_vec(),
            packets: self.packets[cells.clone()].to_vec(),
            flows: self.flows[cells].to_vec(),
            distinct: match self.distinct.get(local) {
                Some(table) => table.sorted_cells(self.num_od),
                None => vec![Vec::new(); self.num_od],
            },
        })
    }

    /// Replaces this shard's accumulation state with a snapshot taken
    /// from a shard of identical geometry. Each bin's rows are copied
    /// back and its distinct table rebuilt by insertion from its
    /// [`BinState`]; nothing stays sealed (the owner re-seals what its
    /// watermark says) — membership is all [`Self::push_sampled_record`]
    /// ever consults, so records pushed after the restore accumulate
    /// bit-identically to the uninterrupted original: the recovery
    /// contract of the serve-layer checkpointing.
    ///
    /// # Errors
    ///
    /// [`FlowError::Codec`] when the snapshot does not hold one bin per
    /// bin of this shard, in order, each with rows as wide as the
    /// shard's OD pairs. The shard is unchanged then.
    pub fn restore_state(&mut self, state: &ShardState) -> Result<()> {
        let p = self.num_od;
        let fits = |(bin, b): (usize, &BinState)| {
            b.bin == bin
                && [b.bytes.len(), b.packets.len(), b.flows.len(), b.distinct.len()] == [p; 4]
        };
        if state.bins.len() != self.bin_records.len() || !self.bins().zip(&state.bins).all(fits) {
            return Err(FlowError::Codec {
                reason: format!(
                    "shard snapshot does not fit bins {:?} of {p} OD pairs",
                    self.bins()
                ),
            });
        }
        self.distinct.clear();
        for (local, b) in state.bins.iter().enumerate() {
            let cells = local * p..(local + 1) * p;
            self.bytes[cells.clone()].copy_from_slice(&b.bytes);
            self.packets[cells.clone()].copy_from_slice(&b.packets);
            self.flows[cells].copy_from_slice(&b.flows);
            self.bin_records[local] = b.records;
            let mut table = DistinctFlows::new();
            table.reserve(b.distinct.iter().map(Vec::len).sum());
            for (od, keys) in (0u32..).zip(&b.distinct) {
                for &key in keys {
                    table.insert(od, key);
                }
            }
            self.distinct.push(table);
        }
        (self.sealed, self.sealed_len) = (0, 0);
        self.records_accepted = state.records_accepted;
        self.resolver.restore_stats(state.resolution);
        self.dropped_out_of_window = state.dropped_out_of_window;
        self.dropped_late = state.dropped_late;
        Ok(())
    }
}

/// Serializable snapshot of a [`BinShard`]'s full accumulation state:
/// the window as its bins — each with its three rows, the sorted distinct
/// 5-tuples behind its flow counts and its record count — and every
/// shard-side statistic. Produced by [`BinShard::export_state`] and
/// consumed by [`BinShard::restore_state`]; the serve layer's checkpoint
/// codec persists it across process crashes, bin by bin.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardState {
    /// One [`BinState`] per bin of the shard, ascending: entry `i` is the
    /// shard's `i`-th bin. The distinct 5-tuples are required so a
    /// restored shard deduplicates flows across the snapshot boundary
    /// exactly as the uninterrupted shard would.
    pub bins: Vec<BinState>,
    /// Total records accepted.
    pub records_accepted: u64,
    /// The shard's resolver statistics.
    pub resolution: ResolutionStats,
    /// Records dropped as outside the global window.
    pub dropped_out_of_window: u64,
    /// Records refused as late (see [`BinShard::dropped_late`]).
    pub dropped_late: u64,
}

/// Everything a sharded ingest run produces for its window.
#[derive(Debug)]
pub struct IngestOutcome {
    /// The three OD traffic matrices over the full window.
    pub matrices: TrafficMatrixSet,
    /// Resolution statistics summed across shards (exact integer sums).
    pub stats: ResolutionStats,
    /// Out-of-window records dropped, summed across shards.
    pub dropped_out_of_window: u64,
    /// Records refused as late: judged by a pipeline's [`Watermark`] to
    /// fall into a sealed bin. Always zero on the fused render, which
    /// has no watermark.
    pub dropped_late: u64,
    /// Data-quality accounting: quarantine counters (wire path), exporter
    /// sequence gaps, per-bin record counts, and per-bin repair status.
    pub quality: DataQuality,
}

impl IngestOutcome {
    /// Repairs collector outages in place, opt-in (the clean fused path
    /// never calls this, so its matrices stay bit-identical to before).
    ///
    /// Runs of consecutive **empty** bins (zero accepted records) of at
    /// most `policy.max_interp_gap` bins, with measured bins on both
    /// sides, are filled by deterministic per-OD linear interpolation
    /// across all three traffic views and marked
    /// [`BinStatus::Imputed`]; longer runs — and runs touching a window
    /// edge, which lack a neighbor — are left at zero and marked
    /// [`BinStatus::Masked`] so the detector can decline to issue
    /// verdicts on them. Serial over bins and OD pairs: bit-identical
    /// for any `ODFLOW_THREADS`.
    pub fn repair(&mut self, policy: RepairPolicy) {
        let n = self.quality.bin_records.len();
        let mut b = 0usize;
        while b < n {
            if self.quality.bin_records[b] != 0 {
                b += 1;
                continue;
            }
            let run_start = b;
            while b < n && self.quality.bin_records[b] == 0 {
                b += 1;
            }
            let run_end = b; // exclusive
            let interior = run_start > 0 && run_end < n;
            if interior && run_end - run_start <= policy.max_interp_gap {
                let (left, right) = (run_start - 1, run_end);
                let span = (right - left) as f64;
                for m in [
                    &mut self.matrices.bytes.data,
                    &mut self.matrices.packets.data,
                    &mut self.matrices.flows.data,
                ] {
                    for bin in run_start..run_end {
                        let t = (bin - left) as f64 / span;
                        for od in 0..m.ncols() {
                            let lo = m[(left, od)];
                            let hi = m[(right, od)];
                            m[(bin, od)] = lo + t * (hi - lo);
                        }
                    }
                }
                for s in &mut self.quality.bins[run_start..run_end] {
                    *s = BinStatus::Imputed;
                }
            } else {
                for s in &mut self.quality.bins[run_start..run_end] {
                    *s = BinStatus::Masked;
                }
            }
        }
    }
}

/// The sharded ingest engine over one observation window: it owns the
/// window's geometry and routing state, never traffic.
///
/// [`Self::fill_shards`] is the parallel fill — it allocates the
/// window's cells once, lends each shard its row range and runs the
/// caller's fill on the [`odflow_par`] pool; the fused generate→bin path
/// in `odflow-gen` is that call. A
/// [`MeasurementPipeline`](crate::MeasurementPipeline) instead
/// [mints](Self::make_shard) one owned shard spanning the window, feeds it
/// for as long as it likes, and hands it to [`Self::merge`].
#[derive(Debug, Clone)]
pub struct ShardedIngest {
    start_secs: u64,
    bin_secs: u64,
    num_bins: usize,
    num_od: usize,
    /// Stat-free resolver prototype cloned into every shard; the clones
    /// share its routing tables.
    resolver: OdResolver,
    shard_bins: usize,
}

impl ShardedIngest {
    /// Builds an engine over the window `config` describes and the given
    /// routing state. It consumes *pre-sampled* records: the scenario
    /// generator's multi-week shortcut, or decoded NetFlow exports.
    ///
    /// # Errors
    ///
    /// * [`FlowError::InvalidBinWidth`] if `bin_secs == 0`.
    /// * [`FlowError::NoData`] if the window or OD space is empty.
    /// * [`FlowError::WindowOverflow`] if the window cannot be addressed:
    ///   its end timestamp overflows `u64`, a cell vector or the per-bin
    ///   tables would exceed `isize::MAX` bytes, or an OD index needs more
    ///   than the 32 bits a distinct-flow slot keeps.
    pub fn new(
        config: PipelineConfig,
        topology: &odflow_net::Topology,
        ingress: odflow_net::IngressResolver,
        routes: odflow_net::RouteTable,
    ) -> Result<Self> {
        let PipelineConfig { start_secs, bin_secs, num_bins } = config;
        let num_od = topology.num_od_pairs();
        if bin_secs == 0 {
            return Err(FlowError::InvalidBinWidth { width_secs: 0 });
        }
        if num_bins == 0 || num_od == 0 {
            return Err(FlowError::NoData);
        }
        let overflow = |reason: String| Err(FlowError::WindowOverflow { reason });
        if (num_bins as u64).checked_mul(bin_secs).and_then(|s| s.checked_add(start_secs)).is_none()
        {
            return overflow(format!(
                "{num_bins} bins of {bin_secs} s from {start_secs} end past u64::MAX seconds"
            ));
        }
        let cells = num_bins.checked_mul(num_od).filter(|&c| Layout::array::<f64>(c).is_ok());
        if cells.is_none() || Layout::array::<DistinctFlows>(num_bins).is_err() {
            return overflow(format!(
                "{num_bins} bins x {num_od} OD pairs exceed isize::MAX bytes"
            ));
        }
        if u32::try_from(num_od).is_err() {
            return overflow(format!("{num_od} OD pairs exceed a 32-bit OD index"));
        }
        Ok(ShardedIngest {
            start_secs,
            bin_secs,
            num_bins,
            num_od,
            resolver: OdResolver::new(topology, ingress, routes),
            shard_bins: DEFAULT_SHARD_BINS.min(num_bins.div_ceil(SHORT_WINDOW_SHARDS)),
        })
    }

    /// Bins per shard (the last shard may hold fewer): the grain rule of
    /// the module docs. The grain affects load balance only — results are
    /// identical for every grain.
    pub fn shard_bins(&self) -> usize {
        self.shard_bins
    }

    /// The contiguous bin range of shard `i`, empty past the last shard.
    pub fn shard_range(&self, i: usize) -> Range<usize> {
        let lo = i * self.shard_bins;
        lo..((lo + self.shard_bins).min(self.num_bins))
    }

    /// The global observation window in trace-epoch seconds.
    pub fn window(&self) -> Range<u64> {
        self.start_secs..self.start_secs + self.num_bins as u64 * self.bin_secs
    }

    /// Number of analysis bins in the window.
    pub fn num_bins(&self) -> usize {
        self.num_bins
    }

    /// Number of OD pairs, the width of every bin row.
    pub fn num_od(&self) -> usize {
        self.num_od
    }

    /// The lateness watermark over this window, standing where `state`
    /// says (`WatermarkState::default()` for a stream not yet begun).
    pub(crate) fn watermark(&self, state: WatermarkState) -> Watermark {
        Watermark::new(self.start_secs, self.bin_secs, self.num_bins, state)
    }

    /// Mints an empty shard, owning its cells, over a contiguous sub-range
    /// of global bins.
    ///
    /// # Errors
    ///
    /// [`FlowError::NoData`] for an empty or out-of-window range.
    pub fn make_shard(&self, bins: Range<usize>) -> Result<BinShard> {
        if bins.is_empty() || bins.end > self.num_bins {
            return Err(FlowError::NoData);
        }
        let cells = bins.len() * self.num_od;
        Ok(self.shard_over(bins, vec![0.0; cells], vec![0.0; cells], vec![0.0; cells]))
    }

    /// An empty shard over global bins `bins`, accumulating into the
    /// given zeroed row-major cell storage of `bins.len()` rows.
    fn shard_over<S>(&self, bins: Range<usize>, bytes: S, packets: S, flows: S) -> BinShard<S> {
        BinShard {
            first_bin: bins.start,
            resolver: self.resolver.clone(),
            window: self.window(),
            bin_secs: self.bin_secs,
            num_od: self.num_od,
            bytes,
            packets,
            flows,
            distinct: vec![DistinctFlows::new(); bins.len()],
            sealed: 0,
            sealed_len: 0,
            bin_records: vec![0; bins.len()],
            records_accepted: 0,
            dropped_out_of_window: 0,
            dropped_late: 0,
        }
    }

    /// The batch driver: allocates the window's three cell vectors, lends
    /// every shard its own row range of them, runs `fill(i, shard)` for
    /// each shard `i` across the persistent [`odflow_par`] pool, and wraps
    /// the filled vectors — never copied — into the outcome.
    ///
    /// `fill` must push into shard `i` exactly the records of
    /// [`shard_range(i)`](Self::shard_range), in stream order (plus, into
    /// an edge shard, whatever lies beyond that edge of the window, to be
    /// counted as drops). It runs as a single-threaded task body, which is
    /// what the pool's no-nesting contract asks for; each shard is
    /// [finished](BinShard::finish) as soon as its `fill` returns.
    ///
    /// # Errors
    ///
    /// The first failing shard's error, in shard order, with no outcome;
    /// [`FlowError::NoData`] if no shard accepted any record (matching the
    /// serial pipeline's finalize).
    pub fn fill_shards(
        &self,
        fill: impl Fn(usize, &mut BinShard<&mut [f64]>) -> Result<()> + Sync,
    ) -> Result<IngestOutcome> {
        let cells = self.num_bins * self.num_od;
        let (mut bytes, mut packets, mut flows) =
            (vec![0.0; cells], vec![0.0; cells], vec![0.0; cells]);
        let rows = self.shard_bins * self.num_od;
        let mut shards = bytes
            .chunks_mut(rows)
            .zip(packets.chunks_mut(rows))
            .zip(flows.chunks_mut(rows))
            .enumerate()
            .map(|(i, ((b, p), f))| (self.shard_over(self.shard_range(i), b, p, f), Ok(())))
            .collect::<Vec<(BinShard<&mut [f64]>, Result<()>)>>();
        odflow_par::parallel_chunks(&mut shards, 1, |i, task| {
            let (shard, status) = &mut task[0];
            // The vectors come from the allocator as untouched zero pages.
            // Writing the shard's rows in address order first makes this
            // task fault them in sequentially (≈ 1.6 µs a page here) rather
            // than one random `+=` at a time (≈ 14 µs a page).
            shard.zero_cells();
            *status = fill(i, shard);
            shard.seal_all();
        });

        let mut tally = ShardTally::default();
        for (shard, status) in shards {
            status?;
            tally.add(shard);
        }
        self.outcome(bytes, packets, flows, tally)
    }

    /// Wraps a streaming consumer's full-window shard into the window's
    /// result. The shard's cell vectors are moved, not copied.
    ///
    /// `shards` must be exactly one shard spanning `0..num_bins()` (a
    /// window filled shard by shard goes through [`Self::fill_shards`],
    /// whose shards never own cells).
    ///
    /// # Errors
    ///
    /// * [`FlowError::ShardGap`] unless `shards` is that one shard.
    /// * [`FlowError::NoData`] if it accepted no record (matching the
    ///   serial pipeline's finalize).
    pub fn merge(&self, shards: Vec<BinShard>) -> Result<IngestOutcome> {
        let gap = |expected_bin, got_bin| Err(FlowError::ShardGap { expected_bin, got_bin });
        let mut shards = shards.into_iter();
        let Some(shard) = shards.next() else { return gap(0, self.num_bins) };
        let bins = shard.bins();
        if bins.start != 0 {
            return gap(0, bins.start);
        }
        // Cover must reach the window end; `got_bin` is where it stopped.
        if bins.end != self.num_bins {
            return gap(self.num_bins, bins.end);
        }
        if let Some(extra) = shards.next() {
            return gap(self.num_bins, extra.bins().start);
        }
        let mut tally = ShardTally::default();
        let (bytes, packets, flows) = tally.add(shard.finish());
        self.outcome(bytes, packets, flows, tally)
    }

    /// The window's result over its filled cell vectors.
    fn outcome(
        &self,
        bytes: Vec<f64>,
        packets: Vec<f64>,
        flows: Vec<f64>,
        tally: ShardTally,
    ) -> Result<IngestOutcome> {
        if tally.accepted == 0 {
            return Err(FlowError::NoData);
        }
        let build = |t: TrafficType, data: Vec<f64>| -> Result<TrafficMatrix> {
            Ok(TrafficMatrix {
                traffic_type: t,
                start_secs: self.start_secs,
                bin_secs: self.bin_secs,
                data: Matrix::from_vec(self.num_bins, self.num_od, data)
                    .map_err(|e| FlowError::Codec { reason: format!("shard tiling: {e}") })?,
            })
        };
        let quality = DataQuality {
            bins: vec![BinStatus::Ok; tally.bin_records.len()],
            bin_records: tally.bin_records,
            ..DataQuality::default()
        };
        Ok(IngestOutcome {
            matrices: TrafficMatrixSet {
                bytes: build(TrafficType::Bytes, bytes)?,
                packets: build(TrafficType::Packets, packets)?,
                flows: build(TrafficType::Flows, flows)?,
            },
            stats: tally.stats,
            dropped_out_of_window: tally.dropped,
            dropped_late: tally.late,
            quality,
        })
    }
}

/// What the shards of a window counted, summed in shard order (integers
/// all, so the order is immaterial) with their per-bin record counts
/// laid end to end.
#[derive(Default)]
struct ShardTally {
    stats: ResolutionStats,
    dropped: u64,
    late: u64,
    accepted: u64,
    bin_records: Vec<u64>,
}

impl ShardTally {
    /// Counts in the next shard of the window and hands back its cells.
    fn add<S: DerefMut<Target = [f64]>>(&mut self, shard: BinShard<S>) -> (S, S, S) {
        self.stats.merge(&shard.resolver.stats());
        self.dropped += shard.dropped_out_of_window;
        self.late += shard.dropped_late;
        self.accepted += shard.records_accepted;
        self.bin_records.extend(shard.bin_records);
        (shard.bytes, shard.packets, shard.flows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{FlowKey, Protocol};
    use odflow_net::{AddressPlan, IngressResolver, Topology};

    /// The engine over a window of `num_bins` bins and its full-window
    /// shard, the serial reference: it takes records in any order.
    fn setup(num_bins: usize) -> (Topology, AddressPlan, ShardedIngest, BinShard) {
        let t = Topology::abilene();
        let plan = AddressPlan::synthetic(&t);
        let routes = plan.build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&t);
        let cfg = PipelineConfig::abilene(0, num_bins);
        let engine = ShardedIngest::new(cfg, &t, ingress, routes).unwrap();
        let serial = engine.make_shard(0..num_bins).unwrap();
        (t, plan, engine, serial)
    }

    /// The shards `engine` tiles its window with.
    fn num_shards(engine: &ShardedIngest) -> usize {
        (0..).take_while(|&i| !engine.shard_range(i).is_empty()).count()
    }

    /// The shard of `engine` whose [`ShardedIngest::shard_range`] holds
    /// `r`'s bin — an edge shard for a record beyond that edge.
    fn owner(engine: &ShardedIngest, r: &FlowRecord) -> usize {
        let w = engine.window();
        let bin = ((r.window_start.clamp(w.start, w.end - 1) - w.start) / 300) as usize;
        (0..num_shards(engine)).position(|i| engine.shard_range(i).contains(&bin)).unwrap()
    }

    /// The parallel fill over a record stream: each shard takes its
    /// records, in stream order.
    fn fill(engine: &ShardedIngest, records: &[FlowRecord]) -> Result<IngestOutcome> {
        engine.fill_shards(|i, shard| {
            let mut mine = records.iter().filter(|r| owner(engine, r) == i);
            mine.try_for_each(|r| shard.push_sampled_record(*r))
        })
    }

    fn record(plan: &AddressPlan, src: usize, dst: usize, ts: u64, salt: u32) -> FlowRecord {
        FlowRecord {
            key: FlowKey::new(
                plan.customer_addr(src, 0, 0x100 + salt),
                plan.customer_addr(dst, 0, 0x200 + salt),
                (2048 + salt % 1000) as u16,
                80,
                Protocol::Tcp,
            ),
            router: src,
            interface: 0,
            window_start: ts,
            packets: 2 + salt as u64 % 5,
            bytes: 100 + salt as u64 * 7,
        }
    }

    /// A mixed stream: resolvable, unresolvable, transit, and deliberately
    /// out-of-window records.
    fn mixed_stream(plan: &AddressPlan, num_bins: usize) -> Vec<FlowRecord> {
        let window_end = num_bins as u64 * 300;
        let mut out = Vec::new();
        for i in 0..600u32 {
            let ts = (i as u64 * 97) % window_end;
            out.push(record(plan, (i % 11) as usize, ((i + 3) % 11) as usize, ts, i));
        }
        // Unresolvable destinations still count toward resolution stats.
        for i in 0..40u32 {
            let mut r = record(plan, (i % 11) as usize, 0, (i as u64 * 53) % window_end, i);
            r.key = FlowKey::new(
                plan.customer_addr((i % 11) as usize, 0, i),
                plan.unannounced_addr((i % 11) as usize, i),
                4000,
                80,
                Protocol::Tcp,
            );
            out.push(r);
        }
        // Transit records (backbone interface) are skipped, not failed.
        for i in 0..25u32 {
            let mut r = record(plan, (i % 11) as usize, ((i + 5) % 11) as usize, 600, i);
            r.interface = 100;
            out.push(r);
        }
        // Deliberate out-of-window records on both edges.
        for i in 0..17u32 {
            out.push(record(plan, 1, 6, window_end + 10_000 + i as u64 * 60, i));
        }
        out.push(record(plan, 2, 7, window_end + 1, 999));
        out
    }

    #[test]
    fn shard_accounting_sums_to_serial_pipeline() {
        // dropped_out_of_window and resolution stats must sum exactly
        // across shards to the serial pipeline's values, on a stream with
        // deliberate out-of-window records.
        let num_bins = 29; // not a multiple of the shard grain
        let (_, plan, engine, mut serial) = setup(num_bins);
        assert_eq!((engine.shard_bins(), num_shards(&engine)), (4, 8));
        let stream = mixed_stream(&plan, num_bins);

        for r in &stream {
            serial.push_sampled_record(*r).unwrap();
        }
        let serial_dropped = serial.dropped_out_of_window();
        let IngestOutcome { matrices: serial_set, stats: serial_stats, .. } =
            engine.merge(vec![serial]).unwrap();

        // Fill shards by hand so per-shard accounting is visible.
        let mut shards: Vec<BinShard> = (0..num_shards(&engine))
            .map(|i| engine.make_shard(engine.shard_range(i)).unwrap())
            .collect();
        for r in &stream {
            shards[owner(&engine, r)].push_sampled_record(*r).unwrap();
        }

        let sum_dropped: u64 = shards.iter().map(super::BinShard::dropped_out_of_window).sum();
        let mut sum_stats = ResolutionStats::default();
        for s in &shards {
            sum_stats.merge(&s.resolution_stats());
        }
        assert_eq!(sum_dropped, serial_dropped, "dropped records must sum across shards");
        assert!(sum_dropped >= 18, "the stream carries deliberate out-of-window records");
        assert_eq!(sum_stats, serial_stats, "resolution stats must sum across shards");

        let merged = fill(&engine, &stream).unwrap();
        assert_eq!(merged.dropped_out_of_window, serial_dropped);
        assert_eq!(merged.stats, serial_stats);
        assert_eq!(merged.matrices.bytes.data.as_slice(), serial_set.bytes.data.as_slice());
        assert_eq!(merged.matrices.packets.data.as_slice(), serial_set.packets.data.as_slice());
        assert_eq!(merged.matrices.flows.data.as_slice(), serial_set.flows.data.as_slice());
    }

    #[test]
    fn sharded_fill_matches_serial_for_any_thread_count() {
        let num_bins = 25; // six shards of four bins and one of one
        let (_, plan, engine, mut serial) = setup(num_bins);
        assert_eq!(engine.shard_bins(), 4);
        let stream = mixed_stream(&plan, num_bins);
        for r in &stream {
            serial.push_sampled_record(*r).unwrap();
        }
        let IngestOutcome { matrices: serial_set, stats: serial_stats, .. } =
            engine.merge(vec![serial]).unwrap();
        for &threads in &[1usize, 4, 64] {
            let merged = odflow_par::with_thread_limit(threads, || fill(&engine, &stream).unwrap());
            assert_eq!(merged.stats, serial_stats, "threads={threads}");
            assert_eq!(
                merged.matrices.bytes.data.as_slice(),
                serial_set.bytes.data.as_slice(),
                "threads={threads}"
            );
            assert_eq!(merged.matrices.flows.data.as_slice(), serial_set.flows.data.as_slice());
        }
    }

    #[test]
    fn misrouted_in_window_record_is_an_error() {
        let (_, plan, engine, _) = setup(28);
        // Shard 0 owns bins 0..4; a bin-10 record is a routing bug.
        assert_eq!(engine.shard_range(0), 0..4);
        let mut shard = engine.make_shard(engine.shard_range(0)).unwrap();
        let r = record(&plan, 0, 5, 10 * 300, 1);
        assert!(matches!(shard.push_sampled_record(r), Err(FlowError::TimestampOutOfRange { .. })));
        assert_eq!(shard.dropped_out_of_window(), 0, "misroutes must not count as drops");
    }

    #[test]
    fn merge_rejects_gaps_and_empty_ingest() {
        let (_, plan, engine, _) = setup(12);
        let gap = |expected_bin, got_bin| Err(FlowError::ShardGap { expected_bin, got_bin });
        // Merging the shards that start at `starts[i]` and run to the next
        // start (the last to `end`).
        let merge = |starts: &[usize], end: usize| {
            let ends = starts.iter().skip(1).chain([&end]);
            let shards = starts.iter().zip(ends).map(|(&lo, &hi)| engine.make_shard(lo..hi));
            engine.merge(shards.collect::<Result<_>>().unwrap()).map(|_| ())
        };
        assert_eq!(merge(&[], 0), gap(0, 12));
        assert_eq!(merge(&[4], 12), gap(0, 4));
        assert_eq!(merge(&[0], 4), gap(12, 4));
        // A tiling of several owned shards is not a window either: the
        // batch driver never makes one, and nothing concatenates them.
        assert_eq!(merge(&[0, 4], 12), gap(12, 4));
        let twice = vec![engine.make_shard(0..12).unwrap(), engine.make_shard(0..12).unwrap()];
        assert_eq!(engine.merge(twice).map(|_| ()), gap(12, 0));
        // The full-window shard, empty -> NoData, as in the serial pipeline
        // and as the batch driver answers when no shard accepts a record.
        assert_eq!(merge(&[0], 12), Err(FlowError::NoData));
        assert!(matches!(engine.fill_shards(|_, _| Ok(())), Err(FlowError::NoData)));
        let mut shard = engine.make_shard(0..12).unwrap();
        shard.push_sampled_record(record(&plan, 0, 5, 10, 1)).unwrap();
        assert_eq!(engine.merge(vec![shard]).unwrap().quality.bin_records[0], 1);
    }

    #[test]
    fn a_finished_shard_holds_no_keys_and_merges_the_same() {
        let num_bins = 9;
        let (_, plan, engine, _) = setup(num_bins);
        let stream = mixed_stream(&plan, num_bins);
        let fill = |finish: bool| -> BinShard {
            let mut shard = engine.make_shard(0..num_bins).unwrap();
            for r in &stream {
                shard.push_sampled_record(*r).unwrap();
            }
            assert!(shard.distinct_keys_live() > 0);
            assert!(shard.distinct_table_bytes() >= shard.distinct_keys_live() * 20);
            if finish {
                shard = shard.finish();
                assert_eq!((shard.distinct_keys_live(), shard.distinct_table_bytes()), (0, 0));
            }
            shard
        };
        let (kept, finished) =
            (engine.merge(vec![fill(false)]).unwrap(), engine.merge(vec![fill(true)]).unwrap());
        assert_eq!(kept.matrices.flows.data.as_slice(), finished.matrices.flows.data.as_slice());
        assert_eq!(kept.matrices.bytes.data.as_slice(), finished.matrices.bytes.data.as_slice());
        assert_eq!(kept.stats, finished.stats);

        // The batch driver finishes every shard it lends rows to, and a
        // shard is handed to `fill` with zeroed rows and nothing counted.
        let outcome = engine
            .fill_shards(|i, shard| {
                assert_eq!(shard.bins(), engine.shard_range(i));
                assert_eq!((shard.records_accepted(), shard.distinct_keys_live()), (0, 0));
                stream
                    .iter()
                    .filter(|r| owner(&engine, r) == i)
                    .try_for_each(|r| shard.push_sampled_record(*r))
            })
            .unwrap();
        assert_eq!(outcome.matrices.flows.data.as_slice(), kept.matrices.flows.data.as_slice());
        assert_eq!(outcome.stats, kept.stats);

        // Filled means filled: a resolvable in-window record is refused.
        let mut shard = engine.make_shard(0..4).unwrap().finish();
        let r = record(&plan, 0, 5, 10, 1);
        assert_eq!(shard.push_sampled_record(r), Err(FlowError::AlreadyFinalized));
        assert_eq!(shard.records_accepted(), 0);
    }

    #[test]
    fn shard_grain_does_not_change_results() {
        // The grain follows the window: one bin a shard up to eight bins,
        // then two, three, five, and the cap of 16 from 121 bins on. At
        // each, the shards give what the single full-window shard gives.
        let mut grains = Vec::new();
        for num_bins in [7, 11, 19, 37, 130] {
            let (_, plan, engine, mut serial) = setup(num_bins);
            let stream = mixed_stream(&plan, num_bins);
            for r in &stream {
                serial.push_sampled_record(*r).unwrap();
            }
            let dropped = serial.dropped_out_of_window();
            let IngestOutcome { matrices: set, stats, .. } = engine.merge(vec![serial]).unwrap();
            let merged = fill(&engine, &stream).unwrap();
            let grain = engine.shard_bins();
            assert_eq!(merged.stats, stats, "grain={grain}");
            assert_eq!(merged.dropped_out_of_window, dropped, "grain={grain}");
            for t in TrafficType::ALL {
                let (got, want) =
                    (merged.matrices.get(t).data.as_slice(), set.get(t).data.as_slice());
                assert_eq!(got, want, "grain={grain}");
            }
            grains.push(grain);
        }
        assert_eq!(grains, [1, 2, 3, 5, 16]);
    }

    /// Records from one exporter PoP spread across the window's bins,
    /// with byte/packet ratios that survive the lossy plausibility check.
    fn exporter_stream(plan: &AddressPlan, pop: usize, num_bins: usize, n: u32) -> Vec<FlowRecord> {
        let window_end = num_bins as u64 * 300;
        (0..n)
            .map(|i| {
                let dst = ((i as usize % 10) + pop + 1) % 11;
                record(plan, pop, dst, (i as u64 * 97) % window_end, i)
            })
            .collect()
    }

    #[test]
    fn ingest_datagrams_matches_record_path_on_clean_frames() {
        let num_bins = 8;
        let (_, plan, engine, _) = setup(num_bins);
        let stream = exporter_stream(&plan, 3, num_bins, 180);
        let frames = crate::netflow::encode_datagrams(&stream, 0, 3, 100, 0);
        let from_records = fill(&engine, &stream).unwrap();
        let from_wire = engine.ingest_datagrams(&frames).unwrap();
        assert_eq!(
            from_wire.matrices.bytes.data.as_slice(),
            from_records.matrices.bytes.data.as_slice()
        );
        assert_eq!(from_wire.quality.bin_records, from_records.quality.bin_records);
        assert_eq!(from_wire.quality.bin_records.iter().sum::<u64>(), 180);
        assert!(from_wire.quality.quarantine.is_conserved());
        assert_eq!(from_wire.quality.quarantine.frames_accepted, 6);
        assert_eq!(from_wire.quality.exporters.lost_flows_total(), 0);
        assert!(from_wire.quality.is_pristine());
    }

    #[test]
    fn ingest_datagrams_quarantines_and_estimates_loss() {
        let num_bins = 8;
        let (_, plan, engine, _) = setup(num_bins);
        let stream = exporter_stream(&plan, 3, num_bins, 180);
        let mut frames = crate::netflow::encode_datagrams(&stream, 0, 3, 100, 0);
        frames[2][0] = 0xFF; // garble frame 2's version field
        let outcome = engine.ingest_datagrams(&frames).unwrap();
        let q = &outcome.quality.quarantine;
        assert!(q.is_conserved());
        assert_eq!(q.frames_offered, 6);
        assert_eq!(q.frames_accepted, 5);
        assert_eq!(q.wrong_version, 1);
        assert_eq!(q.records_accepted, 150);
        // The rejected frame's 30 records show up as an export-sequence
        // gap at the next accepted frame from this exporter.
        assert_eq!(outcome.quality.exporters.lost_flows_total(), 30);
        assert!(!outcome.quality.is_pristine());
        assert_eq!(outcome.quality.bin_records.iter().sum::<u64>(), 150);
    }

    /// A clean 20-bin export stream of exporter 3, one burst per bin
    /// exported at the bin's start. `extra(bin, seq)` may add frames after
    /// bin `bin`'s burst, numbered from `seq` onward in the exporter's
    /// sequence; it returns them with the records they carry.
    fn stream_with(
        plan: &AddressPlan,
        mut extra: impl FnMut(usize, u32) -> (Vec<Vec<u8>>, u32),
    ) -> Vec<Vec<u8>> {
        let mut seq = 0u32;
        let mut frames = Vec::new();
        for bin in 0..20usize {
            let records = bin_records(plan, bin);
            frames.extend(crate::netflow::encode_datagrams(
                &records,
                bin as u32 * 300,
                3,
                100,
                seq,
            ));
            seq += records.len() as u32;
            let (more, carried) = extra(bin, seq);
            frames.extend(more);
            seq += carried;
        }
        frames
    }

    /// Exporter 3's records of one bin: 40 of them, ten OD pairs.
    fn bin_records(plan: &AddressPlan, bin: usize) -> Vec<FlowRecord> {
        (0..40u32)
            .map(|i| {
                let dst = (i as usize % 10 + 4) % 11;
                record(plan, 3, dst, bin as u64 * 300 + u64::from(i * 7), bin as u32 * 40 + i)
            })
            .collect()
    }

    #[test]
    fn ingest_datagrams_refuses_what_the_horizon_sealed() {
        let (_, plan, engine, _) = setup(20);
        let clean = engine.ingest_datagrams(stream_with(&plan, |_, _| (vec![], 0))).unwrap();
        assert_eq!(clean.dropped_late, 0);
        // While bin 14 fills, exporter 3 re-exports bins 2 and 9: eight
        // bins past bin 13, bin 2 is sealed; bin 9 is closed, not sealed.
        let frames = stream_with(&plan, |bin, seq| {
            if bin != 14 {
                return (vec![], 0);
            }
            let mut late = bin_records(&plan, 2);
            late.extend(bin_records(&plan, 9));
            (crate::netflow::encode_datagrams(&late, 14 * 300, 3, 100, seq), late.len() as u32)
        });
        let outcome = engine.ingest_datagrams(&frames).unwrap();
        assert_eq!(outcome.dropped_late, 40, "bin 2's records are refused");
        let records = |o: &IngestOutcome, bin: usize| o.quality.bin_records[bin];
        assert_eq!(records(&outcome, 2), records(&clean, 2));
        assert_eq!(records(&outcome, 9), 2 * records(&clean, 9), "bin 9's land again");
        let row = |o: &IngestOutcome, t: TrafficType, bin: usize| {
            o.matrices.get(t).data.row(bin).unwrap().to_vec()
        };
        assert_eq!(row(&outcome, TrafficType::Flows, 9), row(&clean, TrafficType::Flows, 9));
        let bytes = |o: &IngestOutcome| row(o, TrafficType::Bytes, 9).iter().sum::<f64>();
        assert_eq!(bytes(&outcome), 2.0 * bytes(&clean));
        // Every decoded record is placed somewhere, the refused ones too:
        // in a cell, out of the window, unresolved or transit, or late.
        for o in [&clean, &outcome] {
            let s = &o.stats;
            let placed = o.quality.bin_records.iter().sum::<u64>()
                + o.dropped_out_of_window
                + (s.flows_total - s.flows_resolved + s.transit_skipped)
                + o.dropped_late;
            assert_eq!(placed, o.quality.quarantine.records_accepted);
        }
    }

    #[test]
    fn a_far_future_header_closes_nothing_past_the_data() {
        let (_, plan, engine, _) = setup(20);
        let clean = engine.ingest_datagrams(stream_with(&plan, |_, _| (vec![], 0))).unwrap();
        // After bin 5, exporter 9 sends one empty frame stamped u32::MAX.
        let frames = stream_with(&plan, |bin, _| {
            if bin != 5 {
                return (vec![], 0);
            }
            let mut frame =
                crate::netflow::encode_datagrams(&bin_records(&plan, 0), 0, 9, 100, 0).remove(0);
            frame.truncate(crate::netflow::HEADER_LEN);
            frame[2..4].copy_from_slice(&0u16.to_be_bytes());
            frame[8..12].copy_from_slice(&u32::MAX.to_be_bytes());
            (vec![frame], 0)
        });
        let outcome = engine.ingest_datagrams(&frames).unwrap();
        assert_eq!(outcome.quality.quarantine.frames_accepted, frames.len() as u64);
        assert_eq!(outcome.dropped_late, 0, "an uncapped watermark would seal the window");
        for t in TrafficType::ALL {
            assert_eq!(
                outcome.matrices.get(t).data.as_slice(),
                clean.matrices.get(t).data.as_slice()
            );
        }
    }

    #[test]
    fn sealed_bins_and_late_counts_survive_a_snapshot() {
        let num_bins = 8;
        let (_, plan, engine, _) = setup(num_bins);
        let mut shard = engine.make_shard(0..num_bins).unwrap();
        for r in mixed_stream(&plan, num_bins) {
            shard.push_sampled_record(r).unwrap();
        }
        let keys_before = shard.distinct_keys_live();
        shard.seal(3);
        shard.count_late(5);
        assert!(shard.distinct_keys_live() < keys_before);
        let snap = shard.export_state();
        assert_eq!(snap.dropped_late, 5);
        assert!(snap.bins[..3].iter().all(|b| b.distinct.iter().all(Vec::is_empty)));
        assert!(snap.bins[3..].iter().any(|b| b.distinct.iter().any(|k| !k.is_empty())));

        let mut restored = engine.make_shard(0..num_bins).unwrap();
        restored.restore_state(&snap).unwrap();
        restored.seal(3);
        assert_eq!(restored.export_state(), snap);
        assert_eq!(restored.distinct_keys_live(), shard.distinct_keys_live());
        let in_bin_1 = record(&plan, 0, 5, 300 + 10, 1);
        for s in [&mut shard, &mut restored] {
            assert_eq!(s.push_sampled_record(in_bin_1), Err(FlowError::AlreadyFinalized));
        }
        // A shard seals the bins it owns, in window coordinates.
        let mut tail = engine.make_shard(4..8).unwrap();
        tail.push_sampled_record(record(&plan, 0, 5, 4 * 300, 1)).unwrap();
        tail.push_sampled_record(record(&plan, 0, 5, 6 * 300, 2)).unwrap();
        tail.seal(5);
        assert_eq!(tail.distinct_keys_live(), 1);
        let merged = engine.merge(vec![shard]).unwrap();
        assert_eq!(merged.dropped_late, 5);
    }

    #[test]
    fn repair_interpolates_short_gaps_and_masks_edges() {
        let num_bins = 5;
        let (_, plan, engine, _) = setup(num_bins);
        // Records only in bins 0, 1, and 3: bin 2 is a one-bin interior
        // outage, bin 4 an edge outage.
        let mut stream = Vec::new();
        for (salt, &bin) in [0usize, 1, 3].iter().enumerate() {
            for i in 0..20u32 {
                let dst = ((i as usize % 10) + 1) % 11;
                stream.push(record(&plan, 0, dst, bin as u64 * 300 + 10, salt as u32 * 100 + i));
            }
        }
        let mut outcome = fill(&engine, &stream).unwrap();
        assert_eq!(outcome.quality.bin_records[2], 0);
        assert!(outcome.quality.bins.iter().all(|s| *s == crate::BinStatus::Ok));

        outcome.repair(crate::RepairPolicy::default());
        assert_eq!(outcome.quality.imputed_bins(), vec![2]);
        assert_eq!(outcome.quality.masked_bins(), vec![4]);
        let m = &outcome.matrices.bytes.data;
        for od in 0..m.ncols() {
            let (lo, hi) = (m[(1, od)], m[(3, od)]);
            assert_eq!(m[(2, od)], lo + 0.5 * (hi - lo), "od {od}: midpoint of neighbors");
            assert_eq!(m[(4, od)], 0.0, "masked bins stay zero");
        }
        assert!(outcome.quality.imputed_fraction() > 0.0);
    }

    #[test]
    fn repair_masks_gaps_longer_than_policy() {
        let num_bins = 6;
        let (_, plan, engine, _) = setup(num_bins);
        // Bins 2 and 3 empty: a two-bin interior outage.
        let mut stream = Vec::new();
        for (salt, &bin) in [0usize, 1, 4, 5].iter().enumerate() {
            for i in 0..10u32 {
                let dst = ((i as usize % 10) + 1) % 11;
                stream.push(record(&plan, 0, dst, bin as u64 * 300 + 10, salt as u32 * 100 + i));
            }
        }
        let mut strict = fill(&engine, &stream).unwrap();
        strict.repair(crate::RepairPolicy { max_interp_gap: 1 });
        assert_eq!(strict.quality.masked_bins(), vec![2, 3]);
        assert!(strict.quality.imputed_bins().is_empty());

        let mut lenient = fill(&engine, &stream).unwrap();
        lenient.repair(crate::RepairPolicy { max_interp_gap: 2 });
        assert_eq!(lenient.quality.imputed_bins(), vec![2, 3]);
        let m = &lenient.matrices.bytes.data;
        for od in 0..m.ncols() {
            let lo = m[(1, od)];
            let hi = m[(4, od)];
            assert_eq!(m[(2, od)], lo + (1.0 / 3.0) * (hi - lo), "od {od}");
            assert_eq!(m[(3, od)], lo + (2.0 / 3.0) * (hi - lo), "od {od}");
        }
    }

    #[test]
    fn bin_row_taps_match_merged_matrices() {
        let num_bins = 6;
        let (_, plan, engine, _) = setup(num_bins);
        let stream = mixed_stream(&plan, num_bins);
        let mut shard = engine.make_shard(0..num_bins).unwrap();
        for r in &stream {
            shard.push_sampled_record(*r).unwrap();
        }
        let rows: Vec<Vec<f64>> =
            (0..num_bins).map(|b| shard.bin_row(b, TrafficType::Bytes).unwrap().to_vec()).collect();
        let counts: Vec<u64> = (0..num_bins).map(|b| shard.bin_record_count(b).unwrap()).collect();
        assert!(shard.bin_row(num_bins, TrafficType::Bytes).is_none());
        let merged = engine.merge(vec![shard]).unwrap();
        for (b, row) in rows.iter().enumerate() {
            assert_eq!(merged.matrices.bytes.data.row(b).unwrap(), row.as_slice());
        }
        assert_eq!(counts, merged.quality.bin_records);
        // A shard that does not own the bin answers None, not a panic.
        let tail = engine.make_shard(4..6).unwrap();
        assert!(tail.bin_row(0, TrafficType::Bytes).is_none());
        assert!(tail.bin_record_count(3).is_none());
        assert!(tail.bin_row(4, TrafficType::Flows).is_some());
    }

    #[test]
    fn shard_state_roundtrip_resumes_bit_identically() {
        let num_bins = 6;
        let (_, plan, engine, _) = setup(num_bins);
        let stream = mixed_stream(&plan, num_bins);
        let (head, tail) = stream.split_at(stream.len() / 2);

        let mut live = engine.make_shard(0..num_bins).unwrap();
        for r in head {
            live.push_sampled_record(*r).unwrap();
        }
        let snap = live.export_state();
        assert_eq!(snap, live.export_state(), "snapshot must be canonical");
        for r in tail {
            live.push_sampled_record(*r).unwrap();
        }

        let mut restored = engine.make_shard(0..num_bins).unwrap();
        restored.restore_state(&snap).unwrap();
        for r in tail {
            restored.push_sampled_record(*r).unwrap();
        }
        assert_eq!(live.resolution_stats(), restored.resolution_stats());
        assert_eq!(live.dropped_out_of_window(), restored.dropped_out_of_window());
        let a = engine.merge(vec![live]).unwrap();
        let b = engine.merge(vec![restored]).unwrap();
        assert_eq!(a.stats, b.stats);
        for t in TrafficType::ALL {
            assert_eq!(a.matrices.get(t).data.as_slice(), b.matrices.get(t).data.as_slice());
        }

        // Wrong-geometry restore is rejected, not absorbed: too many bins,
        // a bin out of place, a row of the wrong width.
        let mut narrow = engine.make_shard(0..2).unwrap();
        assert!(matches!(narrow.restore_state(&snap), Err(FlowError::Codec { .. })));
        let mut fresh = engine.make_shard(0..num_bins).unwrap();
        let untouched = fresh.export_state();
        let mut stray = snap.clone();
        stray.bins[0].bin = num_bins;
        assert!(matches!(fresh.restore_state(&stray), Err(FlowError::Codec { .. })));
        let mut short = snap.clone();
        short.bins[0].flows.pop();
        assert!(matches!(fresh.restore_state(&short), Err(FlowError::Codec { .. })));
        assert_eq!(fresh.export_state(), untouched, "a refused snapshot changes nothing");
    }

    #[test]
    fn folding_dirty_bins_into_an_old_snapshot_gives_the_new_one() {
        let num_bins = 6;
        let (_, plan, engine, _) = setup(num_bins);
        let stream = mixed_stream(&plan, num_bins);
        let (head, tail) = stream.split_at(stream.len() / 2);
        let mut shard = engine.make_shard(0..num_bins).unwrap();
        let p = engine.num_od();
        let empty = |bin| BinState {
            bin,
            records: 0,
            bytes: vec![0.0; p],
            packets: vec![0.0; p],
            flows: vec![0.0; p],
            distinct: vec![Vec::new(); p],
        };
        let fresh = shard.export_state();
        assert_eq!(fresh.bins, (0..num_bins).map(empty).collect::<Vec<_>>());
        assert_eq!(fresh.resolution, ResolutionStats::default());
        assert_eq!(
            (fresh.records_accepted, fresh.dropped_out_of_window, fresh.dropped_late),
            (0, 0, 0)
        );
        for r in head {
            shard.push_sampled_record(*r).unwrap();
        }
        let mut folded = shard.export_state();
        for r in tail {
            shard.push_sampled_record(*r).unwrap();
        }
        let newer = shard.export_state();
        for bin in 0..num_bins {
            if newer.bins[bin].records != folded.bins[bin].records {
                folded.bins[bin] = shard.export_bin(bin).unwrap();
            }
        }
        folded.records_accepted = newer.records_accepted;
        folded.resolution = newer.resolution;
        folded.dropped_out_of_window = newer.dropped_out_of_window;
        assert_eq!(folded, newer);

        // Sub-window shards answer in window coordinates.
        let tail_shard = engine.make_shard(4..6).unwrap();
        assert!(tail_shard.export_bin(3).is_none());
        assert_eq!(tail_shard.export_bin(5).unwrap().bin, 5);
    }

    #[test]
    fn invalid_construction_rejected() {
        let t = Topology::abilene();
        let plan = AddressPlan::synthetic(&t);
        let routes = plan.build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&t);
        let mut cfg = PipelineConfig::abilene(0, 0);
        assert!(ShardedIngest::new(cfg, &t, ingress.clone(), routes.clone()).is_err());
        cfg = PipelineConfig::abilene(0, 4);
        cfg.bin_secs = 0;
        assert!(ShardedIngest::new(cfg, &t, ingress.clone(), routes.clone()).is_err());
        cfg = PipelineConfig::abilene(0, 4);
        let engine = ShardedIngest::new(cfg, &t, ingress, routes).unwrap();
        assert!(engine.make_shard(2..2).is_err());
        assert!(engine.make_shard(2..9).is_err());
    }

    #[test]
    fn a_window_past_the_address_space_is_an_error() {
        let t = Topology::abilene();
        let routes = AddressPlan::synthetic(&t).build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&t);
        let new = |cfg| ShardedIngest::new(cfg, &t, ingress.clone(), routes.clone()).map(|_| ());
        let overflow = |r: Result<()>| matches!(r, Err(FlowError::WindowOverflow { .. }));
        // 2^61 bins x 121 OD pairs wraps usize; 2^56 bins x 121 cells do
        // not, but their 8 bytes a cell exceed isize::MAX.
        assert!(overflow(new(PipelineConfig::abilene(0, 1 << 61))));
        assert!(overflow(new(PipelineConfig::abilene(0, 1 << 56))));
        // The window's end wraps u64 seconds.
        assert!(overflow(new(PipelineConfig::abilene(u64::MAX - 600, 3))));
        let wide = PipelineConfig { start_secs: 0, bin_secs: u64::MAX / 2, num_bins: 3 };
        assert!(overflow(new(wide)));
        // At the edge: the window ends exactly at u64::MAX.
        assert_eq!(new(PipelineConfig::abilene(u64::MAX - 900, 3)), Ok(()));
        // With one OD pair the cells of 2^59 bins fit; their per-bin
        // distinct-flow tables do not.
        let one = Topology::synthetic_mesh(1).unwrap();
        let routes = AddressPlan::synthetic(&one).build_route_table(1.0).unwrap();
        let cfg = PipelineConfig::abilene(0, 1 << 59);
        let r = ShardedIngest::new(cfg, &one, IngressResolver::synthetic(&one), routes);
        assert!(overflow(r.map(|_| ())));
    }
}
