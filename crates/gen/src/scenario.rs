//! Scenario assembly: baseline + anomaly schedule + ground truth.
//!
//! A [`Scenario`] is a complete synthetic Abilene trace specification: the
//! topology/address plan, the baseline traffic model, and a schedule of
//! injected anomalies with ground-truth labels. [`TraceGenerator`] renders
//! it bin by bin — deterministically, so any bin's raw flows can be
//! regenerated on demand (the classification stage relies on this instead
//! of archiving multi-week flow logs).
//!
//! [`Scenario::paper_week`] builds one week calibrated to the anomaly mix
//! of the paper's Table 3 (ALPHA-heavy, plenty of scans and flash crowds,
//! rare operational events), and [`Scenario::paper_four_weeks`] reproduces
//! the full four-week study design.

use crate::anomaly::{AnomalyKind, InjectedAnomaly, ScanMode};
use crate::diurnal::{DiurnalModel, ABILENE_TZ_OFFSET_HOURS};
use crate::error::{GenError, Result};
use crate::faults::{FaultSchedule, FaultStormStats};
use crate::flows::{synthesize_cell_into, BaselineParams};
use crate::gravity::GravityModel;
use crate::rng::{cell_rng, Stream};
use odflow_flow::FlowRecord;
use odflow_net::{AddressPlan, PopId, Topology};
use rand::Rng;

/// Number of 5-minute bins in one week.
pub const BINS_PER_WEEK: usize = 7 * 24 * 12;

/// Full scenario configuration.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Master seed: two scenarios with equal configs and seeds are
    /// bit-identical.
    pub seed: u64,
    /// Number of 5-minute bins.
    pub num_bins: usize,
    /// Bin width in seconds (the paper: 300).
    pub bin_secs: u64,
    /// Trace-epoch start time in seconds (bin 0 starts here; epoch is
    /// midnight Monday for the diurnal model).
    pub start_secs: u64,
    /// Network-wide mean observed flows per bin, split by the gravity
    /// model.
    pub total_demand: f64,
    /// Baseline population parameters.
    pub baseline: BaselineParams,
    /// Seasonal model.
    pub diurnal: DiurnalModel,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 0xAB11EE,
            num_bins: BINS_PER_WEEK,
            bin_secs: 300,
            start_secs: 0,
            // ~41 observed flows per (bin, OD) cell on average: large
            // enough that the per-cell counts aggregate toward the
            // normality the detection thresholds assume, small enough
            // that a full 4-week study renders in seconds.
            total_demand: 5000.0,
            baseline: BaselineParams::default(),
            diurnal: DiurnalModel::default(),
        }
    }
}

impl ScenarioConfig {
    /// Configuration for the large-mesh workload
    /// ([`Scenario::large_mesh`]): one day of 5-minute bins over
    /// [`LARGE_MESH_POPS`]² ≈ 90k OD pairs. Total demand keeps the *mean*
    /// per-cell flow count sparse (~0.5), as real hundreds-of-PoP meshes
    /// are — the network-wide record volume per bin is still ~9x the
    /// Abilene default, which is what stresses the sharded ingest engine.
    pub fn large_mesh() -> ScenarioConfig {
        ScenarioConfig {
            seed: 0x01A4_6EAB,
            num_bins: 288,
            total_demand: 45_000.0,
            ..Default::default()
        }
    }
}

/// Number of PoPs in the synthetic large-mesh workload (`p = 90_000` OD
/// pairs — the "bigger than Abilene" regime the sharded ingest targets).
pub const LARGE_MESH_POPS: usize = 300;

/// A fully specified synthetic trace.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Configuration used to build the trace.
    pub config: ScenarioConfig,
    /// The backbone topology (defines the OD space).
    pub topology: Topology,
    /// The address plan (defines endpoint addresses and resolvability).
    pub plan: AddressPlan,
    /// Per-PoP gravity weights splitting `total_demand` across OD pairs
    /// (length = `topology.num_pops()`).
    pub gravity_weights: Vec<f64>,
    /// The anomaly schedule with ground-truth labels.
    pub schedule: Vec<InjectedAnomaly>,
}

impl Scenario {
    /// Builds a scenario over the Abilene topology with an explicit
    /// schedule.
    ///
    /// # Errors
    ///
    /// * [`GenError::EmptyScenario`] for a zero-bin window.
    /// * [`GenError::InvalidSchedule`] if any anomaly references bins or
    ///   PoPs outside the scenario, or has no OD pairs.
    /// * Parameter validation errors from the baseline/diurnal models.
    pub fn new(config: ScenarioConfig, schedule: Vec<InjectedAnomaly>) -> Result<Scenario> {
        let topology = Topology::abilene();
        let plan = AddressPlan::synthetic(&topology);
        Scenario::with_network(config, topology, plan, GravityModel::abilene_weights(), schedule)
    }

    /// Builds a scenario over an arbitrary topology / address plan /
    /// gravity-weight triple — the constructor behind both the Abilene
    /// default and the large-mesh workload.
    ///
    /// # Errors
    ///
    /// As for [`Scenario::new`], plus
    /// [`GenError::InvalidParameter`] when the weight vector's length does
    /// not match the topology.
    pub fn with_network(
        config: ScenarioConfig,
        topology: Topology,
        plan: AddressPlan,
        gravity_weights: Vec<f64>,
        schedule: Vec<InjectedAnomaly>,
    ) -> Result<Scenario> {
        if config.num_bins == 0 {
            return Err(GenError::EmptyScenario);
        }
        config.baseline.validate()?;
        config.diurnal.validate()?;
        if gravity_weights.len() != topology.num_pops() {
            return Err(GenError::InvalidParameter {
                what: "gravity weights (length != num_pops)",
                value: gravity_weights.len() as f64,
            });
        }
        // Validates weight positivity up front so `generator()` can't panic.
        GravityModel::new(gravity_weights.clone(), config.total_demand)?;
        let n = topology.num_pops();
        for a in &schedule {
            if a.od_pairs.is_empty() {
                return Err(GenError::InvalidSchedule {
                    reason: format!("anomaly {} has no OD pairs", a.id),
                });
            }
            if a.duration_bins == 0 {
                return Err(GenError::InvalidSchedule {
                    reason: format!("anomaly {} has zero duration", a.id),
                });
            }
            if a.end_bin() >= config.num_bins {
                return Err(GenError::InvalidSchedule {
                    reason: format!(
                        "anomaly {} ends at bin {} beyond scenario ({} bins)",
                        a.id,
                        a.end_bin(),
                        config.num_bins
                    ),
                });
            }
            for &(o, d) in &a.od_pairs {
                if o >= n || d >= n {
                    return Err(GenError::InvalidSchedule {
                        reason: format!("anomaly {} references PoP out of range", a.id),
                    });
                }
            }
        }
        Ok(Scenario { config, topology, plan, gravity_weights, schedule })
    }

    /// One week calibrated to the paper's Table 3 anomaly mix. `week`
    /// offsets both the RNG stream and the anomaly ids, so consecutive
    /// weeks differ.
    pub fn paper_week(seed: u64, week: u64) -> Result<Scenario> {
        let config =
            ScenarioConfig { seed: seed ^ (week.wrapping_mul(0x9E37_79B9)), ..Default::default() };
        let schedule = schedule_for(config.seed, config.num_bins, week, 11, 1);
        Scenario::new(config, schedule)
    }

    /// The paper's full four-week study: four independent weekly scenarios.
    pub fn paper_four_weeks(seed: u64) -> Result<Vec<Scenario>> {
        (0..4).map(|w| Scenario::paper_week(seed, w)).collect()
    }

    /// A [`Scenario::paper_week`]-style Abilene scenario over an arbitrary
    /// window length: the Table 3 anomaly mix drawn for `num_bins` bins
    /// with the default demand. The fault-storm suite uses day-scale
    /// windows (288 bins) so export frames can be rendered and mutated
    /// bin-by-bin in reasonable time.
    ///
    /// # Errors
    ///
    /// As for [`Scenario::new`].
    pub fn paper_window(seed: u64, num_bins: usize) -> Result<Scenario> {
        let config = ScenarioConfig { seed, num_bins, ..Default::default() };
        let schedule = schedule_for(config.seed, num_bins, 0, 11, 1);
        Scenario::new(config, schedule)
    }

    /// The synthetic large-mesh workload: [`LARGE_MESH_POPS`] PoPs
    /// (ring+chord backbone, /21 address plan), heterogeneous gravity
    /// weights, and a 3x-scaled Table 3 anomaly mix spread across the
    /// mesh. The window comes from [`ScenarioConfig::large_mesh`] with the
    /// given seed.
    ///
    /// # Errors
    ///
    /// As for [`Scenario::with_network`].
    pub fn large_mesh(seed: u64) -> Result<Scenario> {
        Scenario::large_mesh_with(ScenarioConfig { seed, ..ScenarioConfig::large_mesh() })
    }

    /// [`Scenario::large_mesh`] with an explicit configuration (the perf
    /// harness shrinks the window for quick CI runs).
    ///
    /// # Errors
    ///
    /// As for [`Scenario::with_network`].
    pub fn large_mesh_with(config: ScenarioConfig) -> Result<Scenario> {
        let topology = Topology::synthetic_mesh(LARGE_MESH_POPS).expect("mesh topology is valid");
        let plan = AddressPlan::synthetic_large(&topology);
        let weights = mesh_gravity_weights(LARGE_MESH_POPS);
        let schedule = schedule_for(config.seed, config.num_bins, 0, LARGE_MESH_POPS, 3);
        Scenario::with_network(config, topology, plan, weights, schedule)
    }

    /// Builds the generator for this scenario.
    pub fn generator(&self) -> TraceGenerator<'_> {
        TraceGenerator {
            scenario: self,
            gravity: GravityModel::new(self.gravity_weights.clone(), self.config.total_demand)
                .expect("weights validated at scenario construction"),
        }
    }
}

/// Deterministic heterogeneous gravity weights for the synthetic mesh: a
/// hash-spread in `[0.35, 2.15)`, giving a few heavy hubs and a long tail
/// of small PoPs, as in real backbones.
fn mesh_gravity_weights(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let h = (i as u64 ^ 0x5EED).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
            0.35 + 1.8 * frac
        })
        .collect()
}

/// Renders a [`Scenario`] bin by bin.
#[derive(Debug, Clone)]
pub struct TraceGenerator<'a> {
    scenario: &'a Scenario,
    gravity: GravityModel,
}

impl<'a> TraceGenerator<'a> {
    /// The scenario being rendered.
    pub fn scenario(&self) -> &Scenario {
        self.scenario
    }

    /// Number of bins in the trace.
    pub fn num_bins(&self) -> usize {
        self.scenario.config.num_bins
    }

    /// Trace-epoch start of bin `bin`.
    pub fn bin_start(&self, bin: usize) -> u64 {
        self.scenario.config.start_secs + bin as u64 * self.scenario.config.bin_secs
    }

    /// The *unperturbed* baseline mean of a cell (gravity x diurnal), before
    /// anomaly modifiers — exposed for ground-truth calibration and tests.
    pub fn base_mean(&self, bin: usize, origin: PopId, destination: PopId) -> f64 {
        self.gravity.od_mean(origin, destination) * self.diurnal_multiplier(bin, origin)
    }

    /// The seasonal multiplier of every cell of `bin` whose origin is
    /// `origin`: a function of the bin and the origin's timezone only.
    fn diurnal_multiplier(&self, bin: usize, origin: PopId) -> f64 {
        let tz = ABILENE_TZ_OFFSET_HOURS[origin % ABILENE_TZ_OFFSET_HOURS.len()];
        self.scenario.config.diurnal.multiplier(self.bin_start(bin), tz)
    }

    /// The effective mean after OUTAGE / INGRESS-SHIFT modifiers.
    pub fn effective_mean(&self, bin: usize, origin: PopId, destination: PopId) -> f64 {
        let base = |o, d| self.base_mean(bin, o, d);
        perturbed_mean(bin, origin, destination, base, self.scenario.schedule.iter())
    }

    /// Renders all sampled flow records of one bin: baseline for every OD
    /// cell plus every active anomaly's injected records. Deterministic in
    /// `(scenario seed, bin)`.
    pub fn records_for_bin(&self, bin: usize) -> Vec<FlowRecord> {
        let mut out = Vec::new();
        self.records_for_bin_into(bin, &mut |r| out.push(r));
        out
    }

    /// Streaming variant of [`records_for_bin`](Self::records_for_bin):
    /// emits every record of the bin through `sink`, in the exact order
    /// [`records_for_bin`](Self::records_for_bin) would list them, without
    /// materializing the bin. The fused generate→bin path renders whole
    /// shards of bins straight into the ingest engine this way.
    pub fn records_for_bin_into(&self, bin: usize, sink: &mut impl FnMut(FlowRecord)) {
        let cfg = &self.scenario.config;
        let n = self.scenario.topology.num_pops();
        let bin_start = self.bin_start(bin);
        // Only anomalies active in this bin can perturb a mean, so the
        // prefilter skips the O(|schedule|) scan per cell without changing
        // a bit of the result (see `perturbed_mean`).
        let active: Vec<&InjectedAnomaly> =
            self.scenario.schedule.iter().filter(|a| a.active_in(bin)).collect();
        // `base_mean` with its diurnal factor — two `rem_euclid` and a
        // `cos` that depend on (bin, origin) alone — evaluated once per
        // origin instead of once per cell: the same value in the same
        // product. An INGRESS-SHIFT reads other origins' baselines, so the
        // table covers every origin before the first cell is rendered.
        let diurnal: Vec<f64> = (0..n).map(|o| self.diurnal_multiplier(bin, o)).collect();
        let base = |o: PopId, d: PopId| self.gravity.od_mean(o, d) * diurnal[o];
        for origin in 0..n {
            for destination in 0..n {
                let od = origin * n + destination;
                let mean = perturbed_mean(bin, origin, destination, base, active.iter().copied());
                let mut rng = cell_rng(cfg.seed, bin as u64, od as u64, Stream::Baseline);
                synthesize_cell_into(
                    &cfg.baseline,
                    &self.scenario.plan,
                    origin,
                    destination,
                    mean,
                    bin_start,
                    cfg.bin_secs,
                    &mut rng,
                    sink,
                );
            }
        }
        for a in &active {
            for r in a.synthesize(cfg.seed, bin, bin_start, cfg.bin_secs, &self.scenario.plan) {
                sink(r);
            }
        }
    }

    /// The sharded ingest engine over this scenario's network, after
    /// checking that `config` shares the scenario's bin grid.
    fn engine(
        &self,
        config: odflow_flow::PipelineConfig,
        ingress: odflow_net::IngressResolver,
        routes: odflow_net::RouteTable,
    ) -> odflow_flow::Result<odflow_flow::ShardedIngest> {
        let cfg = &self.scenario.config;
        if config.start_secs != cfg.start_secs || config.bin_secs != cfg.bin_secs {
            return Err(odflow_flow::FlowError::WindowMisaligned {
                reason: format!(
                    "pipeline window (start {} s, bins of {} s) vs scenario grid \
                     (start {} s, bins of {} s)",
                    config.start_secs, config.bin_secs, cfg.start_secs, cfg.bin_secs
                ),
            });
        }
        odflow_flow::ShardedIngest::new(config, &self.scenario.topology, ingress, routes)
    }

    /// The fused generate→bin path: renders every bin of the scenario
    /// **directly into** the shards of a sharded ingest engine
    /// ([`ShardedIngest::fill_shards`](odflow_flow::ShardedIngest::fill_shards)),
    /// producing the OD traffic matrices without ever materializing a
    /// record batch or a second copy of a cell.
    ///
    /// Each [`BinShard`](odflow_flow::BinShard) owns a contiguous bin
    /// range; the pool renders shard ranges concurrently, and since a
    /// bin's records never leave its shard, the result is bit-identical to
    /// pushing [`records_for_bin`](Self::records_for_bin) output through
    /// the serial [`odflow_flow::MeasurementPipeline`] — for any
    /// `ODFLOW_THREADS`. A shard is finished once its range is rendered,
    /// so the distinct 5-tuples resident at any moment are those of the
    /// shards being filled, not the window's.
    ///
    /// `config` must share the scenario's bin grid (same `start_secs` and
    /// `bin_secs` — bin-range shard routing relies on scenario bin `b`
    /// being engine bin `b`); its `num_bins` may differ freely. A shorter
    /// engine window counts the scenario's trailing bins as out-of-window
    /// drops, a longer one leaves the extra bins empty — exactly as the
    /// serial pipeline treats them.
    ///
    /// # Errors
    ///
    /// * [`odflow_flow::FlowError::WindowMisaligned`] when the bin grids
    ///   disagree.
    /// * Propagates engine construction/fill errors from `odflow_flow`.
    pub fn bin_scenario(
        &self,
        config: odflow_flow::PipelineConfig,
        ingress: odflow_net::IngressResolver,
        routes: odflow_net::RouteTable,
    ) -> odflow_flow::Result<odflow_flow::IngestOutcome> {
        let engine = self.engine(config, ingress, routes)?;
        let gen_bins = self.num_bins();
        engine.fill_shards(|_, shard| {
            let own = shard.bins();
            // Scenario bins beyond the engine window (if any) still reach
            // the pipeline in the serial path — as counted drops. The last
            // shard absorbs them so the accounting matches exactly.
            let beyond = if own.end == engine.num_bins() { own.end..gen_bins } else { 0..0 };
            for bin in (own.start..own.end.min(gen_bins)).chain(beyond) {
                let mut err = None;
                self.records_for_bin_into(bin, &mut |record| {
                    if err.is_none() {
                        err = shard.push_sampled_record(record).err();
                    }
                });
                if let Some(e) = err {
                    return Err(e);
                }
            }
            Ok(())
        })
    }

    /// Renders one bin's records as NetFlow v5 export frames, one exporter
    /// per PoP router, with per-exporter `flow_sequence` continuity across
    /// bins carried in `seqs` (length = PoP count; caller starts at zeros
    /// and passes the same slice for every consecutive bin).
    ///
    /// Records keep the exact [`records_for_bin`](Self::records_for_bin)
    /// order within each exporter; frames are emitted in PoP order. The
    /// export timestamp is the bin start, the sampling interval is
    /// Abilene's 1% (interval 100).
    pub fn frames_for_bin(&self, bin: usize, seqs: &mut [u32]) -> Vec<Vec<u8>> {
        let n = self.scenario.topology.num_pops();
        assert_eq!(seqs.len(), n, "one sequence counter per PoP exporter");
        let mut by_router: Vec<Vec<FlowRecord>> = vec![Vec::new(); n];
        self.records_for_bin_into(bin, &mut |r| {
            if r.router < n {
                by_router[r.router].push(r);
            }
        });
        let interval = (1.0 / odflow_flow::ABILENE_SAMPLING_RATE).round() as u16;
        let export_secs = self.bin_start(bin) as u32;
        let mut frames = Vec::new();
        for (router, recs) in by_router.iter().enumerate() {
            if recs.is_empty() {
                continue;
            }
            frames.extend(odflow_flow::netflow::encode_datagrams(
                recs,
                export_secs,
                router as u8,
                interval,
                seqs[router],
            ));
            seqs[router] = seqs[router].wrapping_add(recs.len() as u32);
        }
        frames
    }

    /// The scenario's whole export stream as a collector would receive it:
    /// every bin rendered by [`frames_for_bin`](Self::frames_for_bin) with
    /// sequence continuity across bins, each bin's frames passed through
    /// `faults` (when given) before the next is rendered. Bins ascending,
    /// PoP-exporter order within a bin — the order both the batch wire
    /// path and the load generator consume. The returned stats count the
    /// frames rendered (`frames_offered`) and every mutation applied.
    pub fn faulted_frames(
        &self,
        faults: Option<&FaultSchedule>,
    ) -> (Vec<Vec<u8>>, FaultStormStats) {
        let mut storm = FaultStormStats::default();
        let mut seqs = vec![0u32; self.scenario.topology.num_pops()];
        let mut stream = Vec::new();
        for bin in 0..self.num_bins() {
            let frames = self.frames_for_bin(bin, &mut seqs);
            match faults {
                Some(schedule) => stream.extend(schedule.apply_to_frames(bin, frames, &mut storm)),
                None => {
                    storm.frames_offered += frames.len() as u64;
                    stream.extend(frames);
                }
            }
        }
        (stream, storm)
    }

    /// The fault-storm pipeline: [`faulted_frames`](Self::faulted_frames)
    /// under `faults`, ingested through
    /// [`ShardedIngest::ingest_datagrams`](odflow_flow::ShardedIngest::ingest_datagrams)
    /// (malformed frames and implausible records quarantined, exact
    /// retransmits deduplicated, survivors binned on the parallel sharded
    /// path), then
    /// [`IngestOutcome::repair`](odflow_flow::IngestOutcome::repair)
    /// interpolates or masks outage bins under the default
    /// [`RepairPolicy`](odflow_flow::RepairPolicy). The result is
    /// bit-identical for any `ODFLOW_THREADS`: rendering, faulting and
    /// frame admission are serial and in order, and the fill stage is the
    /// determinism-pinned sharded path.
    ///
    /// # Errors
    ///
    /// As for [`bin_scenario`](Self::bin_scenario).
    pub fn bin_scenario_faulted(
        &self,
        config: odflow_flow::PipelineConfig,
        ingress: odflow_net::IngressResolver,
        routes: odflow_net::RouteTable,
        faults: &FaultSchedule,
    ) -> odflow_flow::Result<(odflow_flow::IngestOutcome, FaultStormStats)> {
        let engine = self.engine(config, ingress, routes)?;
        let (frames, storm) = self.faulted_frames(Some(faults));
        let mut outcome = engine.ingest_datagrams(&frames)?;
        outcome.repair(odflow_flow::RepairPolicy::default());
        Ok((outcome, storm))
    }
}

/// Folds anomaly modifiers over the baseline mean `base(origin,
/// destination)` of one cell of `bin`. The one implementation behind both
/// [`TraceGenerator::effective_mean`] (full schedule) and the rendering hot
/// path (per-bin active subset — bit-identical, since inactive modifiers
/// multiply by exactly 1.0 and add exactly 0.0).
fn perturbed_mean<'b>(
    bin: usize,
    origin: PopId,
    destination: PopId,
    base: impl Fn(PopId, PopId) -> f64,
    anomalies: impl Iterator<Item = &'b InjectedAnomaly>,
) -> f64 {
    let mut mean = base(origin, destination);
    for a in anomalies {
        mean *= a.baseline_factor(bin, origin, destination);
        mean += a.shifted_in_mean(bin, origin, destination, &base);
    }
    mean
}

/// Builds an anomaly schedule with the paper's Table 3 mix, generalized
/// over the PoP count and an overall intensity `scale`.
///
/// At `n_pops = 11, scale = 1` this is exactly the paper-week schedule
/// (per week, approximating 4-week totals of ALPHA 137, FLASH 64, SCAN 56,
/// DOS 44, INGRESS-SHIFT 4, OUTAGE 3, PTMP 3, WORM 2): 34 ALPHA, 16 flash
/// crowds, 14 scans, 9 DOS + 2 DDOS, 1 ingress shift, and on rotating weeks
/// an outage / point-multipoint / worm event. Larger meshes pass a larger
/// `scale` so anomaly density grows with the OD space. Anomalies that do
/// not fit a short window (sub-day perf profiles) are filtered out at the
/// end rather than truncated, keeping the RNG stream — and therefore every
/// surviving anomaly — independent of the window length.
fn schedule_for(
    seed: u64,
    num_bins: usize,
    week: u64,
    n_pops: usize,
    scale: usize,
) -> Vec<InjectedAnomaly> {
    let mut rng = cell_rng(seed, week, 0, Stream::Anomaly(0x5C_4E_D0));
    let mut schedule = Vec::new();
    let mut id = week * 1000;

    // Keep anomalies clear of the first bins so detection has warm-up data,
    // and clear of the end so durations fit. Short windows shrink the
    // margin; placement degrades to the window edge when nothing fits —
    // drawing unconditionally either way, so the RNG stream consumes one
    // value per placement (the vendored `gen_range` is a single widening
    // multiply) regardless of the window length.
    let margin = (num_bins / 12).min(24);
    let place = |rng: &mut rand_chacha::ChaCha8Rng, duration: usize| -> usize {
        let hi = num_bins.saturating_sub(duration + margin);
        if hi <= margin {
            let _ = rng.gen_range(0..num_bins.max(1));
            margin.min(num_bins.saturating_sub(duration))
        } else {
            rng.gen_range(margin..hi)
        }
    };
    let rand_pair = |rng: &mut rand_chacha::ChaCha8Rng| -> (usize, usize) {
        let o = rng.gen_range(0..n_pops);
        let mut d = rng.gen_range(0..n_pops);
        if d == o {
            d = (d + 1) % n_pops;
        }
        (o, d)
    };

    // ALPHA flows: dominant class, bandwidth experiments on 5000-5050 /
    // 56117 / 1412 (paper §4). Short (1-2 bins), single OD pair. The
    // log-spread intensity makes small transfers surface in one view only
    // (B or P) while big ones appear as BP — reproducing Table 3's ALPHA
    // row (B 59, P 54, BP 19).
    for i in 0..34 * scale {
        let duration = 1 + rng.gen_range(0..2);
        let start = place(&mut rng, duration);
        let port =
            *[5001u16, 5010, 5050, 56117, 1412].get(rng.gen_range(0..5)).expect("static list");
        // Three transfer profiles sized against the per-view noise floors
        // (B fires at ~6.8e5 bytes, P at ~560 packets). Abilene carried
        // 9000-byte jumbo frames, and the bandwidth experiments behind
        // most ALPHA events used them: a jumbo transfer is byte-visible
        // from ~80 packets, far under the packet floor (→ B-only).
        // Small-packet streams in the 600-950 pkt band stay under the
        // byte floor (→ P-only); large MTU transfers hit both (→ BP).
        // Proportions follow Table 3's ALPHA row (B 59, P 54, BP 19).
        let (intensity, packet_bytes) = match i % 7 {
            0..=2 => (120.0 + rng.gen::<f64>() * 350.0, 9000), // B-only band
            3..=5 => (620.0 + rng.gen::<f64>() * 330.0, 560),  // P-only band
            _ => (2000.0 + rng.gen::<f64>() * 4000.0, 1500),   // BP
        };
        schedule.push(InjectedAnomaly {
            id: {
                id += 1;
                id
            },
            kind: AnomalyKind::Alpha,
            start_bin: start,
            duration_bins: duration,
            od_pairs: vec![rand_pair(&mut rng)],
            intensity,
            port,
            scan_mode: ScanMode::Network,
            shift_to: None,
            packets_per_flow: 0.0,
            packet_bytes,
        });
    }

    // Flash crowds: port 80/53, 1-3 bins, single OD pair. Low per-client
    // packet counts keep most flash crowds in the F view only (the
    // 130-200 flow band sits above the F floor of ~120 but under the
    // packet floor), with a quarter big enough to cross into FP
    // (Table 3: F 50, FP 10).
    for i in 0..16 * scale {
        let duration = 1 + rng.gen_range(0..3);
        let start = place(&mut rng, duration);
        let intensity = if i % 4 == 0 {
            260.0 + rng.gen::<f64>() * 200.0 // FP band
        } else {
            130.0 + rng.gen::<f64>() * 70.0 // F-only band
        };
        schedule.push(InjectedAnomaly {
            id: {
                id += 1;
                id
            },
            kind: AnomalyKind::FlashCrowd,
            start_bin: start,
            duration_bins: duration,
            od_pairs: vec![rand_pair(&mut rng)],
            intensity,
            port: if rng.gen::<f64>() < 0.8 { 80 } else { 53 },
            scan_mode: ScanMode::Network,
            shift_to: None,
            packets_per_flow: 1.0,
            packet_bytes: 0,
        });
    }

    // Scans: NetBIOS sweeps and port scans, 1-2 bins. Intensity sits well
    // above the flow-view noise floor but only marginally above the
    // packet-view floor, so scans surface mostly as F anomalies with an
    // occasional FP — the mixture Table 3 reports.
    for i in 0..14 * scale {
        let duration = 1 + rng.gen_range(0..2);
        let start = place(&mut rng, duration);
        schedule.push(InjectedAnomaly {
            id: {
                id += 1;
                id
            },
            kind: AnomalyKind::Scan,
            start_bin: start,
            duration_bins: duration,
            od_pairs: vec![rand_pair(&mut rng)],
            intensity: 250.0 + rng.gen::<f64>() * 200.0,
            port: 139,
            scan_mode: if i % 3 == 0 { ScanMode::Port } else { ScanMode::Network },
            shift_to: None,
            packets_per_flow: 0.0,
            packet_bytes: 0,
        });
    }

    // DOS: port 0 / 110 / 113 floods, 1-4 bins. Two flavors, as in the
    // paper's Table 3 (DOS detected in F 19 and P 18 nearly evenly):
    // flow-dense floods (many spoofed 5-tuples, 1-3 packets each) spike F;
    // packet-dense floods (fewer 5-tuples, tens of packets each) spike P.
    for i in 0..9 * scale {
        let duration = 1 + rng.gen_range(0..4);
        let start = place(&mut rng, duration);
        let port = *[0u16, 110, 113].get(rng.gen_range(0..3)).expect("static list");
        let (intensity, ppf) = match i % 5 {
            0 | 1 => (150.0 + rng.gen::<f64>() * 180.0, 1.0), // F-only flood
            2 | 3 => (70.0 + rng.gen::<f64>() * 40.0, 18.0),  // P-only flood
            _ => (500.0 + rng.gen::<f64>() * 400.0, 2.0),     // FP flood
        };
        schedule.push(InjectedAnomaly {
            id: {
                id += 1;
                id
            },
            kind: AnomalyKind::Dos,
            start_bin: start,
            duration_bins: duration,
            od_pairs: vec![rand_pair(&mut rng)],
            intensity,
            port,
            scan_mode: ScanMode::Network,
            shift_to: None,
            packets_per_flow: ppf,
            packet_bytes: 0,
        });
    }

    // DDOS: several origins, one victim.
    for _ in 0..2 * scale {
        let duration = 2 + rng.gen_range(0..3);
        let start = place(&mut rng, duration);
        let victim = rng.gen_range(0..n_pops);
        let mut origins: Vec<usize> = (0..n_pops).filter(|&p| p != victim).collect();
        // Deterministic subset of 3-4 origins.
        for i in (1..origins.len()).rev() {
            origins.swap(i, rng.gen_range(0..=i));
        }
        origins.truncate(3 + rng.gen_range(0..2));
        schedule.push(InjectedAnomaly {
            id: {
                id += 1;
                id
            },
            kind: AnomalyKind::Ddos,
            start_bin: start,
            duration_bins: duration,
            od_pairs: origins.into_iter().map(|o| (o, victim)).collect(),
            intensity: 1100.0 + rng.gen::<f64>() * 700.0,
            port: 0,
            scan_mode: ScanMode::Network,
            shift_to: None,
            packets_per_flow: 0.0,
            packet_bytes: 0,
        });
    }

    // One ingress shift per week (multihomed customer, LOSA -> SNVA style).
    for _ in 0..scale {
        let from = rng.gen_range(0..n_pops);
        let to = (from + 1 + rng.gen_range(0..(n_pops - 1))) % n_pops;
        let duration = 6 + rng.gen_range(0..18);
        let start = place(&mut rng, duration);
        let dests: Vec<usize> = (0..n_pops).filter(|&d| d != from && d != to).take(4).collect();
        schedule.push(InjectedAnomaly {
            id: {
                id += 1;
                id
            },
            kind: AnomalyKind::IngressShift,
            start_bin: start,
            duration_bins: duration,
            od_pairs: dests.into_iter().map(|d| (from, d)).collect(),
            intensity: 0.0,
            port: 0,
            scan_mode: ScanMode::Network,
            shift_to: Some(to),
            packets_per_flow: 0.0,
            packet_bytes: 0,
        });
    }

    // Rotating rare events across weeks: outage, point-multipoint, worm.
    for _ in 0..scale {
        match week % 4 {
            0 | 3 => {
                // Scheduled maintenance outage at one PoP (affects its pairs).
                let pop = rng.gen_range(0..n_pops);
                let duration = 12 + rng.gen_range(0..24); // 1-3 hours
                let start = place(&mut rng, duration);
                let mut pairs = Vec::new();
                for other in 0..n_pops {
                    if other != pop {
                        pairs.push((pop, other));
                        pairs.push((other, pop));
                    }
                }
                // A PoP outage silences every pair touching the PoP; keeping
                // the full footprint makes the dip strong enough in all three
                // views that the event's typeset stays stable for its whole
                // (hours-long) duration — the paper's Figure 2 duration tail.
                pairs.truncate(16);
                schedule.push(InjectedAnomaly {
                    id: {
                        id += 1;
                        id
                    },
                    kind: AnomalyKind::Outage,
                    start_bin: start,
                    duration_bins: duration,
                    od_pairs: pairs,
                    intensity: 0.0,
                    port: 0,
                    scan_mode: ScanMode::Network,
                    shift_to: None,
                    packets_per_flow: 0.0,
                    packet_bytes: 0,
                });
            }
            1 => {
                // News server broadcast (nntp 119).
                let duration = 2 + rng.gen_range(0..3);
                let start = place(&mut rng, duration);
                schedule.push(InjectedAnomaly {
                    id: {
                        id += 1;
                        id
                    },
                    kind: AnomalyKind::PointMultipoint,
                    start_bin: start,
                    duration_bins: duration,
                    od_pairs: vec![rand_pair(&mut rng)],
                    intensity: 7000.0,
                    port: 119,
                    scan_mode: ScanMode::Network,
                    shift_to: None,
                    packets_per_flow: 0.0,
                    packet_bytes: 0,
                });
            }
            _ => {
                // Worm remnants on 1433 (SQL-Snake) across several pairs.
                let duration = 2 + rng.gen_range(0..4);
                let start = place(&mut rng, duration);
                let pairs: Vec<(usize, usize)> = (0..3).map(|_| rand_pair(&mut rng)).collect();
                schedule.push(InjectedAnomaly {
                    id: {
                        id += 1;
                        id
                    },
                    kind: AnomalyKind::Worm,
                    start_bin: start,
                    duration_bins: duration,
                    od_pairs: pairs,
                    intensity: 800.0,
                    port: 1433,
                    scan_mode: ScanMode::Network,
                    shift_to: None,
                    packets_per_flow: 0.0,
                    packet_bytes: 0,
                });
            }
        }
    }

    // Drop anomalies that cannot fit the window (short perf profiles).
    schedule.retain(|a| a.end_bin() < num_bins);
    schedule.sort_by_key(|a| a.start_bin);
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_scenario(schedule: Vec<InjectedAnomaly>) -> Scenario {
        let config = ScenarioConfig {
            num_bins: 288, // one day
            total_demand: 800.0,
            ..Default::default()
        };
        Scenario::new(config, schedule).unwrap()
    }

    #[test]
    fn rejects_invalid_schedules() {
        let mk = |start: usize, dur: usize, od: Vec<(usize, usize)>| InjectedAnomaly {
            id: 1,
            kind: AnomalyKind::Dos,
            start_bin: start,
            duration_bins: dur,
            od_pairs: od,
            intensity: 100.0,
            port: 0,
            scan_mode: ScanMode::Network,
            shift_to: None,
            packets_per_flow: 0.0,
            packet_bytes: 0,
        };
        let cfg = ScenarioConfig { num_bins: 100, ..Default::default() };
        assert!(Scenario::new(cfg.clone(), vec![mk(99, 5, vec![(0, 1)])]).is_err());
        assert!(Scenario::new(cfg.clone(), vec![mk(1, 0, vec![(0, 1)])]).is_err());
        assert!(Scenario::new(cfg.clone(), vec![mk(1, 2, vec![])]).is_err());
        assert!(Scenario::new(cfg.clone(), vec![mk(1, 2, vec![(11, 0)])]).is_err());
        assert!(Scenario::new(cfg, vec![mk(1, 2, vec![(0, 1)])]).is_ok());
        let empty = ScenarioConfig { num_bins: 0, ..Default::default() };
        assert!(matches!(Scenario::new(empty, vec![]), Err(GenError::EmptyScenario)));
    }

    #[test]
    fn generator_deterministic() {
        let s = small_scenario(vec![]);
        let g = s.generator();
        let a = g.records_for_bin(17);
        let b = g.records_for_bin(17);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn streaming_render_matches_collected_render() {
        let s = Scenario::paper_week(3, 0).unwrap();
        let g = s.generator();
        // A bin inside an anomaly window, if any starts early enough.
        for bin in [30usize, 100, 500] {
            let collected = g.records_for_bin(bin);
            let mut streamed = Vec::new();
            g.records_for_bin_into(bin, &mut |r| streamed.push(r));
            assert_eq!(collected, streamed, "bin {bin}");
        }
    }

    #[test]
    fn bin_scenario_matches_serial_pipeline_for_any_thread_count() {
        use odflow_flow::{MeasurementPipeline, PipelineConfig};
        use odflow_net::IngressResolver;
        let s = small_scenario(vec![]);
        let g = s.generator();
        let routes = s.plan.build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&s.topology);
        let cfg = PipelineConfig::abilene(s.config.start_secs, s.config.num_bins);

        let mut serial =
            MeasurementPipeline::new(cfg, &s.topology, ingress.clone(), routes.clone()).unwrap();
        for bin in 0..g.num_bins() {
            for r in g.records_for_bin(bin) {
                serial.push_sampled_record(r).unwrap();
            }
        }
        let (serial_set, serial_stats) = serial.finalize().unwrap();

        for &threads in &[1usize, 4, 32] {
            let outcome = odflow_par::with_thread_limit(threads, || {
                g.bin_scenario(cfg, ingress.clone(), routes.clone()).unwrap()
            });
            assert_eq!(outcome.stats, serial_stats, "threads={threads}");
            assert_eq!(outcome.dropped_out_of_window, 0);
            assert_eq!(
                outcome.matrices.bytes.data.as_slice(),
                serial_set.bytes.data.as_slice(),
                "threads={threads}"
            );
            assert_eq!(
                outcome.matrices.packets.data.as_slice(),
                serial_set.packets.data.as_slice()
            );
            assert_eq!(outcome.matrices.flows.data.as_slice(), serial_set.flows.data.as_slice());
        }
    }

    #[test]
    fn bin_scenario_counts_out_of_window_bins_as_drops() {
        use odflow_flow::PipelineConfig;
        use odflow_net::IngressResolver;
        // Scenario renders 288 bins but the engine window only covers 280:
        // the last 8 bins' resolvable records must be counted as drops,
        // exactly as the serial pipeline would.
        let s = small_scenario(vec![]);
        let g = s.generator();
        let routes = s.plan.build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&s.topology);
        let cfg = PipelineConfig::abilene(0, 280);
        let outcome = g.bin_scenario(cfg, ingress, routes).unwrap();
        assert_eq!(outcome.matrices.num_bins(), 280);
        assert!(outcome.dropped_out_of_window > 0, "trailing bins must be counted");
    }

    #[test]
    fn faulted_path_with_no_faults_matches_record_path() {
        use odflow_flow::PipelineConfig;
        use odflow_net::IngressResolver;
        let config = ScenarioConfig { num_bins: 24, total_demand: 400.0, ..Default::default() };
        let s = Scenario::new(config, vec![]).unwrap();
        let g = s.generator();
        let routes = s.plan.build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&s.topology);
        let cfg = PipelineConfig::abilene(0, 24);
        let clean = g.bin_scenario(cfg, ingress.clone(), routes.clone()).unwrap();
        let no_faults = FaultSchedule::new(1, vec![]).unwrap();
        let (faulted, storm) = g.bin_scenario_faulted(cfg, ingress, routes, &no_faults).unwrap();
        assert_eq!(storm.frames_dropped_outage + storm.frames_dropped_loss, 0);
        assert!(storm.frames_offered > 0);
        assert_eq!(faulted.matrices.bytes.data.as_slice(), clean.matrices.bytes.data.as_slice());
        assert_eq!(
            faulted.matrices.packets.data.as_slice(),
            clean.matrices.packets.data.as_slice()
        );
        assert_eq!(faulted.matrices.flows.data.as_slice(), clean.matrices.flows.data.as_slice());
        assert!(faulted.quality.quarantine.is_conserved());
        assert_eq!(faulted.quality.quarantine.frames_rejected(), 0);
        assert_eq!(faulted.quality.exporters.lost_flows_total(), 0);
        assert!(faulted.quality.masked_bins().is_empty());
    }

    #[test]
    fn faulted_path_is_deterministic_across_thread_counts() {
        use odflow_flow::{BinStatus, PipelineConfig};
        use odflow_net::IngressResolver;
        let config = ScenarioConfig { num_bins: 48, total_demand: 400.0, ..Default::default() };
        let s = Scenario::new(config, vec![]).unwrap();
        let g = s.generator();
        let routes = s.plan.build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&s.topology);
        let cfg = PipelineConfig::abilene(0, 48);
        let faults = FaultSchedule::storm(99, 48).unwrap();
        let run = |threads: usize| {
            odflow_par::with_thread_limit(threads, || {
                g.bin_scenario_faulted(cfg, ingress.clone(), routes.clone(), &faults).unwrap()
            })
        };
        let (a, sa) = run(1);
        let (b, sb) = run(4);
        assert_eq!(sa, sb);
        assert_eq!(a.quality.quarantine, b.quality.quarantine);
        assert_eq!(a.quality.bins, b.quality.bins);
        assert_eq!(a.matrices.bytes.data.as_slice(), b.matrices.bytes.data.as_slice());
        assert_eq!(a.matrices.packets.data.as_slice(), b.matrices.packets.data.as_slice());
        assert_eq!(a.matrices.flows.data.as_slice(), b.matrices.flows.data.as_slice());
        // The storm leaves real damage behind.
        assert!(a.quality.quarantine.frames_rejected() > 0);
        assert!(sa.frames_dropped_outage > 0);
        assert!(a.quality.bins.contains(&BinStatus::Masked));
        assert!(a.quality.quarantine.is_conserved());
    }

    #[test]
    fn frames_carry_sequence_continuity_across_bins() {
        let config = ScenarioConfig { num_bins: 4, total_demand: 300.0, ..Default::default() };
        let s = Scenario::new(config, vec![]).unwrap();
        let g = s.generator();
        let (frames, storm) = g.faulted_frames(None);
        assert_eq!(storm.frames_offered, frames.len() as u64);
        let mut quality = odflow_flow::DataQuality::clean(4);
        for f in &frames {
            let admitted = quality.admit_frame(f).expect("clean frame");
            assert!(admitted.1.is_some(), "no frame of a clean stream is a retransmit");
        }
        assert_eq!(quality.exporters.lost_flows_total(), 0, "continuous sequences show no loss");
        assert_eq!(quality.quarantine.frames_rejected(), 0);
        // The stream is the per-bin render with one set of counters.
        let mut seqs = vec![0u32; s.topology.num_pops()];
        let direct: Vec<Vec<u8>> = (0..4).flat_map(|b| g.frames_for_bin(b, &mut seqs)).collect();
        assert_eq!(frames, direct);
    }

    #[test]
    fn bin_scenario_rejects_misaligned_window() {
        use odflow_flow::{FlowError, PipelineConfig};
        use odflow_net::IngressResolver;
        let s = small_scenario(vec![]);
        let g = s.generator();
        let routes = s.plan.build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&s.topology);
        // Offset start: scenario bin b is no longer engine bin b.
        let shifted = PipelineConfig::abilene(300, s.config.num_bins);
        assert!(matches!(
            g.bin_scenario(shifted, ingress.clone(), routes.clone()),
            Err(FlowError::WindowMisaligned { .. })
        ));
        let mut coarse = PipelineConfig::abilene(0, s.config.num_bins);
        coarse.bin_secs = 600;
        assert!(matches!(
            g.bin_scenario(coarse, ingress, routes),
            Err(FlowError::WindowMisaligned { .. })
        ));
    }

    #[test]
    fn large_mesh_scenario_shape() {
        let s = Scenario::large_mesh(9).unwrap();
        assert_eq!(s.topology.num_pops(), LARGE_MESH_POPS);
        assert_eq!(s.topology.num_od_pairs(), 90_000);
        assert_eq!(s.gravity_weights.len(), LARGE_MESH_POPS);
        assert_eq!(s.config.num_bins, 288);
        // 3x-scaled mix: 102 ALPHA etc., all inside the window and mesh.
        let count = |k: AnomalyKind| s.schedule.iter().filter(|a| a.kind == k).count();
        assert_eq!(count(AnomalyKind::Alpha), 102);
        assert_eq!(count(AnomalyKind::IngressShift), 3);
        for a in &s.schedule {
            assert!(a.end_bin() < s.config.num_bins);
            for &(o, d) in &a.od_pairs {
                assert!(o < LARGE_MESH_POPS && d < LARGE_MESH_POPS);
            }
        }
        // The gravity split remains a proper distribution at mesh scale.
        let g = s.generator();
        assert!(g.base_mean(0, 0, 1) > 0.0);
    }

    #[test]
    fn large_mesh_short_window_filters_unfit_anomalies() {
        let cfg = ScenarioConfig { num_bins: 24, ..ScenarioConfig::large_mesh() };
        let s = Scenario::large_mesh_with(cfg).unwrap();
        assert_eq!(s.config.num_bins, 24);
        for a in &s.schedule {
            assert!(a.end_bin() < 24);
        }
    }

    #[test]
    fn different_bins_differ() {
        let s = small_scenario(vec![]);
        let g = s.generator();
        assert_ne!(g.records_for_bin(10), g.records_for_bin(11));
    }

    #[test]
    fn diurnal_cycle_visible_in_totals() {
        let s = small_scenario(vec![]);
        let g = s.generator();
        // Bin at 15:00 (peak) vs bin at 03:00 (trough), Eastern.
        let peak_bin = 15 * 12;
        let trough_bin = 3 * 12;
        let peak: u64 = g.records_for_bin(peak_bin).iter().map(|r| r.packets).sum();
        let trough: u64 = g.records_for_bin(trough_bin).iter().map(|r| r.packets).sum();
        assert!(
            peak as f64 > trough as f64 * 1.5,
            "diurnal peak {peak} should dominate trough {trough}"
        );
    }

    #[test]
    fn outage_empties_affected_cells() {
        let outage = InjectedAnomaly {
            id: 5,
            kind: AnomalyKind::Outage,
            start_bin: 100,
            duration_bins: 20,
            od_pairs: vec![(6, 0)],
            intensity: 0.0,
            port: 0,
            scan_mode: ScanMode::Network,
            shift_to: None,
            packets_per_flow: 0.0,
            packet_bytes: 0,
        };
        let s = small_scenario(vec![outage]);
        let g = s.generator();
        let before = g.effective_mean(99, 6, 0);
        let during = g.effective_mean(105, 6, 0);
        assert!(during < before * 0.05, "outage mean {during} vs before {before}");
        // Unaffected pair keeps its mean.
        assert!((g.effective_mean(105, 0, 1) - g.base_mean(105, 0, 1)).abs() < 1e-9);
    }

    #[test]
    fn ingress_shift_conserves_total_demand_roughly() {
        let shift = InjectedAnomaly {
            id: 6,
            kind: AnomalyKind::IngressShift,
            start_bin: 100,
            duration_bins: 20,
            od_pairs: vec![(6, 0), (6, 1)],
            intensity: 0.0,
            port: 0,
            scan_mode: ScanMode::Network,
            shift_to: Some(8),
            packets_per_flow: 0.0,
            packet_bytes: 0,
        };
        let s = small_scenario(vec![shift]);
        let g = s.generator();
        // Drained pair loses, receiving pair gains.
        assert!(g.effective_mean(105, 6, 0) < g.base_mean(105, 6, 0) * 0.2);
        assert!(g.effective_mean(105, 8, 0) > g.base_mean(105, 8, 0));
        // The gain equals 85% of the drained base mean.
        let gain = g.effective_mean(105, 8, 0) - g.base_mean(105, 8, 0);
        assert!((gain - 0.85 * g.base_mean(105, 6, 0)).abs() < 1e-9);
    }

    #[test]
    fn hoisted_diurnal_table_renders_what_per_cell_evaluation_did() {
        // An OUTAGE and an INGRESS-SHIFT active in one bin, with a DOS on
        // top so injected records follow the baseline cells.
        let anomaly = |id, kind, od_pairs: Vec<(usize, usize)>, shift_to| InjectedAnomaly {
            id,
            kind,
            start_bin: 100,
            duration_bins: 20,
            od_pairs,
            intensity: 300.0,
            port: 0,
            scan_mode: ScanMode::Network,
            shift_to,
            packets_per_flow: 0.0,
            packet_bytes: 0,
        };
        let s = small_scenario(vec![
            anomaly(5, AnomalyKind::Outage, vec![(6, 0), (2, 2)], None),
            anomaly(6, AnomalyKind::IngressShift, vec![(6, 0), (6, 1), (3, 7)], Some(8)),
            anomaly(7, AnomalyKind::Dos, vec![(2, 9)], None),
        ]);
        let g = s.generator();
        let (cfg, n) = (&s.config, s.topology.num_pops());
        for bin in [99usize, 105, 119, 120] {
            // The renderer as it was before the hoist: every cell's mean
            // from `base_mean`, diurnal factor re-evaluated per cell (and
            // per drained pair inside the shift closure).
            let active: Vec<&InjectedAnomaly> =
                s.schedule.iter().filter(|a| a.active_in(bin)).collect();
            let mut reference = Vec::new();
            for origin in 0..n {
                for destination in 0..n {
                    let base = |o, d| g.base_mean(bin, o, d);
                    let mean =
                        perturbed_mean(bin, origin, destination, base, active.iter().copied());
                    // `effective_mean` (full schedule) is that same mean.
                    assert_eq!(
                        mean.to_bits(),
                        g.effective_mean(bin, origin, destination).to_bits(),
                        "bin {bin} cell ({origin}, {destination})"
                    );
                    let od = (origin * n + destination) as u64;
                    let mut rng = cell_rng(cfg.seed, bin as u64, od, Stream::Baseline);
                    synthesize_cell_into(
                        &cfg.baseline,
                        &s.plan,
                        origin,
                        destination,
                        mean,
                        g.bin_start(bin),
                        cfg.bin_secs,
                        &mut rng,
                        &mut |r| reference.push(r),
                    );
                }
            }
            for a in &active {
                reference.extend(a.synthesize(
                    cfg.seed,
                    bin,
                    g.bin_start(bin),
                    cfg.bin_secs,
                    &s.plan,
                ));
            }
            assert_eq!(g.records_for_bin(bin), reference, "bin {bin}");
        }
        // The shift really reaches across origins in the bins compared.
        assert!(g.effective_mean(105, 8, 7) > g.base_mean(105, 8, 7));
        assert!(g.effective_mean(105, 2, 2) < g.base_mean(105, 2, 2) * 0.05);
    }

    #[test]
    fn dos_bin_has_flow_spike() {
        let dos = InjectedAnomaly {
            id: 7,
            kind: AnomalyKind::Dos,
            start_bin: 150,
            duration_bins: 2,
            od_pairs: vec![(2, 9)],
            intensity: 800.0,
            port: 0,
            scan_mode: ScanMode::Network,
            shift_to: None,
            packets_per_flow: 0.0,
            packet_bytes: 0,
        };
        let s = small_scenario(vec![dos]);
        let g = s.generator();
        let quiet = g.records_for_bin(149).len();
        let loud = g.records_for_bin(150).len();
        assert!(
            loud as f64 > quiet as f64 + 500.0,
            "DOS bin should add ~800 flows: quiet={quiet} loud={loud}"
        );
    }

    #[test]
    fn paper_week_schedule_mix() {
        let s = Scenario::paper_week(42, 0).unwrap();
        let count = |k: AnomalyKind| s.schedule.iter().filter(|a| a.kind == k).count();
        assert_eq!(count(AnomalyKind::Alpha), 34);
        assert_eq!(count(AnomalyKind::FlashCrowd), 16);
        assert_eq!(count(AnomalyKind::Scan), 14);
        assert_eq!(count(AnomalyKind::Dos), 9);
        assert_eq!(count(AnomalyKind::Ddos), 2);
        assert_eq!(count(AnomalyKind::IngressShift), 1);
        assert_eq!(count(AnomalyKind::Outage), 1, "week 0 carries the outage");
        // ALPHA dominates, as in Table 3.
        assert!(count(AnomalyKind::Alpha) > count(AnomalyKind::FlashCrowd));
    }

    #[test]
    fn four_weeks_have_distinct_schedules_and_rare_events() {
        let weeks = Scenario::paper_four_weeks(7).unwrap();
        assert_eq!(weeks.len(), 4);
        let kinds: Vec<Vec<AnomalyKind>> =
            weeks.iter().map(|w| w.schedule.iter().map(|a| a.kind).collect()).collect();
        // Week 1 has the PTMP event, week 2 the worm.
        assert!(kinds[1].contains(&AnomalyKind::PointMultipoint));
        assert!(kinds[2].contains(&AnomalyKind::Worm));
        // Schedules differ across weeks.
        let starts0: Vec<usize> = weeks[0].schedule.iter().map(|a| a.start_bin).collect();
        let starts1: Vec<usize> = weeks[1].schedule.iter().map(|a| a.start_bin).collect();
        assert_ne!(starts0, starts1);
    }

    #[test]
    fn paper_week_schedule_fits_window() {
        for week in 0..4 {
            let s = Scenario::paper_week(123, week).unwrap();
            for a in &s.schedule {
                assert!(a.end_bin() < s.config.num_bins);
                assert!(!a.od_pairs.is_empty());
            }
        }
    }
}
