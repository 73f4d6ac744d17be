//! End-to-end experiment runner: scenario → measurement → detection →
//! classification → scoring.
//!
//! This is the orchestration layer the paper's evaluation implies: render a
//! (synthetic) week of sampled flow records, push them through the exact
//! measurement path of §2.1, run the subspace method of §2.2-§3 on all
//! three traffic views, aggregate and classify anomalies per §4, and score
//! the result against the generator's ground truth. Both the runnable
//! examples and the table/figure benches build on [`run_scenario`].

use odflow_classify::{
    classify, AnomalyClass, AnomalyObservation, RuleConfig, ScoredEvent, TruthLabel,
};
use odflow_flow::{
    AttributeDigest, DataQuality, IngestOutcome, OdResolution, OdResolver, PipelineConfig,
    ResolutionStats, TrafficMatrixSet, TrafficType,
};
use odflow_gen::{FaultSchedule, FaultStormStats, Scenario, TraceGenerator};
use odflow_linalg::Matrix;
use odflow_net::{IngressResolver, RouteTable};
use odflow_subspace::{
    diagnose_with_quality, Analysis, AnomalyEvent, DegradedReason, Diagnosis, SubspaceConfig,
    SubspaceDetector,
};

/// Configuration of a full experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Subspace method parameters (the paper: `k = 4`, `α = 0.001`).
    pub subspace: SubspaceConfig,
    /// Classification rule thresholds (the paper: dominance `p = 0.2`).
    pub rules: RuleConfig,
    /// Bins of tolerance when matching detections to ground truth.
    pub match_slack: usize,
}

/// Half-width (in bins) of the local window used to estimate an event's
/// baseline volume: two hours either side.
const BASELINE_WINDOW: usize = 24;

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            subspace: SubspaceConfig::default(),
            rules: RuleConfig::default(),
            match_slack: 2,
        }
    }
}

/// A classified anomaly event.
#[derive(Debug, Clone)]
pub struct ClassifiedEvent {
    /// The detected/merged event.
    pub event: AnomalyEvent,
    /// Class assigned by the Table 2 rule engine.
    pub class: AnomalyClass,
    /// Rule-engine evidence strings.
    pub evidence: Vec<String>,
    /// Volume ratio (event / local baseline) used by the rules.
    pub volume_ratio: f64,
}

/// The complete result of one scenario run.
#[derive(Debug)]
pub struct ScenarioRun {
    /// The three OD traffic matrices.
    pub matrices: TrafficMatrixSet,
    /// OD resolution statistics (the paper's ≥93% / ≥90% claim).
    pub resolution: ResolutionStats,
    /// Detection output for all three traffic views.
    pub diagnosis: Diagnosis,
    /// Final classified events.
    pub classified: Vec<ClassifiedEvent>,
    /// Ground truth labels from the generator.
    pub truth: Vec<TruthLabel>,
}

impl ScenarioRun {
    /// The classified events in `ScoredEvent` form for
    /// [`odflow_classify::score_events`].
    pub fn scored_events(&self) -> Vec<ScoredEvent> {
        self.classified
            .iter()
            .map(|c| ScoredEvent {
                label: c.class.label().to_string(),
                start_bin: c.event.start_bin,
                end_bin: c.event.end_bin(),
                od_flows: c.event.od_flows.clone(),
            })
            .collect()
    }
}

/// Runs the full pipeline over one scenario: the fused generate→bin
/// ingest, then the shared tail.
///
/// # Errors
///
/// Returns a boxed error for measurement or detection failures; individual
/// event classifications degrade to `Unknown` rather than failing the run.
pub fn run_scenario(
    scenario: &Scenario,
    config: &ExperimentConfig,
) -> Result<ScenarioRun, Box<dyn std::error::Error>> {
    // §2.1: the measurement path — the fused engine renders each shard's
    // bin range straight into its per-thread OD binners (no intermediate
    // record batches, which is what the four-week batch workload times)
    // and merges deterministically; the result is bit-identical to the
    // serial record-by-record pipeline for any `ODFLOW_THREADS`.
    let run = run_with(scenario, config, |generator, pipe_cfg, ingress, routes| {
        Ok((generator.bin_scenario(pipe_cfg, ingress, routes)?, FaultStormStats::default()))
    })?;
    Ok(run.run)
}

/// The complete result of one fault-storm scenario run.
#[derive(Debug)]
pub struct FaultedScenarioRun {
    /// Everything [`run_scenario`] produces, computed through the
    /// degradation-aware path.
    pub run: ScenarioRun,
    /// The ingest path's quality report (quarantine, exporter gaps,
    /// per-bin status after repair).
    pub quality: DataQuality,
    /// The fault engine's own accounting of what it injected.
    pub storm: FaultStormStats,
    /// Per-bin quality verdicts from the detection stage: `None` for a
    /// bin scored at full confidence, else why it was degraded.
    pub verdicts: Vec<Option<DegradedReason>>,
    /// `true` when the SPE band was widened by heavy imputation.
    pub widened: bool,
}

impl FaultedScenarioRun {
    /// Bins whose verdicts were withheld (masked by repair).
    pub fn masked_bins(&self) -> Vec<usize> {
        self.quality.masked_bins()
    }
}

/// [`run_scenario`] under a deterministic fault storm: renders each bin as
/// NetFlow v5 wire frames, mutates them through `faults`, ingests via the
/// lossy quarantine-and-account path, repairs short outages under the
/// default [`RepairPolicy`](odflow_flow::RepairPolicy), and runs the same
/// tail (masked bins are never scored; heavy imputation widens the SPE
/// band).
///
/// Bit-identical for any `ODFLOW_THREADS`: the render→fault→decode stage
/// is serial by construction, and both the record fill and the scoring
/// stage use fixed-grain chunk decompositions.
///
/// # Errors
///
/// As for [`run_scenario`].
pub fn run_scenario_faulted(
    scenario: &Scenario,
    config: &ExperimentConfig,
    faults: &FaultSchedule,
) -> Result<FaultedScenarioRun, Box<dyn std::error::Error>> {
    run_with(scenario, config, |generator, pipe_cfg, ingress, routes| {
        generator.bin_scenario_faulted(pipe_cfg, ingress, routes, faults)
    })
}

/// The one scenario runner. The two public runners differ only in
/// `ingest` — how the generator's traffic becomes OD matrices and a
/// quality report; the clean path's report is pristine, so its diagnosis
/// is the plain one.
fn run_with(
    scenario: &Scenario,
    config: &ExperimentConfig,
    ingest: impl FnOnce(
        &TraceGenerator<'_>,
        PipelineConfig,
        IngressResolver,
        RouteTable,
    ) -> odflow_flow::Result<(IngestOutcome, FaultStormStats)>,
) -> Result<FaultedScenarioRun, Box<dyn std::error::Error>> {
    let generator = scenario.generator();
    let routes = scenario.plan.build_route_table(1.0)?;
    let ingress = IngressResolver::synthetic(&scenario.topology);
    // Built once for every event digest of the run; its counters are
    // never read.
    let mut resolver = OdResolver::new(&scenario.topology, ingress.clone(), routes.clone());
    let mut pipe_cfg =
        PipelineConfig::abilene(scenario.config.start_secs, scenario.config.num_bins);
    // Honor the scenario's bin width (the abilene preset pins the paper's
    // 300 s): a mismatched window would misroute shard-local records.
    pipe_cfg.bin_secs = scenario.config.bin_secs;
    let (outcome, storm) = ingest(&generator, pipe_cfg, ingress, routes)?;
    let (matrices, resolution, quality) = (outcome.matrices, outcome.stats, outcome.quality);

    // §2.2-§3: subspace detection on all three views; §4 step 1-2: merge.
    let qd = diagnose_with_quality(&matrices, config.subspace, &quality)?;

    // §4 step 3: classify each event.
    let classified = qd
        .diagnosis
        .events
        .iter()
        .map(|event| classify_event(scenario, &generator, &mut resolver, &matrices, event, config))
        .collect();

    let truth = truth_labels(scenario);
    Ok(FaultedScenarioRun {
        run: ScenarioRun { matrices, resolution, diagnosis: qd.diagnosis, classified, truth },
        quality,
        storm,
        verdicts: qd.verdicts,
        widened: qd.widened,
    })
}

/// Fits a subspace model to one traffic matrix and scores every bin — the
/// detection stage of [`run_scenario`] in isolation.
///
/// The eigen-backend comes from `config.method`: with the default
/// [`odflow_subspace::EigenMethod::Auto`] this runs the exact dense solver
/// on the paper's `p x p` Gram at 121 OD pairs and on the `n x n` row Gram
/// of a short large-mesh window (24 bins × 90 000 OD pairs), and the
/// randomized truncated solver on a wide window with more bins than its
/// row Gram can factor for the sketch's cost. This is the stage
/// `e2e_bench`'s `large_mesh` workload times after ingest.
///
/// # Errors
///
/// Propagates model-fitting errors (shape, degeneracy, backend numerics).
pub fn detect_matrix(
    x: &Matrix,
    config: SubspaceConfig,
) -> Result<Analysis, Box<dyn std::error::Error>> {
    Ok(SubspaceDetector::new(config).analyze(x)?)
}

/// Maps the generator's schedule into scoring labels.
pub fn truth_labels(scenario: &Scenario) -> Vec<TruthLabel> {
    let n = scenario.topology.num_pops();
    scenario
        .schedule
        .iter()
        .map(|a| TruthLabel {
            label: a.kind.label().to_string(),
            start_bin: a.start_bin,
            end_bin: a.end_bin(),
            od_flows: a.od_pairs.iter().map(|&(o, d)| o * n + d).collect(),
        })
        .collect()
}

/// Builds the observation for one event and runs the rule engine.
fn classify_event(
    scenario: &Scenario,
    generator: &TraceGenerator<'_>,
    resolver: &mut OdResolver,
    matrices: &TrafficMatrixSet,
    event: &AnomalyEvent,
    config: &ExperimentConfig,
) -> ClassifiedEvent {
    let n = scenario.topology.num_pops();

    // Measure selection mirrors the rule engine's priority.
    let measure = if event.types.contains(TrafficType::Flows) {
        TrafficType::Flows
    } else if event.types.contains(TrafficType::Packets) {
        TrafficType::Packets
    } else {
        TrafficType::Bytes
    };

    let mut volume_ratio = event_volume_ratio(matrices, event, measure);
    let mut counterpart_spike =
        volume_ratio < 1.0 && has_counterpart_spike(matrices, event, measure, n);

    // The ingress-shift signature often lands *inside* one event: the
    // identification stage implicates both the drained OD flows and the
    // flows receiving the moved traffic, so the aggregate ratio washes out
    // near 1. Per-flow ratios expose the dip+spike mixture directly.
    if event.od_flows.len() >= 2 {
        let per_flow: Vec<f64> = event
            .od_flows
            .iter()
            .map(|&od| ratio_for_flows(matrices, &[od], event.start_bin, event.end_bin(), measure))
            .collect();
        let min = per_flow.iter().copied().fold(f64::INFINITY, f64::min);
        let max = per_flow.iter().copied().fold(0.0f64, f64::max);
        // Thresholds are deliberately forgiving: for multi-bin shifts the
        // local baseline window overlaps the anomaly itself, compressing
        // both ratios toward 1.
        if min < 0.55 && max > 1.25 {
            volume_ratio = min;
            counterpart_spike = true;
        }
    }

    // Rebuild the raw flows behind the event (bin-addressable generator) and
    // digest only the records that resolve into the event's OD flows.
    let digest = event_digest(generator, resolver, event);

    let origins: std::collections::HashSet<usize> =
        event.od_flows.iter().map(|od| od / n).collect();

    let obs = AnomalyObservation {
        types: event.types,
        duration_bins: event.duration_bins,
        num_od_flows: event.od_flows.len(),
        multi_origin: origins.len() > 1,
        volume_ratio,
        counterpart_spike,
        digest,
    };

    match classify(&obs, &config.rules) {
        Ok(c) => ClassifiedEvent {
            event: event.clone(),
            class: c.class,
            evidence: c.evidence,
            volume_ratio,
        },
        Err(e) => ClassifiedEvent {
            event: event.clone(),
            class: AnomalyClass::Unknown,
            evidence: vec![format!("classification error: {e}")],
            volume_ratio,
        },
    }
}

/// Mean traffic of the event's OD flows during the event, over the local
/// baseline (the same flows in the surrounding window, event bins
/// excluded). Returns 1.0 when nothing can be estimated.
fn event_volume_ratio(
    matrices: &TrafficMatrixSet,
    event: &AnomalyEvent,
    measure: TrafficType,
) -> f64 {
    ratio_for_flows(matrices, &event.od_flows, event.start_bin, event.end_bin(), measure)
}

fn ratio_for_flows(
    matrices: &TrafficMatrixSet,
    flows: &[usize],
    start: usize,
    end: usize,
    measure: TrafficType,
) -> f64 {
    if flows.is_empty() {
        return 1.0;
    }
    let m = &matrices.get(measure).data;
    let n = m.nrows();
    let mut event_sum = 0.0;
    let mut event_cells = 0usize;
    for bin in start..=end.min(n - 1) {
        for &od in flows {
            if od < m.ncols() {
                event_sum += m[(bin, od)];
                event_cells += 1;
            }
        }
    }
    let mut base_sum = 0.0;
    let mut base_cells = 0usize;
    let lo = start.saturating_sub(BASELINE_WINDOW);
    let hi = (end + BASELINE_WINDOW).min(n - 1);
    for bin in lo..=hi {
        if bin >= start && bin <= end {
            continue;
        }
        for &od in flows {
            if od < m.ncols() {
                base_sum += m[(bin, od)];
                base_cells += 1;
            }
        }
    }
    if event_cells == 0 || base_cells == 0 {
        return 1.0;
    }
    let event_mean = event_sum / event_cells as f64;
    let base_mean = base_sum / base_cells as f64;
    if base_mean <= 0.0 {
        // No baseline traffic at all: a spike from zero.
        return if event_mean > 0.0 { f64::INFINITY } else { 1.0 };
    }
    event_mean / base_mean
}

/// For a dipped event: does some other OD flow sharing a destination with a
/// dipped flow spike simultaneously? (The ingress-shift signature.)
fn has_counterpart_spike(
    matrices: &TrafficMatrixSet,
    event: &AnomalyEvent,
    measure: TrafficType,
    num_pops: usize,
) -> bool {
    let dipped_dests: std::collections::BTreeSet<usize> =
        event.od_flows.iter().map(|od| od % num_pops).collect();
    for dest in dipped_dests {
        for origin in 0..num_pops {
            let od = origin * num_pops + dest;
            if event.od_flows.contains(&od) {
                continue;
            }
            let r = ratio_for_flows(matrices, &[od], event.start_bin, event.end_bin(), measure);
            if r.is_finite() && r > 1.5 {
                return true;
            }
        }
    }
    false
}

/// Digest of the raw flows behind an event: regenerates the event's bins
/// and keeps records resolving into the event's OD flows.
fn event_digest(
    generator: &TraceGenerator<'_>,
    resolver: &mut OdResolver,
    event: &AnomalyEvent,
) -> AttributeDigest {
    let mut digest = AttributeDigest::new();
    for bin in event.start_bin..=event.end_bin() {
        if bin >= generator.num_bins() {
            break;
        }
        for mut record in generator.records_for_bin(bin) {
            record.key = record.key.with_anonymized_dst();
            if let OdResolution::Resolved { od_index } = resolver.resolve(&record) {
                if event.od_flows.contains(&od_index) {
                    digest.add(&record);
                }
            }
        }
    }
    digest
}
