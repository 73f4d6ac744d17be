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
    AttributeDigest, DataQuality, OdResolution, OdResolver, PipelineConfig, ResolutionStats,
    TrafficMatrixSet, TrafficType,
};
use odflow_gen::{FaultSchedule, FaultStormStats, Scenario, TraceGenerator};
use odflow_linalg::Matrix;
use odflow_net::IngressResolver;
use odflow_subspace::{
    analyze, diagnose_with_quality, Analysis, AnomalyEvent, Diagnosis, SubspaceConfig,
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
    /// The ingest path's quality report (quarantine, exporter gaps,
    /// per-bin status after repair); pristine on the clean path.
    pub quality: DataQuality,
    /// Detection output for all three traffic views, degraded by
    /// `quality`: masked bins are never scored, and the per-bin verdicts
    /// are [`Diagnosis::verdicts`].
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
    Ok(run_with(scenario, config, None)?.0)
}

/// [`run_scenario`] under a deterministic fault storm: renders each bin as
/// NetFlow v5 wire frames, mutates them through `faults`, ingests via the
/// lossy quarantine-and-account path, repairs short outages under the
/// default [`RepairPolicy`](odflow_flow::RepairPolicy), and runs the same
/// tail (masked bins are never scored; heavy imputation widens the SPE
/// band). Returns the run with the fault engine's own accounting of what
/// it injected.
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
) -> Result<(ScenarioRun, FaultStormStats), Box<dyn std::error::Error>> {
    run_with(scenario, config, Some(faults))
}

/// The one scenario runner; the two public runners differ only in
/// `faults`. Without it, §2.1's measurement path is the fused engine: each
/// shard's bin range renders straight into its OD binners (no intermediate
/// record batches, which is what the four-week batch workload times) and
/// merges deterministically, bit-identical to the serial record-by-record
/// pipeline for any `ODFLOW_THREADS`. Its quality report is pristine, so
/// its diagnosis is the plain one.
fn run_with(
    scenario: &Scenario,
    config: &ExperimentConfig,
    faults: Option<&FaultSchedule>,
) -> Result<(ScenarioRun, FaultStormStats), Box<dyn std::error::Error>> {
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
    let (outcome, storm) = match faults {
        None => (generator.bin_scenario(pipe_cfg, ingress, routes)?, FaultStormStats::default()),
        Some(faults) => generator.bin_scenario_faulted(pipe_cfg, ingress, routes, faults)?,
    };
    let (matrices, resolution, quality) = (outcome.matrices, outcome.stats, outcome.quality);

    // §2.2-§3: subspace detection on all three views; §4 step 1-2: merge.
    let diagnosis = diagnose_with_quality(&matrices, config.subspace, &quality)?;

    // §4 step 3: classify each event.
    let classified = diagnosis
        .events
        .iter()
        .map(|event| classify_event(scenario, &generator, &mut resolver, &matrices, event, config))
        .collect();

    let truth = truth_labels(scenario);
    Ok((ScenarioRun { matrices, resolution, quality, diagnosis, classified, truth }, storm))
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
    Ok(analyze(x, config)?)
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

    // Rebuild the raw flows behind the event (bin- and cell-addressable
    // generator) and digest the records that resolve into its OD flows.
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

/// Digest of the raw flows behind an event: re-renders, for each of the
/// event's bins, the baseline cells of the event's OD pairs and the bin's
/// anomaly records, and keeps those that resolve into the event's OD
/// pairs. Every other record of the bin resolves elsewhere or nowhere
/// (see [`TraceGenerator::records_for_cells_into`]), so this is the
/// digest of the whole bin's matching records, in the same order.
fn event_digest(
    generator: &TraceGenerator<'_>,
    resolver: &mut OdResolver,
    event: &AnomalyEvent,
) -> AttributeDigest {
    let mut cells = event.od_flows.clone();
    cells.sort_unstable();
    cells.dedup();
    let mut digest = AttributeDigest::new();
    for bin in event.start_bin..=event.end_bin().min(generator.num_bins().saturating_sub(1)) {
        generator.records_for_cells_into(bin, cells.iter().copied(), &mut |mut record| {
            record.key = record.key.with_anonymized_dst();
            if let OdResolution::Resolved { od_index } = resolver.resolve(&record) {
                if cells.binary_search(&od_index).is_ok() {
                    digest.add(&record);
                }
            }
        });
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;
    use odflow_gen::ScenarioConfig;
    use odflow_subspace::TypeSet;

    /// The digest as it was built before cells could be rendered alone:
    /// every record of each of the event's bins, kept when it resolves
    /// into the event's OD pairs.
    fn full_bin_digest(
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

    /// Every field of a digest, floats as their bits, keys widened.
    fn digest_bits(d: &AttributeDigest) -> Vec<(u8, u64, [u64; 3])> {
        let bits =
            |c: &odflow_flow::Counts| [c.bytes.to_bits(), c.packets.to_bits(), c.flows.to_bits()];
        let mut out = vec![(0, 0, bits(&d.total))];
        out.extend(d.by_src_block.iter().map(|(&k, c)| (1, u64::from(k), bits(c))));
        out.extend(d.by_src_port.iter().map(|(&k, c)| (2, u64::from(k), bits(c))));
        out.extend(d.by_dst_port.iter().map(|(&k, c)| (3, u64::from(k), bits(c))));
        out.extend(d.by_dst_addr.iter().map(|(&k, c)| (4, u64::from(k), bits(c))));
        out.extend(
            d.by_dst_addr_port
                .iter()
                .map(|(&(a, p), c)| (5, u64::from(a) << 16 | u64::from(p), bits(c))),
        );
        out
    }

    /// Checks every event's cell-rendered digest against the full-bin
    /// oracle; returns each digest's flow total.
    fn assert_digests_match(scenario: &Scenario, events: &[&AnomalyEvent]) -> Vec<f64> {
        let generator = scenario.generator();
        let routes = scenario.plan.build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&scenario.topology);
        let mut resolver = OdResolver::new(&scenario.topology, ingress, routes);
        events
            .iter()
            .map(|event| {
                let cells = event_digest(&generator, &mut resolver, event);
                let oracle = full_bin_digest(&generator, &mut resolver, event);
                assert_eq!(digest_bits(&cells), digest_bits(&oracle), "event {event:?}");
                cells.total.flows
            })
            .collect()
    }

    #[test]
    fn event_digests_equal_the_full_bin_oracle_on_the_paper_weeks() {
        let mut checked = 0;
        for scenario in Scenario::paper_four_weeks(ScenarioConfig::default().seed).unwrap() {
            let run = run_scenario(&scenario, &ExperimentConfig::default()).unwrap();
            let events: Vec<&AnomalyEvent> = run.classified.iter().map(|c| &c.event).collect();
            checked += assert_digests_match(&scenario, &events).len();
        }
        assert!(checked > 300, "{checked} events");
    }

    #[test]
    fn event_digests_equal_the_full_bin_oracle_on_a_storm_week() {
        let week = Scenario::paper_week(ScenarioConfig::default().seed, 0).unwrap();
        let faults = FaultSchedule::storm(week.config.seed, week.config.num_bins).unwrap();
        let (run, storm) =
            run_scenario_faulted(&week, &ExperimentConfig::default(), &faults).unwrap();
        assert!(storm.frames_dropped_outage > 0, "the storm does damage");
        let events: Vec<&AnomalyEvent> = run.classified.iter().map(|c| &c.event).collect();
        assert!(assert_digests_match(&week, &events).len() > 50);
    }

    #[test]
    fn a_one_pair_event_on_the_mesh_digests_its_cell_and_the_anomalies() {
        let cfg = ScenarioConfig { num_bins: 24, ..ScenarioConfig::large_mesh() };
        let scenario = Scenario::large_mesh_with(cfg).unwrap();
        let n = scenario.topology.num_pops();
        let events: Vec<AnomalyEvent> = scenario
            .schedule
            .iter()
            .filter(|a| a.od_pairs.len() == 1)
            .take(3)
            .map(|a| AnomalyEvent {
                types: TypeSet::single(TrafficType::Flows),
                start_bin: a.start_bin,
                duration_bins: a.duration_bins,
                od_flows: vec![a.od_pairs[0].0 * n + a.od_pairs[0].1],
            })
            .collect();
        let flows = assert_digests_match(&scenario, &events.iter().collect::<Vec<_>>());
        // Each event's own anomaly resolves into its pair.
        assert_eq!(flows.len(), 3);
        assert!(flows.iter().all(|&f| f > 0.0), "{flows:?}");
    }
}
