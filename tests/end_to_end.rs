//! Cross-crate integration: generator → measurement → detection →
//! classification → ground-truth scoring, on a one-day scenario.

use odflow::classify::score_events;
use odflow::experiment::{run_scenario, truth_labels, ExperimentConfig};
use odflow::gen::{AnomalyKind, InjectedAnomaly, ScanMode, Scenario, ScenarioConfig};

fn day_scenario(schedule: Vec<InjectedAnomaly>) -> Scenario {
    let config = ScenarioConfig { seed: 0xE2E, num_bins: 288, ..Default::default() };
    Scenario::new(config, schedule).unwrap()
}

fn anomaly(
    id: u64,
    kind: AnomalyKind,
    start: usize,
    dur: usize,
    od: Vec<(usize, usize)>,
    intensity: f64,
    port: u16,
) -> InjectedAnomaly {
    InjectedAnomaly {
        id,
        kind,
        start_bin: start,
        duration_bins: dur,
        od_pairs: od,
        intensity,
        port,
        scan_mode: ScanMode::Network,
        shift_to: None,
        packets_per_flow: 0.0,
        packet_bytes: 0,
    }
}

#[test]
fn clean_day_has_low_alarm_rate() {
    let scenario = day_scenario(vec![]);
    let run = run_scenario(&scenario, &ExperimentConfig::default()).unwrap();
    // Resolution reproduces the paper's claim territory (≥ 90%).
    assert!(run.resolution.flow_rate() > 0.88, "flow resolution {:.3}", run.resolution.flow_rate());
    // At alpha = 0.001 over 288 bins x 3 types, a handful of alarms max.
    assert!(run.classified.len() <= 8, "clean day produced {} events", run.classified.len());
}

#[test]
fn injected_dos_detected_and_classified() {
    let scenario = day_scenario(vec![anomaly(1, AnomalyKind::Dos, 140, 2, vec![(2, 9)], 900.0, 0)]);
    let run = run_scenario(&scenario, &ExperimentConfig::default()).unwrap();
    let truth = truth_labels(&scenario);
    let report = score_events(&truth, &run.scored_events(), 2);
    assert_eq!(report.true_positives, 1, "DOS must be detected");
    // The event overlapping the injection should be DOS-labeled.
    let hit = run
        .classified
        .iter()
        .find(|c| c.event.covers_bin(140) || c.event.covers_bin(141))
        .expect("an event must cover the injection");
    assert_eq!(
        hit.class.table3_group(),
        "DOS",
        "got {:?} with evidence {:?}",
        hit.class,
        hit.evidence
    );
}

#[test]
fn injected_alpha_detected_in_byte_packet_views() {
    let scenario =
        day_scenario(vec![anomaly(1, AnomalyKind::Alpha, 100, 2, vec![(1, 6)], 4000.0, 5001)]);
    let run = run_scenario(&scenario, &ExperimentConfig::default()).unwrap();
    let hit = run
        .classified
        .iter()
        .find(|c| c.event.covers_bin(100) || c.event.covers_bin(101))
        .expect("ALPHA must be detected");
    use odflow::flow::TrafficType;
    assert!(
        hit.event.types.contains(TrafficType::Bytes)
            || hit.event.types.contains(TrafficType::Packets),
        "ALPHA should appear in B/P views, got {}",
        hit.event.types
    );
    assert_eq!(hit.class.label(), "ALPHA", "evidence: {:?}", hit.evidence);
}

#[test]
fn injected_scan_flow_anomaly() {
    let scenario =
        day_scenario(vec![anomaly(1, AnomalyKind::Scan, 180, 2, vec![(4, 7)], 800.0, 139)]);
    let run = run_scenario(&scenario, &ExperimentConfig::default()).unwrap();
    let hit = run
        .classified
        .iter()
        .find(|c| c.event.covers_bin(180) || c.event.covers_bin(181))
        .expect("SCAN must be detected");
    use odflow::flow::TrafficType;
    assert!(
        hit.event.types.contains(TrafficType::Flows),
        "SCAN is a flow anomaly, got {}",
        hit.event.types
    );
    assert_eq!(hit.class.label(), "SCAN", "evidence: {:?}", hit.evidence);
}

#[test]
fn outage_produces_dip_event() {
    // A PoP-level outage affects that PoP's pairs in both directions —
    // the 8-pair footprint the scenario scheduler uses. The window must be
    // a full week as in the paper: on short windows an hours-long outage
    // contaminates a large fraction of the training bins and PCA absorbs
    // it into the normal subspace.
    let config = ScenarioConfig { seed: 0xE2E0, ..Default::default() };
    let scenario = Scenario::new(
        config,
        vec![anomaly(
            1,
            AnomalyKind::Outage,
            1000,
            36,
            vec![(6, 0), (6, 1), (6, 2), (6, 3), (0, 6), (1, 6), (2, 6), (3, 6)],
            0.0,
            0,
        )],
    )
    .unwrap();
    let run = run_scenario(&scenario, &ExperimentConfig::default()).unwrap();
    let hit = run
        .classified
        .iter()
        .find(|c| (1000..1036).any(|b| c.event.covers_bin(b)) && c.volume_ratio < 1.0);
    let hit = hit.expect("outage must produce a dip event");
    assert!(
        hit.class.label() == "OUTAGE" || hit.class.label() == "INGRESS-SHIFT",
        "dip classified as {} with evidence {:?}",
        hit.class,
        hit.evidence
    );
}

// ---------------------------------------------------------------------------
// Fault-storm suite: the full pipeline under deterministic adversity. CI
// runs these tests pinned at ODFLOW_THREADS=1 and =4 (filter: `fault_storm`).
// ---------------------------------------------------------------------------

use odflow::classify::score_events_with_mask;
use odflow::experiment::{run_scenario_faulted, ScenarioRun};
use odflow::gen::{FaultSchedule, FaultStormStats};
use odflow::subspace::DegradedReason;

/// One day with Table-3 anomalies in clean bins plus one whose evidence a
/// long exporter outage destroys, run through the standard fault storm.
///
/// Storm layout over 288 bins: loss 23–28, corruption 51–56, truncation
/// 77–82, duplication 103–108, reorder 129, drift 149–154, overflow
/// 175–180, outages 207 and 236–239, clock skew 267. The injections below
/// are placed against that map.
fn fault_storm_day() -> (Scenario, FaultSchedule) {
    let schedule = vec![
        anomaly(1, AnomalyKind::Dos, 140, 2, vec![(2, 9)], 900.0, 0),
        anomaly(2, AnomalyKind::Scan, 190, 2, vec![(4, 7)], 800.0, 139),
        // Entirely inside the 236–239 outage: undetectable by design.
        anomaly(3, AnomalyKind::Dos, 236, 2, vec![(5, 1)], 900.0, 0),
    ];
    let config = ScenarioConfig { seed: 0xE2E, num_bins: 288, ..Default::default() };
    let scenario = Scenario::new(config, schedule).unwrap();
    let faults = FaultSchedule::storm(0xFA017, 288).unwrap();
    (scenario, faults)
}

fn run_fault_storm_day() -> (ScenarioRun, FaultStormStats) {
    let (scenario, faults) = fault_storm_day();
    run_scenario_faulted(&scenario, &ExperimentConfig::default(), &faults).unwrap()
}

#[test]
fn fault_storm_clean_bin_anomalies_still_detected() {
    let (run, _) = run_fault_storm_day();
    let masked = run.quality.masked_bins();
    assert!(!masked.is_empty(), "the 4-bin outage must mask bins");
    assert!(masked.contains(&237), "masked bins {masked:?} should cover the long outage");

    // Scoring under the mask: the outage-buried DOS is excluded from the
    // truth set, the two clean-bin anomalies must both be found.
    let report = score_events_with_mask(&run.truth, &run.scored_events(), 2, &masked);
    assert_eq!(report.false_negatives, 0, "clean-bin anomalies must survive the storm: {report:?}");
    assert_eq!(report.true_positives, 2, "{report:?}");
}

#[test]
fn fault_storm_masked_bins_degrade_instead_of_alarming() {
    let (run, storm) = run_fault_storm_day();
    let masked = run.quality.masked_bins();
    let verdicts = run.diagnosis.verdicts();
    assert_eq!(verdicts.len(), 288);

    // Every masked bin is verdicted degraded as MaskedBin, never scored.
    for &b in &masked {
        assert_eq!(verdicts[b], Some(DegradedReason::MaskedBin), "bin {b} was masked by repair");
    }
    // And no classified event claims evidence from a masked bin — the
    // detector must stay silent where the data was destroyed, including
    // over the outage-buried DOS injection.
    for c in &run.classified {
        assert!(
            !masked.iter().any(|&b| c.event.covers_bin(b)),
            "event {:?} alarms on masked bins {masked:?}",
            c.event
        );
    }

    // The ingest accounting stayed conserved through the whole storm.
    assert!(run.quality.quarantine.is_conserved(), "{:?}", run.quality.quarantine);
    assert!(run.quality.quarantine.frames_rejected() > 0, "corruption must quarantine frames");
    assert!(storm.frames_dropped_outage > 0);
    assert!(run.quality.exporters.lost_flows_total() > 0, "loss must show up as sequence gaps");
}

#[test]
fn fault_storm_bit_identical_across_thread_counts() {
    let run_at = |threads: usize| {
        odflow::par::with_thread_limit(threads, || {
            let (scenario, faults) = fault_storm_day();
            run_scenario_faulted(&scenario, &ExperimentConfig::default(), &faults).unwrap()
        })
    };
    let (a, a_storm) = run_at(1);
    let (b, b_storm) = run_at(4);
    assert_eq!(a.matrices.bytes.data.as_slice(), b.matrices.bytes.data.as_slice());
    assert_eq!(a.matrices.packets.data.as_slice(), b.matrices.packets.data.as_slice());
    assert_eq!(a.matrices.flows.data.as_slice(), b.matrices.flows.data.as_slice());
    assert_eq!(a.quality.bins, b.quality.bins);
    assert_eq!(a.quality.quarantine, b.quality.quarantine);
    assert_eq!(a.diagnosis.verdicts(), b.diagnosis.verdicts());
    assert_eq!(a.diagnosis.widened, b.diagnosis.widened);
    assert_eq!(a_storm, b_storm);
    assert_eq!(a.scored_events(), b.scored_events());
}

#[test]
fn detection_identifies_correct_od_flow() {
    let scenario =
        day_scenario(vec![anomaly(1, AnomalyKind::Dos, 200, 2, vec![(3, 8)], 1000.0, 113)]);
    let run = run_scenario(&scenario, &ExperimentConfig::default()).unwrap();
    let n = scenario.topology.num_pops();
    let expected_od = 3 * n + 8;
    let hit = run
        .classified
        .iter()
        .find(|c| c.event.covers_bin(200) || c.event.covers_bin(201))
        .expect("DOS must be detected");
    assert!(
        hit.event.od_flows.contains(&expected_od),
        "expected OD {expected_od} in {:?}",
        hit.event.od_flows
    );
}

// ---------------------------------------------------------------------------
// Golden net: the storm day's verdicts, Table-1 counts and classes, pinned
// for the clean and the faulted runner. The constants were captured before
// the two paths were folded into one implementation; a refactor that moves
// them has changed an output and must not edit them to pass. They have
// been re-pinned once: when the dense eigensolver at p = 121 went from
// cyclic Jacobi to Householder + QR the two FNV words moved (every SPE, T²
// and threshold within rounding of its old value — CHANGES.md has the
// largest relative differences) while the counts and classes did not. The
// rule stands from here. The `fault_storm` name puts the test under CI's
// ODFLOW_THREADS=1 and =4 runs.
// ---------------------------------------------------------------------------

use odflow::subspace::{count_by_combination, StatisticKind};

/// What is pinned of one run: the FNV-1a of the canonical verdict bytes
/// (`loopback_e2e`'s encoding: every float as exact bits, every discrete
/// field in a fixed order), the events per Table-1 column (B, F, P, BF,
/// BP, FP, BFP), and each classified event as `start:types:class`.
fn golden(run: &ScenarioRun) -> (u64, [usize; 7], String) {
    let d = &run.diagnosis;
    let mut bytes = Vec::new();
    for (t, a) in &d.analyses {
        bytes.extend_from_slice(format!("{t:?};").as_bytes());
        for series in [&a.state_norm_sq, &a.spe, &a.t2] {
            for &v in series {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        for det in &a.detections {
            bytes.extend_from_slice(&det.bin.to_le_bytes());
            bytes.push(match det.kind {
                StatisticKind::Spe => 0,
                StatisticKind::T2 => 1,
            });
            bytes.extend_from_slice(&det.value.to_bits().to_le_bytes());
            bytes.extend_from_slice(&det.threshold.to_bits().to_le_bytes());
        }
    }
    bytes.extend_from_slice(format!("{:?}{:?}", d.triples, d.events).as_bytes());
    let fnv = bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    let classes: Vec<String> = run
        .classified
        .iter()
        .map(|c| format!("{}:{}:{}", c.event.start_bin, c.event.types.code(), c.class.label()))
        .collect();
    (fnv, count_by_combination(&d.events).map(|(_, n)| n), classes.join(" "))
}

#[test]
fn fault_storm_day_goldens_are_pinned() {
    let (scenario, _) = fault_storm_day();
    let clean = run_scenario(&scenario, &ExperimentConfig::default()).unwrap();
    assert_eq!(
        golden(&clean),
        (
            0x7229_e5e7_e7f2_2005,
            [2, 0, 1, 0, 0, 3, 0],
            "140:FP:DOS 177:B:UNKNOWN 182:P:UNKNOWN 190:FP:SCAN 192:B:UNKNOWN 236:FP:DOS"
                .to_owned()
        ),
        "run_scenario drifted from the pinned storm day"
    );
    assert_eq!(
        golden(&run_fault_storm_day().0),
        (
            0x3fa0_43a8_c55b_5b51,
            [2, 2, 2, 0, 0, 2, 0],
            "140:FP:DOS 171:F:UNKNOWN 177:B:FALSE-ALARM 179:P:UNKNOWN 182:P:UNKNOWN \
             190:FP:SCAN 192:B:INGRESS-SHIFT 240:F:UNKNOWN"
                .to_owned()
        ),
        "run_scenario_faulted drifted from the pinned storm day"
    );
}
