//! Tables 1, 2, 3 and the §2.1 resolution rate.

use std::collections::BTreeMap;

use odflow::classify::{score_events, AnomalyClass, MatchReport};
use odflow::experiment::run_scenario;
use odflow::flow::{MeasurementPipeline, PipelineConfig};
use odflow::gen::{AnomalyKind, InjectedAnomaly, ScanMode, Scenario, ScenarioConfig};
use odflow::net::IngressResolver;
use odflow::subspace::count_by_combination;
use odflow_bench::plot::count_table;
use odflow_bench::HARNESS_SEED;

use crate::{check, Check, Study};

/// The traffic-type combinations, in the paper's column order.
const COMBOS: [&str; 7] = ["B", "F", "P", "BF", "BP", "FP", "BFP"];

/// **Table 1** — "Number of anomalies found in each traffic type": final
/// anomaly events of the four-week study per traffic-type combination,
/// next to the paper's published counts.
pub fn table1(study: &Study, out: &mut String) -> Vec<Check> {
    /// The paper's Table 1 counts, in [`COMBOS`] order.
    const PAPER: [usize; 7] = [74, 142, 102, 0, 27, 28, 10];

    let mut ours: BTreeMap<String, usize> = BTreeMap::new();
    let mut total_events = 0usize;
    for run in study.four_weeks() {
        for (code, count) in count_by_combination(&run.diagnosis.events) {
            *ours.entry(code).or_insert(0) += count;
        }
        total_events += run.diagnosis.events.len();
    }
    let get = |c: &str| ours.get(c).copied().unwrap_or(0);

    let rows: Vec<(String, Vec<String>)> = COMBOS
        .iter()
        .zip(PAPER)
        .map(|(code, paper)| ((*code).to_string(), vec![get(code).to_string(), paper.to_string()]))
        .collect();
    out.push_str(&count_table(
        "Table 1 — anomalies per traffic-type combination (4 weeks)",
        &["combination", "this repo", "paper"],
        &rows,
    ));
    out.push_str(&format!("\ntotal events: {total_events} (paper: 383)\n"));
    let singles = get("B") + get("F") + get("P");
    let multis = get("BF") + get("BP") + get("FP") + get("BFP");
    out.push_str(&format!(
        "single-type events {singles}, multi-type {multis} (paper: 318 vs 65 — singles dominate)\n"
    ));

    vec![
        check(get("B") > 0 && get("F") > 0 && get("P") > 0, "every single type detects anomalies"),
        // The paper observed no BF anomaly at all; that is an observation,
        // not a law — a DOS seen in bytes and flows can stay under the
        // packets threshold (Table 3's BF row). What reproduces is that BF
        // is the rarest combination.
        check(
            COMBOS.iter().all(|c| get("BF") <= get(c)),
            "BF is the rarest combination (paper: none observed)",
        ),
        check(singles > multis, "single-type detections dominate"),
        check(
            get("F") + get("FP") >= get("B") + get("BP").min(1),
            "flow-involving detections are plentiful (F is the paper's richest view)",
        ),
    ]
}

/// One canonical injected instance of an anomaly class.
struct Case {
    expect_class: &'static str,
    table2_signature: &'static str,
    anomaly: InjectedAnomaly,
}

fn inject(
    kind: AnomalyKind,
    od_pairs: Vec<(usize, usize)>,
    intensity: f64,
    port: u16,
    duration_bins: usize,
    packets_per_flow: f64,
    shift_to: Option<usize>,
) -> InjectedAnomaly {
    InjectedAnomaly {
        id: 1,
        kind,
        start_bin: 1000,
        duration_bins,
        od_pairs,
        intensity,
        port,
        scan_mode: ScanMode::Network,
        shift_to,
        packets_per_flow,
        packet_bytes: 0,
    }
}

/// **Table 2** — "Types of anomalies, with their attributes as seen in
/// sampled network-wide flow measurements": one canonical instance per
/// class injected into an otherwise-quiet week; the row shows which views
/// the detection surfaces in, its duration and extent, and the class the
/// rule engine assigns.
pub fn table2(study: &Study, out: &mut String) -> Vec<Check> {
    use AnomalyKind::{
        Alpha, Ddos, Dos, FlashCrowd, IngressShift, Outage, PointMultipoint, Scan, Worm,
    };
    let cases = [
        Case {
            expect_class: "ALPHA",
            table2_signature: "spike in B/P/BP; single dominant src-dst pair; short",
            anomaly: inject(Alpha, vec![(1, 6)], 4000.0, 5001, 2, 0.0, None),
        },
        Case {
            expect_class: "DOS",
            table2_signature: "spike in P/F/FP; dominant dst IP; no dominant src",
            anomaly: inject(Dos, vec![(2, 9)], 700.0, 0, 3, 2.0, None),
        },
        Case {
            expect_class: "DOS", // Table 3 groups DOS and DDOS
            table2_signature: "as DOS, from multiple origin PoPs",
            anomaly: inject(Ddos, vec![(0, 9), (3, 9), (5, 9)], 1500.0, 113, 3, 2.0, None),
        },
        Case {
            expect_class: "FLASH-CROWD",
            table2_signature: "spike in F/FP; dominant dst IP + well-known port; clustered srcs",
            anomaly: inject(FlashCrowd, vec![(4, 8)], 420.0, 80, 2, 3.0, None),
        },
        Case {
            expect_class: "SCAN",
            table2_signature: "spike in F; packets ~= flows; dominant src; no dominant (dst,port)",
            anomaly: inject(Scan, vec![(5, 2)], 500.0, 139, 2, 0.0, None),
        },
        Case {
            expect_class: "WORM",
            table2_signature: "spike in F; dominant port only (1433); no dominant endpoints",
            anomaly: inject(Worm, vec![(0, 3), (1, 3), (6, 3)], 900.0, 1433, 3, 0.0, None),
        },
        Case {
            expect_class: "POINT-MULTIPOINT",
            table2_signature: "spike in P/B/BP; dominant src + service src port; many dsts",
            anomaly: inject(PointMultipoint, vec![(2, 10)], 9000.0, 119, 2, 0.0, None),
        },
        Case {
            expect_class: "OUTAGE",
            table2_signature: "decrease in BFP toward zero; hours; multiple OD flows",
            anomaly: inject(
                Outage,
                vec![(6, 0), (6, 1), (6, 2), (6, 3), (0, 6), (1, 6), (2, 6), (3, 6)],
                0.0,
                0,
                36,
                0.0,
                None,
            ),
        },
        Case {
            expect_class: "INGRESS-SHIFT",
            table2_signature: "decrease in one OD flow with paired spike in another",
            anomaly: inject(
                IngressShift,
                vec![(6, 0), (6, 1), (6, 2), (6, 4)],
                0.0,
                0,
                24,
                0.0,
                Some(8),
            ),
        },
    ];

    let mut rows: Vec<(String, Vec<String>)> = Vec::new();
    let mut correct = 0usize;
    for case in &cases {
        let config = ScenarioConfig {
            seed: HARNESS_SEED
                ^ case.anomaly.port as u64
                ^ (case.anomaly.duration_bins as u64) << 17,
            ..Default::default()
        };
        let scenario = Scenario::new(config, vec![case.anomaly.clone()]).expect("scenario");
        let run = run_scenario(&scenario, &study.config).expect("scenario run");

        // Long-lived anomalies fragment at their boundaries, so take the
        // longest overlapping event as the detection (the paper's manual
        // inspection would do the same).
        let hit = run
            .classified
            .iter()
            .filter(|c| {
                (case.anomaly.start_bin..=case.anomaly.end_bin() + 2).any(|b| c.event.covers_bin(b))
            })
            .max_by_key(|c| c.event.duration_bins);
        let (types, dur_min, n_od, class) = match hit {
            Some(c) => (
                c.event.types.code(),
                c.event.duration_minutes(300),
                c.event.od_flows.len(),
                c.class,
            ),
            None => ("-".to_string(), 0.0, 0, AnomalyClass::Unknown),
        };
        let grouped = class.table3_group();
        let ok = grouped == case.expect_class;
        correct += usize::from(ok);
        rows.push((
            case.anomaly.kind.label().to_string(),
            vec![
                types,
                format!("{dur_min:.0}m"),
                n_od.to_string(),
                grouped.to_string(),
                if ok { "ok".into() } else { "MISMATCH".into() },
            ],
        ));
        out.push_str(&format!(
            "{:<18} expected: {}\n",
            case.anomaly.kind.label(),
            case.table2_signature
        ));
    }
    out.push('\n');
    out.push_str(&count_table(
        "Table 2 — one injected instance per class, detected signature",
        &["class", "types", "duration", "#OD", "assigned", "verdict"],
        &rows,
    ));
    out.push_str(&format!(
        "\n{correct}/{} classes recovered with the Table 2 rules\n",
        cases.len()
    ));
    vec![check(correct >= cases.len() - 1, "at most one class misses in the canonical setup")]
}

/// **Table 3** — "Range of anomalies found for each traffic type": four
/// weeks of detections, classified with the Table 2 rules, cross-tabulated
/// as anomaly class x traffic-type combination. Ground truth (which the
/// paper lacked) adds recall / precision / classification accuracy.
pub fn table3(study: &Study, out: &mut String) -> Vec<Check> {
    /// Paper Table 3 totals per class (4 weeks).
    const PAPER_TOTALS: [(&str, usize); 10] = [
        ("ALPHA", 137),
        ("DOS", 44),
        ("SCAN", 56),
        ("FLASH-CROWD", 64),
        ("POINT-MULTIPOINT", 3),
        ("WORM", 2),
        ("OUTAGE", 3),
        ("INGRESS-SHIFT", 4),
        ("UNKNOWN", 39),
        ("FALSE-ALARM", 31),
    ];

    // (class, combo) -> count
    let mut grid: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut class_totals: BTreeMap<String, usize> = BTreeMap::new();
    let mut total = 0usize;
    // The four weekly match reports pooled, so the rates below are the
    // library's own definitions over the whole study.
    let mut pooled = MatchReport {
        true_positives: 0,
        false_negatives: 0,
        unmatched_events: 0,
        correctly_classified: 0,
        matched_events: 0,
        confusion: BTreeMap::new(),
    };
    for run in study.four_weeks() {
        for c in &run.classified {
            let class = c.class.table3_group().to_string();
            *grid.entry((class.clone(), c.event.types.code())).or_insert(0) += 1;
            *class_totals.entry(class).or_insert(0) += 1;
            total += 1;
        }
        let report = score_events(&run.truth, &run.scored_events(), study.config.match_slack);
        pooled.true_positives += report.true_positives;
        pooled.false_negatives += report.false_negatives;
        pooled.unmatched_events += report.unmatched_events;
        pooled.correctly_classified += report.correctly_classified;
        pooled.matched_events += report.matched_events;
    }
    let ct = |c: &str| class_totals.get(c).copied().unwrap_or(0);
    let cell = |class: &str, combo: &str| {
        grid.get(&(class.to_string(), combo.to_string())).copied().unwrap_or(0)
    };

    let classes: Vec<&str> = PAPER_TOTALS.iter().map(|(c, _)| *c).collect();
    let mut rows: Vec<(String, Vec<String>)> = COMBOS
        .iter()
        .map(|combo| {
            let cells = classes.iter().map(|class| cell(class, combo).to_string()).collect();
            ((*combo).to_string(), cells)
        })
        .collect();
    rows.push(("Total".to_string(), classes.iter().map(|c| ct(c).to_string()).collect()));
    rows.push(("(paper)".to_string(), PAPER_TOTALS.iter().map(|(_, n)| n.to_string()).collect()));
    let mut header = vec!["combo"];
    header.extend(classes.iter());
    out.push_str(&count_table(
        "Table 3 — anomaly class x traffic-type combination (4 weeks)",
        &header,
        &rows,
    ));
    out.push_str(&format!("\ntotal classified events: {total} (paper: 383)\n"));

    let recall = pooled.recall();
    let share = |n: usize| n as f64 / total.max(1) as f64;
    out.push_str("\nground-truth scoring (unavailable to the paper):\n");
    out.push_str(&format!("  detection recall    {recall:.3}\n"));
    out.push_str(&format!("  detection precision {:.3}\n", pooled.precision()));
    out.push_str(&format!("  class accuracy      {:.3}\n", pooled.classification_accuracy()));
    out.push_str(&format!(
        "  unknown rate        {:.1}% (paper ~10%)   false-alarm rate {:.1}% (paper ~8%)\n",
        share(ct("UNKNOWN")) * 100.0,
        share(ct("FALSE-ALARM")) * 100.0
    ));

    vec![
        check(
            ["DOS", "SCAN", "FLASH-CROWD"].iter().all(|c| ct("ALPHA") > ct(c)),
            "ALPHA is the most prevalent class",
        ),
        check(ct("OUTAGE") + ct("INGRESS-SHIFT") <= 12, "operational events are rare"),
        check(recall > 0.85, "detection recall is high (> 0.85)"),
        check(
            share(ct("UNKNOWN") + ct("FALSE-ALARM")) <= 0.30,
            "the unexplained fraction stays small (paper: 18%)",
        ),
        // Table 3's row structure: ALPHA mass sits in B, P, BP.
        check(cell("ALPHA", "F") <= ct("ALPHA") / 10, "ALPHA is not a flows-view anomaly"),
    ]
}

/// **§2.1 resolution claim** — "we were able to successfully obtain the
/// ingress and egress PoPs for more than 93% of all IP flows measured
/// (accounting for more than 90% of the total byte traffic)": the OD
/// resolution rate over one day of traffic, sweeping the completeness of
/// the routing tables. At full coverage only the deliberately unannounced
/// address space fails.
pub fn resolution(_: &Study, out: &mut String) -> Vec<Check> {
    let config = ScenarioConfig { seed: HARNESS_SEED, num_bins: 288, ..Default::default() };
    let scenario = Scenario::new(config, vec![]).expect("scenario");
    let generator = scenario.generator();

    let mut rows = Vec::new();
    // (flow rate, byte rate) of the sweep's last row: full coverage, the
    // realistic operating point the paper's claim is about.
    let mut full_coverage = (0.0, 0.0);
    for coverage in [0.25, 0.5, 0.75, 1.0] {
        let routes = scenario.plan.build_route_table(coverage).expect("routes");
        let ingress = IngressResolver::synthetic(&scenario.topology);
        let mut pipeline = MeasurementPipeline::new(
            PipelineConfig::abilene(0, 288),
            &scenario.topology,
            ingress,
            routes,
        )
        .expect("pipeline");
        for bin in 0..generator.num_bins() {
            for record in generator.records_for_bin(bin) {
                pipeline.push_sampled_record(record).expect("push");
            }
        }
        let stats = pipeline.shard().resolution_stats();
        full_coverage = (stats.flow_rate(), stats.byte_rate());
        rows.push((
            format!("{:.0}%", coverage * 100.0),
            vec![
                format!("{:.1}%", stats.flow_rate() * 100.0),
                format!("{:.1}%", stats.byte_rate() * 100.0),
                stats.flows_total.to_string(),
            ],
        ));
    }
    out.push_str(&count_table(
        "OD resolution rate vs routing-table coverage (one day)",
        &["table coverage", "flows resolved", "bytes resolved", "flow records"],
        &rows,
    ));
    out.push_str("\npaper (§2.1): >93% of flows, >90% of bytes at operational coverage\n");
    vec![
        check(full_coverage.0 > 0.93, "full-coverage flow resolution exceeds the paper's 93%"),
        check(full_coverage.1 > 0.90, "full-coverage byte resolution exceeds the paper's 90%"),
    ]
}
