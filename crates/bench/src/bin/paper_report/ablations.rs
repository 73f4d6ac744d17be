//! Ablations over one paper week (week 0 of the study): the
//! normal-subspace dimension, the sampling rate, the detection statistic
//! and the dominance threshold. A sweep's row at the paper's operating
//! point is the study's own week-0 run.

use odflow::classify::{score_events, DominanceConfig, RuleConfig, ScoredEvent};
use odflow::experiment::{run_scenario, ExperimentConfig};
use odflow::gen::{Scenario, ScenarioConfig};
use odflow::subspace::{merge_detections, DetectionTriple, StatisticKind, SubspaceConfig};
use odflow_bench::plot::count_table;

use crate::{check, Check, Study};

/// **Normal-subspace dimension k** — the paper fixes `k = 4` ("we use k =
/// 4 throughout"). Small k leaks diurnal structure into the residual
/// (false alarms), large k swallows anomalies into the normal subspace
/// (misses).
pub fn k_sweep(study: &Study, out: &mut String) -> Vec<Check> {
    let mut rows = Vec::new();
    let mut best = (0usize, -1.0f64);
    for k in [1usize, 2, 3, 4, 6, 8, 12, 16] {
        let config = ExperimentConfig {
            subspace: SubspaceConfig { k, ..study.config.subspace },
            ..study.config.clone()
        };
        let (events, recall, precision) =
            study.week0_swept(k == study.config.subspace.k, &config, |run| {
                let report = score_events(&run.truth, &run.scored_events(), config.match_slack);
                (run.classified.len(), report.recall(), report.precision())
            });
        let f1 = if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };
        if f1 > best.1 {
            best = (k, f1);
        }
        rows.push((
            format!("k={k}"),
            vec![
                events.to_string(),
                format!("{recall:.3}"),
                format!("{precision:.3}"),
                format!("{f1:.3}"),
            ],
        ));
    }
    out.push_str(&count_table(
        "Ablation — sensitivity to normal-subspace dimension k (1 week)",
        &["k", "events", "recall", "precision", "F1"],
        &rows,
    ));
    out.push_str(&format!("\nbest F1 at k = {} (paper's choice: k = 4)\n", best.0));
    vec![check(
        (2..=8).contains(&best.0),
        "a small k wins, matching the paper's 'handful of eigenflows'",
    )]
}

/// **Packet sampling rate** — Abilene sampled 1% of packets. The generator
/// emits records whose counts are *post-sampling* at 1%; for thin sampling
/// the number of observed flows scales ≈ linearly with the rate (a flow is
/// seen iff ≥1 of its packets is drawn), so rate r is emulated by scaling
/// the observed demand, and the anomalies' intensities, by `r / 0.01`.
pub fn sampling(study: &Study, out: &mut String) -> Vec<Check> {
    const DEPLOYED: f64 = 0.01;
    let base = &study.week(0).scenario;
    let mut rows = Vec::new();
    let mut recall_at = Vec::new();
    for rate in [0.002, 0.005, DEPLOYED, 0.05] {
        let scaled;
        let run = if rate == DEPLOYED {
            &study.week(0).run
        } else {
            let scale = rate / DEPLOYED;
            let config = ScenarioConfig {
                total_demand: base.config.total_demand * scale,
                ..base.config.clone()
            };
            let schedule = base
                .schedule
                .iter()
                .cloned()
                .map(|mut a| {
                    a.intensity *= scale;
                    a
                })
                .collect();
            let scenario = Scenario::new(config, schedule).expect("scaled scenario");
            scaled = run_scenario(&scenario, &study.config).expect("scenario run");
            &scaled
        };
        let report = score_events(&run.truth, &run.scored_events(), study.config.match_slack);
        recall_at.push(report.recall());
        rows.push((
            format!("{:.1}%", rate * 100.0),
            vec![
                run.classified.len().to_string(),
                format!("{:.3}", report.recall()),
                format!("{:.3}", report.precision()),
            ],
        ));
    }
    out.push_str(&count_table(
        "Ablation — emulated packet sampling rate (1 week)",
        &["sampling", "events", "recall", "precision"],
        &rows,
    ));
    out.push_str("\nAbilene's deployed rate: 1%\n");
    vec![
        check(recall_at[3] >= recall_at[0], "more sampling does not hurt recall"),
        check(recall_at[2] > 0.8, "the paper's operating point (1%) retains high recall"),
    ]
}

/// **SPE vs T² vs both** — §2.2's argument for extending the subspace
/// method: "the Q-statistic alone is insufficient to detect all anomaly
/// times". One week's detections, counted against ground truth when only
/// SPE detections, only T² detections, or their union feed the event
/// pipeline.
pub fn stats(study: &Study, out: &mut String) -> Vec<Check> {
    let run = &study.week(0).run;
    // The one statistic whose detections feed the event pipeline, or both.
    let variants = [
        ("SPE only", Some(StatisticKind::Spe)),
        ("T2 only", Some(StatisticKind::T2)),
        ("SPE + T2", None),
    ];
    let mut rows = Vec::new();
    let mut recalls = Vec::new();
    for (label, only) in variants {
        // Rebuild triples keeping only the chosen statistic's detections.
        let mut triples = Vec::new();
        for &(traffic_type, ref analysis) in &run.diagnosis.analyses {
            for bin in analysis.anomalous_bins() {
                if analysis.detections_at(bin).iter().any(|d| only.is_none_or(|k| k == d.kind)) {
                    triples.push(DetectionTriple { traffic_type, bin, od_flows: vec![] });
                }
            }
        }
        let events = merge_detections(&triples);
        let scored: Vec<ScoredEvent> = events
            .iter()
            .map(|e| ScoredEvent {
                label: "ANY".into(),
                start_bin: e.start_bin,
                end_bin: e.end_bin(),
                od_flows: vec![],
            })
            .collect();
        let report = score_events(&run.truth, &scored, study.config.match_slack);
        recalls.push(report.recall());
        rows.push((
            label.to_string(),
            vec![
                events.len().to_string(),
                report.true_positives.to_string(),
                format!("{:.3}", report.recall()),
            ],
        ));
    }
    out.push_str(&count_table(
        "Ablation — detection statistic (1 week, detection only)",
        &["statistic", "events", "truth matched", "recall"],
        &rows,
    ));
    let (spe, t2, both) = (recalls[0], recalls[1], recalls[2]);
    out.push_str(&format!("\nSPE {spe:.3}  T2 {t2:.3}  combined {both:.3}\n"));
    vec![
        check(both >= spe && both >= t2, "the union does not lose to either statistic alone"),
        check(
            spe < both || t2 < both,
            "each statistic contributes anomalies the other misses (paper §2.2)",
        ),
    ]
}

/// **Dominance threshold p** — the classification heuristic calls an
/// attribute dominant when it carries more than a fraction `p` of a cell's
/// traffic ("we found that a value of p = 0.2 worked well"). Small p makes
/// everything dominant (classes blur), large p makes nothing dominant
/// (everything lands in UNKNOWN).
pub fn dominance(study: &Study, out: &mut String) -> Vec<Check> {
    let paper_p = study.config.rules.dominance.threshold;
    let mut rows = Vec::new();
    let mut accuracy_at = Vec::new();
    for p in [0.05, 0.1, paper_p, 0.4, 0.6, 0.8] {
        let config = ExperimentConfig {
            rules: RuleConfig { dominance: DominanceConfig { threshold: p } },
            ..study.config.clone()
        };
        let (accuracy, unknown, total) = study.week0_swept(p == paper_p, &config, |run| {
            let report = score_events(&run.truth, &run.scored_events(), config.match_slack);
            let unknown = run.classified.iter().filter(|c| c.class.label() == "UNKNOWN").count();
            (report.classification_accuracy(), unknown, run.classified.len())
        });
        accuracy_at.push(accuracy);
        rows.push((
            format!("p={p:.2}"),
            vec![format!("{accuracy:.3}"), unknown.to_string(), total.to_string()],
        ));
    }
    out.push_str(&count_table(
        "Ablation — dominance threshold p (1 week)",
        &["p", "class accuracy", "UNKNOWN events", "total events"],
        &rows,
    ));
    let (at_paper, at_extreme) = (accuracy_at[2], accuracy_at[5]);
    out.push_str(&format!("\naccuracy at the paper's p = {paper_p}: {at_paper:.3}\n"));
    vec![
        check(
            at_paper >= at_extreme,
            "p = 0.2 beats an extreme threshold (paper: 0.2 'worked well')",
        ),
        check(at_paper > 0.8, "the paper's operating point classifies well"),
    ]
}
