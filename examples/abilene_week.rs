//! A full paper week: render, measure, detect, classify, and score one of
//! the four study weeks end to end — the complete §2-§4 pipeline.
//!
//! ```sh
//! cargo run --release --example abilene_week
//! ```

#![forbid(unsafe_code)]

use odflow::classify::score_events;
use odflow::experiment::{run_scenario, ExperimentConfig};
use odflow::flow::TrafficType;
use odflow::gen::Scenario;
use std::collections::BTreeMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = Scenario::paper_week(42, 0)?;
    println!(
        "scenario: {} bins x {} OD pairs, {} injected anomalies",
        scenario.config.num_bins,
        scenario.topology.num_od_pairs(),
        scenario.schedule.len()
    );

    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock timing printed for the operator, never fed into results"
    )]
    let t0 = std::time::Instant::now();
    let run = run_scenario(&scenario, &ExperimentConfig::default())?;
    println!("pipeline completed in {:.1}s", t0.elapsed().as_secs_f64());

    println!(
        "\nOD resolution: {:.1}% of flows, {:.1}% of bytes (paper: >93% / >90%)",
        run.resolution.flow_rate() * 100.0,
        run.resolution.byte_rate() * 100.0
    );

    for t in [TrafficType::Bytes, TrafficType::Packets, TrafficType::Flows] {
        let an = run.diagnosis.analysis(t).expect("analysis");
        let d = an.model.decomposition();
        println!(
            "{t:>8}: top-4 eigenflows capture {:.1}% of variance; SPE thr {:.3e}; T2 thr {:.2}; {} bins flagged",
            d.variance_captured(4) * 100.0,
            an.model.spe_threshold(),
            an.model.t2_threshold(),
            an.anomalous_bins().len()
        );
    }

    let mut by_class: BTreeMap<&str, usize> = BTreeMap::new();
    for c in &run.classified {
        *by_class.entry(c.class.table3_group()).or_insert(0) += 1;
    }
    println!("\nclassified events: {by_class:?}");

    let report = score_events(&run.truth, &run.scored_events(), 2);
    println!(
        "vs ground truth: recall {:.2}, precision {:.2}, class accuracy {:.2}",
        report.recall(),
        report.precision(),
        report.classification_accuracy()
    );
    Ok(())
}
