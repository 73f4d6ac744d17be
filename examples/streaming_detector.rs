//! Online detection — the paper's §6 "practical, online diagnosis" goal.
//!
//! A collector task (one `scoped_pool` worker) owns the online detector
//! (trained on the preceding day), feeds it the live 5-minute state
//! vectors, and sends every alarm down a channel; the main thread consumes
//! them. A DOS flood appears mid-stream and is flagged within its first
//! bin.
//!
//! ```sh
//! cargo run --release --example streaming_detector
//! ```

#![forbid(unsafe_code)]

use odflow::flow::{MeasurementPipeline, PipelineConfig, TrafficType};
use odflow::gen::{AnomalyKind, InjectedAnomaly, ScanMode, Scenario, ScenarioConfig};
use odflow::net::IngressResolver;
use odflow::subspace::{OnlineDetector, SubspaceConfig};

fn matrices_for(scenario: &Scenario) -> odflow::flow::TrafficMatrixSet {
    let generator = scenario.generator();
    let routes = scenario.plan.build_route_table(1.0).expect("routes");
    let ingress = IngressResolver::synthetic(&scenario.topology);
    let cfg = PipelineConfig::abilene(scenario.config.start_secs, scenario.config.num_bins);
    let mut pipeline =
        MeasurementPipeline::new(cfg, &scenario.topology, ingress, routes).expect("pipeline");
    for bin in 0..generator.num_bins() {
        for r in generator.records_for_bin(bin) {
            pipeline.push_sampled_record(r).expect("push");
        }
    }
    pipeline.finalize().expect("finalize").0
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Day 1: clean training traffic.
    let train_cfg = ScenarioConfig { seed: 31, num_bins: 288, ..Default::default() };
    let training = matrices_for(&Scenario::new(train_cfg, vec![])?);

    // Day 2: live traffic with a DOS flood at bin 140.
    let dos = InjectedAnomaly {
        id: 1,
        kind: AnomalyKind::Dos,
        start_bin: 140,
        duration_bins: 2,
        od_pairs: vec![(3, 8)],
        intensity: 900.0,
        port: 0,
        scan_mode: ScanMode::Network,
        shift_to: None,
        packets_per_flow: 2.0,
        packet_bytes: 0,
    };
    let live_cfg = ScenarioConfig {
        seed: 32,
        num_bins: 288,
        start_secs: 288 * 300, // continue the clock into day 2
        ..Default::default()
    };
    let live = matrices_for(&Scenario::new(live_cfg, vec![dos])?);

    // Train on the flows view; the collector below takes the detector.
    let mut detector =
        OnlineDetector::new(&training.get(TrafficType::Flows).data, SubspaceConfig::default(), 0)?;
    let (spe_thr, t2_thr) = (detector.model().spe_threshold(), detector.model().t2_threshold());
    println!("trained on day 1; thresholds: SPE {spe_thr:.3e}, T2 {t2_thr:.2}");

    let (tx, rx) = std::sync::mpsc::sync_channel(16);
    // One pool worker plays the collector; `Pool::scoped` joins it (and
    // re-throws any panic) before returning, so the closure may borrow
    // the live matrices directly — no clones, no raw spawn, and no lock:
    // verdicts leave the detector's one owner through the channel.
    let pool = scoped_pool::Pool::new(1);
    let flows = &live.get(TrafficType::Flows).data;
    let mut alarms = 0;
    pool.scoped(|scope| {
        scope.execute(move || {
            for row in flows.rows_iter() {
                let verdict = detector.push(row).expect("push");
                if verdict.is_anomalous() {
                    tx.send(verdict).expect("send");
                }
            }
            // `tx` drops here, ending the `rx.iter()` loop below.
        });
        for verdict in &rx {
            alarms += 1;
            println!(
                "ALARM at live bin {:>3}: SPE {:>10.1} T2 {:>6.2} ({} statistic(s) fired)",
                verdict.bin,
                verdict.spe,
                verdict.t2,
                verdict.detections.len()
            );
        }
    });

    println!("\n{alarms} alarm(s) over {} live bins", flows.nrows());
    assert!(alarms >= 1, "the DOS flood must be caught online");
    println!("DOS flood at bins 140-141 caught online");
    Ok(())
}
