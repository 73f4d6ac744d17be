//! The measurement path from flow records, end to end and on the wire:
//! per-minute 5-tuple flow records (what Abilene's routers exported after
//! 1% packet sampling) -> NetFlow-v5 export frames -> decode in place ->
//! 11-bit destination anonymization -> ingress/egress OD resolution ->
//! 5-minute traffic matrices. This is §2.1 of the paper as running code,
//! including the wire format round-trip, over a half-hour paper window.
//!
//! ```sh
//! cargo run --release --example netflow_pipeline
//! ```

#![forbid(unsafe_code)]

use odflow::flow::{netflow, MeasurementPipeline, PipelineConfig, QuarantineStats};
use odflow::gen::Scenario;
use odflow::net::IngressResolver;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = Scenario::paper_window(99, 6)?;
    let generator = scenario.generator();
    let pops = scenario.topology.num_pops();

    // --- Stage 1: the routers' per-minute flow records (30 minutes). ---
    // Listed bin by bin and exporter by exporter, the order the export
    // frames carry them in.
    let mut records = Vec::new();
    for bin in 0..generator.num_bins() {
        let bin_records = generator.records_for_bin(bin);
        for router in 0..pops {
            records.extend(bin_records.iter().filter(|r| r.router == router).copied());
        }
    }
    let packets: u64 = records.iter().map(|r| r.packets).sum();
    println!(
        "stage 1: {} flow records ({packets} sampled packets) from {pops} routers",
        records.len()
    );

    // --- Stage 2: NetFlow v5 wire round-trip. ---
    let frames = generator.export_frames();
    let wire_bytes: usize = frames.iter().map(Vec::len).sum();
    let mut quarantine = QuarantineStats::default();
    let mut decoded = Vec::new();
    let mut interval = 0;
    for frame in &frames {
        let (header, frame_records) =
            netflow::decode_frame(frame, &mut quarantine).ok_or("frame quarantined")?;
        interval = header.sampling_interval;
        decoded.extend(frame_records);
    }
    assert_eq!(decoded, records, "wire round-trip must be lossless");
    println!(
        "stage 2: {} frames, {wire_bytes} bytes on the wire, sampling interval {interval}, \
         round-trip lossless",
        frames.len()
    );

    // --- Stage 3: decode in place + anonymize + resolve to OD pairs + bin. ---
    let routes = scenario.plan.build_route_table(1.0)?;
    let ingress = IngressResolver::synthetic(&scenario.topology);
    let config = PipelineConfig::abilene(scenario.config.start_secs, generator.num_bins());
    let mut pipeline = MeasurementPipeline::new(config, &scenario.topology, ingress, routes)?;
    let mut late = 0;
    for frame in &frames {
        late += pipeline.ingest_frame(frame).late;
    }
    let (matrices, stats) = pipeline.finalize()?;
    println!(
        "stage 3: {:.1}% of flows resolved ({:.1}% of bytes), {late} late; {} x {} traffic matrices",
        stats.flow_rate() * 100.0,
        stats.byte_rate() * 100.0,
        matrices.num_bins(),
        matrices.num_od_pairs()
    );

    let totals = matrices.packets.totals();
    println!("packets per 5-minute bin: {totals:?}");
    println!("pipeline complete: flow records -> NetFlow wire -> OD traffic matrices");
    Ok(())
}
