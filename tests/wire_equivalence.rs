//! Integration: the NetFlow wire path must be transparent — matrices built
//! from decoded export datagrams equal matrices built from in-memory
//! records, and the packet-level path agrees with the record-level
//! shortcut in distribution.

use odflow::flow::{netflow, FlowRecord, MeasurementPipeline, PipelineConfig};
use odflow::gen::{Scenario, ScenarioConfig};
use odflow::net::IngressResolver;

fn small_scenario(seed: u64) -> Scenario {
    let config = ScenarioConfig { seed, num_bins: 24, total_demand: 2000.0, ..Default::default() };
    Scenario::new(config, vec![]).unwrap()
}

/// An empty serial pipeline over the scenario's 24-bin window.
fn pipeline(scenario: &Scenario) -> MeasurementPipeline {
    let routes = scenario.plan.build_route_table(1.0).unwrap();
    let ingress = IngressResolver::synthetic(&scenario.topology);
    let cfg = PipelineConfig::abilene(0, 24);
    MeasurementPipeline::new(cfg, &scenario.topology, ingress, routes).unwrap()
}

/// Runs records through the normal in-memory pipeline.
fn matrices_direct(scenario: &Scenario) -> odflow::flow::TrafficMatrixSet {
    let generator = scenario.generator();
    let mut pipeline = pipeline(scenario);
    for bin in 0..generator.num_bins() {
        for r in generator.records_for_bin(bin) {
            pipeline.push_sampled_record(r).unwrap();
        }
    }
    pipeline.finalize().unwrap().0
}

/// Serializes every record to NetFlow v5 datagrams, decodes them, then
/// bins them — the full wire round-trip.
fn matrices_via_wire(scenario: &Scenario) -> odflow::flow::TrafficMatrixSet {
    let generator = scenario.generator();
    let mut pipeline = pipeline(scenario);
    for bin in 0..generator.num_bins() {
        // Group records per exporting router, as real collectors receive
        // them (the v5 engine_id carries the router).
        let records = generator.records_for_bin(bin);
        for router in 0..scenario.topology.num_pops() {
            let batch: Vec<FlowRecord> =
                records.iter().filter(|r| r.router == router).copied().collect();
            for d in &netflow::encode_datagrams(&batch, 0, router as u8, 100, 0) {
                for r in netflow::decode_datagram(d).unwrap().1 {
                    pipeline.push_sampled_record(r).unwrap();
                }
            }
        }
    }
    pipeline.finalize().unwrap().0
}

#[test]
fn wire_roundtrip_preserves_matrices() {
    let scenario = small_scenario(0x11F7);
    let direct = matrices_direct(&scenario);
    let wire = matrices_via_wire(&scenario);
    assert_eq!(direct.num_bins(), wire.num_bins());
    assert_eq!(direct.num_od_pairs(), wire.num_od_pairs());
    assert!(
        direct.bytes.data.approx_eq(&wire.bytes.data, 1e-9),
        "byte matrices must be identical through the wire"
    );
    assert!(direct.packets.data.approx_eq(&wire.packets.data, 1e-9));
    assert!(direct.flows.data.approx_eq(&wire.flows.data, 1e-9));
}

#[test]
fn wire_path_preserves_resolution_rate() {
    let scenario = small_scenario(0x22F8);
    let generator = scenario.generator();
    let mut pipeline = pipeline(&scenario);
    for bin in 0..generator.num_bins() {
        for r in generator.records_for_bin(bin) {
            pipeline.push_sampled_record(r).unwrap();
        }
    }
    let rate = pipeline.resolution_stats().flow_rate();
    assert!(
        (rate - 0.94).abs() < 0.02,
        "resolution rate {rate:.3} should sit at the configured ~94%"
    );
}
