//! The packet-level measurement path, end to end and on the wire:
//! per-packet observations -> 1% Bernoulli sampling -> per-minute 5-tuple
//! aggregation -> NetFlow-v5-style export datagrams -> decode -> 11-bit
//! destination anonymization -> ingress/egress OD resolution -> 5-minute
//! traffic matrices. This is §2.1 of the paper as running code, including
//! the wire format round-trip.
//!
//! ```sh
//! cargo run --release --example netflow_pipeline
//! ```

#![forbid(unsafe_code)]

use odflow::flow::{
    netflow, FlowAggregator, FlowKey, MeasurementPipeline, PacketObs, PacketSampler,
    PipelineConfig, Protocol, QuarantineStats, MINUTE_SECS,
};
use odflow::net::{AddressPlan, IngressResolver, Topology};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topology = Topology::abilene();
    let plan = AddressPlan::synthetic(&topology);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);

    // --- Stage 1: raw packets at the routers (30 minutes of traffic). ---
    let horizon = 1800u64;
    let mut packets = Vec::new();
    for origin in 0..topology.num_pops() {
        for flow in 0..120 {
            let dest = (origin + 1 + flow % (topology.num_pops() - 1)) % topology.num_pops();
            let key = FlowKey::new(
                plan.customer_addr(origin, flow % 4, rng.gen()),
                plan.customer_addr(dest, flow % 4, rng.gen()),
                rng.gen_range(1024..=65000),
                [80u16, 443, 53, 25][flow % 4],
                Protocol::Tcp,
            );
            let n_packets = rng.gen_range(50..2500);
            for _ in 0..n_packets {
                packets.push(PacketObs::new(
                    rng.gen_range(0..horizon),
                    origin,
                    0,
                    key,
                    [40u32, 576, 1500][rng.gen_range(0..3)],
                ));
            }
        }
    }
    packets.sort_by_key(|p| p.ts);
    println!("stage 1: {} packets offered at {} routers", packets.len(), topology.num_pops());

    // --- Stage 2: 1% sampling + per-minute aggregation. ---
    let mut sampler = PacketSampler::new(0.01, 7)?;
    let mut aggregator = FlowAggregator::new(MINUTE_SECS, MINUTE_SECS)?;
    let mut records = Vec::new();
    for p in &packets {
        if sampler.sample() {
            records.extend(aggregator.push(p));
        }
    }
    records.extend(aggregator.flush());
    let (observed, sampled) = sampler.counters();
    println!(
        "stage 2: sampled {sampled}/{observed} packets ({:.2}%), {} flow records",
        sampled as f64 / observed as f64 * 100.0,
        records.len()
    );

    // --- Stage 3: NetFlow v5 wire round-trip. ---
    let datagrams = netflow::encode_datagrams(&records, 0, 0, 100, 0);
    let wire_bytes: usize = datagrams.iter().map(Vec::len).sum();
    let mut quarantine = QuarantineStats::default();
    let mut decoded = Vec::new();
    for d in &datagrams {
        decoded.extend(netflow::decode_frame(d, &mut quarantine).ok_or("frame quarantined")?.1);
    }
    assert_eq!(decoded.len(), records.len(), "wire round-trip must be lossless");
    println!(
        "stage 3: {} datagrams, {wire_bytes} bytes on the wire, round-trip lossless",
        datagrams.len()
    );

    // --- Stage 4: anonymize + resolve to OD pairs + bin. ---
    let routes = plan.build_route_table(1.0)?;
    let ingress = IngressResolver::synthetic(&topology);
    let config = PipelineConfig::abilene(0, (horizon / 300) as usize);
    let mut pipeline = MeasurementPipeline::new(config, &topology, ingress, routes)?;
    for r in decoded {
        pipeline.push_sampled_record(r)?;
    }
    let (matrices, stats) = pipeline.finalize()?;
    println!(
        "stage 4: {:.1}% of flows resolved ({:.1}% of bytes); {} x {} traffic matrices",
        stats.flow_rate() * 100.0,
        stats.byte_rate() * 100.0,
        matrices.num_bins(),
        matrices.num_od_pairs()
    );

    let totals = matrices.packets.totals();
    println!("packets per 5-minute bin: {totals:?}");
    println!("pipeline complete: packets -> NetFlow wire -> OD traffic matrices");
    Ok(())
}
