//! Daemon ≡ batch under delay: a stream whose frames are held back by up
//! to twice the lateness horizon goes through a tenant and through the
//! batch datagram ingest, and both must refuse exactly the same records —
//! equal matrices, equal late and quarantine counts. Both paths bin frames
//! through the one `MeasurementPipeline` body, so this holds by
//! construction; the test is what notices if a path stops doing so, and
//! its conservation check holds the body itself to account.

use odflow_flow::{
    PipelineConfig, RepairPolicy, ShardedIngest, TrafficType, LATENESS_HORIZON_BINS,
};
use odflow_gen::{Scenario, ScenarioConfig};
use odflow_net::IngressResolver;
use odflow_serve::{TenantConfig, TenantCounters, TenantPipeline};
use proptest::prelude::*;
use std::sync::OnceLock;

const BINS: usize = 3 * LATENESS_HORIZON_BINS;

/// An anomaly-free Abilene window and its export frames, one burst per
/// bin.
fn rendered() -> &'static (Scenario, Vec<Vec<Vec<u8>>>) {
    static RENDERED: OnceLock<(Scenario, Vec<Vec<Vec<u8>>>)> = OnceLock::new();
    RENDERED.get_or_init(|| {
        let config =
            ScenarioConfig { seed: 41, num_bins: BINS, total_demand: 600.0, ..Default::default() };
        let scenario = Scenario::new(config, vec![]).unwrap();
        let generator = scenario.generator();
        let mut seqs = vec![0u32; scenario.topology.num_pops()];
        let bins = (0..BINS).map(|bin| generator.frames_for_bin(bin, &mut seqs)).collect();
        (scenario, bins)
    })
}

/// SplitMix64: the frame delays as a function of the case seed alone.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The stream with one frame in four held back 1 to 2H bins: sent after
/// the frames of the bin it is held to (after the last bin if that is
/// past the window), its header still saying when it was exported.
fn delayed(seed: u64) -> Vec<Vec<u8>> {
    let (_, bins) = rendered();
    let mut held: Vec<Vec<&Vec<u8>>> = vec![Vec::new(); BINS];
    let mut stream = Vec::new();
    let mut index = 0u64;
    for (bin, frames) in bins.iter().enumerate() {
        for frame in frames {
            let h = mix(seed ^ index);
            index += 1;
            let delay = if h.is_multiple_of(4) {
                1 + (h >> 8) as usize % (2 * LATENESS_HORIZON_BINS)
            } else {
                0
            };
            match delay {
                0 => stream.push(frame.clone()),
                d => held[(bin + d).min(BINS - 1)].push(frame),
            }
        }
        stream.extend(held[bin].drain(..).cloned());
    }
    stream
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn daemon_and_batch_refuse_the_same_late_records(seed in any::<u64>()) {
        let (scenario, _) = rendered();
        let frames = delayed(seed);
        let routes = scenario.plan.build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&scenario.topology);
        let config = TenantConfig::abilene("t0", 0, BINS);
        let mut tenant =
            TenantPipeline::new(config, &scenario.topology, ingress.clone(), routes.clone())
                .unwrap();
        for frame in &frames {
            tenant.ingest_frame(frame);
        }
        let counters = tenant.counters();
        let flush = tenant.flush().unwrap();
        let daemon = &flush.outcome;
        prop_assert!(daemon.dropped_late > 0, "some frame is held past the horizon");
        prop_assert_eq!(TenantCounters::get(&counters.records_late_dropped), daemon.dropped_late);
        // Every decoded record is in a cell, out of the window,
        // unresolved or transit, or refused late.
        let s = &daemon.stats;
        let placed = daemon.quality.bin_records.iter().sum::<u64>()
            + daemon.dropped_out_of_window
            + (s.flows_total - s.flows_resolved + s.transit_skipped)
            + daemon.dropped_late;
        prop_assert_eq!(TenantCounters::get(&counters.records_decoded), placed);

        let engine =
            ShardedIngest::new(PipelineConfig::abilene(0, BINS), &scenario.topology, ingress, routes)
                .unwrap();
        let mut batch = engine.ingest_datagrams(&frames).unwrap();
        batch.repair(RepairPolicy::default());
        for t in TrafficType::ALL {
            prop_assert_eq!(
                daemon.matrices.get(t).data.as_slice(),
                batch.matrices.get(t).data.as_slice()
            );
        }
        prop_assert_eq!(daemon.dropped_late, batch.dropped_late);
        prop_assert_eq!(daemon.dropped_out_of_window, batch.dropped_out_of_window);
        prop_assert_eq!(daemon.stats, batch.stats);
        prop_assert_eq!(&daemon.quality, &batch.quality);
    }
}
