//! Sharded/serial ingest equivalence.
//!
//! The sharded ingest engine must reproduce the serial
//! `MeasurementPipeline` **bitwise** — `TrafficMatrixSet` cell-for-cell,
//! resolution statistics and drop counters exactly — for any
//! `ODFLOW_THREADS` (pinned here via `with_thread_limit` at 1 / typical /
//! oversubscribed, mirroring the `par_equivalence` suites in
//! `crates/linalg` and `crates/subspace`) and for every shard grain the
//! grain rule gives a window.

use odflow_flow::{
    FlowError, FlowKey, FlowRecord, MeasurementPipeline, PipelineConfig, Protocol, ResolutionStats,
    ShardedIngest, TrafficMatrixSet, DEFAULT_SHARD_BINS,
};
use odflow_net::{AddressPlan, IngressResolver, Topology};
use odflow_par::with_thread_limit;
use proptest::prelude::*;

/// A compact record spec the strategy shrinks well on: everything needed
/// to build one `FlowRecord` over the synthetic Abilene plan.
#[derive(Debug, Clone)]
struct RecSpec {
    src_pop: usize,
    dst_pop: usize,
    /// 0 = resolvable customer dst, 1 = unannounced dst, 2 = transit iface.
    flavor: u8,
    /// Timestamp as a fraction of an *extended* window: values past 1.0
    /// land records beyond the observation window (counted drops).
    ts_frac: f64,
    salt: u32,
    packets: u64,
    bytes: u64,
}

fn spec_strategy() -> impl Strategy<Value = RecSpec> {
    (0usize..11, 0usize..11, 0u8..=2, 0.0f64..1.25, 0u32..5000, 1u64..40, 40u64..60_000).prop_map(
        |(src_pop, dst_pop, flavor, ts_frac, salt, packets, bytes)| RecSpec {
            src_pop,
            dst_pop,
            flavor,
            ts_frac,
            salt,
            packets,
            bytes,
        },
    )
}

fn build_record(plan: &AddressPlan, spec: &RecSpec, window_secs: u64) -> FlowRecord {
    let dst = match spec.flavor {
        1 => plan.unannounced_addr(spec.dst_pop, spec.salt),
        _ => plan.customer_addr(spec.dst_pop, (spec.salt % 4) as usize, spec.salt),
    };
    FlowRecord {
        key: FlowKey::new(
            plan.customer_addr(spec.src_pop, 0, 0x9000 + spec.salt),
            dst,
            (1024 + spec.salt % 10_000) as u16,
            if spec.salt.is_multiple_of(3) { 80 } else { 443 },
            Protocol::Tcp,
        ),
        router: spec.src_pop,
        interface: if spec.flavor == 2 { 100 } else { 0 },
        // Minute-aligned, possibly past the window end (ts_frac > 1.0).
        window_start: ((spec.ts_frac * window_secs as f64) as u64) / 60 * 60,
        packets: spec.packets,
        bytes: spec.bytes,
    }
}

fn run_serial(
    cfg: PipelineConfig,
    t: &Topology,
    plan: &AddressPlan,
    records: &[FlowRecord],
) -> (TrafficMatrixSet, ResolutionStats, u64) {
    let routes = plan.build_route_table(1.0).unwrap();
    let ingress = IngressResolver::synthetic(t);
    let mut pipe = MeasurementPipeline::new(cfg, t, ingress, routes).unwrap();
    for r in records {
        pipe.push_sampled_record(*r).unwrap();
    }
    let dropped = pipe.dropped_out_of_window();
    let (set, stats) = pipe.finalize().unwrap();
    (set, stats, dropped)
}

fn assert_bitwise_equal(a: &TrafficMatrixSet, b: &TrafficMatrixSet) {
    assert_eq!(a.bytes.data.as_slice(), b.bytes.data.as_slice(), "bytes view diverged");
    assert_eq!(a.packets.data.as_slice(), b.packets.data.as_slice(), "packets view diverged");
    assert_eq!(a.flows.data.as_slice(), b.flows.data.as_slice(), "flows view diverged");
    assert_eq!(a.bytes.start_secs, b.bytes.start_secs);
    assert_eq!(a.bytes.bin_secs, b.bytes.bin_secs);
}

#[test]
fn sharded_ingest_equivalence_fixed_stream() {
    let t = Topology::abilene();
    let plan = AddressPlan::synthetic(&t);
    let num_bins = 29;
    let cfg = PipelineConfig::abilene(0, num_bins);
    let window_secs = num_bins as u64 * 300;
    let records: Vec<FlowRecord> = (0..4000u32)
        .map(|i| {
            let spec = RecSpec {
                src_pop: (i % 11) as usize,
                dst_pop: ((i / 7) % 11) as usize,
                flavor: (i % 17 == 0) as u8 + 2 * u8::from(i % 23 == 0),
                ts_frac: (i % 1000) as f64 / 950.0, // some past the window
                salt: i,
                packets: 1 + (i % 9) as u64,
                bytes: 40 + (i * 13 % 9000) as u64,
            };
            build_record(&plan, &spec, window_secs)
        })
        .collect();
    let (set, stats, dropped) = run_serial(cfg, &t, &plan, &records);
    assert!(dropped > 0, "fixture must exercise the out-of-window path");

    let routes = plan.build_route_table(1.0).unwrap();
    let ingress = IngressResolver::synthetic(&t);
    let engine = ShardedIngest::new(cfg, &t, ingress, routes).unwrap();
    assert_eq!(engine.shard_bins(), 4);
    for &threads in &[1usize, 4, num_bins + 20] {
        let outcome = with_thread_limit(threads, || engine.ingest_records(&records).unwrap());
        assert_eq!(outcome.stats, stats, "threads={threads}");
        assert_eq!(outcome.dropped_out_of_window, dropped, "threads={threads}");
        assert_bitwise_equal(&outcome.matrices, &set);
    }
}

/// The fixture stream of [`sharded_ingest_equivalence_fixed_stream`],
/// scaled to a window of `num_bins` bins: resolvable, unresolvable and
/// transit records, about one in twenty past the window's end.
fn fixed_stream(plan: &AddressPlan, num_bins: usize, count: u32) -> Vec<FlowRecord> {
    (0..count)
        .map(|i| {
            let spec = RecSpec {
                src_pop: (i % 11) as usize,
                dst_pop: ((i / 7) % 11) as usize,
                flavor: (i % 17 == 0) as u8 + 2 * u8::from(i % 23 == 0),
                ts_frac: (i % 1000) as f64 / 950.0,
                salt: i,
                packets: 1 + (i % 9) as u64,
                bytes: 40 + (i * 13 % 9000) as u64,
            };
            build_record(plan, &spec, num_bins as u64 * 300)
        })
        .collect()
}

#[test]
fn in_place_engine_matches_serial_pipeline_for_every_window_length() {
    // Under the engine's own grain rule, window lengths 1..=40 cover
    // windows shorter than eight bins (one bin per shard), exact tilings
    // and ragged last shards.
    let t = Topology::abilene();
    let plan = AddressPlan::synthetic(&t);
    let routes = plan.build_route_table(1.0).unwrap();
    let ingress = IngressResolver::synthetic(&t);
    let mut grains = Vec::new();
    for num_bins in 1..=40usize {
        let cfg = PipelineConfig::abilene(0, num_bins);
        let records = fixed_stream(&plan, num_bins, 1500);
        let (set, stats, dropped) = run_serial(cfg, &t, &plan, &records);
        assert!(dropped > 0, "fixture must exercise the out-of-window path");
        let engine = ShardedIngest::new(cfg, &t, ingress.clone(), routes.clone()).unwrap();
        assert_eq!(engine.shard_bins(), DEFAULT_SHARD_BINS.min(num_bins.div_ceil(8)));
        assert_eq!(engine.num_shards(), num_bins.div_ceil(engine.shard_bins()));
        let shards = engine.num_shards();
        assert!((num_bins.min(5)..=8).contains(&shards), "bins={num_bins}: {shards} shards");
        grains.push(engine.shard_bins());
        for threads in [1usize, 2, 5] {
            let outcome = with_thread_limit(threads, || engine.ingest_records(&records).unwrap());
            assert_eq!(outcome.stats, stats, "bins={num_bins} threads={threads}");
            assert_eq!(outcome.dropped_out_of_window, dropped, "bins={num_bins}");
            assert_eq!(outcome.quality.bin_records.len(), num_bins);
            assert_bitwise_equal(&outcome.matrices, &set);
        }
    }
    grains.dedup();
    assert_eq!(grains, [1, 2, 3, 4, 5], "the rule moved the grain across the sweep");
}

#[test]
fn grain_rule_caps_at_the_default_and_yields_to_an_override() {
    let t = Topology::abilene();
    let plan = AddressPlan::synthetic(&t);
    let routes = plan.build_route_table(1.0).unwrap();
    let ingress = IngressResolver::synthetic(&t);
    let engine = |num_bins: usize| {
        let cfg = PipelineConfig::abilene(0, num_bins);
        ShardedIngest::new(cfg, &t, ingress.clone(), routes.clone()).unwrap()
    };
    // The large-mesh window is 8 x 3 bins; a paper week keeps 126 x 16.
    for (num_bins, grain, shards) in
        [(24usize, 3usize, 8usize), (127, 16, 8), (128, 16, 8), (129, 16, 9), (2016, 16, 126)]
    {
        let e = engine(num_bins);
        assert_eq!((e.shard_bins(), e.num_shards()), (grain, shards), "bins={num_bins}");
    }
}

#[test]
fn fill_shards_routes_drops_to_the_last_shard_and_surfaces_push_errors() {
    let t = Topology::abilene();
    let plan = AddressPlan::synthetic(&t);
    let routes = plan.build_route_table(1.0).unwrap();
    let ingress = IngressResolver::synthetic(&t);
    let num_bins = 11;
    let cfg = PipelineConfig::abilene(0, num_bins);
    let engine = ShardedIngest::new(cfg, &t, ingress, routes).unwrap();
    assert_eq!((engine.shard_bins(), engine.num_shards()), (2, 6));
    let records = fixed_stream(&plan, num_bins, 1500);
    let (_, _, dropped) = run_serial(cfg, &t, &plan, &records);
    let owner = |r: &FlowRecord| (r.window_start / 300).min(num_bins as u64 - 1) as usize / 2;

    // What lies past the window's end is offered to the last shard, which
    // counts it; no other shard drops anything.
    let outcome = engine
        .fill_shards(|i, shard| {
            assert_eq!(shard.bins(), engine.shard_range(i));
            for r in records.iter().filter(|r| owner(r) == i) {
                shard.push_sampled_record(*r)?;
            }
            let expect = if i + 1 == engine.num_shards() { dropped } else { 0 };
            assert_eq!(shard.dropped_out_of_window(), expect, "shard {i}");
            Ok(())
        })
        .unwrap();
    assert_eq!(outcome.dropped_out_of_window, dropped);

    // A record of shard 4's bins pushed into shards 1 and 3 is a routing
    // error in each; the call answers with the first in shard order and
    // hands out no matrices, though every other shard filled cleanly.
    let stray = *records.iter().find(|r| owner(r) == 4).unwrap();
    for threads in [1usize, 2, 5] {
        let result = with_thread_limit(threads, || {
            engine.fill_shards(|i, shard| {
                for r in records.iter().filter(|r| owner(r) == i) {
                    shard.push_sampled_record(*r)?;
                }
                if i == 1 || i == 3 {
                    shard.push_sampled_record(stray)?;
                }
                Ok(())
            })
        });
        let (start, end) = (2 * 300, 4 * 300);
        assert_eq!(
            result.err(),
            Some(FlowError::TimestampOutOfRange { ts: stray.window_start, start, end }),
            "threads={threads}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn sharded_ingest_equivalence_randomized(
        specs in proptest::collection::vec(spec_strategy(), 50..400),
        num_bins in 3usize..40, // grains 1 to 5 under the rule
        threads in 2usize..24,
        start_secs in 0u64..100_000,
    ) {
        let t = Topology::abilene();
        let plan = AddressPlan::synthetic(&t);
        let cfg = PipelineConfig::abilene(start_secs / 300 * 300, num_bins);
        let window_secs = num_bins as u64 * 300;
        let records: Vec<FlowRecord> = specs
            .iter()
            .map(|s| {
                let mut r = build_record(&plan, s, window_secs);
                r.window_start += cfg.start_secs;
                r
            })
            .collect();

        // The serial pipeline may legitimately see zero accepted records
        // (all unresolvable/out-of-window); both paths must agree then too.
        let routes = plan.build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&t);
        let mut pipe =
            MeasurementPipeline::new(cfg, &t, ingress.clone(), routes.clone()).unwrap();
        for r in &records {
            pipe.push_sampled_record(*r).unwrap();
        }
        let dropped = pipe.dropped_out_of_window();
        let serial = pipe.finalize();

        let engine = ShardedIngest::new(cfg, &t, ingress, routes).unwrap();
        for &limit in &[1usize, threads, num_bins + 31] {
            let outcome = with_thread_limit(limit, || engine.ingest_records(&records));
            match (&serial, outcome) {
                (Ok((set, stats)), Ok(merged)) => {
                    prop_assert_eq!(&merged.stats, stats);
                    prop_assert_eq!(merged.dropped_out_of_window, dropped);
                    prop_assert_eq!(
                        merged.matrices.bytes.data.as_slice(),
                        set.bytes.data.as_slice()
                    );
                    prop_assert_eq!(
                        merged.matrices.packets.data.as_slice(),
                        set.packets.data.as_slice()
                    );
                    prop_assert_eq!(
                        merged.matrices.flows.data.as_slice(),
                        set.flows.data.as_slice()
                    );
                }
                (Err(se), Err(pe)) => prop_assert_eq!(se.clone(), pe),
                (s, p) => prop_assert!(false, "serial {:?} vs sharded {:?} diverged", s, p),
            }
        }
    }
}
