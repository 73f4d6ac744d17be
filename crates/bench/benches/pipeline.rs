//! Criterion micro-benchmarks for every computational stage of the
//! reproduction: numerics (eigendecomposition, SVD), the subspace model,
//! detection statistics, the measurement pipeline (sampling, aggregation,
//! NetFlow codec, OD binning), and trace generation.
//!
//! These make the harness double as a performance regression suite: the
//! paper's method must comfortably run online (one 5-minute bin of work
//! per 5 minutes of traffic).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use odflow::flow::{
    netflow, FlowAggregator, FlowKey, OdBinner, PacketObs, PacketSampler, Protocol,
};
use odflow::gen::{Scenario, ScenarioConfig};
use odflow::linalg::{eigen_symmetric, thin_svd};
use odflow::net::IpAddr;
use odflow::stats::{q_threshold, t2_threshold};
use odflow::subspace::{SubspaceConfig, SubspaceDetector, SubspaceModel};

use odflow_bench::traffic_matrix;

fn bench_linalg(c: &mut Criterion) {
    let mut g = c.benchmark_group("linalg");
    for &p in &[32usize, 64, 121] {
        let x = traffic_matrix(4 * p, p);
        let cov = odflow::linalg::covariance(&x).unwrap();
        g.bench_with_input(BenchmarkId::new("eigen_symmetric", p), &cov, |b, cov| {
            b.iter(|| eigen_symmetric(black_box(cov)).unwrap());
        });
    }
    let x = traffic_matrix(2016, 121);
    g.bench_function("thin_svd_2016x121", |b| b.iter(|| thin_svd(black_box(&x), 0.0).unwrap()));
    g.finish();
}

/// The blocked/parallel Gram and covariance kernels at the paper's mesh
/// (p = 121) and at the larger meshes the parallel core targets, each with a
/// single-thread serial baseline for regression tracking.
fn bench_gram_covariance(c: &mut Criterion) {
    let mut g = c.benchmark_group("gram");
    g.sample_size(20);
    for &p in &[121usize, 256, 512] {
        let x = traffic_matrix(4 * p, p);
        g.bench_with_input(BenchmarkId::new("scatter", p), &x, |b, x| {
            b.iter(|| odflow::linalg::scatter(black_box(x)).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("scatter_serial", p), &x, |b, x| {
            b.iter(|| {
                odflow::par::with_thread_limit(1, || odflow::linalg::scatter(black_box(x)).unwrap())
            });
        });
        g.bench_with_input(BenchmarkId::new("covariance", p), &x, |b, x| {
            b.iter(|| odflow::linalg::covariance(black_box(x)).unwrap());
        });
    }
    g.finish();
}

/// Week-scale scenario materialization: all 2016 five-minute bins of one
/// paper week, rendered through the parallel `records_for_bins` fan-out and
/// through the single-thread fallback.
fn bench_week_materialization(c: &mut Criterion) {
    let mut g = c.benchmark_group("generator_week");
    g.sample_size(10);
    // A lighter demand keeps one iteration sub-second while preserving the
    // per-bin fan-out shape of the full workload.
    let config = ScenarioConfig {
        num_bins: odflow::gen::BINS_PER_WEEK,
        total_demand: 500.0,
        ..Default::default()
    };
    let scenario = Scenario::new(config, vec![]).unwrap();
    let generator = scenario.generator();
    g.bench_function("records_for_week", |b| {
        b.iter(|| black_box(generator.records_for_bins(0..odflow::gen::BINS_PER_WEEK)).len());
    });
    g.bench_function("records_for_week_serial", |b| {
        b.iter(|| {
            odflow::par::with_thread_limit(1, || {
                black_box(generator.records_for_bins(0..odflow::gen::BINS_PER_WEEK)).len()
            })
        });
    });
    g.finish();
}

fn bench_subspace(c: &mut Criterion) {
    let mut g = c.benchmark_group("subspace");
    let x = traffic_matrix(2016, 121);
    g.bench_function("model_fit_week", |b| {
        b.iter(|| SubspaceModel::fit_default(black_box(&x)).unwrap());
    });
    let model = SubspaceModel::fit_default(&x).unwrap();
    let row = x.row(1000).unwrap();
    g.bench_function("score_one_bin", |b| {
        b.iter(|| {
            let spe = model.spe(black_box(row)).unwrap();
            let t2 = model.t2(black_box(row)).unwrap();
            black_box((spe, t2))
        });
    });
    g.bench_function("detector_analyze_week", |b| {
        b.iter(|| SubspaceDetector::new(SubspaceConfig::default()).analyze(black_box(&x)).unwrap());
    });
    g.finish();
}

fn bench_thresholds(c: &mut Criterion) {
    let mut g = c.benchmark_group("thresholds");
    let eigenvalues: Vec<f64> = (0..121).map(|i| 1e4 / (1.0 + i as f64).powi(2)).collect();
    g.bench_function("q_threshold", |b| {
        b.iter(|| q_threshold(black_box(&eigenvalues), 4, 0.001).unwrap());
    });
    g.bench_function("t2_threshold", |b| {
        b.iter(|| t2_threshold(black_box(4), black_box(2016), black_box(0.001)).unwrap());
    });
    g.finish();
}

fn bench_measurement(c: &mut Criterion) {
    let mut g = c.benchmark_group("measurement");

    g.bench_function("sampler_1M_packets", |b| {
        b.iter(|| {
            let mut s = PacketSampler::new(0.01, 7).unwrap();
            let mut kept = 0u64;
            for _ in 0..1_000_000 {
                if s.sample() {
                    kept += 1;
                }
            }
            black_box(kept)
        });
    });

    let key = FlowKey::new(
        IpAddr::from_octets(10, 0, 0, 1),
        IpAddr::from_octets(10, 16, 0, 1),
        40_000,
        80,
        Protocol::Tcp,
    );
    g.bench_function("aggregator_100k_packets", |b| {
        b.iter(|| {
            let mut agg = FlowAggregator::new(60, 0).unwrap();
            for i in 0..100_000u64 {
                let mut k = key;
                k.src_port = (i % 512) as u16;
                agg.push(&PacketObs::new(i / 500, 0, 0, k, 100));
            }
            black_box(agg.flush().len())
        });
    });

    // NetFlow codec round-trip, 30-record datagrams.
    let records: Vec<odflow::flow::FlowRecord> = (0..300)
        .map(|i| odflow::flow::FlowRecord {
            key: FlowKey::new(
                IpAddr(0x0A000000 + i),
                IpAddr(0x0A100000 + i),
                (1024 + i) as u16,
                80,
                Protocol::Tcp,
            ),
            router: 3,
            interface: 0,
            window_start: 60 * (i as u64 % 5),
            packets: 1 + i as u64 % 9,
            bytes: 40 * (1 + i as u64 % 9),
        })
        .collect();
    g.bench_function("netflow_roundtrip_300_records", |b| {
        b.iter(|| {
            let dgrams = netflow::encode_datagrams(black_box(&records), 0, 3, 100, 0);
            let mut n = 0;
            for d in &dgrams {
                n += netflow::decode_datagram(d).unwrap().1.len();
            }
            black_box(n)
        });
    });

    g.bench_function("od_binner_100k_records", |b| {
        b.iter(|| {
            let mut binner = OdBinner::new(0, 300, 12, 121).unwrap();
            for i in 0..100_000u64 {
                let mut r = records[(i % 300) as usize];
                r.window_start = (i % (12 * 300)) / 300 * 300;
                r.key.src_port = (i % 2048) as u16;
                binner.push((i % 121) as usize, &r).unwrap();
            }
            black_box(binner.records_accepted())
        });
    });
    g.finish();
}

fn bench_generator(c: &mut Criterion) {
    let mut g = c.benchmark_group("generator");
    g.sample_size(20);
    let config = ScenarioConfig { num_bins: 288, ..Default::default() };
    let scenario = Scenario::new(config, vec![]).unwrap();
    let generator = scenario.generator();
    g.bench_function("records_for_one_bin", |b| {
        b.iter(|| black_box(generator.records_for_bin(black_box(144))).len());
    });
    g.finish();
}

/// The fused generate→bin ingest path: one day of Abilene bins rendered
/// straight into sharded OD binners, parallel vs the single-thread
/// fallback — the workload `perf_report`'s `ingest` stage tracks.
fn bench_sharded_ingest(c: &mut Criterion) {
    let mut g = c.benchmark_group("ingest");
    g.sample_size(10);
    let config = ScenarioConfig { num_bins: 288, total_demand: 500.0, ..Default::default() };
    let scenario = Scenario::new(config, vec![]).unwrap();
    let generator = scenario.generator();
    let routes = scenario.plan.build_route_table(1.0).unwrap();
    let ingress = odflow::net::IngressResolver::synthetic(&scenario.topology);
    let pipe_cfg = odflow::flow::PipelineConfig::abilene(0, 288);
    g.bench_function("bin_scenario_day", |b| {
        b.iter(|| {
            black_box(generator.bin_scenario(pipe_cfg, ingress.clone(), routes.clone()).unwrap())
                .stats
                .flows_resolved
        });
    });
    g.bench_function("bin_scenario_day_serial", |b| {
        b.iter(|| {
            odflow::par::with_thread_limit(1, || {
                black_box(
                    generator.bin_scenario(pipe_cfg, ingress.clone(), routes.clone()).unwrap(),
                )
                .stats
                .flows_resolved
            })
        });
    });
    g.finish();
}

/// The large-mesh workload at criterion scale: an hour of 90k-OD-pair
/// bins through the fused sharded path.
fn bench_large_mesh(c: &mut Criterion) {
    let mut g = c.benchmark_group("large_mesh");
    g.sample_size(10);
    let num_bins = 12;
    let config = ScenarioConfig { num_bins, ..ScenarioConfig::large_mesh() };
    let scenario = Scenario::large_mesh_with(config).unwrap();
    let generator = scenario.generator();
    let routes = scenario.plan.build_route_table(1.0).unwrap();
    let ingress = odflow::net::IngressResolver::synthetic(&scenario.topology);
    let pipe_cfg = odflow::flow::PipelineConfig::abilene(0, num_bins);
    g.bench_function("bin_scenario_hour_p90000", |b| {
        b.iter(|| {
            black_box(generator.bin_scenario(pipe_cfg, ingress.clone(), routes.clone()).unwrap())
                .stats
                .flows_resolved
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_linalg,
    bench_gram_covariance,
    bench_subspace,
    bench_thresholds,
    bench_measurement,
    bench_generator,
    bench_week_materialization,
    bench_sharded_ingest,
    bench_large_mesh
);
criterion_main!(benches);
