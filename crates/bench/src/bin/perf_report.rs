//! `perf_report` — fixed-workload wall-clock harness for the parallel
//! numerics core.
//!
//! Times every hot stage of the reproduction (the fan-out dispatch
//! microbench, Gram matrix, dense eigendecomposition, blocked matmul,
//! subspace model fit, batch detection, scenario materialization, the
//! fused sharded ingest, the 90k-OD-pair large-mesh pipeline, the
//! end-to-end pipeline, the fault-storm frame-ingest path, the daemon's
//! loopback-socket serve path, and the per-bin-close cost of a
//! checkpointing tenant) twice:
//! once with the pool pinned to a single
//! thread (the serial baseline) and once with the full pool. Emits a
//! machine-readable `BENCH_pipeline.json` — stamped with the pool size and
//! kind (`"pool": "persistent"`), raw `ODFLOW_THREADS`, ingest shard
//! grain, and peak RSS, so CI artifacts are self-describing — and the perf
//! trajectory of the repo is tracked from one fixed workload set:
//! `perf_gate` diffs every PR's report against the previous run's
//! artifact.
//!
//! Usage:
//!
//! ```text
//! perf_report [--quick] [--out PATH] [--stage NAME]...
//! ```
//!
//! `--quick` shrinks the workloads for CI (seconds, not minutes); `--out`
//! overrides the default `BENCH_pipeline.json` output path. `--stage NAME`
//! (repeatable) restricts the run to the named stage(s) — e.g.
//! `--stage large_mesh_detect` re-measures one stage without the full
//! sweep; the resulting partial report is for local iteration, not for
//! committing as a CI baseline (the gate requires every stage). The pool
//! obeys `ODFLOW_THREADS` as everywhere else, so `ODFLOW_THREADS=4
//! perf_report` measures a four-thread pool against the same serial
//! baseline.

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::time::Instant;

use odflow::flow::{PipelineConfig, ShardedIngest};
use odflow::gen::{Scenario, ScenarioConfig};
use odflow::linalg::{eigen_symmetric, scatter, EigenMethod};
use odflow::net::IngressResolver;
use odflow::subspace::{SubspaceConfig, SubspaceDetector, SubspaceModel};
use odflow_bench::{traffic_matrix, PERF_STAGES};
use odflow_serve::{
    replay_scenario, CheckpointStore, Daemon, DaemonHandle, LoadGenConfig, ServeConfig,
    TenantConfig, TenantPipeline, TenantSpec, Transport,
};

/// Seed for the fault-storm stage (the harness seed, kept local so the
/// stage workload is pinned independently of table/figure binaries).
const HARNESS_SEED_LOCAL: u64 = odflow_bench::HARNESS_SEED;

/// Which stages this invocation measures: all of them, or the `--stage`
/// selection.
struct StageFilter {
    only: Vec<String>,
}

impl StageFilter {
    fn enabled(&self, name: &str) -> bool {
        self.only.is_empty() || self.only.iter().any(|s| s == name)
    }
}

/// One timed stage: serial baseline vs full-pool wall clock.
struct StageResult {
    name: &'static str,
    workload: String,
    serial_ms: f64,
    parallel_ms: f64,
}

impl StageResult {
    fn speedup(&self) -> f64 {
        if self.parallel_ms > 0.0 {
            self.serial_ms / self.parallel_ms
        } else {
            0.0
        }
    }
}

/// Best-of-`reps` wall-clock milliseconds for `f`.
fn time_best_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Runs one stage serially (pool pinned to 1 thread) and in parallel.
fn run_stage<R>(
    name: &'static str,
    workload: String,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> StageResult {
    let serial_ms = odflow_par::with_thread_limit(1, || time_best_ms(reps, &mut f));
    let parallel_ms = time_best_ms(reps, &mut f);
    let result = StageResult { name, workload, serial_ms, parallel_ms };
    println!(
        "  {:<10} {:<28} serial {:>9.2} ms   parallel {:>9.2} ms   speedup {:>5.2}x",
        result.name,
        result.workload,
        result.serial_ms,
        result.parallel_ms,
        result.speedup()
    );
    result
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Peak resident set size of this process in kB, from `/proc/self/status`
/// (`VmHWM`). Returns 0 on platforms without procfs — the field is
/// advisory CI metadata, not a measurement the gate acts on.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

fn write_json(
    path: &str,
    quick: bool,
    ingest_shard_bins: Option<usize>,
    stages: &[StageResult],
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"odflow-perf-report/v1\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"hardware_threads\": {},\n", odflow_par::hardware_threads()));
    out.push_str(&format!("  \"pool_threads\": {},\n", odflow_par::default_threads()));
    // Which fan-out runtime produced these numbers: dispatch overhead is
    // part of every parallel column, so baselines must be comparable on it.
    out.push_str(&format!("  \"pool\": \"{}\",\n", json_escape(odflow_par::POOL_KIND)));
    // Self-describing multi-core CI artifacts: the raw env override (if
    // any), the shard grain the `ingest` stage's engine chose for its
    // window (null when the stage did not run), and this run's high-water
    // memory mark.
    match std::env::var(odflow_par::THREADS_ENV) {
        Ok(v) => out.push_str(&format!("  \"odflow_threads_env\": \"{}\",\n", json_escape(&v))),
        Err(_) => out.push_str("  \"odflow_threads_env\": null,\n"),
    }
    match ingest_shard_bins {
        Some(bins) => out.push_str(&format!("  \"ingest_shard_bins\": {bins},\n")),
        None => out.push_str("  \"ingest_shard_bins\": null,\n"),
    }
    out.push_str(&format!("  \"peak_rss_kb\": {},\n", peak_rss_kb()));
    out.push_str("  \"stages\": [\n");
    for (i, s) in stages.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"workload\": \"{}\", \"serial_ms\": {:.3}, \
             \"parallel_ms\": {:.3}, \"speedup\": {:.3}}}{}\n",
            json_escape(s.name),
            json_escape(&s.workload),
            s.serial_ms,
            s.parallel_ms,
            s.speedup(),
            if i + 1 < stages.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("usage: perf_report [--quick] [--out PATH] [--stage NAME]...");
    eprintln!("stages: {}", PERF_STAGES.join(", "));
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut out_path = "BENCH_pipeline.json".to_string();
    let mut only_stages: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(path) if !path.starts_with("--") => out_path = path,
                Some(path) => usage_error(&format!("--out expects a path, got flag {path}")),
                None => usage_error("--out expects a path"),
            },
            "--stage" => match args.next() {
                Some(name) if PERF_STAGES.contains(&name.as_str()) => only_stages.push(name),
                Some(name) => usage_error(&format!("unknown stage: {name}")),
                None => usage_error("--stage expects a stage name"),
            },
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }
    let filter = StageFilter { only: only_stages };

    let reps = if quick { 2 } else { 3 };
    println!(
        "perf_report: {} mode, {} hardware threads, pool of {}",
        if quick { "quick" } else { "full" },
        odflow_par::hardware_threads(),
        odflow_par::default_threads()
    );

    let mut stages = Vec::new();
    let mut ingest_shard_bins = None;

    // Region dispatch overhead of the fan-out substrate itself: empty-body
    // regions, so all that is measured is chunk bookkeeping plus (in the
    // parallel column) queueing claim-loop tasks onto the persistent pool
    // and joining the region latch. One region is ~microseconds — below
    // the report's 0.001 ms serialization grain — so each measurement runs
    // a fixed batch of regions to land in gate-able milliseconds. Tracked
    // like any other stage so a regression in the runtime — e.g. reverting
    // to per-region thread spawns — fails the perf gate, not just the
    // stages it would silently tax.
    if filter.enabled("fanout") {
        for &(n, regions) in &[(1_000usize, 512usize), (100_000, 64)] {
            let label = format!("n={n} chunks x{regions} regions");
            stages.push(run_stage("fanout", label, reps.max(3), || {
                for _ in 0..regions {
                    odflow_par::parallel_for(n, 1, |r| {
                        black_box(r.start);
                    });
                }
            }));
        }
    }

    // Gram matrix X^T X at the paper's scale and at a 512-pair mesh.
    if filter.enabled("gram") {
        let x = traffic_matrix(2016, 121);
        stages.push(run_stage("gram", "n=2016 p=121".into(), reps, || scatter(&x).unwrap()));

        let (n, p) = if quick { (1024, 512) } else { (2048, 512) };
        let x = traffic_matrix(n, p);
        stages.push(run_stage("gram", format!("n={n} p={p}"), reps, || scatter(&x).unwrap()));
    }

    // Dense blocked matmul.
    if filter.enabled("matmul") {
        let d = if quick { 384 } else { 512 };
        let a = traffic_matrix(d, d);
        let b = traffic_matrix(d, d).transpose();
        stages.push(run_stage("matmul", format!("{d}x{d} * {d}x{d}"), reps, || {
            a.matmul(&b).unwrap()
        }));
    }

    // The dense eigensolver at the paper's dimension (the only dense size a
    // benchmark workload runs, where its regions are one inline task), at
    // a mid-size mesh, and at `Auto`'s dense ceiling, where they fan out.
    if filter.enabled("eigen_tridiag") {
        for &d in &[121usize, 256, 512] {
            let x = traffic_matrix(2 * d, d);
            let cov = odflow::linalg::covariance(&x).unwrap();
            stages.push(run_stage("eigen_tridiag", format!("p={d}"), reps, || {
                eigen_symmetric(&cov).unwrap()
            }));
        }
    }

    // Subspace model fit and batch detection at the paper's week scale.
    if filter.enabled("model_fit") || filter.enabled("detector") {
        let x = traffic_matrix(2016, 121);
        if filter.enabled("model_fit") {
            stages.push(run_stage("model_fit", "n=2016 p=121".into(), reps, || {
                SubspaceModel::fit_default(&x).unwrap()
            }));
        }
        if filter.enabled("detector") {
            stages.push(run_stage("detector", "n=2016 p=121 analyze".into(), reps, || {
                SubspaceDetector::default().analyze(&x).unwrap()
            }));
        }
    }

    // Scenario materialization: every 5-minute bin of sampled flow records.
    if filter.enabled("generator") {
        let num_bins = if quick { 288 } else { odflow::gen::BINS_PER_WEEK };
        let config = ScenarioConfig { num_bins, ..Default::default() };
        let scenario = Scenario::new(config, vec![]).unwrap();
        let generator = scenario.generator();
        let label = if quick { "1 day (288 bins)" } else { "1 week (2016 bins)" };
        stages.push(run_stage("generator", label.into(), reps.min(2), || {
            generator.records_for_bins(0..num_bins).len()
        }));
    }

    // Sharded measurement ingest: the fused generate→bin path rendering a
    // scenario straight into per-thread OD binners (no record batches).
    if filter.enabled("ingest") {
        let num_bins = if quick { 288 } else { odflow::gen::BINS_PER_WEEK };
        let config = ScenarioConfig { num_bins, ..Default::default() };
        let scenario = Scenario::new(config, vec![]).unwrap();
        let generator = scenario.generator();
        let routes = scenario.plan.build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&scenario.topology);
        let pipe_cfg = PipelineConfig::abilene(0, num_bins);
        let engine =
            ShardedIngest::new(pipe_cfg, &scenario.topology, ingress.clone(), routes.clone())
                .unwrap();
        ingest_shard_bins = Some(engine.shard_bins());
        let label = format!("{num_bins} bins p=121 ({} shards)", engine.num_shards());
        stages.push(run_stage("ingest", label, reps.min(2), || {
            generator
                .bin_scenario(pipe_cfg, ingress.clone(), routes.clone())
                .unwrap()
                .stats
                .flows_resolved
        }));
    }

    // Large-mesh workload: ~300 PoPs / 90k OD pairs, generate→ingest end
    // to end — the regime where sharded binning has to carry the load —
    // then detection on the binned matrix via the randomized truncated
    // eigen-backend (`Auto` at p=90000), which never materializes the
    // 90k x 90k Gram matrix.
    if filter.enabled("large_mesh_pipeline") || filter.enabled("large_mesh_detect") {
        let num_bins = if quick { 24 } else { 96 };
        let config = ScenarioConfig { num_bins, ..ScenarioConfig::large_mesh() };
        let scenario = Scenario::large_mesh_with(config).unwrap();
        let generator = scenario.generator();
        let routes = scenario.plan.build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&scenario.topology);
        let mut pipe_cfg = PipelineConfig::abilene(0, num_bins);
        pipe_cfg.bin_secs = scenario.config.bin_secs;
        if filter.enabled("large_mesh_pipeline") {
            let engine =
                ShardedIngest::new(pipe_cfg, &scenario.topology, ingress.clone(), routes.clone())
                    .unwrap();
            let label = format!("{num_bins} bins p=90000 ({} shards)", engine.num_shards());
            stages.push(run_stage("large_mesh_pipeline", label, 1, || {
                generator
                    .bin_scenario(pipe_cfg, ingress.clone(), routes.clone())
                    .unwrap()
                    .stats
                    .flows_resolved
            }));
        }
        if filter.enabled("large_mesh_detect") {
            // Ingest once (untimed) to build the 90k-OD bytes matrix, then
            // time fit + full scoring end to end.
            let outcome = generator.bin_scenario(pipe_cfg, ingress, routes).unwrap();
            let x = outcome.matrices.bytes.data;
            let k = 10;
            let detect_cfg =
                SubspaceConfig { k, method: EigenMethod::Auto, ..SubspaceConfig::default() };
            let label = format!("n={num_bins} p=90000 k={k}");
            stages.push(run_stage("large_mesh_detect", label, 1, || {
                odflow::experiment::detect_matrix(&x, detect_cfg).unwrap().anomalous_bins().len()
            }));
        }
    }

    // End-to-end pipeline: generate -> measure -> detect -> classify.
    if filter.enabled("pipeline") {
        let num_bins = if quick { 144 } else { 288 };
        let config = ScenarioConfig { num_bins, total_demand: 800.0, ..Default::default() };
        let scenario = Scenario::new(config, vec![]).unwrap();
        stages.push(run_stage(
            "pipeline",
            format!("{num_bins} bins end-to-end"),
            reps.min(2),
            || {
                odflow::experiment::run_scenario(
                    &scenario,
                    &odflow::experiment::ExperimentConfig::default(),
                )
                .unwrap()
                .classified
                .len()
            },
        ));
    }

    // Fault-storm robustness path: render each bin as NetFlow v5 wire
    // frames, mutate them through the seeded fault schedule, and ingest
    // via the lossy quarantine/repair path. The serial render→fault→decode
    // stage dominates, so this stage tracks the cost of fault accounting
    // itself — a regression here means the quarantine or sequence-tracking
    // bookkeeping got slower.
    if filter.enabled("fault_storm") {
        let num_bins = if quick { 48 } else { 144 };
        let config = ScenarioConfig { num_bins, total_demand: 800.0, ..Default::default() };
        let scenario = Scenario::new(config, vec![]).unwrap();
        let generator = scenario.generator();
        let routes = scenario.plan.build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&scenario.topology);
        let pipe_cfg = PipelineConfig::abilene(0, num_bins);
        let faults = odflow::gen::FaultSchedule::storm(HARNESS_SEED_LOCAL, num_bins).unwrap();
        stages.push(run_stage(
            "fault_storm",
            format!("{num_bins} bins frames+faults"),
            reps.min(2),
            || {
                let (outcome, storm) = generator
                    .bin_scenario_faulted(
                        pipe_cfg,
                        ingress.clone(),
                        routes.clone(),
                        &faults,
                        odflow::flow::RepairPolicy::default(),
                    )
                    .unwrap();
                (outcome.quality.quarantine.frames_rejected(), storm.frames_offered)
            },
        ));
    }

    // Daemon serve path over a real loopback socket: bind a one-tenant
    // TCP daemon, replay the scenario's NetFlow v5 export frames through
    // the deterministic load generator, drain, and flush. The measured
    // cycle is the full ingest service — envelope decode, bounded-queue
    // handoff, per-tenant binning, online detection as bins close — plus
    // genuine socket I/O, so a regression here catches serving overhead
    // that none of the in-process stages pay. A final untimed cycle
    // reports the operational numbers the stage exists to track:
    // sustained records/sec, p99 enqueue latency, and backpressure drops.
    if filter.enabled("serve_ingest") {
        let num_bins = if quick { 24 } else { 96 };
        let config = ScenarioConfig { num_bins, total_demand: 800.0, ..Default::default() };
        let scenario = Scenario::new(config, vec![]).unwrap();
        let routes = scenario.plan.build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&scenario.topology);
        let cycle = || -> DaemonHandle {
            let spec = TenantSpec {
                config: TenantConfig::abilene("bench", 0, num_bins),
                topology: scenario.topology.clone(),
                ingress: ingress.clone(),
                routes: routes.clone(),
            };
            let daemon = Daemon::bind(ServeConfig {
                tcp_bind: Some("127.0.0.1:0".to_owned()),
                tenants: vec![spec],
                ..ServeConfig::default()
            })
            .unwrap();
            let addr = daemon.tcp_addr().unwrap();
            let handle = daemon.handle();
            let pool = scoped_pool::Pool::new(1);
            pool.scoped(|scope| {
                scope.execute(move || {
                    let _ = daemon.run();
                });
                replay_scenario(&scenario, addr, &LoadGenConfig::new(Transport::Tcp)).unwrap();
            });
            pool.shutdown();
            handle
        };
        let label = format!("{num_bins} bins tcp loopback");
        stages.push(run_stage("serve_ingest", label, reps.min(2), &cycle));
        let start = Instant::now();
        let handle = cycle();
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        let counters = handle.tenant_counters(0).expect("bench tenant counters");
        let get = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::SeqCst);
        println!(
            "  serve_ingest: {:.0} records/s sustained, p99 enqueue {} us, {} frames shed",
            get(&counters.records_decoded) as f64 / secs,
            handle.enqueue_p99_nanos() / 1_000,
            get(&counters.frames_dropped_backpressure),
        );
    }

    // Crash-safety tax: what a bin close costs a checkpointing tenant.
    // A fresh pipeline with a store ingests the pre-rendered stream; only
    // the frames that close a bin are timed — close, online score, and
    // the generation made durable (a delta appended and synced, or the
    // occasional complete record renamed into the other slot) — and the
    // row is the mean over the stream's closes, best of the repeats.
    if filter.enabled("checkpoint") {
        let num_bins = if quick { 24 } else { 96 };
        let config = ScenarioConfig { num_bins, total_demand: 800.0, ..Default::default() };
        let scenario = Scenario::new(config, vec![]).unwrap();
        let routes = scenario.plan.build_route_table(1.0).unwrap();
        let ingress = IngressResolver::synthetic(&scenario.topology);
        let generator = scenario.generator();
        let mut seqs = vec![0u32; scenario.topology.num_pops()];
        let frames: Vec<Vec<Vec<u8>>> =
            (0..num_bins).map(|bin| generator.frames_for_bin(bin, &mut seqs)).collect();
        let dir = std::env::temp_dir().join("odflow_perf_checkpoint");
        let store = CheckpointStore::new(&dir, "bench");
        let mean_close_ms = || {
            store.reset().expect("checkpoint scratch directory");
            let mut pipeline = TenantPipeline::new(
                TenantConfig::abilene("bench", 0, num_bins),
                &scenario.topology,
                ingress.clone(),
                routes.clone(),
            )
            .unwrap();
            pipeline.set_checkpoint_store(store.clone(), None);
            let mut closing = std::time::Duration::ZERO;
            for (bin, bin_frames) in frames.iter().enumerate() {
                let mut bin_frames = bin_frames.iter();
                // Bin `b` closes on the first frame of bin `b + 1`.
                if let (true, Some(first)) = (bin > 0, bin_frames.next()) {
                    let start = Instant::now();
                    pipeline.ingest_frame(first);
                    closing += start.elapsed();
                }
                for frame in bin_frames {
                    pipeline.ingest_frame(frame);
                }
            }
            let generations =
                pipeline.counters().checkpoints.load(std::sync::atomic::Ordering::SeqCst);
            assert_eq!(generations, num_bins as u64 - 1, "one durable generation per close");
            closing.as_secs_f64() * 1e3 / generations as f64
        };
        let best =
            |reps: usize| (0..reps.max(1)).map(|_| mean_close_ms()).fold(f64::INFINITY, f64::min);
        let result = StageResult {
            name: "checkpoint",
            workload: format!("{num_bins} bins, mean per bin close"),
            serial_ms: odflow_par::with_thread_limit(1, || best(reps)),
            parallel_ms: best(reps),
        };
        println!(
            "  {:<10} {:<28} serial {:>9.3} ms   parallel {:>9.3} ms",
            result.name, result.workload, result.serial_ms, result.parallel_ms
        );
        stages.push(result);
        let _ = std::fs::remove_dir_all(&dir);
    }

    match write_json(&out_path, quick, ingest_shard_bins, &stages) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
