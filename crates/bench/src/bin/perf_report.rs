//! `perf_report` — fixed-workload wall-clock harness for the numerics
//! kernels.
//!
//! Times the kernels no `e2e_bench` workload isolates — the fan-out
//! dispatch microbench, Gram matrix, blocked matmul, dense
//! eigendecomposition, subspace model fit, batch detection, a wide
//! window's fit by row Gram, and the traffic generator's
//! rendering of a fixed bin sample — twice:
//! once with the pool pinned to a single thread (the serial baseline) and
//! once with the full pool. Whole-system numbers (fused ingest, the
//! 90k-OD mesh, the daemon, checkpoints) are `e2e_bench`'s, where a
//! verifier checks the run that was timed. Emits a machine-readable
//! `BENCH_pipeline.json` — stamped with the pool size and kind
//! (`"pool": "persistent"`), raw `ODFLOW_THREADS` and peak RSS, so CI
//! artifacts are self-describing; `perf_gate` diffs every PR's report
//! against the previous run's artifact.
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
//! `--stage eigen_tridiag` re-measures one stage without the full
//! sweep; the resulting partial report is for local iteration, not for
//! committing as a CI baseline (the gate requires every stage). The pool
//! obeys `ODFLOW_THREADS` as everywhere else, so `ODFLOW_THREADS=4
//! perf_report` measures a four-thread pool against the same serial
//! baseline.

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::time::Instant;

use odflow::gen::Scenario;
use odflow::linalg::{eigen_symmetric, scatter};
use odflow::subspace::{analyze, EigenflowDecomposition, SubspaceConfig, SubspaceModel};
use odflow_bench::{traffic_matrix, HARNESS_SEED, PERF_STAGES};

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
    /// Serial nanoseconds per record, on a stage that renders records.
    ns_per_record: Option<f64>,
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
    let result = StageResult { name, workload, serial_ms, parallel_ms, ns_per_record: None };
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

fn write_json(path: &str, quick: bool, stages: &[StageResult]) -> std::io::Result<()> {
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
    // any) and this run's high-water memory mark.
    match std::env::var(odflow_par::THREADS_ENV) {
        Ok(v) => out.push_str(&format!("  \"odflow_threads_env\": \"{}\",\n", json_escape(&v))),
        Err(_) => out.push_str("  \"odflow_threads_env\": null,\n"),
    }
    out.push_str(&format!("  \"peak_rss_kb\": {},\n", peak_rss_kb()));
    out.push_str("  \"stages\": [\n");
    // On one hardware thread the "parallel" run is the serial code behind
    // pool dispatch: the column is recorded, a speedup is not claimed.
    let one_core = odflow_par::hardware_threads() <= 1;
    for (i, s) in stages.iter().enumerate() {
        let speedup = if one_core { "null".to_owned() } else { format!("{:.3}", s.speedup()) };
        let per_record =
            s.ns_per_record.map(|ns| format!(", \"ns_per_record\": {ns:.1}")).unwrap_or_default();
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"workload\": \"{}\", \"serial_ms\": {:.3}, \
             \"parallel_ms\": {:.3}, \"speedup\": {speedup}{per_record}}}{}\n",
            json_escape(s.name),
            json_escape(&s.workload),
            s.serial_ms,
            s.parallel_ms,
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
                analyze(&x, SubspaceConfig::default()).unwrap()
            }));
        }
    }

    // A wide window's exact fit through its row Gram, at the large mesh's
    // 24 bins, at 63 and 96, and at a day's 288, where its `O(n² p)` cost
    // is the price of every fit being exact.
    if filter.enabled("wide_fit") {
        let p = 20_000;
        for n in [24usize, 63, 96, 288] {
            let x = traffic_matrix(n, p);
            let workload = format!("n={n} p={p} k=10 row-gram");
            stages.push(run_stage("wide_fit", workload, reps, || {
                EigenflowDecomposition::fit_with(&x, 10).unwrap()
            }));
        }
    }

    // The traffic generator: 32 bins spread over a paper week, each
    // rendered through `records_for_bin_into` (the pool takes bins in the
    // parallel column). Most of a record's cost is the ChaCha keystream
    // behind every cell, so the row also reads in ns per record.
    if filter.enabled("render") {
        let scenario = Scenario::paper_week(HARNESS_SEED, 0).expect("the paper week is valid");
        let (generator, bins, sample) = (scenario.generator(), scenario.config.num_bins, 32);
        let render_bins = |chunk: std::ops::Range<usize>| {
            let mut records = 0usize;
            for i in chunk {
                generator.records_for_bin_into(i * bins / sample, &mut |r| {
                    black_box(r);
                    records += 1;
                });
            }
            records
        };
        let render = || odflow_par::map_reduce(sample, 1, render_bins, |a, b| a + b).unwrap_or(0);
        let records = render();
        let workload = format!("paper week {sample} bins {records} records");
        let mut stage = run_stage("render", workload, reps.max(3), render);
        let ns = stage.serial_ms * 1e6 / records.max(1) as f64;
        println!("  {:<10} {ns:.1} ns/record serial", "");
        stage.ns_per_record = Some(ns);
        stages.push(stage);
    }

    match write_json(&out_path, quick, &stages) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
