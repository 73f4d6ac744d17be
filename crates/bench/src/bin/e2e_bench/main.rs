//! `e2e_bench` — the repo's benchmark: five named workloads, four gated
//! end-to-end metrics, and a per-layer walk from socket to checkpoint.
//!
//! Three ways to run it (see `README.md` beside this file):
//!
//! ```text
//! e2e_bench --workload NAME --seed N --seconds S --trace 0|1   one run; the driver's protocol
//! e2e_bench [--seed N] [--seconds S] [--trace-out BASE]        every workload, untraced then traced
//! e2e_bench --compare A.json B.json                            before/after table of two result files
//! ```
//!
//! A single run prints every metric by name with its unit, then, as the
//! last line of standard output, one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`). It exits
//! non-zero when an output failed verification.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions; nothing inside the program under test is instrumented, and
//! this benchmark claims no gain.

#![forbid(unsafe_code)]

mod batch;
mod compare;
mod json;
mod serve;
mod spec;
mod stats;
mod trace;
mod verify;

use json::Value;
use spec::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Default seed: the tech report's date, as the other harness binaries.
const DEFAULT_SEED: u64 = 20_040_519;

/// Default measuring time of one run, seconds (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 16.0;

/// Set-up is repeated this often in an untraced run and `setup_s` is the
/// median, so one slow page-cache miss does not decide the metric.
const SETUP_REPEATS: usize = 5;

/// Untraced runs per workload in the every-workload mode, at seeds `seed`,
/// `seed + 1`, ...: enough for `--compare` to see a run-to-run spread.
const RUNS_PER_WORKLOAD: u64 = 3;

/// Workload size: the benchmark's, or the 24-bin smoke the unit tests run
/// in the debug profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// What one run of one workload is given.
pub struct Ctx {
    pub seed: u64,
    pub scale: Scale,
    pub trace: bool,
    /// Measuring time (`--seconds`).
    pub budget: Duration,
    /// Per-process scratch directory (checkpoints); removed on exit.
    pub scratch: PathBuf,
    pub tracer: trace::Tracer,
}

impl Ctx {
    fn new(workload: &str, seed: u64, scale: Scale, trace: bool, seconds: f64) -> Ctx {
        Ctx {
            seed,
            scale,
            trace,
            budget: Duration::from_secs_f64(seconds.max(0.0)),
            scratch: output_dir().join(format!("scratch_pid{}", std::process::id())),
            tracer: trace::Tracer::new(workload, trace),
        }
    }

    /// The traced walk reports no `setup_s`, so it sets up once.
    pub fn setup_repeats(&self) -> usize {
        if self.trace || self.scale == Scale::Smoke {
            1
        } else {
            SETUP_REPEATS
        }
    }

    /// Consecutive iterations behind one timing sample: the sample is the
    /// best of them (as `perf_report`'s `time_best_ms`), the reported value
    /// the median over samples. On the shared reference VM the host's
    /// interference is one-sided and comes in bursts of seconds to tens of
    /// seconds: medians of plain iterations spread by up to 9 % between
    /// identical runs where block-best medians spread by 1-5 %.
    pub fn block(&self) -> usize {
        if self.scale == Scale::Smoke {
            1
        } else {
            4
        }
    }

    /// Whether a timed loop that has done `iterations` goes on: to the end
    /// of the block, until three blocks are in even if the budget is
    /// already spent (a median needs three samples), then while the budget
    /// lasts.
    pub fn keep_timing(&self, iterations: usize, deadline: Instant) -> bool {
        let min = if self.scale == Scale::Smoke { 1 } else { 3 * self.block() };
        iterations < min || !iterations.is_multiple_of(self.block()) || Instant::now() < deadline
    }
}

/// Where everything the benchmark writes goes — per-pid checkpoint scratch,
/// the every-workload mode's results and traces: `e2e_bench_out/` beside
/// this binary, that is, inside cargo's target directory, which is inside
/// the checkout (the driver's contract: write nowhere else) and already
/// git-ignored. The system's temporary directory when the binary cannot
/// locate itself.
fn output_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(std::env::temp_dir)
        .join("e2e_bench_out")
}

/// Everything one run of one workload measured.
#[derive(Debug, Default)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct; empty when it is.
    pub problems: Vec<String>,
    pub setup_s: Vec<f64>,
    pub wall_s: Vec<f64>,
    pub records_per_s: Vec<f64>,
    /// `VmHWM` once set-up and the first complete iteration are done. Later
    /// iterations only add allocator fragmentation, which grows with the
    /// iteration count and so with the machine's speed.
    pub peak_rss_mb: f64,
    /// Raw samples beyond the gated metrics (e.g. `settle_ms`).
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Per-layer metrics (traced run).
    pub layers: BTreeMap<String, f64>,
    /// Descriptive facts: sizes, counts, what was scored.
    pub facts: Vec<(String, String)>,
}

impl RunReport {
    pub fn fact(&mut self, name: &str, value: impl std::fmt::Display) {
        self.facts.push((name.to_owned(), value.to_string()));
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "unknown layer metric {name}");
        self.layers.insert(name.to_owned(), value);
    }

    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    pub fn absorb_problems(&mut self, context: &str, problems: &[String]) {
        self.problems.extend(problems.iter().map(|p| format!("{context}: {p}")));
    }

    /// Turns the timed iterations, `(wall seconds, input records)` each,
    /// into timing samples: one per whole block, its fastest iteration.
    pub fn sample_blocks(&mut self, iterations: &[(f64, u64)], block: usize) {
        for chunk in iterations.chunks_exact(block.max(1)) {
            let (wall, records) =
                chunk.iter().copied().min_by(|a, b| a.0.total_cmp(&b.0)).expect("block >= 1");
            self.wall_s.push(wall);
            self.records_per_s.push(records as f64 / wall);
        }
        self.samples
            .insert("iteration_wall_s".into(), iterations.iter().map(|(wall, _)| *wall).collect());
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The run's value of every metric of the mode it ran in.
    fn metric_values(&self, trace: bool) -> Vec<(&'static MetricSpec, f64)> {
        if trace {
            return PER_LAYER
                .iter()
                .map(|m| (m, self.layers.get(m.name).copied().unwrap_or(0.0)))
                .collect();
        }
        END_TO_END
            .iter()
            .map(|m| {
                let value = match m.name {
                    spec::SETUP_S => stats::median(&self.setup_s),
                    spec::WALL_S => stats::median(&self.wall_s),
                    spec::RECORDS_PER_S => stats::median(&self.records_per_s),
                    spec::PEAK_RSS_MB => self.peak_rss_mb,
                    other => unreachable!("end-to-end metric {other} has no source"),
                };
                (m, value)
            })
            .collect()
    }

    /// The driver's result line.
    fn result_line(&self, trace: bool) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted.max(1) as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::obj(self.metric_values(trace).into_iter().map(|(m, v)| {
                    (
                        m.name,
                        Value::obj([("value", Value::Num(v)), ("unit", Value::Str(m.unit.into()))]),
                    )
                })),
            ),
        ])
    }

    /// The raw samples behind the gated timing metrics.
    fn timing_samples(&self) -> [(&'static str, &[f64]); 3] {
        [
            (spec::SETUP_S, &self.setup_s),
            (spec::WALL_S, &self.wall_s),
            (spec::RECORDS_PER_S, &self.records_per_s),
        ]
    }

    /// Every raw sample of the run, for the results file.
    fn sample_doc(&self) -> Value {
        let timing = self.timing_samples().into_iter().filter(|(_, v)| !v.is_empty());
        let extra = self.samples.iter().map(|(k, v)| (k.as_str(), v.as_slice()));
        Value::obj(extra.chain(timing).map(|(k, v)| (k, Value::nums(v))))
    }
}

/// Runs one workload in this process.
fn run_workload(name: &str, ctx: &mut Ctx) -> RunReport {
    match name {
        spec::SERVE_TCP_CAPACITY => serve::run(serve::ServeKind::Capacity, ctx),
        spec::SERVE_TCP_STORM => serve::run(serve::ServeKind::Storm, ctx),
        spec::SERVE_TCP_CHECKPOINTED => serve::run(serve::ServeKind::Checkpointed, ctx),
        spec::BATCH_FOUR_WEEKS => batch::run_four_weeks(ctx),
        spec::LARGE_MESH => batch::run_large_mesh(ctx),
        other => unreachable!("workload {other} was validated against the spec"),
    }
}

/// Prefix of the line carrying a run's raw samples and facts to the
/// parent; the result line stays the last line, with exactly four keys.
const DETAIL_PREFIX: &str = "#detail ";

/// One run, the driver's protocol: human-readable metrics, then the
/// result line. Returns whether the outputs verified.
fn single_run(args: &Args, workload: &str, trace: bool) -> bool {
    let mut ctx = Ctx::new(workload, args.seed, Scale::Full, trace, args.seconds);
    let report = run_workload(workload, &mut ctx);
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    // The shared parent goes too when nothing else is left in it.
    let _ = std::fs::remove_dir(output_dir());

    println!(
        "e2e_bench {workload}: seed {} · {} s budget · trace {} · nproc {} · par.pool_threads {}",
        args.seed,
        args.seconds,
        u8::from(trace),
        odflow_par::hardware_threads(),
        odflow_par::default_threads()
    );
    println!("  load: {}", spec::workload(workload).map_or("", |w| w.load));
    for (name, value) in &report.facts {
        println!("  {name} = {value}");
    }
    for (name, values) in report.timing_samples() {
        if !values.is_empty() {
            println!("  {name:<16} {}", stats::Summary::of(values));
        }
    }
    for (m, value) in report.metric_values(trace) {
        println!("  {:<44} {value:>16.6} {:<6} {}", m.name, m.unit, m.note);
    }
    if trace {
        println!("  self time by span name (duration minus child coverage):");
        for (name, ns) in ctx.tracer.self_time_by_name() {
            println!("    {name:<40} {:>12.3} ms", ns as f64 / 1e6);
        }
        if let Some(path) = &args.trace_out {
            match write_file(path, &ctx.tracer.to_json().render_pretty()) {
                Ok(()) => {
                    println!("  wrote {} spans to {}", ctx.tracer.spans().len(), path.display());
                }
                Err(e) => eprintln!("e2e_bench: writing {}: {e}", path.display()),
            }
        }
    }
    for problem in &report.problems {
        eprintln!("e2e_bench: {workload}: INCORRECT: {problem}");
    }
    let detail = Value::obj([
        ("samples", report.sample_doc()),
        ("facts", Value::obj(report.facts.iter().map(|(k, v)| (k.clone(), Value::Str(v.clone()))))),
    ]);
    println!("{DETAIL_PREFIX}{}", detail.render());
    println!("{}", report.result_line(trace).render());
    report.correct()
}

fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// Runs `workload` once in a fresh child process (so `peak_rss_mb` is the
/// workload's own high-water mark) and returns its result line and
/// detail line.
///
/// # Errors
///
/// Names the workload when the child cannot start, dies, or prints no
/// result.
fn child_run(
    args: &Args,
    workload: &str,
    seed: u64,
    trace: bool,
) -> Result<(Value, Value), String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("{workload}: locating this binary: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit());
    if let (true, Some(base)) = (trace, &args.trace_out) {
        cmd.arg("--trace-out").arg(format!("{}.{workload}.json", base.display()));
    }
    let output = cmd.output().map_err(|e| format!("{workload}: starting the child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| !l.starts_with(DETAIL_PREFIX) && !l.starts_with('{')) {
        println!("{line}");
    }
    let result = stdout
        .lines()
        .last()
        .and_then(|l| json::parse(l).ok())
        .filter(|v| v.get("metrics").is_some())
        .ok_or_else(|| format!("{workload}: child ({}) printed no result line", output.status))?;
    let detail = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .and_then(|l| json::parse(l).ok())
        .unwrap_or(Value::Null);
    if !output.status.success() {
        eprintln!("e2e_bench: {workload}: child exited with {}", output.status);
    }
    Ok((result, detail))
}

/// Every workload: [`RUNS_PER_WORKLOAD`] untraced runs each for the
/// end-to-end metrics, then one traced walk for the per-layer metrics;
/// prints a summary and writes the results file.
fn full_run(args: &Args) -> bool {
    let out = output_dir().join("results.json");
    let mut all_correct = true;
    let mut docs = Vec::new();
    for w in &WORKLOADS {
        let name = w.name;
        println!("== {name}");
        let mut runs = Vec::new();
        let mut traced = Value::Null;
        for (i, trace) in (0..RUNS_PER_WORKLOAD).map(|i| (i, false)).chain([(0, true)]) {
            let seed = args.seed + i;
            match child_run(args, name, seed, trace) {
                Ok((result, detail)) => {
                    all_correct &= result.get("correct").and_then(Value::as_bool) == Some(true);
                    let doc = Value::obj([
                        ("seed", Value::Num(seed as f64)),
                        ("result", result),
                        ("detail", detail),
                    ]);
                    if trace {
                        traced = doc;
                    } else {
                        runs.push(doc);
                    }
                }
                Err(e) => {
                    eprintln!("e2e_bench: FAILED: {e}");
                    all_correct = false;
                }
            }
        }
        summarize(name, &runs);
        docs.push(Value::obj([
            ("name", Value::Str(name.into())),
            ("why", Value::Str(w.why.into())),
            ("load", Value::Str(w.load.into())),
            ("runs", Value::Arr(runs)),
            ("traced", traced),
        ]));
    }
    let (loc, crates) = repo_size(Path::new("."));
    let header = Value::obj([
        ("schema", Value::Str("odflow-e2e-bench/v1".into())),
        ("seed", Value::Num(args.seed as f64)),
        ("runs_per_workload", Value::Num(RUNS_PER_WORKLOAD as f64)),
        ("run_seconds", Value::Num(args.seconds)),
        ("nproc", Value::Num(odflow_par::hardware_threads() as f64)),
        ("par.pool_threads", Value::Num(odflow_par::default_threads() as f64)),
        (
            "odflow_threads_env",
            std::env::var(odflow_par::THREADS_ENV).map_or(Value::Null, Value::Str),
        ),
        (
            "transport",
            Value::Str("tcp loopback 127.0.0.1, one sender thread, one connection".into()),
        ),
        ("checkpoint_dir", Value::Str(output_dir().display().to_string())),
        ("checkpoint_filesystem", Value::Str(filesystem_of(&output_dir()))),
        ("first_party_rust_loc", Value::Num(loc as f64)),
        ("workspace_crates", Value::Num(crates as f64)),
        ("all_correct", Value::Bool(all_correct)),
        ("workloads", Value::Arr(docs)),
    ]);
    match write_file(&out, &header.render_pretty()) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => {
            eprintln!("e2e_bench: writing {}: {e}", out.display());
            return false;
        }
    }
    all_correct
}

/// Median and spread of every end-to-end metric across a workload's runs.
fn summarize(workload: &str, runs: &[Value]) {
    for m in &END_TO_END {
        let values = compare::metric_values(runs, m.name);
        if values.is_empty() {
            continue;
        }
        println!(
            "  {workload:<24} {:<14} {} {}  spread {:.4} (bound {})",
            m.name,
            stats::Summary::of(&values),
            m.unit,
            stats::iqr_share(&values),
            m.bound.unwrap_or(0.0)
        );
    }
}

/// First-party Rust lines and workspace crate count, counted from the
/// repository root when run there (ROADMAP tracks both); zeros elsewhere.
fn repo_size(root: &Path) -> (usize, usize) {
    fn rust_lines(dir: &Path) -> usize {
        let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
        entries
            .flatten()
            .map(|e| {
                let path = e.path();
                if path.is_dir() {
                    let skip = path.file_name().is_some_and(|n| n == "target" || n == "fixtures");
                    if skip {
                        0
                    } else {
                        rust_lines(&path)
                    }
                } else if path.extension().is_some_and(|x| x == "rs") {
                    std::fs::read_to_string(&path).map_or(0, |s| s.lines().count())
                } else {
                    0
                }
            })
            .sum()
    }
    let manifests = |dir: &str| {
        std::fs::read_dir(root.join(dir))
            .map_or(0, |d| d.flatten().filter(|e| e.path().join("Cargo.toml").is_file()).count())
    };
    let loc =
        ["src", "crates", "tests", "examples"].iter().map(|d| rust_lines(&root.join(d))).sum();
    let root_crate = usize::from(root.join("Cargo.toml").is_file());
    (loc, root_crate + manifests("crates") + manifests("vendor"))
}

/// The file-system type holding `path`, from `/proc/self/mounts`
/// (longest mount-point prefix); `"unknown"` without procfs.
fn filesystem_of(path: &Path) -> String {
    let abs = std::env::current_dir().map_or_else(|_| path.to_path_buf(), |cwd| cwd.join(path));
    std::fs::read_to_string("/proc/self/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|l| {
                    let mut f = l.split_whitespace();
                    let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
                    abs.starts_with(point).then(|| (point.len(), fstype.to_owned()))
                })
                .max()
                .map(|(_, fstype)| fstype)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    seed: u64,
    seconds: f64,
    /// `Some` selects the driver's single-run protocol.
    single: Option<(String, bool)>,
    trace_out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

const USAGE: &str =
    "usage: e2e_bench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out PATH]
       e2e_bench [--seed N] [--seconds S] [--trace-out BASE]
       e2e_bench --compare A.json B.json";

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        single: None,
        trace_out: None,
        compare: None,
    };
    let (mut workload, mut trace) = (None, None);
    let mut argv = argv;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if spec::workload(&name).is_none() {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload {name}; known: {}", known.join(", ")));
                }
                workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must lie in 0..=3600".to_owned());
                }
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                });
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--compare" => args.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.single = match (workload, trace) {
        (Some(workload), Some(trace)) => Some((workload, trace)),
        (None, None) => None,
        _ => return Err("a single run needs both --workload and --trace".to_owned()),
    };
    if args.single.is_none() && args.trace_out.is_none() {
        // The every-workload mode writes its traces beside its results.
        args.trace_out = Some(output_dir().join("results.trace"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some((a, b)) = &args.compare {
        compare::run(a, b)
    } else if let Some((workload, trace)) = &args.single {
        single_run(&args, workload, *trace)
    } else {
        full_run(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> RunReport {
        let mut ctx = Ctx::new(workload, 7, Scale::Smoke, trace, 0.0);
        // Tests of one process run in parallel: one directory each.
        ctx.scratch.push(format!("{workload}_{}", u8::from(trace)));
        let report = run_workload(workload, &mut ctx);
        let _ = std::fs::remove_dir_all(&ctx.scratch);
        // The parents go too once the last test has left them empty.
        let _ = ctx.scratch.parent().map(std::fs::remove_dir);
        let _ = std::fs::remove_dir(output_dir());
        report
    }

    /// A 24-bin smoke of one serve workload: its output must equal the
    /// batch reference, with nothing shed, unaccounted or failed.
    fn assert_smoke_verifies(workload: &str) {
        let report = smoke(workload, false);
        assert_eq!(report.problems, Vec::<String>::new(), "{workload}");
        assert_eq!(report.failed, 0, "{workload}: failed_share must be zero");
        assert!(report.attempted > 0 && report.correct(), "{workload}");
        assert!(report.wall_s.iter().all(|w| *w > 0.0), "{workload}");
    }

    #[test]
    fn capacity_smoke_equals_the_batch_reference() {
        assert_smoke_verifies(spec::SERVE_TCP_CAPACITY);
    }

    #[test]
    fn storm_smoke_equals_the_datagram_ingest_reference() {
        assert_smoke_verifies(spec::SERVE_TCP_STORM);
    }

    #[test]
    fn checkpointed_smoke_equals_the_batch_reference() {
        assert_smoke_verifies(spec::SERVE_TCP_CHECKPOINTED);
    }

    #[test]
    fn checkpointed_walk_fills_every_serve_layer_and_reconstructs_wall() {
        let report = smoke(spec::SERVE_TCP_CHECKPOINTED, true);
        assert_eq!(report.problems, Vec::<String>::new());
        for m in PER_LAYER
            .iter()
            .filter(|m| m.name.starts_with("serve.") || m.name.starts_with("flow.netflow"))
        {
            assert!(report.layers.contains_key(m.name), "{} missing from the walk", m.name);
        }
        assert!(
            report.layers["serve.checkpoint.mb_written_total"]
                > report.layers["serve.checkpoint.state_mb_final"]
        );
        // wall = tenant ingest + flush + unattributed, by construction.
        let records =
            report.facts.iter().find(|(k, _)| k == "records").unwrap().1.parse::<f64>().unwrap();
        let rebuilt = report.layers["serve.tenant.ingest_ns_per_record"] * records / 1e9
            + report.layers["serve.tenant.flush_ms"] / 1e3
            + report.layers["serve.daemon.unattributed_s"];
        let wall = stats::median(&report.samples[spec::WALL_S]);
        assert!((rebuilt - wall).abs() < 1e-9, "rebuilt {rebuilt} vs wall {wall}");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric_of_its_mode() {
        let mut report = RunReport { attempted: 10, ..RunReport::default() };
        report.setup_s = vec![0.5, 0.25, 1.0];
        report.wall_s = vec![2.0];
        report.records_per_s = vec![1e6];
        report.layer("serve.tenant.flush_ms", 12.5);
        for (trace, specs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let line = json::parse(&report.result_line(trace).render()).unwrap();
            let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let names: Vec<&str> =
                line.get("metrics").unwrap().as_obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(names, specs.iter().map(|m| m.name).collect::<Vec<_>>());
        }
        let line = report.result_line(false);
        assert_eq!(
            line.get("metrics").unwrap().get("setup_s").unwrap().get("value"),
            Some(&Value::Num(0.5))
        );
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        report.problem("digest differs".into());
        assert_eq!(report.result_line(false).get("correct"), Some(&Value::Bool(false)));
    }

    #[test]
    fn arguments_select_the_mode_and_reject_nonsense() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let a = parse("--workload large_mesh --seed 3 --seconds 8 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds), (3, 8.0));
        assert_eq!(a.single, Some(("large_mesh".to_owned(), true)));
        let a = parse("--seconds 4").unwrap();
        assert_eq!((a.single, a.seed, a.seconds), (None, DEFAULT_SEED, 4.0));
        assert!(a.trace_out.is_some(), "the every-workload mode always writes its traces");
        assert!(parse("--compare a.json b.json").unwrap().compare.is_some());
        for bad in [
            "--workload nope",
            "--trace 2 --workload large_mesh",
            "--trace 0",
            "--workload large_mesh",
            "--runs 3",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
