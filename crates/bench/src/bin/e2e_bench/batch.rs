//! The two batch workloads — the paper's four-week study and the
//! 90 000-OD-pair mesh — plus their layer walks. No sockets, no frames:
//! everything goes through `experiment::run_scenario` /
//! `TraceGenerator::bin_scenario` / `experiment::detect_matrix`, on the
//! default `odflow_par` pool.

use crate::verify::{current_rss_mb, peak_rss_mb, Digest, Fnv};
use crate::{Ctx, RunReport};
use odflow::classify::score_events;
use odflow::experiment::{detect_matrix, run_scenario, ExperimentConfig, ScenarioRun};
use odflow::flow::{MeasurementPipeline, PipelineConfig};
use odflow::gen::{Scenario, ScenarioConfig};
use odflow::linalg::{covariance, eigen_symmetric_auto, scatter, EigenMethod, Matrix};
use odflow::net::{IngressResolver, RouteTable};
use odflow::subspace::{diagnose, SubspaceConfig, SubspaceModel};
use std::hint::black_box;
use std::time::Instant;

/// Detection quality every seed must reach for the run to count as
/// correct. The harness seed scores recall 0.96 / precision 1.0; these
/// floors leave room for other seeds' anomaly draws without letting a
/// broken detector pass.
const MIN_RECALL: f64 = 0.75;
const MIN_PRECISION: f64 = 0.75;

/// The paper's claim for OD resolution (section 2.1): at least 93 % of flows;
/// the synthetic address plan is held to 90 %.
const MIN_RESOLUTION: f64 = 0.90;

/// Bins of the large-mesh window, sized so an iteration (ingest plus
/// detection at p = 90 000) takes about a second on the reference box.
const MESH_BINS: usize = 24;

/// Bins of week 0 / of the mesh window that set-up renders through the
/// serial reference pipeline.
const WEEK_REFERENCE_BINS: usize = 96;
const MESH_REFERENCE_BINS: usize = 4;

/// Rank of the large-mesh model, as `perf_report`'s `large_mesh_detect`.
const MESH_K: usize = 10;

/// Hash of the first `bins` rows of the bytes matrix.
fn prefix_hash(x: &Matrix, bins: usize) -> u64 {
    let mut h = Fnv::new();
    for row in x.rows_iter().take(bins) {
        h.f64s(row);
    }
    h.finish()
}

/// The reference a batch workload's output is held to, computed in
/// set-up: the first `bins` bins rendered record by record through the
/// serial [`MeasurementPipeline`] — one thread, one full-window shard —
/// which the fused, sharded, parallel engine under test must reproduce
/// bit for bit (the `shard_equivalence` theorem, at benchmark scale).
fn serial_prefix_reference(scenario: &Scenario, bins: usize) -> u64 {
    let routes = scenario.plan.build_route_table(1.0).expect("route table");
    let ingress = IngressResolver::synthetic(&scenario.topology);
    let mut config = PipelineConfig::abilene(scenario.config.start_secs, bins);
    config.bin_secs = scenario.config.bin_secs;
    let mut pipeline = MeasurementPipeline::new(config, &scenario.topology, ingress, routes)
        .expect("serial reference pipeline");
    let generator = scenario.generator();
    for bin in 0..bins {
        generator.records_for_bin_into(bin, &mut |record| {
            pipeline.push_sampled_record(record).expect("in-window record");
        });
    }
    let (matrices, _) = pipeline.finalize().expect("serial reference matrices");
    prefix_hash(&matrices.bytes.data, bins)
}

/// Pooled truth scoring across weeks.
#[derive(Debug, Default)]
struct Scoring {
    true_positives: usize,
    false_negatives: usize,
    matched: usize,
    unmatched: usize,
    weeks: usize,
}

impl Scoring {
    fn add(&mut self, run: &ScenarioRun, slack: usize) {
        let r = score_events(&run.truth, &run.scored_events(), slack);
        self.true_positives += r.true_positives;
        self.false_negatives += r.false_negatives;
        self.matched += r.matched_events;
        self.unmatched += r.unmatched_events;
        self.weeks += 1;
    }

    fn recall(&self) -> f64 {
        self.true_positives as f64 / (self.true_positives + self.false_negatives).max(1) as f64
    }

    fn precision(&self) -> f64 {
        self.matched as f64 / (self.matched + self.unmatched).max(1) as f64
    }
}

/// Runs the four-week study in whole rounds, one timed iteration per week:
/// one round, then (`repeat`) further rounds while the budget lasts. Whole
/// rounds only, so every run scores all four weeks however fast the
/// machine is, and a round is the block one timing sample is taken from.
/// Each week's output must repeat bit for bit whenever the week comes
/// round again.
fn run_rounds(
    scenarios: &[Scenario],
    week0_reference: u64,
    repeat: bool,
    ctx: &Ctx,
    report: &mut RunReport,
) -> Scoring {
    let config = ExperimentConfig::default();
    let mut scoring = Scoring::default();
    let mut digests: Vec<Option<Digest>> = vec![None; scenarios.len()];
    let deadline = Instant::now() + ctx.budget;
    let mut timed = Vec::new();
    let mut i = 0usize;
    while i == 0 || !i.is_multiple_of(scenarios.len()) || (repeat && Instant::now() < deadline) {
        let week = i % scenarios.len();
        i += 1;
        report.attempted += 1;
        let t0 = Instant::now();
        let run = match run_scenario(&scenarios[week], &config) {
            Ok(run) => run,
            Err(e) => {
                report.failed += 1;
                report.problem(format!("week {week}: {e}"));
                continue;
            }
        };
        let digest = Digest::of(&run.matrices, &run.diagnosis);
        let wall = t0.elapsed().as_secs_f64();
        timed.push((wall, run.resolution.flows_total + run.resolution.transit_skipped));
        if timed.len() == 1 {
            report.peak_rss_mb = peak_rss_mb();
        }
        match digests[week] {
            None => {
                digests[week] = Some(digest);
                scoring.add(&run, config.match_slack);
                let prefix = prefix_hash(&run.matrices.bytes.data, WEEK_REFERENCE_BINS);
                if week == 0 && prefix != week0_reference {
                    report.failed += 1;
                    report.problem("week 0 differs from the serial reference pipeline".into());
                }
                if run.resolution.flow_rate() < MIN_RESOLUTION {
                    report.failed += 1;
                    report.problem(format!(
                        "week {week}: only {:.3} of flows resolved to an OD pair",
                        run.resolution.flow_rate()
                    ));
                }
            }
            Some(first) if first != digest => {
                report.failed += 1;
                report.problem(format!(
                    "week {week} did not repeat: {} differ",
                    digest.diff(&first).join(", ")
                ));
            }
            Some(_) => {}
        }
    }
    report.sample_blocks(&timed, scenarios.len());
    report.fact("weeks_scored", scoring.weeks);
    report.fact("detect_recall", scoring.recall());
    report.fact("detect_precision", scoring.precision());
    if scoring.recall() < MIN_RECALL || scoring.precision() < MIN_PRECISION {
        report.problem(format!(
            "detection quality below the floor: recall {:.3}, precision {:.3}",
            scoring.recall(),
            scoring.precision()
        ));
    }
    scoring
}

/// `batch_four_weeks`.
pub fn run_four_weeks(ctx: &mut Ctx) -> RunReport {
    let mut report = RunReport::default();
    let mut setup = None;
    for _ in 0..ctx.setup_repeats() {
        let t0 = Instant::now();
        let scenarios = Scenario::paper_four_weeks(ctx.seed).expect("paper scenario construction");
        let reference = serial_prefix_reference(&scenarios[0], WEEK_REFERENCE_BINS);
        report.setup_s.push(t0.elapsed().as_secs_f64());
        setup = Some((scenarios, reference));
    }
    let (scenarios, reference) = setup.expect("at least one set-up");
    report.fact("weeks", scenarios.len());
    report.fact("bins_per_week", scenarios[0].config.num_bins);

    // The discarded warm-up: a short window through the whole pipeline
    // spins up the odflow_par pool and faults in the code. (A whole week
    // would double the run; the weeks themselves are the timed samples.)
    let warm = Scenario::paper_window(ctx.seed, 64).expect("warm-up window");
    black_box(run_scenario(&warm, &ExperimentConfig::default()).is_ok());

    if ctx.trace {
        walk_week(&scenarios[0], ctx, &mut report);
        let scoring = run_rounds(&scenarios, reference, false, ctx, &mut report);
        report.layer("detect_recall", scoring.recall());
        report.layer("detect_precision", scoring.precision());
        report.layer("failed_share", report.failed as f64 / report.attempted.max(1) as f64);
        report.wall_s.clear();
        report.records_per_s.clear();
    } else {
        run_rounds(&scenarios, reference, true, ctx, &mut report);
    }
    report
}

/// The batch layer walk over one week: `run_scenario`'s steps re-driven
/// through the public calls they are made of.
fn walk_week(scenario: &Scenario, ctx: &mut Ctx, report: &mut RunReport) {
    let root = ctx.tracer.open(crate::spec::BATCH_FOUR_WEEKS, None, 0);
    let generator = scenario.generator();
    let bins = scenario.config.num_bins;
    // One discarded week at scale first: the remainder below subtracts
    // timings from each other, so all of them must be taken warm.
    black_box(run_scenario(scenario, &ExperimentConfig::default()).is_ok());

    // gen: a fixed sample of 32 bins spread over the week.
    let sample: Vec<usize> = (0..32).map(|i| i * bins / 32).collect();
    let span = ctx.tracer.open("gen.render", root, 1);
    let t0 = Instant::now();
    let rendered: usize =
        sample.iter().map(|&b| black_box(generator.records_for_bin(b)).len()).sum();
    let render_ns = t0.elapsed().as_nanos() as f64;
    ctx.tracer.close(span);
    report.layer("gen.render_ns_per_record", render_ns / rendered.max(1) as f64);
    let mut seqs = vec![0u32; scenario.topology.num_pops()];
    let span = ctx.tracer.open("gen.frames", root, 1);
    let t0 = Instant::now();
    for &b in &sample {
        black_box(generator.frames_for_bin(b, &mut seqs));
    }
    let frames_ns = t0.elapsed().as_nanos() as f64;
    ctx.tracer.close(span);
    report.layer("gen.frames_ns_per_record", frames_ns / rendered.max(1) as f64);

    // experiment: the fused generate -> resolve -> bin engine.
    let routes = scenario.plan.build_route_table(1.0).expect("route table");
    let ingress = IngressResolver::synthetic(&scenario.topology);
    let mut pipe_cfg = PipelineConfig::abilene(scenario.config.start_secs, bins);
    pipe_cfg.bin_secs = scenario.config.bin_secs;
    let span = ctx.tracer.open("experiment.bin_scenario", root, 1);
    let t0 = Instant::now();
    let outcome = generator.bin_scenario(pipe_cfg, ingress, routes).expect("fused ingest");
    let bin_scenario_s = t0.elapsed().as_secs_f64();
    report.layer("experiment.bin_scenario_s", bin_scenario_s);
    ctx.tracer.close(span);

    // subspace / linalg: detection on the three views, then its parts on
    // the bytes view.
    let config = SubspaceConfig::default();
    let span = ctx.tracer.open("subspace.diagnose", root, 1);
    let t0 = Instant::now();
    black_box(diagnose(&outcome.matrices, config).expect("diagnosis"));
    let diagnose_s = t0.elapsed().as_secs_f64();
    report.layer("subspace.diagnose_ms", diagnose_s * 1e3);
    ctx.tracer.close(span);
    let x = &outcome.matrices.bytes.data;
    let fit = ctx.tracer.open("subspace.model.fit", root, 1);
    let t0 = Instant::now();
    black_box(SubspaceModel::fit(x, config).expect("model fit"));
    report.layer("subspace.model.fit_ms", t0.elapsed().as_secs_f64() * 1e3);
    ctx.tracer.close(fit);
    let span = ctx.tracer.open("linalg.gram", root, 1);
    let t0 = Instant::now();
    black_box(scatter(x).expect("gram matrix"));
    report.layer("linalg.gram_ms", t0.elapsed().as_secs_f64() * 1e3);
    ctx.tracer.close(span);
    let cov = covariance(x).expect("covariance");
    let span = ctx.tracer.open("linalg.eigen", root, 1);
    let t0 = Instant::now();
    black_box(eigen_symmetric_auto(&cov).expect("eigendecomposition"));
    report.layer("linalg.eigen_ms", t0.elapsed().as_secs_f64() * 1e3);
    ctx.tracer.close(span);
    drop(outcome);

    // The whole week, and what of it is neither binning nor detection.
    let span = ctx.tracer.open("experiment.run_scenario", root, 1);
    let t0 = Instant::now();
    black_box(run_scenario(scenario, &ExperimentConfig::default()).is_ok());
    let week_s = t0.elapsed().as_secs_f64();
    ctx.tracer.close(span);
    report.layer("experiment.classify_s", week_s - bin_scenario_s - diagnose_s);

    // The single-thread baseline of the whole week.
    let span = ctx.tracer.open("experiment.serial_week", root, 1);
    let t0 = Instant::now();
    let serial =
        odflow_par::with_thread_limit(1, || run_scenario(scenario, &ExperimentConfig::default()));
    report.layer("experiment.serial_week_s", t0.elapsed().as_secs_f64());
    ctx.tracer.close(span);
    if let Err(e) = serial {
        report.problem(format!("serial week: {e}"));
    }
    report.layer("par.pool_threads", odflow_par::default_threads() as f64);
    ctx.tracer.close(root);
}

/// Everything set-up produces for `large_mesh`.
struct Mesh {
    scenario: Scenario,
    routes: RouteTable,
    ingress: IngressResolver,
    pipe_cfg: PipelineConfig,
    detect_cfg: SubspaceConfig,
    reference: u64,
}

impl Mesh {
    fn build(seed: u64) -> Mesh {
        let config = ScenarioConfig { seed, num_bins: MESH_BINS, ..ScenarioConfig::large_mesh() };
        let scenario = Scenario::large_mesh_with(config).expect("large-mesh scenario");
        let routes = scenario.plan.build_route_table(1.0).expect("route table");
        let ingress = IngressResolver::synthetic(&scenario.topology);
        let mut pipe_cfg = PipelineConfig::abilene(0, MESH_BINS);
        pipe_cfg.bin_secs = scenario.config.bin_secs;
        let detect_cfg =
            SubspaceConfig { k: MESH_K, method: EigenMethod::Auto, ..SubspaceConfig::default() };
        let reference = serial_prefix_reference(&scenario, MESH_REFERENCE_BINS);
        Mesh { scenario, routes, ingress, pipe_cfg, detect_cfg, reference }
    }

    /// One iteration: ingest, then fit and score the bytes view. Returns
    /// `(input records, output hash)`.
    fn iterate(&self) -> Result<(u64, u64), Box<dyn std::error::Error>> {
        let outcome = self.scenario.generator().bin_scenario(
            self.pipe_cfg,
            self.ingress.clone(),
            self.routes.clone(),
        )?;
        let x = outcome.matrices.bytes.data;
        let analysis = detect_matrix(&x, self.detect_cfg)?;
        if prefix_hash(&x, MESH_REFERENCE_BINS) != self.reference {
            return Err("bytes matrix differs from the serial reference pipeline".into());
        }
        if outcome.stats.flow_rate() < MIN_RESOLUTION {
            return Err(format!("only {:.3} of flows resolved", outcome.stats.flow_rate()).into());
        }
        if !analysis.spe.iter().chain(&analysis.t2).all(|v| v.is_finite()) {
            return Err("non-finite SPE or T2".into());
        }
        let mut h = Fnv::new();
        h.f64s(x.as_slice());
        h.f64s(&analysis.spe);
        h.f64s(&analysis.t2);
        Ok((outcome.stats.flows_total + outcome.stats.transit_skipped, h.finish()))
    }
}

/// `large_mesh`.
pub fn run_large_mesh(ctx: &mut Ctx) -> RunReport {
    let mut report = RunReport::default();
    let mut mesh = None;
    for _ in 0..ctx.setup_repeats() {
        let t0 = Instant::now();
        mesh = Some(Mesh::build(ctx.seed));
        report.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mesh = mesh.expect("at least one set-up");
    let p = mesh.scenario.topology.num_pops().pow(2);
    report.fact("bins", MESH_BINS);
    report.fact("od_pairs", p);

    if ctx.trace {
        walk_mesh(&mesh, ctx, &mut report);
    } else {
        // One discarded warm-up iteration; its hash is what every timed
        // one must repeat.
        let mut reference = match mesh.iterate() {
            Ok((_, hash)) => Some(hash),
            Err(e) => {
                report.problem(format!("warm-up: {e}"));
                None
            }
        };
        report.peak_rss_mb = peak_rss_mb();
        let deadline = Instant::now() + ctx.budget;
        let mut timed = Vec::new();
        while ctx.keep_timing(timed.len(), deadline) {
            report.attempted += 1;
            let t0 = Instant::now();
            let outcome = mesh.iterate();
            let wall = t0.elapsed().as_secs_f64();
            match outcome {
                Ok((records, hash)) => {
                    timed.push((wall, records));
                    if *reference.get_or_insert(hash) != hash {
                        report.failed += 1;
                        report.problem("matrix or scores differ between iterations".into());
                    }
                }
                Err(e) => {
                    report.failed += 1;
                    report.problem(format!("iteration {}: {e}", report.attempted));
                    break;
                }
            }
        }
        report.sample_blocks(&timed, ctx.block());
    }
    report
}

/// The mesh layer walk: ingest, fit and scoring timed apart.
fn walk_mesh(mesh: &Mesh, ctx: &mut Ctx, report: &mut RunReport) {
    // One verified iteration first: it checks the output against the
    // serial reference and takes the cold-start cost off the walk.
    report.attempted += 1;
    if let Err(e) = mesh.iterate() {
        report.failed += 1;
        report.problem(format!("verified iteration: {e}"));
    }
    let root = ctx.tracer.open(crate::spec::LARGE_MESH, None, 0);
    let span = ctx.tracer.open("flow.shard.mesh_ingest", root, 1);
    let t0 = Instant::now();
    let outcome = mesh
        .scenario
        .generator()
        .bin_scenario(mesh.pipe_cfg, mesh.ingress.clone(), mesh.routes.clone())
        .expect("mesh ingest");
    report.layer("flow.shard.mesh_ingest_s", t0.elapsed().as_secs_f64());
    ctx.tracer.close(span);
    report.layer("experiment.rss_after_ingest_mb", current_rss_mb());
    let x = outcome.matrices.bytes.data;
    report.layer("flow.matrix.cells_mb", (x.nrows() * x.ncols() * 3 * 8) as f64 / 1e6);
    drop((outcome.matrices.packets, outcome.matrices.flows));

    let span = ctx.tracer.open("subspace.randomized_fit", root, 1);
    let t0 = Instant::now();
    black_box(SubspaceModel::fit(&x, mesh.detect_cfg).expect("mesh fit"));
    let fit_s = t0.elapsed().as_secs_f64();
    ctx.tracer.close(span);
    let span = ctx.tracer.open("experiment.detect_matrix", root, 1);
    let t0 = Instant::now();
    black_box(detect_matrix(&x, mesh.detect_cfg).expect("mesh detection"));
    let detect_s = t0.elapsed().as_secs_f64();
    ctx.tracer.close(span);
    report.layer("subspace.randomized_fit_s", fit_s);
    report.layer("subspace.score_s", detect_s - fit_s);
    report.layer("par.pool_threads", odflow_par::default_threads() as f64);
    report.layer("failed_share", report.failed as f64 / report.attempted.max(1) as f64);
    ctx.tracer.close(root);
}
