//! # odflow-bench — the experiment harness
//!
//! Regenerates every table and figure of Lakhina, Crovella & Diot
//! (IMC 2004) from the synthetic Abilene substrate. One binary per
//! artifact (see `src/bin/`), plus Criterion micro-benchmarks for the
//! computational pipeline stages (see `benches/`).
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig1_subspace_timeseries` | Figure 1 — state/residual/t² panels |
//! | `table1_anomaly_counts` | Table 1 — counts per B/F/P combination |
//! | `fig2_scope_histograms` | Figure 2 — duration & OD-count histograms |
//! | `table2_taxonomy` | Table 2 — signature verification per class |
//! | `table3_classification` | Table 3 — class × traffic-type counts |
//! | `resolution_rate` | §2.1 — ≥93% flow / ≥90% byte OD resolution |
//! | `ablation_k_sweep` | sensitivity to the normal-subspace dimension |
//! | `ablation_sampling` | sensitivity to the packet sampling rate |
//! | `ablation_stats` | SPE-only vs T²-only vs combined detection |
//! | `ablation_dominance` | classification vs the dominance threshold `p` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plot;

/// Every stage name `perf_report` measures, in report order — the single
/// source of truth shared by `perf_report` (which validates `--stage`
/// arguments against it) and `perf_gate` (which requires all of them in a
/// full report, so a new stage is gated the moment it is registered here).
pub const PERF_STAGES: &[&str] = &[
    "fanout",
    "gram",
    "matmul",
    "eigen_tridiag",
    "model_fit",
    "detector",
    "generator",
    "ingest",
    "large_mesh_pipeline",
    "large_mesh_detect",
    "pipeline",
    "fault_storm",
    "serve_ingest",
    "checkpoint",
];

use odflow::experiment::{run_scenario, ExperimentConfig, ScenarioRun};
use odflow::gen::Scenario;

/// Runs the standard four-week study (the paper's data design) and returns
/// the per-week results. The seed fixes everything: reruns are identical.
///
/// # Panics
///
/// Panics on scenario or pipeline failures — harness binaries are
/// fail-fast by design.
pub fn run_four_weeks(seed: u64, config: &ExperimentConfig) -> Vec<ScenarioRun> {
    Scenario::paper_four_weeks(seed)
        .expect("paper scenario construction")
        .iter()
        .map(|s| run_scenario(s, config).expect("scenario run"))
        .collect()
}

/// Runs a single paper week.
///
/// # Panics
///
/// As for [`run_four_weeks`].
pub fn run_week(seed: u64, week: u64, config: &ExperimentConfig) -> (Scenario, ScenarioRun) {
    let scenario = Scenario::paper_week(seed, week).expect("paper scenario construction");
    let run = run_scenario(&scenario, config).expect("scenario run");
    (scenario, run)
}

/// The fixed seed every table/figure binary uses, so EXPERIMENTS.md numbers
/// are reproducible with `cargo run -p odflow-bench --bin <name>`.
pub const HARNESS_SEED: u64 = 20040519; // the tech report's date

/// Synthetic OD matrix shaped like the paper's data (two diurnal harmonics
/// with per-column phases, plus deterministic noise): `n` bins × `p` pairs.
///
/// Shared by the criterion `pipeline` benches and the `perf_report`
/// trajectory harness so both always measure the same workload.
pub fn traffic_matrix(n: usize, p: usize) -> odflow::linalg::Matrix {
    odflow::linalg::Matrix::from_fn(n, p, |i, j| {
        let t = i as f64 / 288.0 * std::f64::consts::TAU;
        let phase = 0.8 * (j % 4) as f64;
        (20.0 + j as f64) * (2.0 + (t + phase).sin() + 0.8 * (2.0 * t + 1.1 * (j % 3) as f64).sin())
            + ((i * 31 + j * 17) % 101) as f64 / 101.0
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn paper_week_generator_is_deterministic() {
        let s1 = odflow::gen::Scenario::paper_week(7, 0).unwrap();
        let s2 = odflow::gen::Scenario::paper_week(7, 0).unwrap();
        let g1 = s1.generator();
        let g2 = s2.generator();
        assert_eq!(g1.records_for_bin(100), g2.records_for_bin(100));
    }
}
