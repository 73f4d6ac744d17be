//! # odflow_bench — the measuring tools
//!
//! One tool per question, and no question asked twice:
//!
//! * `paper_report` — *what does the paper's table say.* Regenerates every
//!   table and figure of Lakhina, Crovella & Diot (IMC 2004) from the
//!   seeded synthetic Abilene study and prints them to stdout; its default
//!   output is committed as `golden/paper_report.txt` and diffed on every
//!   PR. Arguments are section names (none = all but `fig1-csv`):
//!
//!   | section | paper artifact |
//!   |---|---|
//!   | `table1` | Table 1 — counts per B/F/P combination |
//!   | `table2` | Table 2 — signature verification per class |
//!   | `table3` | Table 3 — class × traffic-type counts, recall / precision |
//!   | `fig1` | Figure 1 — state / residual / t² panels |
//!   | `fig2` | Figure 2 — duration & OD-count histograms |
//!   | `resolution` | §2.1 — ≥93% flow / ≥90% byte OD resolution |
//!   | `ablation-k` | sensitivity to the normal-subspace dimension |
//!   | `ablation-sampling` | sensitivity to the packet sampling rate |
//!   | `ablation-stats` | SPE-only vs T²-only vs combined detection |
//!   | `ablation-dominance` | classification vs the dominance threshold `p` |
//!   | `fig1-csv` | Figure 1's full series as CSV (on request only) |
//!
//! * `perf_report` / `perf_gate` — *how fast is a kernel.* The seven
//!   [`PERF_STAGES`] rows, gated on `serial_ms`.
//! * `e2e_bench` — *how fast is the system.* The repo's benchmark
//!   (`BENCHMARK.json`): five verified workloads and `--compare`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plot;

/// Every stage name `perf_report` measures, in report order — the single
/// source of truth shared by `perf_report` (which validates `--stage`
/// arguments against it) and `perf_gate` (which requires all of them in a
/// full report, so a new stage is gated the moment it is registered here).
pub const PERF_STAGES: &[&str] =
    &["fanout", "gram", "matmul", "eigen_tridiag", "model_fit", "detector", "wide_fit"];

/// The fixed seed `paper_report` runs the study with, so the committed
/// golden is reproducible.
pub const HARNESS_SEED: u64 = 20040519; // the tech report's date

/// Synthetic OD matrix shaped like the paper's data (two diurnal harmonics
/// with per-column phases, plus deterministic noise): `n` bins × `p` pairs.
///
/// The fixed input of every `perf_report` kernel row.
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
