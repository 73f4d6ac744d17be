//! `paper_report` — every table and figure of Lakhina, Crovella & Diot
//! (IMC 2004), regenerated from the seeded synthetic Abilene study and
//! printed to stdout.
//!
//! ```text
//! paper_report [SECTION]...
//! ```
//!
//! Arguments are section names and nothing else; none means every section
//! but `fig1-csv`, always in the order of [`SECTIONS`]. The seed is the
//! constant [`HARNESS_SEED`], so the default output is a fixed text:
//! `crates/bench/golden/paper_report.txt` is that text, committed, and CI
//! diffs the two on every PR — the file pins Table 1/2/3's counts, the
//! §2.1 rates, recall / precision / class accuracy and every ablation row
//! as values, with the paper's published numbers beside them.
//!
//! Absolute numbers differ from the paper's (different traffic, different
//! anomaly population); each section also checks the *shape* claims the
//! paper makes. A failed check does not stop the run: every section is
//! printed, then the failed claims are listed on stderr and the exit code
//! is 1. The tool writes nothing but stdout.

#![forbid(unsafe_code)]

mod ablations;
mod describe;
mod figures;
mod tables;

use std::cell::OnceCell;

use odflow::experiment::{run_scenario, ExperimentConfig, ScenarioRun};
use odflow::gen::Scenario;
use odflow_bench::HARNESS_SEED;

/// One shape claim a section checked, as data.
struct Check {
    claim: &'static str,
    holds: bool,
}

fn check(holds: bool, claim: &'static str) -> Check {
    Check { claim, holds }
}

/// A section appends its text to the `String` and returns what it checked.
type Section = fn(&Study, &mut String) -> Vec<Check>;

/// Every section, in output order. `fig1-csv` is printed on request only.
const SECTIONS: [(&str, Section); 11] = [
    ("table1", tables::table1),
    ("table2", tables::table2),
    ("table3", tables::table3),
    ("fig1", figures::fig1),
    ("fig2", figures::fig2),
    ("resolution", tables::resolution),
    ("ablation-k", ablations::k_sweep),
    ("ablation-sampling", ablations::sampling),
    ("ablation-stats", ablations::stats),
    ("ablation-dominance", ablations::dominance),
    ("fig1-csv", figures::fig1_csv),
];
const ON_REQUEST_ONLY: &str = "fig1-csv";

/// One paper week: the scenario and its run at the default configuration.
struct Week {
    scenario: Scenario,
    run: ScenarioRun,
}

/// What sections share: the four-week study at the default configuration,
/// each week run on first use. Week 0 is the "one paper week" of Figure 1
/// and the ablations, so a full report runs the study exactly once and a
/// section that needs no week (`table2`, `resolution`) pays for none.
struct Study {
    config: ExperimentConfig,
    weeks: [OnceCell<Week>; 4],
}

impl Study {
    fn new() -> Self {
        Study { config: ExperimentConfig::default(), weeks: Default::default() }
    }

    fn week(&self, week: usize) -> &Week {
        self.weeks[week].get_or_init(|| {
            let scenario = Scenario::paper_week(HARNESS_SEED, week as u64).expect("paper scenario");
            let run = run_scenario(&scenario, &self.config).expect("scenario run");
            Week { scenario, run }
        })
    }

    /// The four weekly runs of the paper's data design.
    fn four_weeks(&self) -> impl Iterator<Item = &ScenarioRun> {
        (0..4).map(|w| &self.week(w).run)
    }

    /// Week 0 under a swept configuration: the shared run when the sweep is
    /// at the study's own operating point, a fresh one otherwise.
    fn week0_swept<R>(
        &self,
        at_default: bool,
        config: &ExperimentConfig,
        read: impl FnOnce(&ScenarioRun) -> R,
    ) -> R {
        let week0 = self.week(0);
        if at_default {
            read(&week0.run)
        } else {
            read(&run_scenario(&week0.scenario, config).expect("scenario run"))
        }
    }
}

fn main() {
    let mut selected = [false; SECTIONS.len()];
    for arg in std::env::args().skip(1) {
        let Some(i) = SECTIONS.iter().position(|(name, _)| *name == arg) else {
            eprintln!("paper_report: unknown section: {arg}");
            let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
            eprintln!("sections: {}", names.join(" "));
            std::process::exit(2);
        };
        selected[i] = true;
    }
    if !selected.contains(&true) {
        selected = std::array::from_fn(|i| SECTIONS[i].0 != ON_REQUEST_ONLY);
    }

    let study = Study::new();
    let mut failed = Vec::new();
    for (&(name, section), on) in SECTIONS.iter().zip(selected) {
        if !on {
            continue;
        }
        let mut text = format!("#### {name}\n");
        for c in section(&study, &mut text) {
            let verdict = if c.holds { "passed" } else { "FAILED" };
            text.push_str(&format!("check {verdict}: {}\n", c.claim));
            if !c.holds {
                failed.push((name, c.claim));
            }
        }
        println!("{text}");
    }

    if !failed.is_empty() {
        eprintln!("paper_report: {} shape check(s) failed:", failed.len());
        for (name, claim) in failed {
            eprintln!("  {name}: {claim}");
        }
        std::process::exit(1);
    }
}
