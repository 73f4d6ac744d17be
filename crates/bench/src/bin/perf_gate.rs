//! `perf_gate` — CI guard over the perf trajectory.
//!
//! Compares the current run's `BENCH_pipeline.json` against the previous
//! CI run's artifact and fails (exit 1) when any stage's `serial_ms`
//! regresses by more than the threshold: a serial regression survives any
//! pool size.
//!
//! Usage:
//!
//! ```text
//! perf_gate --previous PATH --current PATH [--threshold PCT]
//! ```
//!
//! A missing/unreadable *previous* report is not a failure (first run on a
//! branch, expired artifact): the gate prints a notice and passes, so the
//! workflow needs no special-casing. Stages are matched by
//! `(name, workload)`; stages present on only one side (new or retired
//! workloads) are reported but never fail the gate. The *current* report,
//! however, must contain every stage in the shared `PERF_STAGES` registry — a partial
//! `--stage`-filtered run (or a silently dropped workload) must never
//! become the CI baseline, because a stage absent from the baseline is a
//! stage whose regressions go unnoticed. Baselines recorded on a
//! different machine shape are still compared — the override label in CI
//! is the escape hatch for legitimate regressions and noisy runners.
//!
//! `serial_ms` is the one gated column. `parallel_ms` is printed beside it
//! and never fails the gate: on the reference box it has two wake modes
//! that last minutes, so no honest sweep is green on every parallel row.

#![forbid(unsafe_code)]

/// Stage names every full `perf_report` run must produce — the shared
/// registry in the `odflow_bench` lib, so registering a stage there gates
/// it here with no second list to forget.
use odflow_bench::PERF_STAGES as REQUIRED_STAGES;

/// One stage parsed out of a perf report.
#[derive(Debug, Clone, PartialEq)]
struct Stage {
    name: String,
    workload: String,
    serial_ms: f64,
    parallel_ms: f64,
}

/// Extracts the string value of `"key": "..."` from a JSON object line.
fn str_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    // Values are produced by our own writer: no escaped quotes beyond \".
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => {
                if let Some(n) = chars.next() {
                    out.push(n);
                }
            }
            '"' => return Some(out),
            _ => out.push(c),
        }
    }
    None
}

/// Extracts the numeric value of `"key": 12.3` from a JSON object line.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
        .collect();
    rest.parse().ok()
}

/// Parses the stage array of a perf report. The format is this repo's own
/// `perf_report` writer (one stage object per line), so a hand-rolled
/// parser keeps the gate dependency-free, matching the vendored-only
/// crate policy.
fn parse_stages(json: &str) -> Vec<Stage> {
    json.lines()
        .filter_map(|line| {
            Some(Stage {
                name: str_field(line, "name")?,
                workload: str_field(line, "workload")?,
                serial_ms: num_field(line, "serial_ms")?,
                parallel_ms: num_field(line, "parallel_ms")?,
            })
        })
        .collect()
}

/// Required stage names absent from a parsed report.
fn missing_required(stages: &[Stage]) -> Vec<&'static str> {
    REQUIRED_STAGES.iter().filter(|req| !stages.iter().any(|s| s.name == **req)).copied().collect()
}

/// One stage-workload whose `serial_ms` regressed beyond the threshold.
#[derive(Debug, Clone, PartialEq)]
struct Regression {
    name: String,
    workload: String,
    prev_ms: f64,
    curr_ms: f64,
}

impl Regression {
    fn describe(&self) -> String {
        format!(
            "{} [{}]: serial {:.2} ms -> {:.2} ms (+{:.1}%)",
            self.name,
            self.workload,
            self.prev_ms,
            self.curr_ms,
            (self.curr_ms / self.prev_ms - 1.0) * 100.0
        )
    }
}

/// Compares matched stages and returns the `serial_ms` regressions that
/// should fail the gate.
fn find_regressions(prev: &[Stage], curr: &[Stage], threshold_pct: f64) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for c in curr {
        let Some(p) = prev.iter().find(|p| p.name == c.name && p.workload == c.workload) else {
            continue;
        };
        if change_pct(p.serial_ms, c.serial_ms) > threshold_pct {
            regressions.push(Regression {
                name: c.name.clone(),
                workload: c.workload.clone(),
                prev_ms: p.serial_ms,
                curr_ms: c.serial_ms,
            });
        }
    }
    regressions
}

/// Percent change from `prev_ms` to `curr_ms` (0 when there is no previous
/// time to compare against).
fn change_pct(prev_ms: f64, curr_ms: f64) -> f64 {
    if prev_ms > 0.0 {
        (curr_ms / prev_ms - 1.0) * 100.0
    } else {
        0.0
    }
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("usage: perf_gate --previous PATH --current PATH [--threshold PCT]");
    std::process::exit(2);
}

fn main() {
    let mut previous = None;
    let mut current = None;
    let mut threshold_pct = 15.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--previous" => previous = args.next(),
            "--current" => current = args.next(),
            "--threshold" => {
                threshold_pct = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage_error("--threshold expects a number"));
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }
    let previous = previous.unwrap_or_else(|| usage_error("--previous is required"));
    let current = current.unwrap_or_else(|| usage_error("--current is required"));

    let Ok(prev_json) = std::fs::read_to_string(&previous) else {
        println!("perf_gate: no previous report at {previous} — first run, gate passes");
        return;
    };
    let curr_json = match std::fs::read_to_string(&current) {
        Ok(s) => s,
        Err(e) => usage_error(&format!("cannot read current report {current}: {e}")),
    };

    let prev = parse_stages(&prev_json);
    let curr = parse_stages(&curr_json);
    if curr.is_empty() {
        usage_error(&format!("current report {current} contains no stages"));
    }
    let missing = missing_required(&curr);
    if !missing.is_empty() {
        eprintln!(
            "perf_gate: current report {current} is missing required stage(s): {} \
             (a --stage-filtered report cannot be the CI baseline)",
            missing.join(", ")
        );
        std::process::exit(1);
    }

    let regressions = find_regressions(&prev, &curr, threshold_pct);
    for c in &curr {
        let Some(p) = prev.iter().find(|p| p.name == c.name && p.workload == c.workload) else {
            println!(
                "  new stage       {:<22} {:<34} serial {:>9.2} ms",
                c.name, c.workload, c.serial_ms
            );
            continue;
        };
        let regressed = regressions.iter().any(|r| r.name == c.name && r.workload == c.workload);
        let verdict = if regressed { "REGRESSED" } else { "ok" };
        println!(
            "  {verdict:<15} {:<22} {:<34} serial {:>9.2} -> {:>9.2} ms ({:+.1}%)   \
             parallel {:>9.2} -> {:>9.2} ms ({:+.1}%, not gated)",
            c.name,
            c.workload,
            p.serial_ms,
            c.serial_ms,
            change_pct(p.serial_ms, c.serial_ms),
            p.parallel_ms,
            c.parallel_ms,
            change_pct(p.parallel_ms, c.parallel_ms)
        );
    }
    for p in &prev {
        if !curr.iter().any(|c| c.name == p.name && c.workload == p.workload) {
            println!("  retired stage   {:<22} {:<34}", p.name, p.workload);
        }
    }

    if regressions.is_empty() {
        println!("perf_gate: no serial_ms regression beyond {threshold_pct}%");
    } else {
        eprintln!("perf_gate: {} stage(s) regressed beyond {threshold_pct}%:", regressions.len());
        for r in &regressions {
            eprintln!("  {}", r.describe());
        }
        eprintln!("(apply the perf-regression-ok label to override a justified regression)");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "schema": "odflow-perf-report/v1",
  "stages": [
    {"name": "gram", "workload": "n=2016 p=121", "serial_ms": 10.000, "parallel_ms": 3.000, "speedup": 3.333},
    {"name": "matmul", "workload": "384x384 * 384x384", "serial_ms": 50.500, "parallel_ms": 20.000, "speedup": null}
  ]
}"#;

    #[test]
    fn parses_own_report_format() {
        let stages = parse_stages(SAMPLE);
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].name, "gram");
        assert_eq!(stages[0].workload, "n=2016 p=121");
        assert!((stages[0].serial_ms - 10.0).abs() < 1e-9);
        assert!((stages[1].parallel_ms - 20.0).abs() < 1e-9);
        assert_eq!(stages[1].workload, "384x384 * 384x384", "a null speedup parses");
    }

    #[test]
    fn field_extractors_handle_escapes_and_absence() {
        assert_eq!(str_field(r#"{"name": "a\"b"}"#, "name").unwrap(), "a\"b");
        assert_eq!(str_field("{}", "name"), None);
        assert_eq!(num_field(r#"{"serial_ms": 1.5e2}"#, "serial_ms"), Some(150.0));
        assert_eq!(num_field("{}", "serial_ms"), None);
    }

    #[test]
    fn missing_required_flags_absent_stages() {
        // The sample report only has gram + matmul: every other kernel row
        // must be reported missing.
        let stages = parse_stages(SAMPLE);
        let missing = missing_required(&stages);
        assert_eq!(missing, ["fanout", "eigen_tridiag", "model_fit", "detector", "wide_fit"]);
    }

    #[test]
    fn regressions_identify_the_exact_workload() {
        // Two workloads of the same stage: only the regressed one may be
        // reported, identified by (name, workload) — not by stage name
        // alone.
        let stage = |workload: &str, serial_ms: f64| Stage {
            name: "gram".into(),
            workload: workload.into(),
            serial_ms,
            parallel_ms: 1.0,
        };
        let prev = vec![stage("n=2016 p=121", 10.0), stage("n=1024 p=512", 40.0)];
        let curr = vec![stage("n=2016 p=121", 20.0), stage("n=1024 p=512", 41.0)];
        let failing = find_regressions(&prev, &curr, 15.0);
        assert_eq!(failing.len(), 1);
        assert_eq!(failing[0].workload, "n=2016 p=121");
        assert_eq!(failing[0].name, "gram");
    }

    #[test]
    fn serial_regressions_gate_and_parallel_ones_do_not() {
        let stage = |serial_ms: f64, parallel_ms: f64| Stage {
            name: "matmul".into(),
            workload: "w".into(),
            serial_ms,
            parallel_ms,
        };
        let prev = vec![stage(10.0, 3.0)];
        let failing = find_regressions(&prev, &[stage(12.0, 3.0)], 15.0);
        assert_eq!(failing.len(), 1);
        assert!(failing[0].describe().contains("serial 10.00 ms -> 12.00 ms"));
        // Within threshold passes, whatever the ungated column did.
        assert!(find_regressions(&prev, &[stage(10.5, 9.0)], 15.0).is_empty());
        assert!(find_regressions(&prev, &prev, 15.0).is_empty());
    }

    #[test]
    fn full_stage_set_has_nothing_missing() {
        let stages: Vec<Stage> = REQUIRED_STAGES
            .iter()
            .map(|name| Stage {
                name: name.to_string(),
                workload: "w".into(),
                serial_ms: 1.0,
                parallel_ms: 1.0,
            })
            .collect();
        assert_eq!(stages.len(), 7, "the kernel rows and nothing else");
        assert!(missing_required(&stages).is_empty());
    }
}
