//! `--compare A.json B.json`: the before/after table a performance change
//! pastes into its description. One row per workload x end-to-end metric,
//! with both medians, both quartile pairs, the ratio with its base, and a
//! verdict against the bound `BENCHMARK.json` fixes.

use crate::json::{self, Value};
use crate::spec::{Better, MetricSpec, END_TO_END};
use crate::stats;
use std::path::Path;

/// How B stands against A on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The run-to-run spread exceeds the bound and the two sides' runs
    /// interleave: the data cannot say.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The per-run values of one end-to-end metric in a workload's `runs`.
pub fn metric_values(runs: &[Value], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|run| run.get("result")?.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Judges B's runs against A's. A change counts as better or worse only
/// when the medians differ by more than the metric's bound; when either
/// side's own spread exceeds the bound and the sides' ranges overlap, the
/// comparison is unresolved rather than unchanged.
pub fn verdict(m: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let bound = m.bound.unwrap_or(0.0);
    let (ma, mb) = (stats::median(a), stats::median(b));
    let range = |v: &[f64]| {
        v.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| (lo.min(*x), hi.max(*x)))
    };
    let ((alo, ahi), (blo, bhi)) = (range(a), range(b));
    let interleaved = alo <= bhi && blo <= ahi;
    if interleaved && stats::iqr_share(a).max(stats::iqr_share(b)) > bound {
        return Verdict::Unresolved;
    }
    // Positive when B is worse, as a share of A's median.
    let worsening = match m.better {
        Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workload_runs<'a>(doc: &'a Value, name: &str) -> &'a [Value] {
    doc.get("workloads")
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        .and_then(|w| w.get("runs"))
        .map(Value::as_arr)
        .unwrap_or_default()
}

/// Prints the table; `false` when a file cannot be read or any row is
/// `worse`.
pub fn run(a_path: &Path, b_path: &Path) -> bool {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("e2e_bench: {e}");
            }
            return false;
        }
    };
    println!("A = {}   B = {}", a_path.display(), b_path.display());
    println!(
        "| workload | metric | A median (q1..q3, n) | B median (q1..q3, n) | B/A | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|");
    let mut any_worse = false;
    for w in &crate::spec::WORKLOADS {
        for m in &END_TO_END {
            let va = metric_values(workload_runs(&a, w.name), m.name);
            let vb = metric_values(workload_runs(&b, w.name), m.name);
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (sa, sb) = (stats::Summary::of(&va), stats::Summary::of(&vb));
            let v = verdict(m, &va, &vb);
            any_worse |= v == Verdict::Worse;
            println!(
                "| {} | {} ({}, {} is better) | {:.6} ({:.6}..{:.6}, n={}) | {:.6} ({:.6}..{:.6}, n={}) | \
                 {:.4}x of A = {:.6} {} | {} | {} |",
                w.name,
                m.name,
                m.unit,
                m.better.as_str(),
                sa.median,
                sa.q1,
                sa.q3,
                sa.n,
                sb.median,
                sb.q1,
                sb.q3,
                sb.n,
                sb.median / sa.median,
                sa.median,
                m.unit,
                m.bound.unwrap_or(0.0),
                v.as_str()
            );
        }
    }
    !any_worse
}

#[cfg(test)]
mod tests {
    use super::*;

    const WALL: MetricSpec = END_TO_END[1];
    const RATE: MetricSpec = END_TO_END[2];

    #[test]
    fn verdicts_follow_direction_and_bound() {
        assert_eq!((WALL.name, RATE.name), ("wall_s", "records_per_s"));
        let bound = WALL.bound.unwrap();
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        let scale = |k: f64| base.map(|v| v * k);
        assert_eq!(verdict(&WALL, &base, &scale(1.0 + bound / 2.0)), Verdict::WithinBound);
        assert_eq!(verdict(&WALL, &base, &scale(1.0 + bound * 2.0)), Verdict::Worse);
        assert_eq!(verdict(&WALL, &base, &scale(1.0 - bound * 2.0)), Verdict::Better);
        // Higher-is-better flips the reading of the same numbers.
        assert_eq!(verdict(&RATE, &base, &scale(1.0 + bound * 2.0)), Verdict::Better);
        assert_eq!(verdict(&RATE, &base, &scale(1.0 - bound * 2.0)), Verdict::Worse);
    }

    #[test]
    fn wide_interleaved_runs_are_unresolved_not_unchanged() {
        let a = [1.0, 1.8, 0.6, 1.6, 0.7];
        let b = [1.1, 0.65, 1.7, 1.0, 1.5];
        assert!(stats::iqr_share(&a) > WALL.bound.unwrap());
        assert_eq!(verdict(&WALL, &a, &b), Verdict::Unresolved);
        // Wide but disjoint: every run of B beats every run of A.
        let fast = a.map(|v| v * 0.2);
        assert_eq!(verdict(&WALL, &a, &fast), Verdict::Better);
    }

    #[test]
    fn per_run_values_are_read_from_the_results_layout() {
        let run = |v: f64| {
            Value::obj([(
                "result",
                Value::obj([(
                    "metrics",
                    Value::obj([("wall_s", Value::obj([("value", Value::Num(v))]))]),
                )]),
            )])
        };
        let doc = Value::obj([(
            "workloads",
            Value::Arr(vec![Value::obj([
                ("name", Value::Str("large_mesh".into())),
                ("runs", Value::Arr(vec![run(2.0), run(2.5)])),
            ])]),
        )]);
        assert_eq!(metric_values(workload_runs(&doc, "large_mesh"), "wall_s"), vec![2.0, 2.5]);
        assert!(metric_values(workload_runs(&doc, "nope"), "wall_s").is_empty());
        assert!(metric_values(workload_runs(&doc, "large_mesh"), "setup_s").is_empty());
    }
}
