//! Figures 1 and 2.

use odflow_bench::plot::{ascii_panel, csv};

use crate::describe::{summarize, Histogram};
use crate::{check, Check, Study};

/// The paper's Figure 1 covers 3.5 days (4/8 - 4/11): the same span of
/// 5-minute bins.
const FIG1_WINDOW: usize = 7 * 288 / 2;

/// **Figure 1** — "An illustration of the subspace method on the three
/// types of OD flow traffic": per traffic view, the state vector squared
/// magnitude ‖x‖², the residual ‖x̃‖² with its Q-statistic threshold and
/// the t² vector with its T² threshold, at the paper's 99.9% confidence
/// level. Detected anomalies appear as `*` spikes above the `-` threshold
/// lines: diurnal structure dominates ‖x‖² but is absent from the
/// detection statistics.
pub fn fig1(study: &Study, out: &mut String) -> Vec<Check> {
    let run = &study.week(0).run;
    out.push_str("Figure 1 — subspace method on the three OD traffic views\n");
    out.push_str(&format!(
        "window: first {FIG1_WINDOW} bins (3.5 days) of a paper week; k = {}, alpha = {}\n\n",
        study.config.subspace.k, study.config.subspace.alpha
    ));

    // Medians, not means: anomaly spikes legitimately dominate the
    // residual mean.
    let median = |v: &[f64]| summarize(v).expect("non-empty series").median;
    let mut residual_is_small = true;
    for (t, analysis) in &run.diagnosis.analyses {
        out.push_str(&format!("---- {t} ----\nstate vector ||x||^2:\n"));
        out.push_str(&ascii_panel(&analysis.state_norm_sq[..FIG1_WINDOW], 7, 100, None));
        out.push_str("residual vector ||x~||^2 (threshold = Q-statistic, 99.9%):\n");
        out.push_str(&ascii_panel(
            &analysis.spe[..FIG1_WINDOW],
            7,
            100,
            Some(analysis.model.spe_threshold()),
        ));
        out.push_str("t^2 vector (threshold = T^2, 99.9%):\n");
        out.push_str(&ascii_panel(
            &analysis.t2[..FIG1_WINDOW],
            7,
            100,
            Some(analysis.model.t2_threshold()),
        ));
        out.push('\n');
        residual_is_small &= median(&analysis.spe) < median(&analysis.state_norm_sq) * 0.15;
    }

    // The detected anomalies in the window, as the paper marks events
    // (1)-(5) on the figure.
    out.push_str("events detected inside the window:\n");
    let mut shown = 0;
    for (i, c) in run.classified.iter().enumerate() {
        if c.event.start_bin < FIG1_WINDOW {
            out.push_str(&format!(
                "  ({}) bins {:>4}-{:<4} types {:<3} class {:<16} flows {:?}\n",
                i + 1,
                c.event.start_bin,
                c.event.end_bin(),
                c.event.types.code(),
                c.class.label(),
                c.event.od_flows.iter().take(4).collect::<Vec<_>>()
            ));
            shown += 1;
        }
    }
    out.push_str(&format!("  ({shown} events; paper's figure marks 5 selected ones)\n"));
    out.push_str("\nfull series as CSV: paper_report fig1-csv\n");
    vec![check(
        residual_is_small,
        "in every view the typical residual is a small fraction of traffic energy",
    )]
}

/// Figure 1's nine series over the same window, as CSV for external
/// plotting.
pub fn fig1_csv(study: &Study, out: &mut String) -> Vec<Check> {
    let run = &study.week(0).run;
    let mut columns: Vec<(String, &[f64])> = Vec::new();
    for (t, analysis) in &run.diagnosis.analyses {
        columns.push((format!("{t}_state"), &analysis.state_norm_sq[..FIG1_WINDOW]));
        columns.push((format!("{t}_residual"), &analysis.spe[..FIG1_WINDOW]));
        columns.push((format!("{t}_t2"), &analysis.t2[..FIG1_WINDOW]));
    }
    let refs: Vec<(&str, &[f64])> = columns.iter().map(|(n, s)| (n.as_str(), *s)).collect();
    out.push_str(&csv(&refs));
    Vec::new()
}

/// **Figure 2** — "Quantifying the scope of network-wide anomalies by
/// duration and by the number of OD flows involved": (a) anomaly duration
/// in minutes (the paper's x-axis runs to ~120 with the mass at short
/// durations), (b) OD pairs per anomaly (mode at 1, tail to ~8).
pub fn fig2(study: &Study, out: &mut String) -> Vec<Check> {
    let mut durations = Histogram::new(0.0, 120.0, 12).expect("duration histogram");
    let mut od_counts = Histogram::new(0.5, 8.5, 8).expect("od histogram");
    let mut all_durations = Vec::new();
    let mut all_od_counts = Vec::new();
    for run in study.four_weeks() {
        for ev in &run.diagnosis.events {
            let minutes = ev.duration_minutes(300);
            durations.add(minutes);
            all_durations.push(minutes);
            let n = ev.od_flows.len().max(1) as f64;
            od_counts.add(n);
            all_od_counts.push(n);
        }
    }

    out.push_str("Figure 2(a) — anomaly duration (minutes), 4 weeks:\n");
    out.push_str(&durations.render_ascii(50));
    out.push_str("\nFigure 2(b) — number of OD pairs in anomaly:\n");
    out.push_str(&od_counts.render_ascii(50));
    let dur = summarize(&all_durations).expect("durations");
    let ods = summarize(&all_od_counts).expect("od counts");
    out.push_str(&format!(
        "\nduration: median {:.0} min, p75 {:.0} min, max {:.0} min over {} events\n",
        dur.median, dur.q75, dur.max, dur.n
    ));
    out.push_str(&format!(
        "OD pairs: median {:.0}, p75 {:.0}, max {:.0}\n",
        ods.median, ods.q75, ods.max
    ));

    vec![
        check(dur.median <= 10.0, "most anomalies are short (paper: mass at 5-10 minutes)"),
        check(ods.median <= 2.0, "most anomalies involve few OD flows (paper: mode 1)"),
        check(
            dur.max >= 30.0 || durations.overflow() > 0,
            "a non-negligible tail of long anomalies exists",
        ),
        check(ods.max >= 4.0, "some anomalies span several OD flows"),
    ]
}
