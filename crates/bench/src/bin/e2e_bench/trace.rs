//! In-memory span recording for the traced layer walk.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions; nothing inside the program under
//! test is instrumented. They stay in memory for the whole walk and are
//! written once, at exit.
//!
//! Hot layers are called millions of times, so the walk does not record
//! one span per call: it accumulates a layer's busy time over one bin and
//! records **one span per layer per bin**, as children of that bin's
//! span, which is a child of the workload span. Aggregated spans are laid
//! end to end from their parent's start — their durations are exact,
//! their positions inside the bin synthetic.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. `parent` indexes [`Tracer::spans`].
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iteration: u32,
}

/// Span recorder for one workload's walk. With recording off every
/// method is a cheap no-op, which is what `trace_overhead_share`
/// compares against.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(workload: &str, on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), workload: workload.to_owned(), spans: Vec::new() }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting now; close it with [`Self::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>, iteration: u32) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: now,
            end_ns: now,
            parent,
            iteration,
        });
        Some(self.spans.len() - 1)
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: Option<usize>) {
        let now = self.now_ns();
        if let Some(span) = id.and_then(|i| self.spans.get_mut(i)) {
            span.end_ns = now;
        }
    }

    /// Records the per-layer busy times accumulated over one bin as
    /// child spans of `parent`, laid end to end from the parent's start.
    pub fn record_layers(&mut self, parent: Option<usize>, iteration: u32, layers: &[(&str, u64)]) {
        let Some(mut at) = parent.and_then(|p| self.spans.get(p)).map(|s| s.start_ns) else {
            return;
        };
        for &(name, busy_ns) in layers {
            self.spans.push(Span {
                name: name.to_owned(),
                start_ns: at,
                end_ns: at + busy_ns,
                parent,
                iteration,
            });
            at += busy_ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time summed by span name, in nanoseconds.
    pub fn self_time_by_name(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            *out.entry(span.name.clone()).or_insert(0) += own;
        }
        out
    }

    /// The trace document: every span with its workload and iteration.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("schema", Value::Str("odflow-e2e-trace/v1".into())),
            ("workload", Value::Str(self.workload.clone())),
            (
                "spans",
                Value::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Value::obj([
                                ("name", Value::Str(s.name.clone())),
                                ("start_ns", Value::Num(s.start_ns as f64)),
                                ("end_ns", Value::Num(s.end_ns as f64)),
                                ("parent", s.parent.map_or(Value::Null, |p| Value::Num(p as f64))),
                                ("workload", Value::Str(self.workload.clone())),
                                ("iteration", Value::Num(f64::from(s.iteration))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (children are clipped to the parent and
/// overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(parent) = s.parent.and_then(|p| spans.get(p).map(|ps| (p, ps))) {
            let (lo, hi) = (s.start_ns.max(parent.1.start_ns), s.end_ns.min(parent.1.end_ns));
            if hi > lo {
                children[parent.0].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns.min(s.end_ns)).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start_ns, end_ns, parent, iteration: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("workload", 0, 1000, None),
            span("bin", 100, 600, Some(0)),
            span("decode", 100, 250, Some(1)),
            span("bin_fill", 250, 500, Some(1)),
            span("bin", 600, 900, Some(0)),
        ];
        // workload: 1000 - (500 + 300); first bin: 500 - (150 + 250).
        assert_eq!(self_times(&spans), vec![200, 100, 150, 250, 300]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 160, Some(0)),   // overlaps a by 10
            span("c", 190, 260, Some(0)),   // overhangs the parent by 60
            span("d", 10, 50, Some(0)),     // entirely outside
            span("orphan", 0, 5, Some(99)), // dangling parent index
        ];
        // covered = [110,160) + [190,200) = 60.
        assert_eq!(self_times(&spans)[0], 40);
        assert_eq!(self_times(&spans)[5], 5);
    }

    #[test]
    fn recorder_lays_layer_spans_end_to_end_and_sums_by_name() {
        let mut t = Tracer::new("w", true);
        let root = t.open("w", None, 0);
        for _ in 0..2 {
            let bin = t.open("bin", root, 1);
            t.record_layers(bin, 1, &[("decode", 30), ("bin_fill", 70)]);
            t.close(bin);
        }
        t.close(root);
        assert_eq!(t.spans().len(), 7);
        let first_bin_start = t.spans()[1].start_ns;
        assert_eq!(t.spans()[2].start_ns, first_bin_start);
        assert_eq!(t.spans()[3].start_ns, first_bin_start + 30);
        assert_eq!(t.spans()[3].end_ns, first_bin_start + 100);
        let by_name = t.self_time_by_name();
        assert_eq!(by_name["decode"], 60);
        assert_eq!(by_name["bin_fill"], 140);
        let doc = t.to_json();
        assert_eq!(doc.get("spans").map(|s| s.as_arr().len()), Some(7));
        assert_eq!(doc.as_obj()[2].1.as_arr()[2].get("parent"), Some(&Value::Num(1.0)));
    }

    #[test]
    fn recording_off_records_nothing() {
        let mut t = Tracer::new("w", false);
        let root = t.open("w", None, 0);
        assert_eq!(root, None);
        t.record_layers(root, 0, &[("decode", 5)]);
        t.close(root);
        assert!(t.spans().is_empty());
    }
}
