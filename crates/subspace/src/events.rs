//! Aggregating detections into network-wide anomaly events.
//!
//! §4 of the paper: "We start with the set of anomalies cast as triples of
//! (traffic type, time, OD flow) ... We first aggregate all triples with
//! the same time value, placing some triples into the new categories BP,
//! BF, FP, and BFP ... Then we group triples to form anomalies in space
//! (all OD flows corresponding to the same traffic type and time) and time
//! (all triples with consecutive time values, having the same traffic
//! type). This results in our final set of anomalies, in which each anomaly
//! has an associated set of OD flows and potentially spans consecutive
//! time bins."
//!
//! [`merge_detections`] implements exactly that pipeline, producing
//! [`AnomalyEvent`]s — the unit counted in the paper's Tables 1 and 3 and
//! histogrammed in Figure 2.

use odflow_flow::TrafficType;
use std::collections::{BTreeMap, BTreeSet};

/// A set of traffic types, printable as the paper's B/P/F combination codes
/// (`"B"`, `"BP"`, `"BFP"`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TypeSet(u8);

impl TypeSet {
    const B: u8 = 1;
    const F: u8 = 2;
    const P: u8 = 4;

    /// The empty set.
    pub fn empty() -> TypeSet {
        TypeSet(0)
    }

    /// A singleton set.
    pub fn single(t: TrafficType) -> TypeSet {
        let mut s = TypeSet::empty();
        s.insert(t);
        s
    }

    /// Inserts a traffic type.
    pub fn insert(&mut self, t: TrafficType) {
        self.0 |= match t {
            TrafficType::Bytes => Self::B,
            TrafficType::Flows => Self::F,
            TrafficType::Packets => Self::P,
        };
    }

    /// Set membership.
    pub fn contains(&self, t: TrafficType) -> bool {
        let bit = match t {
            TrafficType::Bytes => Self::B,
            TrafficType::Flows => Self::F,
            TrafficType::Packets => Self::P,
        };
        self.0 & bit != 0
    }

    /// Number of types present.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// `true` when no types are present.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// The paper's combination code: single letters in B, F, P order
    /// (matching Table 1's column heads: B, F, P, BF, BP, FP, BFP).
    pub fn code(&self) -> String {
        let mut s = String::new();
        if self.0 & Self::B != 0 {
            s.push('B');
        }
        if self.0 & Self::F != 0 {
            s.push('F');
        }
        if self.0 & Self::P != 0 {
            s.push('P');
        }
        s
    }

    /// All seven non-empty combinations, in Table 1 column order.
    pub fn all_combinations() -> [TypeSet; 7] {
        [
            TypeSet(Self::B),
            TypeSet(Self::F),
            TypeSet(Self::P),
            TypeSet(Self::B | Self::F),
            TypeSet(Self::B | Self::P),
            TypeSet(Self::F | Self::P),
            TypeSet(Self::B | Self::F | Self::P),
        ]
    }
}

impl std::fmt::Display for TypeSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// One input triple: a detection in one traffic type at one timebin with
/// its identified OD flows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionTriple {
    /// Traffic type the detection occurred in.
    pub traffic_type: TrafficType,
    /// Timebin index.
    pub bin: usize,
    /// Identified responsible OD flows.
    pub od_flows: Vec<usize>,
}

/// A final aggregated anomaly event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnomalyEvent {
    /// The traffic-type combination (B, P, F, BP, FP, BF, or BFP).
    pub types: TypeSet,
    /// First timebin of the event.
    pub start_bin: usize,
    /// Number of consecutive timebins spanned.
    pub duration_bins: usize,
    /// Union of identified OD flows across the event's bins.
    pub od_flows: Vec<usize>,
}

impl AnomalyEvent {
    /// Last bin (inclusive).
    pub fn end_bin(&self) -> usize {
        self.start_bin + self.duration_bins - 1
    }

    /// Event duration in minutes given the bin width.
    pub fn duration_minutes(&self, bin_secs: u64) -> f64 {
        (self.duration_bins as u64 * bin_secs) as f64 / 60.0
    }

    /// `true` if `bin` falls within the event.
    pub fn covers_bin(&self, bin: usize) -> bool {
        bin >= self.start_bin && bin <= self.end_bin()
    }
}

/// Merges per-traffic-type detection triples into final anomaly events,
/// following §4's three aggregation steps (time-value merge into combined
/// types, spatial union, consecutive-bin temporal merge).
pub fn merge_detections(triples: &[DetectionTriple]) -> Vec<AnomalyEvent> {
    // Step 1+2: per bin, union traffic types and OD flows.
    let mut per_bin: BTreeMap<usize, (TypeSet, BTreeSet<usize>)> = BTreeMap::new();
    for t in triples {
        let entry = per_bin.entry(t.bin).or_insert((TypeSet::empty(), BTreeSet::new()));
        entry.0.insert(t.traffic_type);
        entry.1.extend(t.od_flows.iter().copied());
    }

    // Step 3: merge runs of consecutive bins with the same combined type.
    let mut events: Vec<AnomalyEvent> = Vec::new();
    let mut current: Option<(TypeSet, usize, usize, BTreeSet<usize>)> = None; // (types, start, last, flows)
    for (&bin, (types, flows)) in &per_bin {
        match current.take() {
            Some((ct, start, last, mut cf)) if bin == last + 1 && ct == *types => {
                cf.extend(flows.iter().copied());
                current = Some((ct, start, bin, cf));
            }
            Some((ct, start, last, cf)) => {
                events.push(AnomalyEvent {
                    types: ct,
                    start_bin: start,
                    duration_bins: last - start + 1,
                    od_flows: cf.into_iter().collect(),
                });
                current = Some((*types, bin, bin, flows.clone()));
            }
            None => {
                current = Some((*types, bin, bin, flows.clone()));
            }
        }
    }
    if let Some((ct, start, last, cf)) = current {
        events.push(AnomalyEvent {
            types: ct,
            start_bin: start,
            duration_bins: last - start + 1,
            od_flows: cf.into_iter().collect(),
        });
    }
    events
}

/// Counts events per traffic-type combination, in Table 1 column order
/// `[B, F, P, BF, BP, FP, BFP]`.
pub fn count_by_combination(events: &[AnomalyEvent]) -> [(String, usize); 7] {
    TypeSet::all_combinations().map(|c| {
        let count = events.iter().filter(|e| e.types == c).count();
        (c.code(), count)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use TrafficType::*;

    fn triple(t: TrafficType, bin: usize, flows: &[usize]) -> DetectionTriple {
        DetectionTriple { traffic_type: t, bin, od_flows: flows.to_vec() }
    }

    #[test]
    fn typeset_codes() {
        assert_eq!(TypeSet::single(Bytes).code(), "B");
        assert_eq!(TypeSet::single(Flows).code(), "F");
        assert_eq!(TypeSet::single(Packets).code(), "P");
        let mut bp = TypeSet::single(Bytes);
        bp.insert(Packets);
        assert_eq!(bp.code(), "BP");
        let mut bfp = bp;
        bfp.insert(Flows);
        assert_eq!(bfp.code(), "BFP");
        assert_eq!(bfp.len(), 3);
        assert!(bfp.contains(Flows));
        assert!(!bp.contains(Flows));
        assert_eq!(TypeSet::empty().code(), "");
        assert!(TypeSet::empty().is_empty());
    }

    #[test]
    fn all_combinations_order_matches_table1() {
        let codes: Vec<String> =
            TypeSet::all_combinations().iter().map(super::TypeSet::code).collect();
        assert_eq!(codes, vec!["B", "F", "P", "BF", "BP", "FP", "BFP"]);
    }

    #[test]
    fn same_time_merges_types() {
        let events = merge_detections(&[triple(Bytes, 10, &[3]), triple(Packets, 10, &[3, 4])]);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].types.code(), "BP");
        assert_eq!(events[0].od_flows, vec![3, 4]);
        assert_eq!(events[0].start_bin, 10);
        assert_eq!(events[0].duration_bins, 1);
    }

    #[test]
    fn consecutive_bins_same_type_merge() {
        let events = merge_detections(&[
            triple(Flows, 5, &[1]),
            triple(Flows, 6, &[1, 2]),
            triple(Flows, 7, &[2]),
        ]);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].duration_bins, 3);
        assert_eq!(events[0].od_flows, vec![1, 2]);
        assert_eq!(events[0].end_bin(), 7);
        assert!(events[0].covers_bin(6));
        assert!(!events[0].covers_bin(8));
    }

    #[test]
    fn gap_splits_events() {
        let events = merge_detections(&[triple(Flows, 5, &[1]), triple(Flows, 8, &[1])]);
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn type_change_splits_events() {
        // Consecutive bins but different combined types -> separate events,
        // per the paper's "same traffic type" condition.
        let events = merge_detections(&[triple(Flows, 5, &[1]), triple(Packets, 6, &[1])]);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].types.code(), "F");
        assert_eq!(events[1].types.code(), "P");
    }

    #[test]
    fn duration_minutes_uses_bin_width() {
        let events = merge_detections(&[triple(Bytes, 0, &[0]), triple(Bytes, 1, &[0])]);
        assert_eq!(events[0].duration_minutes(300), 10.0);
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(merge_detections(&[]).is_empty());
    }

    #[test]
    fn counting_by_combination() {
        let events = merge_detections(&[
            triple(Bytes, 1, &[0]),
            triple(Flows, 10, &[0]),
            triple(Flows, 20, &[0]),
            triple(Bytes, 30, &[0]),
            triple(Packets, 30, &[0]),
        ]);
        let counts = count_by_combination(&events);
        let get = |code: &str| counts.iter().find(|(c, _)| c == code).unwrap().1;
        assert_eq!(get("B"), 1);
        assert_eq!(get("F"), 2);
        assert_eq!(get("BP"), 1);
        assert_eq!(get("BF"), 0);
        assert_eq!(get("BFP"), 0);
    }

    #[test]
    fn od_flows_deduplicated_and_sorted() {
        let events = merge_detections(&[triple(Bytes, 3, &[9, 2, 9]), triple(Packets, 3, &[2, 5])]);
        assert_eq!(events[0].od_flows, vec![2, 5, 9]);
    }
}
