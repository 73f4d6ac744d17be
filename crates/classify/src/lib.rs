//! # odflow-classify — the paper's semi-automated anomaly characterization
//!
//! §4 of Lakhina, Crovella & Diot (IMC 2004) as a library:
//!
//! * [`DominantAttributes`] — the dominant-attribute heuristic (an address
//!   range or port is *dominant* when it carries more than `p = 0.2` of
//!   the cell's traffic in some measure).
//! * [`classify`] — the Table 2 rule engine assigning
//!   ALPHA / DOS / DDOS / FLASH-CROWD / SCAN / WORM / POINT-MULTIPOINT /
//!   OUTAGE / INGRESS-SHIFT / UNKNOWN / FALSE-ALARM, with the Jung et al.
//!   flash-vs-DOS disambiguation.
//! * [`score_events`] — precision/recall/confusion scoring against the
//!   generator's ground truth, quantifying what the paper verified by
//!   hand against NOC reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A library reports through return values and metrics, never the terminal.
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod dominance;
mod error;
mod report;
mod rules;
mod taxonomy;

pub use dominance::{
    is_well_known_service, DominanceConfig, DominantAttributes, WELL_KNOWN_SERVICE_PORTS,
};
pub use error::{ClassifyError, Result};
pub use report::{score_events, score_events_with_mask, MatchReport, ScoredEvent, TruthLabel};
pub use rules::{classify, AnomalyObservation, Classification, RuleConfig};
pub use taxonomy::AnomalyClass;
