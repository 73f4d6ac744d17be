//! # odflow-subspace — the subspace method for network-wide anomaly
//! detection
//!
//! The core contribution of Lakhina, Crovella & Diot, *Characterization of
//! Network-Wide Anomalies in Traffic Flows* (IMC 2004), implemented as a
//! library:
//!
//! * [`EigenflowDecomposition`] — PCA of the `n x p` OD traffic timeseries
//!   into **eigenflows** (common temporal patterns, variance-ordered).
//! * [`SubspaceModel`] — the normal/anomalous subspace split at `k = 4`,
//!   with the exact decomposition `x = x̂ + x̃` and both detection
//!   statistics: SPE (`||x̃||²` vs the Jackson–Mudholkar `δ²_α`) and t²
//!   (normal-subspace scores vs `T²_{k,n,α}`).
//! * [`q_threshold`] / [`t2_threshold`] — those two thresholds, computed
//!   from first-principles normal and F quantiles.
//! * [`analyze`] — fit + score + flag over a window (the material of the
//!   paper's Figure 1).
//! * [`identify`] — the §4 procedure finding the smallest OD-flow set
//!   that brings a statistic back under threshold, read off the model's
//!   loadings at any `p`.
//! * [`merge_detections`] — §4's aggregation of (type, time, OD flow)
//!   triples into B/P/F/BP/FP/BF/BFP anomaly events (Tables 1 & 3,
//!   Figure 2).
//! * [`diagnose_with_quality`] — the whole pipeline across the three
//!   traffic views.
//! * [`OnlineDetector`] — the streaming extension the paper's §6 points
//!   toward.
//!
//! Data quality is an argument of each of these, not a second entry
//! point or a wrapper type. [`analyze_with_quality`],
//! [`diagnose_with_quality`] and [`OnlineDetector::push_with_status`] take
//! the ingest path's [`odflow_flow::DataQuality`] /
//! [`odflow_flow::BinStatus`]: masked bins are never scored, imputed bins
//! are marked, and heavily imputed windows widen the Jackson–Mudholkar
//! band instead of alarming on repairs. Each bin's verdict is one
//! `Option<`[`DegradedReason`]`>` on every path — `None` when it was
//! scored at full confidence — in [`Analysis::verdicts`],
//! [`Diagnosis::verdicts`] and [`StreamVerdict::degraded`] alike.
//! [`analyze`], [`diagnose`] and `push` are the same calls under a
//! pristine report, and one crate-private kernel on [`SubspaceModel`] is
//! the only place a statistic is compared with a threshold.
//!
//! ## Quick example
//!
//! ```
//! use odflow_linalg::Matrix;
//! use odflow_subspace::{analyze, SubspaceConfig};
//!
//! // 300 bins of 6 OD flows sharing a diurnal trend, with a spike.
//! let mut x = Matrix::from_fn(300, 6, |i, j| {
//!     (10.0 + j as f64) * (2.0 + (i as f64 / 288.0 * std::f64::consts::TAU).sin())
//! });
//! x[(123, 2)] += 500.0;
//! let analysis = analyze(&x, SubspaceConfig::default()).unwrap();
//! assert!(analysis.anomalous_bins().contains(&123));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A library reports through return values and metrics, never the terminal.
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod detector;
mod diagnose;
mod dist;
mod eigenflow;
mod error;
mod events;
mod identify;
mod model;
mod qstat;
mod special;
mod streaming;
#[cfg(test)]
pub(crate) mod testutil;
mod tsq;

pub use detector::{
    analyze, analyze_with_quality, Analysis, DegradedReason, Detection, StatisticKind,
    IMPUTED_FRACTION_BOUND, WIDEN_ALPHA_FACTOR,
};
pub use diagnose::{diagnose, diagnose_with_quality, Diagnosis};
pub use eigenflow::EigenflowDecomposition;
pub use error::{Result, SubspaceError};
pub use events::{count_by_combination, merge_detections, AnomalyEvent, DetectionTriple, TypeSet};
pub use identify::{identify, Identification};
pub use model::{ModelState, StateSplit, SubspaceConfig, SubspaceModel};
pub use qstat::q_threshold;
pub use streaming::{DetectorState, OnlineDetector, StreamVerdict};
pub use tsq::t2_threshold;
