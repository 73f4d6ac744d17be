//! # odflow-stats — statistical substrate for the subspace method
//!
//! Distributions and thresholds backing the detection statistics of
//! Lakhina, Crovella & Diot, *Characterization of Network-Wide Anomalies in
//! Traffic Flows* (IMC 2004):
//!
//! * [`q_threshold`] — the Jackson–Mudholkar Q-statistic (squared prediction
//!   error) threshold `δ²_α` used on the residual traffic vector.
//! * [`t2_threshold`] — the `T²_{k,n,α} = k(n-1)/(n-k) F_{k,n-k,α}` threshold
//!   used on the normal-subspace scores.
//! * [`dist`] — Normal, chi-squared, F, and Student-t with `pdf`/`cdf`/
//!   `quantile`, built on from-scratch special functions ([`special`]).
//! * [`Histogram`] / [`summarize`] — reporting helpers for the paper's
//!   Figure 2 histograms.
//!
//! Everything is implemented from first principles (Lanczos log-gamma,
//! series/continued-fraction incomplete gamma & beta) and validated against
//! published table values in the unit tests, so the workspace needs no
//! external statistics dependency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod describe;
pub mod dist;
mod error;
mod histogram;
mod qstat;
pub mod special;
mod tsq;

pub use describe::{quantile, summarize, Summary};
pub use error::{Result, StatsError};
pub use histogram::Histogram;
pub use qstat::{q_threshold, qstat_params, QStatParams};
pub use tsq::{t2_scores, t2_threshold};
