//! # odflow — network-wide traffic anomaly detection via the subspace
//! method
//!
//! A faithful, from-scratch reproduction of **Lakhina, Crovella & Diot,
//! "Characterization of Network-Wide Anomalies in Traffic Flows"**
//! (IMC 2004 / BUCS-TR-2004-020) as a production-quality Rust workspace:
//!
//! * [`net`] — the Abilene-like backbone: topology, BGP+config egress
//!   resolution, 11-bit destination anonymization.
//! * [`flow`] — the measurement substrate: 1% packet sampling, per-minute
//!   5-tuple aggregation, NetFlow-v5-style export codec, OD resolution,
//!   and 5-minute binning into the three traffic views (#bytes, #packets,
//!   #IP-flows).
//! * [`gen`] — a deterministic whole-network traffic generator with
//!   labeled injections of every anomaly class in the paper's Table 2.
//! * [`linalg`] — self-contained numerics: symmetric eigendecomposition,
//!   thin SVD, the covariance and row Gram kernels.
//! * [`subspace`] — the core contribution: eigenflows, the `k = 4`
//!   normal/anomalous split, SPE + T² detection against the Q-statistic /
//!   T² thresholds, OD-flow identification, and B/P/F event merging.
//! * [`classify`] — the Table 2 rule engine with the `p = 0.2` dominance
//!   heuristic and ground-truth scoring.
//! * [`experiment`] — the end-to-end runner used by the examples and by
//!   the bench harness that regenerates every table and figure.
//!
//! ## Quickstart
//!
//! ```no_run
//! use odflow::experiment::{run_scenario, ExperimentConfig};
//! use odflow::gen::Scenario;
//!
//! let scenario = Scenario::paper_week(42, 0).unwrap();
//! let run = run_scenario(&scenario, &ExperimentConfig::default()).unwrap();
//! println!(
//!     "{} anomaly events, {:.1}% of flows resolved",
//!     run.classified.len(),
//!     run.resolution.flow_rate() * 100.0
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A library reports through return values and metrics, never the terminal.
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod experiment;

/// Re-export of the scoped thread-pool substrate (`ODFLOW_THREADS`,
/// deterministic fork/join parallelism).
pub use odflow_par as par;

/// Re-export of the dense linear-algebra substrate.
pub use odflow_linalg as linalg;

/// Re-export of the network substrate (topology, routing, addressing).
pub use odflow_net as net;

/// Re-export of the flow measurement substrate.
pub use odflow_flow as flow;

/// Re-export of the synthetic traffic generator.
pub use odflow_gen as gen;

/// Re-export of the subspace method (the paper's core contribution).
pub use odflow_subspace as subspace;

/// Re-export of the anomaly classification engine.
pub use odflow_classify as classify;
