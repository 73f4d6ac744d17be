//! # odflow-gen — whole-network synthetic traffic with labeled anomalies
//!
//! Stands in for the paper's four weeks of Abilene NetFlow (which is not
//! publicly available): a deterministic generator of *sampled* flow records
//! over the Abilene topology, with
//!
//! * [`DiurnalModel`] — shared day/night and weekday cycles, phase-shifted
//!   by PoP timezone, giving the OD ensemble the low-effective-rank
//!   structure the subspace method exploits;
//! * [`GravityModel`] — heterogeneous OD magnitudes (heavy coastal pairs,
//!   long tail);
//! * [`BaselineParams`] / flow synthesis — heavy-tailed flows, a realistic
//!   port mix, and a configurable unresolvable-destination fraction
//!   reproducing the paper's ≈93% OD resolution rate;
//! * [`InjectedAnomaly`] — one injector per row of the paper's Table 2
//!   (ALPHA, DOS, DDOS, FLASH-CROWD, SCAN, WORM, POINT-MULTIPOINT, OUTAGE,
//!   INGRESS-SHIFT), each reproducing the class's flow-level signature,
//!   with ground-truth labels for validation the paper could only do by
//!   hand;
//! * [`Scenario`] / [`TraceGenerator`] — bin-addressable rendering: any
//!   timebin's raw flows can be regenerated on demand, so classification
//!   never needs a multi-week flow archive;
//! * [`FaultSchedule`] — a seeded, timed fault-injection engine that
//!   mutates NetFlow wire frames (corruption, truncation, duplication,
//!   reordering, export loss, exporter outages, sampling drift, counter
//!   overflow, clock skew) for end-to-end graceful-degradation tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anomaly;
mod diurnal;
mod error;
mod faults;
mod flows;
mod gravity;
mod rng;
mod scenario;

pub use anomaly::{AnomalyKind, InjectedAnomaly, ScanMode};
pub use diurnal::{DiurnalModel, ABILENE_TZ_OFFSET_HOURS, DAY_SECS, WEEK_SECS};
pub use error::{GenError, Result};
pub use faults::{FaultEvent, FaultKind, FaultSchedule, FaultStormStats};
pub use flows::{draw_dst_port, draw_packet_bytes, BaselineParams};
pub use gravity::GravityModel;
pub use rng::{cell_rng, lognormal_noise, poisson, Stream};
pub use scenario::{Scenario, ScenarioConfig, TraceGenerator, BINS_PER_WEEK, LARGE_MESH_POPS};
