//! # odflow-flow — the flow measurement substrate
//!
//! Reproduces the data path of Lakhina, Crovella & Diot (IMC 2004, §2.1)
//! from the routers' sampled flow records to the `n x p` OD-flow traffic
//! matrices the subspace method consumes:
//!
//! 1. [`FlowRecord`] — one per-minute 5-tuple record of 1%-sampled packets,
//!    as Abilene's routers exported them: the pipeline's input.
//! 2. [`netflow`] — a NetFlow-v5-shaped export codec, decoding records in
//!    place from the received bytes.
//! 3. [`OdResolver`] — ingress attribution from router configs and egress
//!    resolution by longest-prefix match over BGP+config tables, after
//!    Abilene's 11-bit destination anonymization.
//! 4. [`BinShard`] — 5-minute binning into the three traffic views:
//!    **#bytes, #packets, #IP-flows** ([`TrafficMatrixSet`]).
//!
//! The scenario generator synthesizes the sampled records directly and
//! the daemon decodes them from NetFlow exports; no stage sees a packet.
//! Steps 3 and 4 are one call: a [`BinShard`] owns the cells of a
//! contiguous bin range, and [`BinShard::push_sampled_record`] — the only
//! code that adds a record to a cell — anonymizes, resolves and bins it.
//! [`ShardedIngest`] validates the window once and is the one place cells
//! become a [`TrafficMatrixSet`]. Records reach cells by two routes: the
//! fused render fills one shard per bin range across threads, in place
//! (bit-identical for any thread count), and [`MeasurementPipeline`]
//! drives one full-window shard: the daemon's and the batch datagram
//! ingest's frames through lossy admission, then frames and pushed records
//! alike through [`MeasurementPipeline::bin_frame`] — the [`Watermark`]'s
//! lateness rule, binning and sealing. A shard's snapshot, [`ShardState`],
//! is its window as [`BinState`]s, one per bin, plus its counters: the
//! unit a checkpoint persists is the bin, whole or one at a time.
//! [`AttributeDigest`] summarizes the raw flows behind a detection for the
//! classification stage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A library reports through return values and metrics, never the terminal.
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
// Hostile wire input is quarantined and accounted, never a reason to abort.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

mod binning;
mod digest;
mod error;
mod key;
mod lateness;
mod matrix;
pub mod netflow;
mod od;
mod pipeline;
mod quality;
mod record;
mod shard;

pub use binning::{BinState, DistinctFlows};
pub use digest::{AttributeDigest, Counts};
pub use error::{FlowError, Result};
pub use key::{FlowKey, Protocol};
pub use lateness::{Watermark, WatermarkState, LATENESS_HORIZON_BINS};
pub use matrix::{TrafficMatrix, TrafficMatrixSet, TrafficType, BIN_SECS};
pub use netflow::ABILENE_SAMPLING_RATE;
pub use od::{OdResolution, OdResolver, ResolutionStats};
pub use pipeline::{FrameTally, MeasurementPipeline, PipelineConfig};
pub use quality::{
    BinStatus, DataQuality, ExporterSeq, ExporterSeqStats, QuarantineClass, QuarantineStats,
    RepairPolicy,
};
pub use record::{FlowRecord, MINUTE_SECS};
pub use shard::{BinShard, IngestOutcome, ShardState, ShardedIngest, DEFAULT_SHARD_BINS};
