//! # odflow-flow — the flow measurement substrate
//!
//! Reproduces the data-collection path of Lakhina, Crovella & Diot
//! (IMC 2004, §2.1) from per-packet router observations to the `n x p`
//! OD-flow traffic matrices the subspace method consumes:
//!
//! 1. [`PacketSampler`] — 1% Bernoulli packet sampling at every router.
//! 2. [`FlowAggregator`] — per-minute 5-tuple aggregation (Juniper Traffic
//!    Sampling semantics).
//! 3. [`netflow`] — a NetFlow-v5-shaped export codec, decoding records in
//!    place from the received bytes, for end-to-end exercising of the
//!    export path.
//! 4. [`OdResolver`] — ingress attribution from router configs and egress
//!    resolution by longest-prefix match over BGP+config tables, after
//!    Abilene's 11-bit destination anonymization.
//! 5. [`BinShard`] — 5-minute binning into the three traffic views:
//!    **#bytes, #packets, #IP-flows** ([`TrafficMatrixSet`]).
//!
//! Ingest starts after step 2: the scenario generator draws sampled
//! minute-records directly and the daemon decodes NetFlow exports, so
//! steps 1 and 2 are the §2.1 path for callers that start from packets.
//! Steps 4 and 5 are one call: a [`BinShard`] owns the cells of a
//! contiguous bin range, and [`BinShard::push_sampled_record`] — the only
//! code that adds a record to a cell — anonymizes, resolves and bins it.
//! [`ShardedIngest`] validates the window once, fills one shard per bin
//! range across threads, each writing its own rows of the window's
//! matrices in place (bit-identical for any thread count), and is the one
//! place cells become a [`TrafficMatrixSet`]; [`MeasurementPipeline`]
//! drives a single full-window shard. Wire-format input enters through
//! one admission step, [`DataQuality::admit_frame`] (lossy decode into
//! the quarantine counters, then exporter sequence tracking), and one
//! lateness rule, [`Watermark::judge_frame`] (records of a sealed bin
//! refused and counted), whatever the driver.
//! [`AttributeDigest`] summarizes the raw flows behind a detection for the
//! classification stage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod binning;
mod digest;
mod error;
mod key;
mod lateness;
mod matrix;
pub mod netflow;
mod od;
mod packet;
mod pipeline;
mod quality;
mod record;
mod sampler;
mod shard;

pub use aggregate::{FlowAggregator, MINUTE_SECS};
pub use binning::{BinState, DistinctFlows};
pub use digest::{AttributeDigest, Counts};
pub use error::{FlowError, Result};
pub use key::{FlowKey, Protocol};
pub use lateness::{Watermark, WatermarkState, LATENESS_HORIZON_BINS};
pub use matrix::{TrafficMatrix, TrafficMatrixSet, TrafficType, BIN_SECS};
pub use od::{OdResolution, OdResolver, ResolutionStats};
pub use packet::PacketObs;
pub use pipeline::{MeasurementPipeline, PipelineConfig};
pub use quality::{
    BinStatus, DataQuality, ExporterSeq, ExporterSeqState, ExporterSeqStats, QuarantineClass,
    QuarantineStats, RepairPolicy,
};
pub use record::FlowRecord;
pub use sampler::{sample_packet_count, PacketSampler, ABILENE_SAMPLING_RATE};
pub use shard::{BinShard, IngestOutcome, ShardState, ShardedIngest, DEFAULT_SHARD_BINS};
