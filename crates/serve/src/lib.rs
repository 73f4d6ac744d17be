//! # odflow-serve — the detector-as-a-service daemon
//!
//! The paper frames the subspace method as an *operational* tool: a
//! network operations center watching OD-flow traffic arrive
//! continuously, not a batch experiment. This crate is that serving
//! layer: a long-running process that accepts NetFlow v5 export frames
//! over UDP datagrams and length-prefixed TCP streams (hand-rolled on
//! `std::net` — the workspace is offline, no async runtime), routes each
//! frame to a per-tenant pipeline over a bounded queue, and drives the
//! existing ingest machinery —
//! [`DataQuality::admit_frame`](odflow_flow::DataQuality::admit_frame) →
//! [`Watermark`](odflow_flow::Watermark) →
//! [`BinShard`](odflow_flow::BinShard) →
//! [`OnlineDetector`](odflow_subspace::OnlineDetector) — as bins close.
//!
//! Design invariants, in order of importance:
//!
//! 1. **Never panic on wire input.** Every byte that arrives off a
//!    socket flows into the quarantine/`DataQuality` accounting of
//!    `odflow_flow`; the `no-panic-in-ingest` lint rule covers this
//!    crate's sources.
//! 2. **Never grow without bound.** Every inter-stage queue is a
//!    [`BoundedQueue`]; overload drops frames *and counts them* per
//!    tenant instead of buffering to death. A tenant keeps the distinct
//!    5-tuples of the bins the lateness rule still lets change, not the
//!    window's.
//! 3. **Deterministic end state.** Per tenant, frames are decoded
//!    serially in arrival order and records fill a single full-window
//!    shard, so the drained daemon's matrices and diagnosis are
//!    byte-identical to the batch `run_scenario` path for the same frame
//!    stream — for any `ODFLOW_THREADS`.
//! 4. **Observable.** A hand-rolled HTTP/1.0 `GET /metrics` endpoint
//!    exposes ingest rates, quarantine counters, queue depths/drops, bin
//!    lag, per-stage timings, and SPE/T² alarm counts as plain text.
//! 5. **Crash-safe.** With a checkpoint directory configured, every bin
//!    close makes one generation durable — a checksummed record of what
//!    changed, appended to a two-slot chain ([`checkpoint`]);
//!    [`Daemon::recover`] resumes from the newest valid generation
//!    bit-identically, workers panic-restart under supervision, and
//!    persistently panicking tenants are quarantined without touching
//!    their neighbours.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod daemon;
pub mod loadgen;
pub mod metrics;
pub mod queue;
pub mod tenant;
pub mod wire;

pub use checkpoint::{
    decode_state, encode_state, CheckpointError, CheckpointStore, CrashKind, CrashPayload,
    CrashPoint, CrashSchedule, LoadOutcome, PipelineState, CHECKPOINT_HEADER_LEN, CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
};
pub use daemon::{
    Daemon, DaemonHandle, DaemonReport, ServeConfig, TenantEnd, TenantRecovery, TenantSpec,
};
pub use loadgen::{replay_frames, replay_scenario, LoadGenConfig, LoadReport, Transport};
pub use metrics::{LatencyHistogram, ServeMetrics, TenantCounters};
pub use queue::{Admitted, BoundedQueue, FrameBatch, Pop};
pub use tenant::{TenantConfig, TenantFlush, TenantPipeline};
pub use wire::{MessageReader, CONTROL_DRAIN, CONTROL_TENANT, MAX_MESSAGE_LEN};

use std::fmt;

/// Everything that can go wrong while configuring or flushing the
/// daemon. Socket-level errors on the hot path never surface here — they
/// are counted in metrics and the daemon keeps serving.
#[derive(Debug)]
pub enum ServeError {
    /// Socket setup/teardown failure (bind, local_addr, connect).
    Io(std::io::Error),
    /// Ingest-layer failure surfaced at flush (merge, window setup).
    Flow(odflow_flow::FlowError),
    /// Invalid daemon or tenant configuration.
    Config(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "socket error: {e}"),
            ServeError::Flow(e) => write!(f, "ingest error: {e}"),
            ServeError::Config(reason) => write!(f, "configuration error: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<odflow_flow::FlowError> for ServeError {
    fn from(e: odflow_flow::FlowError) -> Self {
        ServeError::Flow(e)
    }
}
