//! Error types for the flow measurement pipeline.

use std::fmt;

/// Errors produced by `odflow-flow` operations.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// A bin width or aggregation window was zero.
    InvalidBinWidth {
        /// The rejected width in seconds.
        width_secs: u64,
    },
    /// A record timestamp fell outside the configured observation window.
    TimestampOutOfRange {
        /// The offending timestamp (seconds).
        ts: u64,
        /// Window start (seconds).
        start: u64,
        /// Window end (seconds, exclusive).
        end: u64,
    },
    /// A NetFlow datagram failed to parse.
    Codec {
        /// Human-readable reason.
        reason: String,
    },
    /// The pipeline was finalized twice or used after finalization.
    AlreadyFinalized,
    /// No data was collected before finalization.
    NoData,
    /// A sharded merge received shards that do not tile the window: the
    /// next shard starts at `got_bin` where `expected_bin` was required.
    ShardGap {
        /// First bin the merge still needed.
        expected_bin: usize,
        /// First bin of the offending (or missing) shard.
        got_bin: usize,
    },
    /// A record source's window does not align with the ingest engine's
    /// (start or bin width mismatch), so bin-range shard routing would
    /// misroute records.
    WindowMisaligned {
        /// Human-readable description of the mismatch.
        reason: String,
    },
    /// An observation window too large to address: its end timestamp,
    /// its cell count or the bytes of its storage overflow.
    WindowOverflow {
        /// Human-readable description of what overflows.
        reason: String,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::InvalidBinWidth { width_secs } => {
                write!(f, "bin width must be positive, got {width_secs}s")
            }
            FlowError::TimestampOutOfRange { ts, start, end } => {
                write!(f, "timestamp {ts} outside observation window [{start}, {end})")
            }
            FlowError::Codec { reason } => write!(f, "netflow codec error: {reason}"),
            FlowError::AlreadyFinalized => write!(f, "measurement pipeline already finalized"),
            FlowError::NoData => write!(f, "no flow data collected"),
            FlowError::ShardGap { expected_bin, got_bin } => {
                write!(
                    f,
                    "shards do not tile the window: expected bin {expected_bin}, got {got_bin}"
                )
            }
            FlowError::WindowMisaligned { reason } => {
                write!(f, "ingest window misaligned with record source: {reason}")
            }
            FlowError::WindowOverflow { reason } => write!(f, "ingest window overflows: {reason}"),
        }
    }
}

impl std::error::Error for FlowError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, FlowError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(FlowError::InvalidBinWidth { width_secs: 0 }.to_string().contains("positive"));
        assert!(FlowError::TimestampOutOfRange { ts: 5, start: 10, end: 20 }
            .to_string()
            .contains("outside"));
        assert!(FlowError::Codec { reason: "short".into() }.to_string().contains("short"));
        assert!(FlowError::AlreadyFinalized.to_string().contains("finalized"));
        assert!(FlowError::NoData.to_string().contains("no flow data"));
        assert!(FlowError::ShardGap { expected_bin: 4, got_bin: 8 }.to_string().contains("tile"));
        assert!(FlowError::WindowMisaligned { reason: "bin width 60 vs 300".into() }
            .to_string()
            .contains("misaligned"));
        assert!(FlowError::WindowOverflow { reason: "2^61 bins".into() }
            .to_string()
            .contains("overflows"));
    }
}
