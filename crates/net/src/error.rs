//! Error types for the network substrate.

use std::fmt;

/// Errors produced by `odflow-net` operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A PoP identifier was out of range for the topology.
    UnknownPop {
        /// The offending PoP index.
        pop: usize,
        /// Number of PoPs in the topology.
        count: usize,
    },
    /// A prefix string failed to parse.
    InvalidPrefix {
        /// The rejected text.
        text: String,
    },
    /// A prefix length was greater than 32.
    InvalidPrefixLen {
        /// The rejected length.
        len: u8,
    },
    /// A topology was structurally invalid (duplicate link, self-loop, ...).
    InvalidTopology {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownPop { pop, count } => {
                write!(f, "unknown PoP index {pop} (topology has {count} PoPs)")
            }
            NetError::InvalidPrefix { text } => write!(f, "invalid prefix: {text:?}"),
            NetError::InvalidPrefixLen { len } => write!(f, "invalid prefix length {len} (max 32)"),
            NetError::InvalidTopology { reason } => write!(f, "invalid topology: {reason}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NetError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(NetError::UnknownPop { pop: 12, count: 11 }.to_string().contains("12"));
        assert!(NetError::InvalidPrefix { text: "x/y".into() }.to_string().contains("x/y"));
        assert!(NetError::InvalidPrefixLen { len: 40 }.to_string().contains("40"));
        assert!(NetError::InvalidTopology { reason: "self-loop".into() }
            .to_string()
            .contains("self-loop"));
    }
}
