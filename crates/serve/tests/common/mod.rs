//! Helpers shared by the checkpoint test suites.

use odflow_serve::CHECKPOINT_HEADER_LEN;
use std::ops::Range;

/// Byte ranges of the records of a well-formed slot file, read off the
/// length field of each record's header.
pub fn record_spans(chain: &[u8]) -> Vec<Range<usize>> {
    let mut spans = Vec::new();
    let mut at = 0;
    while at < chain.len() {
        let len = u64::from_le_bytes(chain[at + 12..at + 20].try_into().unwrap()) as usize;
        spans.push(at..at + CHECKPOINT_HEADER_LEN + len);
        at += CHECKPOINT_HEADER_LEN + len;
    }
    assert_eq!(at, chain.len(), "the last record ends where the file does");
    spans
}
