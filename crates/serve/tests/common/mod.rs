//! Helpers shared by the serve test suites. Each suite compiles its own
//! copy of this module and uses part of it.

#![allow(dead_code)]

use odflow_serve::{Daemon, DaemonHandle, DaemonReport, CHECKPOINT_HEADER_LEN};
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

/// Drains the daemon when dropped during a panic. The scope joins the
/// daemon's run, which ends only on a drain, so a probe that fails an
/// assertion would otherwise hang its test instead of failing it.
struct DrainOnUnwind<'a>(&'a DaemonHandle);

impl Drop for DrainOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.drain();
        }
    }
}

/// Runs the bound `daemon` on a pool worker while `probe` drives it
/// through the daemon's handle; returns the daemon's report and what the
/// probe returned. The probe ends the run itself — a drain control
/// message on the wire, or [`DaemonHandle::drain`] — and a probe that
/// panics drains it on the way out, so the test fails within seconds.
pub fn with_daemon<R>(daemon: Daemon, probe: impl FnOnce(&DaemonHandle) -> R) -> (DaemonReport, R) {
    let handle = daemon.handle();
    let mut report = None;
    let pool = scoped_pool::Pool::new(1);
    let out = pool.scoped(|scope| {
        let slot = &mut report;
        scope.execute(move || *slot = Some(daemon.run()));
        let _drain = DrainOnUnwind(&handle);
        probe(&handle)
    });
    pool.shutdown();
    (report.expect("the daemon's run ended with the scope"), out)
}
