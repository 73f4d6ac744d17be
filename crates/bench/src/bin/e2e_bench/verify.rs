//! Output digests: what "the program's outputs are correct" means here.
//!
//! A workload's result is reduced to a [`Digest`] — a hash of every cell
//! of the three OD matrices plus the float-bit canonical encoding of the
//! diagnosis (the `loopback_e2e` suite's encoding, at benchmark scale).
//! Set-up computes the reference digest through an independent path; each
//! timed iteration must reproduce it exactly.

use odflow::flow::TrafficMatrixSet;
use odflow::subspace::{Diagnosis, StatisticKind};

/// Incremental FNV-1a (64-bit): digests are compared only with each
/// other, so any fixed hash serves; this one needs no buffer.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64s(&mut self, values: &[f64]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Hashes of one run's complete output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub bytes: u64,
    pub packets: u64,
    pub flows: u64,
    pub verdicts: u64,
}

impl Digest {
    pub fn of(matrices: &TrafficMatrixSet, diagnosis: &Diagnosis) -> Digest {
        Digest {
            bytes: hash_f64s(matrices.bytes.data.as_slice()),
            packets: hash_f64s(matrices.packets.data.as_slice()),
            flows: hash_f64s(matrices.flows.data.as_slice()),
            verdicts: hash_bytes(&canonical_verdict_bytes(diagnosis)),
        }
    }

    /// Names the parts of `self` that differ from `reference`.
    pub fn diff(&self, reference: &Digest) -> Vec<&'static str> {
        let mut out = Vec::new();
        for (name, a, b) in [
            ("bytes matrix", self.bytes, reference.bytes),
            ("packets matrix", self.packets, reference.packets),
            ("flows matrix", self.flows, reference.flows),
            ("verdicts", self.verdicts, reference.verdicts),
        ] {
            if a != b {
                out.push(name);
            }
        }
        out
    }
}

fn hash_f64s(values: &[f64]) -> u64 {
    let mut h = Fnv::new();
    h.f64s(values);
    h.finish()
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.finish()
}

/// Canonical byte encoding of a diagnosis: every float as exact bits,
/// every discrete field in a fixed order.
pub fn canonical_verdict_bytes(d: &Diagnosis) -> Vec<u8> {
    let mut out = Vec::new();
    for (t, a) in &d.analyses {
        out.extend_from_slice(format!("{t:?};").as_bytes());
        for series in [&a.state_norm_sq, &a.spe, &a.t2] {
            for &v in series {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        for det in &a.detections {
            out.extend_from_slice(&det.bin.to_le_bytes());
            out.push(match det.kind {
                StatisticKind::Spe => 0,
                StatisticKind::T2 => 1,
            });
            out.extend_from_slice(&det.value.to_bits().to_le_bytes());
            out.extend_from_slice(&det.threshold.to_bits().to_le_bytes());
        }
    }
    out.extend_from_slice(format!("{:?}{:?}", d.triples, d.events).as_bytes());
    out
}

/// One `kB` field of `/proc/self/status`, in MB (`0.0` without procfs).
fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// This process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

/// This process's current resident set (`VmRSS`), in MB.
pub fn current_rss_mb() -> f64 {
    proc_status_mb("VmRSS:")
}
