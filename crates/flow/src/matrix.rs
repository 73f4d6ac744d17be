//! Origin-destination traffic matrices.
//!
//! The subspace method's input is "the n x p OD flow traffic multivariate
//! timeseries where p = 121 is the number of OD pairs and n is the number of
//! 5-minute bins in the time period being studied" (§2.1), one matrix per
//! traffic type: **# bytes, # packets, # IP-flows**. [`TrafficMatrix`] wraps
//! the numeric matrix with its timing metadata; [`TrafficMatrixSet`] holds
//! the three aligned views.

use crate::error::{FlowError, Result};
use odflow_linalg::Matrix;

/// The paper's 5-minute analysis bin.
pub const BIN_SECS: u64 = 300;

/// Which measure of traffic a matrix carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrafficType {
    /// Number of bytes (B).
    Bytes,
    /// Number of packets (P).
    Packets,
    /// Number of distinct IP flows (F).
    Flows,
}

impl TrafficType {
    /// All three types in the paper's B, P, F order.
    pub const ALL: [TrafficType; 3] =
        [TrafficType::Bytes, TrafficType::Packets, TrafficType::Flows];

    /// One-letter code used in the paper's tables (B, P, F).
    pub fn code(self) -> char {
        match self {
            TrafficType::Bytes => 'B',
            TrafficType::Packets => 'P',
            TrafficType::Flows => 'F',
        }
    }
}

impl std::fmt::Display for TrafficType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            TrafficType::Bytes => "bytes",
            TrafficType::Packets => "packets",
            TrafficType::Flows => "flows",
        };
        write!(f, "{name}")
    }
}

/// An `n x p` OD traffic timeseries with timing metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficMatrix {
    /// Which measure this matrix carries.
    pub traffic_type: TrafficType,
    /// Trace-epoch timestamp of the first bin (seconds).
    pub start_secs: u64,
    /// Bin width in seconds (the paper uses 300).
    pub bin_secs: u64,
    /// `n x p` data: rows = timebins, columns = OD pairs.
    pub data: Matrix,
}

impl TrafficMatrix {
    /// Number of timebins (rows).
    pub fn num_bins(&self) -> usize {
        self.data.nrows()
    }

    /// Number of OD pairs (columns).
    pub fn num_od_pairs(&self) -> usize {
        self.data.ncols()
    }

    /// Trace-epoch timestamp of bin `i`'s start.
    pub fn bin_start(&self, i: usize) -> u64 {
        self.start_secs + i as u64 * self.bin_secs
    }

    /// The timebin index covering timestamp `ts`, if within range.
    pub fn bin_for(&self, ts: u64) -> Option<usize> {
        if ts < self.start_secs {
            return None;
        }
        let i = ((ts - self.start_secs) / self.bin_secs) as usize;
        (i < self.num_bins()).then_some(i)
    }

    /// Total traffic across all OD pairs per timebin (`sum over columns`).
    pub fn totals(&self) -> Vec<f64> {
        self.data.rows_iter().map(|r| r.iter().sum()).collect()
    }
}

/// The three aligned traffic views of the same observation window.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficMatrixSet {
    /// #bytes view.
    pub bytes: TrafficMatrix,
    /// #packets view.
    pub packets: TrafficMatrix,
    /// #IP-flows view.
    pub flows: TrafficMatrix,
}

impl TrafficMatrixSet {
    /// Selects one view by traffic type.
    pub fn get(&self, t: TrafficType) -> &TrafficMatrix {
        match t {
            TrafficType::Bytes => &self.bytes,
            TrafficType::Packets => &self.packets,
            TrafficType::Flows => &self.flows,
        }
    }

    /// Number of timebins (identical across views).
    pub fn num_bins(&self) -> usize {
        self.bytes.num_bins()
    }

    /// Number of OD pairs (identical across views).
    pub fn num_od_pairs(&self) -> usize {
        self.bytes.num_od_pairs()
    }

    /// Validates that the three views are aligned (same shape and timing).
    pub fn validate(&self) -> Result<()> {
        let b = &self.bytes;
        for m in [&self.packets, &self.flows] {
            if m.data.shape() != b.data.shape()
                || m.start_secs != b.start_secs
                || m.bin_secs != b.bin_secs
            {
                return Err(FlowError::Codec {
                    reason: "traffic matrix views are misaligned".to_string(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tm(t: TrafficType, n: usize, p: usize) -> TrafficMatrix {
        TrafficMatrix {
            traffic_type: t,
            start_secs: 1000,
            bin_secs: BIN_SECS,
            data: Matrix::from_fn(n, p, |i, j| (i * p + j) as f64),
        }
    }

    #[test]
    fn bin_arithmetic() {
        let m = tm(TrafficType::Bytes, 10, 4);
        assert_eq!(m.num_bins(), 10);
        assert_eq!(m.num_od_pairs(), 4);
        assert_eq!(m.bin_start(0), 1000);
        assert_eq!(m.bin_start(3), 1000 + 900);
        assert_eq!(m.bin_for(1000), Some(0));
        assert_eq!(m.bin_for(1299), Some(0));
        assert_eq!(m.bin_for(1300), Some(1));
        assert_eq!(m.bin_for(999), None);
        assert_eq!(m.bin_for(1000 + 10 * 300), None);
    }

    #[test]
    fn totals_sum_rows() {
        let m = tm(TrafficType::Flows, 2, 3);
        assert_eq!(m.totals(), vec![3.0, 12.0]);
    }

    #[test]
    fn set_accessors_and_validation() {
        let set = TrafficMatrixSet {
            bytes: tm(TrafficType::Bytes, 4, 2),
            packets: tm(TrafficType::Packets, 4, 2),
            flows: tm(TrafficType::Flows, 4, 2),
        };
        assert!(set.validate().is_ok());
        assert_eq!(set.get(TrafficType::Packets).traffic_type, TrafficType::Packets);
        assert_eq!(set.num_bins(), 4);
        assert_eq!(set.num_od_pairs(), 2);

        let misaligned = TrafficMatrixSet {
            bytes: tm(TrafficType::Bytes, 4, 2),
            packets: tm(TrafficType::Packets, 5, 2),
            flows: tm(TrafficType::Flows, 4, 2),
        };
        assert!(misaligned.validate().is_err());
    }

    #[test]
    fn type_codes() {
        assert_eq!(TrafficType::Bytes.code(), 'B');
        assert_eq!(TrafficType::Packets.code(), 'P');
        assert_eq!(TrafficType::Flows.code(), 'F');
        assert_eq!(TrafficType::ALL.len(), 3);
        assert_eq!(TrafficType::Bytes.to_string(), "bytes");
    }
}
