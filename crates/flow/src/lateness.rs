//! The lateness rule: when a bin stops taking records.
//!
//! The paper aggregates flows into 5-minute bins "to avoid synchronization
//! issues that could have arisen in the data collection procedure" (§2.1),
//! so a bin is a unit that closes. A frame path closes bins by a
//! [`Watermark`] over the export times in the frames' headers, and one rule
//! says how long a closed bin still takes late records:
//!
//! * bin `b` is **closed** once the watermark reaches its end — a streaming
//!   consumer scores the bin's row then;
//! * bin `b` is **sealed** once the watermark reaches the end of bin
//!   `b + LATENESS_HORIZON_BINS`. A record for a sealed bin is refused and
//!   counted as late, so a sealed bin's row is final and its distinct-flow
//!   table can be freed.
//!
//! Every admitted frame goes through [`Watermark::judge_frame`]: its
//! records first, each against the watermark as it stood before the frame,
//! then the frame's export time. The daemon's tenants and the batch
//! datagram ingest both make that call, frame by frame in stream order,
//! which is why they refuse exactly the same records.
//!
//! A header is trusted no further than the data behind it: a frame raises
//! the watermark at most to the end of the bin after the latest in-window
//! record judged so far. One frame stamped far in the future therefore
//! closes at most one bin ahead of the traffic, where an uncapped
//! watermark would close — and seal — the rest of the window.

/// Bins a closed bin keeps taking late records: bin `b` is sealed once the
/// watermark passes the end of bin `b + LATENESS_HORIZON_BINS`.
///
/// Eight 5-minute bins, 40 minutes. A v5 exporter holds a long-lived flow
/// until its active timeout — 30 minutes, six bins, is the common
/// default — and then exports a record whose start lies up to that far
/// behind the export time; two bins more absorb collector and transport
/// delay and the clock offset between exporters (the watermark follows the
/// most advanced of them). A tenant keeps the distinct 5-tuples of the
/// `LATENESS_HORIZON_BINS + 1` bins that can still change — about 1.5 MB
/// at the serve benchmark's load, where the whole 504-bin window's tables
/// came to about 50 MB.
pub const LATENESS_HORIZON_BINS: usize = 8;

/// Where a [`Watermark`] stands: everything a checkpoint must carry to
/// resume one exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WatermarkState {
    /// The watermark in trace-epoch seconds: the highest export time
    /// admitted, each capped as the module docs describe.
    pub secs: u64,
    /// Start time of the latest in-window record judged on time, `None`
    /// before the first — what caps the next export time.
    pub latest_record_secs: Option<u64>,
}

/// The export-time watermark of one observation window and the lateness
/// rule it drives (see the module docs). Minted by
/// [`ShardedIngest::watermark`](crate::ShardedIngest::watermark).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermark {
    start_secs: u64,
    /// Nonzero: the engine that mints a watermark refuses zero-width bins.
    bin_secs: u64,
    num_bins: usize,
    state: WatermarkState,
}

impl Watermark {
    pub(crate) fn new(
        start_secs: u64,
        bin_secs: u64,
        num_bins: usize,
        state: WatermarkState,
    ) -> Watermark {
        Watermark { start_secs, bin_secs, num_bins, state }
    }

    /// Where the watermark stands — what a checkpoint persists.
    pub fn state(&self) -> WatermarkState {
        self.state
    }

    /// Bins of the window whose end the watermark has reached: bins
    /// `0..closed_bins()` are closed.
    pub fn closed_bins(&self) -> usize {
        self.bins_passed().min(self.num_bins)
    }

    /// Bins of the window the watermark has sealed: bins
    /// `0..sealed_bins()` refuse every further record.
    pub fn sealed_bins(&self) -> usize {
        self.bins_passed().saturating_sub(LATENESS_HORIZON_BINS).min(self.num_bins)
    }

    /// Judges the records of one admitted frame, in order, against the
    /// watermark as it stands — `on_time(record)` for each whose bin is
    /// not sealed (records outside the window included: they are the
    /// binner's to count) — then raises the watermark on the frame's
    /// `export_secs`. Returns the number refused as late.
    pub fn judge_frame<T>(
        &mut self,
        export_secs: u32,
        records: impl IntoIterator<Item = T>,
        record_secs: impl Fn(&T) -> u64,
        mut on_time: impl FnMut(T),
    ) -> u64 {
        let mut late = 0;
        for record in records {
            if self.admit(record_secs(&record)) {
                on_time(record);
            } else {
                late += 1;
            }
        }
        self.advance(u64::from(export_secs));
        late
    }

    /// `false` when a record starting at `secs` falls into a sealed bin;
    /// otherwise notes it as the latest in-window record if it is one.
    fn admit(&mut self, secs: u64) -> bool {
        let Some(bin) = self.bin_of(secs) else { return true };
        if bin < self.sealed_bins() {
            return false;
        }
        self.state.latest_record_secs =
            Some(self.state.latest_record_secs.map_or(secs, |t| t.max(secs)));
        true
    }

    /// Raises the watermark to `export_secs`, but no further than the end
    /// of the bin after the latest in-window record (the window start
    /// before there is one).
    fn advance(&mut self, export_secs: u64) {
        let cap = match self.state.latest_record_secs.and_then(|t| self.bin_of(t)) {
            Some(bin) => {
                self.start_secs.saturating_add((bin as u64 + 2).saturating_mul(self.bin_secs))
            }
            None => self.start_secs,
        };
        self.state.secs = self.state.secs.max(export_secs.min(cap));
    }

    /// The window's bin covering `secs`, or `None` outside the window.
    fn bin_of(&self, secs: u64) -> Option<usize> {
        let bin = usize::try_from(secs.checked_sub(self.start_secs)? / self.bin_secs).ok()?;
        (bin < self.num_bins).then_some(bin)
    }

    /// Whole bins from the window start to the watermark, past the window
    /// end included.
    fn bins_passed(&self) -> usize {
        let passed = self.state.secs.saturating_sub(self.start_secs) / self.bin_secs;
        usize::try_from(passed).unwrap_or(usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: usize = LATENESS_HORIZON_BINS;

    /// A 40-bin window of 300 s bins starting at 1000.
    fn fresh() -> Watermark {
        Watermark::new(1000, 300, 40, WatermarkState::default())
    }

    fn bin_start(bin: usize) -> u64 {
        1000 + bin as u64 * 300
    }

    /// One frame exported at the start of `bin` carrying one record per
    /// entry of `records` (start times); the late count.
    fn frame(w: &mut Watermark, bin: usize, records: &[u64]) -> u64 {
        w.judge_frame(bin_start(bin) as u32, records.iter().copied(), |&t| t, |_| {})
    }

    #[test]
    fn a_bin_closes_at_its_end_and_seals_h_bins_later() {
        let mut w = fresh();
        assert_eq!((w.closed_bins(), w.sealed_bins()), (0, 0));
        for bin in 0..=H + 3 {
            assert_eq!(frame(&mut w, bin, &[bin_start(bin) + 10]), 0);
            assert_eq!(w.closed_bins(), bin, "bin {bin}'s frames close the bin before it");
            assert_eq!(w.sealed_bins(), bin.saturating_sub(H));
        }
        // Bin 2 is sealed now, bin 3 is closed but not sealed.
        assert_eq!(w.sealed_bins(), 3);
        let mut on_time = 0;
        let late = w.judge_frame(
            bin_start(H + 3) as u32,
            [bin_start(2), bin_start(3), bin_start(2) + 299, 5, bin_start(40)],
            |&t| t,
            |_| on_time += 1,
        );
        assert_eq!(late, 2, "bin 2 refuses both of its records");
        assert_eq!(on_time, 3, "bin 3 and both out-of-window records pass");
    }

    #[test]
    fn records_are_judged_before_their_header_moves_the_watermark() {
        let mut w = fresh();
        frame(&mut w, H + 1, &[bin_start(H + 1)]);
        assert_eq!(w.sealed_bins(), 1);
        // A frame whose own header would seal bin 1 still lands bin 1's
        // record: the record goes first.
        assert_eq!(frame(&mut w, H + 2, &[bin_start(1), bin_start(H + 2)]), 0);
        assert_eq!(w.sealed_bins(), 2);
        assert_eq!(frame(&mut w, H + 2, &[bin_start(1)]), 1);
    }

    #[test]
    fn a_header_is_capped_at_the_end_of_the_bin_after_the_latest_record() {
        let mut w = fresh();
        // No record yet: the watermark stays at the window start.
        frame(&mut w, 30, &[]);
        assert_eq!((w.state().secs, w.closed_bins()), (1000, 0));
        frame(&mut w, 2, &[bin_start(2) + 5]);
        assert_eq!(w.closed_bins(), 2);
        // Far in the future, with or without records of its own.
        w.judge_frame(u32::MAX, [bin_start(3)], |&t| t, |_| {});
        assert_eq!(w.state().secs, bin_start(5), "the end of bin 4, the bin after bin 3");
        assert_eq!((w.closed_bins(), w.sealed_bins()), (5, 0));
        w.judge_frame(u32::MAX, std::iter::empty::<u64>(), |&t| t, |_| {});
        assert_eq!(w.closed_bins(), 5, "an empty frame cannot move it further");
        // Records past the window move nothing either.
        w.judge_frame(u32::MAX, [bin_start(40) + 1], |&t| t, |_| {});
        assert_eq!(w.state().latest_record_secs, Some(bin_start(3)));
        assert_eq!(w.closed_bins(), 5);
        // An honest stream carries on exactly as before.
        assert_eq!(frame(&mut w, 6, &[bin_start(6)]), 0);
        assert_eq!(w.closed_bins(), 6);
        // The watermark never goes back.
        frame(&mut w, 1, &[bin_start(1)]);
        assert_eq!(w.closed_bins(), 6);
    }

    #[test]
    fn the_watermark_stops_at_the_window_end() {
        let mut w = fresh();
        frame(&mut w, 39, &[bin_start(39)]);
        w.judge_frame(u32::MAX, [bin_start(39) + 1], |&t| t, |_| {});
        assert_eq!(w.state().secs, bin_start(41));
        assert_eq!((w.closed_bins(), w.sealed_bins()), (40, 41 - H));
    }

    #[test]
    fn a_resumed_watermark_judges_as_the_original() {
        let mut live = fresh();
        for bin in 0..20 {
            frame(&mut live, bin, &[bin_start(bin) + 1]);
        }
        let mut resumed = Watermark::new(1000, 300, 40, live.state());
        for w in [&mut live, &mut resumed] {
            assert_eq!(frame(w, 21, &[bin_start(2), bin_start(15), bin_start(21)]), 1);
        }
        assert_eq!(live, resumed);
        // A state no stream could produce is still judged without panic.
        let odd = WatermarkState { secs: u64::MAX, latest_record_secs: Some(u64::MAX) };
        let mut w = Watermark::new(1000, 300, 40, odd);
        assert_eq!((w.closed_bins(), w.sealed_bins()), (40, 40));
        assert_eq!(frame(&mut w, 0, &[bin_start(0), 7]), 1);
    }
}
