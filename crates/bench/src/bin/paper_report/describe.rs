//! The descriptive statistics Figures 1 and 2 print: sample quartiles and
//! the fixed-bin histograms of anomaly duration and OD flows per anomaly.

/// The order statistics a figure reports of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub q75: f64,
    /// Maximum.
    pub max: f64,
}

/// Summarizes a sample; `None` when it is empty.
pub fn summarize(data: &[f64]) -> Option<Summary> {
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite data for summarize"));
    let max = *sorted.last()?;
    Some(Summary {
        n: sorted.len(),
        median: quantile_sorted(&sorted, 0.5),
        q75: quantile_sorted(&sorted, 0.75),
        max,
    })
}

/// Empirical quantile of non-empty sorted data at `p in [0, 1]`, with
/// linear interpolation between order statistics (type-7, the R/NumPy
/// default).
fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = (n - 1) as f64 * p;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    let frac = h - lo as f64;
    sorted[lo] + frac * (sorted[hi] - sorted[lo])
}

/// A histogram over `[lo, hi)` with equal-width bins.
///
/// Values below `lo` are clamped into the first bin; values at or above `hi`
/// go into an overflow count reported separately (the paper's duration
/// histogram uses a bounded x-axis with a long tail). NaN is ignored.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    overflow: u64,
}

impl Histogram {
    /// A histogram with `bins` equal-width bins over `[lo, hi)`; `None`
    /// unless `bins > 0` and `lo < hi` are finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Option<Self> {
        let valid = bins > 0 && lo < hi && lo.is_finite() && hi.is_finite();
        valid.then(|| Histogram { lo, hi, counts: vec![0; bins], overflow: 0 })
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        if x >= self.hi {
            self.overflow += 1;
            return;
        }
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let idx = (((x - self.lo) / width).floor() as i64).clamp(0, self.counts.len() as i64 - 1);
        self.counts[idx as usize] += 1;
    }

    /// Count of observations at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// `(bin_start, bin_end, count)` triples.
    fn bins(&self) -> Vec<(f64, f64, u64)> {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.lo + i as f64 * width, self.lo + (i + 1) as f64 * width, c))
            .collect()
    }

    /// Renders the histogram as ASCII bars, one bin per line, e.g.
    ///
    /// ```text
    /// [  0,  20) ############################ 140
    /// [ 20,  40) ######## 40
    /// ```
    pub fn render_ascii(&self, max_width: usize) -> String {
        let max_count = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (start, end, c) in self.bins() {
            let bar = (c as f64 / max_count as f64 * max_width as f64).round() as usize;
            out.push_str(&format!("[{start:>8.1}, {end:>8.1}) {} {c}\n", "#".repeat(bar)));
        }
        if self.overflow > 0 {
            out.push_str(&format!("[{:>8.1},      inf) {}\n", self.hi, self.overflow));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn histogram(lo: f64, hi: f64, bins: usize, xs: &[f64]) -> Histogram {
        let mut h = Histogram::new(lo, hi, bins).unwrap();
        for &x in xs {
            h.add(x);
        }
        h
    }

    #[test]
    fn summary_known() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s, Summary { n: 5, median: 3.0, q75: 4.0, max: 5.0 });
        // Unsorted input is sorted first.
        assert_eq!(summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap(), s);
    }

    #[test]
    fn summary_single_point() {
        let s = summarize(&[7.0]).unwrap();
        assert_eq!((s.median, s.q75, s.max), (7.0, 7.0, 7.0));
    }

    #[test]
    fn summary_empty_rejected() {
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn quantile_interpolates() {
        let data = [10.0, 20.0];
        assert_eq!(quantile_sorted(&data, 0.0), 10.0);
        assert_eq!(quantile_sorted(&data, 1.0), 20.0);
        assert_eq!(quantile_sorted(&data, 0.5), 15.0);
        assert_eq!(quantile_sorted(&data, 0.75), 17.5);
    }

    #[test]
    fn basic_binning() {
        let h = histogram(0.0, 10.0, 5, &[0.0, 1.9, 2.0, 5.5, 9.99]);
        assert_eq!(h.counts, [2, 1, 1, 0, 1]);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn overflow_and_clamp() {
        // At hi and above -> overflow; below lo -> clamped into the first bin.
        let h = histogram(0.0, 10.0, 2, &[10.0, 100.0, -5.0]);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.counts, [1, 0]);
    }

    #[test]
    fn nan_ignored() {
        let h = histogram(0.0, 1.0, 1, &[f64::NAN]);
        assert_eq!((h.counts[0], h.overflow()), (0, 0));
    }

    #[test]
    fn bins_edges() {
        let bins = Histogram::new(0.0, 100.0, 4).unwrap().bins();
        assert_eq!(bins.len(), 4);
        assert_eq!(bins[0].0, 0.0);
        assert_eq!(bins[0].1, 25.0);
        assert_eq!(bins[3].1, 100.0);
    }

    #[test]
    fn ascii_render_contains_bars() {
        let s = histogram(0.0, 2.0, 2, &[0.5, 0.6, 1.5, 5.0]).render_ascii(10);
        assert!(s.contains('#'));
        assert!(s.contains("inf"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Histogram::new(0.0, 1.0, 0).is_none());
        assert!(Histogram::new(1.0, 1.0, 3).is_none());
        assert!(Histogram::new(2.0, 1.0, 3).is_none());
        assert!(Histogram::new(0.0, f64::INFINITY, 3).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn summarize_bounds(data in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let s = summarize(&data).unwrap();
            prop_assert!(s.median <= s.q75 + 1e-9);
            prop_assert!(s.q75 <= s.max + 1e-9);
            prop_assert_eq!(s.n, data.len());
        }

        #[test]
        fn quantile_monotone_in_p(data in proptest::collection::vec(-100.0f64..100.0, 2..100),
                                  p1 in 0.0f64..1.0, p2 in 0.0f64..1.0) {
            let (lo, hi) = if p1 < p2 { (p1, p2) } else { (p2, p1) };
            let mut sorted = data;
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert!(quantile_sorted(&sorted, lo) <= quantile_sorted(&sorted, hi) + 1e-12);
        }

        #[test]
        fn histogram_conserves_count(xs in proptest::collection::vec(-50.0f64..150.0, 0..300)) {
            let h = histogram(0.0, 100.0, 10, &xs);
            let binned: u64 = h.counts.iter().sum();
            prop_assert_eq!(binned + h.overflow(), xs.len() as u64);
        }
    }
}
