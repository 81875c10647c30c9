//! Percentile, quartile and window arithmetic.
//!
//! The protocol (README, "Windows"): a run is cut into fixed-length
//! windows so that the ones the hypervisor disturbed can be left out;
//! the metrics are taken over all the others together, and the spread of
//! the per-window values (median, quartiles, better quarter) is printed
//! beside them. A tail percentile must have at least [`MIN_BEYOND`]
//! samples beyond it; when it does not, the highest percentile that does
//! is reported instead and the run says so.

/// Samples a tail percentile must leave beyond itself to be trusted.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The percentile `q`, lowered as far as needed for `min_beyond` samples
/// to lie strictly beyond the reported rank. Returns the value and the
/// quantile actually reported (`== q` when the window is large enough).
pub fn tail_percentile(sorted: &[u64], q: f64, min_beyond: usize) -> Option<(u64, f64)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n);
    let highest_supported = n.saturating_sub(min_beyond).max(1);
    let rank = wanted.min(highest_supported);
    let reported = if rank == wanted {
        q
    } else {
        rank as f64 / n as f64
    };
    Some((sorted[rank - 1], reported))
}

/// Median of a non-empty list (mean of the two middle values when even).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Median of the better quarter of `values` — the highest quarter when
/// `higher_is_better`, the lowest otherwise; at least one value. A
/// diagnostic, never a bounded metric: it says what the stack does in
/// its good moments and is blind to everything else (README, "Two
/// regimes").
pub fn better_quarter_median(values: &[f64], higher_is_better: bool) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    v.truncate(v.len().div_ceil(4));
    median(&v)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), so the spread printed here is the spread the driver sees.
/// `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Median, quartiles and count of one metric's per-window values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median over windows.
    pub median: f64,
    /// First quartile over windows (the median itself below two windows).
    pub q1: f64,
    /// Third quartile over windows.
    pub q3: f64,
    /// Windows summarised.
    pub windows: usize,
}

impl Summary {
    /// Summarises per-window values; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let median = median(values)?;
        let (q1, q3) = quartiles(values).unwrap_or((median, median));
        Some(Summary {
            median,
            q1,
            q3,
            windows: values.len(),
        })
    }

    /// `(Q3 − Q1) / median`: the spread the benchmark's acceptance rule
    /// is written in.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// One timed request: where it falls on the run's clock and how long it
/// took. Closed loops stamp completion time, the open loop stamps due
/// time (README, "Open loop").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Nanoseconds since the measured span began.
    pub at_ns: u64,
    /// Latency in nanoseconds.
    pub latency_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 2000 samples: p99 is rank 1980, 20 beyond — reported as asked.
        let big: Vec<u64> = (1..=2000).collect();
        assert_eq!(tail_percentile(&big, 0.99, MIN_BEYOND), Some((1980, 0.99)));
        // Exactly 1000 samples: rank 990 leaves exactly 10 beyond.
        let edge: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile(&edge, 0.99, MIN_BEYOND), Some((990, 0.99)));
        // 500 samples: p99 would leave 5 beyond; rank 490 (p98) is the
        // highest with 10 beyond, and the reported quantile says so.
        let small: Vec<u64> = (1..=500).collect();
        let (value, q) = tail_percentile(&small, 0.99, MIN_BEYOND).unwrap();
        assert_eq!(value, 490);
        assert!((q - 0.98).abs() < 1e-12);
        // Fewer samples than the margin: the minimum is all that is left.
        assert_eq!(tail_percentile(&[5, 6, 7], 0.99, MIN_BEYOND).unwrap().0, 5);
        assert_eq!(tail_percentile(&[], 0.99, MIN_BEYOND), None);
    }

    #[test]
    fn medians_and_python_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            Some((15.0, 45.0))
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((Summary::of(&ten).unwrap().iqr_share() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_better_quarter_reads_the_good_regime() {
        // Twelve windows of throughput, five of them in the slow regime.
        let qps = [
            20.0, 21.0, 9.0, 22.0, 10.0, 19.0, 11.0, 20.5, 8.0, 21.5, 10.5, 20.0,
        ];
        // Best quarter = {22, 21.5, 21}: its median is 21.5.
        assert_eq!(better_quarter_median(&qps, true), Some(21.5));
        assert_eq!(median(&qps), Some(19.5));
        // Latencies: the lowest quarter.
        let p50 = [90.0, 140.0, 88.0, 150.0, 91.0, 89.0, 145.0, 92.0];
        assert_eq!(better_quarter_median(&p50, false), Some(88.5));
        // One to four values: the single best one.
        assert_eq!(better_quarter_median(&[3.0, 1.0, 2.0], true), Some(3.0));
        assert_eq!(better_quarter_median(&[3.0, 1.0, 2.0], false), Some(1.0));
        assert_eq!(better_quarter_median(&[], true), None);
    }

    #[test]
    fn window_summaries() {
        // Five windows of throughput, one hit by a stall.
        let s = Summary::of(&[4000.0, 4100.0, 1200.0, 4050.0, 3990.0]).unwrap();
        assert_eq!(s.median, 4000.0);
        assert_eq!(s.windows, 5);
        assert!(s.q1 <= s.median && s.median <= s.q3);
        let one = Summary::of(&[7.0]).unwrap();
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
        assert_eq!(one.iqr_share(), 0.0);
        assert_eq!(Summary::of(&[]), None);
    }
}
