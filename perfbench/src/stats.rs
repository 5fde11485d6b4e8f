//! Sample statistics and failure accounting.
//!
//! Percentiles use the nearest-rank rule. A tail percentile is reported
//! only where at least [`MIN_TAIL_SAMPLES`] samples lie beyond it; with
//! fewer samples the report falls back to the highest percentile of
//! [`LADDER`] that the sample supports, and says which one it used.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Candidate tail percentiles, highest first.
pub const LADDER: [f64; 7] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// 1-based nearest rank of percentile `p` in `n` sorted samples.
pub fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "rank of an empty sample");
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile {p} outside [0, 100]"
    );
    // The epsilon keeps float error in an exact product (99.9% of
    // 10 000 is 9990.000000000002) from bumping the rank.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile of [`LADDER`], at most `want`, with at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it; `None` when even the median
/// is unsupported.
pub fn tail_percentile(n: usize, want: f64) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= want)
        .find(|&p| samples_beyond(n, p) >= MIN_TAIL_SAMPLES)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// Nearest-rank median (sorts in place); `None` for an empty sample.
pub fn median(v: &mut [f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    Some(percentile(v, 50.0))
}

/// Median and supported tail of one sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The tail percentile actually reported (see [`tail_percentile`]).
    pub tail_p: f64,
    /// Value at `tail_p`.
    pub tail: f64,
}

/// Summarize `samples` (sorted in place), asking for the `want` tail.
/// `None` for a sample too small to support even its median.
pub fn summarize(samples: &mut [f64], want: f64) -> Option<Summary> {
    let n = samples.len();
    let tail_p = tail_percentile(n, want)?;
    samples.sort_by(|a, b| a.total_cmp(b));
    Some(Summary {
        n,
        p50: percentile(samples, 50.0),
        tail_p,
        tail: percentile(samples, tail_p),
    })
}

/// A metric name: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a letter
/// or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// A unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

/// Attempted operations and every way one can fail.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started (round trips or messages).
    pub attempted: u64,
    /// Waits that ran out before the library delivered.
    pub timeouts: u64,
    /// Deliveries whose bytes or order differ from the seeded content.
    pub mismatches: u64,
    /// Submissions refused with `WouldBlock`.
    pub refused: u64,
    /// Receive and socket errors the endpoints counted.
    pub endpoint_errors: u64,
}

impl Tally {
    /// Every failure, whatever its kind.
    pub fn failed(&self) -> u64 {
        self.timeouts + self.mismatches + self.refused + self.endpoint_errors
    }

    /// Failures over attempts (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Fold `other` into this tally.
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.timeouts += other.timeouts;
        self.mismatches += other.mismatches;
        self.refused += other.refused;
        self.endpoint_errors += other.endpoint_errors;
    }

    /// True when no delivered byte or order was wrong.
    pub fn integrity_ok(&self) -> bool {
        self.mismatches == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        assert_eq!(rank(100, 50.0), 50);
        assert_eq!(rank(100, 99.0), 99);
        assert_eq!(rank(1, 99.0), 1);
        assert_eq!(rank(3, 50.0), 2);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        // One sample short: p99 has only 9 beyond it, p98 has 19.
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(999, 99.0), Some(98.0));
        assert_eq!(tail_percentile(10_000, 99.9), Some(99.9));
        assert_eq!(tail_percentile(10_000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(20, 99.0), Some(50.0));
        assert_eq!(tail_percentile(19, 99.0), None);
        assert_eq!(tail_percentile(0, 99.0), None);
    }

    #[test]
    fn summary_reports_the_percentile_it_used() {
        let mut v: Vec<f64> = (0..500).rev().map(f64::from).collect();
        let s = summarize(&mut v, 99.0).unwrap();
        assert_eq!(s.n, 500);
        assert_eq!(s.tail_p, 98.0);
        assert_eq!(s.p50, 249.0);
        assert_eq!(s.tail, 489.0);
        assert!(summarize(&mut [1.0; 5], 99.0).is_none());
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn metric_names_and_units() {
        for ok in [
            "lat_p50_us",
            "core.strategy.rail0_byte_share",
            "a",
            "9x",
            "x-y.z_1",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "lat p50", "lat/us", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        for ok in ["us", "MB/s", "%", "count", "ns/KiB", "1/s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn failed_ratio_counts_every_failure_kind() {
        let clean = Tally {
            attempted: 40,
            ..Tally::default()
        };
        assert_eq!(clean.failed(), 0);
        assert_eq!(clean.failed_ratio(), 0.0);
        assert!(clean.integrity_ok());
        let t = Tally {
            attempted: 40,
            timeouts: 1,
            mismatches: 2,
            refused: 3,
            endpoint_errors: 4,
        };
        assert_eq!(t.failed(), 10);
        assert_eq!(t.failed_ratio(), 0.25);
        assert!(!t.integrity_ok());
        assert_eq!(Tally::default().failed_ratio(), 0.0);
        let mut sum = clean;
        sum.add(&t);
        assert_eq!((sum.attempted, sum.failed()), (80, 10));
        assert_eq!(sum.failed_ratio(), 0.125);
    }
}
