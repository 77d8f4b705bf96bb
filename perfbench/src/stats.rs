//! Order statistics for timing samples: medians, nearest-rank
//! percentiles and the tail rule ("the highest percentile with at least
//! ten samples beyond it").

/// Candidate tail percentiles, highest first, in hundredths of a percent
/// (9990 = p99.9). The reported tail is the first one the sample count
/// supports. The rungs are a decade apart so that run-to-run drift in
/// the sample count rarely changes which percentile is reported.
pub const TAIL_LADDER: [u32; 4] = [9990, 9900, 9000, 5000];

/// Samples a tail percentile must leave strictly above its rank.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Sorts a copy of `xs` (NaN-free by construction: every sample is a
/// finite duration or ratio).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 for no
/// samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of percentile `p` (hundredths of a percent) in
/// `n` samples: `ceil(p * n / 10000)`, at least 1.
pub fn nearest_rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(10_000).max(1)
}

/// Nearest-rank percentile `p` (hundredths of a percent) of sorted
/// samples.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(p, sorted.len()).min(sorted.len()) - 1]
}

/// The highest ladder percentile that leaves at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond its rank; the median when
/// even that is out of reach.
pub fn tail_percentile(n: usize) -> u32 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(nearest_rank(p, n)) >= TAIL_MIN_BEYOND)
        .unwrap_or(5000)
}

/// The tail of a run's timings: the percentile the rule chose
/// ([`tail_percentile`] of the sample count) and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile, in hundredths of a percent.
    pub p: u32,
    /// Nearest-rank value at that percentile.
    pub value: f64,
    /// Samples strictly above its rank.
    pub beyond: usize,
}

/// Applies the tail rule to every sample of a run.
pub fn tail(xs: &[f64]) -> Tail {
    let p = tail_percentile(xs.len());
    Tail {
        p,
        value: percentile(&sorted(xs), p),
        beyond: xs.len().saturating_sub(nearest_rank(p, xs.len())),
    }
}

/// Median and quartiles of one series, as printed next to its metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// First quartile (nearest rank).
    pub q1: f64,
    /// Third quartile (nearest rank).
    pub q3: f64,
}

impl Summary {
    /// Summarises `xs`.
    pub fn of(xs: &[f64]) -> Summary {
        let v = sorted(xs);
        Summary {
            n: v.len(),
            p50: median(xs),
            q1: percentile(&v, 2500),
            q3: percentile(&v, 7500),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.p50 == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.p50
        }
    }
}

/// Formats a percentile in hundredths of a percent as `p99`, `p99.9`.
pub fn percentile_label(p: u32) -> String {
    if p.is_multiple_of(100) {
        format!("p{}", p / 100)
    } else {
        let s = format!("p{}.{:02}", p / 100, p % 100);
        s.trim_end_matches('0').to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // p99 needs 1000 samples (rank 990, ten beyond); one fewer drops
        // to p90.
        assert_eq!(tail_percentile(1000), 9900);
        assert_eq!(tail_percentile(999), 9000);
        // p99.9 needs 10 000 samples.
        assert_eq!(tail_percentile(10_000), 9990);
        assert_eq!(tail_percentile(9_999), 9900);
        // p90 needs 100; below that only the median is reported.
        assert_eq!(tail_percentile(100), 9000);
        assert_eq!(tail_percentile(99), 5000);
        assert_eq!(tail_percentile(3), 5000);
    }

    #[test]
    fn chosen_tail_always_has_ten_beyond_when_possible() {
        for n in 20..25_000 {
            let p = tail_percentile(n);
            let beyond = n - nearest_rank(p, n);
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n} p={p}");
            // No higher ladder rung would also qualify.
            for &q in TAIL_LADDER.iter().filter(|&&q| q > p) {
                assert!(n - nearest_rank(q, n) < TAIL_MIN_BEYOND, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 5000), 500.0);
        assert_eq!(percentile(&v, 9900), 990.0);
        assert_eq!(percentile(&v, 10_000), 1000.0);
        let s = Summary::of(&v);
        assert_eq!((s.n, s.p50, s.q1, s.q3), (1000, 500.5, 250.0, 750.0));
    }

    #[test]
    fn tail_of_a_run() {
        // 1000 samples: p99 is rank 990, ten beyond.
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(
            tail(&xs),
            Tail {
                p: 9900,
                value: 990.0,
                beyond: 10
            }
        );
        let t = tail(&xs[..150]);
        assert_eq!((t.p, t.beyond), (9000, 15));
    }

    #[test]
    fn labels() {
        assert_eq!(percentile_label(9900), "p99");
        assert_eq!(percentile_label(9990), "p99.9");
        assert_eq!(percentile_label(9950), "p99.5");
        assert_eq!(percentile_label(5000), "p50");
    }
}
