//! Summary statistics the benchmark reports.

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// The `p`-th percentile of `v` by linear interpolation between closest
/// ranks.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// Tail percentiles the rule may pick, highest first.
const TAILS: [f64; 3] = [99.9, 99.0, 90.0];

/// The highest tail percentile any workload reports. Higher tails swing
/// by more than half their median from run to run on a two-core VM (the
/// serve p99 is set by a handful of family-cache misses), and a capped
/// percentile does not change meaning when a faster program collects
/// more samples.
const TAIL_CAP: f64 = 90.0;

/// The highest of p99.9, p99 and p90 that has at least ten samples
/// beyond it among `n`, capped at [`TAIL_CAP`]; p50 when even p90 has
/// fewer.
pub fn tail_percentile(n: usize) -> f64 {
    TAILS
        .into_iter()
        .filter(|&p| p <= TAIL_CAP)
        .find(|&p| (n as f64 * (100.0 - p) / 100.0 + 1e-9).floor() >= 10.0)
        .unwrap_or(50.0)
}

/// Latency summary: median, a tail percentile chosen by
/// [`tail_percentile`], and the sample count.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub p50: f64,
    pub tail_p: f64,
    pub tail: f64,
    pub n: usize,
}

impl Latency {
    pub fn of(samples: &[f64]) -> Self {
        let tail_p = tail_percentile(samples.len());
        Latency {
            p50: median(samples),
            tail_p,
            tail: percentile(samples, tail_p),
            n: samples.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // p90 needs 100 samples; below that only the median qualifies.
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        // p99 would have ten samples beyond it from 1000 on, but the cap
        // keeps the statistic the same however many samples a run gets.
        assert_eq!(tail_percentile(1000), 90.0);
        assert_eq!(tail_percentile(100_000), 90.0);
    }

    #[test]
    fn latency_summary_reports_count_and_tail() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let l = Latency::of(&samples);
        assert_eq!(l.n, 200);
        assert_eq!(l.tail_p, 90.0);
        assert!((l.p50 - 100.5).abs() < 1e-9);
        assert!((l.tail - 180.1).abs() < 1e-9);
    }
}
