//! Order statistics used by every metric: medians and quartiles, the
//! percentile rule, and the LPT makespan bound.

/// How many samples must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// The tail percentiles a latency metric may fall back through.
const LADDER: [f64; 3] = [0.99, 0.90, 0.50];

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The middle value, or the mean of the two middle values.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    assert!(!s.is_empty(), "median of an empty sample");
    (s[(s.len() - 1) / 2] + s[s.len() / 2]) / 2.0
}

/// Samples of `n` that lie beyond percentile `p` (the epsilon absorbs the
/// representation error of `1.0 - p`).
fn beyond(n: usize, p: f64) -> usize {
    (n as f64 * (1.0 - p) + 1e-9).floor() as usize
}

/// The percentile rule: the highest percentile of the 99/90/50 ladder that
/// is no higher than `wanted` and has at least [`MIN_BEYOND`] samples
/// beyond it; the median when the sample supports nothing else.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    LADDER
        .into_iter()
        .find(|&p| p <= wanted && beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(0.5)
}

/// A tail latency and how it was obtained.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    pub value: f64,
    /// The percentile actually reported (the percentile rule may lower it).
    pub percentile: f64,
    pub samples: usize,
}

/// The `wanted` tail percentile of `latencies`, as far as the percentile
/// rule lets the sample support it.
pub fn tail(latencies: &[f64], wanted: f64) -> Tail {
    let p = supported_percentile(latencies.len(), wanted);
    Tail {
        value: percentile(&sorted(latencies.to_vec()), p),
        percentile: p,
        samples: latencies.len(),
    }
}

/// Makespan of longest-processing-time-first list scheduling of `costs`
/// over `workers` identical workers — what a perfect master could reach
/// with these subsolves.
pub fn lpt_makespan(costs: &[f64], workers: usize) -> f64 {
    let mut loads = vec![0.0f64; workers.max(1)];
    for c in sorted(costs.to_vec()).into_iter().rev() {
        let least = loads
            .iter_mut()
            .min_by(|a, b| a.total_cmp(b))
            .expect("at least one worker");
        *least += c;
    }
    loads.into_iter().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p99 needs 1000 samples, p90 needs 100.
        assert_eq!(supported_percentile(1000, 0.99), 0.99);
        assert_eq!(supported_percentile(999, 0.99), 0.90);
        assert_eq!(supported_percentile(100, 0.99), 0.90);
        assert_eq!(supported_percentile(99, 0.99), 0.50);
        // Asking for p90 never yields p99, however large the sample.
        assert_eq!(supported_percentile(100_000, 0.90), 0.90);
        assert_eq!(supported_percentile(5, 0.90), 0.50);
    }

    #[test]
    fn tail_reports_the_percentile_the_sample_supports() {
        let many: Vec<f64> = (0..3000).map(|i| i as f64).collect();
        let t = tail(&many, 0.99);
        assert_eq!((t.percentile, t.samples, t.value), (0.99, 3000, 2969.0));
        // 130 samples: p99 falls back to p90.
        let few: Vec<f64> = (0..130).map(|i| i as f64).collect();
        let t = tail(&few, 0.99);
        assert_eq!((t.percentile, t.value), (0.90, 116.0));
    }

    #[test]
    fn lpt_makespan_matches_hand_schedules() {
        // LPT places 5→A, 4→B, 3→B(7), 3→A(8), 3→B(10); the optimum
        // (5,4 | 3,3,3) would be 9.
        assert_eq!(lpt_makespan(&[3.0, 5.0, 3.0, 4.0, 3.0], 2), 10.0);
        assert_eq!(lpt_makespan(&[7.0], 2), 7.0);
        assert_eq!(lpt_makespan(&[1.0, 1.0, 1.0, 1.0], 2), 2.0);
        assert_eq!(lpt_makespan(&[2.0, 3.0], 1), 5.0);
        assert_eq!(lpt_makespan(&[], 2), 0.0);
    }
}
