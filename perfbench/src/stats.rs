//! Order statistics for host timings, and the process's peak resident set.

/// Nearest-rank median of an ascending slice.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    sorted[sorted.len().div_ceil(2) - 1]
}

/// Nearest-rank median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

/// The tail of an ascending sample: the value at the highest percentile
/// that leaves at least ten samples beyond it, i.e. the 11th largest, at
/// percentile `100 (n - 10) / n` (p90 of 100 samples, p99 of 1000). Below
/// 20 samples no percentile above the median qualifies, and the median is
/// returned. Returns (value, percentile).
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 20 {
        return (median_sorted(sorted), 50.0);
    }
    (sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// Peak resident set of this process in MB (`VmHWM`, 10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib * 1024.0 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_leaves_exactly_ten_samples_beyond() {
        let sample = |n: usize| -> Vec<f64> { (1..=n).map(|v| v as f64).collect() };
        assert_eq!(tail(&sample(100)), (90.0, 90.0));
        assert_eq!(tail(&sample(1000)), (990.0, 99.0));
        assert_eq!(tail(&sample(280)), (270.0, 100.0 * 270.0 / 280.0));
        assert_eq!(tail(&sample(20)), (10.0, 50.0));
        assert_eq!(tail(&sample(19)), (10.0, 50.0));
        for n in [20, 60, 100, 280, 1000] {
            let s = sample(n);
            let (value, _) = tail(&s);
            assert_eq!(s.iter().filter(|&&v| v > value).count(), 10);
        }
    }

    #[test]
    fn nearest_rank_median() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0]), 5.0);
    }
}
