//! Exact order statistics over stored samples, and process readings.
//!
//! Quantiles are taken from the sorted samples themselves (nearest rank), not
//! from a bucketed histogram: bucket edges alone moved p50 by up to 27%
//! between identical runs when this benchmark was designed.

/// Nearest-rank quantile `q ∈ [0, 1]` of `samples` (sorted in place).
/// Panics on an empty slice: every caller measures at least one operation.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples` (nearest rank).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Percentiles tried for the tail, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Consecutive operations per window of the tail estimate: the fewest for
/// which p99 still has ten samples beyond it.
pub const TAIL_WINDOW: usize = 1000;

/// The tail of `samples` (in the order they were taken), with the
/// percentile used. With at least two windows of [`TAIL_WINDOW`] samples it
/// is the median over the windows of each window's p99 (a trailing partial
/// window is left out), so a few seconds of a busy neighbour move one
/// window, not the figure. With fewer samples it is the highest percentile
/// in [`TAIL_PERCENTILES`] that still has at least ten samples beyond it,
/// over all of them (p50 below 20 samples).
pub fn tail(samples: &[f64]) -> (f64, f64) {
    if samples.len() >= 2 * TAIL_WINDOW {
        let mut p99s: Vec<f64> = samples
            .chunks_exact(TAIL_WINDOW)
            .map(|w| quantile(&mut w.to_vec(), 0.99))
            .collect();
        return (99.0, median(&mut p99s));
    }
    let n = samples.len() as f64;
    let pct = TAIL_PERCENTILES
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (pct, quantile(&mut samples.to_vec(), pct / 100.0))
}

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&mut v), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 989.0));
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail(&v).0, 95.0);
        let v: Vec<f64> = (0..5).map(f64::from).collect();
        assert_eq!(tail(&v).0, 50.0);
    }

    #[test]
    fn windowed_tail_ignores_one_bad_window() {
        // Three windows; the middle one is ten times slower throughout.
        let v: Vec<f64> = (0..3000)
            .map(|i| if (1000..2000).contains(&i) { 10.0 } else { 1.0 } * (i % 1000) as f64)
            .collect();
        assert_eq!(tail(&v), (99.0, 989.0));
    }
}
