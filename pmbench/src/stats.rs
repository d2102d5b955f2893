//! Percentiles with the sample-count rule, medians and means.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile (`q` in `(0, 1]`) of ascending `sorted` samples;
/// 0 for no samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The fewest samples for which the `q` percentile has
/// [`MIN_TAIL_SAMPLES`] beyond it.
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, q) >= MIN_TAIL_SAMPLES)
        .expect("some sample count supports every q < 1")
}

/// Median and 90th percentile of a latency sample, with its count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Summarises latencies; refuses a sample too small for a supported p90.
pub fn latency_summary(samples: &[f64]) -> Result<LatencySummary, String> {
    if samples_beyond(samples.len(), 0.9) < MIN_TAIL_SAMPLES {
        return Err(format!(
            "{} latency samples cannot support a p90 (need {})",
            samples.len(),
            min_samples_for(0.9)
        ));
    }
    let sorted = sorted(samples);
    Ok(LatencySummary {
        p50: percentile(&sorted, 0.5),
        p90: percentile(&sorted, 0.9),
        samples: sorted.len(),
    })
}

/// An ascending copy of `v`.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (nearest rank); 0 for no samples.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v), 0.5)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(min_samples_for(0.9), 100);
        assert_eq!(min_samples_for(0.99), 1000);
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        let s = latency_summary(&hundred).expect("100 samples support a p90");
        assert_eq!((s.p50, s.p90, s.samples), (49.0, 89.0, 100));
        assert!(latency_summary(&hundred[..99]).is_err());
    }
}
