//! Order statistics for the benchmark's samples.
//!
//! A percentile is only reported when at least ten samples lie beyond
//! it: p90 needs 100 samples, p50 needs 20. Fewer samples would let two
//! or three outliers decide the value, which is what made an earlier
//! 36-sample p90 drift between identical runs.

/// Samples that must lie beyond a reported percentile.
const TAIL_SAMPLES: f64 = 10.0;

/// Smallest sample count for which percentile `p` (0 < p < 100) has at
/// least ten samples beyond it.
pub fn min_samples(p: f64) -> usize {
    (TAIL_SAMPLES * 100.0 / (100.0 - p)).ceil() as usize
}

/// Nearest-rank percentile `p` of `samples`, refused when fewer than
/// [`min_samples`] samples are given.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let need = min_samples(p);
    if samples.len() < need {
        return Err(format!(
            "p{p} needs at least {need} samples, got {}",
            samples.len()
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Ok(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of a non-empty sample set (mean of the middle two for even
/// counts). Used for repeated set-ups and per-round layer figures, where
/// the count is small by design.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_is_refused_below_100_samples() {
        let samples: Vec<f64> = (0..99).map(f64::from).collect();
        let err = percentile(&samples, 90.0).unwrap_err();
        assert!(err.contains("at least 100"), "{err}");
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 90.0), Ok(90.0));
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert_eq!(min_samples(50.0), 20);
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Ok(10.0));
        assert!(percentile(&samples[..19], 50.0).is_err());
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
