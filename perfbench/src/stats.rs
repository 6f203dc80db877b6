//! Order statistics for latency samples and run-to-run summaries.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`, refusing a tail
/// percentile (above the median) that fewer than ten samples lie beyond: with fewer, the tail
/// value is one unlucky request, not a property of the run.
///
/// The nearest rank of `p` over `n` sorted samples is `ceil(p / 100 * n)` (1-based); the
/// samples strictly beyond it number `n - rank`.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if samples.is_empty() {
        return Err("no samples".to_string());
    }
    if !(p > 0.0 && p <= 100.0) {
        return Err(format!("percentile {p} is outside (0, 100]"));
    }
    let n = samples.len();
    let rank = nearest_rank(n, p);
    let beyond = n - rank;
    if p > 50.0 && beyond < 10 {
        return Err(format!("p{p} of {n} samples has only {beyond} samples beyond it (needs 10)"));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// 1-based nearest rank of percentile `p` over `n` samples, computed in integer arithmetic on
/// hundredths of a percent so `p99` over 1000 samples is rank 990 exactly.
fn nearest_rank(n: usize, p: f64) -> usize {
    let hundredths = (p * 100.0).round() as u128;
    let rank = (hundredths * n as u128).div_ceil(10_000) as usize;
    rank.clamp(1, n)
}

/// The highest of the candidate tail percentiles that has at least ten samples beyond it,
/// as `(percentile, value)`; `None` when even the lowest candidate has too few.
pub fn highest_tail(samples: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find_map(|p| percentile(samples, p).ok().map(|value| (p, value)))
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the helper must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles_of_a_ramp() {
        let samples = ramp(1000);
        assert_eq!(percentile(&samples, 50.0).unwrap(), 500.0);
        assert_eq!(percentile(&samples, 99.0).unwrap(), 990.0);
        assert_eq!(percentile(&samples, 90.0).unwrap(), 900.0);
        // Non-integral ranks round up.
        assert_eq!(percentile(&ramp(7), 50.0).unwrap(), 4.0);
        assert_eq!(percentile(&ramp(3), 10.0).unwrap(), 1.0);
    }

    #[test]
    fn refuses_a_tail_with_fewer_than_ten_samples_beyond() {
        // p99 over 1000: rank 990, ten beyond — allowed; over 999: rank 990, nine beyond.
        assert!(percentile(&ramp(1000), 99.0).is_ok());
        let err = percentile(&ramp(999), 99.0).unwrap_err();
        assert!(err.contains("9 samples beyond"), "{err}");
        assert!(percentile(&ramp(100), 99.0).is_err());
        assert!(percentile(&ramp(100), 90.0).is_ok());
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&ramp(10), 0.0).is_err());
    }

    #[test]
    fn highest_tail_picks_the_deepest_supported_percentile() {
        assert_eq!(highest_tail(&ramp(10_000)), Some((99.9, 9990.0)));
        assert_eq!(highest_tail(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(highest_tail(&ramp(200)), Some((95.0, 190.0)));
        assert_eq!(highest_tail(&ramp(50)), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
