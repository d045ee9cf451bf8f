//! Order statistics over samples.

/// The `p`-th percentile (0..=100) by the nearest-rank rule on a sorted
/// copy: the smallest sample with at least `p`% of the samples at or below
/// it. `None` for an empty sample.
pub fn percentile<T: PartialOrd + Copy>(samples: &[T], p: f64) -> Option<T> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median, averaging the two middle samples of an even count — the
/// rule `statistics.median` uses, so a ledger median reads the same as one
/// computed from its per-repetition values.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// The first and third quartile as `statistics.quantiles(samples, n=4)`
/// gives them (the bounds were calibrated with it). `None` below two
/// samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&s, 50.0), Some(50));
        assert_eq!(percentile(&s, 95.0), Some(95));
        assert_eq!(percentile(&s, 99.0), Some(99));
        assert_eq!(percentile(&s, 100.0), Some(100));
        assert_eq!(percentile(&s, 0.0), Some(1));
        assert_eq!(percentile(&[7u64], 99.0), Some(7));
        assert_eq!(percentile::<u64>(&[], 50.0), None);
        // Ten samples: p95 is the largest, p50 the fifth.
        let t: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&t, 95.0), Some(10));
        assert_eq!(percentile(&t, 50.0), Some(5));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_are_pythons() {
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[10.0, 20.0, 30.0, 40.0]), Some((12.5, 37.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
