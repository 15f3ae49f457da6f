//! Order statistics used by every report: nearest-rank percentiles for
//! latencies and the median of set-up times.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `values`: the
/// smallest sample such that at least `p`% of the samples are at or below it.
/// `None` for an empty slice.
pub fn nearest_rank(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many of `n` samples lie strictly above the nearest-rank `p`-th
/// percentile (assuming distinct values): the tail a percentile rests on.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1))
}

/// The median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_covering_sample() {
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(nearest_rank(&values, 50.0), Some(10.0));
        assert_eq!(nearest_rank(&values, 95.0), Some(19.0));
        assert_eq!(nearest_rank(&values, 100.0), Some(20.0));
        assert_eq!(nearest_rank(&values, 1.0), Some(1.0));
        // Order of the input does not matter.
        let reversed: Vec<f64> = values.iter().rev().copied().collect();
        assert_eq!(nearest_rank(&reversed, 95.0), Some(19.0));
        assert_eq!(nearest_rank(&[7.5], 50.0), Some(7.5));
        assert_eq!(nearest_rank(&[], 50.0), None);
        // 5 samples: p50 is the 3rd, p95 the 5th.
        assert_eq!(nearest_rank(&[5.0, 1.0, 4.0, 2.0, 3.0], 50.0), Some(3.0));
        assert_eq!(nearest_rank(&[5.0, 1.0, 4.0, 2.0, 3.0], 95.0), Some(5.0));
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(199, 95.0), 9);
        assert_eq!(samples_beyond(20, 95.0), 1);
        assert_eq!(samples_beyond(1000, 50.0), 500);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
