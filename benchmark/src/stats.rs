//! Order statistics and span arithmetic.  Everything here is exact (computed
//! from the raw samples), not bucketed.

/// Median of `values` (mean of the two middle ones for an even count).
/// `NaN` for an empty slice, so a missing measurement cannot pass as zero.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// with at least `p` percent of the samples at or below it.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of an ascending-sorted sample of whole numbers, interpolated
/// inside the group of equal values that holds the middle rank — Python's
/// `statistics.median_grouped(data, interval=1)`.  Clock readings are whole
/// nanoseconds, so the plain median of a sub-microsecond span is one of a
/// handful of integers and two runs often read exactly alike; each value `v`
/// is taken to stand for `[v − 0.5, v + 0.5)` and the middle rank's place
/// among its ties gives the fraction.
pub fn median_grouped_sorted(sorted: &[u64]) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let middle = sorted[sorted.len() / 2];
    let below = sorted.partition_point(|&v| v < middle);
    let ties = sorted.partition_point(|&v| v <= middle) - below;
    middle as f64 - 0.5 + (sorted.len() as f64 / 2.0 - below as f64) / ties as f64
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the "exclusive" method) — the rule the acceptance check
/// for this benchmark uses.  `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        // Position i*(n+1)/4, 1-based, clamped into [1, n-1].
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the spread measure the
/// repeatability criterion is stated in.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// A span's self time: its duration minus the part of its interval that its
/// child spans cover.  Children are clipped to the parent and overlapping
/// children are counted once.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    if end <= start {
        return 0;
    }
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn the_grouped_median_matches_python_and_breaks_ties_by_rank() {
        // statistics.median_grouped([1, 2, 2, 3, 4, 4, 4, 4, 4, 5]) == 3.7
        assert!((median_grouped_sorted(&[1, 2, 2, 3, 4, 4, 4, 4, 4, 5]) - 3.7).abs() < 1e-12);
        // statistics.median_grouped([1, 3, 3, 5, 7]) == 3.25
        assert_eq!(median_grouped_sorted(&[1, 3, 3, 5, 7]), 3.25);
        // Without ties it is the middle value (odd count).
        assert_eq!(median_grouped_sorted(&[10, 20, 90]), 20.0);
        assert_eq!(median_grouped_sorted(&[7]), 7.0);
        assert!(median_grouped_sorted(&[]).is_nan());
        // Coarse clock ticks no longer pin the value to one integer.
        let mut ticks = vec![41u64; 600];
        ticks.extend(vec![42u64; 401]);
        let smooth = median_grouped_sorted(&ticks);
        assert!((smooth - (40.5 + 500.5 / 600.0)).abs() < 1e-12, "{smooth}");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 100.0);
        assert_eq!(percentile_sorted(&sorted, 95.0), 190.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 200.0);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7], 95.0), 7.0);
        assert!(percentile_sorted(&[], 95.0).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&ten).unwrap();
        assert!((spread - 1.0).abs() < 1e-12, "{spread}");
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        // One child in the middle.
        assert_eq!(self_time((100, 200), &[(120, 150)]), 70);
        // Overlapping children count once; a child past the end is clipped.
        assert_eq!(
            self_time((100, 200), &[(110, 150), (140, 160), (190, 250)]),
            40
        );
        // A child covering everything leaves nothing; no children leaves all.
        assert_eq!(self_time((100, 200), &[(0, 1000)]), 0);
        assert_eq!(self_time((100, 200), &[]), 100);
        // Degenerate parent.
        assert_eq!(self_time((5, 5), &[(0, 10)]), 0);
    }

    #[test]
    fn parts_sum_to_the_whole_per_transaction() {
        // tx ⊃ execute, commit ⊃ certify: the four reported parts tile tx.
        let tx = (0, 1000);
        let execute = (0, 300);
        let commit = (310, 1000);
        let certify = (350, 900);
        let residual = self_time(tx, &[execute, commit]);
        let commit_self = self_time(commit, &[certify]);
        let sum = (execute.1 - execute.0) + (certify.1 - certify.0) + commit_self + residual;
        assert_eq!(sum, tx.1 - tx.0);
    }
}
