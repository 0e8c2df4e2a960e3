//! Medians and latency percentiles.

/// Median of `xs` (mean of the middle two for an even count); NaN if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of whole-nanosecond samples (sorted ascending), read
/// off the grouped-data CDF: each integer value `v` stands for the interval
/// `[v - 0.5, v + 0.5)` and the quantile is interpolated inside it. A short
/// operation's latencies take few distinct integer values, so a plain order
/// statistic would read the same on every run; this one keeps the digits
/// the counts carry.
pub fn quantile_ns(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).clamp(0.0, sorted.len() as f64 - 0.5);
    let v = sorted[rank as usize];
    let lo = sorted.partition_point(|&x| x < v);
    let hi = sorted.partition_point(|&x| x <= v);
    f64::from(v) - 0.5 + (rank - lo as f64) / (hi - lo) as f64
}

/// Samples strictly above the `q`-quantile: the guide's "at least ten
/// beyond the reported percentile" is checked against this.
pub fn beyond(sorted: &[u32], q: f64) -> usize {
    let v = quantile_ns(sorted, q);
    sorted.len() - sorted.partition_point(|&x| f64::from(x) <= v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantile_interpolates_within_ties() {
        let s = [10, 10, 10, 10, 20, 20, 20, 20, 20, 20];
        let p50 = quantile_ns(&s, 0.5);
        assert!(p50 > 19.5 && p50 < 20.5, "{p50}");
        // Moving one sample across the tie moves the estimate, where an
        // order statistic would still read 20.
        let t = [10, 10, 10, 20, 20, 20, 20, 20, 20, 20];
        assert!(quantile_ns(&t, 0.5) > p50);
        assert_eq!(quantile_ns(&[7], 0.99), 7.0);
        assert_eq!(beyond(&s, 0.2), 6);
    }
}
