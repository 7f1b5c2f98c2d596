//! Order statistics and the report digest.

/// The `q`-quantile (0..=1) of `values`, linearly interpolated between
/// the two nearest order statistics. `None` when `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `values`; 0 when empty (a layer that did no work).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// Interquartile range as a share of the median, with the quartiles
/// Python's `statistics.quantiles(values, n=4)` gives (the "exclusive"
/// method) — the spread the acceptance rule of the benchmark uses.
/// `None` below two samples or at a zero median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |p: f64| {
        // Exclusive method: position p·(n+1) on 1-based order statistics.
        let pos = (p * (n + 1) as f64).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(n);
        sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * (pos - lo as f64)
    };
    let med = at(0.5);
    (med != 0.0).then(|| (at(0.75) - at(0.25)) / med.abs())
}

/// Digest of a value's full `Debug` rendering (every field of a
/// `SimReport`, histogram buckets included) — what two repetitions must
/// share. `detsim::derive_seed` is the workspace's FNV-1a-then-SplitMix
/// string hash; any deterministic 64-bit hash would do.
pub fn debug_digest<T: std::fmt::Debug>(value: &T) -> u64 {
    detsim::derive_seed(0, &format!("{value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_interpolates_and_clamps() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), Some(10.0));
        assert_eq!(quantile(&v, 1.0), Some(50.0));
        assert_eq!(quantile(&v, 0.25), Some(20.0));
        assert_eq!(quantile(&v, 0.1), Some(14.0));
        assert_eq!(quantile(&v, 7.0), Some(50.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = iqr_share(&v).expect("ten samples");
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        assert_eq!(iqr_share(&[1.0]), None);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn digest_separates_and_repeats() {
        assert_eq!(debug_digest(&(1u8, "x")), debug_digest(&(1u8, "x")));
        assert_ne!(debug_digest(&(1u8, "x")), debug_digest(&(2u8, "x")));
    }
}
