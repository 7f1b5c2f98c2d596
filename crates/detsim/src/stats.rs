//! Simulation statistics: counters, online means and histograms.
//!
//! These are the building blocks of the simulation reports (drop counts,
//! latency distributions, …).

use serde::{Deserialize, Serialize};

/// A plain monotone event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter(u64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Add one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Add `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }
}

/// Welford's online mean/variance accumulator.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct WelfordMean {
    n: u64,
    mean: f64,
    /// Sum of squared deviations from the running mean.
    m2: f64,
}

impl WelfordMean {
    /// An empty accumulator.
    pub fn new() -> Self {
        WelfordMean {
            n: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Fold in one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        // Welford's recurrence: the mean update is itself a correction
        // that shrinks as 1/n, and `m2` accumulates products of two
        // deviations rather than raw squares, so neither update loses
        // the precision a naive sum of squares would.
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (unbiased; 0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// A log-scaled latency histogram over `u64` nanosecond samples.
///
/// Buckets are powers of two of nanoseconds (bucket *i* holds samples in
/// `[2^i, 2^(i+1))`, bucket 0 holds `[0, 2)`), giving ~2× resolution over
/// twelve decades — enough to summarize packet latencies without
/// per-sample storage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v < 2 {
            0
        } else {
            63 - v.leading_zeros() as usize
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate `q`-quantile (0 ≤ q ≤ 1): upper bound of the bucket
    /// containing the q-th sample.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0)) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Upper edge of bucket i.
                return if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn welford_matches_direct_computation() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = WelfordMean::new();
        for &x in &data {
            w.push(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic dataset is 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_bound_samples() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        let p50 = h.quantile(0.5);
        // True median 500; bucket upper bound must be >= 500 and within 2x.
        assert!((500..=1023).contains(&p50), "p50={p50}");
        assert_eq!(h.max(), 1000);
        assert_eq!(h.quantile(1.0), 1023);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1000);
    }

    #[test]
    fn histogram_zero_and_extremes() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.5), 1, "0 and 1 share bucket 0");
        assert_eq!(h.max(), u64::MAX);
    }
}
