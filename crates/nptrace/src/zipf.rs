//! Zipf (discrete power-law) sampling.
//!
//! Flow popularity on real links is heavy-tailed ("the war between mice
//! and elephants"): the paper's Fig. 2 shows rank-size curves that are
//! near-linear on log-log axes. A Zipf distribution with exponent ≈ 1 over
//! flow ranks reproduces exactly that shape.

use rand::Rng;
use std::sync::Arc;

/// A sampler for `P(rank = i) ∝ 1 / (i + q)^s`, `i ∈ 1..=n`, returning
/// 0-based indices.
///
/// The *head offset* `q` (0 = classic Zipf) flattens the first few ranks:
/// real backbone links obey a power law in the tail, but their single
/// largest flow is a low single-digit percentage of traffic, not the
/// `1/H(n)` (~10 %) a pure Zipf head would give. `q ≈ 8–12` reproduces
/// that regime — essential here, because a synthetic flow carrying more
/// than one core's worth of load would make load balancing impossible for
/// *every* scheduler.
///
/// Implemented with a precomputed cumulative table + a quantile index:
/// the index maps a draw to a 1–2 rank CDF window, so the common case is
/// O(1) with two or three cache-line touches instead of a binary search
/// across the full table (~17 scattered lines at backbone flow counts —
/// the dominant per-packet cost of header generation before the index).
/// Exact and deterministic given the RNG stream: a post-search repair
/// walk pins the result to the global `partition_point`, so the index is
/// invisible to replay (property-tested against the plain search below).
///
/// Construction is linear: the bucket thresholds never decrease, so one
/// forward pointer over the table finds every bucket's partition point.
/// Both tables sit behind an `Arc`, so a clone shares them — the trace
/// presets build each sampler once per process
/// ([`crate::TracePreset::generator`]).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Arc<[f64]>,
    /// Quantile index: `index[b]` is the global partition point for
    /// `u = total·b/K` (`K = index.len() - 1` buckets, uniform in
    /// probability mass). A draw `u` lands in bucket `b = ⌊u/total·K⌋`
    /// and by monotonicity its partition point lies in
    /// `index[b]..=index[b+1]`.
    index: Arc<[u32]>,
    /// `cdf.last()`, cached (the unnormalized total mass).
    total: f64,
}

impl ZipfSampler {
    /// Build a classic (unshifted) sampler over `n` ranks, exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is not finite.
    pub fn new(n: usize, s: f64) -> Self {
        Self::shifted(n, s, 0.0)
    }

    /// Build a shifted sampler: `P(rank = i) ∝ 1 / (i + q)^s`.
    ///
    /// # Panics
    /// Panics if `n == 0`, or `s`/`q` are not finite, or `q < 0`.
    pub fn shifted(n: usize, s: f64, q: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            s.is_finite() && s >= 0.0,
            "exponent must be finite and >= 0"
        );
        assert!(
            q.is_finite() && q >= 0.0,
            "head offset must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 1..=n {
            acc += 1.0 / (i as f64 + q).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        // One bucket per rank: since buckets are uniform in probability
        // mass, popular ranks get buckets to themselves and the window a
        // draw must search has expected length ~1.
        let k = n;
        let mut index = Vec::with_capacity(k + 1);
        // `total · (b / k)` never decreases in `b` (both roundings are
        // monotone), so each bucket's `partition_point(|&c| c < u)` lies
        // at or past the previous one: advance one pointer, never search.
        let mut r = 0usize;
        for b in 0..=k {
            let u = total * (b as f64 / k as f64);
            while cdf.get(r).is_some_and(|&c| c < u) {
                r += 1;
            }
            index.push(r as u32);
        }
        ZipfSampler {
            cdf: cdf.into(),
            index: index.into(),
            total,
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the sampler has no ranks (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draw a 0-based rank.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let n = self.cdf.len();
        let u: f64 = rng.gen::<f64>() * self.total;
        let k = self.index.len().saturating_sub(1);
        let b = (((u / self.total) * k as f64) as usize).min(k.saturating_sub(1));
        let (lo, hi) = match (self.index.get(b), self.index.get(b + 1)) {
            (Some(&l), Some(&h)) => (l as usize, h as usize),
            _ => (0, n.saturating_sub(1)),
        };
        let mut r = match self.cdf.get(lo..=hi) {
            Some(sub) => lo + sub.partition_point(|&c| c < u),
            None => self.cdf.partition_point(|&c| c < u),
        };
        // Float rounding in the bucket pick can bracket one rank off;
        // this walk restores the exact global partition point (the
        // predicate `c < u` is monotone with a unique fixed point), so
        // the index cannot change any sampled sequence.
        while r > 0 && self.cdf.get(r - 1).is_some_and(|&c| c >= u) {
            r -= 1;
        }
        while self.cdf.get(r).is_some_and(|&c| c < u) {
            r += 1;
        }
        r.min(n - 1)
    }

    /// The probability mass of rank `i` (0-based).
    pub fn pmf(&self, i: usize) -> f64 {
        let total = *self.cdf.last().expect("non-empty");
        let lo = if i == 0 { 0.0 } else { self.cdf[i - 1] };
        (self.cdf[i] - lo) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        let z = ZipfSampler::new(100, 1.1);
        let total: f64 = (0..100).map(|i| z.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pmf_is_monotone_decreasing() {
        let z = ZipfSampler::new(50, 0.9);
        for i in 1..50 {
            assert!(z.pmf(i) <= z.pmf(i - 1) + 1e-15);
        }
    }

    #[test]
    fn empirical_matches_pmf() {
        let z = ZipfSampler::new(20, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0u32; 20];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let emp = c as f64 / n as f64;
            let exp = z.pmf(i);
            assert!((emp - exp).abs() < 0.01, "rank {i}: emp {emp} vs pmf {exp}");
        }
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        for i in 0..10 {
            assert!((z.pmf(i) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn single_rank() {
        let z = ZipfSampler::new(1, 2.0);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    /// `(n, s, q)` shapes from degenerate to backbone-sized.
    const SHAPES: [(usize, f64, f64); 6] = [
        (1, 1.0, 0.0),
        (2, 0.5, 0.0),
        (3, 0.0, 0.0),
        (17, 1.1, 8.0),
        (1_000, 0.9, 12.0),
        (40_000, 1.05, 10.0),
    ];

    #[test]
    fn quantile_index_matches_plain_search() {
        // The index must be invisible: for the same RNG stream the fast
        // path and a plain full-range partition_point agree on every
        // draw, across `SHAPES`.
        for (n, s, q) in SHAPES {
            let z = ZipfSampler::shifted(n, s, q);
            let mut rng_fast = StdRng::seed_from_u64(99);
            let mut rng_plain = rng_fast.clone();
            for i in 0..20_000 {
                let fast = z.sample(&mut rng_fast);
                let u: f64 = rng_plain.gen::<f64>() * z.total;
                let plain = z.cdf.partition_point(|&c| c < u).min(n - 1);
                assert_eq!(fast, plain, "n={n} s={s} q={q} draw {i}");
            }
        }
    }

    /// The forward-pointer build yields, element for element, the index a
    /// fresh `partition_point` per bucket gives, on `SHAPES` plus the
    /// fourteen presets'. Flipping the build's `c < u` to `c <= u`
    /// fails it on every shape: the last threshold equals `cdf[n - 1]`.
    #[test]
    fn linear_index_equals_searched_index() {
        let presets = crate::TracePreset::all_caida()
            .into_iter()
            .chain(crate::TracePreset::all_auckland())
            .map(|p| p.config(0))
            .map(|c| (c.n_flows as usize, c.zipf_exponent, c.head_offset));
        for (n, s, q) in SHAPES.into_iter().chain(presets) {
            let z = ZipfSampler::shifted(n, s, q);
            let searched: Vec<u32> = (0..=n)
                .map(|b| {
                    let u = z.total * (b as f64 / n as f64);
                    z.cdf.partition_point(|&c| c < u) as u32
                })
                .collect();
            assert_eq!(&z.index[..], &searched[..], "n={n} s={s} q={q}");
        }
    }

    #[test]
    fn samples_in_range() {
        let z = ZipfSampler::new(7, 1.3);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }
}
