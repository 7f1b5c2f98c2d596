//! Incremental (linear) hashing — §III-C of the paper.
//!
//! A service starts with `m` map-table buckets and hash `h₁(k) = H(k) mod
//! m`. When an extra core is granted, the bucket count `b` grows by one
//! and the flows of exactly one bucket are split between their old bucket
//! and the new one, using `h₂(k) = H(k) mod 2m`:
//!
//! ```text
//! h(k) = h₂(k)   if h₁(k) <  b − m      (bucket already split)
//!        h₁(k)   if h₁(k) >= b − m      (bucket not yet split)
//! ```
//!
//! When `b` reaches `2m`, the base doubles (`m ← 2m`) and splitting starts
//! over. Shrinking reverses a split: the highest bucket merges back into
//! its parent. The payoff (verified by property tests here) is that one
//! grow step remaps only ~`1/b` of the flow space — the minimum possible —
//! instead of the ~`1 − 1/b` a naive `mod b` rehash would remap.

use serde::{Deserialize, Serialize};

/// Incremental hash state: `(m, b)` with `m ≤ b ≤ 2m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IncrementalHash {
    m: u32,
    b: u32,
}

impl IncrementalHash {
    /// Start with `initial_buckets` buckets (the paper's `m`). Must be ≥ 1.
    ///
    /// # Panics
    /// Panics if `initial_buckets == 0`.
    pub fn new(initial_buckets: u32) -> Self {
        assert!(initial_buckets >= 1, "need at least one bucket");
        IncrementalHash {
            m: initial_buckets,
            b: initial_buckets,
        }
    }

    /// Current number of buckets in use (`b`).
    pub fn buckets(&self) -> u32 {
        self.b
    }

    /// Map a raw hash value to a bucket index `< b`.
    #[inline]
    pub fn bucket(&self, hash: u64) -> u32 {
        let h1 = (hash % self.m as u64) as u32;
        if h1 < self.b - self.m {
            (hash % (2 * self.m as u64)) as u32
        } else {
            h1
        }
    }

    /// Add one bucket (a core was granted). Returns the index of the new
    /// bucket (`b_old`), whose flows come from bucket `b_old − m`.
    pub fn grow(&mut self) -> u32 {
        if self.b == 2 * self.m {
            self.m *= 2;
        }
        let new_bucket = self.b;
        self.b += 1;
        new_bucket
    }

    /// Remove the highest bucket (a core was released). Its flows merge
    /// back into bucket `b_new − m` (the parent). Returns the index of the
    /// removed bucket, or `None` if only one bucket remains.
    pub fn shrink(&mut self) -> Option<u32> {
        if self.b <= 1 {
            return None;
        }
        if self.b == self.m {
            // All buckets are "unsplit" under the current base; halve it
            // so the top bucket becomes a split bucket that can merge.
            self.m /= 2;
            if self.m == 0 {
                self.m = 1;
            }
        }
        self.b -= 1;
        Some(self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_always_in_range() {
        let mut ih = IncrementalHash::new(4);
        for _ in 0..40 {
            for h in 0..10_000u64 {
                let bk = ih.bucket(h.wrapping_mul(0x9E3779B97F4A7C15));
                assert!(bk < ih.buckets(), "bucket {bk} >= b {}", ih.buckets());
            }
            ih.grow();
        }
    }

    #[test]
    fn grow_splits_exactly_one_bucket() {
        let mut ih = IncrementalHash::new(4);
        let hashes: Vec<u64> = (0..20_000u64).map(|h| h.wrapping_mul(2654435761)).collect();
        for _ in 0..12 {
            let before: Vec<u32> = hashes.iter().map(|&h| ih.bucket(h)).collect();
            let new_bucket = ih.grow();
            let parent = new_bucket - ih.m;
            for (&h, &old) in hashes.iter().zip(before.iter()) {
                let new = ih.bucket(h);
                if new != old {
                    // Only flows of the split bucket move, and only to the
                    // new bucket.
                    assert_eq!(old, parent, "flow moved from non-split bucket {old}");
                    assert_eq!(new, new_bucket);
                }
            }
        }
    }

    #[test]
    fn grow_remaps_small_fraction() {
        let mut ih = IncrementalHash::new(8);
        let hashes: Vec<u64> = (0..50_000u64)
            .map(|h| h.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let before: Vec<u32> = hashes.iter().map(|&h| ih.bucket(h)).collect();
        ih.grow();
        let moved = hashes
            .iter()
            .zip(before.iter())
            .filter(|(&h, &old)| ih.bucket(h) != old)
            .count();
        // Expected: half of bucket 0 ≈ 1/16 of flows; allow slack.
        let frac = moved as f64 / hashes.len() as f64;
        assert!(frac < 0.10, "grow remapped {frac:.3} of flows");
        assert!(
            frac > 0.01,
            "grow remapped suspiciously few flows ({frac:.4})"
        );
    }

    #[test]
    fn shrink_is_inverse_of_grow() {
        let mut ih = IncrementalHash::new(4);
        let hashes: Vec<u64> = (0..5_000u64).map(|h| h.wrapping_mul(48271)).collect();
        let before: Vec<u32> = hashes.iter().map(|&h| ih.bucket(h)).collect();
        let state0 = ih;
        ih.grow();
        ih.shrink();
        assert_eq!(ih, state0);
        let after: Vec<u32> = hashes.iter().map(|&h| ih.bucket(h)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn base_doubles_at_2m() {
        let mut ih = IncrementalHash::new(4);
        for _ in 0..4 {
            ih.grow();
        }
        assert_eq!(ih.buckets(), 8);
        assert_eq!(ih.m, 4);
        ih.grow(); // b was 2m → base doubles first
        assert_eq!(ih.buckets(), 9);
        assert_eq!(ih.m, 8);
    }

    #[test]
    fn shrink_to_one_and_floor() {
        let mut ih = IncrementalHash::new(4);
        for _ in 0..3 {
            assert!(ih.shrink().is_some());
        }
        assert_eq!(ih.buckets(), 1);
        assert_eq!(ih.shrink(), None);
        assert_eq!(ih.buckets(), 1);
        for h in 0..100 {
            assert_eq!(ih.bucket(h), 0);
        }
    }

    #[test]
    fn grow_from_one_bucket() {
        let mut ih = IncrementalHash::new(1);
        assert_eq!(ih.bucket(12345), 0);
        ih.grow();
        assert_eq!(ih.buckets(), 2);
        // Both buckets reachable.
        let mut seen = [false; 2];
        for h in 0..100u64 {
            seen[ih.bucket(h) as usize] = true;
        }
        assert!(seen[0] && seen[1]);
    }
}
