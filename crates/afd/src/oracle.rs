//! Exact per-flow counters — the offline ground truth and the
//! per-flow-statistics scheme of Shi et al. (ToN 2005) that LAPS set out
//! to make cheap.
//!
//! "The scheme proposed in [37] keeps stats for each active flow in order
//! to identify the aggressive flows. This requires a lot of overhead and
//! is infeasible in the practical designs" (§III-A). We implement it
//! anyway: it is both the accuracy baseline for Fig. 8 and the
//! "ideal detector" arm of the Fig. 9 ablation.

use nphash::det::DetHashMap;
use nphash::FlowId;
use std::hash::Hash;

/// Exact packet counters for every flow ever seen.
///
/// Generic over the flow key (default [`FlowId`]); the oracle detector
/// arm of the ablation instantiates it with dense `nphash::FlowSlot`s.
#[derive(Debug, Clone)]
pub struct ExactTopK<K = FlowId> {
    counts: DetHashMap<K, u64>,
    total: u64,
}

impl<K> Default for ExactTopK<K> {
    fn default() -> Self {
        ExactTopK {
            counts: DetHashMap::default(),
            total: 0,
        }
    }
}

impl<K: Copy + Eq + Ord + Hash> ExactTopK<K> {
    /// An empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one packet.
    pub fn access(&mut self, flow: K) {
        *self.counts.entry(flow).or_insert(0) += 1;
        self.total += 1;
    }

    /// Exact count of `flow`.
    pub fn count_of(&self, flow: K) -> u64 {
        self.counts.get(&flow).copied().unwrap_or(0)
    }

    /// Total packets counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct flows seen.
    pub fn distinct_flows(&self) -> usize {
        self.counts.len()
    }

    /// The `k` heaviest flows, descending; ties break on the flow ID for
    /// determinism.
    pub fn top_k(&self, k: usize) -> Vec<K> {
        let mut v: Vec<(&K, &u64)> = self.counts.iter().collect();
        v.sort_unstable_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        v.into_iter().take(k).map(|(&f, _)| f).collect()
    }

    /// Forget everything (window boundary).
    pub fn reset(&mut self) {
        self.counts.clear();
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u64) -> FlowId {
        FlowId::from_index(i)
    }

    #[test]
    fn counts_are_exact() {
        let mut o = ExactTopK::new();
        for _ in 0..5 {
            o.access(f(1));
        }
        o.access(f(2));
        assert_eq!(o.count_of(f(1)), 5);
        assert_eq!(o.count_of(f(2)), 1);
        assert_eq!(o.count_of(f(3)), 0);
        assert_eq!(o.total(), 6);
        assert_eq!(o.distinct_flows(), 2);
    }

    #[test]
    fn top_k_ordering_and_ties() {
        let mut o = ExactTopK::new();
        for _ in 0..3 {
            o.access(f(10));
        }
        for _ in 0..3 {
            o.access(f(5));
        }
        o.access(f(1));
        let top = o.top_k(2);
        assert_eq!(top.len(), 2);
        // Both count-3 flows precede the count-1 flow; tie order is
        // deterministic by flow ID.
        assert!(top.contains(&f(10)) && top.contains(&f(5)));
        assert_eq!(o.top_k(2), o.top_k(2));
    }

    #[test]
    fn reset_forgets() {
        let mut o = ExactTopK::new();
        o.access(f(1));
        o.reset();
        assert_eq!(o.total(), 0);
        assert!(o.top_k(5).is_empty());
    }
}
