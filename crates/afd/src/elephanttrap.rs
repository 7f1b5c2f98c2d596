//! Single-cache heavy-hitter detection (the ElephantTrap-style
//! comparator).
//!
//! "The closest to our work is done by Yi et al. where a single cache is
//! used to identify elephant flows. Our experiments show that such a
//! scheme can result in large number of false positives due to many mice
//! flows active at any time" (§VI). This module implements that single-
//! level scheme so the Fig. 8 experiments can demonstrate exactly that.

use crate::cache::{CachePolicy, FlowCache, Probe};
use nphash::FlowSlot;

/// A single LFU cache whose residents are reported as heavy hitters.
#[derive(Debug, Clone)]
pub struct ElephantTrap {
    cache: FlowCache,
    hits: u64,
    misses: u64,
}

impl ElephantTrap {
    /// A trap with `entries` slots (compare to an AFC of the same size).
    pub fn new(entries: usize) -> Self {
        ElephantTrap {
            cache: FlowCache::new(entries, CachePolicy::Lfu),
            hits: 0,
            misses: 0,
        }
    }

    /// Offer one packet. On a miss the flow is inserted immediately —
    /// there is no qualifying stage, which is precisely the weakness the
    /// two-level AFD fixes.
    pub fn access(&mut self, flow: FlowSlot) {
        match self.cache.probe(flow) {
            Probe::Hit(s) => {
                self.hits += 1;
                self.cache.bump(s);
            }
            Probe::Miss => {
                self.misses += 1;
                self.cache.insert_missed(flow, 1);
            }
        }
    }

    /// Whether `flow` is currently reported as a heavy hitter.
    pub fn is_aggressive(&self, flow: FlowSlot) -> bool {
        self.cache.contains(flow)
    }

    /// The reported heavy-hitter set, highest counter first.
    pub fn aggressive_flows(&self) -> Vec<FlowSlot> {
        self.cache
            .flows_by_count()
            .into_iter()
            .map(|(f, _)| f)
            .collect()
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Reset the trap.
    pub fn reset(&mut self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FlowSlot {
        FlowSlot::new(i)
    }

    #[test]
    fn inserts_on_first_sight() {
        let mut t = ElephantTrap::new(4);
        t.access(f(1));
        assert!(
            t.is_aggressive(f(1)),
            "single-level trap admits immediately"
        );
    }

    #[test]
    fn mice_churn_pollutes_trap() {
        // One elephant every 4 packets, mice cycling through 1000 flows.
        // LFU protects the elephant, but the remaining slots hold
        // arbitrary mice — i.e. false positives.
        let mut t = ElephantTrap::new(4);
        for i in 0..10_000u32 {
            if i % 4 == 0 {
                t.access(f(999_999));
            } else {
                t.access(f(i % 1000));
            }
        }
        assert!(t.is_aggressive(f(999_999)));
        let residents = t.aggressive_flows();
        assert_eq!(residents.len(), 4);
        // At least one resident is a mouse (count parity: mice each appear
        // ~7–8 times total, far from aggressive).
        assert!(residents.iter().any(|&r| r != f(999_999)));
    }

    #[test]
    fn stats_and_reset() {
        let mut t = ElephantTrap::new(2);
        t.access(f(1));
        t.access(f(1));
        t.access(f(2));
        assert_eq!(t.stats(), (1, 2));
        t.reset();
        assert!(t.aggressive_flows().is_empty());
    }
}
