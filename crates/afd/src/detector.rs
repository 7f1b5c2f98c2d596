//! The two-level Aggressive Flow Detector (Fig. 4).
//!
//! Per-packet behaviour (§III-F):
//!
//! 1. **AFC hit** → increment the hit counter. The flow is (and stays)
//!    aggressive.
//! 2. **Annex hit** → increment the flow counter; if it exceeds the
//!    promotion threshold, promote the flow into the AFC. The AFC's LFU
//!    victim is demoted into the annex (which has a free slot, since the
//!    promoted flow just left it).
//! 3. **Miss in both** → the flow replaces the LFU flow of the annex.
//!
//! Packets may be *sampled* with probability `p` (Fig. 8c): unsampled
//! packets skip the AFD entirely, cutting detector power draw — and, as
//! the paper observes, mild sampling even *improves* accuracy because
//! heavy flows are proportionally more likely to be sampled.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use crate::cache::{CachePolicy, FlowCache, Probe};
use nphash::FlowSlot;
use serde::{Deserialize, Serialize};

/// How annex→AFC promotion is decided once the threshold is crossed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromotionPolicy {
    /// Promote unconditionally, demoting the AFC's LFU victim — the
    /// paper-literal §III-F behaviour. Exhibits some false positives
    /// (transient flows briefly displace established ones), which is
    /// exactly the Fig. 8(a) annex-size sensitivity.
    Always,
    /// Promote only if the challenger's count beats the AFC's LFU victim
    /// (LFU-consistent). Near-zero false positives. No registered
    /// scheduler selects it — `laps` and `topk-afd` keep the default
    /// `Always` — only the detector tests do.
    Competitive,
}

/// AFD configuration.
#[derive(Debug, Clone, Copy)]
pub struct AfdConfig {
    /// AFC entries — the maximum number of flows reported aggressive
    /// (paper: 16).
    pub afc_entries: usize,
    /// Annex cache entries — the qualifying pool (paper sweeps 64–2048;
    /// 512 suffices for edge traces, 1024 for backbone).
    pub annex_entries: usize,
    /// Annex hit count a flow must exceed to be promoted to the AFC.
    pub promote_threshold: u64,
    /// Sampling probability `p` (1.0 = inspect every packet).
    pub sample_prob: f64,
    /// Replacement policy for both levels (paper: LFU).
    pub policy: CachePolicy,
    /// Promotion policy (paper-literal `Always` by default).
    pub promotion: PromotionPolicy,
}

impl Default for AfdConfig {
    fn default() -> Self {
        AfdConfig {
            afc_entries: 16,
            annex_entries: 512,
            promote_threshold: 3,
            sample_prob: 1.0,
            policy: CachePolicy::Lfu,
            promotion: PromotionPolicy::Always,
        }
    }
}

/// What happened on one AFD access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AfdAccess {
    /// The flow hit in the AFC (it is aggressive).
    AfcHit,
    /// The flow hit in the annex cache; `promoted` reports whether this
    /// access pushed it over the threshold into the AFC.
    AnnexHit {
        /// Whether this access promoted the flow into the AFC.
        promoted: bool,
    },
    /// The flow missed both levels and was installed in the annex.
    Miss,
    /// The packet was not sampled (sampling probability < 1).
    NotSampled,
}

/// Cumulative AFD statistics.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct AfdStats {
    /// Packets offered to the detector (including unsampled ones).
    pub offered: u64,
    /// Packets actually inspected.
    pub sampled: u64,
    /// AFC hits.
    pub afc_hits: u64,
    /// Annex hits.
    pub annex_hits: u64,
    /// Misses in both levels.
    pub misses: u64,
    /// Promotions annex → AFC.
    pub promotions: u64,
    /// Invalidations requested by the scheduler.
    pub invalidations: u64,
}

/// The Aggressive Flow Detector.
///
/// Keyed by the dense [`FlowSlot`]s the simulator assigns, so each
/// level finds a flow with one residency-table load; the key parameter
/// admits only that type.
#[derive(Debug, Clone)]
pub struct Afd<K = FlowSlot> {
    cfg: AfdConfig,
    afc: FlowCache<K>,
    annex: FlowCache<K>,
    stats: AfdStats,
    /// Deterministic sampling state (xorshift64*), independent of any
    /// external RNG so sampling does not perturb other streams.
    sample_state: u64,
}

impl Afd<FlowSlot> {
    /// Build a detector.
    ///
    /// # Panics
    /// Panics if either cache size is zero or `sample_prob ∉ (0, 1]`.
    pub fn new(cfg: AfdConfig) -> Self {
        assert!(
            cfg.sample_prob > 0.0 && cfg.sample_prob <= 1.0,
            "sample probability must be in (0, 1]"
        );
        Afd {
            afc: FlowCache::new(cfg.afc_entries, cfg.policy),
            annex: FlowCache::new(cfg.annex_entries, cfg.policy),
            cfg,
            stats: AfdStats::default(),
            sample_state: 0x9E3779B97F4A7C15,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AfdConfig {
        &self.cfg
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &AfdStats {
        &self.stats
    }

    fn sample_coin(&mut self) -> bool {
        if self.cfg.sample_prob >= 1.0 {
            return true;
        }
        // xorshift64* — cheap, deterministic, full-period.
        let mut x = self.sample_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.sample_state = x;
        let u = (x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64;
        u < self.cfg.sample_prob
    }

    /// Offer one packet's flow slot to the detector.
    pub fn access(&mut self, flow: FlowSlot) -> AfdAccess {
        self.stats.offered += 1;
        if !self.sample_coin() {
            return AfdAccess::NotSampled;
        }
        self.stats.sampled += 1;

        // One residency lookup per level: a hit is bumped (or promoted)
        // through the slot the lookup found.
        if let Probe::Hit(s) = self.afc.probe(flow) {
            self.afc.bump(s);
            self.stats.afc_hits += 1;
            return AfdAccess::AfcHit;
        }
        match self.annex.probe(flow) {
            Probe::Hit(s) => {
                self.stats.annex_hits += 1;
                let count = self.annex.count_at(s).saturating_add(1);
                // Past the threshold the flow is promoted; under the
                // `Competitive` policy a challenger must additionally
                // out-count the AFC's current LFU victim (keeps one lucky
                // mouse burst from evicting an established aggressive flow).
                let promotable = count > self.cfg.promote_threshold
                    && (self.cfg.promotion == PromotionPolicy::Always
                        || !self.afc.is_full()
                        || self.afc.victim().is_none_or(|(_, vc)| count > vc));
                if !promotable {
                    self.annex.bump(s);
                    return AfdAccess::AnnexHit { promoted: false };
                }
                // The flow leaves the annex for the AFC. "The victim flow
                // from AFC is then placed in the annex cache" (into the
                // slot the promoted flow just freed). It keeps its full
                // count — the inertia the paper describes: a demoted flow
                // re-promotes on its next hit if it still out-counts the
                // AFC victim.
                self.annex.remove_at(s);
                if let Some((victim, vcount)) = self.afc.insert_missed(flow, count) {
                    self.annex.insert(victim, vcount);
                }
                self.stats.promotions += 1;
                AfdAccess::AnnexHit { promoted: true }
            }
            Probe::Miss => {
                // Miss in both: qualify via the annex.
                self.annex.insert_missed(flow, 1);
                self.stats.misses += 1;
                AfdAccess::Miss
            }
        }
    }

    /// Whether `flow` is currently considered aggressive (= resident in
    /// the AFC). Read-only: does not touch counters.
    pub fn is_aggressive(&self, flow: FlowSlot) -> bool {
        self.afc.contains(flow)
    }

    /// The current aggressive set, highest counter first.
    pub fn aggressive_flows(&self) -> Vec<FlowSlot> {
        self.afc
            .flows_by_count()
            .into_iter()
            .map(|(f, _)| f)
            // npcheck: allow(blocking-hot-path) — reporting accessor, not on the per-packet path
            .collect()
    }

    /// Scheduler feedback: `flow` was just migrated, drop it from the AFC
    /// so it is not immediately re-migrated (Listing 1, line 8).
    ///
    /// The flow is demoted to the annex with a reset counter: having just
    /// been rebalanced it must re-prove its aggressiveness before it can
    /// be moved again — this is what prevents an elephant from
    /// ping-ponging between cores while an overload persists.
    pub fn invalidate(&mut self, flow: FlowSlot) {
        if self.afc.remove(flow).is_some() {
            self.stats.invalidations += 1;
            self.annex.insert(flow, 1);
        }
    }

    /// Reset both cache levels (e.g. at a measurement-window boundary).
    pub fn reset(&mut self) {
        self.afc.clear();
        self.annex.clear();
    }

    /// Direct read access to the AFC (tests, experiments).
    pub fn afc(&self) -> &FlowCache {
        &self.afc
    }

    /// Direct read access to the annex cache (tests, experiments).
    pub fn annex(&self) -> &FlowCache {
        &self.annex
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FlowSlot {
        FlowSlot::new(i)
    }

    fn small() -> Afd {
        Afd::new(AfdConfig {
            afc_entries: 2,
            annex_entries: 8,
            promote_threshold: 3,
            ..AfdConfig::default()
        })
    }

    #[test]
    fn first_access_is_miss_into_annex() {
        let mut a = small();
        assert_eq!(a.access(f(1)), AfdAccess::Miss);
        assert!(a.annex().contains(f(1)));
        assert!(!a.is_aggressive(f(1)));
    }

    #[test]
    fn promotion_requires_threshold_hits() {
        let mut a = small();
        a.access(f(1)); // miss, count 1
        assert_eq!(a.access(f(1)), AfdAccess::AnnexHit { promoted: false }); // 2
        assert_eq!(a.access(f(1)), AfdAccess::AnnexHit { promoted: false }); // 3
        assert_eq!(a.access(f(1)), AfdAccess::AnnexHit { promoted: true }); // 4 > 3
        assert!(a.is_aggressive(f(1)));
        assert!(!a.annex().contains(f(1)), "promoted flow must leave annex");
        assert_eq!(a.access(f(1)), AfdAccess::AfcHit);
    }

    #[test]
    fn rare_flows_never_enter_afc() {
        let mut a = small();
        // 100 distinct flows seen once each: annex churns, AFC stays empty.
        for i in 0..100 {
            a.access(f(i));
        }
        assert!(a.aggressive_flows().is_empty());
        assert_eq!(a.stats().promotions, 0);
    }

    #[test]
    fn afc_victim_is_demoted_to_annex() {
        let mut a = small();
        // Fill the 2-entry AFC with two heavy flows.
        for _ in 0..5 {
            a.access(f(1));
        }
        for _ in 0..6 {
            a.access(f(2));
        }
        assert!(a.is_aggressive(f(1)) && a.is_aggressive(f(2)));
        // A third, heavier flow promotes; LFU victim (f1) is demoted.
        for _ in 0..10 {
            a.access(f(3));
        }
        assert!(a.is_aggressive(f(3)));
        let demoted = if a.is_aggressive(f(1)) { f(2) } else { f(1) };
        assert!(
            a.annex().contains(demoted),
            "victim must fall back to annex"
        );
    }

    #[test]
    fn invalidate_removes_from_afc() {
        let mut a = small();
        for _ in 0..5 {
            a.access(f(1));
        }
        assert!(a.is_aggressive(f(1)));
        a.invalidate(f(1));
        assert!(!a.is_aggressive(f(1)));
        assert_eq!(a.stats().invalidations, 1);
        // Invalidating a non-resident flow is a no-op.
        a.invalidate(f(99));
        assert_eq!(a.stats().invalidations, 1);
    }

    #[test]
    fn elephant_found_among_mice() {
        let mut a = Afd::new(AfdConfig {
            afc_entries: 4,
            annex_entries: 64,
            ..AfdConfig::default()
        });
        // Interleave: every 5th packet is the elephant, rest are mice
        // cycling through 200 flows (enough to churn the annex).
        for i in 0..5_000u32 {
            if i % 5 == 0 {
                a.access(f(1_000_000));
            } else {
                a.access(f(i % 200));
            }
        }
        assert!(a.is_aggressive(f(1_000_000)));
    }

    #[test]
    fn sampling_skips_packets_deterministically() {
        let mk = || {
            Afd::new(AfdConfig {
                sample_prob: 0.1,
                ..AfdConfig::default()
            })
        };
        let mut a = mk();
        let mut skipped = 0;
        for i in 0..10_000u32 {
            if a.access(f(i % 50)) == AfdAccess::NotSampled {
                skipped += 1;
            }
        }
        // ~90% skipped.
        assert!(skipped > 8_500 && skipped < 9_500, "skipped {skipped}");
        assert_eq!(a.stats().sampled + skipped, 10_000);
        // Deterministic: a fresh detector reproduces the exact sequence.
        let mut b = mk();
        let mut skipped_b = 0;
        for i in 0..10_000u32 {
            if b.access(f(i % 50)) == AfdAccess::NotSampled {
                skipped_b += 1;
            }
        }
        assert_eq!(skipped, skipped_b);
    }

    #[test]
    fn stats_balance() {
        let mut a = small();
        for i in 0..500u32 {
            a.access(f(i % 7));
        }
        let s = *a.stats();
        assert_eq!(s.offered, 500);
        assert_eq!(s.sampled, 500);
        assert_eq!(s.afc_hits + s.annex_hits + s.misses, 500);
    }

    #[test]
    fn reset_clears_both_levels() {
        let mut a = small();
        for _ in 0..10 {
            a.access(f(1));
        }
        a.reset();
        assert!(a.aggressive_flows().is_empty());
        assert_eq!(a.access(f(1)), AfdAccess::Miss);
    }

    #[test]
    #[should_panic(expected = "sample probability")]
    fn zero_sampling_rejected() {
        Afd::new(AfdConfig {
            sample_prob: 0.0,
            ..AfdConfig::default()
        });
    }
}
