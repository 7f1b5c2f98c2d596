//! Property-based tests on the detector structures.

use npafd::{Afd, AfdConfig, CachePolicy, ElephantTrap, ExactTopK, PromotionPolicy, SpaceSaving};
use nphash::{FlowId, FlowSlot};
use proptest::prelude::*;

fn f(i: u64) -> FlowId {
    FlowId::from_index(i)
}

/// The detectors' key: a dense flow slot.
fn s(i: u64) -> FlowSlot {
    FlowSlot::new(i as u32)
}

proptest! {
    /// AFC occupancy never exceeds its capacity; annex likewise; every
    /// reported aggressive flow was actually offered.
    #[test]
    fn afd_capacity_and_soundness(
        stream in proptest::collection::vec(0u64..64, 1..2_000),
        afc in 1usize..8,
        annex in 1usize..64,
        thresh in 0u64..6,
        competitive in any::<bool>(),
    ) {
        let mut afd = Afd::new(AfdConfig {
            afc_entries: afc,
            annex_entries: annex,
            promote_threshold: thresh,
            sample_prob: 1.0,
            policy: CachePolicy::Lfu,
            promotion: if competitive { PromotionPolicy::Competitive } else { PromotionPolicy::Always },
        });
        let mut seen = std::collections::BTreeSet::new();
        for &x in &stream {
            afd.access(s(x));
            seen.insert(s(x));
            prop_assert!(afd.afc().len() <= afc);
            prop_assert!(afd.annex().len() <= annex);
        }
        for fl in afd.aggressive_flows() {
            prop_assert!(seen.contains(&fl));
        }
        // Stats balance for every configuration.
        let s = *afd.stats();
        prop_assert_eq!(s.offered, stream.len() as u64);
        prop_assert_eq!(s.afc_hits + s.annex_hits + s.misses, s.sampled);
    }

    /// A flow cannot be in both AFD levels simultaneously.
    #[test]
    fn afd_levels_are_disjoint(stream in proptest::collection::vec(0u64..32, 1..1_000)) {
        let mut afd = Afd::new(AfdConfig {
            afc_entries: 4,
            annex_entries: 16,
            ..AfdConfig::default()
        });
        for &x in &stream {
            afd.access(s(x));
            prop_assert!(!(afd.afc().contains(s(x)) && afd.annex().contains(s(x))),
                "flow resident in both AFC and annex");
        }
    }

    /// SpaceSaving: estimates dominate true counts; total is exact; the
    /// structural error bound `estimate - lower_bound <= total/capacity`
    /// holds for every tracked flow.
    #[test]
    fn spacesaving_error_bound(
        stream in proptest::collection::vec(0u64..48, 1..2_000),
        cap in 1usize..32,
    ) {
        let mut ss = SpaceSaving::new(cap);
        let mut truth = ExactTopK::new();
        for &x in &stream {
            ss.access(f(x));
            truth.access(f(x));
            prop_assert!(ss.len() <= cap);
        }
        prop_assert_eq!(ss.total(), stream.len() as u64);
        for fl in ss.top_k(cap) {
            let est = ss.estimate(fl).expect("listed flow is tracked");
            prop_assert!(est >= truth.count_of(fl), "underestimate");
            let over = est - ss.lower_bound(fl).expect("tracked");
            prop_assert!(over <= ss.total() / cap as u64,
                "overestimate {over} above N/m bound");
        }
    }

    /// SpaceSaving majority guarantee: any flow with count > N/m is
    /// tracked at stream end.
    #[test]
    fn spacesaving_majority_guarantee(
        stream in proptest::collection::vec(0u64..24, 16..1_500),
        cap in 2usize..16,
    ) {
        let mut ss = SpaceSaving::new(cap);
        let mut truth = ExactTopK::new();
        for &x in &stream {
            ss.access(f(x));
            truth.access(f(x));
        }
        let n = stream.len() as u64;
        for x in 0..24u64 {
            if truth.count_of(f(x)) > n / cap as u64 {
                prop_assert!(ss.estimate(f(x)).is_some(),
                    "flow above N/m lost (count {}, bound {})",
                    truth.count_of(f(x)), n / cap as u64);
            }
        }
    }

    /// ElephantTrap capacity and stats sanity.
    #[test]
    fn trap_invariants(stream in proptest::collection::vec(0u64..100, 1..1_000), cap in 1usize..16) {
        let mut t = ElephantTrap::new(cap);
        for &x in &stream {
            t.access(s(x));
            prop_assert!(t.aggressive_flows().len() <= cap);
        }
        let (h, m) = t.stats();
        prop_assert_eq!(h + m, stream.len() as u64);
    }
}
