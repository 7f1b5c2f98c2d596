//! Differential tests: the flat O(1) [`FlowCache`] and the [`Afd`] built
//! on it against the `BTreeSet` reference implementations in
//! `oracle/` — every return value, the victim and the occupancy after
//! every step, full contents at checkpoints.

mod oracle;

use npafd::{Afd, AfdConfig, CachePolicy, FlowCache, PromotionPolicy};
use nphash::FlowSlot;
use oracle::{OracleAfd, OracleCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One random operation stream of the differential grid.
#[derive(Debug, Clone, Copy)]
struct Cell {
    policy: CachePolicy,
    capacity: usize,
    key_space: u64,
    steps: usize,
    seed: u64,
    /// Key `i` of the stream is flow slot `i * stride`: 1 keeps the
    /// slots dense, a wide stride spreads them so the residency table
    /// grows far past the cache's capacity.
    stride: u64,
}

/// Capacities 1, 2, 16, 512 against key spaces smaller than, around, and
/// far beyond capacity, plus one cell on slots spread over 0..2²² — per
/// policy.
fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    let mut push = |policy, capacity, key_space, steps, stride| {
        let seed = cells.len() as u64 + 1;
        cells.push(Cell {
            policy,
            capacity,
            key_space,
            steps,
            seed,
            stride,
        });
    };
    for policy in [CachePolicy::Lfu, CachePolicy::Lru] {
        for capacity in [1usize, 2, 16, 512] {
            let cap = capacity as u64;
            let steps = if capacity >= 512 { 30_000 } else { 12_000 };
            for key_space in [cap.div_ceil(2), cap + 3, cap * 64 + 1_000] {
                push(policy, capacity, key_space, steps, 1);
            }
        }
        push(policy, 16, 40, 12_000, 1);
        push(policy, 512, 100_000, 30_000, 1);
        push(policy, 512, 1 << 10, 30_000, 1 << 12);
    }
    cells
}

/// Drive both caches with one random operation stream and compare them
/// step by step (`mutant`: against the oracle with LFU's tie-break
/// flipped); panics at the first divergence.
fn run_cache_diff(cell: Cell, mutant: bool) {
    let Cell {
        policy,
        capacity,
        key_space,
        steps,
        seed,
        stride,
    } = cell;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut new = FlowCache::new(capacity, policy);
    let mut old = if mutant {
        assert_eq!(policy, CachePolicy::Lfu, "the mutant flips LFU's tie-break");
        OracleCache::lfu_newest_first(capacity)
    } else {
        OracleCache::new(capacity, policy)
    };
    let ctx = format!("{policy:?} cap {capacity} keys {key_space} seed {seed}");
    for step in 0..steps {
        let k = FlowSlot::new((rng.gen_range(0..key_space) * stride) as u32);
        let roll = rng.gen_range(0u32..1000);
        if roll < 400 {
            assert_eq!(new.touch(k), old.touch(k), "touch, step {step}, {ctx}");
        } else if roll < 650 {
            // The detector's miss path: touch, and on a miss insert at 1.
            let hit = new.touch(k);
            assert_eq!(hit, old.touch(k), "touch, step {step}, {ctx}");
            if hit.is_none() {
                assert_eq!(
                    new.insert(k, 1),
                    old.insert(k, 1),
                    "insert after miss, step {step}, {ctx}"
                );
            }
        } else if roll < 850 {
            // Insert at an arbitrary count (a demotion): small counts
            // that collide with occupied ranks, the current victim's
            // rank, wide counts that open new buckets anywhere in the
            // list, and the saturated counter.
            let count = match rng.gen_range(0u32..10) {
                0..=3 => rng.gen_range(1u64..8),
                4..=5 => old.victim().map_or(1, |(_, c)| c),
                6..=8 => rng.gen_range(1u64..5_000),
                _ => u64::MAX - rng.gen_range(0u64..2),
            };
            assert_eq!(
                new.insert(k, count),
                old.insert(k, count),
                "insert({count}), step {step}, {ctx}"
            );
        } else if roll < 998 {
            assert_eq!(new.remove(k), old.remove(k), "remove, step {step}, {ctx}");
        } else {
            new.clear();
            old.clear();
        }
        assert_eq!(new.victim(), old.victim(), "victim, step {step}, {ctx}");
        assert_eq!(new.len(), old.len(), "len, step {step}, {ctx}");
        assert_eq!(new.is_empty(), old.is_empty());
        assert_eq!(new.is_full(), old.is_full());
        assert_eq!(
            new.count_of(k),
            old.count_of(k),
            "count, step {step}, {ctx}"
        );
        assert_eq!(new.contains(k), old.contains(k));
        if step % 509 == 0 {
            assert_eq!(new.flows_by_count(), old.flows_by_count(), "{ctx}");
        }
    }
    assert_eq!(new.capacity(), old.capacity());
    assert_eq!(new.flows_by_count(), old.flows_by_count(), "final, {ctx}");
}

#[test]
fn flat_cache_matches_btree_oracle() {
    for cell in grid() {
        run_cache_diff(cell, false);
    }
}

/// The oracle bites: flip LFU's tie-break in the oracle and the same
/// streams must diverge in every LFU cell that can hold two entries —
/// so the streams do produce equal-count ties, and `victim()` /
/// eviction order is what the harness compares. (One key can never
/// tie, hence `key_space >= 2`.)
#[test]
fn streams_tell_a_flipped_lfu_tie_break_apart() {
    let survivors: Vec<Cell> = grid()
        .into_iter()
        .filter(|c| c.policy == CachePolicy::Lfu && c.capacity >= 2 && c.key_space >= 2)
        .filter(|&c| std::panic::catch_unwind(move || run_cache_diff(c, true)).is_ok())
        .collect();
    assert!(survivors.is_empty(), "mutant oracle passed: {survivors:?}");
}

/// Both detectors after the same access stream: identical counters and
/// identical contents (flow and count) at both levels.
fn assert_same_detector(new: &Afd<FlowSlot>, old: &OracleAfd<FlowSlot>, what: &str) {
    let (n, o) = (new.stats(), &old.stats);
    assert_eq!(
        (n.offered, n.sampled, n.afc_hits, n.annex_hits),
        (o.offered, o.sampled, o.afc_hits, o.annex_hits),
        "{what}"
    );
    assert_eq!(
        (n.misses, n.promotions, n.invalidations),
        (o.misses, o.promotions, o.invalidations),
        "{what}"
    );
    assert_eq!(
        new.afc().flows_by_count(),
        old.afc.flows_by_count(),
        "{what}"
    );
    assert_eq!(new.afc().victim(), old.afc.victim(), "{what}");
    assert_eq!(
        new.annex().flows_by_count(),
        old.annex.flows_by_count(),
        "{what}"
    );
    assert_eq!(new.annex().victim(), old.annex.victim(), "{what}");
}

/// LFU's degenerate steady state (what the T2 annex sits in): every
/// annex entry but one is sticky (count ≥ 2), so a stream of first-time
/// flows churns a single slot — each miss evicts the previous newcomer.
#[test]
fn annex_one_churning_slot_steady_state() {
    let cfg = AfdConfig {
        afc_entries: 4,
        annex_entries: 32,
        promote_threshold: 3,
        ..AfdConfig::default()
    };
    let slot = |i: u32| FlowSlot::new(i);
    let mut new = Afd::new(cfg);
    let mut old = OracleAfd::new(cfg);
    // 31 sticky flows at count 2 (below the promotion threshold).
    for round in 0..2 {
        for i in 0..31 {
            new.access(slot(i));
            old.access(slot(i));
        }
        assert_same_detector(&new, &old, &format!("sticky round {round}"));
    }
    // 5 000 one-packet newcomers fight over the one remaining slot.
    for i in 0..5_000u32 {
        let newcomer = slot(1_000 + i);
        new.access(newcomer);
        old.access(newcomer);
        assert_eq!(new.annex().victim(), Some((newcomer, 1)));
        if i > 0 {
            assert!(!new.annex().contains(slot(1_000 + i - 1)));
        }
        if i % 250 == 0 {
            assert_same_detector(&new, &old, &format!("newcomer {i}"));
        }
    }
    for i in 0..31 {
        assert_eq!(new.annex().count_of(slot(i)), Some(2), "sticky {i} evicted");
    }
    assert_eq!(new.stats().misses, 31 + 5_000);
    assert_eq!(new.stats().promotions, 0);
    assert_same_detector(&new, &old, "steady state");
}

/// More heavy flows than AFC entries: each promotion demotes a peer
/// that re-promotes on its next packet, so annex-remove → AFC
/// insert-with-evict → annex insert-at-count runs continuously, with
/// mice churning the annex's low end and the scheduler's invalidations
/// mixed in.
#[test]
fn promote_demote_ping_pong_matches_oracle() {
    for promotion in [PromotionPolicy::Always, PromotionPolicy::Competitive] {
        let cfg = AfdConfig {
            afc_entries: 4,
            annex_entries: 16,
            promote_threshold: 3,
            promotion,
            ..AfdConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(0xAFD);
        let mut new = Afd::new(cfg);
        let mut old = OracleAfd::new(cfg);
        for step in 0..40_000u32 {
            let flow = if rng.gen_bool(0.6) {
                FlowSlot::new(rng.gen_range(0u32..7)) // 7 heavy flows, 4 AFC entries
            } else {
                FlowSlot::new(100 + rng.gen_range(0u32..400)) // mice
            };
            new.access(flow);
            old.access(flow);
            if step % 97 == 0 {
                new.invalidate(flow);
                old.invalidate(flow);
            }
            assert_eq!(
                new.is_aggressive(flow),
                old.afc.contains(flow),
                "step {step}"
            );
            if step % 64 == 0 {
                assert_same_detector(&new, &old, &format!("{promotion:?} step {step}"));
            }
        }
        assert_same_detector(&new, &old, &format!("{promotion:?} final"));
        if promotion == PromotionPolicy::Always {
            assert!(
                new.stats().promotions > 1_000,
                "the ping-pong must actually run: {} promotions",
                new.stats().promotions
            );
        }
    }
}
