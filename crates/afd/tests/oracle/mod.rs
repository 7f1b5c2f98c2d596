//! Test oracles for the flat [`npafd::FlowCache`] and the detector built
//! on it: the `DetHashMap` + `BTreeSet` cache the crate shipped before
//! the frequency-bucket rewrite, and the two-level detector written
//! against that cache's public operations only. Both are kept verbatim
//! (minus accessors nothing called) so the differential tests compare
//! the new structures against the exact eviction order — least
//! `(count, stamp)` first — that every golden report was recorded under.
//! The one addition is [`OracleCache::lfu_newest_first`], a deliberately
//! wrong oracle the differential harness must be able to tell apart.

use npafd::{AfdConfig, AfdStats, CachePolicy, PromotionPolicy};
use nphash::det::{det_map_with_capacity, DetHashMap};
use std::collections::BTreeSet;
use std::hash::Hash;

#[derive(Debug, Clone, Copy)]
struct Entry {
    count: u64,
    stamp: u64,
}

/// The reference cache: a hash map for lookup plus a
/// `BTreeSet<(rank, stamp, key)>` whose first element is the victim.
#[derive(Debug, Clone)]
pub struct OracleCache<K> {
    policy: CachePolicy,
    capacity: usize,
    entries: DetHashMap<K, Entry>,
    /// Eviction order: smallest element is the next victim.
    order: BTreeSet<(u64, u64, K)>,
    tick: u64,
    /// Mutant only: stamps count down, so equal counts evict newest first.
    newest_first: bool,
}

impl<K: Copy + Eq + Ord + Hash> OracleCache<K> {
    /// An empty cache of `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, policy: CachePolicy) -> Self {
        assert!(capacity > 0, "cache needs at least one entry");
        OracleCache {
            policy,
            capacity,
            entries: det_map_with_capacity(capacity),
            order: BTreeSet::new(),
            tick: 0,
            newest_first: false,
        }
    }

    /// An LFU cache whose tie-break among equal counts is flipped
    /// (newest first): it differs from [`OracleCache::new`] only when an
    /// operation stream produces ties.
    pub fn lfu_newest_first(capacity: usize) -> Self {
        OracleCache {
            newest_first: true,
            ..Self::new(capacity, CachePolicy::Lfu)
        }
    }

    fn stamp(&self) -> u64 {
        if self.newest_first {
            !self.tick
        } else {
            self.tick
        }
    }

    fn rank(&self, e: &Entry) -> (u64, u64) {
        match self.policy {
            CachePolicy::Lfu => (e.count, e.stamp),
            CachePolicy::Lru => (0, e.stamp),
        }
    }

    /// Number of resident flows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no flows.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the cache is at capacity.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Configured entry count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `flow` is resident.
    pub fn contains(&self, flow: K) -> bool {
        self.entries.contains_key(&flow)
    }

    /// The hit counter of `flow`, if resident.
    pub fn count_of(&self, flow: K) -> Option<u64> {
        self.entries.get(&flow).map(|e| e.count)
    }

    /// Touch `flow` if resident: bump its counter (and recency), returning
    /// the new count. `None` on miss — the cache is *not* modified.
    pub fn touch(&mut self, flow: K) -> Option<u64> {
        self.tick += 1;
        let tick = self.stamp();
        let entry = self.entries.get_mut(&flow)?;
        let old = *entry;
        entry.count = entry.count.saturating_add(1);
        entry.stamp = tick;
        let new = *entry;
        let old_rank = match self.policy {
            CachePolicy::Lfu => (old.count, old.stamp),
            CachePolicy::Lru => (0, old.stamp),
        };
        let new_rank = match self.policy {
            CachePolicy::Lfu => (new.count, new.stamp),
            CachePolicy::Lru => (0, new.stamp),
        };
        self.order.remove(&(old_rank.0, old_rank.1, flow));
        self.order.insert((new_rank.0, new_rank.1, flow));
        Some(new.count)
    }

    /// Insert `flow` with an initial `count`, evicting the replacement
    /// victim if full. Returns the evicted `(flow, count)`, if any.
    ///
    /// Inserting a flow that is already resident just overwrites its
    /// counter (no eviction).
    pub fn insert(&mut self, flow: K, count: u64) -> Option<(K, u64)> {
        self.tick += 1;
        if let Some(e) = self.entries.get(&flow).copied() {
            let r = self.rank(&e);
            self.order.remove(&(r.0, r.1, flow));
            let ne = Entry {
                count,
                stamp: self.stamp(),
            };
            let nr = self.rank(&ne);
            self.entries.insert(flow, ne);
            self.order.insert((nr.0, nr.1, flow));
            return None;
        }
        let victim = if self.entries.len() >= self.capacity {
            self.evict_victim()
        } else {
            None
        };
        let e = Entry {
            count,
            stamp: self.stamp(),
        };
        let r = self.rank(&e);
        self.entries.insert(flow, e);
        self.order.insert((r.0, r.1, flow));
        victim
    }

    /// Pop the current replacement victim. `None` only when the cache
    /// is empty — `order` and `entries` are maintained in lockstep, so
    /// an ordered key is always resident (a desync degrades to a
    /// zero-count eviction rather than a panic on the packet path).
    fn evict_victim(&mut self) -> Option<(K, u64)> {
        let (r0, r1, vflow) = self.order.iter().next().copied()?;
        self.order.remove(&(r0, r1, vflow));
        let count = self.entries.remove(&vflow).map_or(0, |e| e.count);
        Some((vflow, count))
    }

    /// Remove `flow`, returning its count if it was resident.
    pub fn remove(&mut self, flow: K) -> Option<u64> {
        let e = self.entries.remove(&flow)?;
        let r = self.rank(&e);
        self.order.remove(&(r.0, r.1, flow));
        Some(e.count)
    }

    /// The current replacement victim (least-ranked entry), if any.
    pub fn victim(&self) -> Option<(K, u64)> {
        self.order.iter().next().map(|&(c, _, f)| {
            (
                f,
                match self.policy {
                    CachePolicy::Lfu => c,
                    // Under LRU the rank carries no count; read it from
                    // the entry (resident by the lockstep invariant).
                    CachePolicy::Lru => self.entries.get(&f).map_or(0, |e| e.count),
                },
            )
        })
    }

    /// Resident flows ordered by descending counter (descending rank).
    pub fn flows_by_count(&self) -> Vec<(K, u64)> {
        let mut v: Vec<(K, u64)> = self.entries.iter().map(|(&f, e)| (f, e.count)).collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Clear all entries (counters and order), e.g. at a measurement-
    /// window boundary.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }
}

/// The reference detector: §III-F's three cases over two
/// [`OracleCache`]s (sampling always on — the tests drive `p = 1`).
#[derive(Debug, Clone)]
pub struct OracleAfd<K> {
    cfg: AfdConfig,
    pub afc: OracleCache<K>,
    pub annex: OracleCache<K>,
    pub stats: AfdStats,
}

impl<K: Copy + Eq + Ord + Hash> OracleAfd<K> {
    pub fn new(cfg: AfdConfig) -> Self {
        assert!(cfg.sample_prob >= 1.0, "the oracle does not sample");
        OracleAfd {
            afc: OracleCache::new(cfg.afc_entries, cfg.policy),
            annex: OracleCache::new(cfg.annex_entries, cfg.policy),
            cfg,
            stats: AfdStats::default(),
        }
    }

    pub fn access(&mut self, flow: K) {
        self.stats.offered += 1;
        self.stats.sampled += 1;
        if self.afc.touch(flow).is_some() {
            self.stats.afc_hits += 1;
            return;
        }
        if let Some(count) = self.annex.touch(flow) {
            self.stats.annex_hits += 1;
            let promotable = count > self.cfg.promote_threshold
                && (self.cfg.promotion == PromotionPolicy::Always
                    || !self.afc.is_full()
                    || self.afc.victim().is_none_or(|(_, vc)| count > vc));
            if promotable {
                self.annex.remove(flow);
                if let Some((victim, vcount)) = self.afc.insert(flow, count) {
                    self.annex.insert(victim, vcount);
                }
                self.stats.promotions += 1;
            }
            return;
        }
        self.annex.insert(flow, 1);
        self.stats.misses += 1;
    }

    pub fn invalidate(&mut self, flow: K) {
        if self.afc.remove(flow).is_some() {
            self.stats.invalidations += 1;
            self.annex.insert(flow, 1);
        }
    }
}
