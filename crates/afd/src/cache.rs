//! A small fully-associative flow cache with pluggable replacement.
//!
//! Models the hardware structures of the AFD: fixed entry count, each
//! entry holding a flow ID and a saturating hit counter. Replacement is
//! LFU (the paper's choice for both AFC and annex) or LRU (kept for
//! `--bin ablation`). Ties break deterministically toward the
//! least-recently-touched entry, as a hardware pseudo-age would.
//!
//! Implementation: flat arrays, so the per-packet operations are `O(1)`
//! and allocate only when a flow slot beyond every earlier one arrives:
//!
//! * a **slot arena** holding `(key, count)` plus intrusive list links,
//!   sized once at construction;
//! * a **residency table** indexed by [`FlowSlot::index`]: one `u16` per
//!   flow slot, 0 for absent, otherwise the arena slot + 1. A lookup is
//!   one load with no hash and no probe loop. The table stands in for
//!   the match lines of the hardware's fully associative array: it
//!   answers "is this flow resident, and where" and never takes part in
//!   a replacement decision;
//! * the classic **frequency-bucket list**: one FIFO of slots per
//!   distinct rank (the count under LFU; a single rank under LRU), the
//!   buckets linked in ascending rank.
//!
//! Every touch and insert makes its entry the most recently used one,
//! so appending at a bucket's tail keeps each FIFO in recency order and
//! the replacement victim — least rank, then least recent — is always
//! the head of the lowest bucket. A touch moves a slot to the adjacent
//! bucket (or re-ranks its bucket in place when it is alone there); an
//! insert into a full cache re-keys the victim's slot.
//!
//! Only an insert at an arbitrary count (an AFC victim demoted into the
//! annex) has to *search* the bucket list, and it is a finger search:
//! it starts from whichever of the list's two ends and the two most
//! recent departure points is nearest in rank. When more heavy flows
//! compete than the AFC has entries, a demoted flow comes back with the
//! count it left with one promotion earlier (plus its few AFC hits), so
//! the search ends within a step or two of a finger; any start is
//! correct, the choice only bounds the walk.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use nphash::FlowSlot;

/// Replacement policy of a [`FlowCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// Least-frequently-used, ties to the oldest touch (paper default).
    Lfu,
    /// Least-recently-used (ablation comparator).
    Lru,
}

/// "No slot / no bucket" in every link field.
const NIL: u32 = u32::MAX;

/// One cache entry plus its position in the eviction order.
#[derive(Debug, Clone, Copy)]
struct Slot<K> {
    key: K,
    count: u64,
    /// The rank bucket this slot is queued in.
    bucket: u32,
    /// Neighbours in the bucket's FIFO; `next` doubles as the free-list
    /// link while the slot is unused.
    prev: u32,
    next: u32,
}

/// One distinct rank: a FIFO of slots, oldest at `head`.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    rank: u64,
    head: u32,
    tail: u32,
    /// Neighbours in ascending rank order; `next` doubles as the
    /// free-list link while the bucket is unused.
    prev: u32,
    next: u32,
}

/// Outcome of a residency lookup: the resident slot, or absent.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Probe {
    Hit(u32),
    Miss,
}

/// A fixed-capacity, fully-associative cache of flow slots with counters.
///
/// Keyed by the dense [`FlowSlot`]s the simulator assigns; the key
/// parameter admits only that type.
#[derive(Debug, Clone)]
pub struct FlowCache<K = FlowSlot> {
    policy: CachePolicy,
    capacity: usize,
    len: usize,
    slots: Vec<Slot<K>>,
    free_slot: u32,
    buckets: Vec<Bucket>,
    free_bucket: u32,
    /// Ends of the bucket list; `lowest`'s head is the victim.
    lowest: u32,
    highest: u32,
    /// Search fingers: the buckets at (or just below) the two most
    /// recent unlinks, newest first. Always linked buckets or `NIL`.
    fingers: (u32, u32),
    /// Residency table: entry `i` is 0 while flow slot `i` is absent,
    /// otherwise its arena slot + 1. It ends at the highest flow slot
    /// inserted since the last `clear`; beyond it every flow is absent.
    resident: Vec<u16>,
}

impl FlowCache<FlowSlot> {
    /// An empty cache of `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or `capacity >= u16::MAX`: a residency
    /// entry is a `u16` holding the arena slot + 1.
    pub fn new(capacity: usize, policy: CachePolicy) -> Self {
        assert!(capacity > 0, "cache needs at least one entry");
        assert!(
            capacity < u16::MAX as usize,
            "cache capacity must stay below u16::MAX (65535) entries: a residency entry is a u16"
        );
        FlowCache {
            policy,
            capacity,
            len: 0,
            slots: Vec::with_capacity(capacity),
            free_slot: NIL,
            buckets: Vec::with_capacity(capacity),
            free_bucket: NIL,
            lowest: NIL,
            highest: NIL,
            fingers: (NIL, NIL),
            resident: Vec::new(),
        }
    }

    // ---- arena accessors -------------------------------------------------
    //
    // Every id handed to these comes out of the residency table, a list
    // link or a free list, all of which only ever hold ids of pushed
    // elements.

    #[inline]
    #[allow(clippy::indexing_slicing, reason = "slot ids are arena-issued")]
    fn slot(&self, s: u32) -> &Slot<FlowSlot> {
        &self.slots[s as usize]
    }

    #[inline]
    #[allow(clippy::indexing_slicing, reason = "slot ids are arena-issued")]
    fn slot_mut(&mut self, s: u32) -> &mut Slot<FlowSlot> {
        &mut self.slots[s as usize]
    }

    #[inline]
    #[allow(clippy::indexing_slicing, reason = "bucket ids are arena-issued")]
    fn bucket(&self, b: u32) -> &Bucket {
        &self.buckets[b as usize]
    }

    #[inline]
    #[allow(clippy::indexing_slicing, reason = "bucket ids are arena-issued")]
    fn bucket_mut(&mut self, b: u32) -> &mut Bucket {
        &mut self.buckets[b as usize]
    }

    #[inline]
    fn rank_of(&self, count: u64) -> u64 {
        match self.policy {
            CachePolicy::Lfu => count,
            CachePolicy::Lru => 0,
        }
    }

    // ---- residency table -------------------------------------------------

    /// Look `key` up: one load, no hash.
    #[inline]
    pub(crate) fn probe(&self, key: FlowSlot) -> Probe {
        match self.resident.get(key.index()) {
            Some(&r) if r != 0 => Probe::Hit(u32::from(r) - 1),
            _ => Probe::Miss,
        }
    }

    /// Record `key` as resident in arena slot `s`, growing the table to
    /// `key`'s entry (amortised by `Vec`'s doubling, like every other
    /// per-flow array).
    fn mark_resident(&mut self, key: FlowSlot, s: u32) {
        // `s < capacity < u16::MAX`, so `s + 1` fits.
        let entry = (s + 1) as u16;
        let i = key.index();
        match self.resident.get_mut(i) {
            Some(r) => *r = entry,
            None => {
                self.resident.resize(i, 0);
                self.resident.push(entry);
            }
        }
    }

    fn mark_absent(&mut self, key: FlowSlot) {
        if let Some(r) = self.resident.get_mut(key.index()) {
            *r = 0;
        }
    }

    // ---- eviction order --------------------------------------------------

    /// Take `s` out of its bucket's FIFO, retiring the bucket if that
    /// empties it, and leave a finger where `s` was.
    fn unlink(&mut self, s: u32) {
        let Slot {
            bucket: b,
            prev,
            next,
            ..
        } = *self.slot(s);
        if prev == NIL {
            self.bucket_mut(b).head = next;
        } else {
            self.slot_mut(prev).next = next;
        }
        if next == NIL {
            self.bucket_mut(b).tail = prev;
        } else {
            self.slot_mut(next).prev = prev;
        }
        let newest = self.fingers.0;
        if self.bucket(b).head != NIL {
            self.fingers = (b, newest);
            return;
        }
        let Bucket {
            prev: below,
            next: above,
            ..
        } = *self.bucket(b);
        if below == NIL {
            self.lowest = above;
        } else {
            self.bucket_mut(below).next = above;
        }
        if above == NIL {
            self.highest = below;
        } else {
            self.bucket_mut(above).prev = below;
        }
        self.bucket_mut(b).next = self.free_bucket;
        self.free_bucket = b;
        // The retired bucket must not survive as a finger.
        self.fingers = (below, if newest == b { below } else { newest });
    }

    /// Queue `s` at the tail of bucket `b` (most recently used).
    fn append(&mut self, s: u32, b: u32) {
        let tail = self.bucket(b).tail;
        let slot = self.slot_mut(s);
        slot.bucket = b;
        slot.prev = tail;
        slot.next = NIL;
        if tail == NIL {
            self.bucket_mut(b).head = s;
        } else {
            self.slot_mut(tail).next = s;
        }
        self.bucket_mut(b).tail = s;
    }

    /// Requeue `s` as the most recently used entry of its own bucket.
    fn move_to_tail(&mut self, s: u32) {
        let b = self.slot(s).bucket;
        if self.bucket(b).tail != s {
            // `s` is not alone, so the bucket survives the unlink.
            self.unlink(s);
            self.append(s, b);
        }
    }

    /// A fresh, empty bucket of `rank` linked right above `below`
    /// (`NIL` = at the bottom of the list).
    fn bucket_above(&mut self, below: u32, rank: u64) -> u32 {
        let above = if below == NIL {
            self.lowest
        } else {
            self.bucket(below).next
        };
        let fresh = Bucket {
            rank,
            head: NIL,
            tail: NIL,
            prev: below,
            next: above,
        };
        let b = if self.free_bucket == NIL {
            self.buckets.push(fresh);
            (self.buckets.len() - 1) as u32
        } else {
            let b = self.free_bucket;
            self.free_bucket = self.bucket(b).next;
            *self.bucket_mut(b) = fresh;
            b
        };
        if below == NIL {
            self.lowest = b;
        } else {
            self.bucket_mut(below).next = b;
        }
        if above == NIL {
            self.highest = b;
        } else {
            self.bucket_mut(above).prev = b;
        }
        b
    }

    /// Queue the unlinked slot `s` as the most recent entry of `rank`,
    /// creating the bucket if no entry has that rank. The search walks
    /// from the nearest-ranked of the list's ends and the fingers.
    fn place(&mut self, s: u32, rank: u64) {
        // `below`: the bucket of greatest rank ≤ `rank`, if any.
        let mut below = self.lowest;
        if below != NIL {
            let mut gap = self.bucket(below).rank.abs_diff(rank);
            for start in [self.highest, self.fingers.0, self.fingers.1] {
                if start != NIL {
                    let d = self.bucket(start).rank.abs_diff(rank);
                    if d < gap {
                        (gap, below) = (d, start);
                    }
                }
            }
            if self.bucket(below).rank <= rank {
                loop {
                    let above = self.bucket(below).next;
                    if above == NIL || self.bucket(above).rank > rank {
                        break;
                    }
                    below = above;
                }
            } else {
                while below != NIL && self.bucket(below).rank > rank {
                    below = self.bucket(below).prev;
                }
            }
        }
        let b = if below != NIL && self.bucket(below).rank == rank {
            below
        } else {
            self.bucket_above(below, rank)
        };
        self.append(s, b);
    }

    /// Give the resident slot `s` a new count and make it the most
    /// recently used entry of the matching rank.
    fn requeue(&mut self, s: u32, count: u64) {
        self.slot_mut(s).count = count;
        let rank = self.rank_of(count);
        let b = self.slot(s).bucket;
        let Bucket {
            rank: old_rank,
            head,
            tail,
            prev: below,
            next: above,
        } = *self.bucket(b);
        if rank == old_rank {
            // LRU, an equal-count re-key, or a saturated counter.
            self.move_to_tail(s);
        } else if head == tail
            && (below == NIL || self.bucket(below).rank < rank)
            && (above == NIL || rank < self.bucket(above).rank)
        {
            // Alone in its bucket and still between the neighbours' ranks:
            // the bucket itself takes the new rank.
            self.bucket_mut(b).rank = rank;
        } else if above != NIL && self.bucket(above).rank == rank {
            // The usual touch: up into the adjacent bucket.
            self.unlink(s);
            self.append(s, above);
        } else {
            self.unlink(s);
            self.place(s, rank);
        }
    }

    // ---- slot-level operations (shared with the detector) ----------------

    /// The hit counter of resident slot `s`.
    #[inline]
    pub(crate) fn count_at(&self, s: u32) -> u64 {
        self.slot(s).count
    }

    /// Touch resident slot `s`: bump its counter (and recency),
    /// returning the new count.
    pub(crate) fn bump(&mut self, s: u32) -> u64 {
        let count = self.slot(s).count.saturating_add(1);
        self.requeue(s, count);
        count
    }

    /// Remove resident slot `s`, returning its count.
    pub(crate) fn remove_at(&mut self, s: u32) -> u64 {
        let Slot { key, count, .. } = *self.slot(s);
        self.unlink(s);
        self.mark_absent(key);
        self.slot_mut(s).next = self.free_slot;
        self.free_slot = s;
        self.len -= 1;
        count
    }

    /// Insert `flow`, which a [`FlowCache::probe`] just reported absent,
    /// evicting the replacement victim if full. Returns the evicted
    /// `(flow, count)`, if any.
    pub(crate) fn insert_missed(&mut self, flow: FlowSlot, count: u64) -> Option<(FlowSlot, u64)> {
        if self.len == self.capacity {
            // Re-key the victim's slot in place.
            let s = self.bucket(self.lowest).head;
            let old = *self.slot(s);
            self.mark_absent(old.key);
            self.mark_resident(flow, s);
            self.slot_mut(s).key = flow;
            self.requeue(s, count);
            return Some((old.key, old.count));
        }
        let fresh = Slot {
            key: flow,
            count,
            bucket: NIL,
            prev: NIL,
            next: NIL,
        };
        let s = if self.free_slot == NIL {
            self.slots.push(fresh);
            (self.slots.len() - 1) as u32
        } else {
            let s = self.free_slot;
            self.free_slot = self.slot(s).next;
            *self.slot_mut(s) = fresh;
            s
        };
        self.mark_resident(flow, s);
        self.place(s, self.rank_of(count));
        self.len += 1;
        None
    }

    // ---- public API ------------------------------------------------------

    /// Number of resident flows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache holds no flows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the cache is at capacity.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Configured entry count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `flow` is resident.
    pub fn contains(&self, flow: FlowSlot) -> bool {
        matches!(self.probe(flow), Probe::Hit(_))
    }

    /// The hit counter of `flow`, if resident.
    pub fn count_of(&self, flow: FlowSlot) -> Option<u64> {
        match self.probe(flow) {
            Probe::Hit(s) => Some(self.count_at(s)),
            Probe::Miss => None,
        }
    }

    /// Touch `flow` if resident: bump its counter (and recency), returning
    /// the new count. `None` on miss — the cache is *not* modified.
    pub fn touch(&mut self, flow: FlowSlot) -> Option<u64> {
        match self.probe(flow) {
            Probe::Hit(s) => Some(self.bump(s)),
            Probe::Miss => None,
        }
    }

    /// Insert `flow` with an initial `count`, evicting the replacement
    /// victim if full. Returns the evicted `(flow, count)`, if any.
    ///
    /// Inserting a flow that is already resident just overwrites its
    /// counter (no eviction).
    pub fn insert(&mut self, flow: FlowSlot, count: u64) -> Option<(FlowSlot, u64)> {
        match self.probe(flow) {
            Probe::Hit(s) => {
                self.requeue(s, count);
                None
            }
            Probe::Miss => self.insert_missed(flow, count),
        }
    }

    /// Remove `flow`, returning its count if it was resident.
    pub fn remove(&mut self, flow: FlowSlot) -> Option<u64> {
        match self.probe(flow) {
            Probe::Hit(s) => Some(self.remove_at(s)),
            Probe::Miss => None,
        }
    }

    /// The current replacement victim (least-ranked entry), if any.
    pub fn victim(&self) -> Option<(FlowSlot, u64)> {
        if self.lowest == NIL {
            return None;
        }
        let s = self.slot(self.bucket(self.lowest).head);
        Some((s.key, s.count))
    }

    /// Resident flows ordered by descending counter (descending rank).
    pub fn flows_by_count(&self) -> Vec<(FlowSlot, u64)> {
        let mut v = Vec::with_capacity(self.len);
        let mut b = self.lowest;
        while b != NIL {
            let mut s = self.bucket(b).head;
            while s != NIL {
                let slot = self.slot(s);
                v.push((slot.key, slot.count));
                s = slot.next;
            }
            b = self.bucket(b).next;
        }
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Clear all entries (counters and order), e.g. at a measurement-
    /// window boundary.
    pub fn clear(&mut self) {
        self.len = 0;
        self.slots.clear();
        self.free_slot = NIL;
        self.buckets.clear();
        self.free_bucket = NIL;
        self.lowest = NIL;
        self.highest = NIL;
        self.fingers = (NIL, NIL);
        self.resident.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FlowSlot {
        FlowSlot::new(i)
    }

    /// Structural invariants: residency table, arena and bucket lists
    /// agree.
    fn check(c: &FlowCache) {
        let mut seen = 0;
        let mut b = c.lowest;
        let mut below = NIL;
        let mut last_rank = None;
        while b != NIL {
            let bk = c.bucket(b);
            assert_eq!(bk.prev, below);
            assert!(last_rank.is_none_or(|r| r < bk.rank), "ranks ascend");
            assert_ne!(bk.head, NIL, "no empty bucket stays linked");
            last_rank = Some(bk.rank);
            let (mut s, mut prev) = (bk.head, NIL);
            while s != NIL {
                let slot = c.slot(s);
                assert_eq!(slot.bucket, b);
                assert_eq!(slot.prev, prev);
                assert_eq!(c.rank_of(slot.count), bk.rank);
                assert!(matches!(c.probe(slot.key), Probe::Hit(h) if h == s));
                seen += 1;
                prev = s;
                s = slot.next;
            }
            assert_eq!(bk.tail, prev);
            below = b;
            b = bk.next;
        }
        assert_eq!(c.highest, below);
        assert_eq!(seen, c.len());
        for f in [c.fingers.0, c.fingers.1] {
            assert!(
                f == NIL || c.bucket(f).head != NIL,
                "finger on a retired bucket"
            );
        }
        // Every resident's entry names its slot (above); no other entry
        // is set.
        assert_eq!(c.resident.iter().filter(|&&r| r != 0).count(), seen);
    }

    #[test]
    fn touch_misses_do_not_insert() {
        let mut c = FlowCache::new(2, CachePolicy::Lfu);
        assert_eq!(c.touch(f(1)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn insert_then_touch_counts() {
        let mut c = FlowCache::new(2, CachePolicy::Lfu);
        assert_eq!(c.insert(f(1), 1), None);
        assert_eq!(c.touch(f(1)), Some(2));
        assert_eq!(c.touch(f(1)), Some(3));
        assert_eq!(c.count_of(f(1)), Some(3));
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut c = FlowCache::new(2, CachePolicy::Lfu);
        c.insert(f(1), 1);
        c.insert(f(2), 1);
        c.touch(f(1)); // f1 count 2, f2 count 1
        let victim = c.insert(f(3), 1).expect("eviction");
        assert_eq!(victim.0, f(2));
        assert!(c.contains(f(1)) && c.contains(f(3)));
    }

    #[test]
    fn lfu_tie_breaks_to_oldest() {
        let mut c = FlowCache::new(2, CachePolicy::Lfu);
        c.insert(f(1), 1);
        c.insert(f(2), 1);
        // Equal counts: the older (f1) is evicted.
        let victim = c.insert(f(3), 1).unwrap();
        assert_eq!(victim.0, f(1));
    }

    #[test]
    fn lru_evicts_least_recent_regardless_of_count() {
        let mut c = FlowCache::new(2, CachePolicy::Lru);
        c.insert(f(1), 100);
        c.insert(f(2), 1);
        c.touch(f(1)); // f1 most recent despite insertion order
        let victim = c.insert(f(3), 1).unwrap();
        assert_eq!(victim.0, f(2));
    }

    #[test]
    fn remove_and_victim() {
        let mut c = FlowCache::new(3, CachePolicy::Lfu);
        c.insert(f(1), 5);
        c.insert(f(2), 1);
        c.insert(f(3), 9);
        assert_eq!(c.victim().unwrap().0, f(2));
        assert_eq!(c.remove(f(2)), Some(1));
        assert_eq!(c.remove(f(2)), None);
        assert_eq!(c.victim().unwrap().0, f(1));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_overwrites_without_eviction() {
        let mut c = FlowCache::new(2, CachePolicy::Lfu);
        c.insert(f(1), 1);
        c.insert(f(2), 2);
        assert_eq!(c.insert(f(1), 10), None);
        assert_eq!(c.count_of(f(1)), Some(10));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn flows_by_count_sorted() {
        let mut c = FlowCache::new(4, CachePolicy::Lfu);
        c.insert(f(1), 3);
        c.insert(f(2), 7);
        c.insert(f(3), 1);
        let v = c.flows_by_count();
        assert_eq!(v[0], (f(2), 7));
        assert_eq!(v[2], (f(3), 1));
    }

    #[test]
    fn saturated_counter_still_refreshes_recency() {
        let mut c = FlowCache::new(2, CachePolicy::Lfu);
        c.insert(f(1), u64::MAX);
        c.insert(f(2), u64::MAX);
        assert_eq!(c.touch(f(1)), Some(u64::MAX));
        assert_eq!(c.victim(), Some((f(2), u64::MAX)));
        check(&c);
    }

    #[test]
    fn clear_empties() {
        let mut c = FlowCache::new(2, CachePolicy::Lfu);
        c.insert(f(1), 1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.victim(), None);
        c.insert(f(2), 1);
        check(&c);
    }

    #[test]
    fn largest_capacity_fits_the_residency_entry() {
        let cap = u16::MAX as usize - 1;
        let mut c = FlowCache::new(cap, CachePolicy::Lfu);
        for i in 0..cap as u32 {
            c.insert(f(i), 1);
        }
        assert!(c.is_full());
        assert_eq!(c.count_of(f(cap as u32 - 1)), Some(1));
        assert_eq!(c.insert(f(cap as u32), 1), Some((f(0), 1)));
        check(&c);
    }

    #[test]
    #[should_panic(expected = "below u16::MAX (65535) entries")]
    fn capacity_beyond_the_residency_entry_rejected() {
        FlowCache::new(u16::MAX as usize, CachePolicy::Lfu);
    }

    #[test]
    fn structure_stays_consistent_under_churn() {
        for policy in [CachePolicy::Lfu, CachePolicy::Lru] {
            let mut c = FlowCache::new(8, policy);
            for i in 0..2_000u32 {
                match i % 4 {
                    0 => {
                        c.insert(f(i % 20), 1 + u64::from(i % 5));
                    }
                    1 | 2 => {
                        c.touch(f((i * 7) % 20));
                    }
                    _ => {
                        c.remove(f(i % 11));
                    }
                }
                assert!(c.len() <= 8);
                check(&c);
            }
        }
    }
}
