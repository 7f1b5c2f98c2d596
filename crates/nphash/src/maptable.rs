//! Per-service map tables: bucket list + incremental hash → core ID.
//!
//! "We propose to partition the cores among multiple services of a router
//! with a separate map table for each service" (§I). Each service owns a
//! `MapTable`; looking up a packet costs one CRC16 plus one array index —
//! the critical path analyzed in §III-G.

use crate::crc::Crc16Ccitt;
use crate::flow::FlowId;
use crate::incremental::IncrementalHash;

/// A service's map table.
///
/// Generic over the core-identifier type `C` so the scheduler crates can
/// use their own `CoreId` newtype without a dependency cycle.
#[derive(Debug, Clone)]
pub struct MapTable<C> {
    hash: IncrementalHash,
    /// `cores[i]` is the core that owns bucket `i`; `cores.len() == b`.
    cores: Vec<C>,
    crc: Crc16Ccitt,
    /// One record per core retired and not yet restored.
    retired: Vec<Retired<C>>,
}

/// What one [`MapTable::retire_core`] took from a core, kept until
/// [`MapTable::restore_core`] hands it back.
#[derive(Debug, Clone)]
struct Retired<C> {
    core: C,
    buckets: Vec<u32>,
    /// The bucket count at retirement: the incremental hash's shape, so
    /// while it holds each recorded bucket still covers the hashes it
    /// covered at the crash.
    len: usize,
}

impl<C: Copy + Eq> MapTable<C> {
    /// Build a table over the given initial cores (one bucket per core).
    ///
    /// # Panics
    /// Panics if `cores` is empty.
    pub fn new(cores: Vec<C>) -> Self {
        assert!(!cores.is_empty(), "a service needs at least one core");
        MapTable {
            hash: IncrementalHash::new(cores.len() as u32),
            cores,
            crc: Crc16Ccitt::new(),
            retired: Vec::new(),
        }
    }

    /// Number of buckets (== number of cores allocated to the service).
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// Whether the table is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// The cores currently in the bucket list, bucket order.
    pub fn cores(&self) -> &[C] {
        &self.cores
    }

    /// Whether `core` is in the bucket list.
    pub fn contains(&self, core: C) -> bool {
        self.cores.contains(&core)
    }

    /// Map a flow to its core: CRC16 over the 5-tuple, incremental hash to
    /// a bucket, bucket list to a core.
    #[inline]
    pub fn lookup(&self, flow: FlowId) -> C {
        let h = self.crc.hash(&flow.to_bytes()) as u64;
        self.cores[self.hash.bucket(h) as usize]
    }

    /// Map a pre-computed raw hash to its core (lets callers share one
    /// CRC evaluation between the map table and the AFD sampling logic).
    #[inline]
    pub fn lookup_hash(&self, raw_hash: u64) -> C {
        self.cores[self.hash.bucket(raw_hash) as usize]
    }

    /// Map a burst of flows to their cores in one pass: the 5-tuples are
    /// hashed with the four-lane lockstep
    /// [`crc16_ccitt_batch`](crate::crc::crc16_ccitt_batch) (hiding the
    /// CRC table's load-to-use latency across packets of the burst) and
    /// then mapped through the bucket list. Result `out[i]` is exactly
    /// `self.lookup(flows[i])`.
    ///
    /// # Panics
    /// Panics if `out.len() != flows.len()`.
    pub fn lookup_batch(&self, flows: &[FlowId], out: &mut [C]) {
        assert_eq!(
            flows.len(),
            out.len(),
            "one output slot per flow is required"
        );
        const LANES: usize = 32;
        let mut keys = [[0u8; 13]; LANES];
        let mut hashes = [0u16; LANES];
        for (chunk, outs) in flows.chunks(LANES).zip(out.chunks_mut(LANES)) {
            for (k, &f) in keys.iter_mut().zip(chunk.iter()) {
                *k = f.to_bytes();
            }
            let n = chunk.len();
            crate::crc::crc16_ccitt_batch(&keys[..n], &mut hashes[..n]);
            for (o, &h) in outs.iter_mut().zip(hashes.iter()) {
                *o = self.cores[self.hash.bucket(h as u64) as usize];
            }
        }
    }

    /// The bucket index a flow maps to.
    pub fn bucket_of(&self, flow: FlowId) -> u32 {
        let h = self.crc.hash(&flow.to_bytes()) as u64;
        self.hash.bucket(h)
    }

    /// The bucket index a pre-computed raw hash maps to (the
    /// [`MapTable::lookup_hash`] counterpart of [`MapTable::bucket_of`]).
    #[inline]
    pub fn bucket_of_hash(&self, raw_hash: u64) -> u32 {
        self.hash.bucket(raw_hash)
    }

    /// Grant `core` to this service: grows the bucket list by one using
    /// incremental hashing, so only the flows of the split bucket migrate.
    pub fn add_core(&mut self, core: C) {
        self.hash.grow();
        self.cores.push(core);
    }

    /// Remove `core` from the service, shrinking the bucket list.
    ///
    /// The paper removes the released core's ID from the bucket list and
    /// shifts the others ("Other core IDs will be shifted to take the
    /// place of this ID", §III-D). We implement that as: swap the released
    /// core's bucket with the last bucket, then merge the last bucket into
    /// its parent via [`IncrementalHash::shrink`]. Flows of the released
    /// core's bucket and of the merged bucket migrate; everything else
    /// stays put. A core that owns several buckets (a crash repair
    /// hands a survivor the dead core's) gives up each of them so, one
    /// at a time: a core serves one service only (§III-B).
    ///
    /// Returns `true` if the core was present and removed. Refuses
    /// (returns `false`, the table unchanged) when no other core would
    /// be left.
    pub fn remove_core(&mut self, core: C) -> bool {
        if !self.contains(core) || self.cores.iter().all(|&c| c == core) {
            return false;
        }
        while let Some(pos) = self.cores.iter().position(|&c| c == core) {
            self.cores.swap_remove(pos);
            self.hash.shrink();
        }
        true
    }

    /// Reassign bucket `bucket` to `core` (used by the *arbitrary flow
    /// shift* baseline, which remaps whole buckets on imbalance).
    ///
    /// # Panics
    /// Panics if `bucket` is out of range.
    pub fn reassign_bucket(&mut self, bucket: u32, core: C) {
        self.cores[bucket as usize] = core;
    }

    /// Reassign every bucket owned by `core` to the given replacement
    /// cores (round-robin), *without* shrinking the bucket list. Exactly
    /// the flows resident on `core` migrate — the minimum-migration
    /// repair for a crashed core. ([`MapTable::remove_core`] would also
    /// migrate the merged top bucket's flows, and would renumber buckets
    /// so an exact undo on heal is impossible.) The table records what
    /// it took, even when `core` owns no bucket, so
    /// [`MapTable::restore_core`] can undo it; returns the retired
    /// bucket indices. Empty, with the table unchanged and nothing
    /// recorded, when `replacements` is empty or `core` is already
    /// retired.
    pub fn retire_core(&mut self, core: C, replacements: &[C]) -> Vec<u32> {
        if replacements.is_empty() || self.is_retired(core) {
            return Vec::new();
        }
        let buckets = self.buckets_of_core(core);
        for (i, &b) in buckets.iter().enumerate() {
            self.cores[b as usize] = replacements[i % replacements.len()];
        }
        self.retired.push(Retired {
            core,
            buckets: buckets.clone(),
            len: self.cores.len(),
        });
        buckets
    }

    /// Whether `core` is retired and not yet restored.
    pub fn is_retired(&self, core: C) -> bool {
        self.retired.iter().any(|r| r.core == core)
    }

    /// Undo `core`'s retirement and drop its record: each retired bucket
    /// for which `give_back(bucket, current_owner)` says yes goes back
    /// to `core`, so exactly the flows that left at the crash migrate
    /// back. `None` when `core` is not retired. `Some(false)`, with
    /// nothing moved, when the bucket count changed since the
    /// retirement: the recorded buckets no longer cover what the crash
    /// moved.
    pub fn restore_core(
        &mut self,
        core: C,
        mut give_back: impl FnMut(u32, C) -> bool,
    ) -> Option<bool> {
        let pos = self.retired.iter().position(|r| r.core == core)?;
        let Retired { buckets, len, .. } = self.retired.swap_remove(pos);
        if len != self.cores.len() {
            return Some(false);
        }
        for b in buckets {
            if let Some(slot) = self.cores.get_mut(b as usize) {
                if give_back(b, *slot) {
                    *slot = core;
                }
            }
        }
        Some(true)
    }

    /// Buckets currently assigned to `core`.
    fn buckets_of_core(&self, core: C) -> Vec<u32> {
        self.cores
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == core)
            .map(|(i, _)| i as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flows(n: u64) -> Vec<FlowId> {
        (0..n).map(FlowId::from_index).collect()
    }

    #[test]
    fn lookup_is_stable() {
        let t: MapTable<u32> = MapTable::new(vec![0, 1, 2, 3]);
        for f in flows(100) {
            assert_eq!(t.lookup(f), t.lookup(f));
            assert!(t.lookup(f) < 4);
        }
    }

    #[test]
    fn add_core_minimal_migration() {
        let mut t: MapTable<u32> = MapTable::new(vec![10, 11, 12, 13]);
        let fs = flows(20_000);
        let before: Vec<u32> = fs.iter().map(|&f| t.lookup(f)).collect();
        t.add_core(14);
        let mut moved = 0;
        for (f, &old) in fs.iter().zip(before.iter()) {
            let new = t.lookup(*f);
            if new != old {
                assert_eq!(new, 14, "migrated flow must land on the new core");
                moved += 1;
            }
        }
        // Splitting one of 4 buckets moves half its flows: ≈ 1/8 of all.
        let frac = moved as f64 / fs.len() as f64;
        assert!(frac < 0.16, "fraction moved {frac}");
        assert!(moved > 0);
    }

    #[test]
    fn remove_last_added_core_restores_mapping() {
        let mut t: MapTable<u32> = MapTable::new(vec![0, 1, 2, 3]);
        let fs = flows(5_000);
        let before: Vec<u32> = fs.iter().map(|&f| t.lookup(f)).collect();
        t.add_core(4);
        assert!(t.remove_core(4));
        let after: Vec<u32> = fs.iter().map(|&f| t.lookup(f)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn remove_interior_core_bounded_migration() {
        let mut t: MapTable<u32> = MapTable::new(vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let fs = flows(20_000);
        let before: Vec<u32> = fs.iter().map(|&f| t.lookup(f)).collect();
        assert!(t.remove_core(2));
        assert!(!t.contains(2));
        assert_eq!(t.len(), 7);
        let moved = fs
            .iter()
            .zip(before.iter())
            .filter(|(&f, &old)| t.lookup(f) != old)
            .count();
        // Only former bucket-2 flows plus the merged top bucket move:
        // ≈ 2/8 of the space.
        let frac = moved as f64 / fs.len() as f64;
        assert!(frac < 0.35, "fraction moved {frac}");
        // No flow may map to the removed core.
        for &f in &fs {
            assert_ne!(t.lookup(f), 2);
        }
    }

    #[test]
    fn refuses_to_remove_last_core() {
        let mut t: MapTable<u32> = MapTable::new(vec![7]);
        assert!(!t.remove_core(7));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_core_takes_every_bucket_the_core_owns() {
        let mut t: MapTable<u32> = MapTable::new(vec![1, 5, 9]);
        assert_eq!(t.retire_core(5, &[1, 9]), [1]);
        assert_eq!(t.cores(), [1, 1, 9], "the survivor holds two buckets");
        assert!(t.remove_core(1));
        assert_eq!(t.cores(), [9]);
        assert!(flows(100).into_iter().all(|f| t.lookup(f) == 9));
        // Refused, unchanged, when the core owns every bucket.
        let mut only: MapTable<u32> = MapTable::new(vec![3, 3]);
        assert!(!only.remove_core(3));
        assert_eq!(only.cores(), [3, 3]);
    }

    #[test]
    fn remove_absent_core_is_noop() {
        let mut t: MapTable<u32> = MapTable::new(vec![0, 1]);
        assert!(!t.remove_core(99));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn reassign_bucket_moves_whole_bucket() {
        let mut t: MapTable<u32> = MapTable::new(vec![0, 1, 2, 3]);
        let fs = flows(10_000);
        let target_bucket = 1u32;
        t.reassign_bucket(target_bucket, 9);
        for &f in &fs {
            if t.bucket_of(f) == target_bucket {
                assert_eq!(t.lookup(f), 9);
            } else {
                assert_ne!(t.lookup(f), 9);
            }
        }
        assert_eq!(t.buckets_of_core(9), vec![1]);
    }

    #[test]
    fn retire_core_migrates_only_resident_flows() {
        let mut t: MapTable<u32> = MapTable::new(vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let fs = flows(20_000);
        let before: Vec<u32> = fs.iter().map(|&f| t.lookup(f)).collect();
        let retired = t.retire_core(2, &[0, 1]);
        assert_eq!(retired, vec![2]);
        assert_eq!(t.len(), 8, "retirement never shrinks the table");
        for (f, &old) in fs.iter().zip(before.iter()) {
            let new = t.lookup(*f);
            assert_ne!(new, 2, "no flow may map to the retired core");
            if old != 2 {
                assert_eq!(new, old, "only the retired core's flows migrate");
            }
        }
    }

    #[test]
    fn restore_core_is_exact_inverse_of_retire() {
        let mut t: MapTable<u32> = MapTable::new(vec![0, 1, 2, 3]);
        let fs = flows(5_000);
        let before: Vec<u32> = fs.iter().map(|&f| t.lookup(f)).collect();
        t.retire_core(1, &[3]);
        assert!(t.is_retired(1));
        assert_eq!(t.restore_core(1, |_, _| true), Some(true));
        assert!(!t.is_retired(1));
        let after: Vec<u32> = fs.iter().map(|&f| t.lookup(f)).collect();
        assert_eq!(before, after);
        assert_eq!(t.restore_core(1, |_, _| true), None, "record dropped");
    }

    #[test]
    fn restore_gives_back_only_the_chosen_buckets() {
        let mut t: MapTable<u32> = MapTable::new(vec![0, 1, 0, 1]);
        assert_eq!(t.retire_core(1, &[0]), vec![1, 3]);
        let mut seen = Vec::new();
        let restored = t.restore_core(1, |b, owner| {
            seen.push((b, owner));
            b == 3
        });
        assert_eq!(restored, Some(true));
        assert_eq!(seen, vec![(1, 0), (3, 0)]);
        assert_eq!(t.cores(), &[0, 0, 0, 1]);
    }

    #[test]
    fn a_changed_bucket_count_voids_the_record() {
        let mut t: MapTable<u32> = MapTable::new(vec![0, 1, 2, 3]);
        t.retire_core(1, &[0]);
        t.add_core(4);
        assert!(t.is_retired(1));
        let cores = t.cores().to_vec();
        assert_eq!(t.restore_core(1, |_, _| true), Some(false));
        assert_eq!(t.cores(), cores.as_slice(), "a void record moves nothing");
        assert!(!t.is_retired(1));
        // Back at the recorded count, each bucket covers its old hashes.
        t.retire_core(2, &[0]);
        t.add_core(5);
        assert!(t.remove_core(5));
        assert_eq!(t.restore_core(2, |_, _| true), Some(true));
        assert_eq!(t.cores(), &[0, 0, 2, 3, 4]);
    }

    #[test]
    fn a_retired_core_that_owns_no_bucket_is_still_recorded() {
        let mut t: MapTable<u32> = MapTable::new(vec![0, 0, 1]);
        t.reassign_bucket(2, 0);
        assert!(t.retire_core(1, &[0]).is_empty());
        assert!(t.is_retired(1));
        assert!(t.retire_core(1, &[0]).is_empty(), "already retired");
        assert_eq!(t.restore_core(1, |_, _| true), Some(true));
    }

    #[test]
    fn retire_with_no_replacements_is_noop() {
        let mut t: MapTable<u32> = MapTable::new(vec![0, 1]);
        assert!(t.retire_core(0, &[]).is_empty());
        assert_eq!(t.cores(), &[0, 1]);
        assert!(!t.is_retired(0));
    }

    #[test]
    fn lookup_batch_matches_lookup() {
        // Sizes cover empty, sub-lane, exact-lane, and multi-chunk
        // bursts; the batch path must be invisible to the mapping.
        let mut t: MapTable<u32> = MapTable::new(vec![0, 1, 2, 3, 4]);
        t.add_core(5); // non-power-of-two bucket count
        for n in [0usize, 1, 3, 4, 31, 32, 33, 100] {
            let fs = flows(n as u64);
            let mut out = vec![u32::MAX; n];
            t.lookup_batch(&fs, &mut out);
            for (&f, &got) in fs.iter().zip(out.iter()) {
                assert_eq!(got, t.lookup(f), "n={n}");
            }
        }
    }

    #[test]
    fn lookup_hash_matches_lookup() {
        let t: MapTable<u32> = MapTable::new(vec![0, 1, 2]);
        let crc = Crc16Ccitt::new();
        for f in flows(500) {
            assert_eq!(t.lookup(f), t.lookup_hash(crc.hash(&f.to_bytes()) as u64));
        }
    }
}
