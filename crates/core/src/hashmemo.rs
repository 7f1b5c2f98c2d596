//! Hash once per flow: a slot-indexed memo of each flow's raw CRC16.
//!
//! A NIC computes the flow hash once and carries it with the packet
//! descriptor; re-running the 13-byte table CRC on every packet of a
//! flow is pure overhead. [`npsim::PacketDesc`] has no field for it, so
//! the memo lives with the scheduler: every hash-steered policy owns one
//! [`FlowHashMemo`], fills a flow's entry on its first packet and
//! resolves the cached value through [`nphash::MapTable::lookup_hash`].
//!
//! The raw hash is a pure function of the 5-tuple — independent of any
//! map table's bucket list — so one memo serves all of a policy's tables
//! and survives every `add_core` / `remove_core` / `retire_core` /
//! `restore_core`. It relies on the contract every slot-keyed structure
//! already relies on (the AFD, the migration table): within one run a
//! [`nphash::FlowSlot`] names one flow.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use nphash::Crc16Ccitt;
use npsim::PacketDesc;

/// "Not hashed yet": CRC16 values occupy the low 16 bits only.
const UNSET: u32 = u32::MAX;

/// Slots at or beyond this index are hashed on every packet instead of
/// memoised. Interned slots are dense, so a run only gets here with
/// 16 M live flows; the bound is for hand-built descriptors, whose
/// arbitrary slot must not size an allocation (64 MiB at most).
const MEMO_SLOTS: usize = 1 << 24;

/// Per-flow raw CRC16, indexed by the packet's arena slot (4 bytes per
/// interned flow).
#[derive(Debug, Clone, Default)]
pub struct FlowHashMemo {
    raw: Vec<u32>,
}

impl FlowHashMemo {
    /// An empty memo; it grows with the highest slot seen.
    pub fn new() -> Self {
        FlowHashMemo::default()
    }

    /// The raw CRC16 of `pkt.flow` — what [`nphash::MapTable::lookup`]
    /// computes internally — hashed on the flow's first packet and read
    /// back from the memo on every later one.
    #[inline]
    pub fn raw_hash(&mut self, pkt: &PacketDesc) -> u64 {
        let i = pkt.slot.index();
        if i >= self.raw.len() && i < MEMO_SLOTS {
            // `Vec`'s own doubling keeps growth amortised O(1) per
            // interned flow; only entries up to the highest slot are
            // written.
            self.raw.resize(i + 1, UNSET);
        }
        let crc = || u32::from(pkt.flow.crc16(&Crc16Ccitt::new()));
        let Some(entry) = self.raw.get_mut(i) else {
            return u64::from(crc());
        };
        if *entry == UNSET {
            *entry = crc();
        }
        debug_assert_eq!(
            *entry,
            crc(),
            "slot {:?} was memoised for a different flow",
            pkt.slot
        );
        u64::from(*entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detsim::SimTime;
    use nphash::{FlowId, FlowSlot, MapTable};
    use nptraffic::ServiceKind;

    fn pkt(i: u32) -> PacketDesc {
        PacketDesc {
            id: u64::from(i),
            flow: FlowId::from_index(u64::from(i) * 7 + 3),
            slot: FlowSlot::new(i),
            service: ServiceKind::IpForward,
            size: 64,
            arrival: SimTime::ZERO,
            flow_seq: 0,
            migrated: false,
            sync_debt_ns: 0,
        }
    }

    /// Every packet resolves through the memo exactly as through the
    /// table's own CRC, for core and bucket alike.
    fn assert_agrees(memo: &mut FlowHashMemo, table: &MapTable<usize>, slots: &[u32], when: &str) {
        for &i in slots {
            let p = pkt(i);
            let raw = memo.raw_hash(&p);
            assert_eq!(
                table.lookup_hash(raw),
                table.lookup(p.flow),
                "{when}: slot {i}"
            );
            assert_eq!(
                table.bucket_of_hash(raw),
                table.bucket_of(p.flow),
                "{when}: slot {i}"
            );
        }
    }

    #[test]
    fn memoised_hash_tracks_lookup_through_every_table_mutation() {
        let mut memo = FlowHashMemo::new();
        let mut table: MapTable<usize> = MapTable::new(vec![0, 1, 2, 3]);
        let seen: Vec<u32> = (0..300).collect();
        assert_agrees(&mut memo, &table, &seen, "first packets (memo fills)");
        assert_agrees(&mut memo, &table, &seen, "later packets (memo hits)");
        table.add_core(4);
        assert_agrees(&mut memo, &table, &seen, "after add_core");
        assert!(table.remove_core(1));
        assert_agrees(&mut memo, &table, &seen, "after remove_core");
        assert!(!table.retire_core(2, &[0, 3]).is_empty());
        assert_agrees(&mut memo, &table, &seen, "after retire_core");
        assert_eq!(table.restore_core(2, |_, _| true), Some(true));
        assert_agrees(&mut memo, &table, &seen, "after restore_core");
    }

    #[test]
    fn out_of_range_slots_are_hashed_without_growing_the_memo() {
        let mut memo = FlowHashMemo::new();
        let table: MapTable<usize> = MapTable::new((0..16).collect());
        assert_agrees(&mut memo, &table, &[u32::MAX, 1 << 24, 5], "sparse");
        assert!(memo.raw.len() <= 8, "a wild slot sized the memo");
    }

    #[test]
    fn slots_first_seen_after_growth_are_hashed_not_read_as_zero() {
        let mut memo = FlowHashMemo::new();
        let table: MapTable<usize> = MapTable::new((0..16).collect());
        assert_agrees(&mut memo, &table, &[0, 1, 2], "small memo");
        // One far slot grows the memo past thousands of unseen slots.
        assert_agrees(&mut memo, &table, &[9_000], "growth");
        let unseen: Vec<u32> = (3..9_000).step_by(13).chain(9_001..9_100).collect();
        assert_agrees(&mut memo, &table, &unseen, "first seen after growth");
        assert_agrees(&mut memo, &table, &unseen, "and memoised since");
    }
}
