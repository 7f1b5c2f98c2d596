//! Pure hash scheduling — flow pinning with no load balancing.
//!
//! The classic scheme (Cao, Wang & Zegura, INFOCOM 2000): CRC16 over the
//! 5-tuple, modulo the core count. Perfect flow locality and packet
//! order; completely at the mercy of skewed flow sizes ("hashing alone
//! cannot achieve load balance effectively", §II). This is also the
//! "no migration" arm of Fig. 9.

use crate::hashmemo::FlowHashMemo;
use nphash::MapTable;
use npsim::{PacketDesc, RepairOutcome, Scheduler, SystemView};

/// Hash-only scheduler over all cores.
#[derive(Debug, Clone)]
pub struct StaticHash {
    table: MapTable<usize>,
    hashes: FlowHashMemo,
}

impl StaticHash {
    /// Hash over `n_cores` cores.
    ///
    /// # Panics
    /// Panics if `n_cores == 0`.
    pub fn new(n_cores: usize) -> Self {
        StaticHash {
            table: MapTable::new((0..n_cores).collect()),
            hashes: FlowHashMemo::new(),
        }
    }
}

impl Scheduler for StaticHash {
    fn name(&self) -> &str {
        "static-hash"
    }

    fn schedule(&mut self, pkt: &PacketDesc, _view: &SystemView<'_>) -> usize {
        self.table.lookup_hash(self.hashes.raw_hash(pkt))
    }

    /// Minimum-migration repair: hand the dead core's buckets to the
    /// surviving cores (round-robin) without shrinking the table, so
    /// only its resident flows migrate; the table keeps the record. With
    /// no survivor left the policy honestly reports `Unrepaired`.
    fn on_core_down(&mut self, core: usize) -> RepairOutcome {
        if self.table.is_retired(core) {
            return RepairOutcome::Repaired;
        }
        // A retired core owns no bucket, so none is listed here.
        let mut survivors = Vec::new();
        for &c in self.table.cores() {
            if c != core && !survivors.contains(&c) {
                survivors.push(c);
            }
        }
        if survivors.is_empty() {
            return RepairOutcome::Unrepaired;
        }
        self.table.retire_core(core, &survivors);
        RepairOutcome::Repaired
    }

    /// Heal: restore the retired buckets verbatim (the table never
    /// resizes here, so the undo is always exact). A core that never
    /// crashed has nothing to restore.
    fn on_core_up(&mut self, core: usize) -> RepairOutcome {
        if self.table.restore_core(core, |_, _| true) == Some(false) {
            return RepairOutcome::Unrepaired;
        }
        RepairOutcome::Repaired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detsim::SimTime;
    use nphash::{FlowId, FlowSlot};
    use npsim::QueueInfo;
    use nptraffic::ServiceKind;

    fn pkt(i: u64) -> PacketDesc {
        PacketDesc {
            id: i,
            flow: FlowId::from_index(i),
            slot: FlowSlot::new(i as u32),
            service: ServiceKind::IpForward,
            size: 64,
            arrival: SimTime::ZERO,
            flow_seq: 0,
            migrated: false,
            sync_debt_ns: 0,
        }
    }

    #[test]
    fn pins_flows_regardless_of_load() {
        let qs: Vec<QueueInfo> = (0..4)
            .map(|i| QueueInfo {
                len: i * 10, // wildly unbalanced
                capacity: 32,
                busy: false,
                idle_since: None,
                last_congested: SimTime::ZERO,
                up: true,
            })
            .collect();
        let v = SystemView {
            now: SimTime::ZERO,
            queues: &qs,
        };
        let mut s = StaticHash::new(4);
        for i in 0..50 {
            let p = pkt(i);
            let a = s.schedule(&p, &v);
            let b = s.schedule(&p, &v);
            assert_eq!(a, b, "same flow → same core, always");
            assert_eq!(a, s.table.lookup(p.flow));
            assert!(a < 4);
        }
    }

    #[test]
    fn spreads_distinct_flows() {
        let qs: Vec<QueueInfo> = (0..8)
            .map(|_| QueueInfo {
                len: 0,
                capacity: 32,
                busy: false,
                idle_since: None,
                last_congested: SimTime::ZERO,
                up: true,
            })
            .collect();
        let v = SystemView {
            now: SimTime::ZERO,
            queues: &qs,
        };
        let mut s = StaticHash::new(8);
        let mut hit = [false; 8];
        for i in 0..200 {
            hit[s.schedule(&pkt(i), &v)] = true;
        }
        assert!(hit.iter().all(|&h| h), "200 flows should touch all 8 cores");
    }

    #[test]
    fn crash_repair_and_heal_round_trip() {
        let mut s = StaticHash::new(4);
        let before: Vec<usize> = (0..2_000)
            .map(|i| s.table.lookup(FlowId::from_index(i)))
            .collect();
        assert_eq!(s.on_core_down(2), RepairOutcome::Repaired);
        for (i, &old) in before.iter().enumerate() {
            let new = s.table.lookup(FlowId::from_index(i as u64));
            assert_ne!(new, 2);
            if old != 2 {
                assert_eq!(new, old, "only core 2's flows migrate");
            }
        }
        assert_eq!(s.on_core_up(2), RepairOutcome::Repaired);
        let after: Vec<usize> = (0..2_000)
            .map(|i| s.table.lookup(FlowId::from_index(i)))
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn last_core_crash_is_unrepaired() {
        let mut s = StaticHash::new(2);
        assert_eq!(s.on_core_down(0), RepairOutcome::Repaired);
        assert_eq!(s.on_core_down(1), RepairOutcome::Unrepaired);
    }
}
