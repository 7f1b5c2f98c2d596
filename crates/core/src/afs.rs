//! AFS — Arbitrary Flow Shift (Dittmann & Herkersdorf, SPECTS 2002).
//!
//! Hash-based scheduling with reactive rebalancing: when the packet's
//! target core is overloaded, its **entire hash bucket** is remapped to
//! the least-loaded core. Because a bucket holds an arbitrary mixture of
//! flows, this migrates many non-aggressive flows, paying migration
//! penalties and reordering for no balancing benefit — precisely the
//! behaviour LAPS is designed to avoid (§VI: "This scheme migrates
//! arbitrary flows on load imbalance and can result in large number of
//! flow migrations and out of order packets").

use crate::hashmemo::FlowHashMemo;
use detsim::SimTime;
use nphash::MapTable;
use npsim::{PacketDesc, Scheduler, SystemView};

/// The arbitrary-flow-shift scheduler.
#[derive(Debug, Clone)]
pub struct Afs {
    table: MapTable<usize>,
    hashes: FlowHashMemo,
    /// Queue length at which a core counts as overloaded.
    high_thresh: usize,
    /// Minimum time between bucket shifts. Dittmann's scheme rebalances
    /// from a periodic control loop, not per packet; without a cooldown a
    /// persistent overload degenerates into a shift storm where every
    /// packet remaps a bucket and the migration penalties alone exceed
    /// the imbalance being repaired.
    cooldown: SimTime,
    last_shift: Option<SimTime>,
    /// Bucket remaps performed (each migrates an arbitrary flow bundle).
    shifts: u64,
}

/// Hash-table buckets per core. Dittmann's scheme hashes flows into a
/// table much larger than the core count so that one shift moves a small
/// load quantum; with a 1:1 bucket-to-core table a single shift would
/// relocate an entire core's worth of traffic.
pub const AFS_BUCKETS_PER_CORE: usize = 16;

impl Afs {
    /// AFS over `n_cores` cores with the given overload threshold and
    /// shift cooldown. The internal table has
    /// [`AFS_BUCKETS_PER_CORE`] × `n_cores` buckets, dealt round-robin.
    ///
    /// # Panics
    /// Panics if `n_cores == 0`.
    pub fn new(n_cores: usize, high_thresh: usize, cooldown: SimTime) -> Self {
        assert!(n_cores > 0, "need at least one core");
        let buckets = n_cores * AFS_BUCKETS_PER_CORE;
        Afs {
            table: MapTable::new((0..buckets).map(|b| b % n_cores).collect()),
            hashes: FlowHashMemo::new(),
            high_thresh,
            cooldown,
            last_shift: None,
            shifts: 0,
        }
    }

    /// Number of bucket shifts performed so far.
    pub fn shifts(&self) -> u64 {
        self.shifts
    }
}

impl Scheduler for Afs {
    fn name(&self) -> &str {
        "afs"
    }

    fn schedule(&mut self, pkt: &PacketDesc, view: &SystemView<'_>) -> usize {
        let raw = self.hashes.raw_hash(pkt);
        let target = self.table.lookup_hash(raw);
        if view.queues[target].len >= self.high_thresh {
            let cooled = self
                .last_shift
                .is_none_or(|t| view.now.saturating_sub(t) >= self.cooldown);
            // Overload: shift this packet's whole bucket to the least
            // loaded core — whenever that core is strictly less loaded
            // (AFS shifts even between overloaded cores; it has no notion
            // of aggregate overload).
            let minq = view.min_queue_core_all().expect("cores exist");
            if cooled && minq != target && view.queues[minq].len < view.queues[target].len {
                let bucket = self.table.bucket_of_hash(raw);
                self.table.reassign_bucket(bucket, minq);
                self.shifts += 1;
                self.last_shift = Some(view.now);
                return minq;
            }
        }
        target
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

    fn view_of(lens: Vec<usize>) -> Vec<QueueInfo> {
        lens.into_iter()
            .map(|len| QueueInfo {
                len,
                capacity: 32,
                busy: len > 0,
                idle_since: None,
                last_congested: SimTime::ZERO,
                up: true,
            })
            .collect()
    }

    #[test]
    fn no_shift_below_threshold() {
        let qs = view_of(vec![5, 0, 0, 0]);
        let v = SystemView {
            now: SimTime::ZERO,
            queues: &qs,
        };
        let mut s = Afs::new(4, 24, SimTime::ZERO);
        let p = pkt(1);
        let a = s.schedule(&p, &v);
        let b = s.schedule(&p, &v);
        assert_eq!(a, b);
        assert_eq!(s.shifts(), 0);
    }

    #[test]
    fn shifts_bucket_when_target_overloaded() {
        let mut s = Afs::new(4, 8, SimTime::ZERO);
        // Find a flow that maps to core 0.
        let flow = (0..1000)
            .map(pkt)
            .find(|p| {
                let qs = view_of(vec![0, 0, 0, 0]);
                let v = SystemView {
                    now: SimTime::ZERO,
                    queues: &qs,
                };
                s.schedule(p, &v) == 0
            })
            .expect("some flow maps to core 0");
        // Core 0 overloaded, core 2 empty → shift.
        let qs = view_of(vec![9, 3, 0, 3]);
        let v = SystemView {
            now: SimTime::ZERO,
            queues: &qs,
        };
        let shifted_to = s.schedule(&flow, &v);
        assert_eq!(shifted_to, 2);
        assert_eq!(s.shifts(), 1);
        // The mapping is now permanent: with calm queues it stays on 2.
        let qs = view_of(vec![0, 0, 0, 0]);
        let v = SystemView {
            now: SimTime::ZERO,
            queues: &qs,
        };
        assert_eq!(s.schedule(&flow, &v), 2);
    }

    #[test]
    fn no_shift_when_everyone_is_overloaded() {
        let qs = view_of(vec![30, 30, 30, 30]);
        let v = SystemView {
            now: SimTime::ZERO,
            queues: &qs,
        };
        let mut s = Afs::new(4, 8, SimTime::ZERO);
        let p = pkt(3);
        let before = s.shifts();
        s.schedule(&p, &v);
        assert_eq!(
            s.shifts(),
            before,
            "shifting between full queues is pointless"
        );
    }
}
