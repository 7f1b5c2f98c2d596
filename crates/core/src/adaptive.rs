//! Adaptive hashing (Kencl & Le Boudec; Shi & Kencl, ANCS 2006).
//!
//! The §VI "complementary" scheme: instead of migrating individual flows
//! reactively, periodically *re-weight* the bucket → core assignment from
//! measured per-bucket load, so the hash itself stays balanced. Compared
//! with AFS it moves buckets from a control loop (bounded, informed by
//! load) rather than on the overloaded packet's path (unbounded,
//! arbitrary); compared with LAPS it still migrates whole buckets of
//! arbitrary flows rather than the few aggressive ones.

use crate::hashmemo::FlowHashMemo;
use nphash::MapTable;
use npsim::{PacketDesc, Scheduler, SystemView};

/// Buckets per core in the adaptive table (same granularity as AFS).
pub const ADAPTIVE_BUCKETS_PER_CORE: usize = 16;

/// The adaptive-hashing scheduler.
#[derive(Debug, Clone)]
pub struct AdaptiveHash {
    table: MapTable<usize>,
    hashes: FlowHashMemo,
    n_cores: usize,
    /// Measured load (packets) per bucket in the current window.
    bucket_load: Vec<u64>,
    /// Packets per adaptation window.
    window: usize,
    seen: usize,
    /// Maximum bucket moves per adaptation.
    max_moves: usize,
    rebalances: u64,
    moves: u64,
}

impl AdaptiveHash {
    /// Build over `n_cores` cores, re-weighting every `window` packets
    /// with at most `max_moves` bucket moves per adaptation.
    ///
    /// # Panics
    /// Panics if `n_cores == 0` or `window == 0`.
    pub fn new(n_cores: usize, window: usize, max_moves: usize) -> Self {
        assert!(n_cores > 0, "need at least one core");
        assert!(window > 0, "need a positive adaptation window");
        let buckets = n_cores * ADAPTIVE_BUCKETS_PER_CORE;
        AdaptiveHash {
            table: MapTable::new((0..buckets).map(|b| b % n_cores).collect()),
            hashes: FlowHashMemo::new(),
            n_cores,
            bucket_load: vec![0; buckets],
            window,
            seen: 0,
            max_moves,
            rebalances: 0,
            moves: 0,
        }
    }

    /// Adaptations performed.
    pub fn rebalances(&self) -> u64 {
        self.rebalances
    }

    /// Total bucket moves performed.
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Measured per-core load of the current window.
    fn core_loads(&self) -> Vec<u64> {
        let mut loads = vec![0u64; self.n_cores];
        for (b, &l) in self.bucket_load.iter().enumerate() {
            loads[self.table.cores()[b]] += l;
        }
        loads
    }

    /// One adaptation step: move buckets from the most- to the
    /// least-loaded core while it narrows the spread.
    fn rebalance(&mut self) {
        self.rebalances += 1;
        for _ in 0..self.max_moves {
            let loads = self.core_loads();
            let (max_core, &max_load) = loads
                .iter()
                .enumerate()
                .max_by_key(|&(c, &l)| (l, c))
                .expect("cores exist");
            let (min_core, &min_load) = loads
                .iter()
                .enumerate()
                .min_by_key(|&(c, &l)| (l, std::cmp::Reverse(c)))
                .expect("cores exist");
            let gap = max_load - min_load;
            if gap == 0 {
                break;
            }
            // The best bucket to move is the heaviest one not exceeding
            // half the gap (moving more would overshoot and oscillate).
            let candidate = self
                .bucket_load
                .iter()
                .enumerate()
                .filter(|&(b, &l)| self.table.cores()[b] == max_core && l > 0 && l <= gap / 2)
                .max_by_key(|&(b, &l)| (l, b));
            let Some((bucket, _)) = candidate else { break };
            self.table.reassign_bucket(bucket as u32, min_core);
            self.moves += 1;
        }
        self.bucket_load.iter_mut().for_each(|l| *l = 0);
        self.seen = 0;
    }
}

impl Scheduler for AdaptiveHash {
    fn name(&self) -> &str {
        "adaptive-hash"
    }

    fn schedule(&mut self, pkt: &PacketDesc, _view: &SystemView<'_>) -> usize {
        let bucket = self.table.bucket_of_hash(self.hashes.raw_hash(pkt)) as usize;
        self.bucket_load[bucket] += 1;
        self.seen += 1;
        let target = self.table.cores()[bucket];
        if self.seen >= self.window {
            self.rebalance();
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

    fn calm_view(n: usize) -> Vec<QueueInfo> {
        (0..n)
            .map(|_| QueueInfo {
                len: 0,
                capacity: 32,
                busy: false,
                idle_since: None,
                last_congested: SimTime::ZERO,
                up: true,
            })
            .collect()
    }

    #[test]
    fn no_rebalance_before_window() {
        let mut s = AdaptiveHash::new(4, 1_000, 4);
        let qs = calm_view(4);
        let v = SystemView {
            now: SimTime::ZERO,
            queues: &qs,
        };
        for i in 0..999 {
            s.schedule(&pkt(i % 50), &v);
        }
        assert_eq!(s.rebalances(), 0);
        s.schedule(&pkt(0), &v);
        assert_eq!(s.rebalances(), 1);
    }

    #[test]
    fn flows_stay_pinned_within_a_window() {
        let mut s = AdaptiveHash::new(4, 100_000, 4);
        let qs = calm_view(4);
        let v = SystemView {
            now: SimTime::ZERO,
            queues: &qs,
        };
        for i in 0..200 {
            let p = pkt(i);
            let a = s.schedule(&p, &v);
            let b = s.schedule(&p, &v);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn adaptation_narrows_the_spread() {
        // A heavily skewed stream: one flow per bucket would be ideal;
        // feed 80% of traffic to flows of a single core and let the
        // controller spread the buckets out.
        let mut s = AdaptiveHash::new(4, 2_000, 8);
        let qs = calm_view(4);
        let v = SystemView {
            now: SimTime::ZERO,
            queues: &qs,
        };
        // Find flows that initially land on core 0.
        let hot: Vec<PacketDesc> = (0..100_000u64)
            .map(pkt)
            .filter(|p| s.table.lookup(p.flow) == 0)
            .take(8)
            .collect();
        assert_eq!(s.rebalances(), 0, "lookup probing must not schedule");
        // Drive two windows of heavily skewed traffic.
        for round in 0..2 {
            for i in 0..2_000 {
                if i % 5 != 0 {
                    s.schedule(&hot[i % hot.len()], &v);
                } else {
                    s.schedule(&pkt(1_000_000 + (round * 2_000 + i) as u64), &v);
                }
            }
        }
        assert!(s.rebalances() >= 1);
        assert!(s.moves() > 0);
        // The hot flows can no longer all sit on one core.
        let cores: std::collections::BTreeSet<usize> =
            hot.iter().map(|p| s.table.lookup(p.flow)).collect();
        assert!(cores.len() > 1, "hot buckets must have been spread");
    }

    #[test]
    fn balanced_load_causes_no_moves() {
        let mut s = AdaptiveHash::new(4, 1_000, 4);
        let qs = calm_view(4);
        let v = SystemView {
            now: SimTime::ZERO,
            queues: &qs,
        };
        // Uniform traffic over many flows is already balanced: the
        // controller should find (almost) nothing worth moving.
        for i in 0..10_000u64 {
            s.schedule(&pkt(i % 5_000), &v);
        }
        assert!(s.rebalances() >= 9);
        assert!(
            s.moves() < s.rebalances() * 2,
            "uniform load should need few moves ({} over {} rebalances)",
            s.moves(),
            s.rebalances()
        );
    }
}
