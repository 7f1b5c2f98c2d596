//! Migrate-only-the-top-k-flows scheduling (Shi, MacGregor & Gburzynski,
//! IEEE/ACM ToN 2005) — the load-balancing core of LAPS, without the
//! multi-service machinery.
//!
//! Two detector arms, matching the Fig. 9 ablation:
//!
//! * [`DetectorKind::Oracle`] — exact per-flow counters ("keeps stats for
//!   each active flow … a lot of overhead and infeasible in practical
//!   designs", §III-A): the upper bound on achievable accuracy.
//! * [`DetectorKind::Afd`] — the paper's two-level cache detector: nearly
//!   the same decisions at a tiny fraction of the state.
//!
//! With `k = 0` (or a detector that never fires) this degenerates to
//! [`crate::StaticHash`] — the "no migration" arm of Fig. 9.

use crate::hashmemo::FlowHashMemo;
use crate::migration::MigrationTable;
use npafd::{Afd, AfdConfig, ExactTopK};
use nphash::det::{det_set, DetHashSet};
use nphash::{FlowSlot, MapTable};
use npsim::{PacketDesc, Scheduler, SystemView};

/// Which aggressive-flow detector drives migration.
#[derive(Debug, Clone, Copy)]
pub enum DetectorKind {
    /// The two-level AFD; its `afc_entries` is the `k` of "top-k".
    Afd(AfdConfig),
    /// Exact per-flow counters reporting the top `k` flows, with the
    /// top-k set re-derived every `refresh` packets.
    Oracle {
        /// How many top flows count as aggressive.
        k: usize,
        /// Packets between top-k set refreshes.
        refresh: usize,
    },
}

#[derive(Debug)]
enum DetectorImpl {
    Afd(Box<Afd<FlowSlot>>),
    Oracle {
        counts: ExactTopK<FlowSlot>,
        k: usize,
        refresh: usize,
        since_refresh: usize,
        cached: DetHashSet<FlowSlot>,
        invalidated: DetHashSet<FlowSlot>,
    },
}

impl DetectorImpl {
    fn new(kind: DetectorKind) -> Self {
        match kind {
            DetectorKind::Afd(cfg) => DetectorImpl::Afd(Box::new(Afd::new(cfg))),
            DetectorKind::Oracle { k, refresh } => DetectorImpl::Oracle {
                counts: ExactTopK::new(),
                k,
                refresh: refresh.max(1),
                since_refresh: 0,
                cached: det_set(),
                invalidated: det_set(),
            },
        }
    }

    fn access(&mut self, flow: FlowSlot) {
        match self {
            DetectorImpl::Afd(afd) => {
                afd.access(flow);
            }
            DetectorImpl::Oracle {
                counts,
                k,
                refresh,
                since_refresh,
                cached,
                invalidated,
            } => {
                counts.access(flow);
                *since_refresh += 1;
                if *since_refresh >= *refresh {
                    *since_refresh = 0;
                    *cached = counts.top_k(*k).into_iter().collect();
                    for f in invalidated.iter() {
                        cached.remove(f);
                    }
                }
            }
        }
    }

    fn is_aggressive(&self, flow: FlowSlot) -> bool {
        match self {
            DetectorImpl::Afd(afd) => afd.is_aggressive(flow),
            DetectorImpl::Oracle { cached, .. } => cached.contains(&flow),
        }
    }

    fn invalidate(&mut self, flow: FlowSlot) {
        match self {
            DetectorImpl::Afd(afd) => afd.invalidate(flow),
            DetectorImpl::Oracle {
                cached,
                invalidated,
                ..
            } => {
                cached.remove(&flow);
                // Remember across refreshes: a migrated flow must not be
                // re-migrated just because it is still objectively big.
                invalidated.insert(flow);
            }
        }
    }
}

/// Hash scheduling plus top-k-only migration on overload.
#[derive(Debug)]
pub struct TopKMigration {
    table: MapTable<usize>,
    hashes: FlowHashMemo,
    migration: MigrationTable<FlowSlot>,
    detector: DetectorImpl,
    high_thresh: usize,
    migrations: u64,
    name: String,
}

impl TopKMigration {
    /// Build over `n_cores` cores.
    ///
    /// # Panics
    /// Panics if `n_cores == 0`.
    pub fn new(n_cores: usize, high_thresh: usize, detector: DetectorKind) -> Self {
        let name = match detector {
            DetectorKind::Afd(cfg) => format!("topk-afd-{}", cfg.afc_entries),
            DetectorKind::Oracle { k, .. } => format!("topk-oracle-{k}"),
        };
        TopKMigration {
            table: MapTable::new((0..n_cores).collect()),
            hashes: FlowHashMemo::new(),
            migration: MigrationTable::new(1024),
            detector: DetectorImpl::new(detector),
            high_thresh,
            migrations: 0,
            name,
        }
    }

    /// Migration decisions taken so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }
}

impl Scheduler for TopKMigration {
    fn name(&self) -> &str {
        &self.name
    }

    fn schedule(&mut self, pkt: &PacketDesc, view: &SystemView<'_>) -> usize {
        self.detector.access(pkt.slot);
        // Migration table has priority over the hash table.
        let override_core = self.migration.get(pkt.slot);
        let target =
            override_core.unwrap_or_else(|| self.table.lookup_hash(self.hashes.raw_hash(pkt)));
        if view.queues[target].len >= self.high_thresh {
            let minq = view.min_queue_core_all().expect("cores exist");
            // Already-migrated flows are never re-shuffled.
            if minq != target
                && override_core.is_none()
                && view.queues[minq].len < self.high_thresh
                && self.detector.is_aggressive(pkt.slot)
            {
                self.migration.insert(pkt.slot, minq);
                self.detector.invalidate(pkt.slot);
                self.migrations += 1;
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
    use nphash::FlowId;
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

    fn sched_with_oracle(k: usize) -> TopKMigration {
        TopKMigration::new(4, 8, DetectorKind::Oracle { k, refresh: 10 })
    }

    #[test]
    fn calm_system_never_migrates() {
        let mut s = sched_with_oracle(4);
        let qs = view_of(vec![1, 1, 1, 1]);
        let v = SystemView {
            now: SimTime::ZERO,
            queues: &qs,
        };
        for i in 0..500 {
            s.schedule(&pkt(i % 5), &v);
        }
        assert_eq!(s.migrations(), 0);
    }

    #[test]
    fn aggressive_flow_migrates_on_overload() {
        let mut s = sched_with_oracle(1);
        let elephant = pkt(1);
        // Make the elephant clearly top-1 and let the oracle refresh.
        let calm = view_of(vec![0, 0, 0, 0]);
        let vc = SystemView {
            now: SimTime::ZERO,
            queues: &calm,
        };
        for _ in 0..50 {
            s.schedule(&elephant, &vc);
        }
        let home = s.schedule(&elephant, &vc);
        // Its home core is overloaded, others idle → migrate.
        let mut lens = vec![0, 0, 0, 0];
        lens[home] = 10;
        let qs = view_of(lens);
        let v = SystemView {
            now: SimTime::ZERO,
            queues: &qs,
        };
        let new_core = s.schedule(&elephant, &v);
        assert_ne!(new_core, home);
        assert_eq!(s.migrations(), 1);
        // The override persists even after queues calm down.
        assert_eq!(s.schedule(&elephant, &vc), new_core);
    }

    #[test]
    fn mouse_is_never_migrated() {
        let mut s = sched_with_oracle(1);
        // flow 1 is the top flow; flow 2 is a mouse.
        let calm = view_of(vec![0, 0, 0, 0]);
        let vc = SystemView {
            now: SimTime::ZERO,
            queues: &calm,
        };
        for _ in 0..50 {
            s.schedule(&pkt(1), &vc);
        }
        let mouse = pkt(2);
        let home = s.schedule(&mouse, &vc);
        let mut lens = vec![0, 0, 0, 0];
        lens[home] = 10;
        let qs = view_of(lens);
        let v = SystemView {
            now: SimTime::ZERO,
            queues: &qs,
        };
        assert_eq!(s.schedule(&mouse, &v), home, "mice ride out the overload");
        assert_eq!(s.migrations(), 0);
    }

    #[test]
    fn migrated_flow_not_immediately_remigrated() {
        let mut s = sched_with_oracle(1);
        let calm = view_of(vec![0, 0, 0, 0]);
        let vc = SystemView {
            now: SimTime::ZERO,
            queues: &calm,
        };
        for _ in 0..50 {
            s.schedule(&pkt(1), &vc);
        }
        let home = s.schedule(&pkt(1), &vc);
        let mut lens = vec![0, 0, 0, 0];
        lens[home] = 10;
        let v1 = view_of(lens);
        let v = SystemView {
            now: SimTime::ZERO,
            queues: &v1,
        };
        let second = s.schedule(&pkt(1), &v);
        assert_ne!(second, home);
        // Now the new core is also hot: the flow was invalidated, so no
        // second migration fires.
        let mut lens2 = vec![0, 0, 0, 0];
        lens2[second] = 10;
        let v2 = view_of(lens2);
        let v = SystemView {
            now: SimTime::ZERO,
            queues: &v2,
        };
        assert_eq!(s.schedule(&pkt(1), &v), second);
        assert_eq!(s.migrations(), 1);
    }

    #[test]
    fn afd_arm_constructs_and_schedules() {
        let mut s = TopKMigration::new(4, 8, DetectorKind::Afd(AfdConfig::default()));
        assert_eq!(s.name(), "topk-afd-16");
        let qs = view_of(vec![0, 0, 0, 0]);
        let v = SystemView {
            now: SimTime::ZERO,
            queues: &qs,
        };
        for i in 0..100 {
            let c = s.schedule(&pkt(i % 3), &v);
            assert!(c < 4);
        }
    }
}
