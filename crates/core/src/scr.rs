//! State-Compute Replication schedulers (arXiv 2309.14647) — the
//! opposite pole to LAPS.
//!
//! LAPS balances load while *minimizing* migrations, because moving a
//! flow means moving its state. SCR removes the constraint instead of
//! minimizing under it: replicate per-flow state so **any core can take
//! any packet**, and pay a state-synchronization cost whenever a core
//! processes a packet of a flow whose state other cores have touched
//! since the last consolidation. Load balance becomes trivial (the
//! dispatcher is stateless); the question the `scr_compare` experiment
//! asks is whether the sync bill (and the reordering that
//! spray-dispatch causes) eats the benefit.
//!
//! The policies here make the dispatch decisions; the *cost model* —
//! per-flow replica-set bitmaps, the per-stale-replica service-time
//! surcharge, consolidation — lives in the engine, keyed off
//! [`npsim::Scheduler::sync_policy`] and priced by
//! `DelayModel::sync_cost_us` (zero-cost when either is absent, the
//! same dormant pattern as probes and fault plans).
//!
//! Three dispatch disciplines, all flow-oblivious:
//!
//! * [`Scr::round_robin`] (`scr-rr`) — pure packet spraying; decision
//!   stream identical to [`npsim::RoundRobin`], so at `sync_cost_us = 0`
//!   its reports are byte-identical to round-robin's (pinned by a
//!   workspace test).
//! * [`Scr::power_of_two`] (`scr-p2c`) — power-of-two-choices: sample
//!   two cores from a seeded [`SplitMix64`] stream, take the shorter
//!   queue (ties to the lower index). The classic
//!   load-balancing sweet spot between spraying and full JSQ scans.
//! * [`Scr::with_sync`] (`scr-sync{k}`) — round-robin dispatch plus
//!   periodic state consolidation: after `k` packets of a flow, its
//!   replica set collapses back to a single master core, bounding the
//!   stale-replica count a packet can be billed for.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use detsim::SplitMix64;
use npsim::{PacketDesc, Scheduler, SyncPolicy, SystemView};

/// How an [`Scr`] instance picks cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Discipline {
    /// Cycle through cores packet by packet.
    RoundRobin,
    /// Two seeded random candidates, shorter queue wins.
    PowerOfTwo,
}

/// A State-Compute Replication scheduler: flow-oblivious dispatch plus
/// an engine-side sync-cost opt-in. See the module docs.
#[derive(Debug)]
pub struct Scr {
    /// Registry-facing name (`scr-rr`, `scr-p2c`, `scr-sync{k}`) —
    /// owned because the sync variants embed their period.
    name: String,
    discipline: Discipline,
    /// Round-robin cursor.
    next: usize,
    /// Candidate stream for power-of-two-choices.
    rng: SplitMix64,
    /// Consolidation period handed to the engine (0 = never).
    sync_every: u32,
}

impl Scr {
    /// `scr-rr`: pure packet spraying, no consolidation.
    pub fn round_robin() -> Self {
        Scr {
            // npcheck: allow(blocking-hot-path) — constructor, runs once at registry build
            name: "scr-rr".to_string(),
            discipline: Discipline::RoundRobin,
            next: 0,
            rng: SplitMix64::new(0),
            sync_every: 0,
        }
    }

    /// `scr-p2c`: power-of-two-choices over a stream seeded by `seed`
    /// (derive it from the engine seed for reproducible runs).
    pub fn power_of_two(seed: u64) -> Self {
        Scr {
            // npcheck: allow(blocking-hot-path) — constructor, runs once at registry build
            name: "scr-p2c".to_string(),
            discipline: Discipline::PowerOfTwo,
            next: 0,
            rng: SplitMix64::new(seed),
            sync_every: 0,
        }
    }

    /// `scr-sync{k}`: round-robin dispatch with state consolidation
    /// every `k` packets of a flow (`k = 0` degenerates to
    /// [`Scr::round_robin`] semantics under a different name).
    pub fn with_sync(k: u32) -> Self {
        Scr {
            name: format!("scr-sync{k}"),
            discipline: Discipline::RoundRobin,
            next: 0,
            rng: SplitMix64::new(0),
            sync_every: k,
        }
    }
}

impl Scheduler for Scr {
    fn name(&self) -> &str {
        &self.name
    }

    fn schedule(&mut self, _pkt: &PacketDesc, view: &SystemView<'_>) -> usize {
        let n = view.n_cores();
        match self.discipline {
            Discipline::RoundRobin => {
                // Mirrors npsim::RoundRobin exactly: same cursor
                // arithmetic, same decision stream (the cost-0
                // byte-identity test depends on it).
                let c = self.next % n;
                self.next = (self.next + 1) % n;
                c
            }
            Discipline::PowerOfTwo => {
                let n64 = n.max(1) as u64;
                let a = (self.rng.next_u64() % n64) as usize;
                let b = (self.rng.next_u64() % n64) as usize;
                let (Some(qa), Some(qb)) = (view.queues.get(a), view.queues.get(b)) else {
                    // Unreachable: both indices are `% n_cores`.
                    return 0;
                };
                // Prefer live cores; between two live ones, shorter
                // queue wins, ties to the lower index. (A dead pick
                // with faults configured is redirected by the engine.)
                match (qa.up, qb.up) {
                    (true, false) => a,
                    (false, true) => b,
                    _ => {
                        if (qb.len, b) < (qa.len, a) {
                            b
                        } else {
                            a
                        }
                    }
                }
            }
        }
    }

    fn sync_policy(&self) -> Option<SyncPolicy> {
        Some(SyncPolicy {
            sync_every: self.sync_every,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detsim::SimTime;
    use npsim::{QueueInfo, RoundRobin};

    fn pkt() -> PacketDesc {
        PacketDesc {
            id: 0,
            flow: nphash::FlowId::from_index(1),
            slot: nphash::FlowSlot::new(0),
            service: nptraffic::ServiceKind::IpForward,
            size: 64,
            arrival: SimTime::ZERO,
            flow_seq: 0,
            migrated: false,
            sync_debt_ns: 0,
        }
    }

    fn view(lens: &[usize]) -> Vec<QueueInfo> {
        lens.iter()
            .map(|&len| QueueInfo {
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
    fn scr_rr_matches_round_robin_decisions() {
        let qs = view(&[5, 0, 3, 1]);
        let v = SystemView {
            now: SimTime::ZERO,
            queues: &qs,
        };
        let mut scr = Scr::round_robin();
        let mut rr = RoundRobin::new();
        for _ in 0..17 {
            assert_eq!(scr.schedule(&pkt(), &v), rr.schedule(&pkt(), &v));
        }
        assert_eq!(scr.name(), "scr-rr");
        assert_eq!(scr.sync_policy(), Some(SyncPolicy { sync_every: 0 }));
    }

    #[test]
    fn p2c_prefers_shorter_of_two_and_stays_in_range() {
        let qs = view(&[9, 0, 9, 9]);
        let v = SystemView {
            now: SimTime::ZERO,
            queues: &qs,
        };
        let mut scr = Scr::power_of_two(7);
        let mut picks = [0usize; 4];
        for _ in 0..200 {
            let c = scr.schedule(&pkt(), &v);
            assert!(c < 4);
            picks[c] += 1;
        }
        // Core 1 (empty queue) wins every comparison it appears in, so
        // it must dominate cores it was sampled against.
        assert!(
            picks[1] > picks[0] && picks[1] > picks[2] && picks[1] > picks[3],
            "p2c should favor the empty queue: {picks:?}"
        );
    }

    #[test]
    fn p2c_is_deterministic_per_seed_and_avoids_dead_cores() {
        let qs = view(&[2, 2]);
        let v = SystemView {
            now: SimTime::ZERO,
            queues: &qs,
        };
        let run = |seed| {
            let mut s = Scr::power_of_two(seed);
            (0..32).map(|_| s.schedule(&pkt(), &v)).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2), "different seeds, different streams");

        let mut qs = view(&[0, 9]);
        qs[0].up = false;
        let v = SystemView {
            now: SimTime::ZERO,
            queues: &qs,
        };
        let mut s = Scr::power_of_two(3);
        let live = (0..64).filter(|_| s.schedule(&pkt(), &v) == 1).count();
        // The dead core can still be returned when BOTH samples land on
        // it (the engine's redirect path covers that); whenever the live
        // core is a candidate it must win, so it carries ~3/4 of picks.
        assert!(
            live >= 40,
            "live core should win every mixed pair: {live}/64"
        );
    }

    #[test]
    fn sync_variants_carry_their_period() {
        let s = Scr::with_sync(16);
        assert_eq!(s.name(), "scr-sync16");
        assert_eq!(s.sync_policy(), Some(SyncPolicy { sync_every: 16 }));
        assert_eq!(Scr::with_sync(8).name(), "scr-sync8");
    }
}
