//! The scheduler interface and two trivial reference policies.
//!
//! The engine calls [`Scheduler::schedule`] once per arriving packet with
//! a read-only [`SystemView`] of the queue state (the service stage's
//! per-core view) and the scheduler answers with a target core index. The other hooks are
//! feedback (`on_drop`, `on_core_down`/`on_core_up`) and setup-time
//! queries (`name`, `sync_policy`, `core_reallocations`); a policy's
//! internal state (e.g. LAPS's parked cores) is read from the policy
//! itself after the run. Everything else (drop on full queue, penalty
//! accounting, reorder measurement) is engine-side, so policies compare
//! on identical footing.

use crate::packet::PacketDesc;
use detsim::SimTime;

/// Read-only, per-core queue state exposed to schedulers.
#[derive(Debug, Clone, Copy)]
pub struct QueueInfo {
    /// Current queue occupancy (packets waiting, excluding the one in
    /// service).
    pub len: usize,
    /// Queue capacity (32 descriptors in the paper).
    pub capacity: usize,
    /// Whether the core is currently processing a packet.
    pub busy: bool,
    /// Since when the core has been completely idle (empty queue, not
    /// busy); `None` while it has work. Drives the surplus-core timer.
    pub idle_since: Option<SimTime>,
    /// Last time this core's queue built beyond the engine's congestion
    /// watermark (or a packet was dropped at it). A core whose queue has
    /// not congested for `idle_th` has spare capacity — the surplus-core
    /// eligibility signal (§III-D; see DESIGN.md for the interpretation).
    pub last_congested: SimTime,
    /// Whether the core is alive. `false` after a fault-plan crash and
    /// until the matching heal; view helpers skip dead cores, so
    /// load-driven policies degrade around failures automatically.
    pub up: bool,
}

/// Snapshot of system state at a scheduling decision.
#[derive(Debug)]
pub struct SystemView<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// Per-core queue state, indexed by core.
    pub queues: &'a [QueueInfo],
}

impl SystemView<'_> {
    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.queues.len()
    }

    /// The core with the shortest queue among the *live* cores of
    /// `cores` (ties to the lowest index). `None` if `cores` is empty or
    /// every listed core is down.
    pub fn min_queue_core(&self, cores: &[usize]) -> Option<usize> {
        cores
            .iter()
            .copied()
            .filter(|&c| self.queues[c].up)
            .min_by_key(|&c| (self.queues[c].len, c))
    }

    /// The queue length of the longest queue among `cores` (0 if empty).
    pub fn max_queue_len(&self, cores: &[usize]) -> usize {
        cores.iter().map(|&c| self.queues[c].len).max().unwrap_or(0)
    }

    /// The core with the shortest queue among **all live** cores (ties
    /// to the lowest index). Unlike [`SystemView::min_queue_core`], this
    /// needs no core-index slice, so per-packet callers allocate
    /// nothing. `None` when every core is down.
    pub fn min_queue_core_all(&self) -> Option<usize> {
        // Manual strict-less scan (first minimum wins, i.e. ties go to
        // the lowest index, same as `min_by_key` over `(len, c)`): this
        // runs once per packet, and the simple loop compiles to a tight
        // compare-and-select over the queue slice.
        let mut best = None;
        let mut best_len = usize::MAX;
        for (c, q) in self.queues.iter().enumerate() {
            if q.up && q.len < best_len {
                best = Some(c);
                best_len = q.len;
            }
        }
        best
    }
}

/// A policy's answer to a core-failure (or heal) notification: did it
/// restructure its own dispatch state so traffic stops targeting the
/// dead core (resp. flows back onto the healed one)?
///
/// `Unrepaired` is an *honest* answer, not an error: stateless policies
/// (round-robin) and policies whose view already skips dead cores (JSQ)
/// have nothing to restructure, and the engine keeps degrading for them
/// by redirecting arrivals away from dead cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairOutcome {
    /// The policy restructured its dispatch state (e.g. shrank the
    /// owning service's map table so only the failed core's flows
    /// migrate).
    Repaired,
    /// The policy cannot (or need not) repair; the engine's redirect
    /// path carries the degradation.
    Unrepaired,
}

/// How the engine models state synchronization for a State-Compute
/// Replication policy (arXiv 2309.14647): a policy that opts in (via
/// [`Scheduler::sync_policy`]) may send a flow's packets to *any* core,
/// and each packet pays a per-stale-replica service-time surcharge
/// (priced by `DelayModel::sync_cost_us`) for every other core holding
/// the flow's state since its last consolidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncPolicy {
    /// Consolidate a flow's replica set back to the current core after
    /// this many dispatched packets (`0` = never consolidate: the
    /// replica set only grows).
    pub sync_every: u32,
}

/// A packet-scheduling policy.
pub trait Scheduler {
    /// Display name used in reports and figures.
    fn name(&self) -> &str;

    /// Choose the target core for `pkt`. Must return an index
    /// `< view.n_cores()`; the engine will enqueue (or drop, if that
    /// core's queue is full).
    fn schedule(&mut self, pkt: &PacketDesc, view: &SystemView<'_>) -> usize;

    /// Called when the engine drops a packet this scheduler dispatched to
    /// a full queue (some policies react to congestion feedback).
    fn on_drop(&mut self, _pkt: &PacketDesc, _core: usize) {}

    /// How many extra-core requests (`request_core()`) the policy issued;
    /// 0 for policies without dynamic core allocation.
    fn core_reallocations(&self) -> u64 {
        0
    }

    /// The engine crashed `core` (fault injection). The policy should
    /// repair its dispatch state so no new packet targets the dead core
    /// — ideally migrating only the flows resident on it — and report
    /// whether it did. Default: honestly unrepaired.
    fn on_core_down(&mut self, _core: usize) -> RepairOutcome {
        RepairOutcome::Unrepaired
    }

    /// The engine healed `core`; the policy may re-grow onto it
    /// (ideally restoring exactly the flows that left at crash time).
    /// Default: honestly unrepaired.
    fn on_core_up(&mut self, _core: usize) -> RepairOutcome {
        RepairOutcome::Unrepaired
    }

    /// The policy's SCR sync model, if it is a State-Compute Replication
    /// policy. `None` (the default, and the answer of every LAPS-family
    /// and baseline policy) keeps the engine's replica-set bookkeeping
    /// completely off the packet path — the same zero-cost-when-off
    /// contract as probes and fault plans.
    fn sync_policy(&self) -> Option<SyncPolicy> {
        None
    }
}

impl<T: Scheduler + ?Sized> Scheduler for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn schedule(&mut self, pkt: &PacketDesc, view: &SystemView<'_>) -> usize {
        (**self).schedule(pkt, view)
    }
    fn on_drop(&mut self, pkt: &PacketDesc, core: usize) {
        (**self).on_drop(pkt, core)
    }
    fn core_reallocations(&self) -> u64 {
        (**self).core_reallocations()
    }
    fn on_core_down(&mut self, core: usize) -> RepairOutcome {
        (**self).on_core_down(core)
    }
    fn on_core_up(&mut self, core: usize) -> RepairOutcome {
        (**self).on_core_up(core)
    }
    fn sync_policy(&self) -> Option<SyncPolicy> {
        (**self).sync_policy()
    }
}

/// Round-robin dispatch, ignoring both flows and load. The simplest
/// possible baseline; destroys flow locality completely.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// A fresh round-robin scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobin {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn schedule(&mut self, _pkt: &PacketDesc, view: &SystemView<'_>) -> usize {
        let c = self.next % view.n_cores();
        self.next = (self.next + 1) % view.n_cores();
        c
    }
}

/// Join-the-shortest-queue dispatch — the paper's **FCFS** baseline:
/// "FCFS and AFS distribute packets of different services arbitrarily to
/// cores". Perfect load balance, zero flow/service awareness.
#[derive(Debug, Default)]
pub struct JoinShortestQueue;

impl JoinShortestQueue {
    /// A fresh JSQ scheduler.
    pub fn new() -> Self {
        JoinShortestQueue
    }
}

impl Scheduler for JoinShortestQueue {
    fn name(&self) -> &str {
        "fcfs"
    }

    fn schedule(&mut self, _pkt: &PacketDesc, view: &SystemView<'_>) -> usize {
        // Allocation-free: this runs once per packet.
        view.min_queue_core_all().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nphash::{FlowId, FlowSlot};
    use nptraffic::ServiceKind;

    fn pkt() -> PacketDesc {
        PacketDesc {
            id: 0,
            flow: FlowId::from_index(1),
            slot: FlowSlot::new(0),
            service: ServiceKind::IpForward,
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
    fn round_robin_cycles() {
        let qs = view(&[0, 0, 0]);
        let v = SystemView {
            now: SimTime::ZERO,
            queues: &qs,
        };
        let mut rr = RoundRobin::new();
        let picks: Vec<usize> = (0..6).map(|_| rr.schedule(&pkt(), &v)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn jsq_picks_shortest_with_tie_to_lowest() {
        let qs = view(&[3, 1, 1, 5]);
        let v = SystemView {
            now: SimTime::ZERO,
            queues: &qs,
        };
        let mut jsq = JoinShortestQueue::new();
        assert_eq!(jsq.schedule(&pkt(), &v), 1);
    }

    #[test]
    fn view_helpers() {
        let qs = view(&[3, 1, 4, 0]);
        let v = SystemView {
            now: SimTime::ZERO,
            queues: &qs,
        };
        assert_eq!(v.n_cores(), 4);
        assert_eq!(v.min_queue_core(&[0, 2]), Some(0));
        assert_eq!(v.min_queue_core(&[]), None);
        assert_eq!(v.max_queue_len(&[0, 1, 2, 3]), 4);
        assert_eq!(v.min_queue_core_all(), Some(3));
    }

    #[test]
    fn view_helpers_skip_dead_cores() {
        let mut qs = view(&[3, 1, 4, 0]);
        qs[3].up = false; // the global minimum is down
        qs[1].up = false; // and so is the runner-up slice pick
        let v = SystemView {
            now: SimTime::ZERO,
            queues: &qs,
        };
        assert_eq!(v.min_queue_core_all(), Some(0));
        assert_eq!(v.min_queue_core(&[1, 2]), Some(2));
        assert_eq!(v.min_queue_core(&[1, 3]), None, "all listed cores down");
        let mut jsq = JoinShortestQueue::new();
        assert_eq!(jsq.schedule(&pkt(), &v), 0, "JSQ degrades around faults");
    }

    #[test]
    fn default_sync_policy_is_none_and_box_forwards() {
        let rr = RoundRobin::new();
        assert_eq!(rr.sync_policy(), None, "baselines never opt into SCR");
        struct Scrish;
        impl Scheduler for Scrish {
            fn name(&self) -> &str {
                "scrish"
            }
            fn schedule(&mut self, _p: &PacketDesc, _v: &SystemView<'_>) -> usize {
                0
            }
            fn sync_policy(&self) -> Option<SyncPolicy> {
                Some(SyncPolicy { sync_every: 8 })
            }
        }
        let boxed: Box<dyn Scheduler> = Box::new(Scrish);
        assert_eq!(boxed.sync_policy(), Some(SyncPolicy { sync_every: 8 }));
    }

    #[test]
    fn default_repair_hooks_are_honestly_unrepaired() {
        let mut rr = RoundRobin::new();
        assert_eq!(rr.on_core_down(1), RepairOutcome::Unrepaired);
        assert_eq!(rr.on_core_up(1), RepairOutcome::Unrepaired);
        let mut boxed: Box<dyn Scheduler> = Box::new(JoinShortestQueue::new());
        assert_eq!(boxed.on_core_down(0), RepairOutcome::Unrepaired);
    }
}
