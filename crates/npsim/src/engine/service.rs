//! Service stage: per-core bounded queues and packet execution.
//!
//! Owns the core array (queue, packet in service, and the core's
//! [`CoreClock`] — cold starts, the Eq. 3 delay, throttles, stall
//! windows, busy time) and the per-core [`QueueInfo`] view the
//! scheduler reads. The view is the only home of `idle_since`,
//! `last_congested`, `up` and `capacity`; `len` and `busy` are written
//! by the mutation that changes them, so the view is current whenever
//! the orchestrator hands it to the scheduler. Enqueue outcomes and
//! service starts are returned to the orchestrator, which publishes the
//! corresponding bus events and schedules the finish timer.
//!
//! Fault support: each core carries an `up` flag (in the view); its
//! clock reads throttles and stall windows off the fault plan, and a
//! core starts no service while its clock says it is stalled. A crash
//! drains the core's backlog (returned to the orchestrator for drop
//! accounting) and refunds the unearned remainder of its in-service
//! busy credit; the orchestrator orphans the core's armed finish timer.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use super::EngineConfig;
use crate::core_clock::CoreClock;
use crate::packet::PacketDesc;
use crate::sched::QueueInfo;
use detsim::{BoundedQueue, PushOutcome, SimTime};
use nphash::FlowSlot;
use nptraffic::ServiceKind;

#[derive(Debug)]
struct Core {
    queue: BoundedQueue<PacketDesc>,
    current: Option<PacketDesc>,
    /// Cost model, stall windows and virtual clock; its `vt` is when
    /// the in-service packet completes.
    clock: CoreClock,
}

/// A packet entering service: what the orchestrator needs to publish
/// `ServiceStart` and arm the finish timer.
#[derive(Debug, Clone, Copy)]
pub(super) struct Started {
    pub service: ServiceKind,
    /// Flow of the packet entering service (batched mode prefetches the
    /// order tracker's line for it ahead of the departure).
    pub slot: FlowSlot,
    pub cold: bool,
    pub migrated: bool,
    pub duration: SimTime,
}

/// Queue depth at which a core counts as "congested" for the
/// surplus-core eligibility signal (`QueueInfo::last_congested`).
const CONGESTION_WATERMARK: usize = 2;

#[derive(Debug)]
pub(super) struct ServiceStage {
    cores: Vec<Core>,
    /// The scheduler's view, one entry per core (see the module docs).
    view: Vec<QueueInfo>,
}

impl ServiceStage {
    pub(super) fn new(cfg: &EngineConfig) -> Self {
        let cores = (0..cfg.n_cores)
            .map(|i| Core {
                queue: BoundedQueue::new(cfg.queue_capacity),
                current: None,
                clock: CoreClock::new(cfg, i),
            })
            .collect();
        let idle = QueueInfo {
            len: 0,
            capacity: cfg.queue_capacity,
            busy: false,
            idle_since: Some(SimTime::ZERO),
            last_congested: SimTime::ZERO,
            up: true,
        };
        ServiceStage {
            cores,
            view: vec![idle; cfg.n_cores],
        }
    }

    pub(super) fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// The per-core queue state the scheduler decides on.
    #[inline]
    pub(super) fn view(&self) -> &[QueueInfo] {
        &self.view
    }

    /// Core `i` and its view entry.
    #[inline]
    fn core_mut(&mut self, i: usize) -> Option<(&mut Core, &mut QueueInfo)> {
        self.cores.get_mut(i).zip(self.view.get_mut(i))
    }

    /// Try to enqueue `pkt` on `target`; a full queue drops the arrival
    /// (drop-tail, the paper's model). A drop or a queue at/above the
    /// watermark stamps `last_congested`.
    pub(super) fn enqueue(&mut self, target: usize, pkt: PacketDesc, now: SimTime) -> PushOutcome {
        // `target` < n_cores is asserted at dispatch, so the lookup is
        // total.
        let Some((c, q)) = self.core_mut(target) else {
            return PushOutcome::Dropped;
        };
        if !q.up {
            // The orchestrator redirects arrivals away from dead cores;
            // reaching one here means no live core was left.
            q.last_congested = now;
            return PushOutcome::Dropped;
        }
        let outcome = c.queue.push(pkt);
        match outcome {
            PushOutcome::Enqueued(len) => {
                q.len = len;
                if len >= CONGESTION_WATERMARK {
                    q.last_congested = now;
                }
            }
            PushOutcome::Dropped => q.last_congested = now,
        }
        outcome
    }

    /// Pull the next queued packet into service on `core`, if the core
    /// is free and work is waiting. Returns the service parameters so
    /// the orchestrator can arm the finish timer; `None` if the core is
    /// busy, down, stalled, or its queue is empty (the latter marks the
    /// idle start).
    pub(super) fn start_processing(&mut self, core: usize, now: SimTime) -> Option<Started> {
        // Core IDs originate from our own event queue / scheduler-checked
        // dispatch; an out-of-range ID is a bug upstream, not a reason to
        // panic mid-run.
        let (Some(slot), Some(q)) = (self.cores.get_mut(core), self.view.get_mut(core)) else {
            debug_assert!(false, "start_processing on unknown core {core}");
            return None;
        };
        if q.busy || !q.up || slot.clock.stalled(now) {
            return None;
        }
        let Some(pkt) = slot.queue.pop() else {
            if q.idle_since.is_none() {
                q.idle_since = Some(now);
            }
            return None;
        };
        // A core frees up at its clock's `vt` (the finish event) or by a
        // crash, which stops the clock, and `now` is outside every stall
        // window: the packet starts now.
        let charge = slot
            .clock
            .start(now, pkt.service, pkt.size, pkt.migrated, pkt.sync_debt_ns);
        #[cfg(feature = "invariants")]
        assert_eq!(
            slot.clock.vt(),
            now + charge.duration,
            "core {core} started a service away from now={now:?}"
        );
        let started = Started {
            service: pkt.service,
            slot: pkt.slot,
            cold: charge.cold,
            migrated: pkt.migrated,
            duration: charge.duration,
        };
        slot.current = Some(pkt);
        q.len = slot.queue.len();
        q.busy = true;
        q.idle_since = None;
        Some(started)
    }

    /// Take the packet in service on `core` (a finish event fired).
    pub(super) fn take_current(&mut self, core: usize) -> Option<PacketDesc> {
        let (c, q) = self.core_mut(core)?;
        q.busy = false;
        c.current.take()
    }

    /// Whether `core` is alive.
    #[inline]
    pub(super) fn is_up(&self, core: usize) -> bool {
        self.view.get(core).is_some_and(|q| q.up)
    }

    /// Kill `core`: mark it down, refund the unearned remainder of its
    /// in-service busy credit, and return every packet it was holding —
    /// in-service first, then the queue in FIFO order — for the
    /// orchestrator to account as drops. Idempotent: a second crash
    /// of a down core returns nothing.
    pub(super) fn crash(&mut self, core: usize, now: SimTime) -> Vec<PacketDesc> {
        let Some((slot, q)) = self.core_mut(core) else {
            return Vec::new();
        };
        if !q.up {
            return Vec::new();
        }
        q.up = false;
        q.idle_since = None;
        // The full duration was credited at start; the clock refunds
        // what the core will no longer perform.
        slot.clock.crash(now);
        let mut lost = Vec::new();
        if let Some(pkt) = slot.current.take() {
            lost.push(pkt);
        }
        while let Some(pkt) = slot.queue.pop() {
            lost.push(pkt);
        }
        q.len = 0;
        q.busy = false;
        lost
    }

    /// Revive `core` after a crash: it rejoins idle, at full speed,
    /// with a cold instruction cache (both kept by its clock). Returns
    /// `false` (no-op) if the core was already up.
    pub(super) fn heal(&mut self, core: usize, now: SimTime) -> bool {
        let Some((_, q)) = self.core_mut(core) else {
            return false;
        };
        if q.up {
            return false;
        }
        q.up = true;
        q.idle_since = Some(now);
        true
    }

    /// Per-core busy nanoseconds, for the final report.
    pub(super) fn busy_ns(&self) -> Vec<u64> {
        // npcheck: allow(blocking-hot-path) — end-of-run report, not on the per-packet path
        self.cores.iter().map(|c| c.clock.busy_ns()).collect()
    }

    /// Packets waiting across all queues (invariant checking).
    #[cfg(feature = "invariants")]
    pub(super) fn queued_total(&self) -> u64 {
        self.cores.iter().map(|c| c.queue.len() as u64).sum()
    }

    /// Packets currently in service (invariant checking).
    #[cfg(feature = "invariants")]
    pub(super) fn in_service_total(&self) -> u64 {
        self.cores.iter().filter(|c| c.current.is_some()).count() as u64
    }

    /// View coherence (invariant checking): every entry's `len`, `busy`
    /// and `capacity` match a recount of its core, and a dead core
    /// holds nothing and is not idle.
    #[cfg(feature = "invariants")]
    pub(super) fn check_view(&self, now: SimTime) {
        for (i, (c, q)) in self.cores.iter().zip(&self.view).enumerate() {
            assert!(
                q.len == c.queue.len()
                    && q.busy == c.current.is_some()
                    && q.capacity == c.queue.capacity()
                    && (q.up || (q.len == 0 && !q.busy && q.idle_since.is_none())),
                "scheduler view out of sync with core {i} at t={now:?}: {q:?}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use detsim::SplitMix64;
    use nphash::FlowId;

    fn pkt(id: u64) -> PacketDesc {
        PacketDesc {
            id,
            flow: FlowId::from_index(1),
            slot: FlowSlot::new(0),
            service: ServiceKind::IpForward,
            size: 64,
            arrival: SimTime::ZERO,
            flow_seq: id,
            migrated: false,
            sync_debt_ns: 0,
        }
    }

    /// After every step of a random enqueue / start / take / crash / heal
    /// sequence, under a plan that stalls every core now and then, each
    /// entry equals a from-scratch recount — `len` and `busy` from the
    /// core's queue and in-service slot, `up`, `idle_since` and
    /// `last_congested` from a model of the rules the module documents.
    /// A start is refused inside a plan window (the plan has no crash
    /// to cut one).
    ///
    /// It bites: deleting the `q.len = 0` write in `crash` fails it at
    /// the first crash of a core with a backlog.
    #[test]
    fn view_matches_a_recount_after_every_mutation() {
        const CORES: usize = 3;
        const CAP: usize = 4;
        let mut rng = SplitMix64::new(7);
        // One stall of 1–8 µs on a random core in every 40 µs of the
        // walk's ≈ 7 ms.
        let mut plan = FaultPlan::new();
        let mut windows = Vec::new();
        for k in 0..175u64 {
            let at = SimTime::from_micros(40 * k + rng.next_u64() % 40);
            let d = SimTime::from_nanos(1_000 + rng.next_u64() % 7_000);
            let core = (rng.next_u64() % CORES as u64) as usize;
            plan = plan.stall(at, core, d);
            windows.push((core, at, at + d));
        }
        let stalled = |core: usize, t: SimTime| {
            windows
                .iter()
                .any(|&(c, at, end)| c == core && at <= t && t < end)
        };
        let cfg = EngineConfig {
            n_cores: CORES,
            queue_capacity: CAP,
            scale: 1.0,
            faults: plan,
            ..EngineConfig::default()
        };
        let mut st = ServiceStage::new(&cfg);
        // Per core: (up, idle_since, last_congested).
        let mut model = [(true, Some(SimTime::ZERO), SimTime::ZERO); CORES];
        let mut now = SimTime::ZERO;
        let (mut crashes_with_backlog, mut drops, mut refused) = (0, 0, 0);
        for step in 0..20_000u64 {
            now += SimTime::from_nanos(rng.next_u64() % 500);
            let r = rng.next_u64();
            let i = (r % CORES as u64) as usize;
            let (up, idle, congested) = &mut model[i];
            if st.cores[i].current.is_some() && st.cores[i].clock.vt() <= now {
                // The finish event would have fired by now.
                st.take_current(i);
            }
            match (r >> 8) % 10 {
                0..=3 => {
                    let before = st.cores[i].queue.len();
                    let out = st.enqueue(i, pkt(step), now);
                    if !*up || before >= CAP {
                        assert_eq!(out, PushOutcome::Dropped);
                        drops += 1;
                        *congested = now;
                    } else if before + 1 >= CONGESTION_WATERMARK {
                        *congested = now;
                    }
                }
                4 | 5 | 9 => {
                    let c = &st.cores[i];
                    let free = *up && c.current.is_none() && !stalled(i, now);
                    let empty = c.queue.is_empty();
                    refused += usize::from(*up && c.current.is_none() && !free && !empty);
                    let started = st.start_processing(i, now).is_some();
                    assert_eq!(started, free && !empty);
                    if free {
                        *idle = if empty {
                            Some(idle.unwrap_or(now))
                        } else {
                            None
                        };
                    }
                }
                6 => {
                    // Its finish event fires: time moves to it (a core's
                    // clock is never asked about an instant before its
                    // last start).
                    if st.cores[i].current.is_some() {
                        now = st.cores[i].clock.vt();
                        st.take_current(i);
                    }
                }
                7 => {
                    crashes_with_backlog += usize::from(*up && !st.cores[i].queue.is_empty());
                    st.crash(i, now);
                    if *up {
                        *up = false;
                        *idle = None;
                    }
                }
                _ => {
                    if st.heal(i, now) {
                        *up = true;
                        *idle = Some(now);
                    }
                }
            }
            for (c, (core, q)) in st.cores.iter().zip(st.view()).enumerate() {
                let (up, idle, congested) = model[c];
                let recount = (
                    core.queue.len(),
                    CAP,
                    core.current.is_some(),
                    idle,
                    congested,
                    up,
                );
                let seen = (
                    q.len,
                    q.capacity,
                    q.busy,
                    q.idle_since,
                    q.last_congested,
                    q.up,
                );
                assert_eq!(seen, recount, "core {c} after step {step}");
            }
        }
        assert!(
            crashes_with_backlog > 10 && drops > 100 && refused > 10,
            "the walk reaches the edges: {crashes_with_backlog} {drops} {refused}"
        );
    }
}
