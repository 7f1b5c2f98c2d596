//! Service stage: per-core bounded queues and packet execution.
//!
//! Owns the core array (queue, packet in service, cache state, busy
//! time, fault health) and the Eq. 3 delay model. Enqueue outcomes and
//! service starts are returned to the orchestrator, which publishes the
//! corresponding bus events and schedules the finish timer.
//!
//! Fault support: each core carries an `up` flag, a service-duration
//! multiplier (throttle) and a stall latch. A crash drains the core's
//! backlog (returned to the orchestrator for drop accounting) and
//! refunds the unearned remainder of its in-service busy credit; the
//! orchestrator orphans the core's armed finish timer.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use crate::packet::PacketDesc;
use crate::sched::QueueInfo;
use detsim::{BoundedQueue, PushOutcome, SimTime};
use nphash::FlowSlot;
use nptraffic::{DelayModel, ServiceKind};

#[derive(Debug)]
struct Core {
    queue: BoundedQueue<PacketDesc>,
    current: Option<PacketDesc>,
    /// When the in-service packet completes; meaningful only while
    /// `current.is_some()` (used to refund busy credit on a crash).
    finish_at: SimTime,
    last_service: Option<ServiceKind>,
    idle_since: Option<SimTime>,
    last_congested: SimTime,
    busy_ns: u64,
    /// Alive? `false` between a fault-plan crash and the matching heal.
    up: bool,
    /// Transient stall: the core finishes its current packet but starts
    /// no new service until a stall-end event at or after this instant
    /// clears it (the latest end over overlapping stalls). `None` = not
    /// stalled.
    stalled_until: Option<SimTime>,
    /// Service-duration multiplier (throttle); 1.0 at full speed.
    speed: f64,
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
    delay: DelayModel,
}

impl ServiceStage {
    pub(super) fn new(n_cores: usize, queue_capacity: usize, delay: DelayModel) -> Self {
        let cores = (0..n_cores)
            .map(|_| Core {
                queue: BoundedQueue::new(queue_capacity),
                current: None,
                finish_at: SimTime::ZERO,
                last_service: None,
                idle_since: Some(SimTime::ZERO),
                last_congested: SimTime::ZERO,
                busy_ns: 0,
                up: true,
                stalled_until: None,
                speed: 1.0,
            })
            .collect();
        ServiceStage { cores, delay }
    }

    pub(super) fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// Try to enqueue `pkt` on `target`; a full queue drops the arrival
    /// (drop-tail, the paper's model). A drop or a queue at/above the
    /// watermark stamps `last_congested`.
    pub(super) fn enqueue(&mut self, target: usize, pkt: PacketDesc, now: SimTime) -> PushOutcome {
        // `target` < n_cores is asserted at dispatch, so the lookup is
        // total.
        let Some(c) = self.cores.get_mut(target) else {
            return PushOutcome::Dropped;
        };
        if !c.up {
            // The orchestrator redirects arrivals away from dead cores;
            // reaching one here means no live core was left.
            c.last_congested = now;
            return PushOutcome::Dropped;
        }
        let outcome = c.queue.push(pkt);
        match outcome {
            PushOutcome::Enqueued(len) if len < CONGESTION_WATERMARK => {}
            _ => c.last_congested = now,
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
        let Some(slot) = self.cores.get_mut(core) else {
            debug_assert!(false, "start_processing on unknown core {core}");
            return None;
        };
        if slot.current.is_some() || !slot.up || slot.stalled_until.is_some() {
            return None;
        }
        let Some(pkt) = slot.queue.pop() else {
            if slot.idle_since.is_none() {
                slot.idle_since = Some(now);
            }
            return None;
        };
        let cold = slot.last_service != Some(pkt.service);
        let d_us = self
            .delay
            .processing_delay_us(pkt.service, pkt.size, pkt.migrated, cold);
        // The SCR sync surcharge was stamped at dispatch (already scaled;
        // state retrieval is fabric time, so the core-speed throttle does
        // not apply). Zero for every non-SCR packet: adding it is the
        // cost model's only touch on this path.
        let d = SimTime::from_micros_f64(d_us * slot.speed)
            + SimTime::from_nanos(u64::from(pkt.sync_debt_ns));
        slot.busy_ns += d.as_nanos();
        slot.last_service = Some(pkt.service);
        let started = Started {
            service: pkt.service,
            slot: pkt.slot,
            cold,
            migrated: pkt.migrated,
            duration: d,
        };
        slot.current = Some(pkt);
        slot.finish_at = now + d;
        slot.idle_since = None;
        Some(started)
    }

    /// Take the packet in service on `core` (a finish event fired).
    pub(super) fn take_current(&mut self, core: usize) -> Option<PacketDesc> {
        self.cores.get_mut(core).and_then(|c| c.current.take())
    }

    /// Whether `core` is alive.
    #[inline]
    pub(super) fn is_up(&self, core: usize) -> bool {
        self.cores.get(core).is_some_and(|c| c.up)
    }

    /// The live core with the shortest queue (ties to the lowest
    /// index) — the orchestrator's redirect target when a scheduler
    /// picks a dead core. `None` when every core is down.
    pub(super) fn shortest_up_queue(&self) -> Option<usize> {
        let mut best = None;
        let mut best_len = usize::MAX;
        for (c, slot) in self.cores.iter().enumerate() {
            let len = slot.queue.len();
            if slot.up && len < best_len {
                best = Some(c);
                best_len = len;
            }
        }
        best
    }

    /// Kill `core`: mark it down, end any stall, refund the unearned
    /// remainder of its in-service busy credit, and return every packet it was
    /// holding — in-service first, then the queue in FIFO order — for
    /// the orchestrator to account as drops. Idempotent: a second crash
    /// of a down core returns nothing.
    pub(super) fn crash(&mut self, core: usize, now: SimTime) -> Vec<PacketDesc> {
        let Some(slot) = self.cores.get_mut(core) else {
            return Vec::new();
        };
        if !slot.up {
            return Vec::new();
        }
        slot.up = false;
        slot.stalled_until = None;
        slot.speed = 1.0;
        slot.idle_since = None;
        slot.last_service = None;
        let mut lost = Vec::new();
        if let Some(pkt) = slot.current.take() {
            // The full duration was credited at start; refund what the
            // core will no longer perform.
            let remaining = (slot.finish_at - now).as_nanos();
            slot.busy_ns = slot.busy_ns.saturating_sub(remaining);
            lost.push(pkt);
        }
        while let Some(pkt) = slot.queue.pop() {
            lost.push(pkt);
        }
        lost
    }

    /// Revive `core` after a crash: it rejoins idle, at full speed,
    /// with a cold instruction cache. Returns `false` (no-op) if the
    /// core was already up.
    pub(super) fn heal(&mut self, core: usize, now: SimTime) -> bool {
        let Some(slot) = self.cores.get_mut(core) else {
            return false;
        };
        if slot.up {
            return false;
        }
        slot.up = true;
        slot.idle_since = Some(now);
        slot.speed = 1.0;
        true
    }

    /// Set `core`'s service-duration multiplier (throttle; 1.0 restores
    /// full speed). Ignored on a dead core (a heal resets speed).
    pub(super) fn set_speed(&mut self, core: usize, factor: f64) {
        if let Some(slot) = self.cores.get_mut(core) {
            if slot.up && factor > 0.0 {
                slot.speed = factor;
            }
        }
    }

    /// Latch a transient stall on `core` until `until`: its current
    /// packet completes, but no new service starts before a stall end at
    /// or after `until` — overlapping stalls extend the window, they do
    /// not cut it short. Returns `false` (no-op) on a dead core.
    pub(super) fn stall(&mut self, core: usize, until: SimTime) -> bool {
        match self.cores.get_mut(core) {
            Some(slot) if slot.up => {
                slot.stalled_until = Some(slot.stalled_until.map_or(until, |u| u.max(until)));
                true
            }
            _ => false,
        }
    }

    /// A stall-end event fired on `core` at `now`. Clears the latch and
    /// returns `true` unless a longer overlapping stall is still in
    /// force (then this end is not the last one and must not resume
    /// the core).
    pub(super) fn end_stall(&mut self, core: usize, now: SimTime) -> bool {
        match self.cores.get_mut(core) {
            Some(slot) if slot.stalled_until.is_some_and(|until| now < until) => false,
            Some(slot) => {
                slot.stalled_until = None;
                true
            }
            None => false,
        }
    }

    /// A fresh [`QueueInfo`] snapshot of `core`'s state.
    #[inline]
    pub(super) fn snapshot(&self, core: usize) -> Option<QueueInfo> {
        self.cores.get(core).map(|c| QueueInfo {
            len: c.queue.len(),
            capacity: c.queue.capacity(),
            busy: c.current.is_some(),
            idle_since: c.idle_since,
            last_congested: c.last_congested,
            up: c.up,
        })
    }

    /// Per-core busy nanoseconds, for the final report.
    pub(super) fn busy_ns(&self) -> Vec<u64> {
        // npcheck: allow(blocking-hot-path) — end-of-run report, not on the per-packet path
        self.cores.iter().map(|c| c.busy_ns).collect()
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
}
