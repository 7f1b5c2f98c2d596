//! The detsim event clock: the engine's virtual-time transport,
//! extracted so the staged pipeline reads as stages + clock rather than
//! stages wired to a specific queue.
//!
//! The event handlers in [`super`] are written once, against the
//! [`Pending`] trait: everything a handler needs from the pending-event
//! set (obtain the fired arrival, arm the next arrival / a finish / a
//! stall end / the rate tick, orphan a crashed core's finish). The
//! scalar reference loop backs it with [`HeapPending`] — one
//! `detsim::EventQueue` push per armed event; the batched loop backs it
//! with slot families ([`BatchState`](super::batch)), whose arrivals
//! come either from its own lookahead or from the hand-off of a stream
//! thread. The npexec thread-per-core backend replaces the clock
//! altogether with real threads fed from the offered stream (see
//! [`plan`](super::plan), which runs the `BatchState` merge with no
//! cores at all).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use super::cycles::CycleSink;
use super::ingest::{Header, IngestStage};
use detsim::{EventQueue, SimTime};
use nphash::FlowSlot;

/// The pending-event set as the event handlers see it. Both
/// implementations realise the same `(time, insertion seq)` total
/// order; the handlers call the `arm_*` methods at the same points in
/// the same order under either, which is what makes the two run loops
/// byte-identical.
pub(super) trait Pending {
    /// Obtain the arrival that just fired on `src` and admit it.
    fn admit(&mut self, src: usize) -> Option<Header>;

    /// Arm `src`'s next arrival after the one at `now`, if it lands at
    /// or before `horizon` (this is the source's next gap draw).
    fn arm_arrival<C: CycleSink>(
        &mut self,
        src: usize,
        now: SimTime,
        horizon: SimTime,
        sink: &mut C,
    );

    /// The flow slot of an arrival about to be processed after `src`'s
    /// next one was armed, when it is already known, so the caller can
    /// prefetch its flow-table lines.
    fn head_slot(&self, src: usize) -> Option<FlowSlot>;

    /// A rate tick fired at `now`: re-sample every source's rate law —
    /// unless the sources live on the hand-off's stream thread, which
    /// refreshes them on its own tick of the same schedule.
    fn refresh_rates(&mut self, now: SimTime);

    /// Arm `core`'s service completion at `at`.
    fn arm_finish(&mut self, core: usize, at: SimTime);

    /// `core` crashed: its armed finish (if any) must still fire — the
    /// run loop counts it in `SimReport::events` — but as a no-op.
    fn orphan_finish(&mut self, core: usize);

    /// Arm the end of a transient stall on `core` at `at`.
    fn arm_stall_end(&mut self, core: usize, at: SimTime);

    /// Arm the next rate-update tick at `at`.
    fn arm_rate_tick(&mut self, at: SimTime);
}

#[derive(Debug, Clone, Copy)]
pub(super) enum Ev {
    Arrival(usize),
    /// A core's service completion. Carries the core's finish
    /// generation at arming time: a crash bumps the generation, so the
    /// dead core's in-flight finish event is recognized as stale and
    /// discarded instead of completing a dropped packet.
    Finish(usize, u32),
    RateUpdate,
    /// The fault-plan entry at this index fires.
    Fault(usize),
    /// A transient stall on this core ends.
    StallEnd(usize),
}

/// The scalar loop's pending set: the binary heap, plus the per-core
/// finish generations that mark a crashed core's heap entry stale (a
/// heap cannot delete from the middle), plus the ingest stage whose
/// draws the heap's arrivals trigger.
#[derive(Debug)]
pub(super) struct HeapPending {
    pub(super) events: EventQueue<Ev>,
    generation: Vec<u32>,
    pub(super) ingest: IngestStage,
}

impl HeapPending {
    pub(super) fn new(n_cores: usize, ingest: IngestStage) -> Self {
        HeapPending {
            events: EventQueue::with_capacity(1024),
            generation: vec![0; n_cores],
            ingest,
        }
    }

    /// Whether a finish armed under `generation` on `core` is still the
    /// live one (no crash in between).
    #[inline]
    pub(super) fn finish_is_live(&self, core: usize, generation: u32) -> bool {
        self.generation.get(core) == Some(&generation)
    }
}

impl Pending for HeapPending {
    #[inline]
    fn admit(&mut self, src: usize) -> Option<Header> {
        self.ingest.admit(src)
    }

    #[inline]
    fn arm_arrival<C: CycleSink>(
        &mut self,
        src: usize,
        now: SimTime,
        horizon: SimTime,
        _sink: &mut C,
    ) {
        let Some(gap) = self.ingest.next_gap(src) else {
            return;
        };
        let next = now + gap;
        if next <= horizon {
            self.events.push(next, Ev::Arrival(src));
        }
    }

    /// The heap draws each record when its arrival fires: nothing to
    /// prefetch.
    #[inline]
    fn head_slot(&self, _src: usize) -> Option<FlowSlot> {
        None
    }

    #[inline]
    fn refresh_rates(&mut self, now: SimTime) {
        self.ingest.refresh_rates(now);
    }

    #[inline]
    fn arm_finish(&mut self, core: usize, at: SimTime) {
        let generation = self.generation.get(core).copied().unwrap_or(0);
        self.events.push(at, Ev::Finish(core, generation));
    }

    #[inline]
    fn orphan_finish(&mut self, core: usize) {
        if let Some(g) = self.generation.get_mut(core) {
            *g = g.wrapping_add(1);
        }
    }

    #[inline]
    fn arm_stall_end(&mut self, core: usize, at: SimTime) {
        self.events.push(at, Ev::StallEnd(core));
    }

    #[inline]
    fn arm_rate_tick(&mut self, at: SimTime) {
        self.events.push(at, Ev::RateUpdate);
    }
}
