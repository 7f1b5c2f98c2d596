//! The batched run loop: burst-of-32 execution with byte-identical
//! semantics — the engine's production loop for every configuration.
//!
//! The scalar loop pays a binary-heap push+pop round trip per event and
//! draws each arrival's RNG exactly when it fires. The batched loop
//! runs the *same event handlers* (see [`Pending`]) and restructures
//! *execution only*:
//!
//! * **Arrival lookahead** — each source pre-draws up to a burst of
//!   arrivals (gap + header) into an [`ArrivalBuf`](super::ingest);
//!   shared-state work (flow slots and sequence numbers, packet IDs)
//!   stays at processing time. That is the interleaved arrival family;
//!   with a free hardware thread the same lookahead and merge run on a
//!   stream thread instead, which admits ahead and hands the arrivals
//!   over (the hand-off family, see [`Arrivals`]).
//! * **Heap-free merge** — the pending-event set is tiny and structured:
//!   at most one finish per core, one head arrival per source, and a
//!   handful of *control* events (the rate tick, the next fault-plan
//!   entry, stall ends, stale finishes of crashed cores). A scan for the
//!   minimum `(time, seq)` over three cached family minima replaces the
//!   heap entirely.
//! * **Seq emulation** — the scalar engine's tie-break is the heap's
//!   insertion sequence. The batched loop allocates from its own counter
//!   at exactly the scalar push points (prime order, finish-before-next-
//!   arrival inside an arrival, rate reschedule, stall end), so the
//!   `(time, seq)` total order — and therefore every report byte — is
//!   identical.
//!
//! # Faults as merge families
//!
//! The fault plan is stably time-sorted and the scalar loop primes one
//! heap entry per plan entry, in plan order, right after the rate
//! ticker — so "next fault" is a cursor: entry `i` has
//! `(time_i, fault_seq0 + i)`. Stall ends go to a tiny overflow list.
//! So does the armed finish of a core that crashes: the scalar heap
//! cannot delete it, pops it later as a stale no-op and counts it in
//! `SimReport::events`, so here it leaves the core's slot (a heal may
//! re-arm the slot before the stale one fires) and waits in the list to
//! be counted at the same `(time, seq)`.
//!
//! # Why lookahead is legal
//!
//! A source's gap draws and its rate-refresh noise draws share one
//! private RNG stream — so a gap may be drawn early **iff** the scalar
//! engine would also draw it before the next refresh. The refill loop
//! enforces `cursor < barrier` (barrier = the next pending rate update;
//! strict, ties deferred — the tick was armed with a smaller seq than
//! any arrival it ties with and fires first, exactly as in the heap);
//! the first draw of a refill is exempt because refills only happen at
//! the exact simulation point where the scalar engine performs that
//! same draw. Fault-plan entries act on cores, never on a source, so
//! they do not bound lookahead. Header draws come from the trace
//! generator's separate stream and are unconditionally safe to
//! pre-draw. Everything order-sensitive across sources — flow slots,
//! packet IDs, scheduler state — runs at processing time, in merged
//! event order.
//!
//! The `batch_equivalence` workspace test pins byte-identical reports
//! across both loops for every registered policy, with and without
//! fault plans.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use super::clock::Pending;
use super::cycles::{CycleSink, Stage};
use super::ingest::Header;
use super::Engine;
use crate::fault::FaultPlan;
use crate::probe::ProbeHost;
use crate::sched::Scheduler;
use detsim::SimTime;
use nphash::FlowSlot;

/// One pending event as the merge orders it: `(time, emulated seq,
/// what fires)`.
pub(super) type Entry = (SimTime, u64, Win);

/// The earlier of two pending events in the `(time, seq)` total order.
#[inline]
fn earlier(best: Option<Entry>, cand: Entry) -> Option<Entry> {
    match best {
        Some(b) if (b.0, b.1) <= (cand.0, cand.1) => best,
        _ => Some(cand),
    }
}

/// Allocate the next emulated heap sequence number from `next_seq`.
/// Call sites must correspond 1:1, in order, with scalar-loop heap
/// pushes — or be seqs no event ever carries (see [`Arrivals`]).
#[inline]
pub(super) fn alloc(next_seq: &mut u64) -> u64 {
    let s = *next_seq;
    *next_seq += 1;
    s
}

/// Where the batched loop's arrivals come from: the arrival family of
/// its merge.
///
/// Two implementations share the one loop body, its handlers and
/// [`BatchState`]'s finish and control families:
///
/// * **interleaved** — the [`IngestStage`](super::ingest::IngestStage)
///   itself, with its per-source lookahead: the loop draws, merges and
///   admits its own arrivals between its other events;
/// * **hand-off** — [`Handoff`](super::plan::Handoff): a
///   [`PlanStream`](super::plan::PlanStream) on another thread has
///   already drawn, merged and admitted them, and the loop takes them
///   in order from a bounded channel.
///
/// Either way the family allocates each source's next-arrival seq at
/// the scalar push points: at prime, in source order, and right after
/// that source's previous arrival. The interleaved family knows whether
/// the source has a next arrival inside the horizon and allocates only
/// then, as the scalar loop pushes only then. The hand-off cannot know,
/// so it allocates at every such point. A seq that no event carries
/// changes no comparison between two real events: allocation order is
/// preserved, so the `(time, seq)` order of the events that do fire —
/// and every report byte — is the same.
pub(super) trait Arrivals {
    /// Arm every source's first arrival, in source order. `barrier`
    /// is the first rate tick (`MAX` if none).
    fn prime<C: CycleSink>(
        &mut self,
        next_seq: &mut u64,
        barrier: SimTime,
        horizon: SimTime,
        sink: &mut C,
    );

    /// The earliest pending arrival, `(time, seq, src)`; `None` once
    /// the stream is over. Called after every consumed arrival.
    fn head<C: CycleSink>(&mut self, sink: &mut C) -> Option<(SimTime, u64, u32)>;

    /// Take the arrival that just fired on `src` and admit it.
    fn admit(&mut self, src: usize) -> Option<Header>;

    /// Arm `src`'s next arrival after the one just admitted (the scalar
    /// loop's gap-draw position).
    fn arm<C: CycleSink>(
        &mut self,
        src: usize,
        next_seq: &mut u64,
        barrier: SimTime,
        horizon: SimTime,
        sink: &mut C,
    );

    /// The flow slot of an arrival about to be processed after `src`'s
    /// was armed, when its flow has arrived before, so the engine can
    /// prefetch its flow-table lines. A read only; the stream never
    /// asks.
    fn head_slot(&self, src: usize) -> Option<FlowSlot>;

    /// A rate tick fired at `now`: re-sample the source rates, if this
    /// family owns the sources.
    fn refresh_rates(&mut self, now: SimTime);
}

/// The batched loop's pending-event set: the explicit, bounded
/// replacement for the scalar loop's heap, over the arrival family `A`.
///
/// The merge keeps **incremental minima** over three families so the
/// steady-state winner pick is three comparisons, not an
/// `n_cores + n_sources` sweep: arming an event only compares against
/// its family's cached minimum, and a family rescan happens only when
/// the cached minimum itself is consumed.
#[derive(Debug)]
pub(super) struct BatchState<A> {
    /// The arrival family.
    pub(super) arrivals: A,
    /// Per-core pending finish, packed `(completion ns << 64) | emulated
    /// seq` so one integer compare is the `(time, seq)` order;
    /// [`IDLE`] when the core has none.
    finish: Vec<u128>,
    /// Cached minimum over `finish`: `(time, seq, core)`.
    finish_min: Option<(SimTime, u64, u32)>,
    /// Cached minimum over the per-source head arrivals:
    /// `(time, seq, src)`.
    arrival_min: Option<(SimTime, u64, u32)>,
    /// Cached minimum over the control events below.
    ctl_min: Option<Entry>,
    /// The single pending rate update, if any.
    rate: Option<(SimTime, u64)>,
    /// The next unfired fault-plan entry, if any.
    fault: Option<Entry>,
    /// Seq of plan entry 0 (the scalar loop primes the plan in order).
    fault_seq0: u64,
    /// Stall ends and stale finishes of crashed cores. Empty — and
    /// never allocated — until a stall or a mid-service crash fires.
    overflow: Vec<Entry>,
    /// Emulated heap insertion counter (the scalar tie-break).
    next_seq: u64,
}

/// An unarmed finish slot: sorts after every real `(time, seq)`.
const IDLE: u128 = u128::MAX;

impl<A: Arrivals> BatchState<A> {
    fn new(n_cores: usize, arrivals: A) -> Self {
        BatchState {
            arrivals,
            finish: vec![IDLE; n_cores],
            finish_min: None,
            arrival_min: None,
            ctl_min: None,
            rate: None,
            fault: None,
            fault_seq0: 0,
            overflow: Vec::new(),
            next_seq: 0,
        }
    }

    /// Allocate the next emulated heap sequence number ([`alloc`]).
    #[inline]
    fn alloc(&mut self) -> u64 {
        alloc(&mut self.next_seq)
    }

    /// The arrival-lookahead barrier: the next pending rate update
    /// (`MAX` when none).
    #[inline]
    pub(super) fn barrier(&self) -> SimTime {
        self.rate.map_or(SimTime::MAX, |(t, _)| t)
    }

    /// Start a batched run over `arrivals`: arm what the scalar loop
    /// primes, allocating seqs in its order — every source's first
    /// arrival (source order), then the rate-update ticker, then the
    /// fault plan in plan order. The tick is not armed while the
    /// sources prime, but the first refresh the scalar engine performs
    /// is at `rate_update_interval`, so that bounds the prime lookahead.
    ///
    /// Shared by [`Engine::run_batched`] and the offered-stream iterator
    /// ([`PlanStream`](super::plan::PlanStream): zero cores, no faults).
    pub(super) fn prime<C: CycleSink>(
        arrivals: A,
        n_cores: usize,
        horizon: SimTime,
        rate_update_interval: SimTime,
        faults: &FaultPlan,
        sink: &mut C,
    ) -> Self {
        let mut st = BatchState::new(n_cores, arrivals);
        let tick0 = Some(rate_update_interval).filter(|&t| t <= horizon);
        let barrier0 = tick0.unwrap_or(SimTime::MAX);
        st.arrivals.prime(&mut st.next_seq, barrier0, horizon, sink);
        if let Some(at) = tick0 {
            st.arm_rate_tick(at);
        }
        st.fault_seq0 = st.next_seq;
        st.next_seq += faults.len() as u64;
        st.set_next_fault(faults, 0);
        st.rescan_ctl();
        st.rescan_arrivals(sink);
        st
    }

    /// The next event to fire: the minimum `(time, seq)` across the
    /// three cached family minima — the exact total order the scalar
    /// heap would pop in, in three comparisons.
    #[inline]
    pub(super) fn next_event(&self) -> Option<Entry> {
        let mut best = self.ctl_min;
        if let Some((t, s, core)) = self.finish_min {
            best = earlier(best, (t, s, Win::Finish(core as usize)));
        }
        if let Some((t, s, src)) = self.arrival_min {
            best = earlier(best, (t, s, Win::Arrival(src as usize)));
        }
        best
    }

    /// Re-derive the cached arrival minimum after an arrival fired.
    #[inline]
    pub(super) fn rescan_arrivals<C: CycleSink>(&mut self, sink: &mut C) {
        self.arrival_min = self.arrivals.head(sink);
    }

    /// Point the fault cursor at plan entry `idx` (past the end: none).
    fn set_next_fault(&mut self, plan: &FaultPlan, idx: usize) {
        self.fault = plan
            .get(idx)
            .map(|&(at, _)| (at, self.fault_seq0 + idx as u64, Win::Fault(idx)));
    }

    /// Recompute the control minimum after one of its members fired.
    fn rescan_ctl(&mut self) {
        let mut best = self.rate.map(|(t, s)| (t, s, Win::Rate));
        if let Some(f) = self.fault {
            best = earlier(best, f);
        }
        for &e in &self.overflow {
            best = earlier(best, e);
        }
        self.ctl_min = best;
    }

    /// Park `entry` in the overflow list and fold it into the cached
    /// control minimum.
    fn push_overflow(&mut self, entry: Entry) {
        self.overflow.push(entry);
        self.ctl_min = earlier(self.ctl_min, entry);
    }

    /// Remove the fired control event (always the cached control
    /// minimum) from its home and re-derive the minimum.
    pub(super) fn consume_ctl(&mut self, seq: u64, win: Win, plan: &FaultPlan) {
        match win {
            Win::Rate => self.rate = None,
            Win::Fault(idx) => self.set_next_fault(plan, idx + 1),
            _ => {
                if let Some(i) = self.overflow.iter().position(|e| e.1 == seq) {
                    self.overflow.swap_remove(i);
                }
            }
        }
        self.rescan_ctl();
    }

    /// Consume the fired finish (always the cached minimum) and rescan
    /// the family for the new minimum: a select per core, no
    /// data-dependent branch (seqs are unique, so there are no ties).
    #[inline]
    fn consume_finish(&mut self, core: usize) {
        if let Some(slot) = self.finish.get_mut(core) {
            *slot = IDLE;
        }
        let (mut best, mut best_core) = (IDLE, 0u32);
        for (c, &key) in self.finish.iter().enumerate() {
            let wins = key < best;
            best = if wins { key } else { best };
            best_core = if wins { c as u32 } else { best_core };
        }
        self.finish_min = (best != IDLE).then(|| {
            let (ns, seq) = ((best >> 64) as u64, best as u64);
            (SimTime::from_nanos(ns), seq, best_core)
        });
    }
}

impl<A: Arrivals> Pending for BatchState<A> {
    #[inline]
    fn admit(&mut self, src: usize) -> Option<Header> {
        self.arrivals.admit(src)
    }

    #[inline]
    fn arm_arrival<C: CycleSink>(
        &mut self,
        src: usize,
        _now: SimTime,
        horizon: SimTime,
        sink: &mut C,
    ) {
        let barrier = self.barrier();
        self.arrivals
            .arm(src, &mut self.next_seq, barrier, horizon, sink);
    }

    #[inline]
    fn head_slot(&self, src: usize) -> Option<FlowSlot> {
        self.arrivals.head_slot(src)
    }

    #[inline]
    fn refresh_rates(&mut self, now: SimTime) {
        self.arrivals.refresh_rates(now);
    }

    #[inline]
    fn arm_finish(&mut self, core: usize, at: SimTime) {
        let seq = self.alloc();
        if let Some(slot) = self.finish.get_mut(core) {
            debug_assert!(*slot == IDLE, "core {core} double-armed");
            *slot = (u128::from(at.as_nanos()) << 64) | u128::from(seq);
        }
        if self
            .finish_min
            .is_none_or(|(bt, bs, _)| (at, seq) < (bt, bs))
        {
            self.finish_min = Some((at, seq, core as u32));
        }
    }

    fn orphan_finish(&mut self, core: usize) {
        let key = self.finish.get(core).copied().unwrap_or(IDLE);
        if key != IDLE {
            let at = SimTime::from_nanos((key >> 64) as u64);
            self.push_overflow((at, key as u64, Win::StaleFinish));
            self.consume_finish(core);
        }
    }

    fn arm_stall_end(&mut self, core: usize, at: SimTime) {
        let seq = self.alloc();
        self.push_overflow((at, seq, Win::StallEnd(core)));
    }

    fn arm_rate_tick(&mut self, at: SimTime) {
        let entry = (at, self.alloc(), Win::Rate);
        self.rate = Some((entry.0, entry.1));
        self.ctl_min = earlier(self.ctl_min, entry);
    }
}

/// The merge scan's winner.
#[derive(Debug, Clone, Copy)]
pub(super) enum Win {
    Arrival(usize),
    Finish(usize),
    Rate,
    Fault(usize),
    StallEnd(usize),
    /// The finish a crashed core had armed: counted, nothing to do.
    StaleFinish,
}

impl<S: Scheduler, P: ProbeHost> Engine<S, P> {
    /// The batched run loop over the arrival family `arrivals`. Returns
    /// the time of the last dispatched event (the scalar loop's
    /// `last_t`), for the shared epilogue.
    pub(super) fn run_batched<A: Arrivals, C: CycleSink>(
        &mut self,
        arrivals: A,
        sink: &mut C,
    ) -> SimTime {
        let mut st = BatchState::prime(
            arrivals,
            self.cfg.n_cores,
            self.cfg.duration,
            self.cfg.rate_update_interval,
            &self.cfg.faults,
            sink,
        );

        let mut last_t = SimTime::ZERO;
        loop {
            let t0 = if C::ACTIVE { sink.span_start() } else { 0 };
            let best = st.next_event();
            if C::ACTIVE {
                sink.span_end(Stage::Merge, t0, 1);
            }
            let Some((t, seq, win)) = best else {
                break;
            };
            #[cfg(feature = "invariants")]
            self.check_invariants(t, last_t);
            last_t = t;
            self.record.note_loop_event();
            match win {
                Win::Arrival(src) => {
                    self.on_arrival(src, t, &mut st, sink);
                    // The fired head was the arrival minimum; re-derive
                    // it from the (possibly refilled) heads.
                    st.rescan_arrivals(sink);
                }
                Win::Finish(core) => {
                    st.consume_finish(core);
                    self.on_finish(core, t, &mut st, sink);
                }
                Win::Rate | Win::Fault(_) | Win::StallEnd(_) | Win::StaleFinish => {
                    st.consume_ctl(seq, win, &self.cfg.faults);
                    match win {
                        Win::Rate => self.on_rate_update(t, &mut st),
                        Win::Fault(idx) => self.on_fault(idx, t, &mut st),
                        // Resumes service unless the clock says a stall
                        // still holds the core.
                        Win::StallEnd(core) => self.start_processing(core, t, &mut st),
                        _ => {}
                    }
                }
            }
            #[cfg(feature = "invariants")]
            self.check_invariants(t, last_t);
        }
        last_t
    }
}
