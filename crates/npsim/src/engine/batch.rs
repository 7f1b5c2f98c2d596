//! The batched run loop: burst-of-32 execution with byte-identical
//! semantics.
//!
//! The scalar loop pays a binary-heap push+pop round trip per event and
//! draws each arrival's RNG exactly when it fires. The batched loop
//! restructures *execution only*:
//!
//! * **Arrival lookahead** — each source pre-draws up to a burst of
//!   arrivals (gap + header) into an [`ArrivalBuf`](super::ingest);
//!   shared-state work (interning, classification, packet IDs) stays at
//!   processing time.
//! * **Heap-free merge** — the pending-event set is tiny and structured:
//!   at most one finish per core, one head arrival per source, one rate
//!   update. A linear scan for the minimum `(time, seq)` replaces the
//!   heap entirely — one event-queue op per *burst refill* instead of a
//!   push+pop per event.
//! * **Seq emulation** — the scalar engine's tie-break is the heap's
//!   insertion sequence. The batched loop allocates from its own counter
//!   at exactly the scalar push points (prime order, finish-before-next-
//!   arrival inside an arrival, rate reschedule), so the `(time, seq)`
//!   total order — and therefore every report byte — is identical.
//!
//! # Why lookahead is legal
//!
//! A source's gap draws and its rate-refresh noise draws share one
//! private RNG stream, so a gap may be drawn early **iff** the scalar
//! engine would also draw it before the next refresh. The refill loop
//! enforces `cursor < barrier` (barrier = next pending rate-update
//! time, strict, ties deferred); the first draw of a refill is exempt
//! because refills only happen at the exact simulation point where the
//! scalar engine performs that same draw. Header draws come from the
//! trace generator's separate stream and are unconditionally safe to
//! pre-draw. Everything order-sensitive across sources — interner,
//! classifier RNG, packet IDs, scheduler state — runs at processing
//! time, in merged event order.
//!
//! Fault plans, non-drop-tail policies, and the timer-wheel backend
//! fall back to the scalar loop (checked by
//! [`Engine::batch_eligible`]); the `batch_equivalence` workspace test
//! pins byte-identical reports across both loops for every registered
//! policy.

use super::cycles::{CycleSink, Stage};
use super::ingest::Admission;
use super::service::EnqueueOutcome;
use super::{Engine, EventBackend, ExecutionMode};
use crate::event::SimEvent;
use crate::packet::PacketDesc;
use crate::probe::ProbeHost;
use crate::sched::Scheduler;
use detsim::SimTime;

/// The batched loop's pending-event set: the explicit, bounded
/// replacement for the scalar loop's heap.
///
/// The merge keeps **incremental minima** over the two slot families so
/// the steady-state winner pick is three comparisons, not an
/// `n_cores + n_sources` sweep: arming a finish (or re-heading a
/// source) only compares against the cached minimum, and a full family
/// rescan happens only when the cached minimum itself is consumed.
#[derive(Debug)]
pub(super) struct BatchState {
    /// Per-core pending finish, packed `(completion ns << 64) | emulated
    /// seq` so one integer compare is the `(time, seq)` order;
    /// [`IDLE`] when the core has none.
    finish: Vec<u128>,
    /// Cached minimum over `finish`: `(time, seq, core)`.
    finish_min: Option<(SimTime, u64, u32)>,
    /// Cached minimum over the per-source head arrivals:
    /// `(time, seq, src)`.
    arrival_min: Option<(SimTime, u64, u32)>,
    /// The single pending rate update, if any.
    rate: Option<(SimTime, u64)>,
    /// Emulated heap insertion counter (the scalar tie-break).
    next_seq: u64,
}

/// An unarmed finish slot: sorts after every real `(time, seq)`.
const IDLE: u128 = u128::MAX;

impl BatchState {
    fn new(n_cores: usize) -> Self {
        BatchState {
            finish: vec![IDLE; n_cores],
            finish_min: None,
            arrival_min: None,
            rate: None,
            next_seq: 0,
        }
    }

    /// Allocate the next emulated heap sequence number. Call sites must
    /// correspond 1:1, in order, with scalar-loop heap pushes.
    #[inline]
    fn alloc(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Time of the next pending rate update (`MAX` when none): the
    /// arrival-lookahead barrier.
    #[inline]
    fn barrier(&self) -> SimTime {
        self.rate.map_or(SimTime::MAX, |(t, _)| t)
    }

    /// Arm core `core`'s finish slot and fold it into the cached min.
    #[inline]
    fn arm_finish(&mut self, core: usize, at: SimTime, seq: u64) {
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

/// The merge scan's winner.
#[derive(Debug, Clone, Copy)]
enum Win {
    Arrival(usize),
    Finish(usize),
    Rate,
}

impl<S: Scheduler, P: ProbeHost> Engine<S, P> {
    /// Whether this configuration runs under the batched loop. Fault
    /// machinery (crash generations, floods, head-drop/staging) and the
    /// timer-wheel backend keep the scalar loop.
    pub(super) fn batch_eligible(&self) -> bool {
        matches!(self.cfg.execution, ExecutionMode::Batched { .. })
            && !self.faults_enabled
            && self.cfg.event_backend == EventBackend::Heap
    }

    /// The batched run loop. Returns the time of the last dispatched
    /// event (the scalar loop's `last_t`), for the shared epilogue.
    pub(super) fn run_batched<C: CycleSink>(&mut self, sink: &mut C) -> SimTime {
        debug_assert!(self.batch_eligible());
        let burst = match self.cfg.execution {
            ExecutionMode::Batched { burst } => burst as usize,
            ExecutionMode::Scalar => 1,
        };
        self.ingest.batch_init(burst);
        let n_sources = self.ingest.n_sources();
        let horizon = self.cfg.duration;
        let mut st = BatchState::new(self.cfg.n_cores);

        // Prime, mirroring the scalar loop's seq allocation order: every
        // source's first gap (source order, seq only for arrivals inside
        // the horizon), then the rate-update ticker. The prime barrier is
        // the first rate update — none is pending yet, but the first
        // refresh the scalar engine performs is at `rate_update_interval`.
        let barrier0 = if self.cfg.rate_update_interval <= horizon {
            self.cfg.rate_update_interval
        } else {
            SimTime::MAX
        };
        for src in 0..n_sources {
            let t0 = if C::ACTIVE { sink.span_start() } else { 0 };
            let drawn = self.ingest.batch_refill(src, barrier0, horizon);
            if C::ACTIVE {
                sink.span_end(Stage::Ingest, t0, drawn as u64);
            }
        }
        for src in 0..n_sources {
            if self.ingest.batch_head(src).is_some() {
                let seq = st.alloc();
                self.ingest.batch_set_head_seq(src, seq);
            }
        }
        if self.cfg.rate_update_interval <= horizon {
            st.rate = Some((self.cfg.rate_update_interval, st.alloc()));
        }
        self.rescan_arrivals(&mut st);

        let mut last_t = SimTime::ZERO;
        loop {
            // Winner pick: minimum (time, seq) across the rate slot and
            // the two cached family minima — the exact total order the
            // scalar heap would pop in, in three comparisons.
            let t0 = if C::ACTIVE { sink.span_start() } else { 0 };
            let mut best: Option<(SimTime, u64, Win)> = st.rate.map(|(t, s)| (t, s, Win::Rate));
            if let Some((t, s, core)) = st.finish_min {
                if best.is_none_or(|(bt, bs, _)| (t, s) < (bt, bs)) {
                    best = Some((t, s, Win::Finish(core as usize)));
                }
            }
            if let Some((t, s, src)) = st.arrival_min {
                if best.is_none_or(|(bt, bs, _)| (t, s) < (bt, bs)) {
                    best = Some((t, s, Win::Arrival(src as usize)));
                }
            }
            if C::ACTIVE {
                sink.span_end(Stage::Merge, t0, 1);
            }
            let Some((t, _seq, win)) = best else {
                break;
            };
            #[cfg(feature = "invariants")]
            self.check_invariants(t, last_t);
            last_t = t;
            self.record.note_loop_event();
            match win {
                Win::Arrival(src) => {
                    self.batch_arrival(src, t, &mut st, sink);
                    // The fired head was the arrival minimum; re-derive
                    // it from the (possibly refilled) heads.
                    self.rescan_arrivals(&mut st);
                }
                Win::Finish(core) => {
                    st.consume_finish(core);
                    self.batch_finish(core, t, &mut st, sink);
                }
                Win::Rate => self.batch_rate_update(t, &mut st),
            }
            #[cfg(feature = "invariants")]
            self.check_invariants(t, last_t);
        }
        last_t
    }

    /// Recompute the cached arrival minimum from the SoA head mirrors:
    /// a flat `(time, seq)` sweep over `n_sources × 16` contiguous bytes
    /// (drained sources carry `SimTime::MAX` and can never win because
    /// buffered arrivals are capped at the horizon).
    fn rescan_arrivals(&self, st: &mut BatchState) {
        let (times, seqs) = self.ingest.arrival_heads();
        let mut best: Option<(SimTime, u64, u32)> = None;
        for (src, (&t, &s)) in times.iter().zip(seqs.iter()).enumerate() {
            if t == SimTime::MAX {
                continue;
            }
            if best.is_none_or(|(bt, bs, _)| (t, s) < (bt, bs)) {
                best = Some((t, s, src as u32));
            }
        }
        st.arrival_min = best;
    }

    /// The batched arrival handler: mirrors `on_arrival` minus the
    /// fault-only blocks (dead-core redirect, head-drop, staging), which
    /// `batch_eligible` proves unreachable here.
    fn batch_arrival<C: CycleSink>(
        &mut self,
        src: usize,
        now: SimTime,
        st: &mut BatchState,
        sink: &mut C,
    ) {
        let t0 = if C::ACTIVE { sink.span_start() } else { 0 };
        let Some(rec) = self.ingest.batch_pop(src) else {
            debug_assert!(false, "arrival winner without a buffered record");
            return;
        };
        let header = match self.ingest.admit_record(src, rec) {
            Admission::Missing => return,
            Admission::SlowPath { service } => {
                self.record
                    .publish(now, &SimEvent::DivertedSlowPath { service });
                if C::ACTIVE {
                    sink.span_end(Stage::Dispatch, t0, 1);
                }
                self.batch_next_arrival(src, st, sink);
                return;
            }
            Admission::FastPath(h) => h,
        };
        self.dispatch.grow_flows(self.ingest.flow_count());
        let flow_seq = self.dispatch.next_seq(header.slot);
        let mut pkt = PacketDesc {
            id: header.id,
            flow: header.flow,
            slot: header.slot,
            service: header.service,
            size: header.size,
            arrival: now,
            flow_seq,
            migrated: false,
            sync_debt_ns: 0,
        };
        self.record.publish(
            now,
            &SimEvent::PacketArrived {
                id: pkt.id,
                slot: pkt.slot,
                service: pkt.service,
                size: pkt.size,
            },
        );
        let target = self.dispatch.choose_core(&pkt, now, self.cfg.n_cores);
        if P::ACTIVE {
            self.drain_sched_events(now);
        }
        // SCR sync stamp — same point in the arrival as the scalar
        // loop (after the decision, before last-core bookkeeping), so
        // both loops stamp identical debts and reports stay
        // byte-identical. The replica touch commits below, only if the
        // queue accepts.
        if self.sync_enabled {
            self.stamp_sync(&mut pkt, target);
        }
        let prev_core = self.dispatch.last_core(pkt.slot);
        let migrated = matches!(prev_core, Some(c) if c != target);
        pkt.migrated = migrated;
        if C::ACTIVE {
            sink.span_end(Stage::Dispatch, t0, 1);
        }

        let t1 = if C::ACTIVE { sink.span_start() } else { 0 };
        let outcome = self.service.enqueue(target, pkt, now);
        debug_assert!(
            !matches!(
                outcome,
                EnqueueOutcome::HeadDropped { .. } | EnqueueOutcome::Staged(_)
            ),
            "head-drop/staging need fault machinery, which disables batching"
        );
        match outcome {
            EnqueueOutcome::Dropped => {
                self.record.publish(
                    now,
                    &SimEvent::Dropped {
                        id: pkt.id,
                        slot: pkt.slot,
                        service: pkt.service,
                        core: target,
                    },
                );
                self.dispatch.on_drop(&pkt, target);
                self.record.note_drop_gap(pkt.slot, pkt.flow_seq, now);
            }
            EnqueueOutcome::Enqueued(len)
            | EnqueueOutcome::HeadDropped { len, .. }
            | EnqueueOutcome::Staged(len) => {
                if self.sync_enabled {
                    self.commit_sync(pkt.slot, target, pkt.sync_debt_ns);
                }
                if P::ACTIVE {
                    self.record.publish(
                        now,
                        &SimEvent::Dispatched {
                            id: pkt.id,
                            slot: pkt.slot,
                            service: pkt.service,
                            core: target,
                            queue_len: len,
                            migrated,
                        },
                    );
                }
                if migrated {
                    if let Some(from) = prev_core {
                        self.record.publish(
                            now,
                            &SimEvent::Migration {
                                slot: pkt.slot,
                                from,
                                to: target,
                            },
                        );
                    }
                }
                self.dispatch.set_last_core(pkt.slot, target);
                self.batch_start_processing(target, now, st);
            }
        }
        self.sync_info(target);
        if C::ACTIVE {
            sink.span_end(Stage::Service, t1, 1);
        }

        self.batch_next_arrival(src, st, sink);
    }

    /// After an arrival from `src`: refill its lookahead if drained
    /// (this IS the scalar `schedule_next_arrival` RNG position), stamp
    /// the new head's seq, and prefetch the flow-table lines the next
    /// head will touch.
    fn batch_next_arrival<C: CycleSink>(&mut self, src: usize, st: &mut BatchState, sink: &mut C) {
        if self.ingest.batch_needs_refill(src) {
            let t0 = if C::ACTIVE { sink.span_start() } else { 0 };
            let drawn = self
                .ingest
                .batch_refill(src, st.barrier(), self.cfg.duration);
            if C::ACTIVE {
                sink.span_end(Stage::Ingest, t0, drawn as u64);
            }
        }
        if self.ingest.batch_head(src).is_some() {
            let seq = st.alloc();
            self.ingest.batch_set_head_seq(src, seq);
            // The head arrival's flow is known now; start the flow-table
            // fills it will need at processing time.
            if let Some(flow) = self.ingest.batch_peek_flow(src, 0) {
                if let Some(slot) = self.ingest.cached_slot(src, flow) {
                    self.dispatch.prefetch_flow(slot);
                }
            }
        }
    }

    /// The batched service-start: `start_processing` minus the heap push
    /// — the finish lands in the core's slot with an emulated seq.
    fn batch_start_processing(&mut self, core: usize, now: SimTime, st: &mut BatchState) {
        if let Some(started) = self.service.start_processing(core, now) {
            let seq = st.alloc();
            st.arm_finish(core, now + started.duration, seq);
            // The departure will read the order tracker's line for this
            // flow one service time from now; start the fill early.
            self.record.prefetch_departure(started.slot);
            self.record.publish(
                now,
                &SimEvent::ServiceStart {
                    core,
                    service: started.service,
                    cold: started.cold,
                    migrated: started.migrated,
                    duration: started.duration,
                },
            );
        }
    }

    /// The batched finish handler: `on_finish` minus the generation
    /// check (generations never advance without crashes).
    fn batch_finish<C: CycleSink>(
        &mut self,
        core: usize,
        now: SimTime,
        st: &mut BatchState,
        sink: &mut C,
    ) {
        let t0 = if C::ACTIVE { sink.span_start() } else { 0 };
        let Some(pkt) = self.service.take_current(core) else {
            debug_assert!(
                false,
                "finish event without packet in service on core {core}"
            );
            return;
        };
        if P::ACTIVE {
            self.record.publish(
                now,
                &SimEvent::ServiceEnd {
                    core,
                    service: pkt.service,
                },
            );
        }
        if C::ACTIVE {
            sink.span_end(Stage::Service, t0, 1);
        }
        let t1 = if C::ACTIVE { sink.span_start() } else { 0 };
        self.record.departure(pkt, now);
        if C::ACTIVE {
            sink.span_end(Stage::Record, t1, 1);
        }
        let t2 = if C::ACTIVE { sink.span_start() } else { 0 };
        self.batch_start_processing(core, now, st);
        self.sync_info(core);
        if C::ACTIVE {
            sink.span_end(Stage::Service, t2, 0);
        }
    }

    /// The batched rate update: `on_rate_update` with the reschedule
    /// landing in the rate slot instead of the heap.
    fn batch_rate_update(&mut self, now: SimTime, st: &mut BatchState) {
        st.rate = None;
        self.ingest.refresh_rates(now);
        if P::ACTIVE {
            self.record.publish(now, &SimEvent::EpochTick);
        }
        let next = now + self.cfg.rate_update_interval;
        if next <= self.cfg.duration {
            st.rate = Some((next, st.alloc()));
        }
    }
}
