//! The simulation engine (Fig. 6): packet generator → scheduler → per-core
//! queues → processing → departure.
//!
//! Semantics, matching §IV:
//!
//! * Each core has a bounded input queue (32 descriptors); a packet
//!   dispatched to a full queue is **dropped**.
//! * Processing delay follows Eq. 3: `T_proc` (per service and size) plus
//!   the 0.8 µs flow-migration penalty when the flow's previous packet
//!   used a different core, plus the 10 µs cold-cache penalty when the
//!   core's previous packet belonged to a different service.
//! * Reordering is measured at departure against per-flow arrival
//!   sequence numbers.
//! * Arrivals follow per-source Poisson processes whose rate is refreshed
//!   from the source's rate law every `rate_update_interval`.
//!
//! After the horizon, arrivals stop and the queues drain, so every offered
//! packet is finally either dropped or processed — an invariant the tests
//! assert.
//!
//! # Pipeline architecture
//!
//! The engine is an orchestrator over three stages plus one direct
//! scheduler call:
//!
//! * **ingest** — traffic sources, arrival-gap draws, the flow slots
//!   (one dense table per flow namespace) and per-flow sequence numbers,
//!   and packet IDs. Every arrival is a data-plane packet, as in the
//!   paper's evaluation.
//! * **dispatch** — `Engine::on_arrival` asks the policy for a core
//!   with one [`Scheduler::schedule`] call over the service stage's
//!   [`QueueInfo`](crate::QueueInfo) view; per-flow dispatch state (last
//!   core, SCR replicas) lives in the engine's `FlowTable`.
//! * **service** — per-core bounded queues, one
//!   [`CoreClock`](crate::CoreClock) per core (the Eq. 3 delay model,
//!   throttles, busy time), and the queue view the scheduler reads
//!   (written by the mutation that changes it).
//! * **record** — the observability-bus terminal: the order tracker, the
//!   optional restoration buffer, the always-on report probe, and any
//!   attached dynamic [`Probe`](crate::Probe)s.
//!
//! Stages communicate through typed [`SimEvent`]s published to the
//! record stage. With no probes attached (`P = ()`) the publishing
//! compiles down to the direct counter updates of the pre-pipeline
//! engine — the zero-probe fast path — and runs produce byte-identical
//! [`SimReport`]s either way (pinned by the golden-report fixture test).
//!
//! Ingest never reads what the later stages write, so a batched run
//! splits the pipeline across two threads when the process has a
//! hardware thread to spare: the ingest stage moves into a
//! [`PlanStream`] on a scoped thread that draws, merges and admits the
//! arrivals, and the run loop takes them from a bounded hand-off and
//! runs dispatch, service and record. When no hardware thread is free
//! (a sweep at `--jobs` = cores), the loop draws its arrivals
//! interleaved with its other events on one thread. The two are one
//! loop body over two arrival families (`batch::Arrivals`), and the
//! reports are byte-identical; the `plan` module holds the hand-off
//! and the free-thread rule.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

mod batch;
mod clock;
mod cycles;
mod dispatch;
mod ingest;
pub(crate) mod plan;
mod record;
mod service;

pub use cycles::{CycleAccounting, CycleReport, CycleSink, Stage, StageCycles, STAGES};
pub use plan::{ArrivalPlan, PlanStream, ScheduledPacket};

use crate::core_clock::scaled_delay;
use crate::event::SimEvent;
use crate::fault::{FaultAction, FaultPlan, FaultStats};
use crate::packet::PacketDesc;
use crate::probe::{ProbeHost, ProbeStack, ReportProbe};
use crate::report::{SimReport, SyncStats};
use crate::restore::RestorationBuffer;
use crate::sched::{RepairOutcome, Scheduler, SystemView};
use crate::source::SourceConfig;
use detsim::{PushOutcome, SeedSequence, SimTime};

use clock::{Ev, HeapPending, Pending};
use dispatch::{FlowTable, MAX_SYNC_CORES};
use ingest::IngestStage;
use plan::{Handoff, ThreadSlot};
use record::RecordStage;
use service::ServiceStage;

/// How the run loop moves packets through the pipeline.
///
/// Both modes run the **same event handlers** over the same
/// `(time, seq)` total order and produce **byte-identical reports** for
/// the same configuration and seed — fault plans included (pinned by
/// the workspace `batch_equivalence` test). They differ only in the
/// pending-event set behind the
/// handlers: the batched loop pre-draws per-source arrival bursts from
/// their private RNG streams and replaces the event heap with a bounded
/// merge scan, but performs every shared-state mutation at the same
/// simulated instant, in the same order, as the scalar loop. See
/// DESIGN.md "Batched execution".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// One event at a time through the central event heap — the
    /// reference `tests/batch_equivalence.rs` compares the batched loop
    /// against. Never chosen automatically.
    Scalar,
    /// Burst-oriented execution (the default, for every configuration):
    /// arrivals pre-drawn up to `burst` per source, heap replaced by a
    /// merge over per-source heads, per-core finish slots and the
    /// control events (rate tick, fault plan, stall ends).
    Batched {
        /// Per-source lookahead depth, clamped to `1..=32`.
        burst: u8,
    },
}

impl Default for ExecutionMode {
    fn default() -> Self {
        ExecutionMode::Batched { burst: 32 }
    }
}

/// Where a batched run's arrivals come from (see [`batch::Arrivals`]).
/// Chosen per run by the free-thread rule, never configured: both
/// feeds produce byte-identical reports.
#[derive(Debug)]
enum Feed {
    /// The loop draws its own arrivals through the per-source lookahead.
    Interleaved,
    /// A stream thread draws them; the slot counts that thread.
    Handoff(ThreadSlot),
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of data-plane cores (paper: 16).
    pub n_cores: usize,
    /// Per-core input-queue capacity in descriptors (paper: 32).
    pub queue_capacity: usize,
    /// Simulated horizon; arrivals stop here and queues drain.
    pub duration: SimTime,
    /// Rate/time scale factor `F` (see DESIGN.md). 1.0 = paper-exact.
    pub scale: f64,
    /// Root seed; all internal streams derive from it.
    pub seed: u64,
    /// How often each source re-samples its rate law.
    pub rate_update_interval: SimTime,
    /// Divide Holt-Winters seasonal periods by this factor so short runs
    /// still see seasonal variation (1.0 = periods as published).
    pub period_compression: f64,
    /// Penalty model; its `scale` field is overridden by `scale` above.
    pub delay: nptraffic::DelayModel,
    /// Enable an egress order-restoration buffer with this timeout (the
    /// §VI alternative to order preservation). `None` = packets depart
    /// the instant processing finishes (the paper's model).
    pub restoration: Option<SimTime>,
    /// Deterministic fault script (crashes, heals, throttles, stalls),
    /// delivered as events of the run loop. Empty by default: the fault
    /// machinery stays dormant and runs are byte-identical to the
    /// fault-free engine.
    pub faults: FaultPlan,
    /// Run-loop execution strategy (default: batched bursts of 32).
    /// Semantics are identical either way; this knob only trades
    /// wall-clock speed and exists so the equivalence tests can pin
    /// the scalar reference loop.
    pub execution: ExecutionMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            n_cores: 16,
            queue_capacity: 32,
            duration: SimTime::from_secs(1),
            scale: 50.0,
            seed: 1,
            rate_update_interval: SimTime::from_millis(100),
            period_compression: 1.0,
            delay: nptraffic::DelayModel::default(),
            restoration: None,
            faults: FaultPlan::new(),
            execution: ExecutionMode::default(),
        }
    }
}

/// The configuration checks [`Engine::with_probes`] and
/// [`PlanStream::new`] share, so the stream never accepts a
/// configuration the engine rejects.
fn check_stream_config(cfg: &EngineConfig, sources: &[SourceConfig]) {
    assert!(!sources.is_empty(), "need at least one traffic source");
    assert!(cfg.scale > 0.0, "scale must be positive");
    assert!(
        cfg.rate_update_interval > SimTime::ZERO,
        "rate update interval must be positive"
    );
}

/// The simulation engine, generic over the scheduling policy `S` and the
/// probe host `P` (default `()`: no probes, the zero-cost fast path).
pub struct Engine<S: Scheduler, P: ProbeHost = ()> {
    cfg: EngineConfig,
    /// The ingest stage, until the run moves it into its arrival
    /// family (the scalar heap, the interleaved lookahead, or the
    /// stream thread's [`PlanStream`]). `Some` on every engine a caller
    /// can hold: the run consumes the engine.
    ingest: Option<IngestStage>,
    /// The scheduling policy: one `schedule` call per arrival.
    scheduler: S,
    /// Per-flow dispatch state (last core, SCR replicas), slot-indexed.
    flows: FlowTable,
    service: ServiceStage,
    record: RecordStage<P>,
    /// Whether a fault plan is configured. Guards the per-packet
    /// dead-core check so the fault-free hot path is untouched.
    faults_enabled: bool,
    /// Fault-path counters; folded into the report when
    /// `faults_enabled`.
    fstats: FaultStats,
    /// Whether the SCR sync-cost model runs: the policy opted in
    /// (`Scheduler::sync_policy`) *and* the delay model prices it
    /// (`sync_cost_us > 0`). Guards every replica-set touch, so non-SCR
    /// runs — and SCR runs priced at zero — pay nothing.
    sync_enabled: bool,
    /// Per-stale-replica surcharge in nanoseconds (pre-scaled), cached
    /// from the delay model.
    sync_cost_ns: u64,
    /// The policy's consolidation period (`0` = never).
    sync_every: u32,
    /// SCR accounting; folded into the report when `sync_enabled`.
    sync_stats: SyncStats,
}

impl<S: Scheduler, P: ProbeHost> std::fmt::Debug for Engine<S, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("scheduler", &self.scheduler.name())
            .field("n_cores", &self.service.n_cores())
            .field(
                "n_sources",
                &self.ingest.as_ref().map(IngestStage::n_sources),
            )
            .field(
                "next_packet_id",
                &self.ingest.as_ref().map(IngestStage::next_packet_id),
            )
            .finish_non_exhaustive()
    }
}

impl<S: Scheduler> Engine<S> {
    /// Build an engine over `sources`, scheduled by `scheduler`, with no
    /// probes attached (the zero-probe fast path).
    ///
    /// # Panics
    /// Panics on a zero-core configuration or an empty source list.
    pub fn new(cfg: EngineConfig, sources: &[SourceConfig], scheduler: S) -> Self {
        Engine::with_probes(cfg, sources, scheduler, ())
    }
}

impl<S: Scheduler> Engine<S, ProbeStack> {
    /// Build an engine with a dynamic probe stack attached to the
    /// observability bus. Probes see every published [`SimEvent`] and
    /// are handed back by [`Engine::run_full`].
    pub fn with_probe_stack(
        cfg: EngineConfig,
        sources: &[SourceConfig],
        scheduler: S,
        probes: ProbeStack,
    ) -> Self {
        Engine::with_probes(cfg, sources, scheduler, probes)
    }
}

impl<S: Scheduler, P: ProbeHost> Engine<S, P> {
    /// Build an engine with an arbitrary probe host.
    ///
    /// # Panics
    /// Panics on a zero-core configuration, an empty source list, a
    /// non-positive scale, a zero `rate_update_interval` (the tick would
    /// re-arm at `now` forever), an invalid fault plan
    /// ([`FaultPlan::validate`]), or a priced sync model (SCR) on more
    /// than 64 cores.
    pub fn with_probes(
        cfg: EngineConfig,
        sources: &[SourceConfig],
        scheduler: S,
        probes: P,
    ) -> Self {
        assert!(cfg.n_cores > 0, "need at least one core");
        check_stream_config(&cfg, sources);
        if let Err(e) = cfg.faults.validate(cfg.n_cores, sources.len()) {
            panic!("invalid fault plan: {e}");
        }
        let seq = SeedSequence::new(cfg.seed);
        let delay = scaled_delay(&cfg);
        let ingest = IngestStage::new(&seq, sources, cfg.period_compression, cfg.scale);
        let service = ServiceStage::new(&cfg);
        let report = ReportProbe::new(scheduler.name(), cfg.duration, cfg.scale);
        let restoration = cfg.restoration.map(RestorationBuffer::new);
        let faults_enabled = !cfg.faults.is_empty();
        // The SCR sync model engages only when the policy asks for it
        // AND the delay model prices it; priced at zero, an SCR run is
        // byte-identical to the same decisions without the model.
        let sync_policy = scheduler.sync_policy();
        let sync_enabled = sync_policy.is_some() && delay.sync_cost_us > 0.0;
        assert!(
            !sync_enabled || cfg.n_cores <= MAX_SYNC_CORES,
            "the sync-cost model tracks replicas in a {MAX_SYNC_CORES}-bit map: \
             {} cores would share lanes and under-charge; run at most \
             {MAX_SYNC_CORES} cores or price sync at 0",
            cfg.n_cores
        );
        let sync_cost_ns = SimTime::from_micros_f64(delay.sync_delay_us(1)).as_nanos();
        let sync_every = sync_policy.map_or(0, |p| p.sync_every);
        Engine {
            ingest: Some(ingest),
            scheduler,
            flows: FlowTable::new(sync_enabled),
            service,
            record: RecordStage::new(report, restoration, probes),
            faults_enabled,
            fstats: FaultStats::default(),
            sync_enabled,
            sync_cost_ns,
            sync_every,
            sync_stats: SyncStats::default(),
            cfg,
        }
    }

    /// SCR sync charge, half one of two: stamp the stale-replica
    /// service-time surcharge on `pkt` for a dispatch to `target`.
    /// Read-only on the replica set — a packet the queue then
    /// drop-tails never ran on the core, so it must not dirty the
    /// flow's replica state or show up in the sync totals; those happen
    /// in [`Engine::commit_sync`] once the packet is accepted. Only
    /// called when `sync_enabled`.
    #[inline]
    fn stamp_sync(&mut self, pkt: &mut PacketDesc, target: usize) {
        let stale = self.flows.sync_stale(pkt.slot, target);
        if stale > 0 {
            let debt = self.sync_cost_ns.saturating_mul(u64::from(stale));
            pkt.sync_debt_ns = u32::try_from(debt).unwrap_or(u32::MAX);
        }
    }

    /// SCR sync charge, half two: the packet made it into a queue —
    /// record the replica touch (and any consolidation) and account the
    /// surcharge stamped by [`Engine::stamp_sync`].
    #[inline]
    fn commit_sync(&mut self, slot: nphash::FlowSlot, target: usize, debt_ns: u32) {
        let (_, consolidated) = self.flows.sync_touch(slot, target, self.sync_every);
        if debt_ns > 0 {
            self.sync_stats.sync_packets += 1;
            self.sync_stats.sync_extra_ns += u64::from(debt_ns);
        }
        if consolidated {
            self.sync_stats.consolidations += 1;
        }
    }

    /// Account `pkt` as dropped at `core`: the `Dropped` bus event and
    /// the restoration buffer's gap note. `congestion` additionally
    /// feeds the drop back to the policy — true for queue overflow,
    /// false for fault losses (the queue was not full, the core died).
    fn drop_packet(&mut self, pkt: &PacketDesc, core: usize, now: SimTime, congestion: bool) {
        self.record.publish(
            now,
            &SimEvent::Dropped {
                id: pkt.id,
                slot: pkt.slot,
                service: pkt.service,
                core,
            },
        );
        if congestion {
            self.scheduler.on_drop(pkt, core);
        }
        self.record.note_drop_gap(pkt.slot, pkt.flow_seq, now);
    }

    /// Pull the next queued packet into service on `core`, publishing
    /// `ServiceStart` and arming the finish timer.
    fn start_processing<T: Pending>(&mut self, core: usize, now: SimTime, tx: &mut T) {
        if let Some(started) = self.service.start_processing(core, now) {
            tx.arm_finish(core, now + started.duration);
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

    /// Arm the next arrival from `src` if it lands in the horizon, and
    /// start the flow-table fills it will need at processing time.
    fn arm_next_arrival<T: Pending, C: CycleSink>(
        &mut self,
        src: usize,
        now: SimTime,
        tx: &mut T,
        sink: &mut C,
    ) {
        tx.arm_arrival(src, now, self.cfg.duration, sink);
        if let Some(slot) = tx.head_slot(src) {
            self.flows.prefetch(slot);
        }
    }

    fn on_arrival<T: Pending, C: CycleSink>(
        &mut self,
        src: usize,
        now: SimTime,
        tx: &mut T,
        sink: &mut C,
    ) {
        let t0 = if C::ACTIVE { sink.span_start() } else { 0 };
        let Some(header) = tx.admit(src) else {
            return;
        };
        // Slots are dense in first-arrival order, so this covers every
        // slot seen so far.
        self.flows.grow_to(header.slot.index() + 1);
        let mut pkt = PacketDesc {
            id: header.id,
            flow: header.flow,
            slot: header.slot,
            service: header.service,
            size: header.size,
            arrival: now,
            flow_seq: header.flow_seq,
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

        // The one scheduling decision, over the service stage's view.
        let view = SystemView {
            now,
            queues: self.service.view(),
        };
        let mut target = self.scheduler.schedule(&pkt, &view);
        assert!(
            target < self.cfg.n_cores,
            "scheduler returned core {target}"
        );

        // Degradation path: a policy that did not (or could not) repair
        // after a crash may still pick the dead core; redirect the
        // arrival to the least-backlogged live core, or drop it when
        // none is left. Guarded by `faults_enabled` so the fault-free
        // hot path pays nothing.
        if self.faults_enabled && !self.service.is_up(target) {
            match view.min_queue_core_all() {
                Some(alt) => {
                    self.fstats.redirects += 1;
                    target = alt;
                }
                None => {
                    self.fstats.fault_drops += 1;
                    self.drop_packet(&pkt, target, now, false);
                    if C::ACTIVE {
                        sink.span_end(Stage::Dispatch, t0, 1);
                    }
                    self.arm_next_arrival(src, now, tx, sink);
                    return;
                }
            }
        }

        // SCR sync model: charge for every other core holding the
        // flow's state since its last consolidation. Guarded like the
        // fault path, so non-SCR runs pay nothing here. The replica
        // touch itself commits below, only if the queue accepts.
        if self.sync_enabled {
            self.stamp_sync(&mut pkt, target);
        }

        let prev_core = self.flows.last_core(pkt.slot);
        let migrated = matches!(prev_core, Some(c) if c != target);
        pkt.migrated = migrated;
        if C::ACTIVE {
            sink.span_end(Stage::Dispatch, t0, 1);
        }

        let t1 = if C::ACTIVE { sink.span_start() } else { 0 };
        match self.service.enqueue(target, pkt, now) {
            PushOutcome::Dropped => self.drop_packet(&pkt, target, now, true),
            PushOutcome::Enqueued(len) => {
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
                self.flows.set_last_core(pkt.slot, target);
                self.start_processing(target, now, tx);
            }
        }
        if C::ACTIVE {
            sink.span_end(Stage::Service, t1, 1);
        }

        self.arm_next_arrival(src, now, tx, sink);
    }

    /// `core`'s service completion fired. The pending set never
    /// delivers the stale finish of a crashed core here (the run loops
    /// count that one as a no-op event), so a packet is in service.
    fn on_finish<T: Pending, C: CycleSink>(
        &mut self,
        core: usize,
        now: SimTime,
        tx: &mut T,
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
        if C::ACTIVE {
            sink.span_end(Stage::Service, t0, 1);
        }
        let t1 = if C::ACTIVE { sink.span_start() } else { 0 };
        self.record.departure(pkt, now);
        if C::ACTIVE {
            sink.span_end(Stage::Record, t1, 1);
        }
        let t2 = if C::ACTIVE { sink.span_start() } else { 0 };
        self.start_processing(core, now, tx);
        if C::ACTIVE {
            sink.span_end(Stage::Service, t2, 0);
        }
    }

    /// Apply the fault-plan entry at `idx`. A handful of calls per
    /// run: kept out of the per-packet loops' code.
    #[cold]
    fn on_fault<T: Pending>(&mut self, idx: usize, now: SimTime, tx: &mut T) {
        let Some(&(_, action)) = self.cfg.faults.get(idx) else {
            debug_assert!(false, "fault event for unknown plan entry {idx}");
            return;
        };
        self.fstats.injected += 1;
        match action {
            FaultAction::Crash { core } => {
                if !self.service.is_up(core) {
                    return; // already down: nothing to kill
                }
                let lost = self.service.crash(core, now);
                // The packet the armed finish was for is lost below; the
                // timer still fires, as a counted no-op.
                tx.orphan_finish(core);
                self.fstats.crashes += 1;
                for pkt in lost {
                    self.fstats.fault_drops += 1;
                    self.drop_packet(&pkt, core, now, false);
                }
                self.record.publish(now, &SimEvent::CoreCrashed { core });
                match self.scheduler.on_core_down(core) {
                    RepairOutcome::Repaired => self.fstats.repairs += 1,
                    RepairOutcome::Unrepaired => self.fstats.unrepaired += 1,
                }
            }
            FaultAction::Heal { core } => {
                if !self.service.heal(core, now) {
                    return; // already up: nothing to revive
                }
                self.fstats.heals += 1;
                self.record.publish(now, &SimEvent::CoreHealed { core });
                match self.scheduler.on_core_up(core) {
                    RepairOutcome::Repaired => self.fstats.repairs += 1,
                    RepairOutcome::Unrepaired => self.fstats.unrepaired += 1,
                }
                self.start_processing(core, now, tx);
            }
            // Each core's clock reads its throttles off the plan.
            FaultAction::Throttle { .. } => {}
            // The clock holds the window; the end event resumes service.
            FaultAction::Stall { core, duration } => {
                if self.service.is_up(core) {
                    tx.arm_stall_end(core, now + duration);
                }
            }
        }
    }

    fn on_rate_update<T: Pending>(&mut self, now: SimTime, tx: &mut T) {
        tx.refresh_rates(now);
        if P::ACTIVE {
            self.record.publish(now, &SimEvent::EpochTick);
        }
        let next = now + self.cfg.rate_update_interval;
        if next <= self.cfg.duration {
            tx.arm_rate_tick(next);
        }
    }

    /// Runtime invariant checks, compiled in with `--features invariants`
    /// (debug builds of the `invariants` feature; zero cost otherwise).
    ///
    /// Checked at every event dispatch:
    /// 1. **Packet conservation** — every offered packet is either
    ///    processed, dropped, queued, in service, or waiting in the
    ///    restoration buffer: `offered == processed + dropped + in_flight`.
    /// 2. **Monotone virtual time** — the event clock never runs
    ///    backwards.
    /// 3. **View coherence** — the scheduler's queue view matches a
    ///    recount of the core state (`ServiceStage::check_view`).
    #[cfg(feature = "invariants")]
    fn check_invariants(&self, now: SimTime, previous: SimTime) {
        assert!(
            now >= previous,
            "virtual time ran backwards: {previous:?} -> {now:?}"
        );
        let queued = self.service.queued_total();
        let in_service = self.service.in_service_total();
        let buffered = self.record.restoration_occupancy();
        let report = self.record.report_ref();
        let accounted = report.processed + report.dropped + queued + in_service + buffered;
        assert_eq!(
            report.offered, accounted,
            "packet conservation violated at t={now:?}: offered {} != processed {} + dropped {} \
             + queued {queued} + in-service {in_service} + restoration-buffered {buffered}",
            report.offered, report.processed, report.dropped
        );
        self.service.check_view(now);
    }

    /// Run to completion (horizon + drain) and return the report.
    pub fn run(self) -> SimReport {
        self.run_full().0
    }

    /// Like [`Engine::run`], but also hands back the scheduler so callers
    /// can read policy-internal statistics (e.g. LAPS park/wake counts).
    pub fn run_returning_scheduler(self) -> (SimReport, S) {
        let (report, scheduler, _probes) = self.run_full();
        (report, scheduler)
    }

    /// Run to completion and hand back the report, the scheduler, and
    /// the probe host (with everything the probes accumulated).
    pub fn run_full(mut self) -> (SimReport, S, P) {
        let last_t = self.run_loop(&mut ());
        self.finish(last_t)
    }

    /// Run to completion with per-stage cycle accounting (see
    /// [`CycleReport`]). The handlers carry the spans, so every
    /// configuration — fault plans and [`ExecutionMode::Scalar`]
    /// included — returns a real report. The accounting reads the host
    /// clock but feeds nothing back into the simulation, so the
    /// [`SimReport`] is byte-identical with accounting on or off.
    pub fn run_with_cycles(mut self) -> (SimReport, CycleReport) {
        let mut acc = CycleAccounting::new();
        let last_t = self.run_loop(&mut acc);
        (self.finish(last_t).0, acc.finish())
    }

    /// Run the configured loop; returns the time of the last event.
    /// [`ExecutionMode`] selects the loop; a batched run takes the
    /// hand-off when [`ThreadSlot::spare`] finds a free hardware thread.
    fn run_loop<C: CycleSink>(&mut self, sink: &mut C) -> SimTime {
        let _run = ThreadSlot::enter();
        let feed = match self.cfg.execution {
            ExecutionMode::Batched { .. } => {
                ThreadSlot::spare().map_or(Feed::Interleaved, Feed::Handoff)
            }
            ExecutionMode::Scalar => Feed::Interleaved,
        };
        self.run_loop_fed(feed, sink)
    }

    /// [`Engine::run_full`] with a batched run fed as `feed` says, past
    /// the free-thread count (which concurrent tests share), reporting
    /// stage spans to `sink`.
    #[cfg(test)]
    fn run_full_fed<C: CycleSink>(mut self, feed: Feed, sink: &mut C) -> (SimReport, S, P) {
        let last_t = self.run_loop_fed(feed, sink);
        self.finish(last_t)
    }

    /// Run the configured loop, a batched one fed as `feed` says.
    fn run_loop_fed<C: CycleSink>(&mut self, feed: Feed, sink: &mut C) -> SimTime {
        let Some(mut ingest) = self.ingest.take() else {
            unreachable!("the run consumes the engine, so it runs once");
        };
        match (self.cfg.execution, feed) {
            (ExecutionMode::Scalar, _) => self.run_scalar(ingest, sink),
            (ExecutionMode::Batched { burst }, Feed::Interleaved) => {
                ingest.batch_init(burst as usize);
                self.run_batched(ingest, sink)
            }
            (ExecutionMode::Batched { burst }, Feed::Handoff(slot)) => {
                self.run_handoff(ingest, burst as usize, slot, sink)
            }
        }
    }

    /// The batched loop fed by a stream thread: `ingest` moves into a
    /// [`PlanStream`] on a scoped thread that draws, merges and admits
    /// the arrivals, and the loop takes them from a [`Handoff`]. `slot`
    /// is the stream thread's count, released when it exits.
    ///
    /// A panic on either side ends the run without a hang: an unwinding
    /// loop drops its [`Handoff`], so the producer's next send or wait
    /// fails and it returns; a panicking producer drops its sender, the
    /// loop sees the stream end, and its panic is re-raised here before
    /// any report built from the truncated stream can be returned.
    fn run_handoff<C: CycleSink>(
        &mut self,
        ingest: IngestStage,
        burst: usize,
        slot: ThreadSlot,
        sink: &mut C,
    ) -> SimTime {
        let (handoff, full, spent) = Handoff::new(ingest.n_sources());
        let stream = PlanStream::from_ingest(ingest, &self.cfg, burst);
        std::thread::scope(|scope| {
            let producer = scope.spawn(move || {
                let _slot = slot;
                plan::produce(stream, full, spent);
            });
            let last_t = self.run_batched(handoff, sink);
            if let Err(panic) = producer.join() {
                std::panic::resume_unwind(panic);
            }
            last_t
        })
    }

    /// The scalar run loop: one heap pop per event — the reference the
    /// batched loop is pinned against. Returns the time of the last
    /// event.
    // Out of line on purpose: inlined next to `run_batched` in one
    // 18 KB function it cost the batched loop 3 % on `forward-fcfs`.
    #[inline(never)]
    fn run_scalar<C: CycleSink>(&mut self, ingest: IngestStage, sink: &mut C) -> SimTime {
        let mut tx = HeapPending::new(self.cfg.n_cores, ingest);
        // Prime arrivals and the rate-update ticker.
        for (i, gap) in tx.ingest.prime_gaps() {
            if gap <= self.cfg.duration {
                tx.events.push(gap, Ev::Arrival(i));
            }
        }
        if self.cfg.rate_update_interval <= self.cfg.duration {
            tx.arm_rate_tick(self.cfg.rate_update_interval);
        }
        // Prime the fault plan: one event per entry, in plan order, so
        // same-instant entries fire in insertion order (the queue breaks
        // time ties by insertion sequence). Entries beyond the horizon
        // still fire — a heal may legitimately land during the drain.
        for (i, &(at, _)) in self.cfg.faults.entries().iter().enumerate() {
            tx.events.push(at, Ev::Fault(i));
        }

        let mut last_t = SimTime::ZERO;
        loop {
            let t0 = if C::ACTIVE { sink.span_start() } else { 0 };
            let popped = tx.events.pop();
            if C::ACTIVE {
                sink.span_end(Stage::Merge, t0, 1);
            }
            let Some((t, ev)) = popped else {
                break;
            };
            #[cfg(feature = "invariants")]
            self.check_invariants(t, last_t);
            last_t = t;
            self.record.note_loop_event();
            match ev {
                Ev::Arrival(src) => self.on_arrival(src, t, &mut tx, sink),
                // A crash between arming and firing bumped the core's
                // finish generation: the packet this event was armed for
                // is already a fault drop, so the event only counts.
                Ev::Finish(core, generation) => {
                    if tx.finish_is_live(core, generation) {
                        self.on_finish(core, t, &mut tx, sink);
                    }
                }
                Ev::RateUpdate => self.on_rate_update(t, &mut tx),
                Ev::Fault(idx) => self.on_fault(idx, t, &mut tx),
                // Resumes service unless the core's clock says a longer
                // overlapping stall still holds it.
                Ev::StallEnd(core) => self.start_processing(core, t, &mut tx),
            }
            #[cfg(feature = "invariants")]
            self.check_invariants(t, last_t);
        }
        last_t
    }

    /// The epilogue shared by both loops: drain, account, finalize.
    fn finish(mut self, last_t: SimTime) -> (SimReport, S, P) {
        self.record.set_end_time(last_t.max(self.cfg.duration));

        // Anything still waiting in the restoration buffer departs at the
        // final instant.
        self.record.drain_restoration(self.cfg.duration);
        let reallocs = self.scheduler.core_reallocations();
        let busy = self.service.busy_ns();
        let faults = self
            .faults_enabled
            .then(|| std::mem::take(&mut self.fstats));
        let (mut report, probes) = self.record.finalize(reallocs, busy, faults);
        if self.sync_enabled {
            report.sync = Some(std::mem::take(&mut self.sync_stats));
        }
        (report, self.scheduler, probes)
    }

    /// Borrow the scheduler (e.g. to inspect detector state post-run in
    /// tests that drive the engine manually).
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{EventLogProbe, MetricsProbe};
    use crate::sched::{JoinShortestQueue, RoundRobin, SystemView};
    use crate::source::RateSpec;
    use nptrace::TracePreset;
    use nptraffic::ServiceKind;

    fn one_source(rate_mpps: f64) -> Vec<SourceConfig> {
        vec![SourceConfig {
            service: ServiceKind::IpForward,
            trace: TracePreset::Auckland(1),
            rate: RateSpec::Constant(rate_mpps),
        }]
    }

    fn quick_cfg(n_cores: usize, duration_ms: u64) -> EngineConfig {
        EngineConfig {
            n_cores,
            duration: SimTime::from_millis(duration_ms),
            scale: 1.0,
            seed: 42,
            ..EngineConfig::default()
        }
    }

    /// A test policy pinning each flow to `crc16 % n` — ideal flow
    /// locality, no migration ever.
    struct PinByHash;
    impl Scheduler for PinByHash {
        fn name(&self) -> &str {
            "pin-by-hash"
        }
        fn schedule(&mut self, pkt: &PacketDesc, view: &SystemView<'_>) -> usize {
            (nphash::crc16_ccitt(&pkt.flow.to_bytes()) as usize) % view.n_cores()
        }
    }

    /// A pathological policy that bounces every packet of every flow
    /// between cores 0 and 1.
    struct PingPong(usize);
    impl Scheduler for PingPong {
        fn name(&self) -> &str {
            "ping-pong"
        }
        fn schedule(&mut self, _p: &PacketDesc, _v: &SystemView<'_>) -> usize {
            self.0 ^= 1;
            self.0
        }
    }

    #[test]
    fn conservation_after_drain() {
        // Overloaded single core: 1 Mpps offered into 2 Mpps... IP fwd
        // takes 0.5µs ⇒ capacity exactly 2 Mpps; offer 4 Mpps to force
        // drops.
        let report =
            Engine::new(quick_cfg(1, 20), &one_source(4.0), JoinShortestQueue::new()).run();
        assert!(report.offered > 0);
        assert!(report.dropped > 0, "overload must drop");
        assert_eq!(
            report.offered,
            report.accounted(),
            "drain accounts for every packet"
        );
    }

    #[test]
    fn underload_single_core_no_drops() {
        let report =
            Engine::new(quick_cfg(1, 20), &one_source(1.0), JoinShortestQueue::new()).run();
        assert_eq!(report.dropped, 0, "0.5 load should not drop");
        assert_eq!(report.offered, report.processed);
    }

    #[test]
    fn flow_pinning_preserves_order() {
        let report = Engine::new(quick_cfg(4, 50), &one_source(6.0), PinByHash).run();
        assert!(report.processed > 1_000);
        assert_eq!(report.out_of_order, 0, "pinned flows can never reorder");
        assert_eq!(report.migration_events, 0);
        assert_eq!(report.migrated_packets, 0);
    }

    #[test]
    fn ping_pong_migrates_and_reorders() {
        let report = Engine::new(quick_cfg(2, 50), &one_source(3.0), PingPong(0)).run();
        assert!(report.migration_events > 0);
        assert!(report.migrated_packets > 0);
        assert!(
            report.out_of_order > 0,
            "alternating cores must reorder some flows (ooo={})",
            report.out_of_order
        );
    }

    #[test]
    fn cold_cache_counted_on_service_switches() {
        // Two services sharing one core via JSQ: every alternation pays.
        let sources = vec![
            SourceConfig {
                service: ServiceKind::IpForward,
                trace: TracePreset::Auckland(1),
                rate: RateSpec::Constant(0.02),
            },
            SourceConfig {
                service: ServiceKind::MalwareScan,
                trace: TracePreset::Auckland(2),
                rate: RateSpec::Constant(0.02),
            },
        ];
        let report = Engine::new(quick_cfg(1, 100), &sources, JoinShortestQueue::new()).run();
        assert!(report.processed > 100);
        assert!(
            report.cold_fraction() > 0.2,
            "alternating services on one core should run cold often (got {})",
            report.cold_fraction()
        );
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let r = Engine::new(quick_cfg(4, 30), &one_source(5.0), JoinShortestQueue::new()).run();
            (
                r.offered,
                r.dropped,
                r.processed,
                r.out_of_order,
                r.migration_events,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn seeds_change_the_run() {
        let mut cfg = quick_cfg(4, 30);
        let a = Engine::new(cfg.clone(), &one_source(5.0), JoinShortestQueue::new()).run();
        cfg.seed = 43;
        let b = Engine::new(cfg, &one_source(5.0), JoinShortestQueue::new()).run();
        assert_ne!(a.offered, b.offered);
    }

    #[test]
    fn round_robin_on_idle_cores_keeps_order_by_luck_of_uniform_service() {
        // RR over 2 cores at trivial load: each packet finishes before the
        // next arrives, so even RR cannot reorder.
        let report = Engine::new(quick_cfg(2, 20), &one_source(0.01), RoundRobin::new()).run();
        assert_eq!(report.out_of_order, 0);
        assert!(report.migration_events > 0, "RR still migrates flows");
    }

    #[test]
    fn offered_scales_with_rate_and_duration() {
        let r1 = Engine::new(quick_cfg(4, 20), &one_source(1.0), JoinShortestQueue::new()).run();
        let r2 = Engine::new(quick_cfg(4, 40), &one_source(1.0), JoinShortestQueue::new()).run();
        // 1 Mpps for 20 ms ≈ 20k packets.
        assert!(
            (r1.offered as f64 - 20_000.0).abs() < 2_000.0,
            "offered {}",
            r1.offered
        );
        let ratio = r2.offered as f64 / r1.offered as f64;
        assert!((ratio - 2.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn scale_preserves_offered_load_shape() {
        // Same experiment at scale 1 and scale 10: offered count drops by
        // 10x but drop *fraction* stays in the same band.
        let mk = |scale: f64| EngineConfig {
            n_cores: 2,
            duration: SimTime::from_millis(200),
            scale,
            seed: 7,
            ..EngineConfig::default()
        };
        let a = Engine::new(mk(1.0), &one_source(6.0), JoinShortestQueue::new()).run();
        let b = Engine::new(mk(10.0), &one_source(6.0), JoinShortestQueue::new()).run();
        let cnt_ratio = a.offered as f64 / b.offered as f64;
        assert!((cnt_ratio - 10.0).abs() < 2.0, "count ratio {cnt_ratio}");
        assert!(
            (a.drop_fraction() - b.drop_fraction()).abs() < 0.1,
            "drop fractions diverged: {} vs {}",
            a.drop_fraction(),
            b.drop_fraction()
        );
    }

    #[test]
    fn restoration_eliminates_reordering() {
        // The ping-pong policy reorders heavily; with an egress
        // restoration buffer the stream leaves in order, at the cost of
        // buffer occupancy and wait time.
        let mut cfg = quick_cfg(2, 10);
        cfg.restoration = Some(SimTime::from_millis(5));
        let with = Engine::new(cfg, &one_source(3.0), PingPong(0)).run();
        let without = Engine::new(quick_cfg(2, 10), &one_source(3.0), PingPong(0)).run();
        assert!(without.out_of_order > 0);
        assert_eq!(with.out_of_order, 0, "restoration must re-sequence");
        let stats = with.restoration.expect("stats recorded");
        assert!(stats.buffered > 0, "some packets must have waited");
        assert!(stats.peak_occupancy > 0);
        assert_eq!(
            with.offered,
            with.dropped + with.processed,
            "conservation holds"
        );
    }

    #[test]
    fn restoration_with_drops_does_not_deadlock() {
        // Overload a single core so drops punch holes in the sequence
        // space; the gap notifications keep the buffer draining.
        let mut cfg = quick_cfg(2, 8);
        cfg.restoration = Some(SimTime::from_millis(2));
        let r = Engine::new(cfg, &one_source(6.0), PingPong(0)).run();
        assert!(r.dropped > 0);
        assert_eq!(r.offered, r.dropped + r.processed);
        assert!(r.restoration.is_some());
    }

    #[test]
    fn busy_time_tracks_load() {
        // Flow pinning: no migration penalties, so busy time is exactly
        // offered work: 2 Mpps x 0.5 µs = 1 core-equivalent over 4 cores.
        let r = Engine::new(quick_cfg(4, 20), &one_source(2.0), PinByHash).run();
        assert_eq!(r.core_busy_ns.len(), 4);
        let u = r.mean_utilization();
        assert!((u - 0.25).abs() < 0.05, "mean utilization {u}");
        assert_eq!(r.active_cores(0.02), 4, "hash spreads flows over all cores");
        assert_eq!(r.active_cores(2.0), 0);
    }

    #[test]
    fn per_service_breakdown_sums_to_totals() {
        let sources = vec![
            SourceConfig {
                service: ServiceKind::IpForward,
                trace: TracePreset::Auckland(1),
                rate: RateSpec::Constant(2.0),
            },
            SourceConfig {
                service: ServiceKind::VpnOut,
                trace: TracePreset::Auckland(2),
                rate: RateSpec::Constant(0.5),
            },
        ];
        let r = Engine::new(quick_cfg(4, 30), &sources, JoinShortestQueue::new()).run();
        let off: u64 = r.per_service.iter().map(|s| s.offered).sum();
        let drop: u64 = r.per_service.iter().map(|s| s.dropped).sum();
        let proc: u64 = r.per_service.iter().map(|s| s.processed).sum();
        assert_eq!(off, r.offered);
        assert_eq!(drop, r.dropped);
        assert_eq!(proc, r.processed);
    }

    #[test]
    fn probes_do_not_change_the_report() {
        // The bus contract: attaching any probe set leaves the report
        // byte-identical to the zero-probe run.
        let bare = Engine::new(quick_cfg(2, 30), &one_source(3.0), PingPong(0)).run();
        let probes: ProbeStack = vec![
            Box::new(MetricsProbe::new()),
            Box::new(EventLogProbe::new()),
        ];
        let (probed, _sched, _probes) =
            Engine::with_probe_stack(quick_cfg(2, 30), &one_source(3.0), PingPong(0), probes)
                .run_full();
        let a = serde_json::to_string(&bare).expect("bare report serializes");
        let b = serde_json::to_string(&probed).expect("probed report serializes");
        assert_eq!(a, b, "probes must be invisible to the report");
    }

    #[test]
    fn metrics_probe_agrees_with_report() {
        let probes: ProbeStack = vec![Box::new(MetricsProbe::new())];
        let (report, _sched, probes) =
            Engine::with_probe_stack(quick_cfg(2, 30), &one_source(4.0), PingPong(0), probes)
                .run_full();
        let metrics = probes
            .first()
            .and_then(|p| p.as_any().downcast_ref::<MetricsProbe>())
            .expect("metrics probe comes back");
        let by_name = |n: &str| metrics.counter(n).unwrap_or(0);
        assert_eq!(by_name("arrivals"), report.offered);
        assert_eq!(by_name("drops"), report.dropped);
        assert_eq!(by_name("departures"), report.processed);
        assert_eq!(by_name("migrations"), report.migration_events);
        assert_eq!(by_name("cold_starts"), report.cold_starts);
        assert_eq!(by_name("reorders"), report.out_of_order);
        assert_eq!(
            by_name("dispatched") + by_name("drops"),
            report.offered,
            "every offered packet is dispatched or dropped"
        );
    }

    #[test]
    fn crash_conserves_packets_and_counts_losses() {
        // Two cores at 0.75 load, one dies mid-run: its in-flight and
        // queued packets become fault drops, the survivor overloads, and
        // the drain still accounts for every offered packet.
        let mut cfg = quick_cfg(2, 20);
        cfg.faults = FaultPlan::new().crash(SimTime::from_millis(5), 0);
        let r = Engine::new(cfg, &one_source(3.0), JoinShortestQueue::new()).run();
        assert_eq!(r.offered, r.accounted(), "conservation across a crash");
        let f = r.faults.as_ref().expect("fault machinery was active");
        assert_eq!(f.crashes, 1);
        assert_eq!(f.injected, 1);
        assert!(f.fault_drops > 0, "the dead core held packets");
        assert!(r.dropped >= f.fault_drops);
    }

    #[test]
    fn heal_restores_capacity() {
        let crash_at = SimTime::from_millis(4);
        let heal_at = SimTime::from_millis(8);
        let mut down = quick_cfg(2, 30);
        down.faults = FaultPlan::new().crash(crash_at, 0);
        let mut healed = quick_cfg(2, 30);
        healed.faults = FaultPlan::new().crash(crash_at, 0).heal(heal_at, 0);
        let a = Engine::new(down, &one_source(3.0), JoinShortestQueue::new()).run();
        let b = Engine::new(healed, &one_source(3.0), JoinShortestQueue::new()).run();
        let fb = b.faults.as_ref().expect("stats present");
        assert_eq!(fb.heals, 1);
        assert_eq!(a.offered, a.accounted());
        assert_eq!(b.offered, b.accounted());
        assert!(
            b.processed > a.processed,
            "a healed core must recover throughput ({} vs {})",
            b.processed,
            a.processed
        );
        assert!(b.dropped < a.dropped);
    }

    #[test]
    fn unrepaired_policy_degrades_via_redirects() {
        // PinByHash has no repair hook: after the crash it keeps hashing
        // onto the dead core and the engine redirects those arrivals.
        let mut cfg = quick_cfg(4, 20);
        cfg.faults = FaultPlan::new().crash(SimTime::from_millis(5), 1);
        let r = Engine::new(cfg, &one_source(2.0), PinByHash).run();
        let f = r.faults.as_ref().expect("stats present");
        assert_eq!(f.unrepaired, 1, "PinByHash honestly cannot repair");
        assert_eq!(f.repairs, 0);
        assert!(f.redirects > 0, "hashed-to-dead arrivals get redirected");
        assert_eq!(r.offered, r.accounted());
    }

    #[test]
    fn last_core_crash_drops_all_subsequent_arrivals() {
        let mut cfg = quick_cfg(1, 10);
        cfg.faults = FaultPlan::new().crash(SimTime::from_millis(2), 0);
        let r = Engine::new(cfg, &one_source(1.0), JoinShortestQueue::new()).run();
        let f = r.faults.as_ref().expect("stats present");
        assert!(f.fault_drops > 0);
        assert_eq!(f.redirects, 0, "nowhere to redirect to");
        assert_eq!(r.offered, r.accounted());
        // Roughly 2 of 10 ms of service happened; the rest was dropped.
        assert!(r.dropped > r.processed);
    }

    #[test]
    fn throttle_degrades_and_restores_throughput() {
        // 1.5 Mpps into one 2 Mpps core: clean at full speed; a 4x
        // throttle cuts capacity to 0.5 Mpps and forces drops.
        let base = Engine::new(quick_cfg(1, 20), &one_source(1.5), JoinShortestQueue::new()).run();
        assert_eq!(base.dropped, 0);
        let mut cfg = quick_cfg(1, 20);
        cfg.faults = FaultPlan::new()
            .throttle(SimTime::from_millis(2), 0, 4.0)
            .throttle(SimTime::from_millis(12), 0, 1.0);
        let r = Engine::new(cfg, &one_source(1.5), JoinShortestQueue::new()).run();
        assert!(r.dropped > 0, "a throttled core must fall behind");
        assert_eq!(r.offered, r.accounted());
        assert_eq!(r.faults.as_ref().map(|f| f.injected), Some(2));
    }

    #[test]
    fn transient_stall_backs_up_the_queue() {
        let mut cfg = quick_cfg(1, 10);
        cfg.faults = FaultPlan::new().stall(SimTime::from_millis(2), 0, SimTime::from_millis(5));
        let r = Engine::new(cfg, &one_source(1.0), JoinShortestQueue::new()).run();
        assert!(r.dropped > 0, "5 ms of arrivals into a 32-slot queue");
        assert_eq!(r.offered, r.accounted());
        let base = Engine::new(quick_cfg(1, 10), &one_source(1.0), JoinShortestQueue::new()).run();
        assert_eq!(base.dropped, 0, "same load without the stall is clean");
    }

    /// Core 0's busy nanoseconds per 1 ms bucket under `plan` (one
    /// core, half load, 10 ms), from the `ServiceStart` spans: a span
    /// crossing a bucket edge is split at it.
    fn busy_per_ms(plan: FaultPlan) -> Vec<u64> {
        let mut cfg = quick_cfg(1, 10);
        cfg.faults = plan;
        let engine = Engine::with_probes(
            cfg,
            &one_source(1.0),
            JoinShortestQueue::new(),
            Recorder::default(),
        );
        let (report, _sched, log) = engine.run_full();
        assert_eq!(report.offered, report.accounted());
        const MS: u64 = 1_000_000;
        let mut busy = Vec::new();
        for &(start, ev) in &log.0 {
            let SimEvent::ServiceStart { duration, .. } = ev else {
                continue;
            };
            let (mut at, end) = (start.as_nanos(), (start + duration).as_nanos());
            while at < end {
                let bucket = (at / MS) as usize;
                let next = ((at / MS + 1) * MS).min(end);
                if busy.len() <= bucket {
                    busy.resize(bucket + 1, 0);
                }
                busy[bucket] += next - at;
                at = next;
            }
        }
        busy
    }

    #[test]
    fn overlapping_stalls_hold_until_the_last_end() {
        // Stalls [2, 4) and [3, 7) ms: the first one's end at 4 ms must
        // not resume the core — it stays idle until 7 ms.
        let ms = SimTime::from_millis;
        let busy = busy_per_ms(
            FaultPlan::new()
                .stall(ms(2), 0, ms(2))
                .stall(ms(3), 0, ms(4)),
        );
        assert!(busy[1] > 0, "serving before the stall: {busy:?}");
        assert_eq!(busy[4..7], [0; 3], "stalled through [4, 7) ms: {busy:?}");
        assert!(busy[7] > 0, "resumed at 7 ms: {busy:?}");
    }

    #[test]
    fn leftover_stall_end_does_not_cut_a_later_stall_short() {
        // Stall [2, 5) ms is wiped by a crash at 3 ms; after the heal a
        // second stall covers [4, 8) ms. The first stall's end event
        // still fires at 5 ms and must be ignored.
        let ms = SimTime::from_millis;
        let busy = busy_per_ms(
            FaultPlan::new()
                .stall(ms(2), 0, ms(3))
                .crash(ms(3), 0)
                .heal(SimTime::from_micros(3_500), 0)
                .stall(ms(4), 0, ms(4)),
        );
        assert!(busy[3] > 0, "serving between heal and stall: {busy:?}");
        assert_eq!(busy[5..8], [0; 3], "stalled through [5, 8) ms: {busy:?}");
        assert!(busy[8] > 0, "resumed at 8 ms: {busy:?}");
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn non_finite_throttle_factor_is_rejected_before_the_run() {
        // Unrejected, an infinite factor overflows `busy_ns` (debug) or
        // wraps `finish_at` into the past (release).
        let mut cfg = quick_cfg(1, 1);
        cfg.faults = FaultPlan::new().throttle(SimTime::from_micros(10), 0, f64::INFINITY);
        let _ = Engine::new(cfg, &one_source(1.0), JoinShortestQueue::new());
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn a_stall_ending_past_simtime_max_is_rejected_before_the_run() {
        // Unrejected, its end overflows `now + duration` when it fires
        // (debug) or wraps into the past (release).
        let mut cfg = quick_cfg(1, 1);
        cfg.faults = FaultPlan::new().stall(SimTime::from_micros(10), 0, SimTime::MAX);
        let _ = Engine::new(cfg, &one_source(1.0), JoinShortestQueue::new()).run();
    }

    #[test]
    fn fault_free_report_omits_fault_stats() {
        let r = Engine::new(quick_cfg(2, 10), &one_source(1.0), JoinShortestQueue::new()).run();
        assert!(r.faults.is_none(), "no plan: dormant");
        let json = serde_json::to_string(&r).expect("serializes");
        assert!(
            !json.contains("\"faults\""),
            "fault-free reports keep the pre-fault wire format"
        );
    }

    #[test]
    fn fault_runs_replay_deterministically() {
        let run = || {
            let mut cfg = quick_cfg(4, 20);
            cfg.faults = FaultPlan::new()
                .crash(SimTime::from_millis(3), 2)
                .heal(SimTime::from_millis(9), 2)
                .throttle(SimTime::from_millis(5), 0, 2.0)
                .stall(SimTime::from_millis(7), 1, SimTime::from_millis(1));
            let r = Engine::new(cfg, &one_source(4.0), JoinShortestQueue::new()).run();
            serde_json::to_string(&r).expect("serializes")
        };
        assert_eq!(run(), run(), "same plan + seed → byte-identical report");
    }

    #[test]
    fn fault_probe_sees_crash_heal_and_recovery() {
        let mut cfg = quick_cfg(2, 20);
        cfg.faults = FaultPlan::new()
            .crash(SimTime::from_millis(4), 0)
            .heal(SimTime::from_millis(8), 0);
        let probes: ProbeStack = vec![
            Box::new(crate::fault::FaultProbe::new()),
            Box::new(MetricsProbe::new()),
        ];
        let (report, _sched, probes) =
            Engine::with_probe_stack(cfg, &one_source(3.0), JoinShortestQueue::new(), probes)
                .run_full();
        let fp = probes
            .first()
            .and_then(|p| p.as_any().downcast_ref::<crate::fault::FaultProbe>())
            .expect("fault probe comes back");
        assert_eq!(fp.recoveries().len(), 1);
        let rec = fp.recoveries()[0];
        assert_eq!(rec.core, 0);
        assert_eq!(rec.downtime(), Some(SimTime::from_millis(4)));
        let recovery = rec.recovery_time().expect("core served again after heal");
        assert!(recovery >= SimTime::from_millis(4));
        let metrics = probes
            .get(1)
            .and_then(|p| p.as_any().downcast_ref::<MetricsProbe>())
            .expect("metrics probe comes back");
        let by_name = |n: &str| metrics.counter(n).unwrap_or(0);
        assert_eq!(by_name("core_crashes"), 1);
        assert_eq!(by_name("core_heals"), 1);
        assert_eq!(report.faults.as_ref().map(|f| f.crashes), Some(1));
    }

    /// A flow-oblivious policy that opts into the priced sync model.
    struct Spray(usize);
    impl Scheduler for Spray {
        fn name(&self) -> &str {
            "spray"
        }
        fn schedule(&mut self, _p: &PacketDesc, view: &SystemView<'_>) -> usize {
            self.0 = (self.0 + 1) % view.n_cores();
            self.0
        }
        fn sync_policy(&self) -> Option<crate::sched::SyncPolicy> {
            Some(crate::sched::SyncPolicy { sync_every: 0 })
        }
    }

    fn priced(n_cores: usize, sync_cost_us: f64) -> EngineConfig {
        let mut cfg = quick_cfg(n_cores, 1);
        cfg.delay.sync_cost_us = sync_cost_us;
        cfg
    }

    #[test]
    #[should_panic(expected = "64-bit map")]
    fn priced_sync_model_rejects_more_than_64_cores() {
        let _ = Engine::new(priced(65, 0.4), &one_source(1.0), Spray(0));
    }

    #[test]
    #[should_panic(expected = "rate update interval must be positive")]
    fn zero_rate_update_interval_is_rejected() {
        // Unrejected, the tick re-arms at `now + 0` and `run` never ends.
        let mut cfg = quick_cfg(2, 1);
        cfg.rate_update_interval = SimTime::ZERO;
        let _ = Engine::new(cfg, &one_source(1.0), Spray(0)).run();
    }

    #[test]
    fn sync_model_core_limit_binds_only_when_priced() {
        // 64 cores fit the bitmap exactly: replicas are counted, not folded.
        let r = Engine::new(priced(64, 0.4), &one_source(2.0), Spray(0)).run();
        assert!(r.sync.is_some_and(|s| s.sync_packets > 0));
        // Unpriced, the model is off and the machine size is unconstrained.
        let r = Engine::new(priced(65, 0.0), &one_source(2.0), Spray(0)).run();
        assert!(r.sync.is_none());
    }

    /// Every event the bus publishes, with its instant.
    #[derive(Default)]
    struct Recorder(Vec<(SimTime, SimEvent)>);

    impl ProbeHost for Recorder {
        const ACTIVE: bool = true;

        fn deliver(&mut self, now: SimTime, ev: &SimEvent) {
            self.0.push((now, *ev));
        }

        fn finish(&mut self, _end: SimTime) {}
    }

    /// The serialized report and the full event sequence of one run.
    fn recorded(cfg: &EngineConfig, sources: &[SourceConfig], feed: Feed) -> (String, Recorder) {
        let engine = Engine::with_probes(
            cfg.clone(),
            sources,
            JoinShortestQueue::new(),
            Recorder::default(),
        );
        let (report, _, log) = engine.run_full_fed(feed, &mut ());
        (serde_json::to_string(&report).expect("serializes"), log)
    }

    /// The three loops — scalar, batched interleaved, batched with the
    /// hand-off — agree byte for byte, on the report and on every event
    /// a recording probe sees (`EpochTick` included), over a fault plan,
    /// a restoration buffer and Holt-Winters sources whose rate noise
    /// shares the gap RNG stream.
    #[test]
    fn scalar_interleaved_and_handoff_agree_event_for_event() {
        let ms = SimTime::from_millis;
        let hw =
            |a: f64| RateSpec::HoltWinters(nptraffic::HoltWinters::new(a, 0.0, 1.0, 0.004, 0.4));
        let sources = vec![
            SourceConfig {
                service: ServiceKind::IpForward,
                trace: TracePreset::Auckland(1),
                rate: hw(2.0),
            },
            SourceConfig {
                service: ServiceKind::VpnOut,
                trace: TracePreset::Caida(1),
                rate: hw(0.2),
            },
            SourceConfig {
                service: ServiceKind::IpForward,
                trace: TracePreset::Caida(2),
                rate: RateSpec::Constant(1.5),
            },
        ];
        let faults = FaultPlan::new()
            .crash(ms(2), 1)
            .throttle(ms(3), 0, 2.0)
            .heal(ms(5), 1)
            .stall(ms(6), 2, SimTime::from_micros(500));
        // Miri runs this too, far slower: a shorter horizon there.
        let horizon = if cfg!(miri) { ms(1) } else { ms(8) };
        let base = EngineConfig {
            duration: horizon,
            rate_update_interval: SimTime::from_micros(500),
            ..quick_cfg(4, 0)
        };
        let cells = [
            ("fault-free", base.clone()),
            (
                "faults + restoration",
                EngineConfig {
                    faults,
                    restoration: Some(SimTime::from_micros(200)),
                    ..base.clone()
                },
            ),
            (
                "restoration",
                EngineConfig {
                    restoration: Some(SimTime::from_micros(200)),
                    ..base
                },
            ),
        ];
        for (cell, cfg) in cells {
            let scalar_cfg = EngineConfig {
                execution: ExecutionMode::Scalar,
                ..cfg.clone()
            };
            let (report, scalar) = recorded(&scalar_cfg, &sources, Feed::Interleaved);
            let ticks = scalar
                .0
                .iter()
                .filter(|e| matches!(e.1, SimEvent::EpochTick))
                .count();
            assert!(ticks > 0, "{cell}: rate ticks fire");
            for (feed, name) in [
                (Feed::Interleaved, "interleaved"),
                (Feed::Handoff(ThreadSlot::enter()), "hand-off"),
            ] {
                let (r, log) = recorded(&cfg, &sources, feed);
                assert_eq!(r, report, "{cell}: {name} report");
                if let Some(i) =
                    (0..log.0.len().min(scalar.0.len())).find(|&i| log.0[i] != scalar.0[i])
                {
                    panic!(
                        "{cell}: {name} event {i} is {:?}, scalar's {:?}",
                        log.0[i], scalar.0[i]
                    );
                }
                assert_eq!(log.0.len(), scalar.0.len(), "{cell}: {name} event count");
            }
        }
    }

    /// Cycle accounting on the hand-off times the engine's waits as
    /// ingest spans and leaves the report as it is.
    #[test]
    fn handoff_with_cycle_accounting_keeps_the_report() {
        let cfg = quick_cfg(2, 10);
        let bare = Engine::new(cfg.clone(), &one_source(3.0), PingPong(0)).run();
        let mut acc = CycleAccounting::new();
        let (report, _, ()) = Engine::new(cfg, &one_source(3.0), PingPong(0))
            .run_full_fed(Feed::Handoff(ThreadSlot::enter()), &mut acc);
        assert_eq!(
            serde_json::to_string(&report).expect("serializes"),
            serde_json::to_string(&bare).expect("serializes")
        );
        let ingest = acc.finish().stage(Stage::Ingest);
        assert!(ingest.spans > 0 && ingest.packets >= report.offered);
    }

    /// A policy that answers with a core past the machine after a few
    /// thousand packets.
    struct Rogue(u32);
    impl Scheduler for Rogue {
        fn name(&self) -> &str {
            "rogue"
        }
        fn schedule(&mut self, _p: &PacketDesc, view: &SystemView<'_>) -> usize {
            self.0 += 1;
            if self.0 > 3_000 {
                view.n_cores()
            } else {
                0
            }
        }
    }

    /// The engine thread's panic ends a hand-off run instead of leaving
    /// it waiting: the stream thread, mid-stream, sees the hand-off
    /// dropped and returns, and the scope re-raises the panic.
    #[test]
    #[should_panic(expected = "scheduler returned core")]
    fn out_of_range_core_panics_under_the_handoff() {
        let engine = Engine::new(quick_cfg(2, 20), &one_source(1.0), Rogue(0));
        let _ = engine.run_full_fed(Feed::Handoff(ThreadSlot::enter()), &mut ());
    }

    /// Every arrival of `sources` over `duration_ms`, admitted by an
    /// ingest stage in arrival order (ties in source order): each one's
    /// `FlowId` and the slot the stage gave it.
    fn admitted_slots(
        sources: &[SourceConfig],
        duration_ms: u64,
    ) -> Vec<(nphash::FlowId, nphash::FlowSlot)> {
        let mut ingest = IngestStage::new(&SeedSequence::new(7), sources, 1.0, 1.0);
        ingest.batch_init(ingest::MAX_BURST);
        let horizon = SimTime::from_millis(duration_ms);
        for src in 0..sources.len() {
            ingest.batch_refill(src, SimTime::MAX, horizon);
        }
        let mut admitted = Vec::new();
        while let Some((_, src)) = (0..sources.len())
            .filter_map(|src| ingest.batch_head(src).map(|(t, _)| (t, src)))
            .min()
        {
            let rec = ingest.batch_pop(src).expect("a head arrival");
            let h = ingest.admit_record(src, rec).expect("source is configured");
            let slot = ingest.cached_slot(src, rec.flow).expect("slotted");
            let flow = rec.flow_id(sources[src].trace.config(0).flow_space);
            assert_eq!((h.flow, h.slot), (flow, slot), "admitted header");
            admitted.push((flow, slot));
            if ingest.batch_needs_refill(src) {
                ingest.batch_refill(src, SimTime::MAX, horizon);
            }
        }
        assert_eq!(ingest.flow_count(), {
            let mut distinct: Vec<_> = admitted.iter().map(|&(_, s)| s).collect();
            distinct.sort_unstable();
            distinct.dedup();
            distinct.len()
        });
        admitted
    }

    /// The namespace tables hand out, over every admission, the slots a
    /// hash interner keyed by `FlowId` hands out for the same arrivals,
    /// in order: on the four T2 sources, on two sources sharing a preset
    /// (one table, shared flows), and on two presets whose namespaces
    /// collide (`Caida(0)` and `Auckland(42)` both have flow space
    /// 0xCA).
    ///
    /// It bites: with a table per source instead of per namespace it
    /// fails the shared-preset cell at admission 1 (the interner's slot
    /// 0, the tables' slot 1), and with tables keyed by preset instead
    /// of by namespace it fails the collision cell at admission 33 — in
    /// both, the interner merges flows the tables keep apart.
    #[test]
    fn slots_match_a_hash_interner_replay() {
        let t2 = nptraffic::Scenario::by_id(2).expect("Table VI defines T2");
        let t2_sources: Vec<SourceConfig> = ServiceKind::ALL
            .iter()
            .zip(t2.group.traces())
            .map(|(&service, trace)| SourceConfig {
                service,
                trace,
                rate: RateSpec::HoltWinters(t2.params.rate_model(service)),
            })
            .collect();
        let pair = |a: TracePreset, b: TracePreset| {
            [(a, ServiceKind::IpForward), (b, ServiceKind::VpnOut)]
                .map(|(trace, service)| SourceConfig {
                    service,
                    trace,
                    rate: RateSpec::Constant(2.0),
                })
                .to_vec()
        };
        let cells = [
            ("T2", t2_sources),
            (
                "shared preset",
                pair(TracePreset::Caida(1), TracePreset::Caida(1)),
            ),
            (
                "colliding namespaces",
                pair(TracePreset::Caida(0), TracePreset::Auckland(42)),
            ),
        ];
        for (cell, sources) in cells {
            let admitted = admitted_slots(&sources, 10);
            assert!(admitted.len() > 10_000, "{cell}: non-trivial stream");
            let mut interner = nphash::FlowInterner::new();
            let mut repeats = 0;
            for (i, &(flow, slot)) in admitted.iter().enumerate() {
                let fresh = interner.len();
                assert_eq!(interner.intern(flow), slot, "{cell}: admission {i}");
                repeats += usize::from(interner.len() == fresh);
            }
            assert!(repeats > admitted.len() / 2, "{cell}: flows repeat");
        }
    }
}
