//! # npexec — the thread-per-core execution backend
//!
//! Real OS threads executing the same model the detsim engine
//! simulates: one worker per simulated core fed over a `laps::spsc`
//! ring by a dispatcher that owns the service's `MapTable`, with flow
//! migration driven through the **mark → redirect → first-packet-ack**
//! handshake (`laps::GroupBoard`) so a migration can never reorder a
//! flow's in-flight packets.
//!
//! The offered traffic is the engine's own: [`npsim::PlanStream`]
//! yields the arrival sequence of a fault-free detsim run packet for
//! packet, so both backends process the identical packet stream. What
//! differs is execution — detsim interleaves on a virtual clock
//! (byte-reproducible reports), npexec interleaves on real cores
//! (wall-clock throughput, reports *statistically* equivalent; the
//! `exec_validate` experiment pins the bounds).
//!
//! The dispatcher owns the stream and draws it a 256-packet burst at a
//! time into one reused buffer, then hands the workers one descriptor
//! per packet, as the paper's frame manager does for each arriving
//! packet. Each ring slot carries a packet's descriptor by value
//! (`plan.rs`: plan position, flow slot, per-flow sequence, flow group,
//! size, service, migrated bit, arrival instant — the group is one
//! CRC16 per *flow*, not per packet), so no thread
//! indexes a shared plan and a run holds O(flows) state: the
//! dispatcher's per-flow group and last-worker tables and the shared
//! order witness, each grown as flows appear. The timed thread scope
//! ([`ExecStats::wall_secs`]) covers drawing, rings and handshake alike.
//!
//! The report is one fold of one event stream, as on detsim: the
//! dispatcher and each worker own an [`npsim::ReportProbe`] and observe
//! the events detsim publishes, at the same points and by the same
//! rules — `PacketArrived` when a packet is routed, `Migration` when a
//! flow's packet is pushed to another worker than its previous packet
//! (whether a load or forced handshake, a crash re-home or a heal
//! restore moved its group), `ServiceStart` when a worker's
//! [`CoreClock`] charges a packet, `Departure` when the worker services
//! it and `Dropped` at a crash drop — and the run merges the parts at
//! join ([`ReportProbe::merge`]). A full ring makes the dispatcher wait,
//! never drop, so a crash is the only way npexec loses a packet. A worker charges each packet
//! as it pops it, in ring order, which is arrival order, and the
//! departure is the clock's finish: latency is virtual time, so a
//! handshake hold, which takes host time, adds none.
//! `migrated_packets` counts service starts that paid the migration
//! penalty, as on detsim. Only `core_busy_ns`, `events` and the
//! `faults` block are set outside the fold.
//!
//! Attached probes see the same events. With probes, each thread also
//! logs what it observes under the event's plan position (crash and
//! heal marks at the plan entry's instant, a `Dispatched` after each
//! ring push, a `ReorderDetected` after an out-of-order departure); at
//! join the logs, the dispatcher's first, are stable-sorted by position
//! and delivered at each event's own instant. At each position that is
//! the actions fired before the packet, its arrival, dispatch and
//! migration, then its worker's events. So an
//! [`npsim::FaultProbe`] keeps the crash ledger here as on detsim:
//! recovery spans, and the flows resident on a crashed worker and moved
//! off it.
//!
//! ```text
//!                  PlanStream (drawn 256 packets per burst)
//!                      │
//!                      ▼              ┌────── worker 0 (pinned) ──────┐
//!                  dispatcher ──spsc──► pop → Holdback → service      │
//!                      │   │  ExecDesc                                │
//!                      │   │  by value                   SeqWatch ◄───┘
//!                      │   └─spsc──► worker 1 … worker N-1
//!                      │
//!                      ├─ MapTable  (bucket == flow group; keeps what a crash retired)
//!                      ├─ group_of_flow, last_core (grow with the flows)
//!                      ├─ GroupBoard (begun/released/target per group)
//!                      └─ command words (fault runs: crash/pause, one per worker)
//! ```
//!
//! Fault plans execute for real: a `Crash` pauses its worker, which
//! first turns its held and queued packets into accounted drops; once
//! it has paused, `retire_core` re-homes its buckets, and the table's
//! record of that is what marks the worker dead. A `Heal` resumes the
//! worker cold and migrates its buckets home behind marked handshakes. Both fire just before the first packet
//! arriving at or after their instant `t`. A `Throttle` or a `Stall`
//! goes to no thread: each worker's [`CoreClock`] reads it off the plan
//! — a factor for every service that starts at or after `t`, a window
//! `[t, t + duration)` in which no service starts — as the detsim
//! engine does. A run spawns exactly one thread per worker, all before
//! dispatch starts, and each worker returns one outcome for the whole
//! run. No action touches a source, so the stream is the same with or
//! without the plan. The `worker` module docs give the crash
//! protocol.
//!
//! Use it through [`ExecBackend::run`].

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod affinity;
mod dispatcher;
mod plan;
mod worker;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use detsim::SimTime;
use laps::{GroupBoard, HandshakeStats};
use nphash::MapTable;
use npsim::{
    CoreClock, EngineConfig, ExecBackend, ExecError, FaultAction, PlanStream, ProbeHost,
    ProbeStack, ReportProbe, Scheduler, SimEvent, SimReport, SourceConfig, UnsupportedPlan,
};

use dispatcher::DispatchCtx;
use plan::{SeqWatch, MAX_PLAN_PACKETS};
use worker::{WorkerCtx, WorkerOutcome};

/// What the dispatcher does when a worker's ring is full: it waits for
/// room, always. The type has that one variant and is kept, with
/// [`NpexecConfig::full_policy`], only so npbench's `exec-forward`
/// configuration builds as it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FullPolicy {
    /// Spin (with periodic yields) until the worker makes room — no
    /// drops, exact conservation `offered == processed` on a crash-free
    /// run.
    Backpressure,
}

/// A scripted migration for tests: after the dispatcher has routed
/// `after_packets` packets, migrate `group` to `to_worker`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForcedMigration {
    /// Plan position at which to fire (0 = before the first packet).
    pub after_packets: u64,
    /// Flow group (map-table bucket) to move.
    pub group: u64,
    /// Destination worker.
    pub to_worker: usize,
}

/// Configuration of the thread-per-core runtime.
#[derive(Debug, Clone)]
pub struct NpexecConfig {
    /// Worker threads (== simulated cores executing in parallel).
    pub workers: usize,
    /// Flow groups (map-table buckets). 0 = auto: `8 × workers`, small
    /// enough to rebalance cheaply, large enough that one group is a
    /// fraction of a worker's load.
    pub groups: usize,
    /// Per-worker ring capacity in descriptors (rounded up to a power
    /// of two by the ring).
    pub ring_capacity: usize,
    /// Packets between dispatcher imbalance checks (0 = never
    /// rebalance; forced migrations still fire).
    pub rebalance_every: u64,
    /// Rebalance when the busiest worker's window load exceeds this
    /// multiple of the least busy worker's.
    pub imbalance_ratio: f64,
    /// Pin worker `i` to CPU `i` (best-effort; see [`ExecStats::pinned_workers`]).
    pub pin_threads: bool,
    /// Full-ring behavior; [`FullPolicy::Backpressure`] is the only
    /// one. Read by nothing, kept only so npbench builds.
    pub full_policy: FullPolicy,
    /// Scripted migrations (property tests drive the handshake with
    /// these; empty in normal runs).
    pub forced_migrations: Vec<ForcedMigration>,
}

impl Default for NpexecConfig {
    fn default() -> Self {
        NpexecConfig {
            workers: 4,
            groups: 0,
            ring_capacity: 1024,
            rebalance_every: 4096,
            imbalance_ratio: 2.0,
            pin_threads: false,
            full_policy: FullPolicy::Backpressure,
            forced_migrations: Vec::new(),
        }
    }
}

/// One thread's event sink: its part of the report fold and, on a run
/// with probes attached, its log of `(plan position, instant, event)`
/// for delivery at join.
#[derive(Debug, Default)]
pub(crate) struct EventSink {
    /// The thread's part of the report fold.
    pub fold: ReportProbe,
    /// Every event observed (`Some` only when probes are attached).
    pub log: Option<Vec<(u32, SimTime, SimEvent)>>,
}

impl EventSink {
    fn new(logged: bool) -> Self {
        EventSink {
            fold: ReportProbe::default(),
            log: logged.then(Vec::new),
        }
    }

    /// Fold `ev`, stamped `at`, and log it under plan position `pos`.
    #[inline]
    pub(crate) fn observe(&mut self, pos: u32, at: SimTime, ev: SimEvent) {
        self.fold.observe(at, &ev);
        if let Some(log) = &mut self.log {
            log.push((pos, at, ev));
        }
    }
}

/// Wall-clock and handshake observations of the last
/// [`ThreadedBackend::run`]: what only threads have. Packet counts,
/// migrations and latency are in the run's `SimReport`, folded from
/// its events.
#[derive(Debug, Clone)]
pub struct ExecStats {
    /// Wall-clock duration of the run (first draw → last join). It
    /// includes drawing the offered stream, which the dispatcher does
    /// a burst at a time between routing bursts.
    pub wall_secs: f64,
    /// The report's `processed` per wall-clock second of
    /// [`ExecStats::wall_secs`], in millions (so drawing counts against
    /// it too).
    pub mpps: f64,
    /// Worker threads used.
    pub workers: usize,
    /// Marked-handshake ledger (begun / completed / aborted): load
    /// migrations, forced migrations and heal restores. A crash begins
    /// none; a mark stranded in a crashed worker's ring is acked by its
    /// crash step, so `begun == completed` holds at the end of every
    /// run, faulted or not. `aborted` counts handshakes not begun: an
    /// in-flight collision or a full ring, including each retired bucket
    /// a heal could not restore (it stays on its replacement).
    pub handshakes: HandshakeStats,
    /// Deepest any worker's holdback buffer got.
    pub max_hold_depth: usize,
    /// Workers whose CPU pin was honored by the kernel.
    pub pinned_workers: usize,
}

/// The thread-per-core [`ExecBackend`].
///
/// Dispatch is npexec's own policy, not LAPS: hash to a flow group,
/// group to a worker via the map table, and every `rebalance_every`
/// packets move the busiest group of the busiest worker over the window
/// to the least busy one. The boxed [`Scheduler`] handed in by the
/// builder only names the report; its per-packet `schedule` is never
/// called (ROADMAP item 1).
#[derive(Debug, Default)]
pub struct ThreadedBackend {
    cfg: NpexecConfig,
    last: Option<ExecStats>,
}

impl ThreadedBackend {
    /// Backend with the given configuration.
    pub fn new(cfg: NpexecConfig) -> Self {
        ThreadedBackend { cfg, last: None }
    }

    /// Convenience: default configuration with `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        ThreadedBackend::new(NpexecConfig {
            workers,
            ..NpexecConfig::default()
        })
    }

    /// Wall-clock stats of the most recent run, if any.
    pub fn last_stats(&self) -> Option<&ExecStats> {
        self.last.as_ref()
    }
}

impl ExecBackend for ThreadedBackend {
    fn name(&self) -> &'static str {
        "npexec"
    }

    /// Check the configuration against this backend's capabilities
    /// without running anything: the expected packet count must fit
    /// the 32-bit plan positions with half the range to spare, the plan
    /// must pass [`FaultPlan::validate`](npsim::FaultPlan::validate)
    /// for `workers` cores (what detsim demands), and it must never
    /// crash the last live worker.
    fn validate(&self, cfg: &EngineConfig, sources: &[SourceConfig]) -> Result<(), ExecError> {
        let expected = PlanStream::expected_packets_for(cfg, sources) as u64;
        if expected > MAX_PLAN_PACKETS {
            return Err(ExecError::PlanTooLarge {
                expected,
                limit: MAX_PLAN_PACKETS,
            });
        }
        let workers = self.cfg.workers.max(1);
        cfg.faults
            .validate(workers, sources.len())
            .map_err(ExecError::UnsupportedPlan)?;
        let mut live = vec![true; workers];
        let mut live_count = workers;
        for &(at, action) in cfg.faults.entries() {
            let core = action.core();
            match action {
                FaultAction::Crash { .. } if live[core] => {
                    if live_count == 1 {
                        return Err(ExecError::UnsupportedPlan(
                            UnsupportedPlan::AllWorkersDown { at, workers },
                        ));
                    }
                    live[core] = false;
                    live_count -= 1;
                }
                FaultAction::Heal { .. } if !live[core] => {
                    live[core] = true;
                    live_count += 1;
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Run the configuration on real threads.
    ///
    /// # Panics
    /// Panics if [`ExecBackend::validate`] rejects the configuration
    /// (too many expected packets, a plan `FaultPlan::validate`
    /// rejects, a plan that crashes the last live worker). Call
    /// `validate` first to handle these as errors. Panics if the stream
    /// nevertheless exceeds `u32::MAX` packets (plan positions and
    /// per-flow sequence numbers are kept in 32 bits).
    fn run(
        &mut self,
        cfg: &EngineConfig,
        sources: &[SourceConfig],
        scheduler: Box<dyn Scheduler>,
        mut probes: ProbeStack,
    ) -> (SimReport, ProbeStack) {
        if let Err(e) = ExecBackend::validate(self, cfg, sources) {
            panic!("npexec cannot execute this configuration: {e}");
        }
        let workers = self.cfg.workers.max(1);
        let groups = if self.cfg.groups == 0 {
            workers * 8
        } else {
            self.cfg.groups.max(workers)
        };

        // Shared state: map table (dispatcher-owned), handshake board
        // (counters and target per group), per-flow order witnesses (grown
        // by the dispatcher as flows appear).
        let mut owners = Vec::with_capacity(groups);
        for g in 0..groups {
            owners.push(g % workers);
        }
        let table = MapTable::new(owners);
        let board = GroupBoard::new(groups);
        let stream = PlanStream::new(cfg, sources);
        let seq_watch = SeqWatch::default();
        let done = AtomicBool::new(false);

        let mut producers = Vec::with_capacity(workers);
        let mut consumers = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (p, c) = laps::spsc::ring(self.cfg.ring_capacity);
            producers.push(p);
            consumers.push(c);
        }
        let mut forced = self.cfg.forced_migrations.clone();
        forced.sort_by_key(|f| f.after_packets);
        let faults = cfg.faults.entries();
        // Fault-free runs carry no control plane: workers then skip
        // every command-word check.
        let ctrl: Option<Vec<AtomicU64>> =
            (!faults.is_empty()).then(|| (0..workers).map(|_| AtomicU64::new(0)).collect());
        let logged = !probes.is_empty();

        #[allow(clippy::disallowed_methods, reason = "wall-clock Mpps is the output")]
        let start = Instant::now();
        let (mut dispatch, mut outs) = std::thread::scope(|s| {
            let cp = ctrl.as_deref();
            let mut handles = Vec::with_capacity(workers);
            for (id, consumer) in consumers.into_iter().enumerate() {
                let ctx = WorkerCtx {
                    id,
                    consumer,
                    board: board.clone(),
                    seq_watch: &seq_watch,
                    done: &done,
                    clock: CoreClock::new(cfg, id),
                    pin_to: self.cfg.pin_threads.then_some(id),
                    ctrl: cp,
                    events: EventSink::new(logged),
                };
                handles.push(s.spawn(move || worker::run(ctx)));
            }
            let dispatch = dispatcher::run(DispatchCtx {
                stream,
                table,
                producers,
                board: board.clone(),
                seq_watch: &seq_watch,
                rebalance_every: self.cfg.rebalance_every,
                imbalance_ratio: self.cfg.imbalance_ratio,
                forced,
                faults,
                ctrl: cp,
                events: EventSink::new(logged),
            });
            // npcheck: ordering(Release publishes every ring push sequenced before it; workers pair with an Acquire load before exiting)
            done.store(true, Ordering::Release);
            let outs: Vec<WorkerOutcome> = handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect();
            (dispatch, outs)
        });
        let wall_secs = start.elapsed().as_secs_f64().max(1e-9);

        // The report is the dispatcher's and the workers' folds merged;
        // only what no event carries is set here.
        let mut fold = ReportProbe::new(
            &format!("npexec:{}", scheduler.name()),
            cfg.duration,
            cfg.scale,
        );
        fold.merge(&dispatch.events.fold);
        for o in &outs {
            fold.merge(&o.events.fold);
        }
        let mut report = fold.into_report();
        report.core_busy_ns = outs.iter().map(|o| o.busy_ns).collect();
        // The run loop's events as detsim counts them: one arrival and one
        // terminal event per packet.
        report.events = report.offered + report.processed + report.dropped;
        if dispatch.faults.injected > 0 {
            let mut faults = std::mem::take(&mut dispatch.faults);
            faults.fault_drops = outs.iter().map(|o| o.crash_drops).sum();
            report.faults = Some(faults);
        }
        let stats = ExecStats {
            wall_secs,
            mpps: report.processed as f64 / wall_secs / 1e6,
            workers,
            handshakes: HandshakeStats {
                begun: board.total_begun(),
                completed: board.total_released(),
                aborted: dispatch.aborted,
            },
            max_hold_depth: outs.iter().map(|o| o.max_hold_depth).max().unwrap_or(0),
            pinned_workers: outs.iter().filter(|o| o.pinned).count(),
        };
        if let Some(mut log) = dispatch.events.log.take() {
            for o in &mut outs {
                log.extend(o.events.log.take().into_iter().flatten());
            }
            // Stable: at one position the dispatcher's events precede the
            // worker's, each thread's in the order it observed them.
            log.sort_by_key(|&(pos, ..)| pos);
            for (_, at, ev) in &log {
                probes.deliver(*at, ev);
            }
            probes.finish(cfg.duration);
        }
        self.last = Some(stats);
        (report, probes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nphash::FlowSlot;
    use npsim::{FaultPlan, FaultProbe, JoinShortestQueue, MetricsProbe, RateSpec, Recovery};
    use nptrace::TracePreset;
    use nptraffic::ServiceKind;

    fn cfg(ms: u64) -> EngineConfig {
        EngineConfig {
            n_cores: 4,
            duration: SimTime::from_millis(ms),
            scale: 1.0,
            seed: 77,
            ..EngineConfig::default()
        }
    }

    fn sources() -> Vec<SourceConfig> {
        vec![
            SourceConfig {
                service: ServiceKind::IpForward,
                trace: TracePreset::Caida(1),
                rate: RateSpec::Constant(4.0),
            },
            SourceConfig {
                service: ServiceKind::VpnOut,
                trace: TracePreset::Auckland(2),
                rate: RateSpec::Constant(2.0),
            },
        ]
    }

    fn run_with(backend: &mut ThreadedBackend, ms: u64) -> SimReport {
        run_faulted(backend, ms, FaultPlan::new()).report
    }

    /// What a probed run hands back: the report, the `FaultProbe`'s
    /// crash ledger and the plan positions the test probe read.
    struct Probed {
        report: SimReport,
        recoveries: Vec<Recovery>,
        positions: Positions,
    }

    fn run_faulted(backend: &mut ThreadedBackend, ms: u64, faults: FaultPlan) -> Probed {
        let mut c = cfg(ms);
        c.faults = faults;
        run_probed(backend, &c)
    }

    /// Run `c` with a `MetricsProbe`, a `FaultProbe` and a `Positions`
    /// attached, and check that the metrics saw the stream the report
    /// folded.
    fn run_probed(backend: &mut ThreadedBackend, c: &EngineConfig) -> Probed {
        let probes: ProbeStack = vec![
            Box::new(MetricsProbe::new()),
            Box::new(FaultProbe::new()),
            Box::new(Positions::default()),
        ];
        let (report, probes) =
            backend.run(c, &sources(), Box::new(JoinShortestQueue::new()), probes);
        assert_probe_matches(&report, &probes, &c.faults);
        let get = |i: usize| probes.get(i).map(|p| p.as_any());
        let faults = get(1).and_then(|p| p.downcast_ref::<FaultProbe>());
        let positions = get(2).and_then(|p| p.downcast_ref::<Positions>());
        Probed {
            report,
            recoveries: faults.expect("fault probe returned").recoveries().to_vec(),
            positions: positions.expect("positions returned").clone(),
        }
    }

    /// The `MetricsProbe` first in `probes` counted every arrival,
    /// departure, drop, migration and reorder the report folded, recorded
    /// the same latencies, and saw a `Dispatched`, with its ring
    /// occupancy, per packet: the dispatcher pushes every one, and only
    /// a crash drops.
    fn assert_probe_matches(report: &SimReport, probes: &ProbeStack, faults: &FaultPlan) {
        let metrics = probes
            .first()
            .and_then(|p| p.as_any().downcast_ref::<MetricsProbe>())
            .expect("metrics probe returned");
        let fault_drops = report.faults.as_ref().map_or(0, |f| f.fault_drops);
        assert_eq!(report.dropped, fault_drops, "only crashes drop");
        let pushed = report.offered;
        let want = [
            ("arrivals", report.offered),
            ("dispatched", pushed),
            ("departures", report.processed),
            ("drops", report.dropped),
            ("migrations", report.migration_events),
            ("reorders", report.out_of_order),
        ];
        for (name, expect) in want {
            let got = metrics.counter(name);
            assert_eq!(got, Some(expect), "probe `{name}` under {faults:?}");
        }
        let [latency, _, queue_len, _] = metrics.histograms();
        assert_eq!(latency.0, "latency_ns");
        assert_eq!(latency.1, &report.latency, "probe latency under {faults:?}");
        assert_eq!(queue_len.0, "queue_len");
        assert_eq!(queue_len.1.count(), pushed, "one occupancy per push");
    }

    #[test]
    fn conserves_and_keeps_order_under_backpressure() {
        let mut backend = ThreadedBackend::with_workers(4);
        let Probed {
            report, recoveries, ..
        } = run_faulted(&mut backend, 10, FaultPlan::new());
        assert!(report.offered > 10_000, "non-trivial run");
        assert_eq!(report.dropped, 0, "backpressure never drops");
        assert_eq!(
            report.offered,
            report.processed + report.dropped,
            "exact conservation"
        );
        assert_eq!(report.out_of_order, 0, "handshake preserves flow order");
        assert!(report.faults.is_none(), "fault-free report omits the block");
        let stats = backend.last_stats().expect("stats recorded");
        assert_eq!(stats.workers, 4);
        assert!(stats.wall_secs > 0.0);
        assert_eq!(stats.handshakes.begun, stats.handshakes.completed);
        assert!(recoveries.is_empty());
    }

    #[test]
    fn rebalancing_migrates_without_reordering() {
        let mut backend = ThreadedBackend::new(NpexecConfig {
            workers: 4,
            rebalance_every: 512,
            imbalance_ratio: 1.1,
            ..NpexecConfig::default()
        });
        let report = run_with(&mut backend, 10);
        assert_eq!(report.out_of_order, 0);
        assert_eq!(report.offered, report.processed);
        let stats = backend.last_stats().expect("stats recorded");
        assert!(stats.handshakes.begun > 0, "the rebalancer fired");
        assert_eq!(
            report.migration_events, report.migrated_packets,
            "one migration per packet that changed cores, all serviced"
        );
    }

    #[test]
    fn forced_migrations_complete_the_handshake() {
        let mut backend = ThreadedBackend::new(NpexecConfig {
            workers: 2,
            groups: 4,
            rebalance_every: 0,
            forced_migrations: vec![
                ForcedMigration {
                    after_packets: 100,
                    group: 0,
                    to_worker: 1,
                },
                ForcedMigration {
                    after_packets: 5_000,
                    group: 0,
                    to_worker: 0,
                },
            ],
            ..NpexecConfig::default()
        });
        let report = run_with(&mut backend, 10);
        let stats = backend.last_stats().expect("stats recorded");
        assert!(stats.handshakes.begun >= 1, "at least one handshake ran");
        assert_eq!(stats.handshakes.begun, stats.handshakes.completed);
        assert_eq!(report.out_of_order, 0);
        assert_eq!(report.offered, report.processed);
        assert!(report.migrated_packets > 0, "the group's flows moved");
    }

    /// Probes see the events the threads fold: every departure with its
    /// virtual latency, so the probe's latency histogram is the report's.
    #[test]
    fn probes_see_the_folded_stream() {
        let mut backend = ThreadedBackend::with_workers(2);
        let report = run_with(&mut backend, 5);
        assert!(report.latency.count() > 0 && report.latency.mean() > 0.0);
    }

    #[test]
    fn offered_stream_matches_detsim() {
        let mut backend = ThreadedBackend::with_workers(4);
        let exec = run_with(&mut backend, 10);
        let det = npsim::Engine::new(cfg(10), &sources(), JoinShortestQueue::new()).run();
        assert_eq!(exec.offered, det.offered, "same planned arrival stream");
    }

    #[test]
    fn per_service_offered_matches_a_recount_of_the_full_plan() {
        let mut backend = ThreadedBackend::with_workers(2);
        let report = run_with(&mut backend, 5);
        let full = npsim::ArrivalPlan::from_config(&cfg(5), &sources());
        let mut recount = [0u64; 4];
        for p in &full.packets {
            recount[p.service.index()] += 1;
        }
        let reported: Vec<u64> = report.per_service.iter().map(|s| s.offered).collect();
        assert_eq!(reported, recount);
        assert_eq!(report.offered, full.offered());
        assert_eq!(
            recount.iter().filter(|&&n| n > 0).count(),
            2,
            "two services offered"
        );
    }

    #[test]
    fn validate_rejects_each_unsupported_plan() {
        let backend = ThreadedBackend::with_workers(4);
        let ok = |faults: FaultPlan| {
            let mut c = cfg(1);
            c.faults = faults;
            backend.validate(&c, &sources())
        };
        assert_eq!(ok(FaultPlan::new()), Ok(()));
        assert_eq!(
            ok(FaultPlan::new().crash(SimTime::from_millis(1), 0)),
            Ok(()),
            "a survivable crash plan is executable"
        );
        for factor in [f64::INFINITY, f64::NAN, 0.0, -1.0] {
            let plan = FaultPlan::new().throttle(SimTime::from_millis(1), 2, factor);
            assert!(
                matches!(
                    ok(plan),
                    Err(ExecError::UnsupportedPlan(
                        UnsupportedPlan::ThrottleFactor { core: 2, .. }
                    ))
                ),
                "throttle factor {factor} must be rejected"
            );
        }
        assert_eq!(
            ok(FaultPlan::new().stall(SimTime::from_millis(1), 9, SimTime::from_millis(1))),
            Err(ExecError::UnsupportedPlan(
                UnsupportedPlan::CoreOutOfRange {
                    at: SimTime::from_millis(1),
                    core: 9,
                    workers: 4,
                }
            ))
        );
        let at = SimTime::from_millis(1);
        assert_eq!(
            ok(FaultPlan::new().stall(at, 3, SimTime::MAX)),
            Err(ExecError::UnsupportedPlan(UnsupportedPlan::StallOverflow {
                at,
                core: 3
            })),
            "a stall that ends past SimTime::MAX"
        );
        let genocide = FaultPlan::new()
            .crash(SimTime::from_millis(1), 0)
            .crash(SimTime::from_millis(2), 1)
            .crash(SimTime::from_millis(3), 2)
            .crash(SimTime::from_millis(4), 3);
        assert_eq!(
            ok(genocide),
            Err(ExecError::UnsupportedPlan(
                UnsupportedPlan::AllWorkersDown {
                    at: SimTime::from_millis(4),
                    workers: 4,
                }
            ))
        );
    }

    /// Fault-plan fuzzing on real threads: the generator detsim's
    /// property tests use serves this backend unchanged. The only plans
    /// it may refuse are the ones that crash the last live worker.
    #[test]
    fn random_plans_validate_and_run_without_reordering() {
        let mut backend = ThreadedBackend::with_workers(4);
        let horizon = SimTime::from_millis(5);
        let mut accepted = Vec::new();
        for seed in 0..32 {
            let mut c = cfg(5);
            c.faults = laps::random_plan(seed, 4, horizon);
            match backend.validate(&c, &sources()) {
                Ok(()) => accepted.push(c.faults),
                Err(ExecError::UnsupportedPlan(UnsupportedPlan::AllWorkersDown { .. })) => {}
                Err(e) => panic!("seed {seed}: a plan detsim accepts was refused: {e}"),
            }
        }
        assert!(accepted.len() >= 24, "{} of 32 accepted", accepted.len());
        for plan in accepted.into_iter().take(4) {
            let report = run_faulted(&mut backend, 5, plan.clone()).report;
            assert_eq!(
                report.offered,
                report.processed + report.dropped,
                "conservation under {plan:?}"
            );
            assert_eq!(report.out_of_order, 0, "reordered under {plan:?}");
            let stats = backend.last_stats().expect("stats recorded");
            assert_eq!(
                stats.handshakes.begun, stats.handshakes.completed,
                "leaked handshake under {plan:?}"
            );
        }
    }

    #[test]
    fn crash_episode_repairs_and_conserves() {
        let mut backend = ThreadedBackend::with_workers(4);
        let Probed {
            report,
            recoveries,
            positions,
        } = run_faulted(
            &mut backend,
            10,
            FaultPlan::new().crash(SimTime::from_millis(2), 1),
        );
        assert_eq!(
            report.offered,
            report.processed + report.dropped,
            "conservation stays exact through a crash"
        );
        assert_eq!(report.out_of_order, 0, "crash repair never reorders");
        let faults = report.faults.as_ref().expect("fault block present");
        assert_eq!(faults.injected, 1);
        assert_eq!(faults.crashes, 1);
        assert_eq!(faults.heals, 0);
        assert_eq!(faults.repairs, 1);
        assert_eq!(faults.unrepaired, 0);
        assert_eq!(faults.redirects, 0, "every crash is repaired");
        let stats = backend.last_stats().expect("stats recorded");
        assert_eq!(stats.handshakes.begun, stats.handshakes.completed);
        assert_eq!(recoveries.len(), 1);
        let r = recoveries[0];
        assert_eq!(r.core, 1);
        assert!(r.resident_flows > 0, "the dead core owned flows");
        assert!(
            r.moved_off > 0,
            "traffic for the dead core's buckets kept flowing"
        );
        assert!(
            r.moved_off <= r.resident_flows,
            "repair moves at most what was resident"
        );
        assert!(r.healed_at.is_none());
        assert_eq!(positions.spans.len(), 1);
        assert!(positions.spans[0].heal.is_none());
    }

    #[test]
    fn crash_then_heal_restores_and_recovers() {
        let mut backend = ThreadedBackend::with_workers(4);
        let Probed {
            report,
            recoveries,
            positions,
        } = run_faulted(
            &mut backend,
            10,
            FaultPlan::new()
                .crash(SimTime::from_millis(2), 2)
                .heal(SimTime::from_millis(5), 2),
        );
        assert_eq!(report.offered, report.processed + report.dropped);
        assert_eq!(report.out_of_order, 0);
        let faults = report.faults.as_ref().expect("fault block present");
        assert_eq!((faults.crashes, faults.heals), (1, 1));
        let stats = backend.last_stats().expect("stats recorded");
        assert_eq!(stats.handshakes.begun, stats.handshakes.completed);
        assert_eq!(recoveries.len(), 1);
        assert!(recoveries[0].moved_off <= recoveries[0].resident_flows);
        let span = positions.spans[0];
        assert!(span.heal.is_some(), "the episode closed");
        assert!(span.restart.is_some(), "the healed worker serviced traffic");
        assert!(
            span.restart.unwrap() >= span.crash,
            "recovery cannot precede the crash"
        );
    }

    #[test]
    fn throttle_and_stall_run_to_completion() {
        let mut backend = ThreadedBackend::with_workers(4);
        let Probed {
            report, recoveries, ..
        } = run_faulted(
            &mut backend,
            10,
            FaultPlan::new()
                .throttle(SimTime::from_millis(1), 0, 2.0)
                .stall(SimTime::from_millis(2), 1, SimTime::from_millis(1)),
        );
        assert_eq!(report.offered, report.processed + report.dropped);
        assert_eq!(report.dropped, 0, "throttle/stall never drop");
        assert_eq!(report.out_of_order, 0);
        let faults = report.faults.as_ref().expect("fault block present");
        assert_eq!(faults.injected, 2);
        assert_eq!((faults.crashes, faults.heals), (0, 0));
        assert!(recoveries.is_empty());
    }

    #[test]
    fn fault_probe_reconstructs_recovery_spans() {
        let mut backend = ThreadedBackend::with_workers(4);
        let Probed {
            report,
            recoveries,
            positions,
        } = run_faulted(
            &mut backend,
            10,
            FaultPlan::new()
                .crash(SimTime::from_millis(2), 3)
                .heal(SimTime::from_millis(5), 3),
        );
        assert_eq!(report.offered, report.processed + report.dropped);
        assert_eq!(recoveries.len(), 1, "one crash → one span");
        let r = recoveries[0];
        assert_eq!(r.core, 3);
        assert_eq!(r.crashed_at, SimTime::from_millis(2), "the plan's instant");
        assert_eq!(r.healed_at, Some(SimTime::from_millis(5)));
        assert!(r.restarted_at >= r.healed_at, "restart follows the heal");
        let span = positions.spans[0];
        assert_eq!(span.core, 3);
        let restart = span.restart.expect("the healed worker charged again");
        assert!(restart >= span.heal.expect("healed"));
    }

    /// Plan positions read off the delivered stream. Deliveries come in
    /// position order, with the actions fired before a packet ahead of
    /// its arrival, so an action's position is the number of arrivals
    /// delivered before it, and a service start's is the last arrival's.
    #[derive(Debug, Clone, Default)]
    struct Positions {
        arrived: u64,
        /// One per crash, in crash order.
        spans: Vec<Span>,
        /// One per `Migration`: the plan position of the packet that
        /// changed cores, and its flow.
        migrations: Vec<(u64, FlowSlot)>,
    }

    /// One crash in plan positions: the crash, the heal, and the first
    /// packet the healed worker charged.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Span {
        core: usize,
        crash: u64,
        heal: Option<u64>,
        restart: Option<u64>,
    }

    impl Positions {
        fn latest(&mut self, core: usize) -> Option<&mut Span> {
            self.spans.iter_mut().rev().find(|s| s.core == core)
        }
    }

    impl npsim::Probe for Positions {
        fn name(&self) -> &'static str {
            "positions"
        }

        fn on_event(&mut self, _now: SimTime, ev: &SimEvent) {
            let at = self.arrived;
            match *ev {
                SimEvent::PacketArrived { .. } => self.arrived += 1,
                // It follows its packet's arrival.
                SimEvent::Migration { slot, .. } => self.migrations.push((at - 1, slot)),
                SimEvent::CoreCrashed { core } => self.spans.push(Span {
                    core,
                    crash: at,
                    heal: None,
                    restart: None,
                }),
                SimEvent::CoreHealed { core } => {
                    if let Some(s) = self.latest(core) {
                        s.heal.get_or_insert(at);
                    }
                }
                SimEvent::ServiceStart { core, .. } => {
                    if let Some(s) = self.latest(core).filter(|s| s.heal.is_some()) {
                        s.restart.get_or_insert(at - 1);
                    }
                }
                _ => {}
            }
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    /// Run `faults` and assert what every fault run must keep: exact
    /// conservation, zero reordering, every handshake completed.
    fn run_exact(backend: &mut ThreadedBackend, ms: u64, faults: FaultPlan) -> Probed {
        let run = run_faulted(backend, ms, faults.clone());
        let report = &run.report;
        assert_eq!(
            report.offered,
            report.processed + report.dropped,
            "conservation under {faults:?}"
        );
        assert_eq!(report.out_of_order, 0, "reordered under {faults:?}");
        let stats = backend.last_stats().expect("stats recorded");
        assert_eq!(
            stats.handshakes.begun, stats.handshakes.completed,
            "leaked handshake under {faults:?}"
        );
        run
    }

    /// Run a crash/heal plan for 10 ms on 4 workers, exact as any fault
    /// run, with every crash healed and recovered after it.
    fn healed_spans(faults: FaultPlan) -> Vec<Span> {
        let run = run_exact(&mut ThreadedBackend::with_workers(4), 10, faults);
        for s in &run.positions.spans {
            let recovered = s.restart.expect("the worker charged again");
            assert!(s.heal.is_some() && recovered >= s.crash);
        }
        run.positions.spans
    }

    #[test]
    fn crash_and_heal_at_the_same_instant() {
        let at = SimTime::from_millis(2);
        let spans = healed_spans(FaultPlan::new().crash(at, 1).heal(at, 1));
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].heal, Some(spans[0].crash));
    }

    #[test]
    fn two_crash_heal_episodes_on_one_core() {
        let ms = SimTime::from_millis;
        let plan = FaultPlan::new().crash(ms(2), 2).heal(ms(4), 2);
        let spans = healed_spans(plan.crash(ms(6), 2).heal(ms(8), 2));
        assert_eq!(spans.len(), 2);
        assert!(spans[0].restart < Some(spans[1].crash));
    }

    /// A crash of the target of in-flight marked handshakes: one packet
    /// before the crash, every group worker `W` does not own is forced
    /// into `W`, so the crash finds `W` holding (or about to hold) for
    /// those handshakes and its replacements inherit them.
    #[test]
    fn crash_under_inbound_handshakes_keeps_order() {
        const W: usize = 1;
        let ms = SimTime::from_millis;
        for seed in [77, 78, 79] {
            let mut c = cfg(10);
            c.seed = seed;
            let pos = PlanStream::new(&c, &sources())
                .position(|p| p.at >= ms(2))
                .expect("the crash instant falls inside the run") as u64;
            assert!(pos > 0, "seed {seed}: packets precede the crash");
            let mut backend = ThreadedBackend::new(NpexecConfig {
                workers: 4,
                groups: 32,
                rebalance_every: 0,
                forced_migrations: (0..32)
                    .filter(|g| g % 4 != W as u64)
                    .map(|group| ForcedMigration {
                        after_packets: pos - 1,
                        group,
                        to_worker: W,
                    })
                    .collect(),
                ..NpexecConfig::default()
            });
            c.faults = FaultPlan::new().crash(ms(2), W).heal(ms(5), W);
            let Probed {
                report,
                recoveries,
                positions,
            } = run_probed(&mut backend, &c);
            assert_eq!(
                report.offered,
                report.processed + report.dropped,
                "seed {seed}: conservation"
            );
            assert_eq!(report.out_of_order, 0, "seed {seed}: reordered");
            let stats = backend.last_stats().expect("stats recorded");
            assert!(stats.handshakes.begun > 0, "seed {seed}: no handshake ran");
            assert_eq!(
                stats.handshakes.begun, stats.handshakes.completed,
                "seed {seed}: leaked handshake"
            );
            assert_eq!(positions.spans.len(), 1);
            assert_eq!(positions.spans[0].crash, pos);
            let r = recoveries[0];
            assert!(r.moved_off <= r.resident_flows, "seed {seed}");
        }
    }

    #[test]
    fn validate_rejects_a_plan_too_large_to_number() {
        let backend = ThreadedBackend::with_workers(2);
        let mut c = cfg(1);
        // 6 Mpps for an hour: ≈ 2.2e10 packets.
        c.duration = SimTime::from_secs(3600);
        let err = backend.validate(&c, &sources()).expect_err("too large");
        assert_eq!(
            err,
            ExecError::PlanTooLarge {
                expected: PlanStream::expected_packets_for(&c, &sources()) as u64,
                limit: u64::from(u32::MAX / 2),
            }
        );
        assert!(err.to_string().contains("shorten the horizon"));
        assert_eq!(backend.validate(&cfg(1), &sources()), Ok(()));
    }

    /// The fault-before-same-time-arrival tie-break: a crash scheduled
    /// at exactly a packet's arrival instant fires before that packet,
    /// i.e. at the position of the first packet arriving at or after it.
    #[test]
    fn a_crash_at_an_arrival_instant_fires_before_that_packet() {
        let full = npsim::ArrivalPlan::from_config(&cfg(10), &sources());
        let k = full.packets.len() / 3;
        let at = full.packets[k].at;
        let first = full.packets.partition_point(|p| p.at < at);
        assert!(first <= k && full.packets[first].at == at);
        let run = run_exact(
            &mut ThreadedBackend::with_workers(4),
            10,
            FaultPlan::new().crash(at, 1),
        );
        assert_eq!(run.positions.spans.len(), 1);
        assert_eq!(run.positions.spans[0].crash, first as u64);
    }

    /// Drawing the stream a burst ahead of routing moves no action: a
    /// crash, a heal and a forced migration on the packets either side
    /// of the first burst boundary, and a crash at the stream's last
    /// packet, fire where a packet-by-packet walk of the stream puts
    /// them. The forced migration shows on the first packet of group 0
    /// from its position on whose flow had an earlier packet.
    #[test]
    fn burst_draw_keeps_action_positions() {
        let b = PlanStream::BURST as u64;
        let plan: Vec<_> = PlanStream::new(&cfg(10), &sources()).collect();
        let last = plan.len() as u64 - 1;
        let at = |k: u64| plan[k as usize].at;
        let first_at_or_after = |t: SimTime| {
            plan.iter()
                .position(|p| p.at >= t)
                .expect("the instant falls inside the run") as u64
        };
        let mut backend = ThreadedBackend::new(NpexecConfig {
            workers: 4,
            groups: 32,
            rebalance_every: 0,
            forced_migrations: vec![ForcedMigration {
                after_packets: b + 1,
                group: 0,
                to_worker: 2,
            }],
            ..NpexecConfig::default()
        });
        let mut c = cfg(10);
        c.faults = FaultPlan::new()
            .crash(at(b - 1), 1)
            .heal(at(b), 1)
            .crash(at(last), 3);
        let Probed {
            report, positions, ..
        } = run_probed(&mut backend, &c);
        assert_eq!(report.offered, plan.len() as u64);
        assert_eq!(report.offered, report.processed + report.dropped);
        assert_eq!(report.out_of_order, 0);
        let stats = backend.last_stats().expect("stats recorded");
        assert_eq!(stats.handshakes.begun, stats.handshakes.completed);
        let spans: Vec<_> = positions
            .spans
            .iter()
            .map(|s| (s.core, s.crash, s.heal))
            .collect();
        assert_eq!(
            spans,
            [
                (
                    1,
                    first_at_or_after(at(b - 1)),
                    Some(first_at_or_after(at(b)))
                ),
                (3, first_at_or_after(at(last)), None),
            ]
        );
        let groups = MapTable::new(vec![0usize; 32]);
        let group_of_slot: Vec<u32> = plan
            .iter()
            .filter(|p| p.flow_seq == 0)
            .map(|p| groups.bucket_of(p.flow))
            .collect();
        let in_group_0 = |slot: FlowSlot| group_of_slot.get(slot.index()) == Some(&0);
        let forced = plan
            .iter()
            .skip(b as usize + 1)
            .find(|p| p.flow_seq > 0 && in_group_0(p.slot))
            .expect("group 0 sees a known flow after the forced migration");
        let first = positions
            .migrations
            .iter()
            .find(|&&(_, slot)| in_group_0(slot));
        assert_eq!(
            first,
            Some(&(forced.id, forced.slot)),
            "forced migration position"
        );
        assert_eq!(positions.arrived, plan.len() as u64);
    }

    /// Probes get the threads' event logs at join; the report must not
    /// depend on whether they are attached. One service
    /// (so cold starts are per resume, not per interleaving), no
    /// rebalancer, and a crash before the first packet (an empty ring,
    /// so no crash drops) make the whole report deterministic.
    #[test]
    fn fault_report_is_identical_with_and_without_probes() {
        let mut c = cfg(10);
        c.faults = FaultPlan::new()
            .crash(SimTime::ZERO, 1)
            .heal(SimTime::from_millis(4), 1);
        let one_service = vec![SourceConfig {
            service: ServiceKind::IpForward,
            trace: TracePreset::Caida(1),
            rate: RateSpec::Constant(4.0),
        }];
        let run = |probes: ProbeStack| {
            let mut backend = ThreadedBackend::new(NpexecConfig {
                workers: 4,
                rebalance_every: 0,
                ..NpexecConfig::default()
            });
            backend.run(&c, &one_service, Box::new(JoinShortestQueue::new()), probes)
        };
        let (bare, _) = run(ProbeStack::new());
        let probes: ProbeStack = vec![Box::new(MetricsProbe::new()), Box::new(FaultProbe::new())];
        let (probed, probes) = run(probes);
        assert_eq!(format!("{bare:?}"), format!("{probed:?}"));
        assert_eq!(bare.offered, bare.processed + bare.dropped);
        assert_eq!(
            bare.faults.as_ref().map(|f| (f.crashes, f.heals)),
            Some((1, 1))
        );
        let faults = probes
            .get(1)
            .and_then(|p| p.as_any().downcast_ref::<FaultProbe>())
            .expect("fault probe returned");
        assert_eq!(faults.recoveries().len(), 1);
        assert!(faults.recoveries()[0].restarted_at.is_some());
        let metrics = probes
            .first()
            .and_then(|p| p.as_any().downcast_ref::<MetricsProbe>())
            .expect("metrics probe returned");
        assert_eq!(metrics.counter("arrivals"), Some(bare.offered));
    }

    /// Fault-plan fuzzing on real threads at nightly size: every plan
    /// `laps::random_plan` draws over 128 seeds at a 20 ms horizon that
    /// validates. Run with `cargo test -p npexec --release -- --ignored`.
    #[test]
    #[ignore = "nightly tier: 128 fault plans on real threads"]
    fn random_plans_nightly() {
        let mut backend = ThreadedBackend::with_workers(4);
        let mut ran = 0;
        for seed in 0..128 {
            let mut c = cfg(20);
            c.faults = laps::random_plan(seed, 4, SimTime::from_millis(20));
            match backend.validate(&c, &sources()) {
                Ok(()) => {}
                Err(ExecError::UnsupportedPlan(UnsupportedPlan::AllWorkersDown { .. })) => continue,
                Err(e) => panic!("seed {seed}: a plan detsim accepts was refused: {e}"),
            }
            run_exact(&mut backend, 20, c.faults);
            ran += 1;
        }
        assert!(ran >= 96, "{ran} of 128 plans ran");
    }
}
