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
//! The dispatcher owns the stream and draws each packet when it
//! dispatches it, as the paper's frame manager hands the scheduler one
//! descriptor per arriving packet. Each ring slot carries that packet's
//! descriptor by value (`plan.rs`: plan position, flow slot, per-flow
//! sequence, flow group, size, service, migrated bit, arrival instant —
//! the group is one CRC16 per *flow*, not per packet), so no thread
//! indexes a shared plan and a run holds O(flows) state: the
//! dispatcher's per-flow group and last-worker tables and the shared
//! order witness, each grown as flows appear. The timed thread scope
//! ([`ExecStats::wall_secs`]) covers drawing, rings and handshake alike.
//!
//! ```text
//!                  PlanStream (drawn one packet per dispatch)
//!                      │
//!                      ▼              ┌────── worker 0 (pinned) ──────┐
//!                  dispatcher ──spsc──► pop → hold? → service         │
//!                      │   │  ExecDesc                                │
//!                      │   │  by value                   SeqWatch ◄───┘
//!                      │   └─spsc──► worker 1 … worker N-1
//!                      │
//!                      ├─ MapTable  (bucket == flow group)
//!                      ├─ group_of_flow, last_core (grow with the flows)
//!                      ├─ GroupBoard (begun/released per group)
//!                      └─ command words (fault runs: crash/pause, one per worker)
//! ```
//!
//! Fault plans execute for real: a `Crash` pauses its worker, which
//! first turns its held and queued packets into accounted drops; once
//! it has paused, `retire_core` re-homes its buckets. A `Heal` resumes
//! the worker cold and migrates its buckets home behind marked
//! handshakes. Both fire just before the first packet
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

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use laps::{GroupBoard, HandshakeStats};
use nphash::{FlowSlot, MapTable};
use npsim::{
    CoreClock, EngineConfig, ExecBackend, ExecError, FaultAction, FaultStats, PlanStream,
    ProbeHost, ProbeStack, Scheduler, SimEvent, SimReport, SourceConfig, UnsupportedPlan,
};
use nptraffic::ServiceKind;

use dispatcher::{DispatchCtx, DispatchOutcome};
use plan::{SeqWatch, MAX_PLAN_PACKETS};
use worker::{WorkerCtx, WorkerOutcome};

/// What the dispatcher does when a worker's ring is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FullPolicy {
    /// Spin (with periodic yields) until the worker makes room — no
    /// drops, exact conservation `offered == processed`.
    Backpressure,
    /// Retry this many times, then drop the packet (counted in the
    /// report like a detsim queue-full drop).
    DropAfter(u32),
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
    /// Full-ring behavior.
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

/// One crash's recovery ledger, in plan positions (backend-neutral
/// "time": position `i` is the `i`-th planned arrival, identical on
/// both backends).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashEpisode {
    /// The crashed worker (== simulated core).
    pub core: usize,
    /// Plan position of the crash.
    pub crash_at_packet: u64,
    /// Plan position of the heal (`None`: still down at end of run).
    pub heal_at_packet: Option<u64>,
    /// Flows resident on the core at the crash (their last dispatch
    /// landed there).
    pub resident_flows: u64,
    /// Resident flows the repair actually moved to another worker
    /// inside the crash window. `<= resident_flows` by construction.
    pub migrated_flows: u64,
    /// Buckets `MapTable::retire_core` re-homed.
    pub buckets_rehomed: usize,
    /// Retired buckets the heal could not migrate home (left on their
    /// replacement — counted degradation, not an error).
    pub restore_skipped: u64,
    /// Plan position of the first packet the worker serviced after the
    /// heal resumed it (`None`: never healed, or no packet reached it
    /// afterwards). Crash-to-here is the episode's recovery latency.
    pub recovery_at_packet: Option<u64>,
}

/// Wall-clock observations of the last [`ThreadedBackend::run`].
#[derive(Debug, Clone)]
pub struct ExecStats {
    /// Wall-clock duration of the run (first draw → last join). It
    /// includes drawing the offered stream, which the dispatcher does
    /// packet by packet as it dispatches.
    pub wall_secs: f64,
    /// Delivered packets per wall-clock second of [`ExecStats::wall_secs`],
    /// in millions (so drawing counts against it too).
    pub mpps: f64,
    /// Worker threads used.
    pub workers: usize,
    /// Flow groups used.
    pub groups: usize,
    /// Marked-handshake ledger (begun / completed / aborted): load
    /// migrations, forced migrations and heal restores. A crash begins
    /// none; a mark stranded in a crashed worker's ring is acked by its
    /// crash step, so `begun == completed` holds at the end of every
    /// run, faulted or not.
    pub handshakes: HandshakeStats,
    /// Deepest any worker's holdback buffer got.
    pub max_hold_depth: usize,
    /// Workers whose CPU pin was honored by the kernel.
    pub pinned_workers: usize,
    /// Map-table redirect epoch after the run (== completed redirects
    /// through *marked* handshakes; crash retire/restore moves are
    /// ledgered in `episodes`, not the epoch).
    pub table_epoch: u64,
    /// Per-crash recovery ledgers, in crash order (empty: fault-free run).
    pub episodes: Vec<CrashEpisode>,
    /// Packets that waited at least one full-ring retry under
    /// [`FullPolicy::Backpressure`].
    pub backpressured: u64,
}

/// The thread-per-core [`ExecBackend`].
///
/// Dispatch policy is the paper's own mechanism — hash to a flow group,
/// group to a worker via the map table, remap groups to rebalance — so
/// the boxed [`Scheduler`] handed in by the builder only names the
/// report; its per-packet `schedule` is never called.
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

        // Shared state: map table (dispatcher-owned), handshake board,
        // per-group migration targets, per-flow order witnesses (grown
        // by the dispatcher as flows appear).
        let mut owners = Vec::with_capacity(groups);
        for g in 0..groups {
            owners.push(g % workers);
        }
        let table = MapTable::new(owners);
        let board = GroupBoard::new(groups);
        let stream = PlanStream::new(cfg, sources);
        let mut migrating_to = Vec::with_capacity(groups);
        for _ in 0..groups {
            migrating_to.push(AtomicUsize::new(usize::MAX));
        }
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

        #[allow(clippy::disallowed_methods, reason = "wall-clock Mpps is the output")]
        let start = Instant::now();
        let (mut dispatch, outs) = std::thread::scope(|s| {
            let cp = ctrl.as_deref();
            let mut handles = Vec::with_capacity(workers);
            for (id, consumer) in consumers.into_iter().enumerate() {
                let ctx = WorkerCtx {
                    id,
                    consumer,
                    board: board.clone(),
                    migrating_to: &migrating_to,
                    seq_watch: &seq_watch,
                    done: &done,
                    clock: CoreClock::new(cfg, id),
                    pin_to: self.cfg.pin_threads.then_some(id),
                    ctrl: cp,
                };
                handles.push(s.spawn(move || worker::run(ctx)));
            }
            let dispatch = dispatcher::run(DispatchCtx {
                stream,
                table,
                producers,
                board: board.clone(),
                migrating_to: &migrating_to,
                seq_watch: &seq_watch,
                rebalance_every: self.cfg.rebalance_every,
                imbalance_ratio: self.cfg.imbalance_ratio,
                full_policy: self.cfg.full_policy,
                forced,
                faults,
                ctrl: cp,
            });
            // npcheck: ordering(Release publishes every ring push sequenced before it; workers pair with an Acquire load before exiting)
            done.store(true, Ordering::Release);
            let outs: Vec<WorkerOutcome> = handles
                .into_iter()
                .map(|h| h.join().unwrap_or_default())
                .collect();
            (dispatch, outs)
        });
        let wall_secs = start.elapsed().as_secs_f64().max(1e-9);

        let mut episodes = std::mem::take(&mut dispatch.episodes);
        // Per-episode recovery: a worker resumes once per heal, so its
        // k-th resume belongs to its core's k-th healed episode.
        for (core, o) in outs.iter().enumerate() {
            let healed = episodes
                .iter_mut()
                .filter(|e| e.core == core && e.heal_at_packet.is_some());
            for (ep, &first) in healed.zip(&o.recoveries) {
                ep.recovery_at_packet = first;
            }
        }

        let delivered: u64 = outs.iter().map(|o| o.serviced).sum();
        let stats = ExecStats {
            wall_secs,
            mpps: delivered as f64 / wall_secs / 1e6,
            workers,
            groups,
            handshakes: HandshakeStats {
                begun: board.total_begun(),
                completed: board.total_released(),
                aborted: dispatch.aborted,
            },
            max_hold_depth: outs.iter().map(|o| o.max_hold_depth).max().unwrap_or(0),
            pinned_workers: outs.iter().filter(|o| o.pinned).count(),
            table_epoch: dispatch.final_epoch,
            episodes,
            backpressured: dispatch.backpressured,
        };
        let report = assemble_report(cfg, scheduler.name(), &dispatch, &outs, delivered);
        if !probes.is_empty() {
            replay_probes(&mut probes, cfg, sources, &dispatch, &outs, &stats.episodes);
        }
        self.last = Some(stats);
        (report, probes)
    }
}

/// Fold the dispatcher ledger and worker outcomes into the engine's
/// report shape, from the per-service counters both sides keep.
/// Counters carry detsim semantics where both exist (`migrated_packets`
/// is per packet moved at dispatch); npexec-only notions map as
/// documented per field. `events` counts the synthetic probe-bus stream
/// (one arrival + one terminal event per packet).
fn assemble_report(
    cfg: &EngineConfig,
    sched_name: &str,
    dispatch: &DispatchOutcome,
    outs: &[WorkerOutcome],
    delivered: u64,
) -> SimReport {
    let mut report = SimReport::new(format!("npexec:{sched_name}"), cfg.duration, cfg.scale);
    let fault_drops: u64 = outs.iter().map(|o| o.crash_drops.len() as u64).sum();
    report.offered = dispatch.offered.iter().sum();
    report.dropped = dispatch.dropped.len() as u64 + fault_drops;
    report.processed = delivered;
    report.migrated_packets = dispatch.migrated_packets;
    report.migration_events = dispatch.migrations.len() as u64;
    report.cold_starts = outs.iter().map(|o| o.cold_starts).sum();
    report.core_busy_ns = outs.iter().map(|o| o.busy_ns).collect();
    report.out_of_order = outs.iter().map(|o| o.ooo_packets.len() as u64).sum();
    for (k, kind) in ServiceKind::ALL.into_iter().enumerate() {
        let sum = |f: fn(&WorkerOutcome) -> &[u64; 4]| -> u64 {
            outs.iter().filter_map(|o| f(o).get(k)).sum()
        };
        let s = report.service_mut(kind);
        s.offered = dispatch.offered.get(k).copied().unwrap_or(0);
        s.dropped = dispatch.dropped_per_service.get(k).copied().unwrap_or(0)
            + sum(|o| &o.dropped_per_service);
        s.processed = sum(|o| &o.per_service);
        s.out_of_order = sum(|o| &o.ooo_per_service);
    }
    if dispatch.injected > 0 {
        // The FaultStats block detsim emits for the same plan, with the
        // documented npexec mapping: every crash/heal is repaired (the
        // pause protocol has no unrepaired path).
        report.faults = Some(FaultStats {
            injected: dispatch.injected,
            crashes: dispatch.crashes,
            heals: dispatch.heals,
            fault_drops,
            redirects: dispatch.redirects,
            repairs: dispatch.crashes + dispatch.heals,
            unrepaired: 0,
        });
    }
    report.events = report.offered + report.processed + report.dropped;
    report
}

/// A fault timeline mark of the probe replay, keyed by plan position.
#[derive(Clone, Copy)]
enum Mark {
    Crashed(usize),
    Healed(usize),
    /// The first service of a healed worker (at its recovery packet).
    Restarted(usize),
}

impl Mark {
    /// The event, for a mark fired just before a packet of `service`.
    fn event(self, service: ServiceKind) -> SimEvent {
        match self {
            Mark::Crashed(core) => SimEvent::CoreCrashed { core },
            Mark::Healed(core) => SimEvent::CoreHealed { core },
            Mark::Restarted(core) => SimEvent::ServiceStart {
                core,
                service,
                cold: true,
                migrated: false,
                duration: detsim::SimTime::ZERO,
            },
        }
    }
}

/// Replay a count-faithful synthetic event stream into the probes.
///
/// npexec has no deterministic virtual interleaving to publish live, so
/// probes see a post-run reconstruction over a re-drawn copy of the
/// (deterministic) offered stream: one `PacketArrived` per planned
/// packet at its arrival instant, a `Dropped` or `Departure` terminal
/// per packet, a `ReorderDetected` per out-of-order delivery, one
/// `Migration` per completed handshake, and — on fault runs —
/// `CoreCrashed`/`CoreHealed` marks at their plan positions plus one
/// synthetic `ServiceStart` at each episode's recovery packet, so a
/// [`npsim::FaultProbe`] reconstructs the same crash → heal → restart
/// spans it would see live on detsim. Counts match the report exactly;
/// interleaving and latencies are coarse (latency 0, migrations
/// timestamped at the horizon). Only runs with probes attached pay for
/// the second draw.
fn replay_probes(
    probes: &mut ProbeStack,
    cfg: &EngineConfig,
    sources: &[SourceConfig],
    dispatch: &DispatchOutcome,
    outs: &[WorkerOutcome],
    episodes: &[CrashEpisode],
) {
    // `(position, core)` of every drop, and every out-of-order
    // position, each sorted for one merge pass over the stream.
    let mut drops = dispatch.dropped.clone();
    for (core, o) in outs.iter().enumerate() {
        drops.extend(o.crash_drops.iter().map(|&pos| (pos, core as u32)));
    }
    drops.sort_unstable();
    let mut ooo: Vec<u64> = outs
        .iter()
        .flat_map(|o| o.ooo_packets.iter().copied())
        .collect();
    ooo.sort_unstable();
    // Fault timeline marks keyed by plan position, fired *before* the
    // packet at that position (the fault-before-arrival tie-break).
    let mut marks: Vec<(u64, Mark)> = Vec::new();
    for ep in episodes {
        marks.push((ep.crash_at_packet, Mark::Crashed(ep.core)));
        if let Some(h) = ep.heal_at_packet {
            marks.push((h, Mark::Healed(ep.core)));
        }
        if let Some(r) = ep.recovery_at_packet {
            marks.push((r, Mark::Restarted(ep.core)));
        }
    }
    marks.sort_by_key(|&(pos, _)| pos);
    let (mut next_mark, mut next_drop, mut next_ooo) = (0usize, 0usize, 0usize);
    for p in PlanStream::new(cfg, sources) {
        let id = p.id;
        while let Some(&(pos, mark)) = marks.get(next_mark) {
            if pos > id {
                break;
            }
            probes.deliver(p.at, &mark.event(p.service));
            next_mark += 1;
        }
        probes.deliver(
            p.at,
            &SimEvent::PacketArrived {
                id,
                slot: p.slot,
                service: p.service,
                size: p.size,
            },
        );
        if let Some(&(_, core)) = drops.get(next_drop).filter(|&&(pos, _)| pos == id) {
            next_drop += 1;
            probes.deliver(
                p.at,
                &SimEvent::Dropped {
                    id,
                    slot: p.slot,
                    service: p.service,
                    core: core as usize,
                },
            );
            continue;
        }
        let out_of_order = ooo.get(next_ooo) == Some(&id);
        if out_of_order {
            next_ooo += 1;
        }
        probes.deliver(
            p.at,
            &SimEvent::Departure {
                id,
                slot: p.slot,
                service: p.service,
                latency_ns: 0,
                out_of_order,
            },
        );
        if out_of_order {
            probes.deliver(
                p.at,
                &SimEvent::ReorderDetected {
                    slot: p.slot,
                    flow_seq: p.flow_seq,
                    extent: 1,
                },
            );
        }
    }
    while let Some(&(_, mark)) = marks.get(next_mark) {
        probes.deliver(cfg.duration, &mark.event(ServiceKind::IpForward));
        next_mark += 1;
    }
    for &(group, from, to) in &dispatch.migrations {
        probes.deliver(
            cfg.duration,
            &SimEvent::Migration {
                // Group-granular move: tag with the group id in the slot
                // field (a handshake moves the whole bucket, not one flow).
                slot: FlowSlot::new(group as u32),
                from,
                to,
            },
        );
    }
    probes.finish(cfg.duration);
}

#[cfg(test)]
mod tests {
    use super::*;
    use detsim::SimTime;
    use npsim::{FaultPlan, FaultProbe, JoinShortestQueue, MetricsProbe, RateSpec};
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
        run_faulted(backend, ms, FaultPlan::new())
    }

    fn run_faulted(backend: &mut ThreadedBackend, ms: u64, faults: FaultPlan) -> SimReport {
        let mut c = cfg(ms);
        c.faults = faults;
        let (report, _probes) = backend.run(
            &c,
            &sources(),
            Box::new(JoinShortestQueue::new()),
            ProbeStack::new(),
        );
        report
    }

    #[test]
    fn conserves_and_keeps_order_under_backpressure() {
        let mut backend = ThreadedBackend::with_workers(4);
        let report = run_with(&mut backend, 10);
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
        assert!(stats.episodes.is_empty());
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
        assert_eq!(
            report.migration_events, stats.table_epoch,
            "one redirect per completed handshake begin"
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

    #[test]
    fn drop_after_policy_accounts_drops() {
        let mut backend = ThreadedBackend::new(NpexecConfig {
            workers: 2,
            ring_capacity: 8,
            full_policy: FullPolicy::DropAfter(2),
            rebalance_every: 0,
            ..NpexecConfig::default()
        });
        let report = run_with(&mut backend, 10);
        assert_eq!(report.offered, report.processed + report.dropped);
        let per_service_drops: u64 = report.per_service.iter().map(|s| s.dropped).sum();
        assert_eq!(per_service_drops, report.dropped);
    }

    #[test]
    fn probe_replay_matches_report_counts() {
        let mut backend = ThreadedBackend::with_workers(2);
        let probes: ProbeStack = vec![Box::new(MetricsProbe::new())];
        let (report, probes) = backend.run(
            &cfg(5),
            &sources(),
            Box::new(JoinShortestQueue::new()),
            probes,
        );
        let metrics = probes
            .first()
            .and_then(|p| p.as_any().downcast_ref::<MetricsProbe>())
            .expect("metrics probe returned");
        let get = |name: &str| {
            metrics
                .counters()
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(get("arrivals"), report.offered);
        assert_eq!(get("departures"), report.processed);
        assert_eq!(get("drops"), report.dropped);
        assert_eq!(get("migrations"), report.migration_events);
        assert_eq!(get("reorders"), report.out_of_order);
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
            let report = run_faulted(&mut backend, 5, plan.clone());
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
        let report = run_faulted(
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
        assert!(
            faults.redirects > 0,
            "traffic for the dead core's buckets kept flowing"
        );
        let stats = backend.last_stats().expect("stats recorded");
        assert_eq!(stats.handshakes.begun, stats.handshakes.completed);
        assert_eq!(stats.episodes.len(), 1);
        let ep = &stats.episodes[0];
        assert_eq!(ep.core, 1);
        assert!(ep.buckets_rehomed > 0, "the dead core owned buckets");
        assert!(
            ep.migrated_flows <= ep.resident_flows,
            "repair moves at most what was resident"
        );
        assert!(ep.heal_at_packet.is_none());
    }

    #[test]
    fn crash_then_heal_restores_and_recovers() {
        let mut backend = ThreadedBackend::with_workers(4);
        let report = run_faulted(
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
        assert_eq!(stats.episodes.len(), 1);
        let ep = &stats.episodes[0];
        assert!(ep.heal_at_packet.is_some(), "the episode closed");
        assert!(
            ep.recovery_at_packet.is_some(),
            "the healed worker serviced traffic"
        );
        assert!(
            ep.recovery_at_packet.unwrap() >= ep.crash_at_packet,
            "recovery cannot precede the crash"
        );
    }

    #[test]
    fn throttle_and_stall_run_to_completion() {
        let mut backend = ThreadedBackend::with_workers(4);
        let report = run_faulted(
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
        let stats = backend.last_stats().expect("stats recorded");
        assert!(stats.episodes.is_empty());
    }

    #[test]
    fn fault_probe_reconstructs_recovery_spans() {
        let mut backend = ThreadedBackend::with_workers(4);
        let mut c = cfg(10);
        c.faults = FaultPlan::new()
            .crash(SimTime::from_millis(2), 3)
            .heal(SimTime::from_millis(5), 3);
        let probes: ProbeStack = vec![Box::new(FaultProbe::new())];
        let (report, probes) =
            backend.run(&c, &sources(), Box::new(JoinShortestQueue::new()), probes);
        assert_eq!(report.offered, report.processed + report.dropped);
        let probe = probes
            .first()
            .and_then(|p| p.as_any().downcast_ref::<FaultProbe>())
            .expect("fault probe returned");
        assert_eq!(probe.recoveries().len(), 1, "one crash → one span");
        let r = probe.recoveries()[0];
        assert_eq!(r.core, 3);
        assert!(r.healed_at.is_some(), "heal mark replayed");
        let stats = backend.last_stats().expect("stats recorded");
        assert_eq!(
            r.restarted_at.is_some(),
            stats.episodes[0].recovery_at_packet.is_some(),
            "probe restart mark mirrors the episode's recovery packet"
        );
    }

    /// Run `faults` and assert what every fault run must keep: exact
    /// conservation, zero reordering, every handshake completed.
    fn run_exact(backend: &mut ThreadedBackend, ms: u64, faults: FaultPlan) -> ExecStats {
        let report = run_faulted(backend, ms, faults.clone());
        assert_eq!(
            report.offered,
            report.processed + report.dropped,
            "conservation under {faults:?}"
        );
        assert_eq!(report.out_of_order, 0, "reordered under {faults:?}");
        let stats = backend.last_stats().expect("stats recorded").clone();
        assert_eq!(
            stats.handshakes.begun, stats.handshakes.completed,
            "leaked handshake under {faults:?}"
        );
        stats
    }

    /// Run a crash/heal plan for 10 ms on 4 workers, exact as any fault
    /// run, with every episode healed and recovered after its crash.
    fn healed_episodes(faults: FaultPlan) -> Vec<CrashEpisode> {
        let stats = run_exact(&mut ThreadedBackend::with_workers(4), 10, faults);
        for ep in &stats.episodes {
            let recovered = ep.recovery_at_packet.expect("the worker serviced again");
            assert!(ep.heal_at_packet.is_some() && recovered >= ep.crash_at_packet);
        }
        stats.episodes
    }

    #[test]
    fn crash_and_heal_at_the_same_instant() {
        let at = SimTime::from_millis(2);
        let eps = healed_episodes(FaultPlan::new().crash(at, 1).heal(at, 1));
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].heal_at_packet, Some(eps[0].crash_at_packet));
    }

    #[test]
    fn two_crash_heal_episodes_on_one_core() {
        let ms = SimTime::from_millis;
        let plan = FaultPlan::new().crash(ms(2), 2).heal(ms(4), 2);
        let eps = healed_episodes(plan.crash(ms(6), 2).heal(ms(8), 2));
        assert_eq!(eps.len(), 2);
        assert!(eps[0].recovery_at_packet < Some(eps[1].crash_at_packet));
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
            let (report, _) = backend.run(
                &c,
                &sources(),
                Box::new(JoinShortestQueue::new()),
                ProbeStack::new(),
            );
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
            assert_eq!(stats.episodes.len(), 1);
            let ep = &stats.episodes[0];
            assert_eq!(ep.crash_at_packet, pos);
            assert!(ep.migrated_flows <= ep.resident_flows, "seed {seed}");
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
        let stats = run_exact(
            &mut ThreadedBackend::with_workers(4),
            10,
            FaultPlan::new().crash(at, 1),
        );
        assert_eq!(stats.episodes.len(), 1);
        assert_eq!(stats.episodes[0].crash_at_packet, first as u64);
    }

    /// Probes replay a re-drawn copy of the stream after the run; the
    /// report must not depend on whether they are attached. One service
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
        let arrivals = metrics
            .counters()
            .iter()
            .find(|(n, _)| *n == "arrivals")
            .map(|(_, v)| *v);
        assert_eq!(arrivals, Some(bare.offered));
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
