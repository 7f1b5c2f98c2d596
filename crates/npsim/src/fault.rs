//! Deterministic fault injection and graceful-degradation accounting.
//!
//! A [`FaultPlan`] is a stably time-sorted script of [`FaultAction`]s
//! (core crash/heal, throttle, transient stall) delivered through the
//! engine's deterministic event queue: the engine primes one event per
//! plan entry at start-up, so two runs with the same plan and seed
//! replay identically — faults are part of the simulation, not an
//! external perturbation.
//!
//! The engine's fault-path counters land in [`FaultStats`] (embedded in
//! the report only when a plan was configured, so fault-free reports
//! serialize byte-identically to earlier versions). The
//! [`FaultProbe`] rides the probe bus and reconstructs the crash/heal
//! timeline plus, per crash, the recovery time and the flows resident
//! on the core and moved off it — the one crash ledger of both
//! backends.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use crate::event::SimEvent;
use crate::exec::UnsupportedPlan;
use crate::probe::Probe;
use detsim::SimTime;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::fmt::Write as _;

/// One scripted fault (or repair) action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// The core dies: its in-service packet and queued packets are lost
    /// (accounted as drops), and the scheduler is asked to repair.
    Crash {
        /// Core index.
        core: usize,
    },
    /// The core rejoins: the scheduler may re-grow onto it.
    Heal {
        /// Core index.
        core: usize,
    },
    /// The core slows down: service durations multiply by `factor`
    /// (`1.0` restores full speed; values < 1.0 model overclock).
    Throttle {
        /// Core index.
        core: usize,
        /// Service-duration multiplier (must be finite and > 0).
        factor: f64,
    },
    /// The core stops *starting* new service for `duration` (an
    /// in-flight packet still completes); queued packets wait.
    Stall {
        /// Core index.
        core: usize,
        /// Stall length.
        duration: SimTime,
    },
}

impl FaultAction {
    /// The core the action targets (every action names exactly one).
    pub fn core(self) -> usize {
        let (FaultAction::Crash { core }
        | FaultAction::Heal { core }
        | FaultAction::Throttle { core, .. }
        | FaultAction::Stall { core, .. }) = self;
        core
    }
}

/// A deterministic, stably time-sorted fault script.
///
/// Entries at the same instant fire in insertion order (the event queue
/// breaks time ties by insertion sequence, and the plan is primed in
/// order).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    entries: Vec<(SimTime, FaultAction)>,
}

impl FaultPlan {
    /// An empty plan (no faults; the engine's fault machinery stays
    /// dormant and the run is byte-identical to a fault-free build).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `action` at `at` (chainable): after every entry at or
    /// before `at`, so same-instant entries keep insertion order.
    pub fn at(mut self, at: SimTime, action: FaultAction) -> Self {
        let idx = self.entries.partition_point(|&(t, _)| t <= at);
        self.entries.insert(idx, (at, action));
        self
    }

    /// Schedule a core crash at `at` (chainable shorthand).
    pub fn crash(self, at: SimTime, core: usize) -> Self {
        self.at(at, FaultAction::Crash { core })
    }

    /// Schedule a core heal at `at` (chainable shorthand).
    pub fn heal(self, at: SimTime, core: usize) -> Self {
        self.at(at, FaultAction::Heal { core })
    }

    /// Schedule a throttle at `at` (chainable shorthand).
    pub fn throttle(self, at: SimTime, core: usize, factor: f64) -> Self {
        self.at(at, FaultAction::Throttle { core, factor })
    }

    /// Schedule a transient stall at `at` (chainable shorthand).
    pub fn stall(self, at: SimTime, core: usize, duration: SimTime) -> Self {
        self.at(at, FaultAction::Stall { core, duration })
    }

    /// Number of scheduled actions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry at `idx`, if any.
    pub fn get(&self, idx: usize) -> Option<&(SimTime, FaultAction)> {
        self.entries.get(idx)
    }

    /// The sorted `(time, action)` entries.
    pub fn entries(&self) -> &[(SimTime, FaultAction)] {
        &self.entries
    }

    /// Validate the plan against an engine shape: core indices in range,
    /// finite positive throttle factors (an infinite factor overflows
    /// the busy-time sum, a NaN one would be silently ignored), and
    /// stall ends within `SimTime`. Returns the first offending entry.
    /// Both backends check a plan here. No action names a source; the
    /// second parameter is unused.
    pub fn validate(&self, n_cores: usize, _n_sources: usize) -> Result<(), UnsupportedPlan> {
        for &(at, action) in &self.entries {
            let core = action.core();
            match action {
                _ if core >= n_cores => {
                    return Err(UnsupportedPlan::CoreOutOfRange {
                        at,
                        core,
                        workers: n_cores,
                    });
                }
                FaultAction::Throttle { factor, .. } if !factor.is_finite() || factor <= 0.0 => {
                    return Err(UnsupportedPlan::ThrottleFactor { at, core, factor });
                }
                FaultAction::Stall { duration, .. } if at.checked_add(duration).is_none() => {
                    return Err(UnsupportedPlan::StallOverflow { at, core });
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Fault-path counters, embedded in the report as
/// [`SimReport::faults`](crate::SimReport) when a fault plan was
/// configured.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Plan entries that fired.
    pub injected: u64,
    /// Core crashes applied.
    pub crashes: u64,
    /// Core heals applied.
    pub heals: u64,
    /// Packets lost to crashes (in-service + queued at crash time) or
    /// to arrivals with no live core left.
    pub fault_drops: u64,
    /// Arrivals redirected away from a dead core chosen by the
    /// scheduler: the detsim engine's degradation path for unrepaired
    /// policies. 0 whenever every crash was repaired, so always 0 on
    /// npexec, whose pause protocol repairs every crash.
    pub redirects: u64,
    /// Crash/heal transitions the scheduler repaired (map-table
    /// shrink/re-grow).
    pub repairs: u64,
    /// Crash/heal transitions the scheduler honestly reported it could
    /// not repair (the engine keeps degrading via redirects).
    pub unrepaired: u64,
}

/// Probe-bus reconstruction of the fault timeline: per-crash recovery
/// spans (crash → heal → first post-heal service
/// start on that core), each with the flows resident on the core at the
/// crash and moved off it before the heal, read off `Dispatched`.
#[derive(Debug, Default)]
pub struct FaultProbe {
    recoveries: Vec<Recovery>,
    /// Per core: index into `recoveries` of its latest span.
    latest: Vec<Option<usize>>,
    /// Per flow slot: the core its last `Dispatched` went to, plus one
    /// (0: not dispatched yet).
    last_core: Vec<u32>,
}

/// One crash→heal→restart span for a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    /// The crashed core.
    pub core: usize,
    /// When it crashed.
    pub crashed_at: SimTime,
    /// When it healed (None: still down at end of run).
    pub healed_at: Option<SimTime>,
    /// First service start after the heal (None: never served again).
    pub restarted_at: Option<SimTime>,
    /// Flows whose last `Dispatched` went to the core when it crashed.
    pub resident_flows: u64,
    /// Resident flows dispatched to another core before the heal. No
    /// backend dispatches to a dead core, so a move off it is a
    /// resident flow's first dispatch after the crash, and
    /// `moved_off <= resident_flows` holds by construction of the
    /// count: a consistency check of the ledger, not a proof that the
    /// repair moved no other flow.
    pub moved_off: u64,
}

impl Recovery {
    /// Crash → heal, if the core healed.
    pub fn downtime(&self) -> Option<SimTime> {
        self.healed_at.map(|h| h - self.crashed_at)
    }

    /// Crash → first post-heal service start, if it happened — the
    /// experiment's "recovery time".
    pub fn recovery_time(&self) -> Option<SimTime> {
        self.restarted_at.map(|r| r - self.crashed_at)
    }
}

impl FaultProbe {
    /// An empty probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Crash→heal→restart spans in crash order.
    pub fn recoveries(&self) -> &[Recovery] {
        &self.recoveries
    }

    /// Mean recovery time (crash → first post-heal service start) in
    /// nanoseconds over completed recoveries, if any completed.
    pub fn mean_recovery_ns(&self) -> Option<f64> {
        let done: Vec<u64> = self
            .recoveries
            .iter()
            .filter_map(|r| r.recovery_time().map(|t| t.as_nanos()))
            // npcheck: allow(blocking-hot-path) — end-of-run recovery statistics, not on the per-packet path
            .collect();
        if done.is_empty() {
            None
        } else {
            Some(done.iter().sum::<u64>() as f64 / done.len() as f64)
        }
    }

    /// Render as CSV: `core,crashed_ns,healed_ns,restarted_ns` (empty
    /// cells for spans that never healed/restarted).
    pub fn to_csv(&self) -> String {
        // npcheck: allow(blocking-hot-path) — end-of-run CSV rendering, not on the per-packet path
        let mut out = String::from("core,crashed_ns,healed_ns,restarted_ns\n");
        for r in &self.recoveries {
            // npcheck: allow(blocking-hot-path) — end-of-run CSV rendering, not on the per-packet path
            let healed = r.healed_at.map(|t| t.as_nanos().to_string());
            // npcheck: allow(blocking-hot-path) — end-of-run CSV rendering, not on the per-packet path
            let restarted = r.restarted_at.map(|t| t.as_nanos().to_string());
            let _ = writeln!(
                out,
                "{},{},{},{}",
                r.core,
                r.crashed_at.as_nanos(),
                healed.unwrap_or_default(),
                restarted.unwrap_or_default()
            );
        }
        out
    }

    /// The latest span of `core`, if it ever crashed.
    fn latest_mut(&mut self, core: usize) -> Option<&mut Recovery> {
        let i = self.latest.get(core).copied().flatten()?;
        self.recoveries.get_mut(i)
    }
}

impl Probe for FaultProbe {
    fn name(&self) -> &'static str {
        "faults"
    }

    fn on_event(&mut self, now: SimTime, ev: &SimEvent) {
        match *ev {
            SimEvent::Dispatched { slot, core, .. } => {
                let i = slot.index();
                if i >= self.last_core.len() {
                    self.last_core.resize(i + 1, 0);
                }
                let mark = core as u32 + 1;
                let prev = self
                    .last_core
                    .get_mut(i)
                    .map_or(0, |c| std::mem::replace(c, mark));
                if prev != 0 && prev != mark {
                    let span = self.latest_mut(prev as usize - 1);
                    if let Some(r) = span.filter(|r| r.healed_at.is_none()) {
                        r.moved_off += 1;
                    }
                }
            }
            SimEvent::CoreCrashed { core } => {
                if core >= self.latest.len() {
                    self.latest.resize(core + 1, None);
                }
                let mark = core as u32 + 1;
                let resident_flows = self.last_core.iter().filter(|&&c| c == mark).count();
                self.recoveries.push(Recovery {
                    core,
                    crashed_at: now,
                    healed_at: None,
                    restarted_at: None,
                    resident_flows: resident_flows as u64,
                    moved_off: 0,
                });
                if let Some(slot) = self.latest.get_mut(core) {
                    *slot = Some(self.recoveries.len() - 1);
                }
            }
            SimEvent::CoreHealed { core } => {
                if let Some(r) = self.latest_mut(core) {
                    r.healed_at.get_or_insert(now);
                }
            }
            SimEvent::ServiceStart { core, .. } => {
                if let Some(r) = self.latest_mut(core) {
                    if r.healed_at.is_some() && r.restarted_at.is_none() {
                        r.restarted_at = Some(now);
                    }
                }
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nptraffic::ServiceKind;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn plan_sorts_stably_and_validates() {
        let plan = FaultPlan::new()
            .heal(t(50), 2)
            .crash(t(10), 2)
            .throttle(t(10), 1, 2.0);
        let kinds: Vec<_> = plan.entries().iter().map(|&(at, a)| (at, a)).collect();
        assert_eq!(kinds[0], (t(10), FaultAction::Crash { core: 2 }));
        assert_eq!(
            kinds[1],
            (
                t(10),
                FaultAction::Throttle {
                    core: 1,
                    factor: 2.0
                }
            )
        );
        assert_eq!(kinds[2], (t(50), FaultAction::Heal { core: 2 }));
        assert!(plan.validate(4, 1).is_ok());
        assert_eq!(
            plan.validate(2, 1),
            Err(UnsupportedPlan::CoreOutOfRange {
                at: t(10),
                core: 2,
                workers: 2
            }),
            "core 2 out of range for 2 cores"
        );
    }

    #[test]
    fn throttle_factor_must_be_finite_and_positive() {
        for factor in [f64::INFINITY, f64::NAN, 0.0, -1.0] {
            let bad = FaultPlan::new().throttle(t(1), 0, factor);
            assert!(
                matches!(
                    bad.validate(4, 1),
                    Err(UnsupportedPlan::ThrottleFactor { core: 0, .. })
                ),
                "factor {factor} rejected"
            );
        }
        for factor in [0.5, 1.0, 4.0] {
            let ok = FaultPlan::new().throttle(t(1), 0, factor);
            assert!(ok.validate(4, 1).is_ok(), "factor {factor} accepted");
        }
    }

    #[test]
    fn a_stall_must_end_within_simtime() {
        let at = t(5);
        let longest = SimTime::from_nanos(u64::MAX - at.as_nanos());
        let ok = FaultPlan::new().stall(at, 1, longest);
        assert_eq!(ok.validate(4, 1), Ok(()));
        let bad = FaultPlan::new().stall(at, 1, longest + SimTime::from_nanos(1));
        assert_eq!(
            bad.validate(4, 1),
            Err(UnsupportedPlan::StallOverflow { at, core: 1 })
        );
    }

    #[test]
    fn fault_probe_tracks_recovery_spans() {
        let mut p = FaultProbe::new();
        let start = |core| SimEvent::ServiceStart {
            core,
            service: ServiceKind::IpForward,
            cold: false,
            migrated: false,
            duration: t(1),
        };
        p.on_event(t(5), &start(3)); // pre-crash start: ignored
        p.on_event(t(10), &SimEvent::CoreCrashed { core: 3 });
        p.on_event(t(20), &SimEvent::CoreHealed { core: 3 });
        p.on_event(t(22), &start(1)); // other core: ignored
        p.on_event(t(25), &start(3)); // closes the span
        p.on_event(t(30), &start(3)); // after close: ignored
        assert_eq!(p.recoveries().len(), 1);
        let r = p.recoveries()[0];
        assert_eq!(r.downtime(), Some(t(10)));
        assert_eq!(r.recovery_time(), Some(t(15)));
        assert_eq!(p.mean_recovery_ns(), Some(15_000.0));
        assert!(p.to_csv().contains("3,10000,20000,25000"));
    }

    #[test]
    fn fault_probe_handles_unhealed_crash() {
        let mut p = FaultProbe::new();
        p.on_event(t(10), &SimEvent::CoreCrashed { core: 0 });
        let r = p.recoveries()[0];
        assert_eq!(r.downtime(), None);
        assert_eq!(r.recovery_time(), None);
        assert_eq!(p.mean_recovery_ns(), None);
        assert!(p.to_csv().contains("0,10000,,"));
    }

    /// Residency is the last `Dispatched` per flow at the crash; a move
    /// off counts once per resident flow, and only before the heal.
    #[test]
    fn fault_probe_counts_resident_flows_and_moves_off() {
        let mut p = FaultProbe::new();
        let dispatched = |flow, core| SimEvent::Dispatched {
            id: 0,
            slot: nphash::FlowSlot::new(flow),
            service: ServiceKind::IpForward,
            core,
            queue_len: 1,
            migrated: false,
        };
        for (flow, core) in [(0, 3), (1, 3), (2, 3), (4, 1), (0, 2)] {
            p.on_event(t(1), &dispatched(flow, core));
        }
        p.on_event(t(10), &SimEvent::CoreCrashed { core: 3 });
        p.on_event(t(11), &dispatched(1, 0)); // resident, moved off
        p.on_event(t(12), &dispatched(1, 2)); // not off the dead core
        p.on_event(t(13), &dispatched(0, 1)); // never resident
        p.on_event(t(20), &SimEvent::CoreHealed { core: 3 });
        p.on_event(t(21), &dispatched(2, 0)); // after the heal
        let r = p.recoveries()[0];
        assert_eq!((r.resident_flows, r.moved_off), (2, 1));
    }
}
