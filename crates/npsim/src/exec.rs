//! Execution backends: what actually *runs* a configured simulation.
//!
//! The staged pipeline (ingest → dispatch → service → record) describes
//! the data plane; an [`ExecBackend`] decides how it executes:
//!
//! * no backend — the deterministic single-threaded reference: the
//!   [`Engine`](crate::engine::Engine) run loop, which `SimBuilder`
//!   runs directly (pinned by the workspace golden fixtures).
//! * `npexec::ThreadedBackend` (the `npexec` crate) — real OS threads,
//!   one pinned worker per simulated core, fed over SPSC rings with the
//!   mark → redirect → first-packet-ack migration handshake. Reports
//!   are *statistically* equivalent to detsim (same offered stream via
//!   [`PlanStream`](crate::engine::PlanStream), migration/reorder
//!   counts validated by the `exec_validate` experiment), never
//!   byte-identical — wall-clock interleaving is not reproducible.
//!
//! The trait is object-safe and deliberately coarse — one call runs a
//! whole configuration — so backends can own their run loop entirely:
//! detsim keeps its event queue, npexec spawns its thread pool, and the
//! stages stay backend-neutral.

use crate::engine::EngineConfig;
use crate::probe::ProbeStack;
use crate::report::SimReport;
use crate::sched::Scheduler;
use crate::source::SourceConfig;
use detsim::SimTime;
use std::fmt;

/// Why a backend cannot execute a configuration — the typed half of
/// [`ExecBackend::validate`]. Every variant names what to fix (the
/// first offending plan entry, or the offered volume), so the caller
/// need not grep a panic string.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The configuration's fault plan contains an action this backend
    /// cannot execute.
    UnsupportedPlan(UnsupportedPlan),
    /// The configuration is expected to offer more packets than the
    /// backend can number.
    PlanTooLarge {
        /// Packets the configuration is expected to offer
        /// ([`PlanStream::expected_packets_for`](crate::PlanStream::expected_packets_for)).
        expected: u64,
        /// The most the backend accepts.
        limit: u64,
    },
}

/// The specific fault-plan action combination a backend rejected. All
/// but [`AllWorkersDown`](UnsupportedPlan::AllWorkersDown) come from
/// [`FaultPlan::validate`](crate::FaultPlan::validate), which both
/// backends run.
#[derive(Debug, Clone, PartialEq)]
pub enum UnsupportedPlan {
    /// A crash/heal/throttle/stall names a core past the run's cores
    /// (npexec: its workers).
    CoreOutOfRange {
        /// When the action is scheduled.
        at: SimTime,
        /// The out-of-range core.
        core: usize,
        /// Cores (workers) the run has.
        workers: usize,
    },
    /// A throttle factor that is not a finite positive number.
    ThrottleFactor {
        /// When the throttle is scheduled.
        at: SimTime,
        /// The throttled core.
        core: usize,
        /// The offending factor.
        factor: f64,
    },
    /// A stall whose end `at + duration` lies past `SimTime::MAX`.
    StallOverflow {
        /// When the stall is scheduled.
        at: SimTime,
        /// The stalled core.
        core: usize,
    },
    /// Executing the plan in order would crash the last live worker —
    /// with no live ring to repair onto, the run cannot make progress.
    AllWorkersDown {
        /// When the fatal crash is scheduled.
        at: SimTime,
        /// Workers the backend would run.
        workers: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnsupportedPlan(u) => write!(f, "unsupported fault plan: {u}"),
            ExecError::PlanTooLarge { expected, limit } => write!(
                f,
                "the configuration offers about {expected} packets, more than the \
                 backend's limit of {limit}; shorten the horizon or lower the rates"
            ),
        }
    }
}

impl fmt::Display for UnsupportedPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnsupportedPlan::CoreOutOfRange { at, core, workers } => write!(
                f,
                "fault at {at:?} targets core {core} but the run has \
                 {workers} cores"
            ),
            UnsupportedPlan::ThrottleFactor { at, core, factor } => write!(
                f,
                "throttle of core {core} at {at:?} has factor {factor}, \
                 not a finite positive number"
            ),
            UnsupportedPlan::StallOverflow { at, core } => write!(
                f,
                "stall of core {core} at {at:?} ends past the largest \
                 representable instant"
            ),
            UnsupportedPlan::AllWorkersDown { at, workers } => write!(
                f,
                "crash at {at:?} would take down the last of {workers} workers; \
                 no live ring remains to repair onto"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// A strategy for executing one configured simulation run.
///
/// Implementations consume the scheduler boxed (policies are stateful)
/// and hand back the probe stack so callers can read accumulated
/// observations — the same contract as
/// [`Engine::run_full`](crate::engine::Engine::run_full), minus the
/// scheduler (backends that shard the policy across threads cannot
/// return a single instance).
pub trait ExecBackend {
    /// Stable backend name (reports and experiment tables key on it).
    fn name(&self) -> &'static str;

    /// Whether this backend can execute `cfg` at all. The default
    /// accepts everything (detsim executes every plan); backends with a
    /// narrower envelope override it and return the first offending
    /// entry as a typed [`ExecError`]. [`ExecBackend::run`] is
    /// permitted to panic on configurations `validate` rejects.
    fn validate(&self, _cfg: &EngineConfig, _sources: &[SourceConfig]) -> Result<(), ExecError> {
        Ok(())
    }

    /// Run `cfg` + `sources` under `scheduler`, publishing to `probes`,
    /// to completion.
    fn run(
        &mut self,
        cfg: &EngineConfig,
        sources: &[SourceConfig],
        scheduler: Box<dyn Scheduler>,
        probes: ProbeStack,
    ) -> (SimReport, ProbeStack);
}
