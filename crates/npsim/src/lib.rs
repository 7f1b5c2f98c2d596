//! # npsim — the network-processor simulation model
//!
//! The Rust equivalent of the paper's SpecC model (§IV, Fig. 6): a
//! deterministic discrete-event simulation of the data-plane fast path of
//! a multicore communications processor.
//!
//! * [`PacketDesc`] — a packet descriptor as the frame manager would
//!   enqueue it: flow ID, service, size, arrival time, per-flow sequence.
//! * [`TrafficSource`] — per-service packet generation: headers drawn from
//!   an `nptrace` generator, arrival times from an `nptraffic` rate model
//!   (constant or Holt-Winters).
//! * [`Scheduler`] — the trait every scheduling policy implements; the
//!   engine gives it each packet plus a [`SystemView`] of queue state and
//!   it answers with a target core. Two trivial policies ship here
//!   ([`RoundRobin`], [`JoinShortestQueue`]); the paper's policies live in
//!   the `laps` crate.
//! * [`Engine`] — the event loop: bounded per-core input queues (32
//!   descriptors), processing delays per the Eq. 3 model with
//!   flow-migration and cold-I-cache penalties, drop accounting, and
//!   packet-reordering measurement at departure.
//! * [`CoreClock`] — one core's cost model (cold starts, Eq. 3,
//!   throttles, busy time, virtual clock), the one both execution
//!   backends charge service time with.
//! * [`SimReport`] — everything the paper's figures need: drops,
//!   out-of-order departures, flow migrations, cold-cache fraction,
//!   latency distribution, per-service breakdowns.
//!
//! Every arrival is a data-plane packet, as in the paper's evaluation
//! (§IV). Optional engine features (off by default, matching the
//! paper's model): an egress [`RestorationBuffer`] (§VI's
//! order-restoration alternative) and a deterministic [`FaultPlan`].
//! Per-core busy time is always accounted, for power models.
//!
//! The engine is exactly reproducible: same configuration + seed → the
//! same report, bit for bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod core_clock;
pub mod engine;
pub mod event;
pub mod exec;
pub mod fault;
mod mem;
pub mod order;
pub mod packet;
pub mod probe;
pub mod report;
pub mod restore;
pub mod sched;
pub mod source;

pub use core_clock::{Charge, CoreClock};
pub use engine::{
    ArrivalPlan, CycleReport, Engine, EngineConfig, ExecutionMode, PlanStream, ScheduledPacket,
    Stage, StageCycles,
};
pub use event::SimEvent;
pub use exec::{ExecBackend, ExecError, UnsupportedPlan};
pub use fault::{FaultAction, FaultPlan, FaultProbe, FaultStats, Recovery};
pub use order::OrderTracker;
pub use packet::PacketDesc;
pub use probe::{EventLogProbe, MetricsProbe, Probe, ProbeHost, ProbeStack, ReportProbe};
pub use report::{ServiceBreakdown, SimReport, SyncStats};
pub use restore::{RestorationBuffer, RestorationStats};
pub use sched::{
    JoinShortestQueue, QueueInfo, RepairOutcome, RoundRobin, Scheduler, SyncPolicy, SystemView,
};
pub use source::{RateSpec, SourceConfig, TrafficSource};
