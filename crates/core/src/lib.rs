//! # laps — the Locality Aware Packet Scheduler (ICPP 2013) and baselines
//!
//! This crate is the paper's primary contribution, built on the substrate
//! crates of this workspace:
//!
//! * [`Laps`] — the full scheduler of §III: per-service map tables
//!   (I-cache locality), incremental hashing under dynamic core
//!   allocation (§III-C/D), a bounded migration table, and load balancing
//!   that migrates **only aggressive flows** identified by the two-level
//!   [`npafd::Afd`] detector (Listing 1).
//! * [`StaticHash`] — pure hash scheduling (Cao et al.): perfect flow
//!   locality, no load balancing at all.
//! * [`Afs`] — Dittmann & Herkersdorf's scheme: hash scheduling that
//!   remaps an entire (arbitrary) hash bucket to the least-loaded core on
//!   imbalance. The paper's main comparison point.
//! * [`TopKMigration`] — migrate-only-top-k flows (Shi et al.), with
//!   either exact per-flow statistics (the infeasible-in-hardware oracle)
//!   or the AFD — the two arms of the Fig. 9 ablation.
//! * [`AdaptiveHash`] — Kencl-style adaptive weighted hashing (the §VI
//!   "complementary" scheme): a control loop re-weights the bucket → core
//!   map from measured per-bucket load.
//! * `FCFS` — re-exported [`npsim::JoinShortestQueue`]: perfect load
//!   balance, zero locality (the paper's FCFS baseline).
//! * [`Scr`] — the State-Compute Replication family (arXiv 2309.14647):
//!   flow-oblivious dispatch (`scr-rr`, `scr-p2c`, `scr-sync{k}`) whose
//!   per-flow state is replicated instead of migrated, billed through
//!   the engine's sync-cost model — the anti-LAPS design pole.
//!
//! Every scheduler implements [`npsim::Scheduler`], so they run on the
//! same engine on identical footing.
//!
//! ```
//! use laps::SimBuilder;
//! use nptraffic::ServiceKind;
//! use nptrace::TracePreset;
//!
//! let report = SimBuilder::new()
//!     .cores(4)
//!     .duration_ms(5)
//!     .scale(1.0)
//!     .constant_source(ServiceKind::IpForward, TracePreset::Auckland(1), 2.0)
//!     .run_named("laps")
//!     .expect("laps is a builtin policy");
//! assert_eq!(report.offered, report.dropped + report.processed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod afs;
pub mod builder;
pub mod config;
pub mod faults;
pub mod handshake;
pub mod hashmemo;
pub mod laps;
pub mod migration;
pub mod registry;
pub mod scr;
pub mod spsc;
pub mod static_hash;
pub mod topk;

pub use adaptive::AdaptiveHash;
pub use afs::Afs;
pub use builder::{scenario_sources, SimBuilder, UnknownScheduler};
pub use config::{LapsConfig, ParkConfig};
pub use faults::{crash_with_heal, random_plan, single_crash};
pub use handshake::{GroupBoard, HandshakeStats};
pub use hashmemo::FlowHashMemo;
pub use laps::Laps;
pub use migration::MigrationTable;
pub use registry::{laps_config_for, BoxedScheduler, SchedulerCtor, SchedulerRegistry};
pub use scr::Scr;
pub use spsc::{Consumer as SpscConsumer, Desc, Producer as SpscProducer};
pub use static_hash::StaticHash;
pub use topk::{DetectorKind, TopKMigration};

/// The paper's FCFS baseline (join-shortest-queue dispatch).
pub use npsim::JoinShortestQueue as Fcfs;

/// Convenience re-exports for downstream binaries.
pub mod prelude {
    pub use crate::{
        crash_with_heal, laps_config_for, random_plan, scenario_sources, single_crash,
        AdaptiveHash, Afs, DetectorKind, Fcfs, Laps, LapsConfig, ParkConfig, SchedulerRegistry,
        Scr, SimBuilder, StaticHash, TopKMigration,
    };
    pub use detsim::SimTime;
    pub use npafd::AfdConfig;
    pub use npsim::{
        CycleReport, Engine, EngineConfig, EventLogProbe, ExecError, ExecutionMode, FaultAction,
        FaultPlan, FaultProbe, FaultStats, MetricsProbe, Probe, ProbeStack, RateSpec,
        RepairOutcome, Scheduler, SimEvent, SimReport, SourceConfig, Stage, SyncPolicy, SyncStats,
        UnsupportedPlan,
    };
    pub use nptrace::TracePreset;
    pub use nptraffic::{ParameterSet, Scenario, ServiceKind, TraceGroup};
}
