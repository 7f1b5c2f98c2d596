//! `npfarm` — deterministic sweep orchestration.
//!
//! The paper's evaluation is one large parameter sweep (schedulers ×
//! scenarios × seeds × quick/full profiles). Every cell of that sweep
//! is, by the workspace determinism contract, a pure function of its
//! declared configuration — which makes three things mechanically safe
//! that are usually leaps of faith:
//!
//! * **parallelism** — cells can run on any worker in any order and the
//!   aggregated output is byte-identical to a serial run (property-
//!   tested in `tests/determinism.rs` and the workspace
//!   `farm_equivalence` test);
//! * **caching** — a cell whose key (config + trace preset + schema +
//!   crate version) is unchanged can be loaded from disk instead of
//!   re-run, because equal keys imply byte-identical results;
//! * **sharding** — `--shard k/n` splits a sweep across CI matrix jobs
//!   with no coordination beyond the deterministic cell order.
//!
//! The pieces:
//!
//! * [`Sweep`] — the trait experiment binaries implement (typed cells,
//!   canonical per-cell key fields, a deterministic runner);
//! * [`Farm`] — the orchestrator: bounded work-stealing pool
//!   ([`pool`]), content-addressed cache ([`cache`]), shard/resume
//!   selection, per-cell JSONL with wall-time and packets/s;
//! * [`benchdiff`] — only [`benchdiff::HostFingerprint`], the host
//!   block `npbench --all` writes into its documents.
//!
//! Shared CLI flags (parsed by [`Farm::from_args`], ignored by the
//! binaries' own parsers): `--jobs N`, `--shard k/n`, `--resume`,
//! `--no-cache`, `--cache-dir <path>`.

#![forbid(unsafe_code)]

pub mod benchdiff;
pub mod cache;
pub mod key;
pub mod pool;
mod sweep;

pub use key::{CellKey, KeyFields, CRATE_VERSION, SCHEMA_VERSION};
pub use sweep::{CellOutcome, CellStatus, Farm, Sweep, SweepOutcome};
