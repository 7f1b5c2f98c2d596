//! Offline stand-in for the [loom](https://github.com/tokio-rs/loom)
//! model checker.
//!
//! The build container resolves every external crate to an in-workspace
//! shim (see the workspace `Cargo.toml`), so `loom` gets one too — but a
//! pass-through shim would make the `--cfg loom` tests meaningless.
//! This crate therefore implements a real, if bounded, *interleaving
//! explorer*:
//!
//! * [`model`] runs the test closure repeatedly. All `loom::thread`
//!   threads are real OS threads, but a scheduler gate ensures exactly
//!   one runs at a time; every access through a `loom::sync::atomic`
//!   type (and every spawn/join/yield) is a *schedule point* where the
//!   scheduler may switch threads.
//! * Schedules are explored by depth-first search over the choice made
//!   at each schedule point: after an execution finishes, the last
//!   choice with an unexplored alternative is flipped and the execution
//!   reruns under that prefix. With a small, deterministic test body
//!   the search is exhaustive; a budget ([`MAX_EXECUTIONS`]) bounds
//!   pathological state spaces.
//! * `thread::yield_now` deprioritizes the calling thread until every
//!   thread that could run at the yield, other deferred yielders
//!   excepted, has been scheduled — the loom contract that makes
//!   bounded spin loops (`while try_pop() is None { yield_now() }`)
//!   terminate instead of exploding the search, even when several
//!   threads spin on one that has yet to run.
//!
//! ## Fidelity
//!
//! Unlike real loom this shim models **sequential consistency**: it
//! explores every interleaving of atomic operations but not the extra
//! reorderings a relaxed memory model permits, and it does not track
//! `Acquire`/`Release` pairing. It proves the *protocol* (no lost or
//! duplicated slots, FIFO order, mark placement) under all schedules;
//! the memory-ordering annotations themselves are reviewed by the
//! `npcheck` `shared-state-audit` rule's mandatory
//! `// npcheck: ordering(..)` justifications and exercised dynamically
//! by the ThreadSanitizer CI build.

mod sched;

pub mod sync;
pub mod thread;

pub use sched::{model, MAX_EXECUTIONS, MAX_STEPS, PREEMPTION_BOUND};

/// Explorer settings, at loom's path.
pub mod model {
    pub use crate::sched::Builder;
}
