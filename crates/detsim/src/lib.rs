//! # detsim — deterministic discrete-event simulation kernel
//!
//! A small, allocation-light discrete-event simulation (DES) kernel used as
//! the substrate for the network-processor model in this workspace. The
//! original paper built its evaluation on a SpecC simulation model; this
//! crate provides the equivalent semantics in safe Rust:
//!
//! * [`SimTime`] — virtual time in integer nanoseconds (no floating-point
//!   drift, total ordering).
//! * [`EventQueue`] — a priority queue of `(time, event)` pairs with
//!   **deterministic tie-breaking** by insertion sequence, so identical
//!   inputs always replay identically.
//! * [`rng`] — seed-derivation utilities (SplitMix64) and reproducible
//!   per-component RNG streams.
//! * [`BoundedQueue`] — a fixed-capacity drop-tail FIFO, used to model
//!   per-core input queues of packet descriptors.
//! * [`stats`] — counters and histograms for simulation reports.
//!
//! The kernel is intentionally generic: it knows nothing about packets or
//! cores. See the `npsim` crate for the network-processor model built on it.
//!
//! ## Example
//!
//! ```
//! use detsim::{EventQueue, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick(u32) }
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::from_micros(2), Ev::Tick(2));
//! q.push(SimTime::from_micros(1), Ev::Tick(1));
//! q.push(SimTime::from_micros(1), Ev::Tick(10)); // same time: FIFO order
//!
//! assert_eq!(q.pop().unwrap().1, Ev::Tick(1));
//! assert_eq!(q.pop().unwrap().1, Ev::Tick(10));
//! assert_eq!(q.pop().unwrap().1, Ev::Tick(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::{EventEntry, EventQueue};
pub use queue::{BoundedQueue, PushOutcome};
pub use rng::{derive_seed, SeedSequence, SplitMix64};
pub use stats::{Counter, Histogram, WelfordMean};
pub use time::SimTime;
