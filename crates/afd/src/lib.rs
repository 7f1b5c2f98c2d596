//! # npafd — Aggressive Flow Detector (§III-F of the paper)
//!
//! The paper's key hardware contribution: identify the top heavy-hitter
//! ("aggressive") flows **without per-flow state**, using a two-level
//! caching scheme derived from the *annex cache* (John & Subramanian,
//! ICCD 1997):
//!
//! * a small fully-associative **Aggressive Flow Cache (AFC)** — its
//!   contents *are* the detector's answer: "flows that hit in the AFC are
//!   considered aggressive flows";
//! * a larger **annex cache** acting as a qualifying station and victim
//!   cache: "a flow deserves to enter AFC only if it proves its right to
//!   be in AFC by showing locality in the annex cache".
//!
//! Both levels use LFU replacement. A flow whose annex hit-count exceeds a
//! promotion threshold moves to the AFC; the AFC's LFU victim is demoted
//! into the annex (inertia before a flow is fully excluded).
//!
//! The crate also provides the comparators used in the evaluation:
//!
//! * [`ElephantTrap`] — the single-cache scheme of Lu et al. (HOTI 2007),
//!   which the paper shows suffers false positives from transient mice;
//! * [`ExactTopK`] — exact per-flow counters, the offline ground truth
//!   (and the per-flow-statistics scheme of Shi et al. that LAPS avoids).
//!
//! ```
//! use npafd::{Afd, AfdConfig};
//! use nphash::FlowSlot;
//!
//! let mut afd = Afd::new(AfdConfig { afc_entries: 4, annex_entries: 64,
//!     promote_threshold: 2, ..AfdConfig::default() });
//! let elephant = FlowSlot::new(7);
//! for _ in 0..10 { afd.access(elephant); }
//! assert!(afd.is_aggressive(elephant));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod detector;
pub mod elephanttrap;
pub mod oracle;
pub mod spacesaving;

pub use cache::{CachePolicy, FlowCache};
pub use detector::{Afd, AfdAccess, AfdConfig, AfdStats, PromotionPolicy};
pub use elephanttrap::ElephantTrap;
pub use oracle::ExactTopK;
pub use spacesaving::SpaceSaving;
