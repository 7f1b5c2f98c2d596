//! # nptrace — synthetic network-trace substrate
//!
//! The paper evaluates against real CAIDA (equinix-sanjose, OC-192, 2011)
//! and Auckland-II traces. Those datasets are access-gated/archival, so
//! this crate provides the closest synthetic equivalent — per the
//! substitution policy in `DESIGN.md` — exercising the same code paths:
//!
//! * a heavy-tailed **flow popularity** model ([`zipf`]) matching the
//!   "few heavy-hitter flows, very many mice" property of Fig. 2;
//! * per-flow **packet-size profiles** ([`sizes`]) with the classic
//!   trimodal Internet mix (64 / 576 / 1500 bytes);
//! * temporal **burst interleaving** ([`gen`]) so consecutive packets of a
//!   flow cluster the way they do on a real link;
//! * named **presets** ([`presets`]) `caida1..6` (many active flows, many
//!   heavy flows) and `auck1..8` (fewer flows, milder tail), mirroring the
//!   trace lists of Tables I/II;
//! * **offline analysis** ([`analysis`]): exact per-flow counters, top-k
//!   ground truth (whole-trace and windowed), and the rank-size
//!   distribution that regenerates Fig. 2.
//!
//! ```
//! use nptrace::{TraceConfig, TraceGenerator};
//!
//! let trace = TraceGenerator::new(TraceConfig::small_test(), 42).generate();
//! let stats = trace.analyze();
//! // Heavy tail: the top 1% of flows carry the majority of packets.
//! assert!(stats.top_fraction(0.01) > 0.3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod gen;
pub mod packet;
pub mod presets;
pub mod sizes;
pub mod zipf;

pub use analysis::TraceStats;
pub use gen::{TraceConfig, TraceGenerator};
pub use packet::{PacketRecord, Trace};
pub use presets::TracePreset;
pub use sizes::{SizeModel, SizeProfile};
pub use zipf::ZipfSampler;
