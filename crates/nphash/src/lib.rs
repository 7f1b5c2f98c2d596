//! # nphash — packet-header hashing substrate
//!
//! Everything the LAPS scheduler (ICPP 2013) needs to turn a packet header
//! into a core ID:
//!
//! * [`FlowId`] — the 5-tuple flow identifier (source/destination IP,
//!   source/destination port, protocol).
//! * [`crc`] — CRC16-CCITT (the hash the paper uses, shown by Cao et al.
//!   to balance IP headers well), with both a bitwise reference
//!   implementation and a table-driven fast path.
//! * [`incremental`] — the paper's *incremental hashing* (§III-C): a
//!   linear-hashing scheme where growing a service from `b` to `b+1`
//!   buckets only remaps the flows of the single bucket being split.
//! * [`maptable`] — a per-service map table: bucket list + incremental
//!   hash → core ID, with grow/shrink operations used by dynamic core
//!   allocation.
//! * [`interner`] — dense flow slots ([`FlowSlot`]) and the standalone
//!   [`FlowInterner`] for arbitrary [`FlowId`]s: every distinct flow
//!   gets a slot on first emission, and all later per-flow state is a
//!   plain array index. The simulator's run path assigns its slots
//!   through dense per-namespace tables instead and hashes no
//!   [`FlowId`], as hash-free as the hardware the paper models.
//! * [`det`] — fixed-seed hashed collections ([`DetHashMap`],
//!   [`DetHashSet`]) for reproducible simulation state; `clippy.toml`
//!   disallows std's randomly-seeded maps in their favour.
//!
//! ```
//! use nphash::{FlowId, MapTable};
//!
//! // A 4-core service; flows hash onto the 4 cores.
//! let mut table: MapTable<u32> = MapTable::new(vec![0, 1, 2, 3]);
//! let flow = FlowId::v4([10, 0, 0, 1], [10, 0, 0, 2], 1234, 80, 6);
//! let before = table.lookup(flow);
//!
//! // Granting a 5th core splits exactly one bucket.
//! table.add_core(4);
//! let after = table.lookup(flow);
//! assert!(after == before || after == 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod det;
pub mod flow;
pub mod incremental;
pub mod interner;
pub mod maptable;

pub use crc::{crc16_ccitt, crc16_ccitt_batch, Crc16Ccitt};
pub use det::{DetHashMap, DetHashSet};
pub use flow::FlowId;
pub use incremental::IncrementalHash;
pub use interner::{FlowInterner, FlowSlot};
pub use maptable::MapTable;
