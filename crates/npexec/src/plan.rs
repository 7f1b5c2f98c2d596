//! The streamed arrival plan: the descriptor a ring slot carries, and
//! the per-flow order witness that grows as flows appear.
//!
//! The paper's frame manager hands the scheduler one *descriptor* per
//! packet as it arrives, and hashes a flow to its group once. npexec's
//! dispatcher does the same to [`npsim::PlanStream`]: it draws each
//! packet when it dispatches it, narrows the 56-byte `ScheduledPacket`
//! to an [`ExecDesc`], and pushes that descriptor *by value* into the
//! owning worker's ring. A flow's group is one CRC16 on the flow's
//! first packet, kept by the dispatcher for the flow's later packets.
//! No thread indexes a shared plan, so the run holds O(flows) state,
//! not O(packets).
//!
//! Positions and per-flow sequence numbers travel in 32 bits;
//! [`MAX_PLAN_PACKETS`] is the limit `validate` enforces, with half of
//! the `u32` range left as margin over the stream's estimate.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, PoisonError};

use detsim::SimTime;
use laps::spsc::Payload;
use nphash::FlowSlot;
use nptraffic::ServiceKind;

/// Most packets a configuration may be expected to offer: positions and
/// per-flow sequence numbers are `u32`, and the stream's estimate
/// ([`npsim::PlanStream::expected_packets_for`]) is a mean, so half the
/// range is kept as margin. The dispatcher asserts the hard `u32` bound.
pub(crate) const MAX_PLAN_PACKETS: u64 = u32::MAX as u64 / 2;

/// One packet as the threads see it, carried by value in a ring slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ExecDesc {
    /// Plan position: the packet's index in the offered stream (its id).
    pub pos: u32,
    /// Dense arena slot of the flow.
    pub slot: FlowSlot,
    /// Per-flow arrival sequence number (0-based), the reorder witness.
    pub flow_seq: u32,
    /// Flow group (map-table bucket) of the packet's flow.
    pub group: u32,
    /// Frame size in bytes.
    pub size: u16,
    /// Service the packet requests.
    pub service: ServiceKind,
    /// The dispatcher moved this packet's flow to a new worker, so the
    /// worker charges the Eq. 3 migration penalty.
    pub migrated: bool,
    /// Arrival instant: the earliest the worker's clock starts it.
    pub at: SimTime,
}

const SIZE_SHIFT: u32 = 32;
const SERVICE_SHIFT: u32 = 48;
const MIGRATED_SHIFT: u32 = 50;

/// Four words: `pos | size | service | migrated` (bits 0–50 of word 0,
/// leaving the ring's mark tag alone), `slot | flow_seq`, `group`, and
/// the arrival instant in nanoseconds.
impl Payload for ExecDesc {
    type Words = [u64; 4];

    #[inline]
    fn encode(self) -> [u64; 4] {
        [
            u64::from(self.pos)
                | u64::from(self.size) << SIZE_SHIFT
                | (self.service.index() as u64) << SERVICE_SHIFT
                | u64::from(self.migrated) << MIGRATED_SHIFT,
            u64::from(self.slot.raw()) | u64::from(self.flow_seq) << 32,
            u64::from(self.group),
            self.at.as_nanos(),
        ]
    }

    #[inline]
    fn decode(words: [u64; 4]) -> Self {
        let [a, b, c, d] = words;
        ExecDesc {
            pos: a as u32,
            size: (a >> SIZE_SHIFT) as u16,
            service: ServiceKind::from_index(((a >> SERVICE_SHIFT) & 3) as usize),
            migrated: (a >> MIGRATED_SHIFT) & 1 != 0,
            slot: FlowSlot::new(b as u32),
            flow_seq: (b >> 32) as u32,
            group: c as u32,
            at: SimTime::from_nanos(d),
        }
    }
}

/// Flows per witness chunk (32 KiB of counters).
const WATCH_CHUNK: usize = 4096;

/// The per-flow order witness: highest serviced `flow_seq + 1` per flow
/// slot, shared by every worker. It grows in fixed chunks that never
/// move once published: the dispatcher publishes a flow's chunk before
/// it pushes the flow's first packet, and a worker that meets a flow
/// past its copy of the chunk list refreshes the copy.
#[derive(Debug, Default)]
pub(crate) struct SeqWatch {
    chunks: Mutex<Vec<Arc<[AtomicU64]>>>,
}

impl SeqWatch {
    /// Publish chunks until `flow` is covered; returns the number of
    /// flows now covered. The dispatcher calls it only for a flow past
    /// the last return value, so it runs once per chunk.
    pub(crate) fn publish_through(&self, flow: usize) -> usize {
        // npcheck: allow(blocking-hot-path) — cold, once per chunk of flows
        let mut chunks = self.chunks.lock().unwrap_or_else(PoisonError::into_inner);
        while chunks.len() * WATCH_CHUNK <= flow {
            // npcheck: allow(blocking-hot-path) — cold, once per chunk of flows
            chunks.push((0..WATCH_CHUNK).map(|_| AtomicU64::new(0)).collect());
        }
        chunks.len() * WATCH_CHUNK
    }

    /// A worker's view of the witness.
    pub(crate) fn view(&self) -> WatchView<'_> {
        WatchView {
            shared: self,
            local: Vec::new(),
        }
    }
}

/// One worker's copy of the witness's chunk list.
#[derive(Debug)]
pub(crate) struct WatchView<'a> {
    shared: &'a SeqWatch,
    local: Vec<Arc<[AtomicU64]>>,
}

impl WatchView<'_> {
    /// The witness of `flow`; `None` only for a flow the dispatcher
    /// never published.
    #[inline]
    pub(crate) fn get(&mut self, flow: usize) -> Option<&AtomicU64> {
        let chunk = flow / WATCH_CHUNK;
        if chunk >= self.local.len() {
            // The lock orders the dispatcher's publication before this
            // read.
            // npcheck: allow(blocking-hot-path) — cold, once per chunk per worker
            let shared = self.shared.chunks.lock();
            let shared = shared.unwrap_or_else(PoisonError::into_inner);
            let have = self.local.len();
            self.local.extend(shared.iter().skip(have).cloned());
        }
        self.local.get(chunk)?.get(flow % WATCH_CHUNK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn desc() -> ExecDesc {
        ExecDesc {
            pos: 0,
            slot: FlowSlot::new(0),
            flow_seq: 0,
            group: 0,
            size: 0,
            service: ServiceKind::VpnOut,
            migrated: false,
            at: SimTime::ZERO,
        }
    }

    #[test]
    fn descriptor_round_trips_every_field_at_its_extremes() {
        let max = ExecDesc {
            pos: u32::MAX,
            slot: FlowSlot::new(u32::MAX),
            flow_seq: u32::MAX,
            group: u32::MAX,
            size: u16::MAX,
            service: ServiceKind::VpnInScan,
            migrated: true,
            at: SimTime::MAX,
        };
        let mut cases = vec![desc(), max];
        // One field at its maximum, the rest at zero.
        cases.push(ExecDesc {
            pos: u32::MAX,
            ..desc()
        });
        cases.push(ExecDesc {
            slot: FlowSlot::new(u32::MAX),
            ..desc()
        });
        cases.push(ExecDesc {
            flow_seq: u32::MAX,
            ..desc()
        });
        cases.push(ExecDesc {
            group: u32::MAX,
            ..desc()
        });
        cases.push(ExecDesc {
            size: u16::MAX,
            ..desc()
        });
        cases.push(ExecDesc {
            migrated: true,
            ..desc()
        });
        cases.push(ExecDesc {
            at: SimTime::MAX,
            ..desc()
        });
        for service in ServiceKind::ALL {
            cases.push(ExecDesc { service, ..desc() });
        }
        for d in cases {
            let words = d.encode();
            let [w0, ..] = words;
            assert_eq!(w0 >> 63, 0, "the mark tag stays clear: {d:?}");
            assert_eq!(ExecDesc::decode(words), d);
        }
    }

    #[test]
    fn descriptors_cross_a_ring_beside_marks() {
        let (mut p, mut c) = laps::spsc::ring::<ExecDesc>(4);
        let d = ExecDesc {
            pos: u32::MAX,
            group: 7,
            migrated: true,
            service: ServiceKind::VpnInScan,
            size: u16::MAX,
            ..desc()
        };
        p.try_push(laps::Desc::Packet(d)).expect("room");
        p.try_push_mark(7).expect("room");
        assert_eq!(c.try_pop(), Some(laps::Desc::Packet(d)));
        assert_eq!(c.try_pop(), Some(laps::Desc::Mark(7)));
    }

    #[test]
    fn witness_chunks_publish_once_and_stay_put() {
        let watch = SeqWatch::default();
        let mut view = watch.view();
        assert!(view.get(0).is_none(), "nothing published yet");
        assert_eq!(watch.publish_through(0), WATCH_CHUNK);
        view.get(5).expect("published").store(9, Ordering::Relaxed);
        assert_eq!(watch.publish_through(3 * WATCH_CHUNK), 4 * WATCH_CHUNK);
        let far = view.get(3 * WATCH_CHUNK + 1).expect("view refreshes");
        far.store(1, Ordering::Relaxed);
        let mut other = watch.view();
        assert_eq!(other.get(5).map(|w| w.load(Ordering::Relaxed)), Some(9));
        assert!(other.get(4 * WATCH_CHUNK).is_none());
    }
}
