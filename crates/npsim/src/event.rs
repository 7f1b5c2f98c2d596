//! The typed simulation-event stream (the observability bus payload).
//!
//! Every stage of the engine pipeline — ingest, dispatch, service,
//! record — publishes its state transitions as [`SimEvent`] values. The
//! record stage folds them into the [`SimReport`](crate::SimReport)
//! (always, statically) and forwards them to any attached
//! [`Probe`](crate::Probe)s (only when probes are attached; the
//! zero-probe engine compiles the forwarding away entirely).
//!
//! Events are small `Copy` values carrying indices and scalars only — no
//! owned data — so publishing one is a register move, never an
//! allocation. The taxonomy mirrors the paper's measurement axes:
//! arrivals and drops (Fig. 7's loss), migrations and reorderings
//! (Figs. 7–9), service occupancy (utilization / power), and the fault
//! plan's crash/heal transitions. Policy-internal state (LAPS's parked
//! cores) is not on the bus; read it from the policy after the run.

use detsim::SimTime;
use nphash::FlowSlot;
use nptraffic::ServiceKind;

/// One state transition inside the simulation pipeline.
///
/// Published in causal order at each virtual-time instant: for an
/// arrival, `PacketArrived` → (`Dispatched` + `Migration` | `Dropped`)
/// → `ServiceStart` (if the core was free); for a completion,
/// `Departure` (+ `ReorderDetected`) → `ServiceStart` of the next
/// queued packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// A packet entered the data plane from a traffic source.
    PacketArrived {
        /// Globally unique packet ID (arrival order).
        id: u64,
        /// Dense flow arena slot.
        slot: FlowSlot,
        /// Service the packet requests.
        service: ServiceKind,
        /// Wire size in bytes.
        size: u16,
    },
    /// The scheduler placed a packet on a core's input queue. npexec
    /// publishes it after each ring push when probes are attached.
    Dispatched {
        /// Packet ID.
        id: u64,
        /// Flow slot.
        slot: FlowSlot,
        /// Service.
        service: ServiceKind,
        /// Target core.
        core: usize,
        /// Queue occupancy *after* the enqueue. On npexec: the ring's
        /// occupancy from the producer's conservative view, which counts
        /// slots the worker may already have drained.
        queue_len: usize,
        /// Whether this dispatch moved the flow off its previous core.
        migrated: bool,
    },
    /// A flow's packet was enqueued to a different core than the flow's
    /// previous packet (the paper's migration event). Published once per
    /// migrating dispatch, right after its `Dispatched`, on both
    /// backends: whatever moved the flow (a scheduler decision, a load
    /// handshake, a crash repair or a heal), it counts on the flow's
    /// first packet on the new core.
    Migration {
        /// Flow slot.
        slot: FlowSlot,
        /// Core the flow's previous packet used.
        from: usize,
        /// Core this packet was dispatched to.
        to: usize,
    },
    /// A packet hit a full input queue and was dropped.
    Dropped {
        /// Packet ID.
        id: u64,
        /// Flow slot.
        slot: FlowSlot,
        /// Service.
        service: ServiceKind,
        /// Core whose queue was full.
        core: usize,
    },
    /// A core began servicing a packet.
    ServiceStart {
        /// The core.
        core: usize,
        /// Service being executed.
        service: ServiceKind,
        /// Whether the core's instruction cache was cold (previous packet
        /// belonged to a different service — Eq. 3's 10 µs penalty).
        cold: bool,
        /// Whether the packet had migrated (Eq. 3's 0.8 µs penalty).
        migrated: bool,
        /// Total service duration, penalties included.
        duration: SimTime,
    },
    /// A packet left the system (after order restoration, if enabled).
    Departure {
        /// Packet ID.
        id: u64,
        /// Flow slot.
        slot: FlowSlot,
        /// Service.
        service: ServiceKind,
        /// Arrival-to-departure latency in nanoseconds.
        latency_ns: u64,
        /// Whether the departure was out of order for its flow.
        out_of_order: bool,
    },
    /// A departure arrived behind a higher-sequence packet of the same
    /// flow (RFC 4737 reordered singleton). Published alongside the
    /// corresponding `Departure { out_of_order: true }`.
    ReorderDetected {
        /// Flow slot.
        slot: FlowSlot,
        /// Arrival sequence of the late packet.
        flow_seq: u64,
        /// How many sequence numbers late it was.
        extent: u64,
    },
    /// A fault-plan crash killed a core: its in-service and queued
    /// packets were dropped, and the scheduler was asked to repair.
    CoreCrashed {
        /// The crashed core.
        core: usize,
    },
    /// A fault-plan heal brought a crashed core back.
    CoreHealed {
        /// The healed core.
        core: usize,
    },
    /// A periodic rate-update tick fired (sources re-sampled their rate
    /// laws). Marks epoch boundaries for time-bucketed probes.
    EpochTick,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_small_copy_values() {
        // The bus publishes by value on the hot path; keep the payload a
        // couple of machine words.
        assert!(std::mem::size_of::<SimEvent>() <= 48);
        let e = SimEvent::EpochTick;
        let f = e; // Copy
        assert_eq!(e, f);
    }
}
