//! Packet descriptors.

use detsim::SimTime;
use nphash::{FlowId, FlowSlot};
use nptraffic::ServiceKind;

/// A packet descriptor, as the frame manager would hand it to the
/// scheduler: header-derived identity plus bookkeeping the simulation
/// needs to measure reordering and penalties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketDesc {
    /// Globally unique packet id (assignment order).
    pub id: u64,
    /// The 5-tuple flow this packet belongs to.
    pub flow: FlowId,
    /// The flow's dense arena slot ([`FlowSlot`], assigned by the
    /// engine's ingest stage on the flow's first arrival): the hash-free
    /// key for all per-flow state on the packet path.
    pub slot: FlowSlot,
    /// Which service must process it.
    pub service: ServiceKind,
    /// Size in bytes (drives path-1/path-4 processing time).
    pub size: u16,
    /// Arrival (scheduling) time.
    pub arrival: SimTime,
    /// Per-flow arrival sequence number (0-based) — the reference order
    /// for reordering measurement.
    pub flow_seq: u64,
    /// Whether dispatch moved this flow to a different core than its
    /// previous packet used (incurs the FM penalty when processed).
    pub migrated: bool,
    /// State-sync surcharge in nanoseconds, added to this packet's
    /// service time (SCR cost model: per-stale-replica retrieval cost,
    /// stamped at dispatch). Always 0 outside the `scr-*` family.
    pub sync_debt_ns: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_is_plain_data() {
        let p = PacketDesc {
            id: 1,
            flow: FlowId::from_index(3),
            slot: FlowSlot::new(0),
            service: ServiceKind::IpForward,
            size: 64,
            arrival: SimTime::from_micros(5),
            flow_seq: 0,
            migrated: false,
            sync_debt_ns: 0,
        };
        let q = p;
        assert_eq!(p, q);
    }
}
